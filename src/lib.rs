//! # syrk-repro — communication-optimal parallel SYRK (SPAA '23)
//!
//! Umbrella crate for the reproduction of *Parallel Memory-Independent
//! Communication Bounds for SYRK* (Al Daas, Ballard, Grigori, Kumar,
//! Rouse). It re-exports the workspace crates and offers a one-call
//! entry point that plans (§5.4) and runs the optimal algorithm.
//!
//! ```
//! use syrk_repro::{run_auto, CostModel};
//! use syrk_repro::dense::{seeded_matrix, syrk_full_reference, max_abs_diff};
//!
//! let a = seeded_matrix::<f64>(64, 512, 7);
//! let (plan, run) = run_auto(&a, 8, CostModel::bandwidth_only());
//! println!("planned {plan:?}, moved {} words", run.cost.max_words_sent());
//! assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-9);
//! ```

#![warn(missing_docs)]

pub use syrk_core as core;
pub use syrk_dense as dense;
pub use syrk_geometry as geometry;
pub use syrk_machine as machine;

pub use syrk_core::{
    plan, run, syrk_1d, syrk_2d, syrk_3d, syrk_lower_bound, Plan, RunSpec, SyrkRunResult,
};
pub use syrk_machine::CostModel;

use syrk_dense::Matrix;

/// Plan the optimal algorithm/grid for `(a.rows(), a.cols())` on at most
/// `p` simulated processors (§5.4) and execute it. Returns the chosen
/// plan together with the run result (assembled `C` + cost report):
/// [`run`] of `RunSpec::new(chosen, model)`, panicking on error.
pub fn run_auto(a: &Matrix<f64>, p: usize, model: CostModel) -> (Plan, SyrkRunResult) {
    let chosen = plan(a.rows(), a.cols(), p).plan;
    match run(a, &RunSpec::new(chosen, model)) {
        Ok(out) => (chosen, out.result),
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_dense::{max_abs_diff, seeded_matrix, syrk_full_reference};

    #[test]
    fn run_auto_executes_each_family() {
        // Short-wide → 1D; tall-skinny → 2D; square with many ranks → 3D.
        let cases = [(16usize, 256usize, 4usize), (256, 6, 12), (48, 48, 24)];
        let mut seen = Vec::new();
        for (n1, n2, p) in cases {
            let a = seeded_matrix::<f64>(n1, n2, 1);
            let (plan, run) = run_auto(&a, p, CostModel::bandwidth_only());
            assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-9);
            seen.push(std::mem::discriminant(&plan));
        }
        seen.dedup();
        assert_eq!(seen.len(), 3, "expected three distinct algorithm families");
    }
}
