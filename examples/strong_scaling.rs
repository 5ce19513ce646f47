//! Strong-scaling sweep: fix the matrix, grow `P`, and watch the planner
//! switch algorithm families at the §5.4 case boundaries while the
//! measured communication tracks the Theorem 1 bound.
//!
//! ```text
//! cargo run --release --example strong_scaling
//! ```

use syrk_core::{plan, run, syrk_lower_bound, RunSpec, SyrkError};
use syrk_dense::{max_abs_diff, seeded_matrix, syrk_full_reference};
use syrk_machine::CostModel;

fn main() -> Result<(), SyrkError> {
    // A square-ish 120 × 240 input; boundary P = n2/√(n1(n1−1)) ≈ 2, so
    // the 3D regime arrives quickly as P grows.
    let (n1, n2) = (120usize, 240usize);
    let a = seeded_matrix::<f64>(n1, n2, 5);
    let reference = syrk_full_reference(&a);

    println!("strong scaling of SYRK, A = {n1}×{n2}");
    println!(
        "{:>5} {:>22} {:>7} {:>10} {:>10} {:>7} {:>9}",
        "P", "plan", "ranks", "words", "bound", "ratio", "max err"
    );
    for p in [1usize, 2, 4, 8, 12, 24, 30, 60, 90] {
        let plan = plan(n1, n2, p).plan;
        let run = run(&a, &RunSpec::new(plan, CostModel::bandwidth_only()))?.result;
        let err = max_abs_diff(&run.c, &reference);
        assert!(err < 1e-9, "P={p}: wrong result");
        let ranks = run.cost.num_ranks();
        let bound = syrk_lower_bound(n1, n2, ranks).communicated();
        let words = run.cost.max_words_sent() as f64;
        let ratio = if bound > 0.0 { words / bound } else { f64::NAN };
        println!(
            "{:>5} {:>22} {:>7} {:>10.0} {:>10.0} {:>7.3} {:>9.1e}",
            p,
            format!("{plan:?}"),
            ranks,
            words,
            bound,
            ratio,
            err
        );
    }
    println!("\nratio stays O(1) across three algorithm families — the bound is attained");
    println!("(small grids carry O(1/c) constants; the paper's asymptotics need large c)");
    Ok(())
}
