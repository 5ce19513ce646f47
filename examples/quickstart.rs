//! Quickstart: plan and run a communication-optimal parallel SYRK on the
//! simulated machine, verify the result, and compare the measured
//! communication against the Theorem 1 lower bound.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use syrk_repro::core::SyrkError;
use syrk_repro::dense::{max_abs_diff, seeded_matrix, syrk_full_reference};
use syrk_repro::{run_auto, syrk_lower_bound, CostModel};

fn main() -> Result<(), SyrkError> {
    // A 96 × 768 input (short and wide — the covariance/normal-equations
    // shape) on 16 simulated processors.
    let (n1, n2, p) = (96, 768, 16);
    let a = seeded_matrix::<f64>(n1, n2, 2023);

    let (plan, run) = run_auto(&a, p, CostModel::bandwidth_only())?;

    // The algorithms compute real numbers: check them.
    let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
    println!("C = A·Aᵀ with A {n1}×{n2} on P = {p} simulated ranks");
    println!("planner chose:     {plan:?}");
    println!("max |error|:       {err:.2e}");

    // And the machine counted every word: compare with Theorem 1.
    let bound = syrk_lower_bound(n1, n2, p);
    let measured = run.cost.max_words_sent();
    println!("case:              {:?}", bound.case);
    println!("measured words:    {measured} (busiest rank)");
    println!(
        "lower bound:       {:.0} (W − resident = {:.0} − {:.0})",
        bound.communicated(),
        bound.w,
        bound.resident
    );
    println!(
        "attainment ratio:  {:.3}",
        measured as f64 / bound.communicated()
    );
    println!("messages (latency): {}", run.cost.max_messages());
    println!("flop imbalance:    {:.3}", run.cost.flop_imbalance());

    assert!(err < 1e-9, "distributed result must match the reference");
    Ok(())
}
