//! Grid-planning utility: the §5.4 selection as a CLI.
//!
//! ```text
//! plan <n1> <n2> <P>
//! ```
//!
//! Prints the bound case, the chosen algorithm/grid, the predicted
//! bandwidth cost, the Theorem 1 bound, and the runner-up plans.

use syrk_core::{ranked_plans, syrk_lower_bound};

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("plan: '{a}' is not a positive integer");
                std::process::exit(2);
            })
        })
        .collect();
    let [n1, n2, p] = args[..] else {
        eprintln!("usage: plan <n1> <n2> <P>");
        std::process::exit(2);
    };
    if n1 < 2 || n2 < 1 || p < 1 {
        eprintln!("plan: need n1 >= 2, n2 >= 1, P >= 1");
        std::process::exit(2);
    }

    let bound = syrk_lower_bound(n1, n2, p);
    println!("SYRK C = A·Aᵀ, A {n1}×{n2}, budget P = {p}");
    println!(
        "Theorem 1: case {:?}, W = {:.1}, communicated bound = {:.1}",
        bound.case,
        bound.w,
        bound.communicated()
    );

    let ranked = ranked_plans(n1, n2, p);
    let chosen = &ranked[0];
    println!("\nchosen plan:     {:?}", chosen.plan);
    println!("ranks used:      {}", chosen.plan.ranks());
    println!("predicted words: {:.1}", chosen.predicted_cost);
    println!("bound at ranks:  {:.1}", chosen.bound);
    println!(
        "predicted/bound: {:.3}",
        chosen.predicted_cost / chosen.bound.max(1.0)
    );

    println!("\ntop candidates:");
    for r in ranked.iter().take(8) {
        println!(
            "  {:>12.1}  {:?} (ranks {})",
            r.predicted_cost,
            r.plan,
            r.plan.ranks()
        );
    }
}
