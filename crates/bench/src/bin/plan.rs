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
    println!("{}", ratio_line(chosen.predicted_cost, chosen.bound));

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

/// The chosen plan's predicted words over the bound at its ranks.
fn ratio_line(predicted: f64, bound: f64) -> String {
    if bound == 0.0 {
        "predicted/bound: n/a (bound is 0)".into()
    } else {
        format!("predicted/bound: {:.3}", predicted / bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At 36×8 and P = 10⁵ both sides are under one word (0.3): the
    /// ratio divides by the bound as it is.
    #[test]
    fn the_ratio_is_unclamped_below_one_word() {
        let chosen = &ranked_plans(36, 8, 100_000)[0];
        let line = ratio_line(chosen.predicted_cost, chosen.bound);
        assert_eq!(line, "predicted/bound: 1.039");
        assert_eq!(ratio_line(0.0, 0.0), "predicted/bound: n/a (bound is 0)");
    }
}
