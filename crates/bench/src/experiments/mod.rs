//! The experiment registry: one entry per paper artifact (see DESIGN.md's
//! per-experiment index E1–E12).

mod attain_exps;
mod bounds_exps;
mod collective_exps;
mod dist_exps;
mod extension_exps;
mod geometry_exps;
mod headline_exps;
mod trend_exps;

use syrk_core::SyrkError;

use crate::table::Table;

/// A named, runnable experiment.
pub struct Experiment {
    /// Short CLI slug (e.g. `table1`).
    pub slug: &'static str,
    /// Paper artifact it regenerates.
    pub artifact: &'static str,
    /// Run the experiment, producing one or more tables, or the first
    /// simulated run that failed.
    pub run: fn() -> Result<Vec<Table>, SyrkError>,
}

/// Every experiment, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            slug: "fig1",
            artifact: "Fig. 1 (iteration space)",
            run: geometry_exps::fig1_iteration_space,
        },
        Experiment {
            slug: "table1",
            artifact: "Table 1 + Fig. 2 (2D distribution)",
            run: dist_exps::table1_distribution,
        },
        Experiment {
            slug: "fig3",
            artifact: "Fig. 3 (3D distribution)",
            run: dist_exps::fig3_3d_distribution,
        },
        Experiment {
            slug: "bounds",
            artifact: "Theorem 1 (lower bound, 3 cases)",
            run: bounds_exps::bounds_sweep,
        },
        Experiment {
            slug: "attain1d",
            artifact: "eq. (3) (1D optimality)",
            run: attain_exps::attain_1d,
        },
        Experiment {
            slug: "attain2d",
            artifact: "eqs. (10)-(11) (2D optimality)",
            run: attain_exps::attain_2d,
        },
        Experiment {
            slug: "attain3d",
            artifact: "eq. (12) (3D optimality)",
            run: attain_exps::attain_3d,
        },
        Experiment {
            slug: "crossover",
            artifact: "§5.4 (grid selection)",
            run: bounds_exps::crossover,
        },
        Experiment {
            slug: "headline1",
            artifact: "§1/§6 headline, Case 1",
            run: headline_exps::headline_case1,
        },
        Experiment {
            slug: "headline2",
            artifact: "§1/§6 headline, Case 2",
            run: headline_exps::headline_case2,
        },
        Experiment {
            slug: "headline3",
            artifact: "§1/§6 headline, Case 3",
            run: headline_exps::headline_case3,
        },
        Experiment {
            slug: "lemma3",
            artifact: "Lemma 3 (symmetric Loomis-Whitney)",
            run: geometry_exps::lemma3_tightness,
        },
        Experiment {
            slug: "lemma6",
            artifact: "Lemma 6 (KKT optimization)",
            run: geometry_exps::lemma6_optimization,
        },
        Experiment {
            slug: "collectives",
            artifact: "§6 (latency trade-off)",
            run: collective_exps::collectives_tradeoff,
        },
        Experiment {
            slug: "syr2k",
            artifact: "§6 future work: SYR2K",
            run: extension_exps::syr2k_extension,
        },
        Experiment {
            slug: "memory",
            artifact: "§6: memory footprint probe",
            run: extension_exps::memory_footprint,
        },
        Experiment {
            slug: "latency1d",
            artifact: "§6: latency-optimal Alg. 1",
            run: extension_exps::latency_1d,
        },
        Experiment {
            slug: "limited",
            artifact: "§6: limited-memory panel variant",
            run: extension_exps::limited_memory,
        },
        Experiment {
            slug: "symm",
            artifact: "§6 future work: SYMM",
            run: extension_exps::symm_extension,
        },
        Experiment {
            slug: "trend",
            artifact: "abstract: constants are tight (ratio -> 1)",
            run: trend_exps::attainment_trend,
        },
        Experiment {
            slug: "flops",
            artifact: "eq. (9): computational optimality",
            run: trend_exps::flop_optimality,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_unique() {
        let mut slugs: Vec<&str> = all().iter().map(|e| e.slug).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), all().len());
    }

    // Each experiment runs and produces non-empty tables. The heavier
    // algorithm-running experiments are covered one per test so failures
    // are attributable and tests parallelize.

    #[test]
    fn run_fig1_table1_fig3() {
        for slug in ["fig1", "table1", "fig3"] {
            let e = all().into_iter().find(|e| e.slug == slug).unwrap();
            let tables = (e.run)().unwrap();
            assert!(
                !tables.is_empty() && tables.iter().all(|t| !t.rows.is_empty()),
                "{slug}"
            );
        }
    }

    #[test]
    fn run_bounds_and_crossover() {
        for slug in ["bounds", "crossover", "lemma3", "lemma6"] {
            let e = all().into_iter().find(|e| e.slug == slug).unwrap();
            assert!(!(e.run)().unwrap().is_empty(), "{slug}");
        }
    }

    #[test]
    fn run_attain1d() {
        let e = all().into_iter().find(|e| e.slug == "attain1d").unwrap();
        assert!(!(e.run)().unwrap().is_empty());
    }

    #[test]
    fn run_attain2d() {
        let e = all().into_iter().find(|e| e.slug == "attain2d").unwrap();
        assert!(!(e.run)().unwrap().is_empty());
    }

    #[test]
    fn run_attain3d() {
        let e = all().into_iter().find(|e| e.slug == "attain3d").unwrap();
        assert!(!(e.run)().unwrap().is_empty());
    }

    #[test]
    fn run_headlines() {
        for slug in ["headline1", "headline2", "headline3"] {
            let e = all().into_iter().find(|e| e.slug == slug).unwrap();
            assert!(!(e.run)().unwrap().is_empty(), "{slug}");
        }
    }

    #[test]
    fn run_collectives() {
        let e = all().into_iter().find(|e| e.slug == "collectives").unwrap();
        assert!(!(e.run)().unwrap().is_empty());
    }

    /// E13, E16 and E17 render exactly as committed in
    /// `experiments_output.txt`: their floats are closed forms of integer
    /// counts, so no column depends on the ISA (timing lines are outside
    /// the tables).
    #[test]
    fn run_extensions() {
        let committed = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../experiments_output.txt"
        ));
        for slug in ["syr2k", "memory", "latency1d", "limited", "symm"] {
            let e = all().into_iter().find(|e| e.slug == slug).unwrap();
            let tables = (e.run)().unwrap();
            assert!(!tables.is_empty(), "{slug}");
            if matches!(slug, "syr2k" | "limited" | "symm") {
                for t in &tables {
                    let text = t.render();
                    assert!(committed.contains(&text), "{slug} renders\n{text}");
                }
            }
        }
    }

    #[test]
    fn run_trend() {
        let e = all().into_iter().find(|e| e.slug == "trend").unwrap();
        assert!(!(e.run)().unwrap().is_empty());
    }

    #[test]
    fn run_flops() {
        let e = all().into_iter().find(|e| e.slug == "flops").unwrap();
        assert!(!(e.run)().unwrap().is_empty());
    }
}
