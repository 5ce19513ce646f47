//! # syrk-core — communication-optimal parallel SYRK
//!
//! Executable reproduction of *Parallel Memory-Independent Communication
//! Bounds for SYRK* (Al Daas, Ballard, Grigori, Kumar, Rouse — SPAA '23):
//!
//! * [`syrk_lower_bound`] — Theorem 1's three-case memory-independent
//!   bound, plus the matching GEMM bound ([`gemm_lower_bound`]) for the
//!   headline factor-of-2 comparison;
//! * the proof made executable: point sets and projections
//!   ([`PointSet`], [`SyrkIterationSpace`]), Lemmas 1 and 3 as predicates,
//!   Lemma 5 on real assignments ([`footprint`]), and Lemma 6
//!   ([`Lemma6Problem`]) with its KKT certificate;
//! * [`TriangleBlockDist`] — the triangle block distribution of the
//!   symmetric output (§5.2.1, eqs. (4)–(8)), with runtime validation;
//! * [`run`] — Algorithms 1–3 on the simulated α-β-γ machine of
//!   `syrk-machine` with exact word counting. A [`RunSpec`] names the
//!   grid ([`Plan`]) and everything else a run can vary (faults, tracing,
//!   ABFT, recovery, the failure-dump path); [`try_syrk_1d`],
//!   [`try_syrk_2d`] and [`try_syrk_3d`] are the plain specs spelled as
//!   functions;
//! * [`gemm_1d`]/[`gemm_2d`]/[`gemm_3d`]/[`scalapack_syrk_2d`] —
//!   communication-optimal GEMM and a ScaLAPACK-style SYRK baseline;
//! * [`plan`] — the §5.4 processor-grid selection.
//!
//! Every function that builds a simulated machine returns
//! `Result<_, SyrkError>`: an unusable configuration (zero ranks, a grid
//! order `c` with no triangle block construction, an empty matrix) is a
//! [`PlanError`] before any rank starts, and a failed run is the
//! machine's [`MachineError`](syrk_machine::MachineError).
//!
//! ```
//! use syrk_core::{run, syrk_lower_bound, Plan, RunSpec};
//! use syrk_dense::{seeded_matrix, syrk_full_reference, max_abs_diff};
//! use syrk_machine::CostModel;
//!
//! // Tall-skinny SYRK on P = c(c+1) = 12 simulated processors.
//! let a = seeded_matrix::<f64>(36, 4, 0);
//! let spec = RunSpec::new(Plan::TwoD { c: 3 }, CostModel::bandwidth_only());
//! let out = run(&a, &spec).expect("c = 3 is a valid grid order").result;
//! assert!(max_abs_diff(&out.c, &syrk_full_reference(&a)) < 1e-10);
//!
//! // Measured words at the busiest rank ≈ the Theorem 1 bound.
//! let bound = syrk_lower_bound(36, 4, 12).communicated();
//! let measured = out.cost.max_words_sent() as f64;
//! assert!(measured < 1.3 * bound.max(1.0) + 36.0);
//! ```

#![warn(missing_docs)]

mod abft;
mod algorithms;
mod attribution;
mod bounds;
mod coverage;
mod dist;
mod error;
mod loomis_whitney;
mod optimization;
mod planner;
mod points;
mod primes;
mod prism;
mod recovery;

pub use abft::PHASE_ABFT;
pub use algorithms::{
    gemm_1d, gemm_2d, gemm_3d, run, scalapack_syrk_2d, symm_2d, symm_reference, syr2k,
    syrk_2d_limited, try_syrk_1d, try_syrk_2d, try_syrk_3d, RunSpec, SymmRunResult, SyrkRun,
    SyrkRunResult,
};
pub use attribution::{
    attribute_bounds, AttributionReport, TermAttribution, PHASE_ALLGATHER_A, PHASE_LOCAL_SYRK,
    PHASE_REDUCE_SCATTER_C,
};
pub use bounds::{
    alg1d_predicted_cost, alg2d_predicted_cost, alg2d_tight_cost, alg3d_predicted_cost,
    gemm_lower_bound, syrk_effective_bound, syrk_lower_bound, syrk_memory_dependent_bound,
    BoundCase, SyrkBound,
};
pub use coverage::{footprint, Footprint, GridOwner, IterationOwner};
pub use dist::{affine_plane_lines, ConformalADist, Gf, TriangleBlockDist};
pub use error::SyrkError;
pub use loomis_whitney::{
    check_lemma3_proof_steps, check_loomis_whitney, check_symmetric_lw, loomis_whitney_sides,
    symmetric_lw_sides,
};
pub use optimization::{quasiconvex, KktReport, Lemma6Problem, Point};
pub use planner::{
    candidate_plans, constructible_orders, plan, predicted_cost, ranked_plans, Plan, PlanError,
    RankedPlan, PLAN_CACHE_CAP,
};
pub use points::PointSet;
pub use prism::SyrkIterationSpace;
pub use recovery::{
    run_with_recovery, AttemptOutcome, RecoveryAttempt, RecoveryPolicy, RecoveryReport,
};
