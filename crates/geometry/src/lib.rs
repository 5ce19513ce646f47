//! # syrk-geometry — iteration-space geometry and the Lemma 6 optimization
//!
//! The lower-bound side of the SPAA '23 SYRK paper, made executable:
//!
//! * finite point sets in Z³ with axis projections ([`PointSet`]),
//! * the Loomis–Whitney inequality (Lemma 1) and the paper's symmetric
//!   extension for `j < i` sets (Lemma 3) as checkable predicates,
//! * the SYRK iteration space — a triangular prism — with its exact
//!   volumes (Fig. 1),
//! * the constrained optimization problem of Lemma 6 with the analytic
//!   three-case solution, an independent numerical solver, and a
//!   machine-checked KKT certificate (Lemma 2/Definition 3), plus the
//!   Lemma 4 quasiconvexity predicate.
//!
//! ```
//! use syrk_geometry::{Lemma6Problem, SyrkIterationSpace, check_symmetric_lw};
//!
//! // Lemma 3 holds on the strict SYRK prism…
//! let v = SyrkIterationSpace::new(6, 4).enumerate_strict();
//! assert!(check_symmetric_lw(&v));
//!
//! // …and the analytic optimum of Lemma 6 agrees with an independent
//! // numerical solve.
//! let pr = Lemma6Problem::new(100, 4, 100);
//! let (a, n) = (pr.analytic_solution(), pr.numeric_solution());
//! assert!((a.objective() - n.objective()).abs() < 1e-6 * a.objective());
//! ```

#![warn(missing_docs)]

mod loomis_whitney;
mod optimization;
mod points;
mod prism;

pub use loomis_whitney::{
    check_lemma3_proof_steps, check_loomis_whitney, check_symmetric_lw, loomis_whitney_sides,
    symmetric_lw_sides,
};
pub use optimization::quasiconvex;
pub use optimization::{BoundCase, KktReport, Lemma6Problem, Point};
pub use points::PointSet;
pub use prism::SyrkIterationSpace;
