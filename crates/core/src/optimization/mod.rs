//! The constrained optimization machinery behind the lower bound (§4.3).
//!
//! * [`problem`] — the Lemma 6 problem statement (objective, constraints;
//!   its case is Theorem 1's, `bounds::bound_case`).
//! * [`analytic`] — the paper's closed-form solution.
//! * [`numeric`] — an independent golden-section solve (cross-check, E11).
//! * [`kkt`] — machine-checking the KKT certificate with the paper's dual
//!   variables.
//! * [`quasiconvex`] — Lemma 4's quasiconvexity predicate.
//!
//! ```
//! use syrk_core::{check_symmetric_lw, Lemma6Problem, SyrkIterationSpace};
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

mod analytic;
mod kkt;
mod numeric;
mod problem;
pub mod quasiconvex;

pub use kkt::KktReport;
pub use problem::{Lemma6Problem, Point};
