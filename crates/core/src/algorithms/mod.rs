//! The distributed SYRK algorithms (§5) and the GEMM/ScaLAPACK baselines.
//!
//! Algorithms 1–3 have one entry point, [`run`], taking a [`RunSpec`];
//! `try_syrk_{1d,2d,3d}` are its plain specs spelled as functions. `run`
//! maps each plan to a grid of Algorithm 3 (Algorithms 1 and 2 are its
//! corners), and `threed::run_grid` runs `twod`'s slice body on each slice
//! and assembles `C`; [`syr2k`] runs the same grid with `[A, B]` as its
//! operands, and [`syrk_2d_limited`] Algorithm 2's grid with each slice's
//! columns in panels. Every entry point, the §6 extension drivers and the
//! baselines included, returns `Result<_, SyrkError>`.

mod baselines;
mod common;
mod run;
mod syr2k;
mod threed;
mod twod;

pub use baselines::{gemm_1d, gemm_2d, gemm_3d, scalapack_syrk_2d};
pub(crate) use common::grid;
pub use common::SyrkRunResult;
pub(crate) use run::machine_for;
pub use run::{run, syrk_2d_limited, try_syrk_1d, try_syrk_2d, try_syrk_3d, RunSpec, SyrkRun};
pub use syr2k::syr2k;
