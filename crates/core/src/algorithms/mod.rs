//! The distributed SYRK algorithms (§5) and the GEMM/ScaLAPACK baselines.
//!
//! Algorithms 1–3 have one entry point, [`run`], taking a [`RunSpec`];
//! `syrk_{1d,2d,3d}` and `try_syrk_{1d,2d,3d}` are its common specs
//! spelled as functions. `oned`, `twod` and `threed` each hold one rank
//! body and one `run_{1d,2d,3d}(a, grid, &RunSpec)` that builds the
//! machine with `machine_for` and assembles `C`.

mod baselines;
mod common;
mod limited;
mod oned;
mod run;
mod symm;
mod syr2k;
mod threed;
mod twod;

pub use baselines::{gemm_1d, gemm_2d, gemm_3d, scalapack_syrk_2d};
pub use common::{assemble_c, DiagBlock, LocalOutput, OffDiagBlock, SyrkRunResult};
pub use limited::syrk_2d_limited;
pub(crate) use run::machine_for;
pub use run::{
    run, syrk_1d, syrk_2d, syrk_3d, try_syrk_1d, try_syrk_2d, try_syrk_3d, RunSpec, SyrkRun,
};
pub use symm::{symm_2d, symm_reference, SymmRunResult};
pub use syr2k::{syr2k_1d, syr2k_2d};
