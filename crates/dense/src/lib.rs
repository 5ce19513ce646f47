//! # syrk-dense — dense linear algebra substrate
//!
//! Matrices, packed symmetric storage, and the local GEMM/SYRK kernels the
//! distributed SYRK algorithms of the SPAA '23 paper run on each rank.
//! Everything is written from scratch (no BLAS — or any other —
//! dependency): operands are packed into k-major micro-panels
//! ([`mod@pack`]) and consumed by a register-blocked `MR × NR`
//! microkernel ([`mod@microkernel`]); triangular outputs are partitioned
//! into flop-balanced row chunks ([`mod@schedule`]) executed on a scoped
//! worker pool ([`mod@parallel`]).
//!
//! ```
//! use syrk_dense::{seeded_matrix, syrk_full_reference, mul_nt, max_abs_diff};
//!
//! let a = seeded_matrix::<f64>(6, 4, 0);
//! let c = syrk_full_reference(&a);      // C = A·Aᵀ, symmetric
//! let g = mul_nt(&a, &a);               // same thing via GEMM
//! assert!(max_abs_diff(&c, &g) < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod arena;
mod blocking;
mod direct;
mod gemm;
pub mod isa;
mod matrix;
pub mod microkernel;
mod norms;
pub mod pack;
mod packed;
pub mod parallel;
mod rng;
mod scalar;
pub mod schedule;
mod simd;
pub mod stats;
mod syr2k;
mod syrk;
mod view;

pub use blocking::Partition1D;
pub use gemm::{gemm_flops, gemm_nn, gemm_nn_ref, gemm_nt, gemm_nt_ref, mul_nn, mul_nt};
pub use isa::{available_isas, detected_isa, dispatched_isa, force_isa, ForcedIsaGuard, Isa};
pub use matrix::Matrix;
pub use microkernel::{dispatch_f64, Dispatch, KernelSpec};
pub use norms::{max_abs_diff, syrk_tolerance};
pub use packed::{mirror_lower_to_upper, write_packed_lower, Diag, PackedLower};
pub use parallel::{
    available_threads, hardware_threads, limit_threads, machine_thread_budget, par_for_each_task,
    steal_task_count, workers_for_flops, SERIAL_FLOP_CUTOFF, SMALL_OUTPUT_CUTOFF,
};
pub use rng::{seeded_int_matrix, seeded_matrix, DetRng};
pub use scalar::Scalar;
pub use schedule::{balanced_chunks_by_cost, balanced_triangle_chunks, per_chunk_pack_words};
pub use stats::{kernel_stats, reset_kernel_stats, KernelStats};
pub use syr2k::{
    syr2k_flops, syr2k_full_reference, syr2k_lower_ref, syr2k_packed, syr2k_packed_new,
};
pub use syrk::{
    syrk_flops, syrk_full_reference, syrk_lower_ref, syrk_packed, syrk_packed_new,
    syrk_packed_view, syrk_strict_flops,
};
pub use view::MatrixView;
