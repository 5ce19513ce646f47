//! `sim_ranks`: many ranks, tiny blocks.
//!
//! One 2D SYRK with `c = 47`, so `P = c(c+1) = 2256` simulated ranks, on a
//! 188 × 96 input (`n1 = 4c`, `n2 ≈ 2c` — the shape family of the
//! repository's 10302-rank gate, scaled so that one run takes under a
//! second instead of 19). Local blocks are a few rows by 96 columns, so
//! the dense kernels do almost nothing: host time is coroutine switches,
//! mailbox traffic, the sparse all-to-all's payload copies and the
//! drivers' packing. An engine or collective change must show here; a
//! kernel or thread-scaling change must not.

use syrk_core::Plan;

use super::sim::{self, SimJob};
use super::{Ctx, Report};
use crate::span::Tracer;

const C: usize = 47;
const N1: usize = 4 * C;
const N2: usize = 96;
const WARMUP_UNITS: usize = 1;
const SETUP_REPS: usize = 5;

pub fn jobs(seed: u64) -> Vec<SimJob> {
    vec![SimJob::new(N1, N2, Plan::TwoD { c: C }, seed)]
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Report {
    sim::run_workload(ctx, tracer, jobs, WARMUP_UNITS, SETUP_REPS)
}
