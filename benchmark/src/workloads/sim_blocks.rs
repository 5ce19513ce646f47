//! `sim_blocks`: few ranks, big blocks.
//!
//! One unit is three runs, one per algorithm family and one per case of
//! Theorem 1: 1D on 768 × 4096 with p = 4 (Case 1), 2D on 1536 × 512 with
//! c = 2 (Case 2), 3D on 1024 × 1024 with c = 2, p2 = 2 (Case 3). Each
//! rank holds a block of 10⁵–10⁶ words, so most of the host time is the
//! dense kernels and the machine moves a handful of large messages — the
//! opposite use of `syrk-machine` to `sim_ranks`. Kernel and thread-
//! scaling work must show here; an engine change must not.

use syrk_core::Plan;

use super::sim::{self, SimJob};
use super::{Ctx, Report};
use crate::span::Tracer;

const WARMUP_UNITS: usize = 8;
const SETUP_REPS: usize = 5;

pub fn jobs(seed: u64) -> Vec<SimJob> {
    vec![
        SimJob::new(768, 4096, Plan::OneD { p: 4 }, seed),
        SimJob::new(1536, 512, Plan::TwoD { c: 2 }, seed + 1),
        SimJob::new(1024, 1024, Plan::ThreeD { c: 2, p2: 2 }, seed + 2),
    ]
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Report {
    sim::run_workload(ctx, tracer, jobs, WARMUP_UNITS, SETUP_REPS)
}
