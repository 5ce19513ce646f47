//! Layer replays: the traced run calls each layer *alone*, at the shapes
//! and call counts the workload used, and turns the timings into the
//! per-layer metrics. Nothing here is timed inside a crate — a replay is
//! a call into a public function with a clock around it.
//!
//! For a simulation workload the replays split one unit's host time three
//! ways, summing to 1 by construction:
//!
//! * `dense.kernel_share` — every local kernel call of the unit, replayed
//!   outside the machine (`syrk_packed_new` / `mul_nt`, the calls the
//!   drivers make, on blocks of the shapes `Partition1D` and
//!   `TriangleBlockDist` hand the ranks);
//! * `machine.comm_share` — the same ranks spawned on the same machine
//!   running only the unit's collectives on zero payloads of the same
//!   lengths (spawn, switches, mailboxes, payload copies; no kernels);
//! * `core.glue_share` — the rest: block extraction, packing, reassembly
//!   and assembly of `C`. A negative value means the replays ran slower
//!   than the real thing and is reported as a warning.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use syrk_core::{plan, syrk_lower_bound, ConformalADist, Plan, TriangleBlockDist};
use syrk_dense::{
    available_threads, balanced_chunks_by_cost, gemm_flops, limit_threads, machine_thread_budget,
    mul_nt, par_for_each_task, seeded_matrix, steal_task_count, syrk_flops, syrk_packed_new, Diag,
    Matrix, Partition1D,
};
use syrk_machine::{Comm, Machine, MachineError, ProcessGrid};
use syrk_telemetry::registry::{self, MetricsSnapshot};
use syrk_telemetry::LazyCounter;

use crate::client;
use crate::host::{counter_delta, peak_rss_mb};
use crate::metrics;
use crate::span::Tracer;
use crate::stats::{median, summarize};
use crate::workloads::serve::Harness;
use crate::workloads::serve_mixed::{self, RunClass, Stretch};
use crate::workloads::serve_plan::{self, Samples};
use crate::workloads::sim::{family, SimJob, SimMeasured};
use crate::workloads::{trace_overhead, Report, Window};

type Layers = BTreeMap<&'static str, f64>;

/// Median wall time of `reps` calls of `f`, seconds.
fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Seconds per call of a short `f`: batches sized to about a millisecond
/// each, median over `BATCHES` batches.
fn seconds_per_call(mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 7;
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((1e-3 / one) as usize).clamp(1, 100_000);
    median_seconds(BATCHES, || {
        for _ in 0..per_batch {
            f();
        }
    }) / per_batch as f64
}

// ---------------------------------------------------------------- dense

/// The local kernel calls of one rank, as its driver issues them: the
/// off-diagonal blocks `A_i·A_jᵀ` (`mul_nt`, spread over the thread budget
/// in flop-balanced chunks) and then the diagonal block (`syrk_packed_new`).
struct RankKernels {
    /// Columns of the rank's slice of `A` (the inner dimension).
    k: usize,
    /// `(rows of A_i, rows of A_j)` per off-diagonal block.
    gemms: Vec<(usize, usize)>,
    /// Rows of the diagonal block, if the rank owns one.
    syrk: Option<usize>,
}

/// Kernel calls of one 2D body on an `n1 × n2` slice, from the same
/// distribution calls `twod_body` makes; empty blocks are skipped as the
/// driver skips them.
fn twod_kernels(dist: &TriangleBlockDist, n1: usize, n2: usize, out: &mut Vec<RankKernels>) {
    let rows = Partition1D::new(n1, dist.num_blocks());
    for k in 0..dist.p() {
        let gemms = dist
            .blocks_of(k)
            .into_iter()
            .map(|(i, j)| (rows.len(i), rows.len(j)))
            .filter(|&(m, n)| m > 0 && n > 0)
            .collect();
        let syrk = dist.d_block(k).map(|i| rows.len(i)).filter(|&n| n > 0);
        out.push(RankKernels { k: n2, gemms, syrk });
    }
}

/// Every rank's kernel calls for one run of `plan` on an `n1 × n2` input.
fn rank_kernels(n1: usize, n2: usize, plan: Plan) -> Vec<RankKernels> {
    let mut out = Vec::new();
    match plan {
        Plan::OneD { p } => {
            for k in Partition1D::new(n2, p).lens() {
                out.push(RankKernels {
                    k,
                    gemms: Vec::new(),
                    syrk: (k > 0).then_some(n1),
                });
            }
        }
        Plan::TwoD { c } => {
            let dist = TriangleBlockDist::for_order(c).expect("plan was run, so c is valid");
            twod_kernels(&dist, n1, n2, &mut out);
        }
        Plan::ThreeD { c, p2 } => {
            let dist = TriangleBlockDist::for_order(c).expect("plan was run, so c is valid");
            for k in Partition1D::new(n2, p2).lens() {
                twod_kernels(&dist, n1, k, &mut out);
            }
        }
    }
    out
}

/// Seconds and flops of one pass over every kernel call of a unit.
#[derive(Debug, Clone, Copy, Default)]
struct KernelPass {
    gemm_s: f64,
    gemm_flops: u64,
    syrk_s: f64,
    syrk_flops: u64,
}

impl KernelPass {
    fn seconds(&self) -> f64 {
        self.gemm_s + self.syrk_s
    }
}

fn gflops(flops: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        flops as f64 / seconds / 1e9
    } else {
        0.0
    }
}

/// Make every kernel call of `ranks` once, rank after rank (the event
/// engine runs one rank at a time), under the current thread budget.
/// `blocks` holds one seeded input block per `(rows, cols)` shape.
fn kernel_pass(
    ranks: &[RankKernels],
    blocks: &BTreeMap<(usize, usize), Matrix<f64>>,
) -> KernelPass {
    let mut pass = KernelPass::default();
    for r in ranks {
        let t0 = Instant::now();
        if !r.gemms.is_empty() {
            let costs: Vec<u64> = r
                .gemms
                .iter()
                .map(|&(m, n)| gemm_flops(m, n, r.k))
                .collect();
            pass.gemm_flops += costs.iter().sum::<u64>();
            let chunks = balanced_chunks_by_cost(&costs, steal_task_count(available_threads()), 1);
            par_for_each_task(chunks, |_, range| {
                for &(m, n) in &r.gemms[range] {
                    black_box(mul_nt(&blocks[&(m, r.k)], &blocks[&(n, r.k)]));
                }
            });
        }
        let t1 = Instant::now();
        if let Some(n) = r.syrk {
            pass.syrk_flops += syrk_flops(n, r.k);
            black_box(syrk_packed_new(&blocks[&(n, r.k)], Diag::Inclusive));
        }
        pass.gemm_s += (t1 - t0).as_secs_f64();
        pass.syrk_s += t1.elapsed().as_secs_f64();
    }
    pass
}

/// The pass with the median total time of `reps`.
fn median_pass(
    reps: usize,
    ranks: &[RankKernels],
    blocks: &BTreeMap<(usize, usize), Matrix<f64>>,
) -> KernelPass {
    let mut passes: Vec<KernelPass> = (0..reps).map(|_| kernel_pass(ranks, blocks)).collect();
    passes.sort_by(|a, b| a.seconds().total_cmp(&b.seconds()));
    passes[reps / 2]
}

/// Replay every kernel call of `jobs`; returns kernel seconds per unit.
fn dense_layers(jobs: &[(usize, usize, Plan)], tracer: &mut Tracer, layer: &mut Layers) -> f64 {
    const REPS: usize = 3;
    let ranks: Vec<RankKernels> = jobs
        .iter()
        .flat_map(|&(n1, n2, plan)| rank_kernels(n1, n2, plan))
        .collect();
    let mut blocks = BTreeMap::new();
    for r in &ranks {
        let rows = r.gemms.iter().flat_map(|&(m, n)| [m, n]).chain(r.syrk);
        for rows in rows {
            blocks
                .entry((rows, r.k))
                .or_insert_with(|| seeded_matrix::<f64>(rows, r.k, 1));
        }
    }
    // The drivers pin the kernels' thread budget for the length of a run
    // (all of it on the event engine, where one rank computes at a time).
    // Without that guard every kernel call asks the OS for the host's
    // parallelism again, which costs more than a small block's flops.
    let budget = machine_thread_budget(Machine::new(1).concurrent_ranks());
    tracer.begin("dense.replay");
    let pass = {
        let _as_in_a_run = limit_threads(budget);
        median_pass(REPS, &ranks, &blocks)
    };
    tracer.end();
    layer.insert("dense.syrk_gflops", gflops(pass.syrk_flops, pass.syrk_s));
    layer.insert("dense.gemm_nt_gflops", gflops(pass.gemm_flops, pass.gemm_s));

    // The plain single-thread baseline of the same calls.
    tracer.begin("dense.replay_1t");
    let one_thread = {
        let _one = limit_threads(1);
        median_pass(REPS, &ranks, &blocks)
    };
    tracer.end();
    layer.insert(
        "dense.syrk_gflops_1t",
        gflops(one_thread.syrk_flops, one_thread.syrk_s),
    );
    layer.insert(
        "dense.thread_speedup",
        if pass.seconds() > 0.0 {
            one_thread.seconds() / pass.seconds()
        } else {
            0.0
        },
    );
    let smallest = ranks.iter().filter_map(|r| r.syrk.map(|n| (n, r.k))).min();
    layer.insert(
        "dense.small_syrk_ns",
        smallest.map_or(0.0, |shape| {
            let _as_in_a_run = limit_threads(budget);
            seconds_per_call(|| {
                black_box(syrk_packed_new(&blocks[&shape], Diag::Inclusive));
            }) * 1e9
        }),
    );
    pass.seconds()
}

// -------------------------------------------------------------- machine

/// How much of a job's communication a machine replay performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Spawn the ranks (and split the grid for 3D), nothing else.
    Spawn,
    /// … plus the all-to-all that gathers `A`.
    AllToAll,
    /// … plus the reduce-scatter of `C`.
    All,
}

/// The sparse exchange of `twod_body` on zero payloads: rank `k` ships
/// its chunk of every nonempty row block to the block's other owners.
fn replay_exchange(
    comm: &Comm,
    dist: &TriangleBlockDist,
    ad: &ConformalADist,
) -> Result<(), MachineError> {
    let k = comm.rank();
    let mut sends: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut recvs: Vec<(usize, usize)> = Vec::new();
    for &i in dist.r_set(k) {
        if ad.block_len(i) == 0 {
            continue;
        }
        let part = ad.chunk_partition(i);
        let mine = ad.chunk_len(i, k);
        for (pos, &m) in dist.q_set(i).iter().enumerate() {
            if m == k {
                continue;
            }
            if part.len(pos) > 0 {
                recvs.push((m, part.len(pos)));
            }
            if mine > 0 {
                sends.push((m, vec![0.0; mine]));
            }
        }
    }
    black_box(comm.try_all_to_all_sparse(sends, &recvs)?);
    Ok(())
}

/// Words of rank `k`'s `C_k` in the 3D layout: its nonempty off-diagonal
/// blocks plus its packed diagonal block.
fn ck_words(dist: &TriangleBlockDist, rows: &Partition1D, k: usize) -> usize {
    let off: usize = dist
        .blocks_of(k)
        .into_iter()
        .map(|(i, j)| rows.len(i) * rows.len(j))
        .sum();
    let diag = dist
        .d_block(k)
        .map_or(0, |i| Diag::Inclusive.packed_len(rows.len(i)));
    off + diag
}

fn zero_segments(total: usize, parts: usize) -> Vec<Vec<f64>> {
    Partition1D::new(total, parts)
        .lens()
        .into_iter()
        .map(|len| vec![0.0; len])
        .collect()
}

/// Run the collectives of one job up to `stage` on a fresh machine;
/// returns `(seconds, words moved)`.
fn replay_machine(
    n1: usize,
    n2: usize,
    plan: Plan,
    stage: Stage,
) -> Result<(f64, u64), MachineError> {
    let machine = Machine::new(plan.ranks());
    let t = Instant::now();
    let cost = match plan {
        Plan::OneD { p } => {
            let packed = Diag::Inclusive.packed_len(n1);
            machine
                .try_run(|comm| {
                    if stage == Stage::All {
                        black_box(comm.try_reduce_scatter(zero_segments(packed, p))?);
                    }
                    Ok(())
                })?
                .cost
        }
        Plan::TwoD { c } => {
            let dist = TriangleBlockDist::for_order(c).expect("plan was run, so c is valid");
            let ad = ConformalADist::new(&dist, n1, n2);
            machine
                .try_run(|comm| {
                    if stage != Stage::Spawn {
                        replay_exchange(&comm, &dist, &ad)?;
                    }
                    Ok(())
                })?
                .cost
        }
        Plan::ThreeD { c, p2 } => {
            let dist = TriangleBlockDist::for_order(c).expect("plan was run, so c is valid");
            let rows = Partition1D::new(n1, dist.num_blocks());
            let cols = Partition1D::new(n2, p2);
            let grid = ProcessGrid::new(dist.p(), p2);
            machine
                .try_run(|mut comm| {
                    let gc = grid.split(&mut comm);
                    if stage != Stage::Spawn {
                        let ad = ConformalADist::new(&dist, n1, cols.len(gc.l));
                        replay_exchange(&gc.slice, &dist, &ad)?;
                    }
                    if stage == Stage::All {
                        let segs = zero_segments(ck_words(&dist, &rows, gc.k), p2);
                        black_box(gc.row.try_reduce_scatter(segs)?);
                    }
                    Ok(())
                })?
                .cost
        }
    };
    Ok((t.elapsed().as_secs_f64(), cost.total_words()))
}

/// Median seconds and the word count of `reps` replays of one stage.
fn stage_median(
    n1: usize,
    n2: usize,
    plan: Plan,
    stage: Stage,
    reps: usize,
) -> Result<(f64, u64), MachineError> {
    let mut times = Vec::with_capacity(reps);
    let mut words = 0;
    for _ in 0..reps {
        let (s, w) = replay_machine(n1, n2, plan, stage)?;
        times.push(s);
        words = w;
    }
    Ok((median(&times), words))
}

/// A ring of one-word messages on `p` ranks: what one engine event costs.
fn replay_ring(p: usize) -> Result<f64, MachineError> {
    const LAPS: usize = 4;
    const TAG: u64 = 9;
    let before = registry::snapshot();
    let t = Instant::now();
    Machine::new(p).try_run(|comm| {
        let (next, prev) = ((comm.rank() + 1) % p, (comm.rank() + p - 1) % p);
        for _ in 0..LAPS {
            comm.try_send(next, TAG, vec![1.0f64])?;
            black_box(comm.try_recv::<Vec<f64>>(prev, TAG)?);
        }
        Ok(())
    })?;
    let seconds = t.elapsed().as_secs_f64();
    let events = counter_delta(&before, &registry::snapshot(), "syrk_engine_resumes");
    Ok(events as f64 / seconds)
}

/// Replay the machine side of `jobs`; returns machine seconds per unit.
fn machine_layers(
    jobs: &[(usize, usize, Plan)],
    tracer: &mut Tracer,
    layer: &mut Layers,
) -> Result<f64, MachineError> {
    tracer.begin("machine.replay");
    let result = machine_replays(jobs, layer);
    tracer.end();
    result
}

fn machine_replays(jobs: &[(usize, usize, Plan)], layer: &mut Layers) -> Result<f64, MachineError> {
    const REPS: usize = 3;
    let (mut all_s, mut a2a_s, mut a2a_w, mut rs_s, mut rs_w) = (0.0, 0.0, 0u64, 0.0, 0u64);
    for &(n1, n2, plan) in jobs {
        let (spawn, _) = stage_median(n1, n2, plan, Stage::Spawn, REPS)?;
        let (a2a, words_a2a) = stage_median(n1, n2, plan, Stage::AllToAll, REPS)?;
        let (all, words_all) = stage_median(n1, n2, plan, Stage::All, REPS)?;
        all_s += all;
        a2a_s += (a2a - spawn).max(0.0);
        a2a_w += words_a2a;
        rs_s += (all - a2a).max(0.0);
        rs_w += words_all - words_a2a;
    }
    let rate = |words: u64, seconds: f64| {
        if words > 0 && seconds > 0.0 {
            words as f64 / seconds
        } else {
            0.0
        }
    };
    layer.insert("machine.a2a_words_per_s", rate(a2a_w, a2a_s));
    layer.insert("machine.reduce_scatter_words_per_s", rate(rs_w, rs_s));

    let ranks = jobs.iter().map(|j| j.2.ranks()).max().unwrap_or(1);
    let spawn = median_seconds(REPS, || {
        black_box(Machine::new(ranks).try_run(|_| Ok(())).is_ok());
    });
    layer.insert("machine.spawn_us_per_rank", spawn * 1e6 / ranks as f64);
    layer.insert("machine.events_per_s", replay_ring(ranks)?);
    layer.insert(
        "machine.rss_kb_per_rank",
        peak_rss_mb() * 1e3 / ranks as f64,
    );
    Ok(all_s)
}

/// Counters of the kernel engine and the event engine over one unit.
fn unit_counters(around: &(MetricsSnapshot, MetricsSnapshot), layer: &mut Layers) {
    let delta = |name| counter_delta(&around.0, &around.1, name) as f64;
    layer.insert("dense.microkernel_calls", delta("syrk_microkernel_calls"));
    layer.insert("dense.pack_words", delta("syrk_pack_words"));
    layer.insert("dense.tasks_run", delta("syrk_tasks_run"));
    layer.insert("dense.arena_misses", delta("syrk_arena_misses"));
    layer.insert("dense.steals", delta("syrk_steals"));
    layer.insert("machine.resumes", delta("syrk_engine_resumes"));
    layer.insert("machine.wakes", delta("syrk_engine_wakes"));
}

// ------------------------------------------------------------ telemetry

static PROBE: LazyCounter = LazyCounter::new("syrkbench_probe");

fn telemetry_layers(tracer: &mut Tracer, layer: &mut Layers) {
    tracer.begin("telemetry.replay");
    layer.insert(
        "telemetry.snapshot_us",
        seconds_per_call(|| {
            black_box(registry::snapshot());
        }) * 1e6,
    );
    let snap = registry::snapshot();
    layer.insert(
        "telemetry.prometheus_render_us",
        seconds_per_call(|| {
            black_box(syrk_telemetry::prometheus_text(black_box(&snap)));
        }) * 1e6,
    );
    layer.insert(
        "telemetry.counter_inc_ns",
        seconds_per_call(|| {
            for _ in 0..1000 {
                PROBE.inc();
            }
        }) * 1e9
            / 1000.0,
    );
    tracer.end();
}

/// What every workload reports about its own measurement.
fn harness_layers(untraced: &Window, traced: &Window, report: &mut Report) {
    let s = summarize(&untraced.op_ms);
    report.layer.insert("harness.op_samples", s.n as f64);
    report.layer.insert("harness.op_tail_ms", s.tail);
    report
        .layer
        .insert("harness.op_tail_percentile", s.tail_q * 100.0);
    report.layer.insert("harness.warmup_s", report.warmup_s);
    report
        .layer
        .insert("trace_overhead_share", trace_overhead(untraced, traced));
}

// ------------------------------------------------------ per workload

/// Per-layer metrics of a simulation workload.
pub fn sim_layers(
    jobs: &[SimJob],
    measured: &SimMeasured,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    tracer.set_enabled(true);
    let shapes: Vec<(usize, usize, Plan)> = jobs
        .iter()
        .map(|j| (j.a.rows(), j.a.cols(), j.plan))
        .collect();
    let unit_s = summarize(&measured.untraced.op_ms).p50 / 1e3;
    let layer = &mut report.layer;

    unit_counters(&measured.unit_registry, layer);
    let mut words_total = 0;
    let (mut messages_max, mut peak_buffer) = (0, 0);
    for job in jobs {
        let cost = job.cost();
        let fam = family(job.plan);
        words_total += cost.words_total;
        messages_max = cost.messages_max.max(messages_max);
        peak_buffer = cost.peak_buffer_words.max(peak_buffer);
        layer.insert(metrics::words_max(fam), cost.words_max as f64);
        layer.insert(
            metrics::bound_ratio(fam),
            cost.words_max as f64 / job.bound_words,
        );
    }
    layer.insert("machine.words_total", words_total as f64);
    layer.insert("machine.messages_max", messages_max as f64);
    layer.insert("machine.peak_buffer_words", peak_buffer as f64);

    let kernel_s = dense_layers(&shapes, tracer, layer);
    let kernel_share = kernel_s / unit_s;
    layer.insert("dense.kernel_share", kernel_share);
    match machine_layers(&shapes, tracer, layer) {
        Ok(machine_s) => {
            let comm_share = machine_s / unit_s;
            let glue = 1.0 - kernel_share - comm_share;
            layer.insert("machine.comm_share", comm_share);
            layer.insert("core.glue_share", glue);
            if glue < 0.0 {
                report.warnings.push(format!(
                    "core.glue_share = {glue:.3} < 0: the kernel and machine replays together \
                     took longer than the real unit"
                ));
            }
        }
        Err(e) => report
            .checks
            .record(Some(format!("machine replay failed: {e}"))),
    }
    telemetry_layers(tracer, &mut report.layer);
    let traced = measured
        .traced
        .as_ref()
        .expect("layers are replayed in traced runs only");
    harness_layers(&measured.untraced, traced, report);
    tracer.set_enabled(false);
}

fn p50_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    median(&v)
}

/// Server-side counters that must stay 0, over `around`.
fn server_counters(around: (&MetricsSnapshot, &MetricsSnapshot), layer: &mut Layers) {
    let delta = |name| counter_delta(around.0, around.1, name) as f64;
    layer.insert("server.responses_5xx", delta("syrk_server_responses_5xx"));
    layer.insert("server.run_rejected", delta("syrk_server_run_rejected"));
    layer.insert("server.conn_rejected", delta("syrk_server_conn_rejected"));
    let (c0, s0) = around
        .0
        .histogram("syrk_server_request_nanos")
        .unwrap_or((0, 0));
    let (c1, s1) = around
        .1
        .histogram("syrk_server_request_nanos")
        .unwrap_or((0, 0));
    let mean_ns = if c1 > c0 {
        (s1 - s0) as f64 / (c1 - c0) as f64
    } else {
        0.0
    };
    layer.insert("server.handler_us_mean", mean_ns / 1e3);
}

/// `GET /nope`: connect, accept queue, parse and a 404 written back — the
/// floor under every request, with no handler work in it.
fn http_floor_us(harness: &Harness, tracer: &mut Tracer) -> f64 {
    const REQUESTS: usize = 1000;
    let request = client::get("/nope");
    let ns: Vec<u64> = (0..REQUESTS)
        .filter_map(|_| client::roundtrip(harness.addr, &request, tracer).ok())
        .map(|(_, t)| t.total_ns)
        .collect();
    p50_us(&ns)
}

/// Per-layer metrics of `serve_plan`.
pub fn serve_plan_layers(
    harness: &Harness,
    samples: &Samples,
    around: (&MetricsSnapshot, &MetricsSnapshot),
    windows: (&Window, &Window),
    tracer: &mut Tracer,
    report: &mut Report,
) {
    tracer.set_enabled(true);
    let layer = &mut report.layer;
    layer.insert("server.plan_cold_p50_us", p50_us(&samples.cold));
    layer.insert("server.bounds_p50_us", p50_us(&samples.bounds));
    layer.insert("server.metrics_p50_us", p50_us(&samples.metrics));
    layer.insert("server.connect_us", p50_us(&samples.connect));
    layer.insert("server.ttfb_us", p50_us(&samples.ttfb));
    server_counters(around, layer);
    let delta = |name| counter_delta(around.0, around.1, name) as f64;
    layer.insert("core.plan_cache_hits", delta("syrk_plan_cache_hits"));
    layer.insert("core.plan_cache_misses", delta("syrk_plan_cache_misses"));
    layer.insert(
        "core.plan_cache_evictions",
        delta("syrk_plan_cache_evictions"),
    );
    layer.insert("machine.resumes", delta("syrk_engine_resumes"));
    layer.insert("dense.microkernel_calls", delta("syrk_microkernel_calls"));

    tracer.begin("server.replay");
    layer.insert("server.http_floor_us", http_floor_us(harness, tracer));
    tracer.end();

    tracer.begin("core.replay");
    let warm = (1000, 250, serve_plan::HOT_P);
    plan(warm.0, warm.1, warm.2);
    layer.insert(
        "core.plan_hit_ns",
        seconds_per_call(|| {
            black_box(plan(black_box(warm.0), warm.1, warm.2));
        }) * 1e9,
    );
    // Never-seen keys, disjoint from the clients' (their n1 is ≥ 10 000).
    let mut next = 5000;
    let misses: Vec<f64> = (0..200)
        .map(|_| {
            next += 1;
            let t = Instant::now();
            black_box(plan(next, 250, serve_plan::COLD_P));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layer.insert("core.plan_miss_us", median(&misses));
    layer.insert(
        "core.bound_eval_ns",
        seconds_per_call(|| {
            black_box(syrk_lower_bound(black_box(1000), 250, serve_plan::HOT_P));
        }) * 1e9,
    );
    tracer.end();

    telemetry_layers(tracer, &mut report.layer);
    harness_layers(windows.0, windows.1, report);
    tracer.set_enabled(false);
}

/// Per-layer metrics of `serve_mixed`.
pub fn serve_mixed_layers(
    harness: &Harness,
    classes: &[RunClass],
    warmup: &Stretch,
    untraced: &Stretch,
    traced: &Stretch,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    const DIRECT_REPS: usize = 7;
    tracer.set_enabled(true);
    let layer = &mut report.layer;

    unit_counters(&untraced.round_registry, layer);
    server_counters((&warmup.round_registry.0, &registry::snapshot()), layer);

    // Each class served, and the same work called directly.
    tracer.begin("core.replay");
    for (idx, class) in classes.iter().enumerate() {
        let mut served = untraced.runs.by_class[idx].clone();
        served.extend(&traced.runs.by_class[idx]);
        let served_ms = if served.is_empty() {
            0.0
        } else {
            median(&served)
        };
        let mut direct = None;
        let direct_ms = median_seconds(DIRECT_REPS, || direct = class.direct().ok()) * 1e3;
        layer.insert(metrics::RUN_P50_MS[idx], served_ms);
        layer.insert(metrics::DIRECT_RUN_MS[idx], direct_ms);
        layer.insert(metrics::RUN_OVERHEAD_MS[idx], served_ms - direct_ms);
        if let Some(recovery) = &class.recovery {
            layer.insert("core.recovery_attempts", recovery.attempts.len() as f64);
            layer.insert("core.recovery_words", recovery.recovery_words as f64);
        } else if let (Some((run, _)), true) = (&direct, class.name != "rauto") {
            // The simulated statistics of the three fixed-family classes
            // (`rauto` repeats whichever family the planner picked).
            let fam = family(class.plan);
            let words = run.cost.max_words_sent() as f64;
            let bound =
                syrk_lower_bound(class.a.rows(), class.a.cols(), class.plan.ranks()).communicated();
            layer.insert(metrics::words_max(fam), words);
            layer.insert(metrics::bound_ratio(fam), words / bound);
        }
    }
    tracer.end();

    let shapes: Vec<(usize, usize, Plan)> = classes
        .iter()
        .filter(|c| c.recovery.is_none())
        .map(|c| (c.a.rows(), c.a.cols(), c.plan))
        .collect();
    dense_layers(&shapes, tracer, layer);
    let ranks = shapes.iter().map(|s| s.2.ranks()).max().unwrap_or(1);
    tracer.begin("machine.replay");
    let spawn = median_seconds(5, || {
        black_box(Machine::new(ranks).try_run(|_| Ok(())).is_ok());
    });
    tracer.end();
    layer.insert("machine.spawn_us_per_rank", spawn * 1e6 / ranks as f64);

    // The paced /plan client beside the runs.
    let mut paced = untraced.paced.latency.clone();
    paced.extend(&traced.paced.latency);
    let mut late = untraced.paced.late.clone();
    late.extend(&traced.paced.late);
    let tail = |ns: &[u64]| {
        if ns.is_empty() {
            return 0.0;
        }
        let v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
        summarize(&v).tail
    };
    layer.insert("server.plan_beside_run_p50_us", p50_us(&paced));
    layer.insert("server.plan_beside_run_p99_us", tail(&paced));
    layer.insert("server.gen_late_p99_us", tail(&late));

    // rcrash from the first request of the process: first quarter over
    // last quarter, warm-up included.
    let rcrash = serve_mixed::CLASSES.len() - 1;
    let mut history = warmup.runs.by_class[rcrash].clone();
    history.extend(&untraced.runs.by_class[rcrash]);
    history.extend(&traced.runs.by_class[rcrash]);
    let quarter = (history.len() / 4).max(1);
    layer.insert(
        "server.warmup_drift",
        median(&history[..quarter]) / median(&history[history.len() - quarter..]),
    );

    tracer.begin("server.replay");
    layer.insert(
        "server.json_parse_us",
        seconds_per_call(|| {
            black_box(syrk_server::json::parse(black_box(serve_mixed::CRASH_BODY)).is_ok());
        }) * 1e6,
    );
    let state = &harness.state;
    layer.insert(
        "server.admit_ns",
        seconds_per_call(|| {
            drop(black_box(state.gate.admit(&state.running)));
        }) * 1e9,
    );
    tracer.end();

    telemetry_layers(tracer, &mut report.layer);
    harness_layers(&untraced.window, &traced.window, report);
    tracer.set_enabled(false);
}
