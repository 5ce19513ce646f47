//! Engine determinism (DESIGN.md §10). `syrk-machine` has one scheduler,
//! the discrete-event loop, so there is no second engine to compare with:
//! each case must reproduce the numbers this file printed on the event
//! engine at the last commit that still had a thread-per-rank runner
//! (PR 12, 9b55ca6), and must reproduce itself — bit-identical `C`, equal
//! cost report — when run a second time in the same process. The file and
//! its tests keep the names the test floor knows them by.
//!
//! What is pinned per regime:
//!
//! * **Unfaulted** runs pin the whole cost report: every per-rank and
//!   per-phase counter, the clock bits, and the phase names in first-use
//!   order (the digest of `tests/live_blocks.rs`).
//! * **Traced** runs pin every event of every rank's timeline.
//! * **Faulted** runs pin all *non-retry* phase counters
//!   (words/messages/flops, not clocks) and the sign of the `retry:*`
//!   traffic: injected-fault decisions are pure in `(seed, link, seq)`,
//!   so the algorithm traffic is the unfaulted one whatever the fault
//!   kind, and only the `retry:*` rows and the clocks may move.
//! * The **deadlock** diagnostic is pinned field by field, because failure
//!   dumps and the forced-deadlock trace mode parse that shape.
//!
//! `C` itself is compared against a second run, not pinned: the inputs are
//! not integers, so its low bits legitimately differ between ISAs.

use syrk_core::{
    run, try_syrk_1d, try_syrk_2d, try_syrk_3d, Plan, RunSpec, SyrkError, SyrkRunResult,
};
use syrk_dense::{seeded_matrix, Matrix};
use syrk_machine::{CostModel, CostReport, FaultPlan, Machine, MachineError, Timeline};

/// FNV-1a, one 64-bit word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn eat_str(&mut self, s: &str) {
        s.bytes().for_each(|b| self.eat(b as u64));
    }
}

/// Digest of every rank row and every phase row of the report: all
/// counters, the clock bits, and the phase names in first-use order.
fn digest(cost: &CostReport) -> u64 {
    rows_digest(cost, true)
}

fn rows_digest(cost: &CostReport, peak: bool) -> u64 {
    let mut h = Fnv::new();
    for (rank, phases) in cost.ranks.iter().zip(&cost.phases) {
        let rows = std::iter::once(("", rank)).chain(phases.iter().map(|p| (p.name, &p.cost)));
        for (name, c) in rows {
            h.eat_str(name);
            for x in [
                c.msgs_sent,
                c.msgs_recv,
                c.words_sent,
                c.words_recv,
                c.flops,
                c.clock.to_bits(),
            ] {
                h.eat(x);
            }
            if peak {
                h.eat(c.peak_buffer_words);
            }
        }
    }
    h.0
}

/// `[words_total, words_max, messages_max, peak_buffer, flops_total, digest]`.
fn summary(cost: &CostReport) -> [u64; 6] {
    [
        cost.total_words(),
        cost.max_words_sent(),
        cost.max_messages(),
        cost.max_peak_buffer(),
        cost.total_flops(),
        digest(cost),
    ]
}

/// Digest of the per-phase, per-rank counters outside `retry:*`: words,
/// messages and flops, but not the clock.
fn nonretry_digest(cost: &CostReport) -> u64 {
    let mut h = Fnv::new();
    for name in cost.phase_names() {
        if name.starts_with("retry:") {
            continue;
        }
        for rank in 0..cost.num_ranks() {
            if let Some(c) = cost.phase_cost(rank, name) {
                h.eat_str(name);
                for x in [
                    rank as u64,
                    c.words_sent,
                    c.words_recv,
                    c.msgs_sent,
                    c.msgs_recv,
                    c.flops,
                ] {
                    h.eat(x);
                }
            }
        }
    }
    h.0
}

/// Total traffic (words + messages, both directions) charged to
/// `retry:*` phases.
fn retry_traffic(cost: &CostReport) -> u64 {
    cost.phase_names()
        .into_iter()
        .filter(|n| n.starts_with("retry:"))
        .map(|n| {
            (0..cost.num_ranks())
                .filter_map(|r| cost.phase_cost(r, n))
                .map(|c| c.words_sent + c.words_recv + c.msgs_sent + c.msgs_recv)
                .sum::<u64>()
        })
        .sum()
}

/// `[events, digest]` over every event of every rank's timeline.
fn timeline_digest(traces: &[Timeline]) -> [u64; 2] {
    let mut h = Fnv::new();
    let mut events = 0;
    for (rank, timeline) in traces.iter().enumerate() {
        h.eat(rank as u64);
        for e in timeline {
            events += 1;
            h.eat_str(&format!("{:?}", e.kind));
            h.eat(e.peer as u64);
            h.eat(e.amount);
            h.eat(e.clock.to_bits());
            h.eat_str(e.phase.unwrap_or("-"));
        }
    }
    [events, h.0]
}

fn run_alg(
    alg: &str,
    a: &Matrix<f64>,
    model: CostModel,
    faults: Option<&FaultPlan>,
) -> SyrkRunResult {
    match alg {
        "1d" => try_syrk_1d(a, 4, model, faults),
        "2d" => try_syrk_2d(a, 2, model, faults),
        "3d" => try_syrk_3d(a, 2, 2, model, faults),
        _ => unreachable!(),
    }
    .unwrap_or_else(|e| panic!("{alg}: {e}"))
}

fn assert_bitwise_eq(want: &Matrix<f64>, got: &Matrix<f64>, ctx: &str) {
    assert_eq!(
        (want.rows(), want.cols()),
        (got.rows(), got.cols()),
        "{ctx}: shape"
    );
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            assert_eq!(
                want[(i, j)].to_bits(),
                got[(i, j)].to_bits(),
                "{ctx}: C[{i},{j}] = {} vs {}",
                want[(i, j)],
                got[(i, j)]
            );
        }
    }
}

/// Run `alg` twice; the second run must equal the first on `C` (bitwise),
/// per-rank totals (clock included — `RankCost` derives `PartialEq`, and
/// `f64 ==` is bitwise for the finite clocks here) and full phase tables.
fn run_twice(
    alg: &str,
    a: &Matrix<f64>,
    model: CostModel,
    faults: Option<&FaultPlan>,
    ctx: &str,
) -> SyrkRunResult {
    let first = run_alg(alg, a, model, faults);
    let second = run_alg(alg, a, model, faults);
    assert_bitwise_eq(&first.c, &second.c, ctx);
    assert_eq!(
        first.cost.ranks, second.cost.ranks,
        "{ctx}: per-rank totals moved between two runs"
    );
    assert_eq!(
        first.cost.phases, second.cost.phases,
        "{ctx}: phase tables moved between two runs"
    );
    first
}

#[test]
fn unfaulted_runs_are_bitwise_identical_across_engines() {
    let model = CostModel::typical();
    let a = seeded_matrix::<f64>(12, 8, 3);
    for (alg, want) in [
        ("1d", [234, 59, 3, 78, 1482, 0x6fa5_2c4d_2159_3919]),
        ("2d", [192, 32, 4, 64, 1248, 0x3645_2a5b_9204_f565]),
        ("3d", [270, 24, 5, 32, 1326, 0x80b6_b5e7_9ea1_731d]),
    ] {
        let run = run_twice(alg, &a, model, None, alg);
        let got = summary(&run.cost);
        assert_eq!(
            got, want,
            "{alg}: cost report moved (digest {:#018x})",
            got[5]
        );
    }
}

/// The one-rank-slice run above, Algorithm 1, by every per-rank and
/// per-phase counter but `peak_buffer_words`, clock bits and phase names
/// included. Printed before every slice noted its footprint by one rule,
/// which moved only this run's peak.
#[test]
fn oned_cost_report_is_pinned_but_for_its_peak() {
    let a = seeded_matrix::<f64>(12, 8, 3);
    let run = run_twice("1d", &a, CostModel::typical(), None, "1d");
    let got = rows_digest(&run.cost, false);
    assert_eq!(
        got, 0xd74b_45c9_1e3c_7011,
        "1d: cost report moved (digest {got:#018x})"
    );
}

#[test]
fn traced_timelines_are_identical_across_engines() {
    let model = CostModel::typical();
    let a = seeded_matrix::<f64>(12, 8, 7);
    let spec = RunSpec {
        trace: true,
        ..RunSpec::new(Plan::TwoD { c: 2 }, model)
    };
    let first = run(&a, &spec).expect("traced run");
    let again = run(&a, &spec).expect("second traced run");
    assert_bitwise_eq(&first.result.c, &again.result.c, "2d traced");
    let (traces, traces_again) = (first.traces.unwrap(), again.traces.unwrap());
    // Event is Copy + PartialEq: kind, peer, amount, clock, phase all
    // compare exactly, so the whole per-rank timeline must be equal.
    assert_eq!(
        traces, traces_again,
        "timelines moved between two traced runs"
    );
    assert_eq!(traces.len(), 6, "one timeline per rank");
    let got = timeline_digest(&traces);
    assert_eq!(
        got,
        [38, 0x9401_aad4_581e_68b8],
        "timelines moved (digest {:#018x})",
        got[1]
    );
}

#[test]
fn faulted_runs_agree_on_output_and_nonretry_phases() {
    let model = CostModel::bandwidth_only();
    let a = seeded_matrix::<f64>(12, 8, 5);
    for (alg, want) in [
        ("1d", 0x6ed0_7a9c_a0d6_0ee9u64),
        ("2d", 0x1388_caf7_eef5_0225),
        ("3d", 0xf005_fd85_3cb5_1f25),
    ] {
        let clean = run_alg(alg, &a, model, None);
        assert_eq!(
            nonretry_digest(&clean.cost),
            want,
            "{alg}: unfaulted phase counters moved"
        );
        for (kind, plan, expect_retry) in [
            ("drop", FaultPlan::seeded(11).drop(0.3), true),
            ("dup", FaultPlan::seeded(11).duplicate(0.3), true),
            ("delay", FaultPlan::seeded(11).delay(0.4, 2.5), false),
            ("corrupt", FaultPlan::seeded(11).corrupt(0.3), true),
        ] {
            let ctx = format!("{alg}/{kind}");
            let run = run_twice(alg, &a, model, Some(&plan), &ctx);
            assert_bitwise_eq(&clean.c, &run.c, &ctx);
            let got = nonretry_digest(&run.cost);
            assert_eq!(
                got, want,
                "{ctx}: non-retry phase counters moved (digest {got:#018x})"
            );
            let retry = retry_traffic(&run.cost);
            if expect_retry {
                assert!(retry > 0, "{ctx}: no retry traffic");
            } else {
                assert_eq!(retry, 0, "{ctx}: a delay created retry traffic");
            }
        }
    }
}

#[test]
fn crash_faults_surface_identically_across_engines() {
    let model = CostModel::bandwidth_only();
    let a = seeded_matrix::<f64>(12, 8, 5);
    let plan = FaultPlan::seeded(3).crash_rank(1, 2);
    for _ in 0..2 {
        let err = try_syrk_2d(&a, 2, model, Some(&plan)).expect_err("crash plan must fail");
        assert!(
            matches!(
                err,
                SyrkError::Machine(MachineError::RankCrashed {
                    rank: 1,
                    after_ops: 1
                })
            ),
            "crash error must name rank 1: {err}"
        );
    }
}

#[test]
fn deadlock_diagnostics_are_identical_across_engines() {
    // Exact (scheduler-side) detection: the wait-for edges in rank order
    // and the finished set, reported the moment the stalled configuration
    // arises.
    let deadlock = || -> MachineError {
        Machine::new(3)
            .try_run(|comm| -> Result<(), MachineError> {
                if comm.rank() == 2 {
                    // Finishes cleanly; the other two deadlock.
                    return Ok(());
                }
                let peer = 1 - comm.rank();
                let _: Vec<f64> = comm.try_recv(peer, 99)?;
                Ok(())
            })
            .expect_err("mutual recv must deadlock")
    };
    let err = deadlock();
    assert_eq!(err, deadlock(), "the diagnostic moved between two runs");
    let MachineError::Deadlock(info) = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert_eq!(info.finished, vec![2]);
    let edges: Vec<_> = info
        .edges
        .iter()
        .map(|e| (e.from, e.to, e.op, e.tag, e.phase))
        .collect();
    assert_eq!(
        edges,
        [(0, 1, "recv", (0, 99), None), (1, 0, "recv", (0, 99), None)]
    );
}

#[test]
fn event_engine_handles_algorithm_scale_beyond_thread_limits() {
    // A real 2D SYRK at P = 552 ranks (c = 23): far beyond what a thread
    // per rank is good for, single process, correct result.
    let a = seeded_matrix::<f64>(50, 6, 13);
    let run = try_syrk_2d(&a, 23, CostModel::bandwidth_only(), None).expect("552-rank 2D run");
    let want = syrk_dense::syrk_full_reference(&a);
    let err = syrk_dense::max_abs_diff(&run.c, &want);
    assert!(err < 1e-10, "552-rank 2D result off by {err}");
    assert_eq!(run.cost.ranks.len(), 552);
}
