//! Machine scale bench: cooperatively scheduled rank sweeps.
//!
//! Emits `BENCH_machine.json` (override with `SYRK_MACHINE_JSON`) and
//! enforces the scheduler's scale contract — CI runs this in smoke
//! mode:
//!
//! 1. **Ring sweep**: a neighbor-exchange ring at P ∈ {64, 1 000,
//!    10 000, 100 000} ranks, all in one process, reporting wall-clock,
//!    context resumes, and events/second.
//! 2. **10⁴-rank SYRK gate**: a full 2D SYRK at c = 101 (P = 10 302
//!    ranks) must finish under the wall-clock budget *and* its
//!    `allgather-A` phase must still match Theorem 1's Case-2 term —
//!    scale must not distort attribution.
//! 3. **Determinism**: the ring run's total simulated clock is bitwise
//!    identical across two runs (the event loop is deterministic).
//!
//! `SYRK_BENCH_FAST=1` trims the sweep to {64, 1 000} + a c = 31
//! (P = 992) SYRK point so CI catches bit-rot without the full sweep.

use std::fmt::Write as _;
use std::time::Instant;
use syrk_bench::timing::{fast_mode, format_time, RunClock};
use syrk_core::{attribute_bounds, try_syrk_2d, Plan, PHASE_ALLGATHER_A};
use syrk_dense::seeded_matrix;
use syrk_machine::telemetry::registry;
use syrk_machine::{CostModel, Machine};

struct RingEntry {
    ranks: usize,
    rounds: usize,
    seconds: f64,
    resumes: u64,
    events_per_sec: f64,
    final_clock: f64,
}

fn fail(gate: &str, detail: String) -> ! {
    eprintln!("GATE FAILED [{gate}]: {detail}");
    std::process::exit(1);
}

/// One ring run: `rounds` neighbor exchanges (send right, receive left)
/// of a single word per rank per round. Returns (wall seconds, resume
/// count delta, max simulated clock).
fn ring_run(p: usize, rounds: usize) -> (f64, u64, f64) {
    let before = registry::snapshot()
        .counter("syrk_engine_resumes")
        .unwrap_or(0);
    let t = Instant::now();
    let out = Machine::new(p)
        .with_model(CostModel::typical())
        .try_run(move |comm| {
            let me = comm.rank();
            let (right, left) = ((me + 1) % p, (me + p - 1) % p);
            let mut token = me as f64;
            for round in 0..rounds {
                comm.try_send(right, round as u64, token)?;
                let got: f64 = comm.try_recv(left, round as u64)?;
                token += got;
            }
            Ok(token)
        })
        .expect("ring run");
    let seconds = t.elapsed().as_secs_f64();
    let resumes = registry::snapshot()
        .counter("syrk_engine_resumes")
        .unwrap_or(0)
        - before;
    let clock = out
        .cost
        .ranks
        .iter()
        .map(|r| r.clock)
        .fold(0.0f64, f64::max);
    (seconds, resumes, clock)
}

fn main() {
    let fast = fast_mode();
    let mut clock = RunClock::start();
    let mut entries: Vec<RingEntry> = Vec::new();

    // Section 1: the ring sweep.
    let sweep: &[usize] = if fast {
        &[64, 1_000]
    } else {
        &[64, 1_000, 10_000, 100_000]
    };
    let rounds = if fast { 2 } else { 4 };
    println!("== ring neighbor-exchange sweep ({rounds} rounds/rank) ==");
    for &p in sweep {
        let msgs = (p * rounds) as f64;
        let (seconds, resumes, final_clock) = ring_run(p, rounds);
        // One send + one matched receive per message is the natural
        // "event" unit; resumes are reported alongside as the
        // scheduler's own activity measure.
        let events_per_sec = 2.0 * msgs / seconds;
        println!(
            "  {:>8} ranks  {:>12}  {:>12.0} events/s  ({} resumes)",
            p,
            format_time(seconds),
            events_per_sec,
            resumes
        );
        entries.push(RingEntry {
            ranks: p,
            rounds,
            seconds,
            resumes,
            events_per_sec,
            final_clock,
        });
    }
    clock.mark("ring_sweep");

    // Gate 3 (cheap, so it runs before the big SYRK): determinism — the
    // same ring twice must land on the bitwise-identical simulated clock.
    let p_det = if fast { 256 } else { 4_096 };
    let (_, _, clock_a) = ring_run(p_det, rounds);
    let (_, _, clock_b) = ring_run(p_det, rounds);
    if clock_a.to_bits() != clock_b.to_bits() {
        fail(
            "determinism",
            format!("ring at P={p_det} gave clock {clock_a} then {clock_b}"),
        );
    }
    println!("determinism: ok (P={p_det} ring clock {clock_a} reproduced bitwise)");
    clock.mark("determinism");

    // Section 2: the 10⁴-rank SYRK gate. c must be prime for the
    // conformal distribution; c = 101 gives P = c(c+1) = 10 302 ranks.
    let (c, budget_s) = if fast {
        (31usize, 60.0)
    } else {
        (101usize, 60.0)
    };
    let p_syrk = c * (c + 1);
    // n1 ≤ c² keeps most of the c² row blocks of A empty (near-free
    // local GEMMs at this scale); n2 a small multiple of c+1 keeps the
    // per-pair chunks at a couple of words each.
    let (n1, n2) = (4 * c, 2 * (c + 1));
    let a = seeded_matrix::<f64>(n1, n2, 17);
    println!("== 2D SYRK at P = {p_syrk} ranks (c = {c}, A {n1}x{n2}) ==");
    let t = Instant::now();
    let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None)
        .unwrap_or_else(|e| fail("syrk-10k", format!("run failed: {e}")));
    let syrk_seconds = t.elapsed().as_secs_f64();
    if run.cost.ranks.len() != p_syrk {
        fail(
            "syrk-10k",
            format!("expected {p_syrk} ranks, got {}", run.cost.ranks.len()),
        );
    }
    if syrk_seconds > budget_s {
        fail(
            "syrk-10k",
            format!("P={p_syrk} 2D SYRK took {syrk_seconds:.1}s > {budget_s:.0}s budget"),
        );
    }
    // Attribution must survive scale. With n1 < c² the row blocks are
    // unevenly filled, which distorts the per-rank *max* but never the
    // *total*: every word of A is exchanged exactly c times, so the
    // phase total is c·n1·n2 exactly and the per-rank mean equals the
    // tight eq. (10) cost n1·n2/(c+1) — which is Theorem 1's Case-2
    // n1·n2/√P term up to √(P)/(c+1) ≈ 1.
    let ag_total: u64 = (0..run.cost.num_ranks())
        .filter_map(|r| run.cost.phase_cost(r, PHASE_ALLGATHER_A))
        .map(|ph| ph.words_sent)
        .sum();
    let exact_total = (c * n1 * n2) as u64;
    if ag_total != exact_total {
        fail(
            "attribution",
            format!("allgather-A total {ag_total} words != exact c·n1·n2 = {exact_total}"),
        );
    }
    let mean = ag_total as f64 / p_syrk as f64;
    let tight = syrk_core::alg2d_tight_cost(n1, n2, c);
    let case2_bound = (n1 * n2) as f64 / (p_syrk as f64).sqrt();
    let ratio = mean / case2_bound;
    if (mean - tight).abs() > 1e-6 || !(0.5..=2.0).contains(&ratio) {
        fail(
            "attribution",
            format!(
                "allgather-A mean {mean:.1} words/rank vs tight eq.(10) {tight:.1}, Case-2 bound {case2_bound:.1} (ratio {ratio:.3})"
            ),
        );
    }
    println!(
        "  {p_syrk} ranks in {} — allgather-A {ag_total} words total, mean {mean:.1}/rank = tight eq.(10), {ratio:.3}x of Case-2 bound",
        format_time(syrk_seconds),
    );
    println!("{}", attribute_bounds(n1, n2, Plan::TwoD { c }, &run.cost));
    clock.mark("syrk_10k");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"machine\",");
    let _ = writeln!(json, "  \"fast_mode\": {fast},");
    let _ = writeln!(json, "  \"default_engine\": \"event\",");
    let _ = writeln!(json, "  \"ring\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"engine\": \"event\", \"ranks\": {}, \"rounds\": {}, \"seconds\": {:.6e}, \"resumes\": {}, \"events_per_sec\": {:.3e}, \"final_clock\": {:.6e} }}{comma}",
            e.ranks, e.rounds, e.seconds, e.resumes, e.events_per_sec, e.final_clock
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"determinism_ok\": true,");
    let _ = writeln!(json, "  \"syrk_2d\": {{");
    let _ = writeln!(json, "    \"c\": {c},");
    let _ = writeln!(json, "    \"ranks\": {p_syrk},");
    let _ = writeln!(json, "    \"n1\": {n1},");
    let _ = writeln!(json, "    \"n2\": {n2},");
    let _ = writeln!(json, "    \"seconds\": {syrk_seconds:.3},");
    let _ = writeln!(json, "    \"budget_seconds\": {budget_s:.0},");
    let _ = writeln!(
        json,
        "    \"allgather_a\": {{ \"total_words\": {ag_total}, \"mean_words_per_rank\": {mean:.3}, \"tight_eq10\": {tight:.3}, \"case2_bound\": {case2_bound:.3}, \"ratio_to_bound\": {ratio:.4} }}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"wall_clock\": {}", clock.json_object());
    let _ = writeln!(json, "}}");
    let path = std::env::var("SYRK_MACHINE_JSON").unwrap_or_else(|_| "BENCH_machine.json".into());
    std::fs::write(&path, &json).expect("write BENCH_machine.json");
    println!("wrote {path}");
}
