//! Receive-side fault screening happens in arrival order, one envelope at
//! a time, and every discarded copy is charged to a `retry:*` phase at the
//! clock the receiver has when it screens it. A receive path that takes
//! its inbox in batches must leave that order — and so every `retry:*`
//! row, clock bits included — where it was. The rows below were printed by
//! this file (`cargo test --test retry_rows -- --nocapture`) at the commit
//! before batched drains and wake-on-match (PR 14).
//!
//! Only the small grid is pinned against that commit. A rank woken for its
//! match re-enters the ready heap at the clock it parked with, where PR 14
//! had already resumed it for — and charged it — every discarded copy that
//! arrived in between; from 12 ranks up that reorders resumes enough to
//! change which trailing duplicates a rank screens before it returns.
//! What faults may never touch — `C` and every non-retry phase row — is
//! `tests/failure_injection.rs`' to check, at any size.

use syrk_repro::core::try_syrk_2d;
use syrk_repro::dense::seeded_int_matrix;
use syrk_repro::machine::FaultPlan;
use syrk_repro::CostModel;

/// `(rank, phase, [msgs_sent, msgs_recv, words_sent, words_recv, clock bits])`.
type Row = (usize, &'static str, [u64; 5]);

/// Every `retry:*` row of a faulted 2D run on the `c(c+1)`-rank grid, in
/// rank order and, per rank, first-use order.
fn retry_rows(c: usize, n1: usize, n2: usize) -> Vec<Row> {
    let plan = FaultPlan::seeded(11)
        .duplicate(0.2)
        .corrupt(0.1)
        .drop(0.2)
        .delay(0.2, 2.0);
    let a = seeded_int_matrix::<f64>(n1, n2, 3, 7);
    let run = try_syrk_2d(&a, c, CostModel::typical(), Some(&plan)).expect("faults are repaired");
    let mut rows = Vec::new();
    for (rank, phases) in run.cost.phases.iter().enumerate() {
        for p in phases.iter().filter(|p| p.name.starts_with("retry:")) {
            let c = &p.cost;
            assert_eq!((c.flops, c.peak_buffer_words), (0, 0));
            rows.push((
                rank,
                p.name,
                [
                    c.msgs_sent,
                    c.msgs_recv,
                    c.words_sent,
                    c.words_recv,
                    c.clock.to_bits(),
                ],
            ));
        }
    }
    rows
}

fn check(label: &str, got: Vec<Row>, want: &[Row]) {
    for (rank, phase, [ms, mr, ws, wr, clock]) in &got {
        println!("{label}: ({rank}, {phase:?}, [{ms}, {mr}, {ws}, {wr}, {clock:#018x}]),");
    }
    assert_eq!(got, want, "{label}: a retry row moved");
}

#[rustfmt::skip]
const C2_ROWS: &[Row] = &[
    (1, "retry:corrupt", [0, 1, 0, 8, 0x3eb0e953b8863b3a]),
    (1, "retry:drop", [3, 0, 24, 0, 0x3ec95dfd94c958d5]),
    (2, "retry:dup", [0, 1, 0, 8, 0x3eb0e953b8863b38]),
    (3, "retry:corrupt", [0, 1, 0, 8, 0x3ee0e953b8863b38]),
    (4, "retry:drop", [1, 0, 8, 0, 0x3eb0e953b8863b38]),
    (5, "retry:dup", [0, 2, 0, 16, 0x3ec0e953b8831d9d]),
];

#[test]
fn retry_rows_of_a_faulted_2d_run_are_pinned() {
    check("c = 2", retry_rows(2, 12, 8), C2_ROWS);
}
