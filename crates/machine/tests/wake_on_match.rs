//! A parked rank is resumed for the message it waits on, and for nothing
//! else. The resume count comes from the process-wide
//! `syrk_engine_resumes` counter, so these tests have a process of their
//! own and take turns in it.

use std::sync::Mutex;

use syrk_machine::telemetry::registry;
use syrk_machine::{DeadlockInfo, Machine, MachineError, RankCost, WaitEdge};

static ONE_MACHINE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn resumes() -> u64 {
    registry::snapshot()
        .counter("syrk_engine_resumes")
        .unwrap_or(0)
}

#[test]
fn a_parked_rank_sleeps_through_messages_it_did_not_ask_for() {
    let _turn = ONE_MACHINE_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    const EARLY: usize = 100;
    let last = EARLY + 1;
    let before = resumes();
    // Every rank is runnable at clock 0, so they first run in rank order:
    // rank 0 parks on (last, 7), ranks 1..=EARLY each mail it one message
    // under another tag — one resume apiece, so rank 0 could be woken in
    // between — and the last rank sends the one it waits for.
    let out = Machine::new(last + 1).run(|comm| {
        if comm.rank() == 0 {
            let asked: Vec<f64> = comm.recv(last, 7);
            let early: f64 = (1..=EARLY).map(|r| comm.recv::<Vec<f64>>(r, 1)[0]).sum();
            return (asked, early);
        }
        if comm.rank() == last {
            comm.send(0, 7, vec![7.0; 3]);
        } else {
            comm.send(0, 1, vec![comm.rank() as f64]);
        }
        (Vec::new(), 0.0)
    });
    // One resume to start each rank, and one more for rank 0 — not one per
    // arrival.
    assert_eq!(resumes() - before, (last + 1) as u64 + 1);
    assert_eq!(
        out.results[0],
        (vec![7.0; 3], (1..=EARLY).sum::<usize>() as f64)
    );
    // β = 1: three words, then EARLY single words that were all ready at
    // clock 0.
    assert_eq!(
        out.cost.ranks[0],
        RankCost {
            msgs_recv: 1 + EARLY as u64,
            words_recv: 3 + EARLY as u64,
            clock: 3.0 + EARLY as f64,
            ..RankCost::default()
        }
    );
}

#[test]
fn a_message_under_another_tag_is_not_a_wake_up() {
    let _turn = ONE_MACHINE_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    // Rank 1 sends tag 8 and returns; rank 0 wants tag 7 from it. The
    // queued envelope neither wakes rank 0 nor hides the stall.
    let err = Machine::new(2)
        .try_run(|comm| {
            if comm.rank() == 1 {
                return comm.try_send(0, 8, vec![1.0f64]);
            }
            let _waiting = comm.phase("wait-for-7");
            comm.try_recv::<Vec<f64>>(1, 7).map(drop)
        })
        .unwrap_err();
    assert_eq!(
        err,
        MachineError::Deadlock(DeadlockInfo {
            edges: vec![WaitEdge {
                from: 0,
                to: 1,
                op: "recv",
                tag: (0, 7),
                phase: Some("wait-for-7"),
            }],
            finished: vec![1],
        })
    );
}
