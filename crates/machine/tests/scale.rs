//! The scheduler's scale contract: one process runs 10⁵ cooperatively
//! scheduled ranks, and the simulated clock it reports depends on
//! neither the rank count nor the run.

use syrk_machine::{CostModel, Machine};

const ROUNDS: usize = 4;

/// Final simulated clock (max over ranks) of a [`ROUNDS`]-round
/// neighbour ring: each round every rank sends one word right and
/// receives one from the left.
fn ring_clock(p: usize) -> f64 {
    let out = Machine::new(p)
        .with_model(CostModel::typical())
        .try_run(move |comm| {
            let me = comm.rank();
            let (right, left) = ((me + 1) % p, (me + p - 1) % p);
            let mut token = me as f64;
            for round in 0..ROUNDS as u64 {
                comm.try_send(right, round, token)?;
                token += comm.try_recv::<f64>(left, round)?;
            }
            Ok(token)
        })
        .expect("ring run");
    assert_eq!(out.results.len(), p);
    out.cost.elapsed()
}

#[test]
fn ring_clock_is_bitwise_reproducible_at_4096_ranks() {
    let first = ring_clock(4096);
    assert_eq!(first.to_bits(), ring_clock(4096).to_bits());
    // A round charges a rank its one-word send and its one-word receive:
    // 4 · 2(α + β) = 8.008e-6.
    let per_round = 2.0 * CostModel::typical().message(1);
    assert!((first - ROUNDS as f64 * per_round).abs() < 1e-6 * per_round);
}

/// 10⁵ ranks peak at ~0.5 GB of resident set — a stack page and a slot
/// each — for ~0.5 s on the 2-vCPU development host in release; debug
/// frames are deeper and slower, so release only.
#[test]
#[cfg_attr(debug_assertions, ignore = "10^5 ranks: release only")]
fn ring_clock_does_not_depend_on_the_rank_count_up_to_1e5() {
    assert_eq!(ring_clock(100_000).to_bits(), ring_clock(4096).to_bits());
}
