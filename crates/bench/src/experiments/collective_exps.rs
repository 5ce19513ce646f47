//! E12 — the §6 latency/bandwidth trade-off: pairwise-exchange
//! All-to-All measured on the simulated machine, against Bruck's closed
//! form.

use crate::table::{fnum, Table};
use syrk_core::SyrkError;
use syrk_machine::{CostModel, Machine};

/// E12 — All-to-All algorithms: pairwise exchange (bandwidth-optimal,
/// latency `P−1`) vs Bruck (latency `⌈log₂P⌉`, bandwidth inflated by
/// ~`(log₂P)/2`), across message sizes, under a realistic α ≫ β model.
///
/// The pairwise columns are measured and asserted equal to §3.2's closed
/// form. No SYRK run takes Bruck (its blocks must be uniform), so its
/// columns are §6's closed form: round `k = 2^j < P` ships the `b`-word
/// blocks of every distance `d < P` with `d & k ≠ 0`.
pub fn collectives_tradeoff() -> Result<Vec<Table>, SyrkError> {
    let mut t = Table::new(
        "E12 / §6 — All-to-All: pairwise exchange vs Bruck",
        &[
            "P",
            "block words",
            "pw msgs",
            "bruck msgs",
            "pw words",
            "bruck words",
            "word infl.",
            "pw time",
            "bruck time",
            "bruck wins",
        ],
    );
    // α = 1000β: latency-dominated for small messages.
    let model = CostModel {
        alpha: 1e3,
        beta: 1.0,
        gamma: 0.0,
    };
    let clock = |msgs: u64, words: u64| model.alpha * msgs as f64 + model.beta * words as f64;
    for p in [8usize, 16, 32, 64] {
        let rounds = (0..).map(|j| 1usize << j).take_while(|&k| k < p);
        let bruck_blocks: usize = rounds
            .clone()
            .map(|k| (0..p).filter(|d| d & k != 0).count())
            .sum();
        let bruck_msgs = rounds.count() as u64;
        for b in [1usize, 16, 256, 4096] {
            let pw = Machine::new(p)
                .with_model(model)
                .try_run(move |comm| comm.try_all_to_all(vec![vec![0.5f64; b]; p]).map(drop))?
                .cost;
            let (pw_msgs, pw_words) = (pw.max_messages(), pw.max_words_sent());
            assert_eq!((pw_msgs, pw_words), ((p - 1) as u64, ((p - 1) * b) as u64));
            assert_eq!(pw.elapsed(), clock(pw_msgs, pw_words), "P={p} b={b}");
            let bruck_words = (bruck_blocks * b) as u64;
            let bruck_time = clock(bruck_msgs, bruck_words);
            t.row(vec![
                p.to_string(),
                b.to_string(),
                pw_msgs.to_string(),
                bruck_msgs.to_string(),
                pw_words.to_string(),
                bruck_words.to_string(),
                fnum(bruck_words as f64 / pw_words.max(1) as f64),
                fnum(pw.elapsed()),
                fnum(bruck_time),
                (bruck_time < pw.elapsed()).to_string(),
            ]);
        }
    }
    t.note("paper §6: pairwise is bandwidth-optimal with latency P-1; a butterfly/Bruck algorithm");
    t.note(
        "trades O(log P) latency for an O(log P) bandwidth factor — Bruck wins for small messages",
    );
    Ok(vec![t])
}
