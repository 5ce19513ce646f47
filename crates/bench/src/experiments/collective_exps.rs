//! E12 — the §6 latency/bandwidth trade-off: pairwise-exchange vs
//! Bruck collectives, measured on the simulated machine.

use crate::table::{fnum, Table};
use syrk_core::SyrkError;
use syrk_machine::{CollectiveAlg, CostModel, CostReport, Machine, MachineError};

/// E12 — All-to-All algorithms: pairwise exchange (bandwidth-optimal,
/// latency `P−1`) vs Bruck (latency `⌈log₂P⌉`, bandwidth inflated by
/// ~`(log₂P)/2`), across message sizes, under a realistic α ≫ β model.
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
    for p in [8usize, 16, 32, 64] {
        for b in [1usize, 16, 256, 4096] {
            let run = |alg: CollectiveAlg| -> Result<CostReport, MachineError> {
                let out = Machine::new(p).with_model(model).try_run(move |comm| {
                    let blocks = vec![vec![0.5f64; b]; p];
                    comm.try_all_to_all_with(blocks, alg).map(drop)
                })?;
                Ok(out.cost)
            };
            let pw = run(CollectiveAlg::PairwiseExchange)?;
            let bk = run(CollectiveAlg::Bruck)?;
            assert_eq!(pw.max_messages(), (p - 1) as u64);
            assert!(bk.max_messages() <= (p as f64).log2().ceil() as u64);
            t.row(vec![
                p.to_string(),
                b.to_string(),
                pw.max_messages().to_string(),
                bk.max_messages().to_string(),
                pw.max_words_sent().to_string(),
                bk.max_words_sent().to_string(),
                fnum(bk.max_words_sent() as f64 / pw.max_words_sent().max(1) as f64),
                fnum(pw.elapsed()),
                fnum(bk.elapsed()),
                (bk.elapsed() < pw.elapsed()).to_string(),
            ]);
        }
    }
    t.note("paper §6: pairwise is bandwidth-optimal with latency P-1; a butterfly/Bruck algorithm");
    t.note(
        "trades O(log P) latency for an O(log P) bandwidth factor — Bruck wins for small messages",
    );
    Ok(vec![t])
}
