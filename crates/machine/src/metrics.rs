//! Per-collective telemetry: invocation counters and payload-size
//! histograms on the process registry.
//!
//! Each collective entry point records one call and observes its
//! per-rank input payload size in words (the `w` of the paper's
//! `(1 − 1/P)·w` bandwidth terms), so a long-running process can see
//! both how often each collective runs and the distribution of message
//! sizes it is being asked to move. Names follow the
//! `syrk_coll_<op>_calls` / `syrk_coll_<op>_payload_words` scheme.

use syrk_telemetry::{Counter, Histogram};

/// One collective's call counter and payload-size histogram.
pub(crate) struct CollMetrics {
    calls: Counter,
    payload_words: Histogram,
}

impl CollMetrics {
    const fn new(calls: &'static str, payload_words: &'static str) -> Self {
        CollMetrics {
            calls: Counter::new(calls),
            payload_words: Histogram::new(payload_words),
        }
    }

    /// Record one invocation with a per-rank input payload of `words`
    /// words.
    pub(crate) fn record(&'static self, words: usize) {
        self.calls.inc();
        self.payload_words.observe(words as u64);
    }
}

pub(crate) static ALL_GATHER: CollMetrics = CollMetrics::new(
    "syrk_coll_all_gather_calls",
    "syrk_coll_all_gather_payload_words",
);
pub(crate) static ALL_TO_ALL: CollMetrics = CollMetrics::new(
    "syrk_coll_all_to_all_calls",
    "syrk_coll_all_to_all_payload_words",
);
pub(crate) static REDUCE_SCATTER: CollMetrics = CollMetrics::new(
    "syrk_coll_reduce_scatter_calls",
    "syrk_coll_reduce_scatter_payload_words",
);
pub(crate) static AGREE: CollMetrics =
    CollMetrics::new("syrk_coll_agree_calls", "syrk_coll_agree_payload_words");

#[cfg(test)]
mod tests {
    use crate::machine::Machine;
    use syrk_telemetry::registry;

    #[test]
    fn collectives_meter_calls_and_payloads() {
        let snap0 = registry::snapshot();
        let calls0 = snap0.counter("syrk_coll_all_gather_calls").unwrap_or(0);
        let p = 4usize;
        Machine::new(p)
            .try_run(|comm| comm.try_all_gather(vec![comm.rank() as f64; 5]).map(drop))
            .unwrap();
        let snap = registry::snapshot();
        // Every rank records its own invocation.
        assert!(snap.counter("syrk_coll_all_gather_calls").unwrap() >= calls0 + p as u64);
        let (count, sum) = snap
            .histogram("syrk_coll_all_gather_payload_words")
            .unwrap();
        assert!(count >= p as u64);
        assert!(sum >= (p * 5) as u64);
    }
}
