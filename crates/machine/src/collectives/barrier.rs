//! Dissemination barrier.

use crate::collectives::TAG_BARRIER;
use crate::comm::Comm;
use crate::error::MachineError;

impl Comm {
    /// Synchronize all ranks: no rank returns before every rank has
    /// entered. Dissemination algorithm: `⌈log₂ P⌉` rounds of zero-word
    /// exchanges, so only latency is charged.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_barrier(&self) -> Result<(), MachineError> {
        crate::metrics::BARRIER.record(0);
        let _span = self.collective_phase("coll:barrier");
        let p = self.size();
        let me = self.rank();
        let mut k = 1usize;
        while k < p {
            let dst = (me + k) % p;
            let src = (me + p - k) % p;
            let _: () = self.try_exchange(dst, (), src, TAG_BARRIER)?;
            k <<= 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::Machine;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn barrier_separates_phases() {
        // Every rank increments before the barrier; after the barrier all
        // ranks must observe the full count.
        let p = 8;
        let counter = AtomicUsize::new(0);
        let out = Machine::new(p)
            .try_run(|comm| {
                counter.fetch_add(1, Ordering::SeqCst);
                comm.try_barrier()?;
                Ok(counter.load(Ordering::SeqCst))
            })
            .unwrap();
        assert!(out.results.iter().all(|&c| c == p));
    }

    #[test]
    fn barrier_charges_no_bandwidth() {
        let out = Machine::new(16).try_run(|comm| comm.try_barrier()).unwrap();
        assert_eq!(out.cost.total_words(), 0);
        // Dissemination: log2(16) = 4 rounds.
        assert_eq!(out.cost.max_messages(), 4);
    }

    #[test]
    fn barrier_on_single_rank_is_noop() {
        let out = Machine::new(1).try_run(|comm| comm.try_barrier()).unwrap();
        assert_eq!(out.cost.total_words(), 0);
        assert_eq!(out.cost.max_messages(), 0);
    }
}
