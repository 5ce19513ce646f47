//! All-Gather: every rank ends with every rank's block.

use std::sync::Arc;

use crate::collectives::TAG_ALLGATHER;
use crate::comm::Comm;
use crate::error::MachineError;
use crate::metrics::ALL_GATHER;

impl Comm {
    /// All-gather with the pairwise-exchange algorithm.
    ///
    /// Returns `blocks[q]` = rank `q`'s `mine`. Cost: `P − 1` messages and
    /// `(P − 1)·|mine|` words sent per rank, which is bandwidth-optimal
    /// (`(1 − 1/P)·W` with `W = P·|mine|` the gathered size).
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_all_gather(&self, mine: Vec<f64>) -> Result<Vec<Vec<f64>>, MachineError> {
        let (p, me) = (self.size(), self.rank());
        let _span =
            self.enter_collective(&ALL_GATHER, mine.len(), "coll:all-gather", mine.len() * p);
        // One buffer, a handle per destination.
        let shared: Arc<[f64]> = mine.as_slice().into();
        let sends = self.peers().map(|q| (q, Arc::clone(&shared))).collect();
        let mut blocks = vec![Vec::new(); p];
        let deliver = |_, src: usize, b: Arc<[f64]>| blocks[src] = b.to_vec();
        self.pairwise(TAG_ALLGATHER, sends, self.peers(), deliver)?;
        blocks[me] = mine;
        Ok(blocks)
    }

    /// All-gather returning the concatenation of all blocks in rank order.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_all_gather_concat(&self, mine: Vec<f64>) -> Result<Vec<f64>, MachineError> {
        Ok(self.try_all_gather(mine)?.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::Machine;

    #[test]
    fn all_gather_collects_every_block() {
        for p in [1, 2, 4, 7] {
            let out = Machine::new(p)
                .try_run(|comm| comm.try_all_gather(vec![comm.rank() as f64; 3]))
                .unwrap();
            for blocks in &out.results {
                for (q, blk) in blocks.iter().enumerate() {
                    assert_eq!(blk, &vec![q as f64; 3], "P={p}");
                }
            }
        }
    }

    #[test]
    fn concat_orders_by_rank() {
        let out = Machine::new(3)
            .try_run(|comm| comm.try_all_gather_concat(vec![comm.rank() as f64]))
            .unwrap();
        assert_eq!(out.results[1], vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn bandwidth_is_p_minus_1_blocks() {
        let (p, b) = (6, 11);
        let out = Machine::new(p)
            .try_run(|comm| comm.try_all_gather(vec![0.0; b]).map(drop))
            .unwrap();
        for r in &out.cost.ranks {
            assert_eq!(r.words_sent, ((p - 1) * b) as u64);
            assert_eq!(r.msgs_sent, (p - 1) as u64);
        }
    }

    #[test]
    fn blocks_may_have_different_sizes() {
        let out = Machine::new(4)
            .try_run(|comm| {
                Ok(comm
                    .try_all_gather_concat(vec![1.0; comm.rank() + 1])?
                    .len())
            })
            .unwrap();
        assert!(out.results.iter().all(|&n| n == 1 + 2 + 3 + 4));
    }
}
