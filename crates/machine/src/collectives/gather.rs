//! Gather and Scatter (rooted, direct point-to-point).

use crate::collectives::{TAG_GATHER, TAG_SCATTER};
use crate::comm::Comm;
use crate::error::MachineError;

impl Comm {
    /// Gather every rank's `mine` at `root`. Returns `Some(blocks)` on the
    /// root (indexed by rank) and `None` elsewhere. Blocks may differ in
    /// size. Direct algorithm: the root receives `P − 1` messages.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_gather(
        &self,
        root: usize,
        mine: Vec<f64>,
    ) -> Result<Option<Vec<Vec<f64>>>, MachineError> {
        crate::metrics::GATHER.record(mine.len());
        let _span = self.collective_phase("coll:gather");
        let p = self.size();
        let me = self.rank();
        assert!(root < p, "gather root {root} out of range");
        if me == root {
            let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); p];
            for src in (0..p).filter(|&s| s != root) {
                blocks[src] = self.try_recv(src, TAG_GATHER)?;
            }
            blocks[root] = mine;
            Ok(Some(blocks))
        } else {
            self.try_send(root, TAG_GATHER, mine)?;
            Ok(None)
        }
    }

    /// Scatter `blocks[q]` from `root` to each rank `q`. Only the root
    /// supplies `Some(blocks)`. Returns this rank's block.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_scatter(
        &self,
        root: usize,
        blocks: Option<Vec<Vec<f64>>>,
    ) -> Result<Vec<f64>, MachineError> {
        crate::metrics::SCATTER.record(
            blocks
                .as_ref()
                .map_or(0, |bs| bs.iter().map(Vec::len).sum()),
        );
        let _span = self.collective_phase("coll:scatter");
        let p = self.size();
        let me = self.rank();
        assert!(root < p, "scatter root {root} out of range");
        if me == root {
            let mut blocks = blocks.expect("root must provide the scatter blocks");
            assert_eq!(blocks.len(), p, "scatter needs one block per rank");
            for dst in (0..p).filter(|&d| d != root) {
                self.try_send(dst, TAG_SCATTER, std::mem::take(&mut blocks[dst]))?;
            }
            Ok(std::mem::take(&mut blocks[root]))
        } else {
            self.try_recv(root, TAG_SCATTER)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::Machine;

    #[test]
    fn gather_collects_blocks_at_root() {
        let p = 5;
        let root = 2;
        let out = Machine::new(p)
            .try_run(|comm| comm.try_gather(root, vec![comm.rank() as f64; comm.rank() + 1]))
            .unwrap();
        for (r, res) in out.results.iter().enumerate() {
            if r == root {
                let blocks = res.as_ref().unwrap();
                for (q, blk) in blocks.iter().enumerate() {
                    assert_eq!(blk, &vec![q as f64; q + 1]);
                }
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn scatter_distributes_blocks() {
        let p = 4;
        let out = Machine::new(p)
            .try_run(|comm| {
                let blocks = (comm.rank() == 0)
                    .then(|| (0..p).map(|q| vec![q as f64 * 2.0]).collect::<Vec<_>>());
                comm.try_scatter(0, blocks)
            })
            .unwrap();
        for (q, blk) in out.results.iter().enumerate() {
            assert_eq!(blk, &vec![q as f64 * 2.0]);
        }
    }

    #[test]
    fn gather_then_scatter_roundtrip() {
        let p = 6;
        let out = Machine::new(p)
            .try_run(|comm| {
                let gathered = comm.try_gather(0, vec![comm.rank() as f64 + 0.5])?;
                comm.try_scatter(0, gathered)
            })
            .unwrap();
        for (q, blk) in out.results.iter().enumerate() {
            assert_eq!(blk, &vec![q as f64 + 0.5]);
        }
    }
}
