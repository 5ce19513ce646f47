//! Reduce (element-wise sum to a root) via a binomial tree.

use crate::collectives::TAG_REDUCE;
use crate::comm::Comm;
use crate::error::MachineError;

impl Comm {
    /// Element-wise sum of every rank's `data` delivered to `root`.
    /// Binomial tree: `⌈log₂ P⌉` rounds; returns `Some(sum)` on the root
    /// and `None` elsewhere. All ranks must pass equal-length buffers.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_reduce(&self, root: usize, data: &[f64]) -> Result<Option<Vec<f64>>, MachineError> {
        crate::metrics::REDUCE.record(data.len());
        let _span = self.collective_phase("coll:reduce");
        let p = self.size();
        let me = self.rank();
        assert!(root < p, "reduce root {root} out of range");
        let vrank = (me + p - root) % p;
        let to_real = |v: usize| (v + root) % p;
        let mut acc = data.to_vec();

        // Mirror image of the binomial broadcast: absorb children at
        // increasing masks, then send to the parent at the first set bit.
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let parent = to_real(vrank - mask);
                self.try_send(parent, TAG_REDUCE, acc)?;
                return Ok(None);
            }
            let child_v = vrank + mask;
            if child_v < p {
                let inc: Vec<f64> = self.try_recv(to_real(child_v), TAG_REDUCE)?;
                assert_eq!(
                    inc.len(),
                    acc.len(),
                    "reduce buffers must have equal length"
                );
                for (a, b) in acc.iter_mut().zip(&inc) {
                    *a += b;
                }
                self.add_flops(acc.len() as u64);
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::Machine;

    #[test]
    fn reduce_sums_to_root_any_root() {
        for p in [1, 2, 3, 6, 9, 16] {
            for root in [0, p - 1] {
                let out = Machine::new(p)
                    .try_run(|comm| comm.try_reduce(root, &[comm.rank() as f64, 1.0]))
                    .unwrap();
                let expected: f64 = (0..p).map(|r| r as f64).sum();
                for (r, res) in out.results.iter().enumerate() {
                    if r == root {
                        assert_eq!(res.as_ref().unwrap(), &vec![expected, p as f64]);
                    } else {
                        assert!(res.is_none(), "P={p} root={root} rank {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_nonroot_sends_exactly_once() {
        let p = 8;
        let out = Machine::new(p)
            .try_run(|comm| comm.try_reduce(0, &[1.0; 5]).map(drop))
            .unwrap();
        for (r, c) in out.cost.ranks.iter().enumerate() {
            assert_eq!(c.msgs_sent, u64::from(r != 0));
        }
        // Flops: P−1 partial-sum merges of 5 elements across the tree.
        assert_eq!(out.cost.total_flops(), ((p - 1) * 5) as u64);
    }
}
