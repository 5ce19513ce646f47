//! Broadcast via a binomial tree.

use crate::collectives::TAG_BCAST;
use crate::comm::Comm;
use crate::error::MachineError;

impl Comm {
    /// Broadcast `data` from `root` to every rank using a binomial tree:
    /// `⌈log₂ P⌉` rounds; every rank receives the buffer once and forwards
    /// it to at most `⌈log₂ P⌉` children.
    ///
    /// Only `root` needs to supply `Some(data)`; other ranks pass `None`.
    /// Passing `None` on the root is a programmer error and panics.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_broadcast(
        &self,
        root: usize,
        data: Option<Vec<f64>>,
    ) -> Result<Vec<f64>, MachineError> {
        crate::metrics::BCAST.record(data.as_ref().map_or(0, Vec::len));
        let _span = self.collective_phase("coll:bcast");
        let p = self.size();
        let me = self.rank();
        assert!(root < p, "broadcast root {root} out of range");
        // Rotate so the root is virtual rank 0 (binomial tree on vranks).
        let vrank = (me + p - root) % p;
        let to_real = |v: usize| (v + root) % p;

        // Climb the mask until finding the bit where we receive.
        let mut mask = 1usize;
        let mut buf = data;
        while mask < p {
            if vrank & mask != 0 {
                let parent = to_real(vrank - mask);
                debug_assert!(buf.is_none(), "non-root ranks must pass None");
                buf = Some(self.try_recv(parent, TAG_BCAST)?);
                break;
            }
            mask <<= 1;
        }
        let buf = buf.expect("root must provide the broadcast data");

        // Forward to children at decreasing masks.
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < p {
                self.try_send(to_real(vrank + mask), TAG_BCAST, buf.clone())?;
            }
            mask >>= 1;
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use crate::error::MachineError;
    use crate::machine::Machine;

    #[test]
    fn broadcast_reaches_all_ranks_any_root() {
        for p in [1, 2, 3, 5, 8, 13] {
            for root in [0, p / 2, p - 1] {
                let out = Machine::new(p)
                    .try_run(|comm| {
                        let data = (comm.rank() == root).then(|| vec![3.25, -1.0, root as f64]);
                        comm.try_broadcast(root, data)
                    })
                    .unwrap();
                for res in &out.results {
                    assert_eq!(res, &vec![3.25, -1.0, root as f64], "P={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn latency_is_logarithmic() {
        let p = 16;
        let out = Machine::new(p)
            .try_run(|comm| {
                let data = (comm.rank() == 0).then(|| vec![1.0; 8]);
                comm.try_broadcast(0, data).map(drop)
            })
            .unwrap();
        // Root sends log2(16) = 4 messages; no rank sends more.
        assert_eq!(out.cost.max_messages(), 4);
        assert_eq!(out.cost.ranks[0].msgs_sent, 4);
        // Total transfers: every non-root rank receives exactly once.
        assert_eq!(out.cost.total_words(), ((p - 1) * 8) as u64);
    }

    #[test]
    #[should_panic(expected = "root must provide")]
    fn missing_root_data_panics() {
        // The root's panic is the run's typed first error; its message is
        // raised here.
        let err = Machine::new(2)
            .try_run(|comm| comm.try_broadcast(0, None).map(drop))
            .unwrap_err();
        assert!(matches!(err, MachineError::RankPanicked { rank: 0, .. }));
        panic!("{err}");
    }
}
