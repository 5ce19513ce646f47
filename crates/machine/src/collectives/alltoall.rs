//! All-to-All (personalized exchange).

use crate::collectives::{split_own, TAG_ALLTOALL};
use crate::comm::Comm;
use crate::envelope::Payload;
use crate::error::MachineError;
use crate::metrics::ALL_TO_ALL;

impl Comm {
    /// Personalized all-to-all with the pairwise-exchange algorithm.
    ///
    /// `blocks[q]` is the data this rank sends to rank `q` (blocks may have
    /// different sizes; `blocks[rank]` is kept locally for free). Returns
    /// `recv[q]` = the block rank `q` sent to this rank.
    ///
    /// Cost (§3.2): `P − 1` messages, `Σ_{q≠rank} |blocks[q]|` words sent —
    /// i.e. `(1 − 1/P)·w` when all blocks have equal size `w/P`.
    ///
    /// ```
    /// use syrk_machine::{Machine, MachineError};
    /// let out = Machine::new(3).try_run(|comm| {
    ///     let blocks: Vec<Vec<f64>> =
    ///         (0..3).map(|q| vec![(comm.rank() * 3 + q) as f64]).collect();
    ///     Ok(comm.try_all_to_all(blocks)?[2][0]) // what rank 2 sent me
    /// })?;
    /// assert_eq!(out.results[1], 7.0); // rank 2's block for rank 1
    /// # Ok::<(), MachineError>(())
    /// ```
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_all_to_all(&self, blocks: Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>, MachineError> {
        let (p, me) = (self.size(), self.rank());
        assert_eq!(blocks.len(), p, "all_to_all needs one block per rank");
        let words = blocks.iter().map(Vec::len).sum();
        let _span = self.enter_collective(&ALL_TO_ALL, words, "coll:all-to-all", words);
        let (own, sends) = split_own(blocks, me);
        let mut recv = vec![Vec::new(); p];
        recv[me] = own;
        let deliver = |_, src: usize, block| recv[src] = block;
        self.pairwise(TAG_ALLTOALL, sends, self.peers(), deliver)?;
        Ok(recv)
    }

    /// Sparse all-to-all over explicit partner lists (the
    /// `MPI_Alltoallv` shape): Algorithm 2's row-block exchange, where
    /// dense `P`-length vectors would cost O(P²) bytes machine-wide.
    ///
    /// `sends` is `(dst, payload)` per outgoing block and `recvs` is
    /// `(src, words)` per expected block, both non-empty, distinct and in
    /// any order. The payload is one [`Payload`] type for every partner:
    /// `Vec<f64>`, or `Arc<[f64]>` when one buffer goes to many
    /// destinations. Returns the received blocks parallel to `recvs`.
    ///
    /// Clocks, messages and words are *identical* to the dense pairwise
    /// form's with the same traffic, minus its zero-word lockstep
    /// messages. `recvs` must match what each `src` sends here (as
    /// `MPI_Alltoallv` counts): a missing pair is an exact deadlock
    /// diagnostic, and a block of another length panics, release builds
    /// included.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_all_to_all_sparse<T: Payload>(
        &self,
        sends: Vec<(usize, T)>,
        recvs: &[(usize, usize)],
    ) -> Result<Vec<T>, MachineError> {
        let words = sends.iter().map(|(_, b)| b.words()).sum();
        let _span = self.enter_collective(&ALL_TO_ALL, words, "coll:all-to-all", words);
        let nonempty = sends.iter().all(|(_, b)| b.words() > 0) && recvs.iter().all(|r| r.1 > 0);
        assert!(nonempty, "sparse all-to-all: a listed block is empty");
        // Each arrival goes straight to its position in `recvs`.
        let mut got: Vec<Option<T>> = std::iter::repeat_with(|| None).take(recvs.len()).collect();
        let arrive = |i, _: usize, block: T| got[i] = Some(block);
        self.pairwise(TAG_ALLTOALL, sends, recvs.iter().map(|r| r.0), arrive)?;
        let blocks = got.into_iter().zip(recvs).map(|(block, &(src, words))| {
            let block = block.expect("pairwise receives from every listed source");
            let ok = block.words() == words;
            assert!(ok, "sparse all-to-all: wrong length from {src}");
            block
        });
        Ok(blocks.collect())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::envelope::Payload;
    use crate::error::MachineError;
    use crate::fault::FaultPlan;
    use crate::machine::{Machine, RunOutput};

    /// The canonical all-to-all check: rank r sends `[r*P + q]` to rank q;
    /// afterwards rank q holds `[r*P + q]` from every r.
    fn check_alltoall(p: usize) {
        let out = Machine::new(p)
            .try_run(|comm| {
                let me = comm.rank();
                let blocks: Vec<Vec<f64>> = (0..p)
                    .map(|q| vec![(me * p + q) as f64, 1000.0 + me as f64])
                    .collect();
                let recv = comm.try_all_to_all(blocks)?;
                for (r, blk) in recv.iter().enumerate() {
                    assert_eq!(blk[0], (r * p + me) as f64, "P={p} rank {me} from {r}");
                    assert_eq!(blk[1], 1000.0 + r as f64);
                }
                Ok(true)
            })
            .unwrap();
        assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn pairwise_correct_various_p() {
        for p in [1, 2, 3, 4, 5, 7, 8, 12] {
            check_alltoall(p);
        }
    }

    #[test]
    fn pairwise_bandwidth_matches_model() {
        // Uniform blocks of size b: each rank sends (P-1)·b words in P-1
        // messages — the (1 − 1/P)·w cost from §3.2 with w = P·b.
        let (p, b) = (6, 10);
        let out = Machine::new(p)
            .try_run(|comm| comm.try_all_to_all(vec![vec![0.0; b]; p]).map(drop))
            .unwrap();
        for r in &out.cost.ranks {
            assert_eq!(r.words_sent, ((p - 1) * b) as u64);
            assert_eq!(r.msgs_sent, (p - 1) as u64);
        }
    }

    #[test]
    fn pairwise_supports_nonuniform_blocks() {
        let p = 4;
        let out = Machine::new(p)
            .try_run(|comm| {
                let me = comm.rank();
                // Block for rank q has length q+1 and is filled with me.
                let blocks: Vec<Vec<f64>> = (0..p).map(|q| vec![me as f64; q + 1]).collect();
                let recv = comm.try_all_to_all(blocks)?;
                for (r, blk) in recv.iter().enumerate() {
                    assert_eq!(blk.len(), me + 1);
                    assert!(blk.iter().all(|&x| x == r as f64));
                }
                Ok(true)
            })
            .unwrap();
        assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn sparse_alltoallv_skips_empty_pairs() {
        // Ranks exchange only with their ring neighbors; every other pair
        // is zero-word in both directions and must cost no messages.
        let p = 6;
        let out = Machine::new(p)
            .try_run(|comm| {
                let me = comm.rank();
                let (right, left) = ((me + 1) % p, (me + p - 1) % p);
                let sends = vec![(right, vec![me as f64; 3]), (left, vec![me as f64; 3])];
                let got: Vec<Vec<f64>> =
                    comm.try_all_to_all_sparse(sends, &[(right, 3), (left, 3)])?;
                assert_eq!(
                    got,
                    [vec![right as f64; 3], vec![left as f64; 3]],
                    "rank {me}"
                );
                Ok(())
            })
            .unwrap();
        for r in &out.cost.ranks {
            assert_eq!(r.msgs_sent, 2);
            assert_eq!(r.words_sent, 6);
        }
    }

    #[test]
    fn sparse_alltoallv_matches_dense_when_full() {
        // With every partner listed the list form is the dense pairwise
        // exchange: identical results, words, messages, and clocks.
        let (p, b) = (5, 3);
        let body = move |sparse: bool| {
            Machine::new(p)
                .try_run(move |comm| {
                    let me = comm.rank();
                    let block = |q: usize| vec![(me * p + q) as f64; b];
                    let recv: Vec<Vec<f64>> = if sparse {
                        let others = (0..p).filter(|&q| q != me);
                        let sends = others.clone().map(|q| (q, block(q))).collect();
                        let recvs: Vec<(usize, usize)> = others.map(|q| (q, b)).collect();
                        let mut got = comm.try_all_to_all_sparse(sends, &recvs)?;
                        got.insert(me, block(me));
                        got
                    } else {
                        comm.try_all_to_all((0..p).map(block).collect())?
                    };
                    Ok(recv.iter().map(|blk| blk[0]).sum::<f64>())
                })
                .unwrap()
        };
        let dense = body(false);
        let sparse = body(true);
        assert_eq!(dense.results, sparse.results);
        for (d, s) in dense.cost.ranks.iter().zip(&sparse.cost.ranks) {
            assert_eq!(d.words_sent, s.words_sent);
            assert_eq!(d.msgs_sent, s.msgs_sent);
            assert_eq!(d.clock.to_bits(), s.clock.to_bits());
        }
    }

    #[test]
    fn sparse_list_form_returns_blocks_parallel_to_recvs() {
        // Every rank hears from the three ranks behind it and lists them
        // nearest first — step 1, 2, 3 — then in reverse: block `i` is the
        // one from `recvs[i].0` either way, and the costs do not move.
        let p = 5;
        let run = |reverse: bool| {
            Machine::new(p)
                .try_run(move |comm| {
                    let me = comm.rank();
                    let sends = (1..=3)
                        .map(|d| ((me + d) % p, vec![me as f64; d]))
                        .collect();
                    let mut recvs: Vec<(usize, usize)> =
                        (1..=3).map(|d| ((me + p - d) % p, d)).collect();
                    if reverse {
                        recvs.reverse();
                    }
                    let got: Vec<Vec<f64>> = comm.try_all_to_all_sparse(sends, &recvs)?;
                    assert_eq!(got.len(), recvs.len());
                    for (block, &(src, words)) in got.iter().zip(&recvs) {
                        assert_eq!(block, &vec![src as f64; words], "rank {me} from {src}");
                    }
                    Ok(())
                })
                .unwrap()
        };
        let (forward, reversed) = (run(false), run(true));
        assert_eq!(forward.cost.ranks, reversed.cost.ranks);
    }

    #[test]
    fn sparse_list_form_handles_send_only_and_receive_only_ranks() {
        // Rank r sends r + 1 words to every higher rank: rank 0 only
        // sends, the last rank only receives, and no step is duplex.
        let p = 4;
        let out = Machine::new(p)
            .try_run(|comm| {
                let me = comm.rank();
                let sends = (me + 1..p).map(|q| (q, vec![me as f64; me + 1])).collect();
                let recvs: Vec<(usize, usize)> = (0..me).map(|q| (q, q + 1)).collect();
                let got: Vec<Vec<f64>> = comm.try_all_to_all_sparse(sends, &recvs)?;
                for (q, block) in got.iter().enumerate() {
                    assert_eq!(block, &vec![q as f64; q + 1], "rank {me} from {q}");
                }
                Ok(got.len())
            })
            .unwrap();
        assert_eq!(out.results, [0, 1, 2, 3]);
        for (r, cost) in out.cost.ranks.iter().enumerate() {
            assert_eq!(cost.msgs_sent, (p - 1 - r) as u64, "rank {r}");
            assert_eq!(cost.msgs_recv, r as u64, "rank {r}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate destination")]
    fn sparse_list_form_rejects_a_destination_listed_twice() {
        // A real assert, release builds included: the second envelope
        // would carry the same `(src, tag)` and nobody would receive it.
        // The first rank to trip it fails the run; its message is raised
        // here.
        let err = Machine::new(3)
            .try_run(|comm| {
                let next = (comm.rank() + 1) % 3;
                let prev = (comm.rank() + 2) % 3;
                let sends = vec![(next, vec![1.0]), (next, vec![2.0])];
                comm.try_all_to_all_sparse(sends, &[(prev, 1)]).map(drop)
            })
            .unwrap_err();
        assert!(matches!(err, MachineError::RankPanicked { .. }));
        panic!("{err}");
    }

    #[test]
    #[should_panic(expected = "wrong length from")]
    fn sparse_list_form_rejects_a_block_of_the_wrong_length() {
        // Release builds too: callers slice each block by its listed length.
        let err = Machine::new(2)
            .try_run(|comm| {
                let peer = 1 - comm.rank();
                let sends = vec![(peer, vec![1.0; 2])];
                comm.try_all_to_all_sparse(sends, &[(peer, 3)]).map(drop)
            })
            .unwrap_err();
        assert!(matches!(err, MachineError::RankPanicked { .. }));
        panic!("{err}");
    }

    /// A 6-rank exchange of payload type `T` under drops, duplicates and
    /// corruption: rank r ships r % 3 + 1 words, staged once, to the three
    /// ranks ahead of it. Returns what each rank received, as plain words.
    fn faulted_exchange<T>() -> RunOutput<Vec<Vec<f64>>>
    where
        T: Payload + Clone + From<Vec<f64>> + std::ops::Deref<Target = [f64]>,
    {
        let p = 6;
        let plan = FaultPlan::seeded(11).duplicate(0.2).corrupt(0.1).drop(0.2);
        Machine::new(p)
            .with_faults(plan)
            .try_run(move |comm| {
                let me = comm.rank();
                let chunk = T::from(vec![me as f64 + 0.5; me % 3 + 1]);
                let sends = (1..=3).map(|d| ((me + d) % p, chunk.clone())).collect();
                let recvs: Vec<(usize, usize)> = (1..=3)
                    .map(|d| (me + p - d) % p)
                    .map(|src| (src, src % 3 + 1))
                    .collect();
                let got: Vec<T> = comm.try_all_to_all_sparse(sends, &recvs)?;
                Ok(got.iter().map(|block| block.to_vec()).collect())
            })
            .unwrap()
    }

    #[test]
    fn shared_and_owned_payloads_cost_the_same_under_faults() {
        let owned = faulted_exchange::<Vec<f64>>();
        let shared = faulted_exchange::<Arc<[f64]>>();
        assert_eq!(owned.results, shared.results);
        for (me, got) in owned.results.iter().enumerate() {
            let want: Vec<Vec<f64>> = (1..=3)
                .map(|d| (me + 6 - d) % 6)
                .map(|src| vec![src as f64 + 0.5; src % 3 + 1])
                .collect();
            assert_eq!(got, &want, "rank {me}");
        }
        // Phase row by phase row, `retry:*` included, clocks to the bit.
        let retried = |n: &&str| n.starts_with("retry:");
        assert!(owned.cost.phase_names().iter().any(retried));
        assert_eq!(owned.cost.phases, shared.cost.phases);
        let rows = |out: &RunOutput<_>| out.cost.phases.concat();
        for (o, s) in rows(&owned).iter().zip(&rows(&shared)) {
            assert_eq!(o.cost.clock.to_bits(), s.cost.clock.to_bits(), "{}", o.name);
        }
    }
}
