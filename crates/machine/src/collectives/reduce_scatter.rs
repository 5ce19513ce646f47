//! Reduce-Scatter: element-wise sum across ranks, result scattered.
//!
//! Three algorithms (the §6 latency discussion made executable):
//!
//! | algorithm          | latency       | bandwidth            | restriction |
//! |--------------------|---------------|----------------------|-------------|
//! | pairwise exchange  | `P − 1`       | `(1 − 1/P)·w`        | none        |
//! | recursive halving  | `log₂ P`      | `(1 − 1/P)·w`        | `P = 2^k`   |
//! | reduce + scatter   | `log₂ P` tree + `P−1` root sends | up to `w·log₂ P` at the root | none |

use crate::collectives::TAG_REDUCE_SCATTER;
use crate::comm::Comm;
use crate::error::MachineError;

/// Algorithm selector for [`Comm::try_reduce_scatter_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceScatterAlg {
    /// `P − 1` rounds, bandwidth-optimal — the paper's §3.2 assumption.
    #[default]
    PairwiseExchange,
    /// `log₂ P` rounds, bandwidth-optimal; requires `P` a power of two
    /// (falls back to pairwise otherwise).
    RecursiveHalving,
    /// Binomial-tree reduce to rank 0 followed by a direct scatter:
    /// log-depth reduction but the root then sends `P − 1` messages and
    /// receives `O(w log P)` words — illustrating why naive tree
    /// composition does NOT achieve the §6 latency/bandwidth optimum.
    TreeThenScatter,
}

impl Comm {
    /// Reduce-scatter with the pairwise-exchange algorithm.
    ///
    /// `segments[q]` is this rank's *contribution* to the part of the
    /// result owned by rank `q`. Returns this rank's segment of the result:
    /// the element-wise sum over all ranks of their `segments[rank]`.
    /// All ranks must agree on the segment lengths.
    ///
    /// Cost (§3.2): `P − 1` messages, `Σ_{q≠rank} |segments[q]|` words sent
    /// and `(P − 1)·|segments[rank]|` additions — i.e. `(1 − 1/P)·w` words
    /// and flops when all segments have equal size `w/P`.
    ///
    /// ```
    /// use syrk_machine::{Machine, MachineError};
    /// let out = Machine::new(4).try_run(|comm| {
    ///     // Everyone contributes 1.0 to every rank's segment.
    ///     Ok(comm.try_reduce_scatter(vec![vec![1.0]; 4])?[0])
    /// })?;
    /// assert!(out.results.iter().all(|&x| x == 4.0));
    /// # Ok::<(), MachineError>(())
    /// ```
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_reduce_scatter(
        &self,
        mut segments: Vec<Vec<f64>>,
    ) -> Result<Vec<f64>, MachineError> {
        crate::metrics::REDUCE_SCATTER.record(segments.iter().map(Vec::len).sum());
        let _span = self.collective_phase("coll:reduce-scatter");
        let p = self.size();
        let me = self.rank();
        assert_eq!(
            segments.len(),
            p,
            "reduce_scatter needs one segment per rank"
        );
        self.note_buffer(segments.iter().map(Vec::len).sum());
        let mut acc = std::mem::take(&mut segments[me]);
        for step in 1..p {
            let dst = (me + step) % p;
            let src = (me + p - step) % p;
            let out = std::mem::take(&mut segments[dst]);
            let inc: Vec<f64> = self.try_exchange(dst, out, src, TAG_REDUCE_SCATTER)?;
            assert_eq!(
                inc.len(),
                acc.len(),
                "reduce_scatter: rank {src} disagrees on the length of rank {me}'s segment"
            );
            for (a, b) in acc.iter_mut().zip(&inc) {
                *a += b;
            }
            self.add_flops(acc.len() as u64);
        }
        Ok(acc)
    }

    /// Reduce-scatter with an explicit algorithm choice.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_reduce_scatter_with(
        &self,
        segments: Vec<Vec<f64>>,
        alg: ReduceScatterAlg,
    ) -> Result<Vec<f64>, MachineError> {
        let _span = self.collective_phase("coll:reduce-scatter");
        match alg {
            ReduceScatterAlg::PairwiseExchange => self.try_reduce_scatter(segments),
            ReduceScatterAlg::RecursiveHalving => {
                if self.size().is_power_of_two() {
                    self.rs_recursive_halving(segments)
                } else {
                    self.try_reduce_scatter(segments)
                }
            }
            ReduceScatterAlg::TreeThenScatter => self.rs_tree_then_scatter(segments),
        }
    }

    /// Recursive halving: `log₂ P` rounds. In round `r` the group splits
    /// in half; each rank ships its partial sums for the *other* half's
    /// segments to its mirror partner and accumulates the incoming ones.
    fn rs_recursive_halving(&self, segments: Vec<Vec<f64>>) -> Result<Vec<f64>, MachineError> {
        crate::metrics::REDUCE_SCATTER.record(segments.iter().map(Vec::len).sum());
        let p = self.size();
        let me = self.rank();
        assert!(p.is_power_of_two());
        assert_eq!(segments.len(), p);
        self.note_buffer(segments.iter().map(Vec::len).sum());
        // acc[q] = my current partial sum of rank q's segment, for q in
        // the still-active range [lo, lo + span).
        let mut acc = segments;
        let mut lo = 0usize;
        let mut span = p;
        while span > 1 {
            let half = span / 2;
            let in_low = me < lo + half;
            let partner = if in_low { me + half } else { me - half };
            // Send the half that partner's side owns; keep mine.
            let (keep_lo, send_lo) = if in_low {
                (lo, lo + half)
            } else {
                (lo + half, lo)
            };
            let mut out = Vec::new();
            for seg in &acc[send_lo..send_lo + half] {
                out.extend_from_slice(seg);
            }
            let inc: Vec<f64> = self.try_exchange(partner, out, partner, TAG_REDUCE_SCATTER)?;
            let mut off = 0;
            for seg in &mut acc[keep_lo..keep_lo + half] {
                let len = seg.len();
                assert!(
                    inc.len() >= off + len,
                    "recursive halving: partner disagrees on segment sizes"
                );
                for (a, b) in seg.iter_mut().zip(&inc[off..off + len]) {
                    *a += b;
                }
                off += len;
                self.add_flops(len as u64);
            }
            assert_eq!(off, inc.len(), "recursive halving: length mismatch");
            lo = keep_lo;
            span = half;
        }
        Ok(std::mem::take(&mut acc[me]))
    }

    /// Binomial reduce of the concatenated buffer to rank 0, then a
    /// direct scatter of the reduced segments.
    fn rs_tree_then_scatter(&self, segments: Vec<Vec<f64>>) -> Result<Vec<f64>, MachineError> {
        crate::metrics::REDUCE_SCATTER.record(segments.iter().map(Vec::len).sum());
        let p = self.size();
        assert_eq!(segments.len(), p);
        let lens: Vec<usize> = segments.iter().map(Vec::len).collect();
        let flat: Vec<f64> = segments.into_iter().flatten().collect();
        self.note_buffer(flat.len());
        let reduced = self.try_reduce(0, &flat)?;
        let blocks = reduced.map(|r| {
            let mut out = Vec::with_capacity(p);
            let mut off = 0;
            for &l in &lens {
                out.push(r[off..off + l].to_vec());
                off += l;
            }
            out
        });
        self.try_scatter(0, blocks)
    }

    /// Reduce-scatter over a contiguous buffer split into `counts[q]`-sized
    /// segments (an `MPI_Reduce_scatter`-style interface). Returns this
    /// rank's reduced segment of length `counts[rank]`.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_reduce_scatter_block(
        &self,
        data: &[f64],
        counts: &[usize],
    ) -> Result<Vec<f64>, MachineError> {
        let p = self.size();
        assert_eq!(counts.len(), p);
        assert_eq!(
            data.len(),
            counts.iter().sum::<usize>(),
            "counts must tile the buffer"
        );
        let mut segments = Vec::with_capacity(p);
        let mut off = 0;
        for &c in counts {
            segments.push(data[off..off + c].to_vec());
            off += c;
        }
        self.try_reduce_scatter(segments)
    }
}

#[cfg(test)]
mod tests {
    use crate::error::MachineError;
    use crate::machine::Machine;

    #[test]
    fn reduce_scatter_sums_contributions() {
        for p in [1, 2, 3, 5, 8] {
            let out = Machine::new(p)
                .try_run(|comm| {
                    let me = comm.rank();
                    // Contribution to rank q's segment: [me + q, 10*me].
                    let segments: Vec<Vec<f64>> = (0..p)
                        .map(|q| vec![(me + q) as f64, (10 * me) as f64])
                        .collect();
                    comm.try_reduce_scatter(segments)
                })
                .unwrap();
            let rank_sum: usize = (0..p).sum();
            for (q, seg) in out.results.iter().enumerate() {
                // Σ_me (me + q) = rank_sum + P·q ; Σ_me 10·me = 10·rank_sum.
                assert_eq!(seg[0], (rank_sum + p * q) as f64, "P={p} rank {q}");
                assert_eq!(seg[1], (10 * rank_sum) as f64);
            }
        }
    }

    #[test]
    fn cost_matches_paper_formula() {
        // With w total words per rank split evenly, bandwidth is
        // (1 − 1/P)·w words and (1 − 1/P)·w additions (§3.2).
        let (p, seg) = (5, 12);
        let out = Machine::new(p)
            .try_run(|comm| comm.try_reduce_scatter(vec![vec![1.0; seg]; p]).map(drop))
            .unwrap();
        let w = (p * seg) as u64;
        for r in &out.cost.ranks {
            assert_eq!(r.words_sent, w - seg as u64); // (1 - 1/P)·w
            assert_eq!(r.msgs_sent, (p - 1) as u64);
            assert_eq!(r.flops, w - seg as u64);
        }
    }

    #[test]
    fn block_interface_respects_counts() {
        let p = 4;
        let out = Machine::new(p)
            .try_run(|comm| {
                let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
                comm.try_reduce_scatter_block(&data, &[1, 2, 3, 4])
            })
            .unwrap();
        // Every rank contributed the same buffer, so rank q's segment is
        // P × the q-th slice of 0..10.
        assert_eq!(out.results[0], vec![0.0 * 4.0]);
        assert_eq!(out.results[1], vec![4.0, 8.0]);
        assert_eq!(out.results[2], vec![12.0, 16.0, 20.0]);
        assert_eq!(out.results[3], vec![24.0, 28.0, 32.0, 36.0]);
    }

    #[test]
    fn empty_segments_are_fine() {
        let p = 3;
        let out = Machine::new(p)
            .try_run(|comm| {
                let segments: Vec<Vec<f64>> = (0..p)
                    .map(|q| if q == 1 { vec![2.0] } else { vec![] })
                    .collect();
                comm.try_reduce_scatter(segments)
            })
            .unwrap();
        assert!(out.results[0].is_empty());
        assert_eq!(out.results[1], vec![6.0]);
        assert!(out.results[2].is_empty());
    }

    #[test]
    #[should_panic(expected = "disagrees on the length")]
    fn mismatched_segment_lengths_panic() {
        // The rank that detects the disagreement fails the run; its
        // message is raised here.
        let err = Machine::new(2)
            .try_run(|comm| {
                let segments = if comm.rank() == 0 {
                    vec![vec![1.0], vec![1.0]]
                } else {
                    vec![vec![1.0, 2.0], vec![1.0]]
                };
                comm.try_reduce_scatter(segments).map(drop)
            })
            .unwrap_err();
        assert!(matches!(err, MachineError::RankPanicked { .. }));
        panic!("{err}");
    }

    #[test]
    fn recursive_halving_matches_pairwise() {
        use super::ReduceScatterAlg;
        for p in [2usize, 4, 8, 16] {
            let run = |alg| {
                Machine::new(p)
                    .try_run(move |comm| {
                        let me = comm.rank();
                        let segments: Vec<Vec<f64>> =
                            (0..p).map(|q| vec![(me * p + q) as f64, 1.0]).collect();
                        comm.try_reduce_scatter_with(segments, alg)
                    })
                    .unwrap()
                    .results
            };
            let pw = run(ReduceScatterAlg::PairwiseExchange);
            let rh = run(ReduceScatterAlg::RecursiveHalving);
            assert_eq!(pw, rh, "P={p}");
        }
    }

    #[test]
    fn recursive_halving_is_log_latency_same_bandwidth() {
        use super::ReduceScatterAlg;
        let (p, seg) = (8usize, 32usize);
        let run = |alg| {
            Machine::new(p)
                .try_run(move |comm| {
                    let segments = vec![vec![1.0; seg]; p];
                    comm.try_reduce_scatter_with(segments, alg).map(drop)
                })
                .unwrap()
                .cost
        };
        let pw = run(ReduceScatterAlg::PairwiseExchange);
        let rh = run(ReduceScatterAlg::RecursiveHalving);
        assert_eq!(pw.max_messages(), (p - 1) as u64);
        assert_eq!(rh.max_messages(), 3); // log2(8)
                                          // Identical bandwidth: (1 - 1/P) * w.
        assert_eq!(rh.max_words_sent(), pw.max_words_sent());
    }

    #[test]
    fn tree_then_scatter_correct_any_p() {
        use super::ReduceScatterAlg;
        for p in [1usize, 3, 5, 8] {
            let out = Machine::new(p)
                .try_run(move |comm| {
                    let me = comm.rank();
                    let segments: Vec<Vec<f64>> = (0..p).map(|q| vec![(me + q) as f64]).collect();
                    comm.try_reduce_scatter_with(segments, ReduceScatterAlg::TreeThenScatter)
                })
                .unwrap();
            let rank_sum: usize = (0..p).sum();
            for (q, seg) in out.results.iter().enumerate() {
                assert_eq!(seg[0], (rank_sum + p * q) as f64, "P={p} q={q}");
            }
        }
    }

    #[test]
    fn tree_then_scatter_pays_bandwidth_for_latency() {
        use super::ReduceScatterAlg;
        let (p, seg) = (8usize, 64usize);
        let run = |alg| {
            Machine::new(p)
                .try_run(move |comm| {
                    let segments = vec![vec![1.0; seg]; p];
                    comm.try_reduce_scatter_with(segments, alg).map(drop)
                })
                .unwrap()
                .cost
        };
        let pw = run(ReduceScatterAlg::PairwiseExchange);
        let tr = run(ReduceScatterAlg::TreeThenScatter);
        // Latency bounded by 2 log P at any single rank...
        assert!(tr.max_messages() <= 2 * 3 + 1);
        // ...but the root receives ~w log P and sends ~w: more total words.
        assert!(tr.max_words_total() > pw.max_words_total());
    }
}
