//! Reduce-Scatter: element-wise sum across ranks, result scattered.
//!
//! Two algorithms (the §6 latency discussion made executable):
//!
//! | algorithm          | latency       | bandwidth            | restriction |
//! |--------------------|---------------|----------------------|-------------|
//! | pairwise exchange  | `P − 1`       | `(1 − 1/P)·w`        | none        |
//! | recursive halving  | `log₂ P`      | `(1 − 1/P)·w`        | `P = 2^k`   |

use crate::collectives::{split_own, TAG_REDUCE_SCATTER};
use crate::comm::Comm;
use crate::error::MachineError;
use crate::metrics::REDUCE_SCATTER;

/// Algorithm selector for [`Comm::try_reduce_scatter_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceScatterAlg {
    /// `P − 1` rounds, bandwidth-optimal — the paper's §3.2 assumption.
    #[default]
    PairwiseExchange,
    /// `log₂ P` rounds, bandwidth-optimal; requires `P` a power of two
    /// (falls back to pairwise otherwise).
    RecursiveHalving,
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
    pub fn try_reduce_scatter(&self, segments: Vec<Vec<f64>>) -> Result<Vec<f64>, MachineError> {
        self.try_reduce_scatter_with(segments, ReduceScatterAlg::PairwiseExchange)
    }

    /// Reduce-scatter with an explicit algorithm choice.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_reduce_scatter_with(
        &self,
        segments: Vec<Vec<f64>>,
        alg: ReduceScatterAlg,
    ) -> Result<Vec<f64>, MachineError> {
        let p = self.size();
        assert_eq!(
            segments.len(),
            p,
            "reduce_scatter needs one segment per rank"
        );
        let words = segments.iter().map(Vec::len).sum();
        let _span = self.enter_collective(&REDUCE_SCATTER, words, "coll:reduce-scatter", words);
        if alg == ReduceScatterAlg::RecursiveHalving && p.is_power_of_two() {
            self.rs_recursive_halving(segments)
        } else {
            self.rs_pairwise(segments)
        }
    }

    fn rs_pairwise(&self, segments: Vec<Vec<f64>>) -> Result<Vec<f64>, MachineError> {
        let (mut acc, sends) = split_own(segments, self.rank());
        let absorb = |_, src, inc: Vec<f64>| self.absorb(&mut acc, &inc, src);
        self.pairwise(TAG_REDUCE_SCATTER, sends, self.peers(), absorb)?;
        Ok(acc)
    }

    /// Recursive halving: `log₂ P` rounds. In round `r` the group splits
    /// in half; each rank ships its partial sums for the *other* half's
    /// segments to its mirror partner and accumulates the incoming ones.
    fn rs_recursive_halving(&self, segments: Vec<Vec<f64>>) -> Result<Vec<f64>, MachineError> {
        let (p, me) = (self.size(), self.rank());
        // acc[q] = my current partial sum of rank q's segment, for q in
        // the still-active range [lo, lo + span).
        let mut acc = segments;
        let (mut lo, mut span) = (0, p);
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
            let out = acc[send_lo..send_lo + half].concat();
            let inc: Vec<f64> = self.try_exchange(partner, out, partner, TAG_REDUCE_SCATTER)?;
            let mut off = 0;
            for seg in &mut acc[keep_lo..keep_lo + half] {
                let end = (off + seg.len()).min(inc.len());
                self.absorb(seg, &inc[off..end], partner);
                off = end;
            }
            assert_eq!(off, inc.len(), "recursive halving: length mismatch");
            lo = keep_lo;
            span = half;
        }
        Ok(std::mem::take(&mut acc[me]))
    }

    /// `acc += inc` element-wise, charged as `|acc|` flops; `src` sent
    /// `inc`, and must agree on its length.
    fn absorb(&self, acc: &mut [f64], inc: &[f64], src: usize) {
        assert_eq!(
            inc.len(),
            acc.len(),
            "reduce_scatter: rank {src} disagrees on the length of rank {}'s segment",
            self.rank()
        );
        for (a, b) in acc.iter_mut().zip(inc) {
            *a += b;
        }
        self.add_flops(acc.len() as u64);
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
        assert_eq!(counts.len(), self.size());
        assert_eq!(
            data.len(),
            counts.iter().sum::<usize>(),
            "counts must tile the buffer"
        );
        self.try_reduce_scatter(cut(data, counts))
    }
}

/// `data` cut into consecutive pieces of `counts[q]` words.
fn cut(data: &[f64], counts: &[usize]) -> Vec<Vec<f64>> {
    let starts = counts
        .iter()
        .scan(0, |off, &c| Some(std::mem::replace(off, *off + c)));
    starts
        .zip(counts)
        .map(|(s, &c)| data[s..s + c].to_vec())
        .collect()
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
    fn recursive_halving_falls_back_to_pairwise_off_powers_of_two() {
        use super::ReduceScatterAlg;
        use crate::cost::CostModel;
        for p in [3usize, 5, 6, 12] {
            let run = |alg| {
                Machine::new(p)
                    .with_model(CostModel::typical())
                    .try_run(move |comm| {
                        let me = comm.rank();
                        let segments: Vec<Vec<f64>> = (0..p)
                            .map(|q| vec![(me * p + q) as f64 / 3.0; q % 3 + 1])
                            .collect();
                        comm.try_reduce_scatter_with(segments, alg)
                    })
                    .unwrap()
            };
            let pw = run(ReduceScatterAlg::PairwiseExchange);
            let rh = run(ReduceScatterAlg::RecursiveHalving);
            let bits = |out: &crate::machine::RunOutput<Vec<f64>>| -> Vec<Vec<u64>> {
                let seg = |r: &Vec<f64>| r.iter().map(|x| x.to_bits()).collect();
                out.results.iter().map(seg).collect()
            };
            assert_eq!(bits(&pw), bits(&rh), "P={p}");
            assert_eq!(pw.cost.ranks, rh.cost.ranks, "P={p}");
            for (a, b) in pw.cost.ranks.iter().zip(&rh.cost.ranks) {
                assert_eq!(a.clock.to_bits(), b.clock.to_bits(), "P={p}");
            }
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
}
