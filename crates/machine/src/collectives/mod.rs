//! Collective operations over a [`Comm`](crate::Comm).
//!
//! The paper's algorithms (§5) communicate exclusively through
//! `All-to-All` and `Reduce-Scatter`, assuming *pairwise exchange*
//! implementations (§3.2): on `P` processors both collectives cost
//! `P − 1` messages (latency) and `(1 − 1/P)·w` words (bandwidth), where
//! `w` is the per-processor data size before the collective.
//! `Reduce-Scatter` additionally performs `(1 − 1/P)·w` additions.
//!
//! Those two, `All-Gather` (the GEMM baselines) and the crash-recovery
//! agreement all run one step loop, `Comm::pairwise`. The §6
//! latency-efficient variants (Bruck, recursive halving, tree + scatter)
//! sit beside them so the trade-off can be measured (E12, E15).

mod agree;
mod allgather;
mod alltoall;
mod reduce_scatter;

pub use reduce_scatter::ReduceScatterAlg;

use std::cmp::Reverse;

use crate::comm::{Comm, PhaseScope};
use crate::envelope::Payload;
use crate::error::MachineError;
use crate::metrics::CollMetrics;

/// Algorithm selector for collectives that have several implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveAlg {
    /// Pairwise exchange: `P − 1` rounds, bandwidth-optimal `(1 − 1/P)·w`.
    /// This is the algorithm assumed throughout the paper's cost analysis.
    #[default]
    PairwiseExchange,
    /// Bruck's log-structured algorithm: `⌈log₂ P⌉` rounds, bandwidth
    /// inflated by a factor of about `(log₂ P)/2` for all-to-all.
    Bruck,
}

/// Reserved tag space for collectives so they never collide with
/// user point-to-point tags (which should stay below this value).
pub(crate) const COLL_TAG: u64 = 1 << 60;

pub(crate) const TAG_ALLTOALL: u64 = COLL_TAG + 1;
pub(crate) const TAG_REDUCE_SCATTER: u64 = COLL_TAG + 2;
pub(crate) const TAG_ALLGATHER: u64 = COLL_TAG + 3;
pub(crate) const TAG_AGREE: u64 = COLL_TAG + 9;

/// `blocks[me]`, and the others paired with their destination rank.
fn split_own<T>(blocks: Vec<T>, me: usize) -> (T, Vec<(usize, T)>) {
    let mut rest: Vec<_> = blocks.into_iter().enumerate().collect();
    let (_, own) = rest.remove(me);
    (own, rest)
}

/// Whether partners sorted by rank name each partner once, and only
/// ranks of `0..p` other than `me`.
fn valid(mut by_rank: impl Iterator<Item = usize> + Clone, p: usize, me: usize) -> bool {
    let distinct = by_rank
        .clone()
        .zip(by_rank.clone().skip(1))
        .all(|(a, b)| a != b);
    distinct && by_rank.all(|q| q < p && q != me)
}

impl Comm {
    /// Count a call with `words` of input, report under `name` unless the
    /// caller has a phase open, and note `buffer` words of footprint.
    fn enter_collective(
        &self,
        metrics: &'static CollMetrics,
        words: usize,
        name: &'static str,
        buffer: usize,
    ) -> Option<PhaseScope<'_>> {
        metrics.record(words);
        let span = self.collective_phase(name);
        self.note_buffer(buffer);
        span
    }

    /// Every other rank of this communicator, in rank order.
    fn peers(&self) -> impl ExactSizeIterator<Item = usize> {
        let me = self.rank();
        (0..self.size() - 1).map(move |q| q + usize::from(q >= me))
    }

    /// The pairwise-exchange schedule of §3.2: at step `s` rank `r` sends
    /// to `(r + s) % P` and receives from `(r + P − s) % P`. The one loop
    /// behind every pairwise collective.
    ///
    /// `sends` holds `(dst, payload)` per outgoing message and `srcs` the
    /// ranks a message is due from, each list distinct and in any order.
    /// A step with both directions listed is one duplex `try_exchange`,
    /// zero-word payloads included (the dense forms' lockstep messages);
    /// a step with one is a plain send or receive; a step with neither
    /// is skipped. Each payload goes to `on_recv(i, src, payload)` as it
    /// arrives, `i` being the position of `src` in `srcs`. Both lists
    /// are put in step order (O(n) when given in rank order, as the dense
    /// forms do) and merged, so the loop reads rank-local memory
    /// sequentially. A source that does not list this rank back strands
    /// it in a receive: an exact deadlock diagnostic.
    fn pairwise<T: Payload, U: Payload>(
        &self,
        tag: u64,
        mut sends: Vec<(usize, T)>,
        srcs: impl IntoIterator<Item = usize>,
        mut on_recv: impl FnMut(usize, usize, U),
    ) -> Result<(), MachineError> {
        let (p, me) = (self.size(), self.rank());
        let step = |to: usize, from: usize| (to + p - from) % p;
        // (source, position in `srcs`), compact: a machine's ranks fit
        // `u32`, and a source that does not saturates to an invalid one.
        let mut rx: Vec<(u32, u32)> = (srcs.into_iter())
            .map(|src| u32::try_from(src).unwrap_or(u32::MAX))
            .zip(0..)
            .collect();
        // Sorted by rank, each list is its step order rotated; rotate it
        // to run from the latest step to the next one due, at `last`.
        sends.sort_unstable_by_key(|s| Reverse(s.0));
        rx.sort_unstable();
        let bad = "pairwise: bad or duplicate";
        assert!(valid(sends.iter().map(|s| s.0), p, me), "{bad} destination");
        assert!(
            valid(rx.iter().map(|r| r.0 as usize), p, me),
            "{bad} source"
        );
        let ahead = sends.partition_point(|s| s.0 > me);
        sends.rotate_left(ahead);
        let behind = rx.partition_point(|r| (r.0 as usize) < me);
        rx.rotate_left(behind);
        loop {
            let ts = sends.last().map_or(usize::MAX, |&(dst, _)| step(dst, me));
            let rs = rx
                .last()
                .map_or(usize::MAX, |&(src, _)| step(me, src as usize));
            let out = if ts <= rs { sends.pop() } else { None };
            let inc = if rs <= ts { rx.pop() } else { None };
            match (out, inc.map(|(src, i)| (src as usize, i as usize))) {
                (Some((dst, out)), Some((src, i))) => {
                    on_recv(i, src, self.try_exchange(dst, out, src, tag)?)
                }
                (Some((dst, out)), None) => self.try_send(dst, tag, out)?,
                (None, Some((src, i))) => on_recv(i, src, self.try_recv(src, tag)?),
                (None, None) => return Ok(()),
            }
        }
    }
}
