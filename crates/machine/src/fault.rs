//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] is installed on a [`Machine`](crate::Machine) with
//! [`with_faults`](crate::Machine::with_faults) and describes a *seeded,
//! repeatable* pattern of transport degradation:
//!
//! * **drop** — a transmission attempt is lost in the network; the sender
//!   retransmits (bounded by [`retries`](FaultPlan::retries)), and every
//!   failed attempt is charged to the `retry:drop` phase,
//! * **duplicate** — the network delivers a stale second copy; the
//!   receiver detects it by its per-link sequence number and discards it,
//!   charging the wasted receive to `retry:dup`,
//! * **delay** — the message arrives with its sender-ready clock skewed
//!   forward (pure latency; no counters change),
//! * **corrupt** — the delivered bits fail the payload checksum; the
//!   receiver discards the copy (`retry:corrupt`) and consumes the
//!   retransmission instead,
//! * **crash** — a chosen rank dies after a fixed number of communication
//!   operations, which surfaces as
//!   [`MachineError::RankCrashed`](crate::MachineError::RankCrashed).
//!
//! Every per-message decision is a pure function of
//! `(seed, src, dst, seq)`, where `seq` is the per-link sequence number
//! assigned in program order by the (single-threaded) sending rank — so
//! fault patterns are bit-identical across host thread counts and runs.
//!
//! Fault handling is *detected and paid for*, never silent: retransmits
//! and discarded copies show up as `retry:*` phases in the
//! [`CostReport`](crate::CostReport), and by construction they never
//! change the payload a receive returns nor the costs charged to any
//! non-retry phase.

use syrk_dense::DetRng;
use syrk_telemetry::Counter;

static DROPS_INJECTED: Counter = Counter::new("syrk_fault_drops_injected");
static DUPS_INJECTED: Counter = Counter::new("syrk_fault_dups_injected");
static CORRUPTS_INJECTED: Counter = Counter::new("syrk_fault_corrupts_injected");
static DELAYS_INJECTED: Counter = Counter::new("syrk_fault_delays_injected");
static CRASHES_INJECTED: Counter = Counter::new("syrk_fault_crashes_injected");
static RETRY_DROP: Counter = Counter::new("syrk_retry_drop_handled");
static RETRY_DUP: Counter = Counter::new("syrk_retry_dup_handled");
static RETRY_CORRUPT: Counter = Counter::new("syrk_retry_corrupt_handled");

/// Meter one message's injected faults on the telemetry registry
/// (`syrk_fault_*_injected`). Called by the transmit path once per
/// faulted logical message.
pub(crate) fn note_injected(mf: &MessageFaults) {
    DROPS_INJECTED.add(mf.drops as u64);
    if mf.duplicate {
        DUPS_INJECTED.inc();
    }
    if mf.corrupt {
        CORRUPTS_INJECTED.inc();
    }
    if mf.delay > 0.0 {
        DELAYS_INJECTED.inc();
    }
}

/// Meter an injected rank crash (`syrk_fault_crashes_injected`).
pub(crate) fn note_crash() {
    CRASHES_INJECTED.inc();
}

/// Meter one charged fault-handling step (`syrk_retry_*_handled`),
/// keyed by the `retry:*` phase name it was charged under. Unknown
/// phases are ignored (the phase constants are code-owned).
pub(crate) fn note_retry(phase: &str) {
    match phase {
        crate::comm::RETRY_DROP_PHASE => RETRY_DROP.inc(),
        crate::comm::RETRY_DUP_PHASE => RETRY_DUP.inc(),
        crate::comm::RETRY_CORRUPT_PHASE => RETRY_CORRUPT.inc(),
        _ => {}
    }
}

/// splitmix64 finalizer, used to key per-message RNG streams and to
/// derive child communicator ids (see `Comm::split`).
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Faults the plan decided for one logical message.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct MessageFaults {
    /// Number of transmission attempts lost before the one that arrives.
    pub drops: u32,
    /// Deliver a stale duplicate copy after the real one.
    pub duplicate: bool,
    /// Deliver a corrupted copy (bad checksum) before the real one.
    pub corrupt: bool,
    /// Skew added to the delivered copy's sender-ready clock.
    pub delay: f64,
}

/// A seeded, deterministic fault-injection plan for a machine run.
///
/// ```
/// use syrk_machine::{FaultPlan, Machine, MachineError};
///
/// let plan = FaultPlan::seeded(42).drop(0.2).duplicate(0.1).corrupt(0.05);
/// let out = Machine::new(2).with_faults(plan).try_run(|comm| {
///     if comm.rank() == 0 {
///         comm.try_send(1, 0, vec![1.0f64; 8])?;
///         Ok(0.0)
///     } else {
///         let v: Vec<f64> = comm.try_recv(0, 0)?;
///         Ok(v.iter().sum())
///     }
/// })?;
/// // Payloads always survive the faults; only retry:* phases record them.
/// assert_eq!(out.results[1], 8.0);
/// # Ok::<(), MachineError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    delay_skew: f64,
    corrupt_p: f64,
    max_retries: u32,
    crash: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_skew: 0.0,
            corrupt_p: 0.0,
            max_retries: 8,
            crash: Vec::new(),
        }
    }

    /// Drop each transmission attempt with probability `p` (the sender
    /// retransmits; see [`retries`](FaultPlan::retries)).
    pub fn drop(mut self, p: f64) -> Self {
        self.drop_p = check_p(p);
        self
    }

    /// Deliver a stale duplicate of each message with probability `p`.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.dup_p = check_p(p);
        self
    }

    /// Skew each message's arrival clock forward by `skew` model-time
    /// units with probability `p`.
    pub fn delay(mut self, p: f64, skew: f64) -> Self {
        assert!(skew >= 0.0, "delay skew must be non-negative");
        self.delay_p = check_p(p);
        self.delay_skew = skew;
        self
    }

    /// Corrupt the first delivered copy of each message with probability
    /// `p`; the receiver detects the bad checksum and consumes the
    /// retransmission instead.
    pub fn corrupt(mut self, p: f64) -> Self {
        self.corrupt_p = check_p(p);
        self
    }

    /// Bound the number of retransmissions per message (default 8). The
    /// final attempt always succeeds, so a drop plan can never livelock.
    pub fn retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Crash world rank `rank` just before its `at_op`-th communication
    /// operation (1-based). The run aborts with
    /// [`MachineError::RankCrashed`](crate::MachineError::RankCrashed).
    /// The operations counted are sends, receives and exchanges, so every
    /// collective built on them; [`Comm::split`](crate::Comm::split) is
    /// bookkeeping, not an operation, and neither counts nor crashes.
    /// May be called repeatedly to schedule crashes on several ranks;
    /// per run, whichever scheduled crash fires first wins.
    pub fn crash_rank(mut self, rank: usize, at_op: u64) -> Self {
        self.crash.push((rank, at_op));
        self
    }

    /// A copy of this plan with every crash scheduled for `rank`
    /// removed. Recovery drivers use this between attempts: the rank
    /// that crashed is gone from the shrunken world, so its fault must
    /// not re-fire against whichever survivor inherits the rank id.
    pub fn without_crashed(&self, rank: usize) -> Self {
        let mut plan = self.clone();
        plan.crash.retain(|&(r, _)| r != rank);
        plan
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any per-message fault (drop/dup/delay/corrupt) is enabled —
    /// when false, the transport skips checksums and per-message draws.
    pub(crate) fn perturbs_messages(&self) -> bool {
        self.drop_p > 0.0 || self.dup_p > 0.0 || self.delay_p > 0.0 || self.corrupt_p > 0.0
    }

    /// Whether the plan crashes any rank — when false, the
    /// per-operation counters are not consulted.
    pub(crate) fn perturbs_ranks(&self) -> bool {
        !self.crash.is_empty()
    }

    /// Decide the faults for message `seq` on the `src → dst` link.
    /// Pure in `(seed, src, dst, seq)`; the draw order is fixed, so
    /// enabling one fault kind never re-randomizes another.
    pub(crate) fn decide(&self, src: usize, dst: usize, seq: u64) -> MessageFaults {
        if !self.perturbs_messages() {
            return MessageFaults::default();
        }
        let key = mix64(self.seed ^ mix64((src as u64) << 32 | dst as u64) ^ mix64(seq));
        let mut rng = DetRng::seed_from_u64(key);
        let mut f = MessageFaults::default();
        while f.drops < self.max_retries && rng.gen_f64() < self.drop_p {
            f.drops += 1;
        }
        f.duplicate = rng.gen_f64() < self.dup_p;
        f.corrupt = rng.gen_f64() < self.corrupt_p;
        if rng.gen_f64() < self.delay_p {
            f.delay = self.delay_skew;
        }
        f
    }

    /// Whether `rank` crashes at its `op`-th communication operation.
    pub(crate) fn crash_at(&self, rank: usize, op: u64) -> bool {
        self.crash.iter().any(|&(r, at)| r == rank && at == op)
    }
}

fn check_p(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "fault probability must be in [0, 1], got {p}"
    );
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_link_and_seq() {
        let plan = FaultPlan::seeded(7).drop(0.3).duplicate(0.2).corrupt(0.1);
        let a = plan.decide(0, 1, 5);
        let b = plan.decide(0, 1, 5);
        assert_eq!(a, b);
        // Different links / sequence numbers draw independently.
        let others = [plan.decide(1, 0, 5), plan.decide(0, 1, 6)];
        assert!(others.iter().any(|o| *o != a) || plan.decide(0, 1, 7) != a);
    }

    #[test]
    fn drops_are_bounded_by_retries() {
        let plan = FaultPlan::seeded(1).drop(1.0).retries(3);
        for seq in 0..64 {
            assert_eq!(plan.decide(0, 1, seq).drops, 3);
        }
    }

    #[test]
    fn no_faults_means_no_perturbation() {
        let plan = FaultPlan::seeded(9).crash_rank(1, 4);
        assert!(!plan.perturbs_messages());
        assert_eq!(plan.decide(0, 1, 0), MessageFaults::default());
        assert!(plan.crash_at(1, 4));
        assert!(!plan.crash_at(1, 3));
        assert!(!plan.crash_at(0, 4));
    }

    #[test]
    fn crashes_accumulate_and_unschedule_per_rank() {
        let plan = FaultPlan::seeded(9).crash_rank(1, 4).crash_rank(2, 7);
        assert!(plan.crash_at(1, 4));
        assert!(plan.crash_at(2, 7));
        let shrunk = plan.without_crashed(1);
        assert!(!shrunk.crash_at(1, 4));
        assert!(shrunk.crash_at(2, 7));
        assert!(shrunk.perturbs_ranks());
        assert!(!shrunk.without_crashed(2).perturbs_ranks());
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn out_of_range_probability_rejected() {
        let _ = FaultPlan::seeded(0).drop(1.5);
    }
}
