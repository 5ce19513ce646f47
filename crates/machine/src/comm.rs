//! Communicators: point-to-point messaging, sub-communicators, and the
//! shared world state of a simulated machine run.
//!
//! A `Comm` is a group, a communicator id and a handle on the world; it
//! holds no message state. Everything a rank's messages touch — its cost
//! ledger, its inbox, the screened envelopes no receive has claimed yet
//! ([`PendingQueue`]) and its per-link sequence counters — is the rank's
//! [`RankSlot`], under one lock: a send takes the destination's slot to
//! deliver, a receive takes its own once and works under it. A payload
//! rides in its envelope as a `Vec<f64>`, as an `Arc<[f64]>` (a buffer
//! sent to many destinations: the tight 2D exchange's chunks) or, for
//! every other type, boxed — see [`crate::envelope::Wire`].
//!
//! Every transmission funnels through one dispatch path and every receive
//! through one matching loop, which is where the robustness machinery
//! lives: per-link sequence numbers and payload checksums (so injected
//! duplicates and corruption are *detected*, see [`crate::FaultPlan`]),
//! `retry:*` phase attribution for all fault-handling traffic, and the
//! `(src, tag, op)` each parked rank leaves in its slot, from which the
//! scheduler builds the deadlock diagnostic when every live rank is
//! blocked with nothing in flight.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::cost::{CostModel, RankCost, RankLedger};
use crate::engine::{EventState, RankSlot};
use crate::envelope::{Envelope, Garbled, Payload};
use crate::error::{DeadlockInfo, MachineError, WaitEdge};
use crate::fault::{mix64, FaultPlan, MessageFaults};
use crate::sync::Mutex;
use crate::trace::{Event, EventKind, Timeline};
use syrk_telemetry::flight::{self, FlightKind};

/// Phase names under which fault-handling costs are recorded. They are
/// deliberately distinct from any algorithm phase so that `retry:*` rows
/// in a [`CostReport`](crate::CostReport) isolate robustness overhead
/// from the Theorem 1 accounting.
pub(crate) const RETRY_DROP_PHASE: &str = "retry:drop";
/// Receive-side cost of discarding a detected duplicate delivery.
pub(crate) const RETRY_DUP_PHASE: &str = "retry:dup";
/// Receive-side cost of discarding a checksum-failed delivery.
pub(crate) const RETRY_CORRUPT_PHASE: &str = "retry:corrupt";

/// Phase names under which crash-recovery costs are recorded. Like the
/// `retry:*` family they are distinct from every algorithm phase, so
/// `recover:*` rows in a [`CostReport`](crate::CostReport) isolate the
/// price of surviving a rank loss from the Theorem 1 accounting (the
/// *replanned* run re-enters the bounds at P′; recovery traffic itself
/// sits outside them).
///
/// Heartbeat probes and the timeout clock spent declaring a rank dead.
pub const RECOVER_DETECT_PHASE: &str = "recover:detect";
/// Survivor-to-survivor exchange of suspect lists until agreement.
pub const RECOVER_AGREE_PHASE: &str = "recover:agree";
/// Re-shipping surviving A blocks into the replanned grid's layout.
pub const RECOVER_REDISTRIBUTE_PHASE: &str = "recover:redistribute";
/// Exponential-backoff clock charged before a re-execution attempt.
pub const RECOVER_BACKOFF_PHASE: &str = "recover:backoff";

/// Model-time a survivor waits on a silent link before declaring the
/// peer dead, in units of `CostModel::message(1)` (one α + β): the
/// detector sends this many unanswered heartbeat probes per suspect.
pub(crate) const HEARTBEAT_TIMEOUT_PROBES: u64 = 4;

/// Unmatched-envelope buffer indexed by `(src, tag)`. Sparse collectives
/// at 10⁴ ranks desynchronize the ranks enough that thousands of
/// out-of-order envelopes sit buffered at a hot receiver — most envelopes
/// of a many-rank 2D run pass through here — so matching must be a keyed
/// lookup, not a linear scan, and a key must cost no allocation: an entry
/// holds its oldest envelope inline and queues only what piles up behind
/// it. Arrival order per key is kept — the per-link FIFO guarantee that
/// back-to-back collectives reusing a tag rely on to match their rounds
/// in send order. Matching itself stays [`Envelope::matches`]: an entry
/// is keyed by exactly the `(src, tag)` that predicate tests.
#[derive(Default)]
pub(crate) struct PendingQueue {
    by_key: HashMap<PendingKey, (Envelope, VecDeque<Envelope>), BuildHasherDefault<KeyHasher>>,
}

type PendingKey = (usize, (u64, u64));

/// Hasher for [`PendingKey`]: one [`mix64`] round per word. The keys are
/// rank numbers, communicator ids and collective tags chosen by this
/// program, never outside input, so SipHash's collision resistance buys
/// nothing here.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl PendingQueue {
    fn push(&mut self, env: Envelope) {
        debug_assert!(env.matches(env.src, env.tag));
        match self.by_key.entry((env.src, env.tag)) {
            Entry::Occupied(mut e) => e.get_mut().1.push_back(env),
            Entry::Vacant(e) => {
                e.insert((env, VecDeque::new()));
            }
        }
    }

    /// Pop the oldest buffered envelope matching `(src, tag)`, if any.
    fn take(&mut self, src: usize, tag: (u64, u64)) -> Option<Envelope> {
        let (oldest, behind) = self.by_key.get_mut(&(src, tag))?;
        match behind.pop_front() {
            Some(next) => Some(std::mem::replace(oldest, next)),
            None => self.by_key.remove(&(src, tag)).map(|(oldest, _)| oldest),
        }
    }
}

/// Shared state of one machine run: the network fabric, cost ledger, and
/// the failure flags.
pub(crate) struct World {
    pub model: CostModel,
    /// Set when any rank panics so blocked receives abort promptly.
    pub poisoned: AtomicBool,
    /// Set when any rank fails for any reason (panic, clean error, crash,
    /// deadlock); blocked receives abort promptly.
    pub aborted: AtomicBool,
    /// First failure recorded in the run: `(world rank, error)`. Set-once;
    /// cascade failures on other ranks never overwrite it.
    pub first_error: Mutex<Option<(usize, MachineError)>>,
    /// Ranks that have returned from the SPMD closure.
    pub finished: Vec<AtomicBool>,
    /// Per-rank communication-operation counters (for crash faults).
    pub ops: Vec<AtomicU64>,
    /// World ranks killed by injected crash faults, in the order the
    /// crashes fired. Survivors read this through
    /// [`Comm::try_agree_on_failures`] to learn *who* died without
    /// touching the (aborted) network.
    pub crashed: Mutex<Vec<usize>>,
    /// The installed fault plan, if any.
    pub faults: Option<FaultPlan>,
    /// Per-rank event logs when tracing is enabled.
    pub traces: Option<Vec<Mutex<Timeline>>>,
    /// The scheduler's fabric: one slot per rank (ledger, inbox, what it
    /// is parked on) and the wake list.
    pub event: EventState,
}

impl World {
    /// Record the first failure of the run (set-once) and flip the abort
    /// flag so every blocked rank bails out promptly.
    pub(crate) fn record_error(&self, rank: usize, err: MachineError) {
        {
            let mut slot = self.first_error.lock();
            if slot.is_none() {
                *slot = Some((rank, err));
            }
        }
        self.aborted.store(true, Ordering::SeqCst);
    }

    /// Snapshot the wait-for graph: one edge per parked rank, in rank
    /// order, plus the set of cleanly finished ranks. An edge's phase is
    /// the innermost one open on the parked rank — the one it parked in.
    pub(crate) fn snapshot_deadlock(&self) -> DeadlockInfo {
        let mut edges = Vec::new();
        let mut finished = Vec::new();
        for (r, slot) in self.event.slots.iter().enumerate() {
            if self.finished[r].load(Ordering::SeqCst) {
                finished.push(r);
                continue;
            }
            let slot = slot.lock();
            if let Some((to, tag, op)) = slot.parked {
                edges.push(WaitEdge {
                    from: r,
                    to,
                    op,
                    tag,
                    phase: slot.ledger.active_phase(),
                });
            }
        }
        DeadlockInfo { edges, finished }
    }
}

/// Records a `recv:block` flight span from construction to drop, so every
/// exit path of the blocking receive (match, abort, deadlock) closes the
/// span.
struct RecvSpan {
    start_ns: Option<u64>,
    src_world: usize,
}

impl RecvSpan {
    fn begin(src_world: usize) -> Self {
        RecvSpan {
            start_ns: flight::is_enabled().then(flight::now_ns),
            src_world,
        }
    }
}

impl Drop for RecvSpan {
    fn drop(&mut self) {
        if let Some(t0) = self.start_ns {
            flight::record(
                FlightKind::RecvBlock,
                t0,
                flight::now_ns(),
                self.src_world as u64,
            );
        }
    }
}

/// A communicator handle held by a single simulated rank.
///
/// The world communicator is handed to the SPMD closure by
/// [`Machine::try_run`](crate::machine::Machine::try_run);
/// sub-communicators are created collectively with [`Comm::split`]. Group ranks (`0..size`) are
/// always used in the public API; translation to world ranks is internal.
pub struct Comm {
    world: Arc<World>,
    /// World ranks of this communicator's members, indexed by group rank.
    group: Arc<Vec<usize>>,
    /// This rank's position within `group`.
    group_rank: usize,
    /// Communicator id; tags are namespaced per communicator.
    comm_id: u64,
    /// Number of `split` calls performed on this communicator (local, but
    /// consistent across members because splits are collective).
    split_seq: u64,
}

impl Comm {
    pub(crate) fn new_world(world: Arc<World>, rank: usize, group: Arc<Vec<usize>>) -> Self {
        Comm {
            group,
            group_rank: rank,
            comm_id: 0,
            split_seq: 0,
            world,
        }
    }

    /// This rank within this communicator (`0..size`).
    pub fn rank(&self) -> usize {
        self.group_rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// This rank in the world communicator.
    pub fn world_rank(&self) -> usize {
        self.group[self.group_rank]
    }

    /// The cost model the run is charged under.
    pub fn model(&self) -> CostModel {
        self.world.model
    }

    fn with_ledger<R>(&self, f: impl FnOnce(&mut RankLedger) -> R) -> R {
        f(&mut self.world.event.slots[self.world_rank()].lock().ledger)
    }

    pub(crate) fn with_cost<R>(&self, f: impl FnOnce(&mut RankCost, &CostModel) -> R) -> R {
        let model = self.world.model;
        self.with_ledger(|l| l.apply(&model, f))
    }

    pub(crate) fn trace(&self, kind: EventKind, peer: usize, amount: u64) {
        if self.world.traces.is_some() {
            self.with_ledger(|l| self.trace_at(l, kind, peer, amount));
        }
    }

    /// [`trace`](Comm::trace) for a caller that holds this rank's slot.
    fn trace_at(&self, ledger: &RankLedger, kind: EventKind, peer: usize, amount: u64) {
        if let Some(traces) = &self.world.traces {
            traces[self.world_rank()].lock().push(Event {
                kind,
                peer,
                amount,
                clock: ledger.total.clock,
                phase: ledger.active_phase(),
            });
        }
    }

    /// Charge `n` flops to this rank.
    pub fn add_flops(&self, n: u64) {
        self.with_cost(|c, m| c.on_flops(n, m));
        self.trace(EventKind::Flops, usize::MAX, n);
    }

    /// Record `w` words of transient buffer space (memory footprint probe).
    pub fn note_buffer(&self, w: usize) {
        self.with_ledger(|l| l.note_buffer(w));
    }

    /// Charge `clock` model-time units of pure waiting to this rank,
    /// attributed to the current phase. No words, messages, or flops move
    /// — this is how recovery drivers pay for backoff delays and timeout
    /// windows on the simulated clock.
    pub fn sleep(&self, clock: f64) {
        assert!(clock >= 0.0, "sleep clock must be non-negative");
        self.with_cost(|c, _| c.clock += clock);
    }

    /// World ranks of this communicator's group that the fault plan has
    /// crashed so far, as *group* ranks, sorted. Read from the world's
    /// crash registry — the simulation's stand-in for the out-of-band
    /// failure detector a real runtime (e.g. ULFM) queries.
    pub(crate) fn crashed_in_group(&self) -> Vec<usize> {
        let crashed = self.world.crashed.lock().clone();
        let mut group_ranks: Vec<usize> = crashed
            .iter()
            .filter_map(|w| self.group.iter().position(|g| g == w))
            .collect();
        group_ranks.sort_unstable();
        group_ranks.dedup();
        group_ranks
    }

    /// Whether the world has aborted (some rank failed): survivors must
    /// not touch the network once this is set.
    pub(crate) fn world_aborted(&self) -> bool {
        self.world.aborted.load(Ordering::SeqCst)
    }

    /// Open a named phase on this *rank*: until the matching
    /// [`pop_phase`](Comm::pop_phase), every cost delta and traced event
    /// charged by this rank — on this communicator or any communicator
    /// derived from the same world — is attributed to `name`. Phases nest;
    /// deltas go to the innermost one. Prefer the RAII form
    /// [`Comm::phase`].
    pub(crate) fn push_phase(&self, name: &'static str) {
        self.with_ledger(|l| l.push(name));
    }

    /// Close the innermost phase opened by [`push_phase`](Comm::push_phase).
    ///
    /// Panics if no phase is open (unbalanced pop).
    pub(crate) fn pop_phase(&self) {
        self.with_ledger(|l| l.pop());
    }

    /// Open phase `name` for the lifetime of the returned guard.
    ///
    /// ```
    /// # use syrk_machine::Machine;
    /// # Machine::new(1).try_run(|comm| {
    /// let _span = comm.phase("local-syrk");
    /// comm.add_flops(100); // attributed to "local-syrk"
    /// # Ok(())
    /// # }).unwrap();
    /// ```
    pub fn phase(&self, name: &'static str) -> PhaseScope<'_> {
        self.push_phase(name);
        PhaseScope { comm: self }
    }

    /// Collectives call this to self-report under a `coll:*` name when the
    /// caller has not opened a phase of its own; inside a user phase the
    /// guard is `None` and the user's attribution stands.
    pub(crate) fn collective_phase(&self, name: &'static str) -> Option<PhaseScope<'_>> {
        if self.with_ledger(|l| l.is_idle()) {
            Some(self.phase(name))
        } else {
            None
        }
    }

    /// Whether the installed fault plan perturbs messages (checksums and
    /// sequence screening are only paid for when it does).
    fn faults_active(&self) -> bool {
        self.world
            .faults
            .as_ref()
            .is_some_and(|p| p.perturbs_messages())
    }

    /// Charge one communication operation against the fault plan's
    /// crash schedule for this rank.
    fn fault_op_check(&self) -> Result<(), MachineError> {
        let Some(plan) = &self.world.faults else {
            return Ok(());
        };
        if !plan.perturbs_ranks() {
            return Ok(());
        }
        let me = self.world_rank();
        let op = self.world.ops[me].fetch_add(1, Ordering::Relaxed) + 1;
        if plan.crash_at(me, op) {
            crate::fault::note_crash();
            self.world.crashed.lock().push(me);
            let e = MachineError::RankCrashed {
                rank: me,
                after_ops: op - 1,
            };
            self.world.record_error(me, e.clone());
            return Err(e);
        }
        Ok(())
    }

    /// Charge a fault-handling receive (or retransmit) under `phase` to
    /// this rank's `ledger`, metering it on the telemetry registry
    /// (`syrk_retry_*_handled`).
    fn charge_retry(
        &self,
        ledger: &mut RankLedger,
        phase: &'static str,
        kind: EventKind,
        peer: usize,
        amount: u64,
        f: impl FnOnce(&mut RankCost, &CostModel),
    ) {
        crate::fault::note_retry(phase);
        ledger.push(phase);
        ledger.apply(&self.world.model, f);
        // Traced while the retry phase is still open, so the slice in the
        // exported timeline is named `retry:*` and a viewer can see which
        // transmissions were fault repair rather than algorithm traffic.
        self.trace_at(ledger, kind, peer, amount);
        ledger.pop();
    }

    /// The single dispatch path every transmission goes through: assigns
    /// the per-link sequence number, applies the fault plan (dropped
    /// attempts are retransmitted and charged to `retry:drop`; corrupted
    /// and duplicated copies are delivered around the real one), and
    /// charges the real attempt in the caller's phase. `charge_send` is
    /// false for the exchange path (charged as one duplex step at match
    /// time) and for zero-cost metadata. `exempt` messages ([`Comm::split`]
    /// bookkeeping) still carry sequence numbers, but they never fault and
    /// are not operations of the crash schedule, so an exempt
    /// dispatch cannot fail.
    fn dispatch<T: Payload>(
        &self,
        dst: usize,
        tag: (u64, u64),
        payload: T,
        charge_send: bool,
        exempt: bool,
    ) -> Result<(), MachineError> {
        if !exempt {
            self.fault_op_check()?;
        }
        let dst_world = self.group[dst];
        let me = self.world_rank();
        let words = payload.words();
        let active = self.faults_active();
        let (seq, checksum) = if active {
            let mut slot = self.world.event.slots[me].lock();
            let s = slot.tx_seq[dst_world];
            slot.tx_seq[dst_world] += 1;
            (s, payload.checksum())
        } else {
            (0, 0)
        };
        let mf = if active && !exempt {
            let mf = self
                .world
                .faults
                .as_ref()
                .expect("faults_active implies a plan")
                .decide(me, dst_world, seq);
            crate::fault::note_injected(&mf);
            mf
        } else {
            MessageFaults::default()
        };
        // Retransmits: each lost attempt costs a full message on the
        // sender but never reaches the wire.
        for _ in 0..mf.drops {
            self.with_ledger(|l| {
                let resend = |c: &mut RankCost, m: &CostModel| c.on_send(words, m);
                let (kind, amount) = (EventKind::Send, words as u64);
                self.charge_retry(l, RETRY_DROP_PHASE, kind, dst_world, amount, resend)
            });
        }
        if mf.corrupt {
            // The garbled copy arrives first and fails the checksum; the
            // retransmission below is the one the receiver consumes.
            let ready = self.with_ledger(|l| l.total.clock);
            self.world.event.deliver(
                dst_world,
                Envelope {
                    src: me,
                    tag,
                    words,
                    sender_ready: ready,
                    seq,
                    checksum,
                    wire_checksum: checksum ^ 0xbad_c0de,
                    payload: Garbled::wire(),
                },
            );
        }
        let sender_ready = if charge_send {
            self.with_cost(|c, m| {
                let ready = c.clock;
                c.on_send(words, m);
                ready
            })
        } else {
            self.with_ledger(|l| l.total.clock)
        };
        self.world.event.deliver(
            dst_world,
            Envelope {
                src: me,
                tag,
                words,
                sender_ready: sender_ready + mf.delay,
                seq,
                checksum,
                wire_checksum: checksum,
                payload: payload.into_wire(),
            },
        );
        if mf.duplicate {
            // A stale second copy with the same sequence number; the
            // receiver detects and discards it.
            self.world.event.deliver(
                dst_world,
                Envelope {
                    src: me,
                    tag,
                    words,
                    sender_ready: sender_ready + mf.delay,
                    seq,
                    checksum,
                    wire_checksum: checksum,
                    payload: Garbled::wire(),
                },
            );
        }
        Ok(())
    }

    /// Receive-side fault screening, applied to every envelope pulled off
    /// the inbox *before* tag matching: a checksum mismatch is a
    /// corrupted delivery, a sequence number below the link cursor is a
    /// duplicate. Both are discarded, with the wasted receive charged to
    /// the matching `retry:*` phase of the receiver's `slot`.
    fn screen(&self, slot: &mut RankSlot, env: Envelope) -> Option<Envelope> {
        if !self.faults_active() {
            return Some(env);
        }
        let phase = if env.wire_checksum != env.checksum {
            RETRY_CORRUPT_PHASE
        } else if env.seq < slot.rx_next[env.src] {
            RETRY_DUP_PHASE
        } else {
            slot.rx_next[env.src] = env.seq + 1;
            return Some(env);
        };
        let wasted = |c: &mut RankCost, m: &CostModel| c.on_recv(env.words, env.sender_ready, m);
        let (kind, amount) = (EventKind::Recv, env.words as u64);
        self.charge_retry(&mut slot.ledger, phase, kind, env.src, amount, wasted);
        None
    }

    /// The single blocking matching loop every receive goes through, under
    /// this rank's own slot lock: take the match out of `pending` if an
    /// earlier receive already screened it; otherwise pop the inbox from
    /// the front, screening each envelope for injected faults and
    /// buffering the ones nobody asked for yet in `pending`, until the
    /// match turns up; when the inbox runs dry, park in that same critical
    /// section, drop the lock, yield to the scheduler and retake it. No
    /// timeouts — a deadlock is detected exactly by the scheduler (empty
    /// ready heap, live ranks), which records the error and wakes everyone
    /// to observe the abort.
    ///
    /// Envelopes are screened one at a time in arrival order and only up
    /// to the match — what lies behind it stays in the inbox, unscreened,
    /// for the next receive — so which `retry:*` phase a discarded copy is
    /// charged to, and at what clock, does not depend on how many arrived
    /// while the rank was away.
    ///
    /// What the rank waits for goes into its slot only when it parks; a
    /// receive that finds its message already delivered publishes
    /// nothing. The scheduler reads `parked` for two things: `deliver`
    /// wakes the rank for exactly that `(src, tag)`, and the deadlock
    /// snapshot turns it into the rank's wait-for edge.
    fn recv_env(
        &self,
        src_world: usize,
        tag: (u64, u64),
        op: &'static str,
    ) -> Result<Envelope, MachineError> {
        let me = self.world_rank();
        let world = &*self.world;
        let mut slot = world.event.slots[me].lock();
        if let Some(env) = slot.pending.take(src_world, tag) {
            return Ok(env);
        }
        // Wall-clock span covering the whole blocked receive (recorded on
        // every exit path by the guard — including the deadlock one, so a
        // failure dump shows how long each rank really sat blocked).
        let _recv_span = RecvSpan::begin(src_world);
        loop {
            while let Some(env) = slot.inbox.pop_front() {
                let Some(env) = self.screen(&mut slot, env) else {
                    continue;
                };
                if env.matches(src_world, tag) {
                    return Ok(env);
                }
                slot.pending.push(env);
            }
            if world.poisoned.load(Ordering::Relaxed) {
                return Err(MachineError::PeerFailed { rank: me });
            }
            if world.aborted.load(Ordering::SeqCst) {
                // A crash is not anonymized into `PeerFailed`: survivors
                // need the crashed rank's identity to agree on failures
                // and shrink the world around it, so the run's first error
                // propagates.
                return Err(match world.first_error.lock().as_ref() {
                    Some((_, e @ MachineError::RankCrashed { .. })) => e.clone(),
                    _ => MachineError::PeerFailed { rank: me },
                });
            }
            slot.parked = Some((src_world, tag, op));
            drop(slot);
            crate::context::yield_now();
            slot = world.event.slots[me].lock();
        }
    }

    /// Send `payload` to group rank `dst` with `tag`. Blocking-send
    /// semantics are simulated for cost purposes only; the transport is
    /// buffered, so a send never deadlocks. Fails when the fault plan
    /// crashes this rank.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_send<T: Payload>(
        &self,
        dst: usize,
        tag: u64,
        payload: T,
    ) -> Result<(), MachineError> {
        assert!(
            dst < self.size(),
            "send: dst {dst} out of range for size {}",
            self.size()
        );
        let words = payload.words() as u64;
        self.dispatch(dst, (self.comm_id, tag), payload, true, false)?;
        self.trace(EventKind::Send, self.group[dst], words);
        Ok(())
    }

    /// Receive a `T` from group rank `src` with `tag`. A peer failure, an
    /// injected crash, a deadlock (diagnosed, not hung on) or a matching
    /// message that does not hold a `T` is a [`MachineError`].
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_recv<T: Payload>(&self, src: usize, tag: u64) -> Result<T, MachineError> {
        assert!(
            src < self.size(),
            "recv: src {src} out of range for size {}",
            self.size()
        );
        self.fault_op_check()?;
        let src_world = self.group[src];
        let env = self.recv_env(src_world, (self.comm_id, tag), "recv")?;
        self.with_cost(|c, m| c.on_recv(env.words, env.sender_ready, m));
        self.trace(EventKind::Recv, src_world, env.words as u64);
        T::from_wire(env.payload).ok_or(MachineError::TypeMismatch {
            rank: self.rank(),
            src,
            tag,
        })
    }

    /// Simultaneously send `out` to `dst` and receive a `U` from `src`
    /// (both group ranks). Under the bidirectional-link assumption of §3.2
    /// the step is charged once at `α + β·max(w_out, w_in)`, which is what
    /// makes pairwise-exchange collectives cost `(1 − 1/P)·w`.
    #[must_use = "the Result carries transport failures that must be handled"]
    pub fn try_exchange<T: Payload, U: Payload>(
        &self,
        dst: usize,
        out: T,
        src: usize,
        tag: u64,
    ) -> Result<U, MachineError> {
        assert!(dst < self.size() && src < self.size());
        let w_out = out.words();
        // Dispatch without advancing the clock: the exchange is charged as
        // one duplex step when the inbound message is matched below.
        self.dispatch(dst, (self.comm_id, tag), out, false, false)?;
        let env = self.recv_env(self.group[src], (self.comm_id, tag), "exchange")?;
        self.with_cost(|c, m| c.on_exchange(w_out, env.words, env.sender_ready, m));
        self.trace(
            EventKind::Exchange,
            self.group[dst],
            w_out.max(env.words) as u64,
        );
        U::from_wire(env.payload).ok_or(MachineError::TypeMismatch {
            rank: self.rank(),
            src,
            tag,
        })
    }

    /// Collectively split this communicator into disjoint sub-communicators.
    ///
    /// All members of `self` must call `split` together (it is collective in
    /// the SPMD sense — same call sequence on every rank). Ranks passing the
    /// same `color` end up in the same child communicator, ordered by
    /// `key` (ties broken by parent rank). Mirrors `MPI_Comm_split`.
    ///
    /// Membership is bookkeeping, not algorithm communication: group rank 0
    /// gathers every member's `(color, key)`, sorts once, and sends each
    /// member its child group — one `Arc` shared by the whole color — and
    /// its position in it. That is `2(P − 1)` envelopes and `O(P log P)`
    /// work at the root. The envelopes charge nothing on any ledger, are
    /// never faulted, are not operations of a crash schedule (see
    /// [`FaultPlan::crash_rank`]) and leave no trace event. A member that
    /// never calls `split` is diagnosed as a [`MachineError::Deadlock`]
    /// whose wait-for edges carry op `"split"`.
    ///
    /// Panics if the run fails while this rank waits for the membership.
    pub fn split(&mut self, color: u64, key: usize) -> Comm {
        self.split_seq += 1;
        let tag = (
            self.comm_id,
            mix64(self.comm_id ^ self.split_seq.wrapping_mul(0x51ab_3c47)),
        );
        let membership = if self.group_rank == 0 {
            self.split_root(tag, color, key)
        } else {
            let request = SplitRequest { color, key };
            self.dispatch(0, tag, request, false, true)
                .and_then(|()| self.recv_env(self.group[0], tag, "split"))
                .map(|env| {
                    let reply = SplitReply::from_wire(env.payload);
                    reply.expect("split replies are SplitReply")
                })
        };
        let SplitReply { group, rank } = membership.unwrap_or_else(|e| panic!("{e}"));
        let comm_id = mix64(self.comm_id ^ mix64(self.split_seq) ^ mix64(color.wrapping_add(1)));
        Comm {
            world: Arc::clone(&self.world),
            group,
            group_rank: rank,
            comm_id,
            split_seq: 0,
        }
    }

    /// A second handle on this communicator: the same members and the
    /// same context, so a message sent on one is received on the other.
    /// Splitting both would hand their children the same contexts.
    pub(crate) fn handle(&self) -> Comm {
        Comm {
            world: Arc::clone(&self.world),
            group: Arc::clone(&self.group),
            group_rank: self.group_rank,
            comm_id: self.comm_id,
            split_seq: self.split_seq,
        }
    }

    /// This rank alone, as a communicator of one: what a
    /// [`split`](Comm::split) hands a color no other member chose, built
    /// without a message. Like a split it takes the next context of this
    /// communicator's sequence.
    pub(crate) fn alone(&mut self) -> Comm {
        self.split_seq += 1;
        let comm_id = mix64(self.comm_id ^ mix64(self.split_seq) ^ mix64(u64::MAX));
        Comm {
            world: Arc::clone(&self.world),
            group: Arc::new(vec![self.world_rank()]),
            group_rank: 0,
            comm_id,
            split_seq: 0,
        }
    }

    /// Group rank 0's side of [`split`](Comm::split): collect the other
    /// members' requests, last member first (when the root resumes, the
    /// earlier ones have usually arrived too, so it parks about once), and
    /// answer each with its share of the sorted membership.
    fn split_root(
        &self,
        tag: (u64, u64),
        color: u64,
        key: usize,
    ) -> Result<SplitReply, MachineError> {
        let mut members = Vec::with_capacity(self.size());
        members.push((color, key, 0));
        for src in (1..self.size()).rev() {
            let env = self.recv_env(self.group[src], tag, "split")?;
            let req =
                SplitRequest::from_wire(env.payload).expect("split requests are SplitRequest");
            members.push((req.color, req.key, src));
        }
        // Parent ranks are distinct, so the order is total.
        members.sort_unstable();
        let mut mine = None;
        for run in members.chunk_by(|x, y| x.0 == y.0) {
            let group = Arc::new(run.iter().map(|&(_, _, pr)| self.group[pr]).collect());
            for (rank, &(_, _, pr)) in run.iter().enumerate() {
                let reply = SplitReply {
                    group: Arc::clone(&group),
                    rank,
                };
                if pr == 0 {
                    mine = Some(reply);
                } else {
                    self.dispatch(pr, tag, reply, false, true)?;
                }
            }
        }
        Ok(mine.expect("the root is a member of its own color"))
    }
}

/// A member's `(color, key)`, sent to the root of a [`Comm::split`].
struct SplitRequest {
    color: u64,
    key: usize,
}

/// The root's answer to a [`SplitRequest`]: the child group's world ranks,
/// shared by every member of the color, and the receiver's position in it.
struct SplitReply {
    group: Arc<Vec<usize>>,
    rank: usize,
}

/// Split bookkeeping rides the network for its ordering and deadlock
/// diagnosis only: it occupies no words.
impl Payload for SplitRequest {
    fn words(&self) -> usize {
        0
    }
}

impl Payload for SplitReply {
    fn words(&self) -> usize {
        0
    }
}

/// RAII guard for a phase opened with [`Comm::phase`]; pops on drop.
#[must_use = "the phase pops when the guard drops"]
pub struct PhaseScope<'a> {
    comm: &'a Comm,
}

impl Drop for PhaseScope<'_> {
    fn drop(&mut self) {
        self.comm.pop_phase();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::cost::UNTAGGED_PHASE;
    use crate::error::MachineError;
    use crate::machine::Machine;

    #[test]
    fn send_recv_roundtrip() {
        let out = Machine::new(2)
            .try_run(|comm| {
                if comm.rank() == 0 {
                    comm.try_send(1, 7, vec![1.0f64, 2.0, 3.0])?;
                    Ok(0.0)
                } else {
                    let v: Vec<f64> = comm.try_recv(0, 7)?;
                    Ok(v.iter().sum())
                }
            })
            .unwrap();
        assert_eq!(out.results[1], 6.0);
        assert_eq!(out.cost.ranks[0].words_sent, 3);
        assert_eq!(out.cost.ranks[1].words_recv, 3);
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let out = Machine::new(2)
            .try_run(|comm| {
                if comm.rank() == 0 {
                    comm.try_send(1, 1, vec![10.0f64])?;
                    comm.try_send(1, 2, vec![20.0f64])?;
                    Ok(0.0)
                } else {
                    // Receive in the opposite order of sending.
                    let b: Vec<f64> = comm.try_recv(0, 2)?;
                    let a: Vec<f64> = comm.try_recv(0, 1)?;
                    Ok(a[0] - b[0])
                }
            })
            .unwrap();
        assert_eq!(out.results[1], -10.0);
    }

    #[test]
    fn exchange_is_duplex_charged() {
        let out = Machine::new(2)
            .try_run(|comm| {
                let partner = 1 - comm.rank();
                let mine = vec![comm.rank() as f64; 5];
                let theirs: Vec<f64> = comm.try_exchange(partner, mine, partner, 3)?;
                Ok(theirs[0])
            })
            .unwrap();
        assert_eq!(out.results[0], 1.0);
        assert_eq!(out.results[1], 0.0);
        // One duplex step: each rank sent 5 and received 5 words but the
        // clock advanced by a single message cost (β·5 under bandwidth-only).
        assert_eq!(out.cost.ranks[0].words_sent, 5);
        assert_eq!(out.cost.ranks[0].words_recv, 5);
        assert!((out.cost.ranks[0].clock - 5.0).abs() < 1e-12);
    }

    #[test]
    fn split_creates_disjoint_groups() {
        let out = Machine::new(6)
            .try_run(|mut comm| {
                let color = (comm.rank() % 2) as u64;
                let sub = comm.split(color, comm.rank());
                // Even ranks {0,2,4} form one comm, odd ranks {1,3,5} another.
                assert_eq!(sub.size(), 3);
                // Exchange ranks within the subgroup to prove isolation.
                let next = (sub.rank() + 1) % sub.size();
                let prev = (sub.rank() + sub.size() - 1) % sub.size();
                sub.try_send(next, 9, vec![comm.rank() as f64])?;
                let v: Vec<f64> = sub.try_recv(prev, 9)?;
                Ok(v[0])
            })
            .unwrap();
        // rank 2's predecessor in the even group is rank 0, etc.
        assert_eq!(out.results[2], 0.0);
        assert_eq!(out.results[4], 2.0);
        assert_eq!(out.results[0], 4.0);
        assert_eq!(out.results[3], 1.0);
    }

    #[test]
    fn split_respects_key_ordering() {
        let out = Machine::new(4)
            .try_run(|mut comm| {
                // Reverse the ordering via key.
                let sub = comm.split(0, 100 - comm.rank());
                Ok(sub.rank())
            })
            .unwrap();
        assert_eq!(out.results, vec![3, 2, 1, 0]);
    }

    #[test]
    fn flops_are_charged() {
        let out = Machine::new(3)
            .try_run(|comm| {
                comm.add_flops(10 * (comm.rank() as u64 + 1));
                Ok(())
            })
            .unwrap();
        assert_eq!(out.cost.total_flops(), 60);
        assert_eq!(out.cost.max_flops(), 30);
    }

    #[test]
    fn phases_attribute_deltas_and_events() {
        let out = Machine::new(2)
            .with_tracing()
            .try_run(|comm| {
                let partner = 1 - comm.rank();
                {
                    let _span = comm.phase("ring");
                    comm.try_send(partner, 1, vec![1.0f64; 4])?;
                    let _: Vec<f64> = comm.try_recv(partner, 1)?;
                }
                assert_eq!(comm.with_ledger(|l| l.active_phase()), None);
                comm.add_flops(50);
                Ok(())
            })
            .unwrap();
        for r in 0..2 {
            let ring = out.cost.phase_cost(r, "ring").unwrap();
            assert_eq!(ring.words_sent, 4);
            assert_eq!(ring.words_recv, 4);
            assert_eq!(ring.flops, 0);
            let untagged = out.cost.phase_cost(r, UNTAGGED_PHASE).unwrap();
            assert_eq!(untagged.flops, 50);
            assert_eq!(untagged.words_sent, 0);
        }
        // Events carry the phase active when they were recorded.
        let traces = out.traces.unwrap();
        for t in &traces {
            assert!(t
                .iter()
                .all(|e| (e.kind == crate::trace::EventKind::Flops) == (e.phase.is_none())));
        }
        assert_eq!(out.cost.phase_max_words_sent("ring"), 4);
    }

    #[test]
    fn phases_survive_split() {
        let out = Machine::new(4)
            .try_run(|mut comm| {
                comm.push_phase("sub");
                let sub = comm.split((comm.rank() % 2) as u64, comm.rank());
                let partner = 1 - sub.rank();
                sub.try_send(partner, 5, vec![0.0f64; 3])?;
                let _: Vec<f64> = sub.try_recv(partner, 5)?;
                comm.pop_phase();
                Ok(())
            })
            .unwrap();
        for r in 0..4 {
            let c = out.cost.phase_cost(r, "sub").unwrap();
            assert_eq!(c.words_sent, 3);
        }
    }

    #[test]
    #[should_panic(expected = "pop_phase without a matching push_phase")]
    fn unbalanced_pop_panics() {
        // The rank's panic is the run's typed first error; its message is
        // raised here.
        let err = Machine::new(1)
            .try_run(|comm| {
                comm.pop_phase();
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, MachineError::RankPanicked { rank: 0, .. }));
        panic!("{err}");
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        // A payload of the wrong type is a typed error, not a rank panic;
        // its message is raised here.
        let err = Machine::new(2)
            .try_run(|comm| {
                if comm.rank() == 0 {
                    comm.try_send(1, 0, vec![1.0f64])?;
                } else {
                    let _: Vec<u64> = comm.try_recv(0, 0)?;
                }
                Ok(())
            })
            .unwrap_err();
        let want = MachineError::TypeMismatch {
            rank: 1,
            src: 0,
            tag: 0,
        };
        assert_eq!(err, want);
        panic!("{err}");
    }

    #[test]
    fn shared_payload_roundtrips_and_never_converts() {
        let words = [3.0f64, 4.0, 5.0];
        let out = Machine::new(2)
            .try_run(move |comm| {
                if comm.rank() == 0 {
                    comm.try_send(1, 1, Arc::<[f64]>::from(&words[..]))?;
                    Ok(0.0)
                } else {
                    let v: Arc<[f64]> = comm.try_recv(0, 1)?;
                    Ok(v.iter().sum())
                }
            })
            .unwrap();
        assert_eq!(out.results[1], 12.0);
        assert_eq!(out.cost.ranks[0].words_sent, 3);
        assert_eq!(out.cost.ranks[1].words_recv, 3);

        // A shared send received as owned words, and the reverse: a typed
        // error on the receiver, never a silent copy.
        for shared_send in [true, false] {
            let err = Machine::new(2)
                .try_run(move |comm| {
                    match (comm.rank(), shared_send) {
                        (0, true) => comm.try_send(1, 2, Arc::<[f64]>::from(&words[..]))?,
                        (0, false) => comm.try_send(1, 2, words.to_vec())?,
                        (_, true) => drop(comm.try_recv::<Vec<f64>>(0, 2)?),
                        (_, false) => drop(comm.try_recv::<Arc<[f64]>>(0, 2)?),
                    }
                    Ok(())
                })
                .unwrap_err();
            let want = MachineError::TypeMismatch {
                rank: 1,
                src: 0,
                tag: 2,
            };
            assert_eq!(err, want, "shared send: {shared_send}");
        }
    }
}
