//! The discrete-event scheduler: a single loop that advances the ranks
//! in deterministic α-β-γ clock order.
//!
//! Every rank's SPMD closure runs as a suspendable context (see
//! [`crate::context`]) driven by one event loop: a min-heap of runnable
//! ranks keyed by `(clock, rank)`. Each pop resumes one rank, which runs
//! until it blocks in a receive (recording what it waits for in its
//! [`RankSlot`] and yielding) or its closure returns. Sends never block —
//! delivery is a queue push into the destination's slot — and a send of
//! the very `(src, tag)` a parked destination waits for moves it to the
//! wake list, from which the scheduler re-heaps it at its current clock.
//! Anything else just queues: a parked rank is resumed once, for the
//! message it asked for, not once per arrival. With the native context
//! backend a 10⁵-rank 2D SYRK run therefore fits in one process: memory
//! is bounded by the touched pages of the rank stacks plus in-flight
//! envelopes, not by OS threads — 32 kB of peak resident set per rank on
//! the 2256-rank `sim_ranks` shape, payloads and the `C` assembly
//! included. A rank's whole side of the message path — ledger, inbox,
//! screened-but-unclaimed envelopes, link sequence counters, what it is
//! parked on — is its [`RankSlot`]: a send locks the destination's, a
//! receive its own, and nothing else is locked per message.
//!
//! **Determinism.** Exactly one of scheduler and rank runs at any moment,
//! on either context backend, and the loop's only ordering input is the
//! heap key `(clock.to_bits(), rank)` — `f64::to_bits` is
//! order-preserving for the non-negative clocks the cost model produces,
//! and ties break by rank. Given the same machine configuration the
//! resume order, and hence every rank's observed message order, is a pure
//! function of the run. Per-rank results are *also* independent of that
//! order: envelopes between a pair of ranks stay FIFO per link, and the
//! receive loop matches on `(src, tag)`, so cross-link interleaving only
//! changes which envelopes sit in `pending` — never what a receive
//! returns. (Under a fault plan the `retry:*` rows are the exception: a
//! discarded copy is charged where it stands in the arrival order.)
//! `tests/engine_equivalence.rs` pins the outcome.
//!
//! **Exact deadlock detection.** The scheduler *is* the global state: an
//! empty ready heap with live ranks means every live rank is parked with
//! nothing in flight that matches what it waits for — that configuration
//! is the deadlock, detected exactly and immediately, with no timeout and
//! no grace window. The wait-for graph is read straight off the slots.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::Ordering;

use crate::comm::{PendingQueue, World};
use crate::context::{Context, Status};
use crate::cost::RankLedger;
use crate::envelope::Envelope;
use crate::error::MachineError;
use crate::sync::Mutex;
use syrk_telemetry::LazyCounter;

static RESUMES: LazyCounter = LazyCounter::new("syrk_engine_resumes");
static WAKES: LazyCounter = LazyCounter::new("syrk_engine_wakes");
static EVENT_RUNS: LazyCounter = LazyCounter::new("syrk_engine_event_runs");

/// What a parked rank waits for: `(src world rank, tag, operation)`.
pub(crate) type Parked = (usize, (u64, u64), &'static str);

/// Everything the host keeps per simulated rank for the message path —
/// what the rank itself, its senders and the scheduler touch: one lock,
/// one cache neighbourhood per message.
#[derive(Default)]
pub(crate) struct RankSlot {
    /// Cost totals, phase stack and per-phase breakdown. `total.clock` is
    /// the scheduler's heap key.
    pub(crate) ledger: RankLedger,
    /// Envelopes delivered and not yet screened, in arrival order (send
    /// order per link). The slot outlives its rank's closure, so delivery
    /// cannot fail.
    pub(crate) inbox: VecDeque<Envelope>,
    /// Screened envelopes no receive has asked for yet.
    pub(crate) pending: PendingQueue,
    /// Per-link sequence counters: `tx_seq[d]` numbers the messages this
    /// rank sends to world rank `d`, `rx_next[s]` is the next number
    /// expected from world rank `s` (anything below it is a duplicate).
    /// Empty unless the fault plan perturbs messages — an unfaulted
    /// 10⁵-rank run must not pay O(P) per rank for screening it never
    /// does.
    pub(crate) tx_seq: Vec<u64>,
    pub(crate) rx_next: Vec<u64>,
    /// Set by the rank just before it yields out of a blocking receive;
    /// cleared by whoever schedules it again. While it is set the rank
    /// does not run, so its ledger — phase stack included — cannot move.
    pub(crate) parked: Option<Parked>,
}

/// Per-run fabric state of the scheduler, owned by the [`World`].
///
/// One mutex per rank and one for the wake list, so `World` is `Sync` (the
/// portable context backend runs each rank on a thread of its own);
/// exactly one rank runs at a time, so every lock is uncontended.
pub(crate) struct EventState {
    pub(crate) slots: Vec<Mutex<RankSlot>>,
    /// `(clock key, rank)` of the ranks unparked by a delivery since the
    /// scheduler last drained this list.
    woken: Mutex<Vec<(u64, usize)>>,
}

impl EventState {
    /// `links` is the length of every rank's sequence-counter tables: `p`
    /// when messages are screened, 0 otherwise.
    pub(crate) fn new(p: usize, links: usize) -> EventState {
        let slot = || RankSlot {
            tx_seq: vec![0; links],
            rx_next: vec![0; links],
            ..RankSlot::default()
        };
        EventState {
            slots: (0..p).map(|_| Mutex::new(slot())).collect(),
            woken: Mutex::new(Vec::new()),
        }
    }

    /// Deliver one envelope into `dst`'s inbox; if `dst` is parked on
    /// exactly this `(src, tag)`, move it to the wake list.
    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        let mut slot = self.slots[dst].lock();
        let wake = matches!(slot.parked, Some((src, tag, _)) if env.matches(src, tag));
        slot.inbox.push_back(env);
        if wake {
            slot.parked = None;
            let key = slot.ledger.total.clock_key();
            drop(slot);
            WAKES.inc();
            self.woken.lock().push((key, dst));
        }
    }
}

/// Declare the deadlock: raise the abort flag and record the wait-for
/// graph as the run's first error. A lost CAS means some rank already
/// failed — the stalled configuration is then an abort cascade, not a
/// deadlock, and the first error stands.
fn declare_deadlock(world: &World) {
    if world
        .aborted
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return;
    }
    let info = world.snapshot_deadlock();
    let reporter = info.edges.first().map(|e| e.from).unwrap_or(0);
    let mut slot = world.first_error.lock();
    if slot.is_none() {
        *slot = Some((reporter, MachineError::Deadlock(info)));
    }
}

/// Run every rank to completion in deterministic clock order.
///
/// Invariant on exit: all contexts are done — even under failures,
/// parked ranks are woken to observe the abort flag and unwind through
/// their own error paths. Callers rely on this to drop the contexts (and
/// the borrows captured in them) before touching the world again.
pub(crate) fn drive<C: Context>(world: &World, coroutines: &mut [C]) {
    EVENT_RUNS.inc();
    let ev = &world.event;
    let mut live = coroutines.len();
    // Min-heap on (clock bits, rank): non-negative clocks compare by bits,
    // ties resolve to the lowest rank. Every rank starts runnable at 0.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..coroutines.len()).map(|r| Reverse((0, r))).collect();
    // Swapped with the wake list after every resume, so neither side
    // allocates in steady state.
    let mut woken: Vec<(u64, usize)> = Vec::new();
    while live > 0 {
        while let Some(Reverse((_, rank))) = heap.pop() {
            RESUMES.inc();
            if coroutines[rank].resume() == Status::Complete {
                live -= 1;
            }
            // Deliveries made during this resume may have unparked ranks;
            // they re-enter the heap at the clock they parked with (a
            // parked rank's clock cannot move), so the next pop is still
            // the globally earliest rank.
            std::mem::swap(&mut woken, &mut *ev.woken.lock());
            heap.extend(woken.drain(..).map(Reverse));
        }
        if live == 0 {
            break;
        }
        // No runnable rank, live ranks parked, nothing in flight that any
        // of them waits for: this configuration *is* a deadlock (or the
        // tail of an abort already in progress). Declare it, then wake
        // everyone so each blocked receive observes the abort flag and
        // completes its error path.
        declare_deadlock(world);
        for (r, co) in coroutines.iter().enumerate() {
            if !co.is_done() {
                let mut slot = ev.slots[r].lock();
                slot.parked = None;
                heap.push(Reverse((slot.ledger.total.clock_key(), r)));
            }
        }
    }
}
