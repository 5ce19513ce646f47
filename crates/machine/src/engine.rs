//! The discrete-event scheduler: a single loop that advances the ranks
//! in deterministic α-β-γ clock order.
//!
//! Every rank's SPMD closure runs as a suspendable context (see
//! [`crate::context`]) driven by one event loop: a min-heap of runnable
//! ranks keyed by `(clock, rank)`. Each pop resumes one rank, which runs
//! until it blocks in a receive (registering itself in
//! [`EventState::blocked`] and yielding) or its closure returns. Sends
//! never block — delivery is a queue push into the destination's inbox —
//! and a send to a blocked destination moves it to the wake list, from
//! which the scheduler re-heaps it at its current clock. With the native
//! context backend a 10⁵-rank 2D SYRK run therefore fits in one process:
//! memory is bounded by the rank stacks plus in-flight envelopes, not by
//! OS threads.
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
//! returns. `tests/engine_equivalence.rs` pins the outcome.
//!
//! **Exact deadlock detection.** The scheduler *is* the global state: an
//! empty ready heap with live ranks means every live rank is blocked with
//! nothing in flight to wake it — that configuration is the deadlock,
//! detected exactly and immediately, with no timeout and no grace window.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::comm::World;
use crate::context::{Context, Status};
use crate::envelope::Envelope;
use crate::error::MachineError;
use crate::sync::Mutex;
use syrk_telemetry::LazyCounter;

static RESUMES: LazyCounter = LazyCounter::new("syrk_engine_resumes");
static WAKES: LazyCounter = LazyCounter::new("syrk_engine_wakes");
static EVENT_RUNS: LazyCounter = LazyCounter::new("syrk_engine_event_runs");

/// Per-run fabric state of the scheduler, owned by the [`World`].
///
/// The fields are behind mutexes/atomics so `World` is `Sync` (the
/// portable context backend runs each rank on a thread of its own);
/// exactly one rank runs at a time, so every lock is uncontended.
pub(crate) struct EventState {
    /// Per-rank incoming envelope queues. An inbox outlives its rank's
    /// closure, so delivery cannot fail.
    pub(crate) inboxes: Vec<Mutex<VecDeque<Envelope>>>,
    /// `blocked[r]` is set by rank `r` just before it yields out of a
    /// blocking receive, and cleared by whoever schedules it again.
    pub(crate) blocked: Vec<AtomicBool>,
    /// Ranks unblocked by a delivery since the scheduler last drained
    /// this list.
    pub(crate) woken: Mutex<Vec<usize>>,
}

impl EventState {
    pub(crate) fn new(p: usize) -> EventState {
        EventState {
            inboxes: (0..p).map(|_| Mutex::new(VecDeque::new())).collect(),
            blocked: (0..p).map(|_| AtomicBool::new(false)).collect(),
            woken: Mutex::new(Vec::new()),
        }
    }

    /// Deliver one envelope into `dst`'s inbox; if `dst` was parked in a
    /// blocking receive, move it to the wake list.
    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        self.inboxes[dst].lock().push_back(env);
        if self.blocked[dst].swap(false, Ordering::Relaxed) {
            WAKES.inc();
            self.woken.lock().push(dst);
        }
    }

    /// Park the calling rank: the scheduler will not resume it until a
    /// delivery (or the deadlock wake-all) unparks it.
    pub(crate) fn park(&self, rank: usize) {
        self.blocked[rank].store(true, Ordering::Relaxed);
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
/// blocked ranks are woken to observe the abort flag and unwind through
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
    while live > 0 {
        while let Some(Reverse((_, rank))) = heap.pop() {
            if coroutines[rank].is_done() {
                continue;
            }
            RESUMES.inc();
            if coroutines[rank].resume() == Status::Complete {
                live -= 1;
            }
            // Deliveries made during this resume may have unparked ranks;
            // re-heap them at their *current* clock so the next pop is
            // still the globally earliest rank.
            let woken = std::mem::take(&mut *ev.woken.lock());
            for w in woken {
                if !coroutines[w].is_done() {
                    let key = world.costs[w].lock().total.clock_key();
                    heap.push(Reverse((key, w)));
                }
            }
        }
        if live == 0 {
            break;
        }
        // No runnable rank, live ranks parked, nothing in flight: this
        // configuration *is* a deadlock (or the tail of an abort already
        // in progress). Declare it, then wake everyone so each blocked
        // receive observes the abort flag and completes its error path.
        declare_deadlock(world);
        for (r, co) in coroutines.iter().enumerate() {
            if !co.is_done() {
                ev.blocked[r].store(false, Ordering::Relaxed);
                let key = world.costs[r].lock().total.clock_key();
                heap.push(Reverse((key, r)));
            }
        }
    }
}
