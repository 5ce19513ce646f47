//! Wall-clock flight recorder: bounded per-thread rings of timestamped
//! spans.
//!
//! The recorder is compiled in everywhere but costs one relaxed atomic
//! load per site while disabled. When [`enable`]d, each recording thread
//! lazily registers a bounded ring buffer (capacity 4096 events; oldest
//! events are evicted and counted, never blocking the writer). Spans are paired at record time — the caller
//! reads [`now_ns`] before and after the region — so an event is a single
//! fixed-size struct and rendering never has to match begin/end pairs.
//!
//! Rings live in `Arc`s held by a global list, so a recording survives
//! the scoped worker threads that produced it: [`collect`] merges every
//! ring ever registered, sorted by start time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events kept per thread before the oldest is evicted. 4096 events at
/// 40 bytes each bounds a ring at ~160 KiB; a 512×512 SYRK on 8 workers
/// records a few hundred events per worker, so eviction only bites on
/// long-running processes — where the newest events are the useful ones.
pub(crate) const RING_CAPACITY: usize = 4096;

/// What a recorded span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightKind {
    /// A kernel-runtime task executing (arg = chunk index).
    Task,
    /// Packing and publishing a shared panel (arg = block index).
    PackPublish,
    /// Spinning for another worker's panel publication (arg = block index).
    PackWait,
    /// Blocked in a receive loop (arg = source rank).
    RecvBlock,
}

impl FlightKind {
    /// Stable display name (used as the Chrome-trace slice name).
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Task => "task",
            FlightKind::PackPublish => "pack:publish",
            FlightKind::PackWait => "pack:wait",
            FlightKind::RecvBlock => "recv:block",
        }
    }
}

/// One recorded span. `start_ns`/`end_ns` are nanoseconds since the
/// process's recording epoch (first [`now_ns`] call); instant events have
/// `start_ns == end_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Recorder-assigned thread id (dense worker ids and machine ranks
    /// each map to distinct tids in registration order).
    pub tid: u64,
    /// What was measured.
    pub kind: FlightKind,
    /// Span start, ns since the recording epoch.
    pub start_ns: u64,
    /// Span end, ns since the recording epoch.
    pub end_ns: u64,
    /// Kind-specific payload (chunk index, block, rank).
    pub arg: u64,
}

struct Ring {
    tid: u64,
    events: Mutex<VecDeque<FlightEvent>>,
    dropped: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL_RING: Arc<Ring> = {
        let ring = Arc::new(Ring {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(VecDeque::with_capacity(64)),
            dropped: AtomicU64::new(0),
        });
        rings().lock().unwrap_or_else(|e| e.into_inner()).push(ring.clone());
        ring
    };
}

/// Start recording. Idempotent; affects every thread.
pub fn enable() {
    epoch(); // pin the epoch before the first event
    ENABLED.store(true, Ordering::Release);
}

/// Stop recording (already-recorded events are kept until [`clear`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether spans are currently being recorded. Call sites gate their
/// `now_ns` reads on this; it is the entire disabled-path cost.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Nanoseconds since the recording epoch (saturated to `u64`).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Record a span on the calling thread's ring. No-op while disabled.
#[inline]
pub fn record(kind: FlightKind, start_ns: u64, end_ns: u64, arg: u64) {
    if !is_enabled() {
        return;
    }
    LOCAL_RING.with(|ring| {
        let ev = FlightEvent {
            tid: ring.tid,
            kind,
            start_ns,
            end_ns,
            arg,
        };
        let mut q = ring.events.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= RING_CAPACITY {
            q.pop_front();
            ring.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(ev);
    });
}

/// A merged capture of every ring: all surviving events sorted by start
/// time, plus how many were evicted to stay within a ring's capacity.
#[derive(Debug, Clone, Default)]
pub struct FlightRecording {
    /// Surviving events, sorted by `(start_ns, tid)`.
    pub events: Vec<FlightEvent>,
    /// Events evicted from full rings (0 means the capture is complete).
    pub dropped: u64,
}

impl FlightRecording {
    /// Whether nothing was recorded (and nothing evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Number of surviving events of `kind`.
    pub fn count(&self, kind: FlightKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

/// Merge every ring (including rings of threads that have exited) into
/// one recording.
pub fn collect() -> FlightRecording {
    let rings = rings().lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in rings.iter() {
        dropped += ring.dropped.load(Ordering::Relaxed);
        let q = ring.events.lock().unwrap_or_else(|e| e.into_inner());
        events.extend(q.iter().copied());
    }
    drop(rings);
    events.sort_by_key(|e| (e.start_ns, e.tid));
    FlightRecording { events, dropped }
}

/// Discard all recorded events and eviction counts (rings stay
/// registered). Use between runs to scope a recording to one region.
pub fn clear() {
    let rings = rings().lock().unwrap_or_else(|e| e.into_inner());
    for ring in rings.iter() {
        ring.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        ring.dropped.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global state, so these tests share one
    // `#[test]` to avoid cross-test interference under the parallel
    // harness.
    #[test]
    fn record_collect_clear_roundtrip() {
        // Disabled recorder records nothing.
        // A zero-length span is an instant: `start == end`.
        let instant = |i| {
            let t = now_ns();
            record(FlightKind::PackWait, t, t, i);
        };
        disable();
        clear();
        instant(1);
        assert!(collect().is_empty());

        // Enabled recorder captures spans from multiple threads.
        enable();
        let t0 = now_ns();
        instant(7);
        record(FlightKind::Task, t0, now_ns(), 3);
        std::thread::spawn(|| {
            let s = now_ns();
            record(FlightKind::PackPublish, s, now_ns(), 9);
        })
        .join()
        .unwrap();
        let rec = collect();
        assert_eq!(rec.count(FlightKind::PackWait), 1);
        assert_eq!(rec.count(FlightKind::Task), 1);
        assert_eq!(rec.count(FlightKind::PackPublish), 1);
        assert_eq!(rec.dropped, 0);
        // Events from the dead thread survive; tids differ.
        let publish = rec
            .events
            .iter()
            .find(|e| e.kind == FlightKind::PackPublish)
            .unwrap();
        let task = rec
            .events
            .iter()
            .find(|e| e.kind == FlightKind::Task)
            .unwrap();
        assert_ne!(publish.tid, task.tid);
        assert_eq!(task.arg, 3);
        assert!(task.end_ns >= task.start_ns);
        // Sorted by start time.
        assert!(rec
            .events
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));

        // Ring is bounded: overflow evicts oldest and counts drops.
        clear();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            instant(i);
        }
        let rec = collect();
        assert_eq!(rec.events.len(), RING_CAPACITY);
        assert_eq!(rec.dropped, 10);
        // Oldest were evicted: the smallest surviving arg is 10.
        assert_eq!(rec.events.iter().map(|e| e.arg).min(), Some(10));

        disable();
        clear();
        assert!(collect().is_empty());
    }
}
