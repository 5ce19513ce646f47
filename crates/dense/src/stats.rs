//! Lightweight process-wide counters for the packed kernel engine.
//!
//! The distributed algorithms meter *communication* through the machine's
//! cost ledger; these counters meter the *local* engine underneath — how
//! many words the packing routines staged into micro-panels, how many
//! register-blocked microkernel tiles ran, how the workspace arena is
//! behaving (buffer reuse vs fresh allocation), and how many tasks the
//! runtime scheduled and ran. The `trace` binary reports them next to
//! the per-phase communication table so one run shows both sides of the
//! α-β-γ model (network words and γ-side kernel work), and
//! `tests/runtime.rs` uses the arena counters to prove the steady state
//! allocates nothing.
//!
//! The counters live on the process [`syrk_telemetry::registry`] under
//! `syrk_*` names (so a Prometheus scrape or `--metrics` dump sees them),
//! and this module is the engine-facing façade: [`kernel_stats`]
//! snapshots them into a [`KernelStats`]. The hot-path helpers
//! accumulate locally per task and flush once, so kernel loops see one
//! relaxed `fetch_add` per flush and no locks. They are cumulative per
//! process; take a [`kernel_stats`] snapshot before the region you want
//! to measure and [`KernelStats::since`] of it after.

use crate::isa::Isa;
use syrk_telemetry::{Counter, Gauge};

pub(crate) static PACK_WORDS: Counter = Counter::new("syrk_pack_words");
static MICROKERNEL_CALLS: Counter = Counter::new("syrk_microkernel_calls");
pub(crate) static ARENA_HITS: Counter = Counter::new("syrk_arena_hits");
pub(crate) static ARENA_MISSES: Counter = Counter::new("syrk_arena_misses");
pub(crate) static ARENA_ALLOC_BYTES: Counter = Counter::new("syrk_arena_alloc_bytes");
/// Microkernel calls per dispatched ISA, indexed by [`Isa::index`].
static ISA_CALLS: [Counter; Isa::COUNT] = [
    Counter::new("syrk_microkernel_calls_scalar"),
    Counter::new("syrk_microkernel_calls_avx2"),
    Counter::new("syrk_microkernel_calls_avx512"),
    Counter::new("syrk_microkernel_calls_neon"),
];
static TASKS_SCHEDULED: Counter = Counter::new("syrk_tasks_scheduled");
static TASKS_RUN: Counter = Counter::new("syrk_tasks_run");
static QUEUE_DEPTH: Gauge = Gauge::new("syrk_queue_depth");

/// A snapshot of the kernel-engine counters (see [`kernel_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Words copied into packed micro-panel buffers (A- and B-side).
    pub pack_words: u64,
    /// Register-blocked `mr × nr` microkernel invocations, one per tile.
    pub microkernel_calls: u64,
    /// Workspace-arena checkouts satisfied by a cached buffer.
    pub arena_hits: u64,
    /// Workspace-arena checkouts that had to create a fresh buffer.
    pub arena_misses: u64,
    /// Bytes of backing storage newly allocated (or grown) by the arena.
    /// Zero over a region means the packed-panel working set ran entirely
    /// out of reused buffers — the steady state the arena exists for.
    pub arena_alloc_bytes: u64,
    /// Microkernel calls attributed to each dispatched ISA, in [`Isa`]
    /// declaration order (sums to `microkernel_calls`). Shows which kernel
    /// actually ran — a forced-scalar run and an AVX-512 run are
    /// otherwise indistinguishable from the aggregate count.
    pub isa_calls: [u64; Isa::COUNT],
}

impl KernelStats {
    /// The counter deltas since an earlier snapshot (saturating, in case
    /// another thread reset the counters in between).
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            pack_words: self.pack_words.saturating_sub(earlier.pack_words),
            microkernel_calls: self
                .microkernel_calls
                .saturating_sub(earlier.microkernel_calls),
            arena_hits: self.arena_hits.saturating_sub(earlier.arena_hits),
            arena_misses: self.arena_misses.saturating_sub(earlier.arena_misses),
            arena_alloc_bytes: self
                .arena_alloc_bytes
                .saturating_sub(earlier.arena_alloc_bytes),
            isa_calls: std::array::from_fn(|i| {
                self.isa_calls[i].saturating_sub(earlier.isa_calls[i])
            }),
        }
    }

    /// `(name, calls)` per ISA with a nonzero count — the reporting shape
    /// the `trace` binary prints.
    pub fn isa_calls_by_name(&self) -> Vec<(&'static str, u64)> {
        Isa::ALL
            .iter()
            .map(|isa| (isa.name(), self.isa_calls[isa.index()]))
            .filter(|&(_, n)| n != 0)
            .collect()
    }
}

/// Snapshot the cumulative kernel-engine counters for this process.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        pack_words: PACK_WORDS.get(),
        microkernel_calls: MICROKERNEL_CALLS.get(),
        arena_hits: ARENA_HITS.get(),
        arena_misses: ARENA_MISSES.get(),
        arena_alloc_bytes: ARENA_ALLOC_BYTES.get(),
        isa_calls: std::array::from_fn(|i| ISA_CALLS[i].get()),
    }
}

pub(crate) fn add_microkernel_calls(isa: Isa, n: u64) {
    MICROKERNEL_CALLS.add(n);
    ISA_CALLS[isa.index()].add(n);
}

/// `n` tasks were handed to the runtime (inline or parallel path alike).
pub(crate) fn add_tasks_scheduled(n: u64) {
    TASKS_SCHEDULED.add(n);
    QUEUE_DEPTH.add(n as i64);
}

/// One task finished executing on some worker.
pub(crate) fn add_task_run() {
    TASKS_RUN.inc();
    QUEUE_DEPTH.sub(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_telemetry::registry;

    #[test]
    fn counters_accumulate_and_reset() {
        // Other tests in the same process also bump the counters, so only
        // assert on deltas driven from here.
        let before = kernel_stats();
        PACK_WORDS.add(128);
        add_microkernel_calls(Isa::Scalar, 3);
        ARENA_HITS.inc();
        ARENA_MISSES.inc();
        ARENA_ALLOC_BYTES.add(4096);
        let after = kernel_stats();
        let delta = after.since(&before);
        assert!(delta.pack_words >= 128);
        assert!(delta.microkernel_calls >= 3);
        assert!(delta.arena_hits >= 1);
        assert!(delta.arena_misses >= 1);
        assert!(delta.arena_alloc_bytes >= 4096);
        assert!(delta.isa_calls[Isa::Scalar.index()] >= 3);
        assert!(delta
            .isa_calls_by_name()
            .iter()
            .any(|&(name, n)| name == "scalar" && n >= 3));
    }

    #[test]
    fn since_saturates() {
        let a = KernelStats {
            pack_words: 1,
            microkernel_calls: 1,
            arena_hits: 0,
            arena_misses: 0,
            arena_alloc_bytes: 0,
            isa_calls: [1, 0, 0, 0],
        };
        let b = KernelStats {
            pack_words: 5,
            microkernel_calls: 5,
            arena_hits: 7,
            arena_misses: 7,
            arena_alloc_bytes: 7,
            isa_calls: [7, 7, 7, 7],
        };
        let d = a.since(&b);
        assert_eq!(d.pack_words, 0);
        assert_eq!(d.microkernel_calls, 0);
        assert_eq!(d.arena_hits, 0);
        assert_eq!(d.arena_alloc_bytes, 0);
        assert_eq!(d.isa_calls, [0; Isa::COUNT]);
    }

    #[test]
    fn counters_surface_on_the_registry() {
        PACK_WORDS.inc();
        add_microkernel_calls(Isa::Scalar, 1);
        let snap = registry::snapshot();
        assert!(snap.counter("syrk_pack_words").unwrap() >= 1);
        assert!(snap.counter("syrk_microkernel_calls").unwrap() >= 1);
        assert!(snap.counter("syrk_microkernel_calls_scalar").unwrap() >= 1);
        // The registry view and the KernelStats view are the same atomics.
        assert_eq!(kernel_stats().pack_words, PACK_WORDS.get());
    }

    #[test]
    fn isa_counter_names_follow_isa_order() {
        // The static array is indexed by Isa::index(); each counter's
        // name must agree with Isa::name() so dashboards stay truthful.
        for isa in Isa::ALL {
            let expected = format!("name: \"syrk_microkernel_calls_{}\"", isa.name());
            let counter = format!("{:?}", ISA_CALLS[isa.index()]);
            assert!(counter.contains(&expected), "{counter}");
        }
    }

    #[test]
    fn task_counters_move_together() {
        let snap = registry::snapshot();
        let (sched0, run0) = (
            snap.counter("syrk_tasks_scheduled").unwrap_or(0),
            snap.counter("syrk_tasks_run").unwrap_or(0),
        );
        add_tasks_scheduled(3);
        add_task_run();
        add_task_run();
        add_task_run();
        let snap = registry::snapshot();
        assert!(snap.counter("syrk_tasks_scheduled").unwrap() >= sched0 + 3);
        assert!(snap.counter("syrk_tasks_run").unwrap() >= run0 + 3);
        assert!(snap.gauge("syrk_queue_depth").is_some());
    }
}
