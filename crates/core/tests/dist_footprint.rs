//! `TriangleBlockDist` must stay O(c³) words and O(c⁴) time: it used to
//! fill a dense c⁴-entry owner table nobody read (39 MB at c = 47, 832 MB
//! at c = 101, the 10302-rank gate) and validate in O(c⁵). This binary
//! holds one test, because it counts every allocation of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use syrk_core::TriangleBlockDist;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Build the distribution; returns it with `(bytes held, peak bytes while
/// building, seconds)`.
fn build(c: usize) -> (TriangleBlockDist, usize, usize, f64) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let t = Instant::now();
    let dist = TriangleBlockDist::for_order(c).expect("c is prime");
    let seconds = t.elapsed().as_secs_f64();
    let held = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    (dist, held, peak, seconds)
}

#[test]
fn construction_is_cubic_in_space_and_never_builds_a_c4_table() {
    // c = 47 (P = 2256, the benchmark's many-rank workload): R and Q are
    // 2·c³ words ≈ 1.7 MB; the old owner table alone was 39 MB.
    let (dist, held, peak, _) = build(47);
    assert_eq!(dist.p(), 2256);
    assert!(held < 2 << 20, "c = 47 holds {held} bytes");
    assert!(peak < 4 << 20, "c = 47 peaked at {peak} bytes");

    // c = 101 (P = 10302): 2·c³ words ≈ 16.5 MB. A c⁴ table would be
    // 832 MB, and the O(c⁵) validation took 4.6 s optimized; the bound is
    // loose enough for an unoptimized build on a busy host.
    let (dist, held, peak, seconds) = build(101);
    assert_eq!(dist.p(), 10302);
    assert!(held < 20 << 20, "c = 101 holds {held} bytes");
    assert!(peak < 48 << 20, "c = 101 peaked at {peak} bytes");
    assert!(seconds < 20.0, "c = 101 took {seconds:.1} s");
    // The owner map is still there, on demand.
    let (i, j) = (101 * 101 - 1, 0);
    let both = |k: &usize| dist.r_set(*k).contains(&i) && dist.r_set(*k).contains(&j);
    assert_eq!((0..dist.p()).find(both), Some(dist.owner_of(i, j)));
}
