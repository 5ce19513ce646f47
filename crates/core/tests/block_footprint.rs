//! A rank reads its column block of `A` where it lies in the global
//! matrix: the 1D and 3D drivers used to copy an `n1 × n2/p` block per
//! rank (12 × 4 MB live at once for the 3D run below, 6× the input). And
//! a 2D rank stages each chunk of `A` it owns once, however many partners
//! the chunk goes to: the exchange used to clone it per destination. This
//! binary holds one test, because it watches every allocation of the
//! process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use syrk_core::{try_syrk_1d, try_syrk_2d, try_syrk_3d};
use syrk_dense::seeded_matrix;
use syrk_machine::CostModel;

/// Allocations of at least this many bytes are recorded (none while it
/// is `usize::MAX`).
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
/// How many were recorded, and the sizes of the first few.
static COUNT: AtomicUsize = AtomicUsize::new(0);
static SIZES: [AtomicUsize; 128] = [const { AtomicUsize::new(0) }; 128];

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`; the statics are
// statistics and publish no other data.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= THRESHOLD.load(Ordering::Relaxed) {
            let n = COUNT.fetch_add(1, Ordering::Relaxed);
            if let Some(slot) = SIZES.get(n) {
                slot.store(layout.size(), Ordering::Relaxed);
            }
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Recording = Recording;

/// Sizes in words of every allocation of at least `words` words that
/// `f` makes.
fn allocations_of_at_least(words: usize, f: impl FnOnce()) -> Vec<usize> {
    COUNT.store(0, Ordering::Relaxed);
    THRESHOLD.store(words * 8, Ordering::Relaxed);
    f();
    THRESHOLD.store(usize::MAX, Ordering::Relaxed);
    let n = COUNT.load(Ordering::Relaxed);
    assert!(n <= SIZES.len(), "{n} allocations of {words} words or more");
    SIZES[..n]
        .iter()
        .map(|s| s.load(Ordering::Relaxed) / 8)
        .collect()
}

#[test]
fn no_rank_copies_its_column_block() {
    let model = CostModel::bandwidth_only();

    // The 3D member of the benchmark's `sim_blocks` round: 12 ranks, each
    // responsible for a 1024 × 512 block column. The one allocation that
    // large is the assembled n1 × n1 `C`.
    let (n1, n2, c, p2) = (1024, 1024, 2, 2);
    let a = seeded_matrix::<f64>(n1, n2, 1);
    let big = allocations_of_at_least(n1 * (n2 / p2), || {
        try_syrk_3d(&a, c, p2, model, None).expect("a clean run");
    });
    assert_eq!(big, [n1 * n1], "3D: allocations of a column block or more");

    // The 1D member: 4 ranks with a 768 × 1024 block each; `C` is smaller
    // than a block here.
    let (n1, n2, p) = (768, 4096, 4);
    let a = seeded_matrix::<f64>(n1, n2, 1);
    let big = allocations_of_at_least(n1 * (n2 / p), || {
        try_syrk_1d(&a, p, model, None).expect("a clean run");
    });
    assert_eq!(big, [], "1D: allocations of a column block or more");

    // The 2D member: 6 ranks, each owning one 65 536-word chunk of each of
    // its c = 2 row blocks and shipping it to the c other members of the
    // block's processor set. One buffer per chunk (the words plus the two
    // counters of the shared handle), not one per destination: P·c = 12.
    let (n1, n2, c) = (1536, 512, 2);
    let chunk = n1 / (c * c) * n2 / (c + 1);
    let a = seeded_matrix::<f64>(n1, n2, 1);
    let big = allocations_of_at_least(chunk, || {
        try_syrk_2d(&a, c, model, None).expect("a clean run");
    });
    let chunks = big.iter().filter(|&&w| w <= chunk + 2).count();
    assert_eq!(chunks, c * (c + 1) * c, "2D: chunk-sized allocations");
}
