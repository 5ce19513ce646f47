//! Reusable packed-panel workspace arena.
//!
//! Every packed kernel call needs scratch buffers for micro-panel packs
//! (`A`-blocks, `B`-panels). Allocating them fresh per
//! call — the pre-arena behaviour — put an allocator round-trip and a
//! page-fault warm-up on every kernel invocation, multiplied by every
//! worker; in the simulated-machine runs the same shapes recur thousands
//! of times, so the steady state should allocate **nothing**.
//!
//! The arena is one capped, process-global pool. A [`PackBuf`] checks a
//! buffer out of it and hands the buffer back when it drops — inside the
//! task that used it, so every buffer a parallel region touched is back
//! in the pool before the region joins, and the next region's workers
//! find it there. A checkout takes one lock; a kernel call makes a
//! handful, against thousands of microkernel tiles.
//!
//! Buffers are grow-only and reset-not-freed: a checkout guarantees
//! *capacity*, never zeroes contents (the pack routines fully initialize
//! what they use), and a returned buffer keeps its backing storage.
//! Hit/miss/alloc-bytes counters flush into [`crate::stats`], so the
//! trace binary and `tests/runtime.rs` can prove the steady state: after
//! warm-up, `arena_misses` and `arena_alloc_bytes` deltas are zero.

use crate::scalar::Scalar;
use crate::stats;
use std::any::Any;
use std::sync::Mutex;

/// Cap on pooled buffers so pathological workloads (many distinct huge
/// shapes) cannot hoard unbounded memory; beyond this, returned buffers
/// are simply freed.
const GLOBAL_POOL_CAP: usize = 64;

/// Buffers not checked out, type-erased (checkout takes only a `Vec<T>`
/// of the requested element type, by downcast).
static GLOBAL_POOL: Mutex<Vec<Box<dyn Any + Send>>> = Mutex::new(Vec::new());

/// The pool, locked. No user code runs under the lock, so a poisoned
/// mutex still guards a consistent list.
fn pool() -> std::sync::MutexGuard<'static, Vec<Box<dyn Any + Send>>> {
    GLOBAL_POOL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A packed-panel scratch buffer checked out of the arena. Returns its
/// storage to the pool on drop.
pub(crate) struct PackBuf<T: Scalar> {
    vec: Vec<T>,
}

impl<T: Scalar> PackBuf<T> {
    /// The underlying vector, for pack routines that manage length
    /// themselves (capacity was pre-reserved at checkout, so in the
    /// steady state they never trigger a reallocation).
    pub(crate) fn vec_mut(&mut self) -> &mut Vec<T> {
        &mut self.vec
    }

    /// A mutable slice of exactly `len` elements, growing (zero-filling
    /// new storage) or truncating as needed. Existing contents are
    /// **stale** — callers must fully overwrite what they read; the
    /// shared-pack packers do.
    pub(crate) fn resized(&mut self, len: usize) -> &mut [T] {
        if self.vec.len() < len {
            reserve_counted(&mut self.vec, len);
            self.vec.resize(len, T::zero());
        } else {
            self.vec.truncate(len);
        }
        &mut self.vec[..]
    }
}

impl<T: Scalar> Drop for PackBuf<T> {
    fn drop(&mut self) {
        let vec = std::mem::take(&mut self.vec);
        if vec.capacity() == 0 {
            return;
        }
        let buf: Box<dyn Any + Send> = Box::new(vec);
        let mut pool = pool();
        if pool.len() < GLOBAL_POOL_CAP {
            pool.push(buf);
        }
    }
}

/// Grow `vec`'s capacity to at least `len`, charging the allocation to
/// the arena counters. (A `Vec` realloc allocates a fresh block of the
/// full new size, so the whole target is charged, not the increment.)
fn reserve_counted<T: Scalar>(vec: &mut Vec<T>, len: usize) {
    if vec.capacity() < len {
        stats::add_arena_alloc_bytes(len * std::mem::size_of::<T>());
        vec.reserve_exact(len - vec.len());
    }
}

/// Check a scratch buffer with capacity for at least `len` elements of
/// `T` out of the arena: best-fit from the pool, else (a counted miss) a
/// fresh allocation. The buffer's *contents* are unspecified; only
/// capacity is guaranteed.
pub(crate) fn acquire<T: Scalar>(len: usize) -> PackBuf<T> {
    let cached = take_from::<T>(&mut pool(), len);
    if cached.is_some() {
        stats::add_arena_hit();
    } else {
        stats::add_arena_miss();
    }
    let mut vec = cached.unwrap_or_default();
    reserve_counted(&mut vec, len);
    PackBuf { vec }
}

/// Best-fit extraction: the smallest pooled `Vec<T>` whose capacity
/// covers `len`, else the largest available (it will grow once and then
/// stick).
fn take_from<T: Scalar>(slots: &mut Vec<Box<dyn Any + Send>>, len: usize) -> Option<Vec<T>> {
    let mut best: Option<(usize, usize, bool)> = None; // (idx, cap, fits)
    for (i, slot) in slots.iter().enumerate() {
        let Some(v) = slot.downcast_ref::<Vec<T>>() else {
            continue;
        };
        let cap = v.capacity();
        let fits = cap >= len;
        let better = match best {
            None => true,
            // Prefer any fitting buffer over any non-fitting one; among
            // fitting ones the smallest, among non-fitting the largest.
            Some((_, bcap, bfits)) => match (fits, bfits) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => cap < bcap,
                (false, false) => cap > bcap,
            },
        };
        if better {
            best = Some((i, cap, fits));
        }
    }
    let (idx, _, _) = best?;
    let boxed = slots.swap_remove(idx);
    Some(*boxed.downcast::<Vec<T>>().expect("type checked above"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::kernel_stats;

    #[test]
    fn second_checkout_reuses_storage() {
        // Use a size no other test plausibly uses, so a concurrent test
        // is unlikely to check this buffer out between our two checkouts.
        const LEN: usize = 12_345;
        {
            let mut b = acquire::<f64>(LEN);
            b.resized(LEN)[0] = 1.0;
        }
        let before = kernel_stats();
        {
            let mut b = acquire::<f64>(LEN);
            assert!(b.vec_mut().capacity() >= LEN);
        }
        let d = kernel_stats().since(&before);
        assert_eq!(d.arena_alloc_bytes, 0, "steady state must not allocate");
        assert!(d.arena_hits >= 1);
    }

    #[test]
    fn resized_truncates_and_grows() {
        let mut b = acquire::<f64>(16);
        assert_eq!(b.resized(16).len(), 16);
        assert_eq!(b.resized(4).len(), 4);
        assert_eq!(b.resized(32).len(), 32);
    }

    #[test]
    fn distinct_scalar_types_do_not_cross() {
        // A slot of another element type is skipped, however well it fits.
        let mut slots: Vec<Box<dyn Any + Send>> = vec![
            Box::new(Vec::<f32>::with_capacity(777)),
            Box::new(Vec::<f64>::with_capacity(10)),
        ];
        let got = take_from::<f64>(&mut slots, 777).unwrap();
        assert_eq!(got.capacity(), 10);
        assert!(take_from::<f64>(&mut slots, 1).is_none());
        assert_eq!(slots.len(), 1);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut slots: Vec<Box<dyn Any + Send>> = vec![
            Box::new(Vec::<f64>::with_capacity(100)),
            Box::new(Vec::<f64>::with_capacity(50)),
            Box::new(Vec::<f64>::with_capacity(10)),
        ];
        let got = take_from::<f64>(&mut slots, 40).unwrap();
        assert_eq!(got.capacity(), 50);
        // Nothing fits 1000: take the largest.
        let got = take_from::<f64>(&mut slots, 1000).unwrap();
        assert_eq!(got.capacity(), 100);
    }
}
