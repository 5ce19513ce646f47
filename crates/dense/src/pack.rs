//! Panel packing for the register-blocked kernels.
//!
//! The microkernel streams its operands from *packed* panels: `R`
//! rows (or columns) interleaved k-major, so each step of the k-loop
//! reads one contiguous group of `R` values per operand. Packing costs
//! `O(m·k)` copies but turns the inner loop into unit-stride loads, which
//! is what lets LLVM vectorize it.
//!
//! Layout of a packed buffer for rows `r0..r1` over columns `c0..c1`
//! with register width `R` and `kc = c1 − c0`:
//!
//! ```text
//! panel 0: [a(r0,c0) a(r0+1,c0) … a(r0+R−1,c0)] [a(r0,c0+1) … ] … kc groups
//! panel 1: rows r0+R … r0+2R−1, same k-major layout
//! …
//! ```
//!
//! Tail panels with fewer than `R` live rows are zero-padded, so the
//! microkernel never needs a fringe case: padded lanes multiply into
//! zeros that are simply not stored back.
//!
//! Two packing surfaces exist:
//!
//! * `pack_rows` fills a caller-owned `Vec` (typically an arena buffer)
//!   and `pack_cols_into` a caller-owned slice — the per-task path for
//!   operands only one worker reads, and
//! * `SharedPack` — a panel buffer **shared across workers** with
//!   once-cell-style per-block publication: the first worker to need a
//!   `block_rows`-row block packs it (exactly once), everyone else reads
//!   the published panels. This is what lets SYRK feed each packed copy
//!   of A to every register tile across all workers, instead of each
//!   chunk packing its own overlapping copy — when the dispatched tile
//!   is square (`mr == nr`) *one* pack even serves both operands.

use crate::scalar::Scalar;
use crate::view::MatrixView;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use syrk_telemetry::flight::{self, FlightKind};

/// Number of scalars in a packed panel buffer for `rows` rows (or
/// columns), `kc` inner iterations, and register width `r`.
pub fn packed_panel_len(rows: usize, kc: usize, r: usize) -> usize {
    rows.div_ceil(r) * r * kc
}

/// Offset of the micro-panel that starts at local row `row` (a multiple
/// of `r`) inside a packed buffer with inner length `kc`.
#[inline]
pub(crate) fn panel_offset(row: usize, kc: usize, r: usize) -> usize {
    debug_assert_eq!(row % r, 0, "micro-panels start at multiples of R");
    row * kc
}

/// Set `buf`'s length to exactly `len` without touching retained
/// contents: grow-with-zeros only past the current length, truncate
/// otherwise. The pack routines below fully overwrite every element, so
/// reused (arena) buffers skip the O(len) zero-fill a clear+resize pays.
fn set_pack_len<T: Scalar>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::zero());
    } else {
        buf.truncate(len);
    }
}

/// Pack rows `rows` of `a`, restricted to columns `cols`, into `buf` as
/// zero-padded `r`-row k-major micro-panels. `buf` is resized; reuse one
/// (arena) buffer across panels to amortize the allocation. The source
/// is a view, so a caller packs a column block of a larger matrix in
/// place; the packed values and their order do not depend on the stride.
pub(crate) fn pack_rows<T: Scalar>(
    buf: &mut Vec<T>,
    a: MatrixView<'_, T>,
    rows: Range<usize>,
    cols: Range<usize>,
    r: usize,
) {
    set_pack_len(buf, packed_panel_len(rows.len(), cols.len(), r));
    pack_rows_into(&mut buf[..], a, rows, cols, r);
}

/// [`pack_rows`] into a caller-provided slice of exactly
/// [`packed_panel_len`] elements. Fully initializes `dst` — live lanes
/// from `a`, padding lanes zero — so the destination's prior contents
/// (stale arena data, a reused shared buffer) never leak through.
pub(crate) fn pack_rows_into<T: Scalar>(
    dst: &mut [T],
    a: MatrixView<'_, T>,
    rows: Range<usize>,
    cols: Range<usize>,
    r: usize,
) {
    let m = rows.len();
    let kc = cols.len();
    debug_assert_eq!(dst.len(), packed_panel_len(m, kc, r));
    for q in 0..m.div_ceil(r) {
        let i0 = rows.start + q * r;
        let live = r.min(rows.end - i0);
        let chunk = &mut dst[q * r * kc..(q + 1) * r * kc];
        if live < r {
            chunk.fill(T::zero());
        }
        for u in 0..live {
            let src = &a.row(i0 + u)[cols.clone()];
            for (p, &v) in src.iter().enumerate() {
                chunk[p * r + u] = v;
            }
        }
    }
    crate::stats::PACK_WORDS.add(dst.len() as u64);
}

/// Pack columns `cols` of `b`, restricted to rows `rows` (the inner
/// dimension), into `r`-column k-major micro-panels of a caller-provided
/// slice of exactly [`packed_panel_len`] elements — the B-side pack for
/// `C += A·B` where B is stored `k × n`. Same layout contract as
/// [`pack_rows`]; copies are contiguous because columns of a row-major
/// matrix are walked row by row. Fully initializes `dst` like
/// [`pack_rows_into`].
pub(crate) fn pack_cols_into<T: Scalar>(
    dst: &mut [T],
    b: MatrixView<'_, T>,
    rows: Range<usize>,
    cols: Range<usize>,
    r: usize,
) {
    let kc = rows.len();
    let n = cols.len();
    debug_assert_eq!(dst.len(), packed_panel_len(n, kc, r));
    for q in 0..n.div_ceil(r) {
        let j0 = cols.start + q * r;
        let live = r.min(cols.end - j0);
        let chunk = &mut dst[q * r * kc..(q + 1) * r * kc];
        if live < r {
            chunk.fill(T::zero());
        }
        for p in 0..kc {
            let src = &b.row(rows.start + p)[j0..j0 + live];
            chunk[p * r..p * r + live].copy_from_slice(src);
        }
    }
    crate::stats::PACK_WORDS.add(dst.len() as u64);
}

const BLOCK_EMPTY: u8 = 0;
const BLOCK_PACKING: u8 = 1;
const BLOCK_READY: u8 = 2;

/// A packed panel buffer shared by every worker of a parallel region,
/// published block-by-block exactly once.
///
/// The buffer covers `rows` logical rows at register width `r` and inner
/// depth `kc`, split into blocks of `block_rows` rows (a multiple of
/// `r`, so micro-panels never straddle blocks). Each block carries a
/// once-cell-style state machine (`empty → packing → ready`): the first
/// worker to [`ensure`](SharedPack::ensure) a block wins a CAS and packs
/// it in place; latecomers spin (with yields) until the `ready` flag is
/// published with release ordering, then read the panels through
/// [`panel`](SharedPack::panel). Packed content is a pure function of
/// the source matrix, so *who* packs is immaterial — results are
/// deterministic however the tasks are placed.
///
/// Safety model: the storage is borrowed exclusively (`&mut [T]`) for
/// the lifetime of the `SharedPack` and re-exposed through
/// [`UnsafeCell`]s. A block is written only by the CAS winner while in
/// the `packing` state, and read only after the acquire-load of
/// `ready` — the release/acquire pair orders the pack writes before
/// every read, and disjoint blocks never alias.
pub(crate) struct SharedPack<'a, T: Scalar> {
    cells: &'a [UnsafeCell<T>],
    kc: usize,
    r: usize,
    rows: usize,
    block_rows: usize,
    states: Vec<AtomicU8>,
}

// SAFETY: concurrent access to `cells` is mediated by the per-block
// release/acquire state machine described on the type; `T: Scalar` is
// `Send + Sync` plain data.
unsafe impl<T: Scalar> Sync for SharedPack<'_, T> {}

impl<'a, T: Scalar> SharedPack<'a, T> {
    /// Wrap `buf` (length exactly `packed_panel_len(rows, kc, r)`) as an
    /// unpacked shared panel buffer with `block_rows`-row publication
    /// granularity. `buf` contents are treated as uninitialized.
    pub fn new(buf: &'a mut [T], rows: usize, kc: usize, r: usize, block_rows: usize) -> Self {
        assert!(r >= 1 && block_rows >= r && block_rows.is_multiple_of(r));
        assert_eq!(
            buf.len(),
            packed_panel_len(rows, kc, r),
            "shared pack buffer size"
        );
        let nblocks = rows.div_ceil(block_rows);
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`; we hold the
        // unique `&mut` borrow for 'a, so re-typing its target as cells
        // is sound.
        let cells = unsafe { &*(buf as *mut [T] as *const [UnsafeCell<T>]) };
        SharedPack {
            cells,
            kc,
            r,
            rows,
            block_rows,
            states: (0..nblocks).map(|_| AtomicU8::new(BLOCK_EMPTY)).collect(),
        }
    }

    /// The publication block containing logical row `row`.
    #[inline]
    pub(crate) fn block_of(&self, row: usize) -> usize {
        row / self.block_rows
    }

    /// The logical row range of block `b` (unpadded).
    fn block_range(&self, b: usize) -> Range<usize> {
        let r0 = b * self.block_rows;
        r0..(r0 + self.block_rows).min(self.rows)
    }

    /// The cell range of block `b`, padded to whole micro-panels.
    fn cell_range(&self, b: usize) -> Range<usize> {
        let rr = self.block_range(b);
        rr.start * self.kc..rr.end.div_ceil(self.r) * self.r * self.kc
    }

    /// Make block `b` available, packing it via `pack(rows, dst)` if this
    /// caller wins the publication race. `pack` receives the block's
    /// logical row range and its exactly-sized destination slice, and
    /// must fully initialize it (the `pack_*_into` routines do).
    pub(crate) fn ensure<F: Fn(Range<usize>, &mut [T])>(&self, b: usize, pack: &F) {
        // Fast path: drivers re-ensure blocks once per register-tile
        // group, so the common case must be one acquire load, not a CAS
        // ping-ponging the cache line between workers.
        if self.states[b].load(Ordering::Acquire) == BLOCK_READY {
            return;
        }
        match self.states[b].compare_exchange(
            BLOCK_EMPTY,
            BLOCK_PACKING,
            Ordering::Acquire,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                // Publish even if `pack` unwinds, so waiters never hang:
                // the panicking worker's region is garbage, but the whole
                // parallel call is already propagating the panic.
                struct Publish<'s>(&'s AtomicU8);
                impl Drop for Publish<'_> {
                    fn drop(&mut self) {
                        self.0.store(BLOCK_READY, Ordering::Release);
                    }
                }
                let publish = Publish(&self.states[b]);
                let t0 = if flight::is_enabled() {
                    Some(flight::now_ns())
                } else {
                    None
                };
                let span = self.cell_range(b);
                let cells = &self.cells[span];
                // SAFETY: the CAS made this caller the unique packer of
                // this block; readers wait for `ready` below.
                let dst = unsafe {
                    std::slice::from_raw_parts_mut(cells.as_ptr() as *mut T, cells.len())
                };
                pack(self.block_range(b), dst);
                drop(publish);
                if let Some(t0) = t0 {
                    flight::record(FlightKind::PackPublish, t0, flight::now_ns(), b as u64);
                }
            }
            Err(state) => {
                if state == BLOCK_READY {
                    return;
                }
                let t0 = if flight::is_enabled() {
                    Some(flight::now_ns())
                } else {
                    None
                };
                let mut spins = 0u32;
                while self.states[b].load(Ordering::Acquire) != BLOCK_READY {
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        // Single-core hosts: let the packer run.
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                if let Some(t0) = t0 {
                    flight::record(FlightKind::PackWait, t0, flight::now_ns(), b as u64);
                }
            }
        }
    }

    /// Make every block covering logical rows `rows` available.
    pub(crate) fn ensure_rows<F: Fn(Range<usize>, &mut [T])>(&self, rows: Range<usize>, pack: &F) {
        if rows.is_empty() {
            return;
        }
        for b in self.block_of(rows.start)..=self.block_of(rows.end - 1) {
            self.ensure(b, pack);
        }
    }

    /// The packed `r`-row micro-panel starting at logical row `row`
    /// (`row` must be a multiple of `r` and inside an ensured block).
    /// Returns exactly `r · kc` scalars.
    #[inline]
    pub(crate) fn panel(&self, row: usize) -> &[T] {
        debug_assert_eq!(row % self.r, 0);
        debug_assert!(row < self.rows);
        debug_assert_eq!(
            self.states[self.block_of(row)].load(Ordering::Acquire),
            BLOCK_READY,
            "panel read before its block was ensured"
        );
        let off = row * self.kc;
        let len = self.r * self.kc;
        // SAFETY: the block holding this panel is `ready` (caller
        // contract, checked above in debug builds): its cells were
        // release-published and are never written again.
        unsafe { std::slice::from_raw_parts(self.cells[off..off + len].as_ptr() as *const T, len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::rng::seeded_matrix;
    use std::sync::atomic::AtomicUsize;

    /// [`pack_cols_into`] a `Vec`, as [`pack_rows`] packs rows.
    fn pack_cols(
        buf: &mut Vec<f64>,
        b: MatrixView<'_, f64>,
        rows: Range<usize>,
        cols: Range<usize>,
        r: usize,
    ) {
        set_pack_len(buf, packed_panel_len(cols.len(), rows.len(), r));
        pack_cols_into(&mut buf[..], b, rows, cols, r);
    }

    #[test]
    fn pack_rows_layout_and_padding() {
        // 5 rows packed with R = 4 → two panels, second padded with 3
        // zero lanes.
        let a = Matrix::from_fn(6, 3, |i, j| (10 * i + j) as f64);
        let mut buf = Vec::new();
        pack_rows(&mut buf, a.view(), 1..6, 0..3, 4);
        assert_eq!(buf.len(), packed_panel_len(5, 3, 4));
        // Panel 0, k = 0 holds column 0 of rows 1..5.
        assert_eq!(&buf[0..4], &[10.0, 20.0, 30.0, 40.0]);
        // Panel 0, k = 2 holds column 2 of rows 1..5.
        assert_eq!(&buf[8..12], &[12.0, 22.0, 32.0, 42.0]);
        // Panel 1 holds row 5 in lane 0, zeros elsewhere.
        let p1 = &buf[panel_offset(4, 3, 4)..];
        assert_eq!(&p1[0..4], &[50.0, 0.0, 0.0, 0.0]);
        assert_eq!(&p1[4..8], &[51.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn packing_into_dirty_buffer_leaves_no_residue() {
        // A reused arena buffer arrives full of stale junk; padding lanes
        // must still come out zero.
        let a = Matrix::from_fn(6, 3, |i, j| (10 * i + j) as f64);
        let mut dirty = vec![9e9; packed_panel_len(5, 3, 4) + 7];
        pack_rows(&mut dirty, a.view(), 1..6, 0..3, 4);
        let mut fresh = Vec::new();
        pack_rows(&mut fresh, a.view(), 1..6, 0..3, 4);
        assert_eq!(dirty, fresh);

        let b = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f64);
        let mut dirty = vec![-3.0; 2];
        pack_cols(&mut dirty, b.view(), 1..4, 2..7, 4);
        let mut fresh = Vec::new();
        pack_cols(&mut fresh, b.view(), 1..4, 2..7, 4);
        assert_eq!(dirty, fresh);
    }

    #[test]
    fn pack_cols_matches_pack_rows_of_transpose() {
        let b = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f64);
        let bt = b.transpose();
        let (mut by_cols, mut by_rows) = (Vec::new(), Vec::new());
        pack_cols(&mut by_cols, b.view(), 1..4, 2..7, 4);
        pack_rows(&mut by_rows, bt.view(), 2..7, 1..4, 4);
        assert_eq!(by_cols, by_rows);
    }

    #[test]
    fn packing_a_strided_view_equals_packing_its_copy() {
        // A column block of a wider matrix, packed where it lies.
        let whole = seeded_matrix::<f64>(11, 23, 8);
        let copy = whole.block_owned(2, 5, 9, 13);
        let view = whole.block(2, 5, 9, 13);
        let (mut from_view, mut from_copy) = (Vec::new(), Vec::new());
        pack_rows(&mut from_view, view, 1..8, 3..13, 4);
        pack_rows(&mut from_copy, copy.view(), 1..8, 3..13, 4);
        assert_eq!(from_view, from_copy);
        pack_cols(&mut from_view, view, 2..9, 0..11, 4);
        pack_cols(&mut from_copy, copy.view(), 2..9, 0..11, 4);
        assert_eq!(from_view, from_copy);
    }

    #[test]
    fn empty_ranges_pack_to_empty() {
        let a = Matrix::<f64>::zeros(4, 4);
        let mut buf = vec![1.0];
        pack_rows(&mut buf, a.view(), 2..2, 0..4, 4);
        assert!(buf.is_empty());
        pack_cols(&mut buf, a.view(), 0..4, 3..3, 4);
        assert!(buf.is_empty());
    }

    #[test]
    fn shared_pack_matches_direct_pack() {
        let a = seeded_matrix::<f64>(23, 9, 77);
        let mut direct = Vec::new();
        pack_rows(&mut direct, a.view(), 0..23, 0..9, 4);

        let mut buf = vec![0.0f64; packed_panel_len(23, 9, 4)];
        let shared = SharedPack::new(&mut buf, 23, 9, 4, 8);
        let pack = |rows: Range<usize>, dst: &mut [f64]| {
            pack_rows_into(dst, a.view(), rows, 0..9, 4);
        };
        shared.ensure_rows(0..23, &pack);
        for row in (0..23).step_by(4) {
            let off = panel_offset(row, 9, 4);
            assert_eq!(shared.panel(row), &direct[off..off + 4 * 9], "row {row}");
        }
    }

    #[test]
    fn shared_pack_publishes_each_block_once() {
        let a = seeded_matrix::<f64>(64, 16, 5);
        let mut buf = vec![0.0f64; packed_panel_len(64, 16, 4)];
        let shared = SharedPack::new(&mut buf, 64, 16, 4, 16);
        let packs = AtomicUsize::new(0);
        let pack = |rows: Range<usize>, dst: &mut [f64]| {
            packs.fetch_add(1, Ordering::Relaxed);
            pack_rows_into(dst, a.view(), rows, 0..16, 4);
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Every thread demands every block, in clashing order.
                    shared.ensure_rows(0..64, &pack);
                    for row in (0..64).step_by(4) {
                        assert_eq!(shared.panel(row).len(), 4 * 16);
                    }
                });
            }
        });
        // 64 rows / 16-row blocks = 4 blocks, each packed exactly once
        // despite 4 threads demanding all of them.
        assert_eq!(packs.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn shared_pack_ragged_tail_block() {
        // 21 rows, block_rows 8, r 4: blocks are 8/8/5 rows, the last
        // padded to 8 lanes in its final panel.
        let a = seeded_matrix::<f64>(21, 5, 6);
        let mut direct = Vec::new();
        pack_rows(&mut direct, a.view(), 0..21, 0..5, 4);
        let mut buf = vec![7.7f64; packed_panel_len(21, 5, 4)];
        let shared = SharedPack::new(&mut buf, 21, 5, 4, 8);
        let pack = |rows: Range<usize>, dst: &mut [f64]| {
            pack_rows_into(dst, a.view(), rows, 0..5, 4);
        };
        shared.ensure_rows(0..21, &pack);
        for row in (0..21).step_by(4) {
            let off = panel_offset(row, 5, 4);
            assert_eq!(shared.panel(row), &direct[off..off + 4 * 5], "row {row}");
        }
    }
}
