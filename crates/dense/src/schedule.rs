//! Flop-balanced work partitioning for triangular iteration spaces.
//!
//! Splitting the rows of a lower triangle evenly by *count* puts
//! `(p−1)/p` of the flops in the last chunk's neighbourhood — row `i`
//! costs `Θ(i·k)` flops. The schedulers here split by *cost* instead: a
//! prefix sum over per-row costs is cut at equal-cost targets, with chunk
//! boundaries rounded to a register-tile multiple so every chunk starts
//! on a micro-panel boundary of the packed kernels.

use std::ops::Range;

/// Split `0..costs.len()` into at most `parts` contiguous ranges of
/// approximately equal total cost, with every internal boundary a
/// multiple of `align`. The ranges tile the index space exactly: they are
/// disjoint, in order, and cover every index once. Fewer than `parts`
/// ranges are returned when rounding collapses a boundary (e.g. more
/// parts than aligned rows).
pub fn balanced_chunks_by_cost(costs: &[u64], parts: usize, align: usize) -> Vec<Range<usize>> {
    let n = costs.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.max(1);
    let align = align.max(1);
    // prefix[i] = total cost of rows 0..i.
    let mut prefix = Vec::with_capacity(n + 1);
    let mut acc = 0u64;
    prefix.push(0u64);
    for &c in costs {
        acc += c;
        prefix.push(acc);
    }
    let total = acc as u128;
    let mut bounds = vec![0usize];
    for t in 1..parts {
        let target = (total * t as u128 / parts as u128) as u64;
        // Smallest boundary whose prefix reaches the target, rounded down
        // to the alignment so chunks start on micro-panel boundaries.
        let b = prefix.partition_point(|&x| x < target) / align * align;
        let prev = *bounds.last().unwrap();
        if b > prev && b < n {
            bounds.push(b);
        }
    }
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Flop-balanced row chunks for a packed `n × n` lower triangle: row `i`
/// holds `i+1` entries, each costing the same `2k` flops, so entry counts
/// are the cost weights.
pub fn balanced_triangle_chunks(n: usize, parts: usize, align: usize) -> Vec<Range<usize>> {
    let costs: Vec<u64> = (1..=n as u64).collect();
    balanced_chunks_by_cost(&costs, parts, align)
}

/// Packed words a *per-chunk* packing strategy would copy for one
/// `kc`-wide inner panel of a SYRK-shaped triangle split into `chunks`:
/// the chunk covering rows `i..e` reads row micro-panels `0..e` of `A`
/// (its own rows on the tile's row side plus every row below the
/// diagonal bound on the column side), so packing privately it copies
/// `e.div_ceil(r)·r·kc` words. Summed over chunks this overlaps heavily —
/// the shared pack copies `packed_panel_len(n, kc, r)` words once, and
/// `tests/runtime.rs` holds the ratio at ≥ 1.8× for a 4-thread 512 × 512
/// SYRK (≈3× at 4 chunks, growing with the chunk count).
pub fn per_chunk_pack_words(chunks: &[Range<usize>], kc: usize, r: usize) -> u64 {
    let r = r.max(1);
    chunks
        .iter()
        .map(|c| (c.end.div_ceil(r) * r * kc) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_tiling(chunks: &[Range<usize>], n: usize, align: usize) {
        assert!(!chunks.is_empty() || n == 0);
        let mut next = 0;
        for c in chunks {
            assert_eq!(c.start, next, "chunks must be contiguous");
            assert!(c.start < c.end, "chunks must be non-empty");
            assert_eq!(c.start % align, 0, "starts must be aligned");
            next = c.end;
        }
        assert_eq!(next, n, "chunks must cover all rows");
    }

    #[test]
    fn chunks_tile_and_balance() {
        for n in [1usize, 4, 7, 64, 257, 1000] {
            for parts in [1usize, 2, 3, 8] {
                let chunks = balanced_triangle_chunks(n, parts, 4);
                check_tiling(&chunks, n, 4);
                // Each chunk's cost is within one aligned row-group of
                // the ideal share (loose check: no chunk more than twice
                // the ideal once n is large enough).
                if n >= 64 && parts > 1 {
                    let len = crate::packed::packed_len;
                    let total = len(n) as f64;
                    let cost = |r: &Range<usize>| len(r.end) as f64 - len(r.start) as f64;
                    for c in &chunks {
                        assert!(
                            cost(c) < 2.0 * total / parts as f64 + (4 * n) as f64,
                            "n={n} parts={parts} chunk {c:?} too heavy"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn balanced_beats_even_split() {
        // The whole point: equal-cost chunks give earlier rows more rows.
        let chunks = balanced_triangle_chunks(1024, 4, 4);
        assert_eq!(chunks.len(), 4);
        assert!(
            chunks[0].len() > chunks[3].len(),
            "first chunk must take more rows than the last: {chunks:?}"
        );
        // And the last boundary is near n/√2 … n, not at 3n/4.
        assert!(chunks[3].start > 1024 * 3 / 4, "{chunks:?}");
    }

    #[test]
    fn more_parts_than_rows_degrades_gracefully() {
        let chunks = balanced_triangle_chunks(3, 16, 4);
        check_tiling(&chunks, 3, 4);
        assert_eq!(chunks.len(), 1, "alignment collapses tiny splits");
    }

    #[test]
    fn per_chunk_pack_model_exceeds_shared_pack() {
        // n = k = 512, 4 balanced chunks: private per-chunk packing moves
        // ≈3× the words of the one shared pack (chunk ends near n/2,
        // n/√2, n·(3/4)^½… sum ≈ 3.07·n).
        let n = 512usize;
        let chunks = balanced_triangle_chunks(n, 4, 4);
        let per_chunk = per_chunk_pack_words(&chunks, 256, 4);
        let shared = (n.div_ceil(4) * 4 * 256) as u64;
        assert!(
            per_chunk as f64 >= 1.8 * shared as f64,
            "per-chunk {per_chunk} vs shared {shared}"
        );
        // One chunk degenerates to the shared cost.
        let one = per_chunk_pack_words(std::slice::from_ref(&(0..n)), 256, 4);
        assert_eq!(one, shared);
    }

    #[test]
    fn zero_rows_zero_chunks() {
        assert!(balanced_triangle_chunks(0, 4, 4).is_empty());
        assert!(balanced_chunks_by_cost(&[], 4, 1).is_empty());
    }

    #[test]
    fn generic_costs_split_at_mass() {
        // All the mass in the last row: one chunk ends up holding it.
        let costs = [0u64, 0, 0, 0, 0, 0, 0, 1000];
        let chunks = balanced_chunks_by_cost(&costs, 2, 1);
        check_tiling(&chunks, 8, 1);
        let last = chunks.last().unwrap();
        assert!(last.contains(&7));
    }
}
