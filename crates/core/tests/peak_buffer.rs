//! Every rank's `peak_buffer_words`, predicted from the distribution
//! alone and asserted equal to what the run measures. A rank notes three
//! things:
//!
//! - its slice's footprint, per panel: the operand words its local step
//!   reads, that is the gathered row blocks plus its own staged chunks. A
//!   one-rank slice gathers nothing, and its one chunk is its whole
//!   column block. Output blocks are never counted;
//! - the sparse all-to-all's send words, one chunk per other member of
//!   `Q_i` for each live row block `i` of `R_k` with a nonempty chunk;
//! - the row Reduce-Scatter's segment words, all of `C_k`, when `p2 > 1`.

use syrk_core::{
    run, syr2k, syrk_2d_limited, ConformalADist, Plan, RunSpec, SyrkRunResult, TriangleBlockDist,
};
use syrk_dense::{seeded_int_matrix, Matrix, Partition1D};
use syrk_machine::CostModel;

/// Rank `k`'s live row blocks: those of `R_k` that have rows.
fn live(dist: &TriangleBlockDist, rows: &Partition1D, k: usize) -> Vec<usize> {
    let r_k = dist.r_set(k).iter().copied();
    r_k.filter(|&i| rows.len(i) > 0).collect()
}

/// The predicted peak of every world rank of a `p1 × p2` grid running
/// `n`-operand SYRK on an `n1 × n2` input, each slice in `panels` panels.
/// `dist` is `None` for Algorithm 1's one-rank slices. World rank `r` is
/// grid row `r % p1` of slice `r / p1`.
fn predict(
    dist: Option<&TriangleBlockDist>,
    n: usize,
    (n1, n2): (usize, usize),
    p2: usize,
    panels: usize,
) -> Vec<u64> {
    let p1 = dist.map_or(1, TriangleBlockDist::p);
    let slices = Partition1D::new(n2, p2);
    (0..p1 * p2)
        .map(|r| {
            let (k, l) = (r % p1, r / p1);
            let widths = Partition1D::new(slices.len(l), panels);
            let mut peak = 0;
            for w in (0..panels).map(|q| widths.len(q)) {
                if panels > 1 && w == 0 {
                    continue;
                }
                let (slice, sent) = match dist {
                    None => (n * n1 * w, 0),
                    Some(dist) => {
                        let ad = ConformalADist::new(dist, n1, w);
                        let live = live(dist, &ad.rows, k);
                        let gathered: usize = live.iter().map(|&i| ad.block_len(i)).sum();
                        let own: usize = live.iter().map(|&i| ad.chunk_len(i, k)).sum();
                        (n * (gathered + own), n * own * dist.c())
                    }
                };
                peak = peak.max(slice).max(sent);
            }
            if p2 > 1 {
                peak = peak.max(c_k_words(dist, n1, k));
            }
            peak as u64
        })
        .collect()
}

/// The words of `C_k`: every pair of live row blocks, then the diagonal
/// block when it is assigned and live.
fn c_k_words(dist: Option<&TriangleBlockDist>, n1: usize, k: usize) -> usize {
    let Some(dist) = dist else {
        return n1 * (n1 + 1) / 2;
    };
    let rows = Partition1D::new(n1, dist.num_blocks());
    let live = live(dist, &rows, k);
    let pairs: usize = (0..live.len())
        .flat_map(|x| (0..x).map(move |y| (x, y)))
        .map(|(x, y)| rows.len(live[x]) * rows.len(live[y]))
        .sum();
    let diag = dist.d_block(k).map_or(0, |i| {
        let b = rows.len(i);
        b * (b + 1) / 2
    });
    pairs + diag
}

fn measured(run: &SyrkRunResult) -> Vec<u64> {
    run.cost.ranks.iter().map(|r| r.peak_buffer_words).collect()
}

fn input(n1: usize, n2: usize, seed: u64) -> Matrix<f64> {
    seeded_int_matrix::<f64>(n1, n2, 3, seed)
}

#[test]
fn predicted_peak_buffer_equals_measured_on_every_rank() {
    let model = CostModel::typical();
    let syrk = |a: &Matrix<f64>, plan| run(a, &RunSpec::new(plan, model)).unwrap().result;
    let mut checked = 0;
    let mut check = |label: String, got: Vec<u64>, want: Vec<u64>| {
        assert_eq!(got, want, "{label}");
        checked += got.len();
    };

    // Algorithm 1: one rank alone, then four with a Reduce-Scatter.
    for (n1, n2, p) in [(9, 7, 1), (12, 10, 4), (5, 3, 4)] {
        let a = input(n1, n2, 1);
        let want = predict(None, 1, (n1, n2), p, 1);
        check(
            format!("1D {n1}x{n2} p={p}"),
            measured(&syrk(&a, Plan::OneD { p })),
            want,
        );
    }
    // Algorithm 2, with n1 < c² (dead row blocks) and c² ∤ n1.
    for (n1, n2, c) in [(16, 10, 2), (36, 8, 3), (10, 3, 3), (10, 6, 4), (3, 4, 4)] {
        let dist = TriangleBlockDist::for_order(c).unwrap();
        let a = input(n1, n2, 2);
        let want = predict(Some(&dist), 1, (n1, n2), 1, 1);
        check(
            format!("2D {n1}x{n2} c={c}"),
            measured(&syrk(&a, Plan::TwoD { c })),
            want,
        );
    }
    // Algorithm 3: at n2 = 4 < p2 = 5 the last slice has no columns.
    let dist = TriangleBlockDist::new(3);
    for (n1, n2, p2) in [(36, 24, 2), (20, 4, 5)] {
        let a = input(n1, n2, 3);
        let want = predict(Some(&dist), 1, (n1, n2), p2, 1);
        let got = measured(&syrk(&a, Plan::ThreeD { c: 3, p2 }));
        check(format!("3D {n1}x{n2} c=3 p2={p2}"), got, want);
    }
    // SYR2K: two operands on Algorithm 1's and Algorithm 2's grids.
    for (plan, dist) in [
        (Plan::OneD { p: 4 }, None),
        (Plan::TwoD { c: 3 }, Some(TriangleBlockDist::new(3))),
    ] {
        let (n1, n2) = (18, 10);
        let (a, b) = (input(n1, n2, 4), input(n1, n2, 5));
        let p2 = match plan {
            Plan::OneD { p } => p,
            _ => 1,
        };
        let want = predict(dist.as_ref(), 2, (n1, n2), p2, 1);
        let got = measured(&syr2k(&a, &b, plan, model).unwrap());
        check(format!("SYR2K {plan:?} {n1}x{n2}"), got, want);
    }
    // The panel variant, with more panels than columns at 8 × 3.
    for (n1, n2, c) in [(36, 48, 3), (8, 3, 2)] {
        let dist = TriangleBlockDist::for_order(c).unwrap();
        for rounds in [1, 3, 10] {
            let a = input(n1, n2, 6);
            let want = predict(Some(&dist), 1, (n1, n2), 1, rounds);
            let got = measured(&syrk_2d_limited(&a, c, rounds, model).unwrap());
            check(format!("panels {n1}x{n2} c={c} rounds={rounds}"), got, want);
        }
    }
    assert_eq!(checked, 233, "ranks checked");
}
