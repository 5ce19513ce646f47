//! Algorithm 1: 1D SYRK (§5.1).
//!
//! `A` is distributed by block columns; each rank performs a local SYRK
//! with its column block (producing a full `n1 × n1` symmetric
//! contribution in packed form) and a `Reduce-Scatter` sums and evenly
//! distributes the packed triangle. No element of `A` is ever
//! communicated — only contributions to `C`.
//!
//! Bandwidth cost (eq. (3)): `(n1(n1+1)/2)·(1 − 1/P)`, matching the
//! Case 1 lower bound's leading term `n1(n1−1)/2`.

use syrk_dense::{
    mirror_lower_to_upper, syrk_flops, syrk_packed_view, write_packed_lower, Diag, Matrix,
    PackedLower, Partition1D,
};
use syrk_machine::MachineError;

use super::common::{check_ranks, check_shape, SyrkRunResult};
use super::run::{machine_for, RunSpec, SyrkRun};
use crate::attribution::{PHASE_LOCAL_SYRK, PHASE_REDUCE_SCATTER_C};
use crate::error::SyrkError;

/// Run Algorithm 1 on a simulated machine with `p` ranks.
///
/// `a` is the global input; each rank extracts its own column block
/// (modeling the required initial distribution, which costs nothing).
pub(crate) fn run_1d(a: &Matrix<f64>, p: usize, spec: &RunSpec) -> Result<SyrkRun, SyrkError> {
    let (n1, n2) = a.shape();
    check_ranks(p)?;
    check_shape(n1, n2)?;
    let cols = Partition1D::new(n2, p);
    let packed_len = Diag::Inclusive.packed_len(n1);
    let segments = Partition1D::new(packed_len, p);

    let out = machine_for(spec, p).try_run(|comm| {
        let l = comm.rank();
        // Line 2–3: local SYRK on the owned column block A_ℓ, read where
        // it lies in the global matrix.
        let r = cols.range(l);
        let cbar = {
            let _span = comm.phase(PHASE_LOCAL_SYRK);
            let mut cbar = PackedLower::zeros(n1, Diag::Inclusive);
            syrk_packed_view(&mut cbar, a.block(0, r.start, n1, r.len()));
            comm.add_flops(syrk_flops(n1, r.len()));
            comm.note_buffer(n1 * r.len() + cbar.len());
            cbar
        };
        if spec.abft {
            let _span = comm.phase(crate::abft::PHASE_ABFT);
            comm.add_flops(crate::abft::block_check_flops(n1, n1, r.len()));
            let a_l = a.block_owned(0, r.start, n1, r.len());
            crate::abft::verify_diag_block(&a_l, &cbar, l).map_err(|detail| {
                MachineError::DataCorruption {
                    rank: comm.world_rank(),
                    detail,
                }
            })?;
        }
        // Line 4: Reduce-Scatter of the packed triangle, evenly split.
        let _span = comm.phase(PHASE_REDUCE_SCATTER_C);
        let segs: Vec<Vec<f64>> = {
            let mut out = Vec::with_capacity(p);
            let mut off = 0;
            for len in segments.lens() {
                out.push(cbar.as_slice()[off..off + len].to_vec());
                off += len;
            }
            out
        };
        comm.try_reduce_scatter_with(segs, spec.rs_alg)
    })?;

    // The per-rank segments (the "evenly distributed across Π" final
    // state) concatenate to the packed triangle: stream them into the
    // lower triangle of C and mirror once.
    let mut c = Matrix::zeros(n1, n1);
    let segs = out.results.iter().map(Vec::as_slice);
    write_packed_lower(&mut c, 0, n1, Diag::Inclusive, segs);
    mirror_lower_to_upper(&mut c);
    Ok(SyrkRun {
        result: SyrkRunResult { c, cost: out.cost },
        traces: out.traces,
        recovery: None,
    })
}

#[cfg(test)]
mod tests {
    use crate::bounds::alg1d_predicted_cost;
    use crate::try_syrk_1d;
    use syrk_dense::{max_abs_diff, seeded_int_matrix, seeded_matrix, syrk_full_reference};
    use syrk_machine::CostModel;

    #[test]
    fn correct_for_various_shapes_and_p() {
        for &(n1, n2, p) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 2),
            (6, 24, 4),
            (9, 10, 3), // P ∤ n2: uneven column blocks
            (5, 3, 4),  // P > n2: some ranks own no columns
            (16, 64, 8),
        ] {
            let a = seeded_matrix::<f64>(n1, n2, (n1 * 100 + n2) as u64);
            let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
            let want = syrk_full_reference(&a);
            let err = max_abs_diff(&run.c, &want);
            assert!(err < 1e-10, "({n1},{n2},{p}): err {err}");
        }
    }

    #[test]
    fn integer_inputs_are_exact() {
        let a = seeded_int_matrix::<f64>(8, 16, 4, 7);
        let run = try_syrk_1d(&a, 4, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(max_abs_diff(&run.c, &syrk_full_reference(&a)), 0.0);
    }

    #[test]
    fn bandwidth_matches_eq3_exactly() {
        // Every rank sends Σ_{q≠me} |segment_q| words; with the even split
        // of n1(n1+1)/2 this is (1 − 1/P)·n1(n1+1)/2 ± rounding.
        let (n1, n2, p) = (20, 40, 5);
        let a = seeded_matrix::<f64>(n1, n2, 3);
        let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
        let predicted = alg1d_predicted_cost(n1, p);
        let measured = run.cost.max_words_sent() as f64;
        assert!(
            (measured - predicted).abs() <= 1.0,
            "measured {measured} vs eq(3) {predicted}"
        );
        // Latency: P − 1 messages per rank (pairwise exchange).
        assert_eq!(run.cost.max_messages(), (p - 1) as u64);
    }

    #[test]
    fn no_a_communication() {
        // The 1D algorithm must move only C contributions: total traffic
        // equals P·(1−1/P)·packed = (P−1)·packed words.
        let (n1, n2, p) = (10, 30, 3);
        let a = seeded_matrix::<f64>(n1, n2, 9);
        let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
        let packed = n1 * (n1 + 1) / 2;
        assert_eq!(run.cost.total_words(), ((p - 1) * packed) as u64);
    }

    #[test]
    fn flops_are_load_balanced_when_p_divides_n2() {
        let (n1, n2, p) = (12, 32, 4);
        let a = seeded_matrix::<f64>(n1, n2, 11);
        let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
        // Local SYRK flops identical across ranks; Reduce-Scatter adds
        // (P−1)·|segment| flops, and segments differ by at most one word.
        let fmax = run.cost.ranks.iter().map(|r| r.flops).max().unwrap();
        let fmin = run.cost.ranks.iter().map(|r| r.flops).min().unwrap();
        assert!(fmax - fmin <= (p - 1) as u64, "flop spread {}", fmax - fmin);
    }

    #[test]
    fn single_rank_does_no_communication() {
        let a = seeded_matrix::<f64>(7, 5, 2);
        let run = try_syrk_1d(&a, 1, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(run.cost.total_words(), 0);
        assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-12);
    }
}
