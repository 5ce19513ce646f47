//! Logical process grids over a communicator.

use crate::comm::Comm;

/// A logical `p1 × p2` grid over `P = p1·p2` ranks, as used by the 3D SYRK
/// algorithm (§5.3): rank `(k, ℓ)` has grid row `k ∈ [0, p1)` and grid
/// column `ℓ ∈ [0, p2)`. The world rank is `k + ℓ·p1` (column-major), so a
/// *slice* `Π_{*ℓ}` (fixed ℓ) is a contiguous block of ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessGrid {
    /// Number of grid rows (the dimension indexed by `k`).
    pub p1: usize,
    /// Number of grid columns (the dimension indexed by `ℓ`).
    pub p2: usize,
}

impl ProcessGrid {
    /// Create a grid; `p1·p2` must equal the communicator size it is used
    /// with (checked at [`ProcessGrid::split`] time).
    pub fn new(p1: usize, p2: usize) -> Self {
        assert!(p1 >= 1 && p2 >= 1, "grid dimensions must be positive");
        ProcessGrid { p1, p2 }
    }

    /// Total number of ranks in the grid.
    pub fn size(&self) -> usize {
        self.p1 * self.p2
    }

    /// Grid coordinates `(k, ℓ)` of a world rank.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.size());
        (rank % self.p1, rank / self.p1)
    }

    /// Split `comm` into this grid's communicators.
    ///
    /// Returns `(k, ℓ, slice, row)` where `slice` spans `Π_{*ℓ}` (the p1
    /// ranks sharing this rank's grid column ℓ — the "processor slice" that
    /// runs the 2D algorithm in Alg. 3) and `row` spans `Π_{k*}` (the p2
    /// ranks sharing grid row k — the reduction set in Alg. 3 line 5).
    ///
    /// A grid with a unit dimension is split without a message: `comm`
    /// itself is the slice (`p2 = 1`) or the row (`p1 = 1`) — a second
    /// handle on it, so split only one of the two afterwards — and the
    /// other communicator is this rank alone. Otherwise both are
    /// collective [`Comm::split`]s.
    pub fn split(&self, comm: &mut Comm) -> GridComms {
        assert_eq!(
            comm.size(),
            self.size(),
            "grid {}x{} does not tile a communicator of size {}",
            self.p1,
            self.p2,
            comm.size()
        );
        let (k, l) = self.coords(comm.rank());
        let (slice, row) = if self.p2 == 1 {
            (comm.handle(), comm.alone())
        } else if self.p1 == 1 {
            (comm.alone(), comm.handle())
        } else {
            (comm.split(l as u64, k), comm.split(k as u64, l))
        };
        debug_assert_eq!(slice.size(), self.p1);
        debug_assert_eq!(row.size(), self.p2);
        debug_assert_eq!(slice.rank(), k);
        debug_assert_eq!(row.rank(), l);
        GridComms { k, l, slice, row }
    }
}

/// The communicators a rank participates in on a [`ProcessGrid`].
pub struct GridComms {
    /// Grid row index `k ∈ [0, p1)`.
    pub k: usize,
    /// Grid column index `ℓ ∈ [0, p2)`.
    pub l: usize,
    /// Communicator over `Π_{*ℓ}`: all p1 ranks with the same ℓ.
    pub slice: Comm,
    /// Communicator over `Π_{k*}`: all p2 ranks with the same k.
    pub row: Comm,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MachineError;
    use crate::machine::Machine;

    /// World rank of grid coordinates `(k, ℓ)`: the inverse of `coords`.
    fn rank_of(g: &ProcessGrid, k: usize, l: usize) -> usize {
        assert!(k < g.p1 && l < g.p2);
        k + l * g.p1
    }

    #[test]
    fn coords_roundtrip() {
        let g = ProcessGrid::new(3, 4);
        for r in 0..12 {
            let (k, l) = g.coords(r);
            assert_eq!(rank_of(&g, k, l), r);
        }
        assert_eq!(g.coords(0), (0, 0));
        assert_eq!(g.coords(1), (1, 0)); // column-major: ranks advance down a slice
        assert_eq!(g.coords(3), (0, 1));
    }

    #[test]
    fn split_builds_slice_and_row_comms() {
        let g = ProcessGrid::new(2, 3);
        let out = Machine::new(6)
            .try_run(|mut comm| {
                let gc = g.split(&mut comm);
                // Sum world ranks within a group, gathered from every member.
                let sum = |group: &crate::comm::Comm| -> Result<f64, MachineError> {
                    let all = group.try_all_gather(vec![comm.rank() as f64])?;
                    Ok(all.iter().map(|b| b[0]).sum())
                };
                // Slices are {0,1}, {2,3}, {4,5}; rows are {0,2,4} and {1,3,5}.
                Ok((gc.k, gc.l, sum(&gc.slice)?, sum(&gc.row)?))
            })
            .unwrap();
        assert_eq!(out.results[0], (0, 0, 1.0, 6.0));
        assert_eq!(out.results[3], (1, 1, 5.0, 9.0));
        assert_eq!(out.results[4], (0, 2, 9.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn wrong_grid_size_panics() {
        // Every rank's split panics; the first is the run's typed error,
        // whose message is raised here.
        let err = Machine::new(5)
            .try_run(|mut comm| {
                ProcessGrid::new(2, 2).split(&mut comm);
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, MachineError::RankPanicked { .. }));
        panic!("{err}");
    }
}
