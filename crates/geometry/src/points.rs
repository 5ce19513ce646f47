//! Finite point sets in Z³ and their axis projections.

use std::collections::HashSet;

/// A point of the 3-D iteration space. For SYRK, `(i, j, k)` indexes the
/// scalar multiplication `A[i,k]·A[j,k]` contributing to `C[i,j]`.
pub(crate) type Point3 = (i64, i64, i64);

/// A finite set of points in Z³.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointSet {
    points: HashSet<Point3>,
}

impl PointSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of points (duplicates collapse).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(points: impl IntoIterator<Item = Point3>) -> Self {
        PointSet {
            points: points.into_iter().collect(),
        }
    }

    /// Insert a point; returns `true` if it was new.
    pub fn insert(&mut self, p: Point3) -> bool {
        self.points.insert(p)
    }

    /// Whether `p` is a member.
    pub fn contains(&self, p: &Point3) -> bool {
        self.points.contains(p)
    }

    /// Cardinality `|V|`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterate over members.
    pub fn iter(&self) -> impl Iterator<Item = &Point3> {
        self.points.iter()
    }

    /// Projection in the i-direction: `φ_i(V) = {(j,k) : ∃i (i,j,k) ∈ V}`.
    pub fn proj_i(&self) -> HashSet<(i64, i64)> {
        self.points.iter().map(|&(_, j, k)| (j, k)).collect()
    }

    /// Projection in the j-direction: `φ_j(V) = {(i,k) : ∃j (i,j,k) ∈ V}`.
    pub fn proj_j(&self) -> HashSet<(i64, i64)> {
        self.points.iter().map(|&(i, _, k)| (i, k)).collect()
    }

    /// Projection in the k-direction: `φ_k(V) = {(i,j) : ∃k (i,j,k) ∈ V}`.
    pub fn proj_k(&self) -> HashSet<(i64, i64)> {
        self.points.iter().map(|&(i, j, _)| (i, j)).collect()
    }

    /// Whether every point satisfies `j < i` (the strict-lower-triangle
    /// premise of Lemma 3).
    pub(crate) fn is_strictly_lower(&self) -> bool {
        self.points.iter().all(|&(i, j, _)| j < i)
    }

    /// The symmetric closure `Ṽ = {(i,j,k) : (i,j,k) ∈ V or (j,i,k) ∈ V}`
    /// used in the proof of Lemma 3.
    pub fn symmetric_closure(&self) -> PointSet {
        let mut s = HashSet::with_capacity(2 * self.points.len());
        for &(i, j, k) in &self.points {
            s.insert((i, j, k));
            s.insert((j, i, k));
        }
        PointSet { points: s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_len() {
        let mut v = PointSet::new();
        assert!(v.is_empty());
        assert!(v.insert((1, 0, 0)));
        assert!(!v.insert((1, 0, 0)));
        assert_eq!(v.len(), 1);
        assert!(v.contains(&(1, 0, 0)));
    }

    #[test]
    fn projections_of_single_point() {
        let v = PointSet::from_iter([(3, 1, 7)]);
        assert_eq!(v.proj_i(), HashSet::from([(1, 7)]));
        assert_eq!(v.proj_j(), HashSet::from([(3, 7)]));
        assert_eq!(v.proj_k(), HashSet::from([(3, 1)]));
    }

    #[test]
    fn projections_collapse_fibers() {
        // A full line in the i-direction projects to one point under φ_i.
        let v = PointSet::from_iter((0..10).map(|i| (i, 2, 3)));
        assert_eq!(v.proj_i().len(), 1);
        assert_eq!(v.proj_j().len(), 10);
        assert_eq!(v.proj_k().len(), 10);
    }

    #[test]
    fn strictly_lower_detection() {
        assert!(PointSet::from_iter([(2, 1, 0), (5, 0, 3)]).is_strictly_lower());
        assert!(!PointSet::from_iter([(1, 1, 0)]).is_strictly_lower());
        assert!(!PointSet::from_iter([(0, 4, 2)]).is_strictly_lower());
        assert!(PointSet::new().is_strictly_lower());
    }

    #[test]
    fn symmetric_closure_doubles_strict_sets() {
        // Lemma 3 proof step: for V with j < i everywhere, |Ṽ| = 2|V|.
        let v = PointSet::from_iter([(2, 1, 0), (3, 1, 5), (4, 2, 5)]);
        let vt = v.symmetric_closure();
        assert_eq!(vt.len(), 2 * v.len());
        assert!(vt.contains(&(1, 2, 0)));
        assert!(vt.contains(&(2, 1, 0)));
    }

    #[test]
    fn symmetric_closure_fixes_diagonal() {
        let v = PointSet::from_iter([(1, 1, 0)]);
        assert_eq!(v.symmetric_closure().len(), 1);
    }
}
