//! Triangle block partitions from affine planes over GF(q).
//!
//! §5.2.1 notes that prime `c` is "a sufficient but not necessary
//! condition" for a valid triangle block partitioning. The structural
//! requirement is exactly an *affine plane of order c*: `c² + c` lines of
//! `c` points each over `c²` points, with every pair of points on exactly
//! one line — lines become row block sets `R_k` and the pair-coverage
//! property is precisely "every off-diagonal block owned exactly once".
//! Affine planes exist for every prime power, so this module extends the
//! paper's distribution to `c ∈ {4, 8, 9, 16, 25, 27, …}` (processor
//! counts `P = 20, 72, 90, 272, …` that the cyclic construction cannot
//! serve).

use super::gf::Gf;

/// The line sets of the affine plane AG(2, q): `q² + q` lines, each a
/// sorted set of `q` point indices in `0..q²` (point `(x, y) ↦ x·q + y`).
/// Returns `None` if GF(q) is unavailable (q not a supported prime power).
pub fn affine_plane_lines(q: usize) -> Option<Vec<Vec<usize>>> {
    let gf = Gf::new(q)?;
    let mut lines = Vec::with_capacity(q * q + q);
    // Sloped lines y = a·x + b for a, b ∈ GF(q).
    for a in 0..q {
        for b in 0..q {
            let mut line: Vec<usize> = (0..q).map(|x| x * q + gf.add(gf.mul(a, x), b)).collect();
            line.sort_unstable();
            lines.push(line);
        }
    }
    // Vertical lines x = v.
    for v in 0..q {
        lines.push((0..q).map(|y| v * q + y).collect());
    }
    Some(lines)
}

/// Assign each point (diagonal block) to exactly one line through it,
/// with no line taking more than one point — a perfect matching of the
/// `q²` points into the `q² + q` lines (Kuhn's augmenting-path
/// algorithm; the incidence structure always admits one by Hall's
/// theorem since every point lies on `q + 1` lines and every line holds
/// `q` points).
pub(crate) fn match_diagonals(q: usize, lines: &[Vec<usize>]) -> Vec<Option<usize>> {
    let num_points = q * q;
    // lines_of[pt] = indices of lines containing pt.
    let mut lines_of: Vec<Vec<usize>> = vec![Vec::new(); num_points];
    for (k, line) in lines.iter().enumerate() {
        for &pt in line {
            lines_of[pt].push(k);
        }
    }
    let mut line_taken: Vec<Option<usize>> = vec![None; lines.len()];

    fn try_assign(
        pt: usize,
        lines_of: &[Vec<usize>],
        line_taken: &mut [Option<usize>],
        visited: &mut [bool],
    ) -> bool {
        for &k in &lines_of[pt] {
            if visited[k] {
                continue;
            }
            visited[k] = true;
            match line_taken[k] {
                None => {
                    line_taken[k] = Some(pt);
                    return true;
                }
                Some(other) => {
                    if try_assign(other, lines_of, line_taken, visited) {
                        line_taken[k] = Some(pt);
                        return true;
                    }
                }
            }
        }
        false
    }

    for pt in 0..num_points {
        let mut visited = vec![false; lines.len()];
        let ok = try_assign(pt, &lines_of, &mut line_taken, &mut visited);
        assert!(
            ok,
            "no diagonal matching for point {pt} (should be impossible)"
        );
    }
    // Invert: d[k] = the point assigned to line k.
    line_taken
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_plane(q: usize) {
        let lines = affine_plane_lines(q).unwrap_or_else(|| panic!("AG(2,{q})"));
        assert_eq!(lines.len(), q * q + q);
        for line in &lines {
            assert_eq!(line.len(), q);
        }
        // Every pair of points on exactly one line.
        let mut pair_count = vec![0u8; q * q * q * q];
        for line in &lines {
            for (a, &x) in line.iter().enumerate() {
                for &y in &line[..a] {
                    pair_count[x * q * q + y] += 1;
                }
            }
        }
        for x in 0..q * q {
            for y in 0..x {
                assert_eq!(pair_count[x * q * q + y], 1, "pair ({x},{y}) in AG(2,{q})");
            }
        }
    }

    #[test]
    fn planes_over_prime_fields() {
        for q in [2usize, 3, 5, 7] {
            check_plane(q);
        }
    }

    #[test]
    fn planes_over_prime_power_fields() {
        for q in [4usize, 8, 9] {
            check_plane(q);
        }
    }

    #[test]
    fn unsupported_orders_return_none() {
        assert!(affine_plane_lines(6).is_none());
        assert!(affine_plane_lines(10).is_none());
    }

    #[test]
    fn diagonal_matching_saturates_points() {
        for q in [2usize, 3, 4, 5, 8, 9] {
            let lines = affine_plane_lines(q).unwrap();
            let d = match_diagonals(q, &lines);
            // Every point assigned exactly once; every line ≤ once; the
            // assigned line contains its point.
            let mut seen = vec![false; q * q];
            for (k, pt) in d.iter().enumerate() {
                if let Some(pt) = pt {
                    assert!(!seen[*pt], "q={q}: point {pt} assigned twice");
                    seen[*pt] = true;
                    assert!(lines[k].contains(pt), "q={q}: line {k} lacks its point");
                }
            }
            assert!(seen.iter().all(|&s| s), "q={q}: unassigned point");
            // Exactly q lines carry no diagonal (same count as the paper's
            // construction: c processors own no diagonal block).
            assert_eq!(d.iter().filter(|p| p.is_none()).count(), q);
        }
    }
}
