//! Convex hulls via Andrew's monotone chain algorithm.
//!
//! The parallel triangulation (paper §II.D, Fig 7) needs the **lower convex
//! hull** of points that are already coordinate-sorted: the hull of the
//! flattened paraboloid projection *is* the dividing Delaunay path. Because
//! the input arrives sorted, the lower hull is computed in worst-case
//! linear time with one pass and a stack.

use crate::point::Point2;
use crate::predicates::orient2d_one;

/// Indices (into `points`) of the lower convex hull of a set that is
/// **already sorted** lexicographically by `(x, y)`.
///
/// The hull runs from the first point to the last; collinear interior
/// points are removed (only extreme points remain). Duplicated points are
/// tolerated. Runs in `O(n)`.
///
/// # Panics
/// Debug builds assert the input is sorted.
pub fn lower_hull_indices_sorted(points: &[Point2]) -> Vec<usize> {
    debug_assert!(
        points
            .windows(2)
            .all(|w| w[0].lex_cmp(w[1]) != std::cmp::Ordering::Greater),
        "input must be lexicographically sorted"
    );
    let n = points.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut hull: Vec<usize> = Vec::with_capacity(n / 2 + 2);
    for i in 0..n {
        // Pop while the chain makes a non-left (right or straight) turn:
        // "removing a point if it makes a right-hand turn" (Fig 7c), plus
        // collinear points which are not hull extremes.
        while hull.len() >= 2 {
            let a = points[hull[hull.len() - 2]];
            let b = points[hull[hull.len() - 1]];
            if orient2d_one(a, b, points[i]) <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        // Skip exact duplicates of the current chain end.
        if let Some(&last) = hull.last() {
            if points[last] == points[i] {
                continue;
            }
        }
        hull.push(i);
    }
    hull
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::orient2d;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn lower_hull_sorted(points: &[Point2]) -> Vec<Point2> {
        let hull = lower_hull_indices_sorted(points);
        hull.into_iter().map(|i| points[i]).collect()
    }

    #[test]
    fn lower_hull_of_v_shape() {
        let pts = [p(0.0, 1.0), p(1.0, 0.0), p(2.0, 1.0)];
        let h = lower_hull_indices_sorted(&pts);
        assert_eq!(h, vec![0, 1, 2]);
    }

    #[test]
    fn lower_hull_removes_interior_points() {
        // The middle point is above the chord and must be popped.
        let pts = [p(0.0, 0.0), p(1.0, 2.0), p(2.0, 0.0)];
        let h = lower_hull_indices_sorted(&pts);
        assert_eq!(h, vec![0, 2]);
    }

    #[test]
    fn lower_hull_collinear_keeps_extremes_only() {
        let pts = [p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0), p(3.0, 3.0)];
        let h = lower_hull_indices_sorted(&pts);
        assert_eq!(h, vec![0, 3]);
    }

    #[test]
    fn lower_hull_small_inputs() {
        assert!(lower_hull_indices_sorted(&[]).is_empty());
        assert_eq!(lower_hull_indices_sorted(&[p(1.0, 1.0)]), vec![0]);
        assert_eq!(
            lower_hull_indices_sorted(&[p(0.0, 0.0), p(1.0, 0.0)]),
            vec![0, 1]
        );
    }

    #[test]
    fn lower_hull_with_duplicates() {
        let pts = [
            p(0.0, 0.0),
            p(0.0, 0.0),
            p(1.0, -1.0),
            p(1.0, -1.0),
            p(2.0, 0.0),
        ];
        let h = lower_hull_sorted(&pts);
        assert_eq!(h, vec![p(0.0, 0.0), p(1.0, -1.0), p(2.0, 0.0)]);
    }

    #[test]
    fn lower_hull_is_convex_and_below_all_points() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut pts: Vec<Point2> = (0..200)
            .map(|_| p(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
            .collect();
        pts.sort_by(|a, b| a.lex_cmp(*b));
        let h = lower_hull_sorted(&pts);
        // Convexity: every consecutive triple turns left.
        for w in h.windows(3) {
            assert!(orient2d(w[0], w[1], w[2]) > 0.0);
        }
        // Support: no input point lies strictly below any hull edge.
        for w in h.windows(2) {
            for &q in &pts {
                assert!(
                    orient2d(w[0], w[1], q) >= 0.0,
                    "point {q:?} below hull edge {w:?}"
                );
            }
        }
        // Endpoints are the extreme input points.
        assert_eq!(h.first().copied().unwrap(), pts[0]);
        assert_eq!(h.last().copied().unwrap(), *pts.last().unwrap());
    }
}
