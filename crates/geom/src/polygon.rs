//! Simple-polygon utilities: area, orientation, containment, simplicity.
//!
//! Subdomain borders in the decoupling stage are simple polygons stored in
//! counter-clockwise order (paper §II.E); these helpers validate and reason
//! about them.

use crate::point::Point2;
use crate::pslg::first_crossing;
use crate::segment::Segment;

/// Twice the signed area of the polygon (positive for counter-clockwise
/// vertex order), via the shoelace formula.
pub fn signed_area2(poly: &[Point2]) -> f64 {
    let n = poly.len();
    if n < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..n {
        let a = poly[i];
        let b = poly[(i + 1) % n];
        acc += a.x * b.y - b.x * a.y;
    }
    acc
}

/// Signed area (positive when counter-clockwise).
#[inline]
pub fn signed_area(poly: &[Point2]) -> f64 {
    0.5 * signed_area2(poly)
}

/// `true` when the polygon's vertices are in counter-clockwise order.
#[inline]
pub fn is_ccw(poly: &[Point2]) -> bool {
    signed_area2(poly) > 0.0
}

/// Point-in-polygon by the crossing-number (even–odd) rule. Points exactly
/// on the boundary are reported as inside.
pub fn contains_point(poly: &[Point2], p: Point2) -> bool {
    let n = poly.len();
    if n < 3 {
        return false;
    }
    // Boundary check first (exact).
    for i in 0..n {
        let s = Segment::new(poly[i], poly[(i + 1) % n]);
        if s.contains_point(p) {
            return true;
        }
    }
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        let (pi, pj) = (poly[i], poly[j]);
        if (pi.y > p.y) != (pj.y > p.y) {
            let x_cross = pj.x + (p.y - pj.y) / (pi.y - pj.y) * (pi.x - pj.x);
            if p.x < x_cross {
                inside = !inside;
            }
        }
        j = i;
    }
    inside
}

/// Centroid of the polygon (area-weighted). Returns the vertex average for
/// degenerate (zero-area) polygons.
pub fn centroid(poly: &[Point2]) -> Point2 {
    let a2 = signed_area2(poly);
    let n = poly.len();
    if n == 0 {
        return Point2::ORIGIN;
    }
    if a2.abs() < f64::MIN_POSITIVE {
        let (sx, sy) = poly
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        return Point2::new(sx / n as f64, sy / n as f64);
    }
    let mut cx = 0.0;
    let mut cy = 0.0;
    for i in 0..n {
        let p = poly[i];
        let q = poly[(i + 1) % n];
        let w = p.x * q.y - q.x * p.y;
        cx += (p.x + q.x) * w;
        cy += (p.y + q.y) * w;
    }
    Point2::new(cx / (3.0 * a2), cy / (3.0 * a2))
}

/// `true` when the closed polyline has no self-intersections: edges may
/// share endpoints only with their neighbours, and neighbours may not
/// cross. One [`first_crossing`] sweep, so an airfoil loop costs
/// `O(n log n)` rather than all `n^2 / 2` edge pairs.
pub fn is_simple(poly: &[Point2]) -> bool {
    let n = poly.len();
    if n < 3 {
        return false;
    }
    let edges: Vec<Segment> = (0..n)
        .map(|i| Segment::new(poly[i], poly[(i + 1) % n]))
        .collect();
    first_crossing(&edges, |i, j| {
        let adjacent = j == i + 1 || (i == 0 && j == n - 1);
        if adjacent {
            edges[i].properly_intersects(&edges[j])
        } else {
            edges[i].intersects(&edges[j])
        }
    })
    .is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn unit_square() -> Vec<Point2> {
        vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)]
    }

    #[test]
    fn area_and_orientation() {
        let sq = unit_square();
        assert_eq!(signed_area(&sq), 1.0);
        assert!(is_ccw(&sq));
        let mut cw = sq.clone();
        cw.reverse();
        assert_eq!(signed_area(&cw), -1.0);
        assert!(!is_ccw(&cw));
    }

    #[test]
    fn containment() {
        let sq = unit_square();
        assert!(contains_point(&sq, p(0.5, 0.5)));
        assert!(!contains_point(&sq, p(1.5, 0.5)));
        assert!(!contains_point(&sq, p(-0.1, 0.5)));
        // Boundary points count as inside.
        assert!(contains_point(&sq, p(0.0, 0.5)));
        assert!(contains_point(&sq, p(1.0, 1.0)));
    }

    #[test]
    fn containment_concave() {
        // L-shaped polygon.
        let l = vec![
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(2.0, 1.0),
            p(1.0, 1.0),
            p(1.0, 2.0),
            p(0.0, 2.0),
        ];
        assert!(contains_point(&l, p(0.5, 1.5)));
        assert!(contains_point(&l, p(1.5, 0.5)));
        assert!(!contains_point(&l, p(1.5, 1.5)));
    }

    #[test]
    fn centroid_of_square() {
        let c = centroid(&unit_square());
        assert!((c.x - 0.5).abs() < 1e-15);
        assert!((c.y - 0.5).abs() < 1e-15);
    }

    #[test]
    fn centroid_degenerate_falls_back_to_mean() {
        let line = vec![p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)];
        let c = centroid(&line);
        assert!((c.x - 1.0).abs() < 1e-15);
        assert!((c.y - 1.0).abs() < 1e-15);
    }

    #[test]
    fn simplicity() {
        assert!(is_simple(&unit_square()));
        // Bow-tie: self-intersecting.
        let bow = vec![p(0.0, 0.0), p(1.0, 1.0), p(1.0, 0.0), p(0.0, 1.0)];
        assert!(!is_simple(&bow));
    }
}
