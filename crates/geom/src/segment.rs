//! Line segments and exact segment intersection.
//!
//! Intersection *detection* uses the robust predicates, so topological
//! decisions (does this ray cross that border?) are exact. Intersection
//! *points* are computed in floating point — they are only used to clamp
//! boundary-layer point insertion, where an ulp of error is harmless.

use crate::point::Point2;
use crate::predicates::orient2d;

/// A directed line segment from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Point2,
    pub b: Point2,
}

/// Result of intersecting two segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegIntersection {
    /// The segments do not touch.
    None,
    /// The segments cross (or touch) at a single point.
    Point(Point2),
    /// The segments are collinear and overlap along a sub-segment.
    Overlap(Point2, Point2),
}

impl Segment {
    /// Creates a segment from its endpoints.
    #[inline]
    pub const fn new(a: Point2, b: Point2) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point2 {
        self.a.midpoint(self.b)
    }

    /// Point at parameter `t` (0 at `a`, 1 at `b`).
    #[inline]
    pub fn at(&self, t: f64) -> Point2 {
        self.a.lerp(self.b, t)
    }

    /// `true` when `p` lies on the segment (inclusive of endpoints),
    /// decided with the exact orientation predicate plus bounding checks.
    pub fn contains_point(&self, p: Point2) -> bool {
        if orient2d(self.a, self.b, p) != 0.0 {
            return false;
        }
        let (minx, maxx) = minmax(self.a.x, self.b.x);
        let (miny, maxy) = minmax(self.a.y, self.b.y);
        p.x >= minx && p.x <= maxx && p.y >= miny && p.y <= maxy
    }

    /// Squared distance from `p` to the closest point on the segment.
    pub fn distance_sq_to_point(&self, p: Point2) -> f64 {
        let ab = self.a.to(self.b);
        let ap = self.a.to(p);
        let len_sq = ab.norm_sq();
        if len_sq == 0.0 {
            return ap.norm_sq();
        }
        let t = (ap.dot(ab) / len_sq).clamp(0.0, 1.0);
        p.distance_sq(self.at(t))
    }

    /// Distance from `p` to the closest point on the segment.
    #[inline]
    pub fn distance_to_point(&self, p: Point2) -> f64 {
        self.distance_sq_to_point(p).sqrt()
    }

    /// Exact test: do the two segments share at least one point?
    ///
    /// Uses only orientation signs — no constructed coordinates — so it is
    /// robust for touching, collinear, and shared-endpoint configurations.
    pub fn intersects(&self, other: &Segment) -> bool {
        let [d1, d2, d3, d4] = self.cross_signs(other);

        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        (d1 == 0.0 && other.contains_point_collinear(self.a))
            || (d2 == 0.0 && other.contains_point_collinear(self.b))
            || (d3 == 0.0 && self.contains_point_collinear(other.a))
            || (d4 == 0.0 && self.contains_point_collinear(other.b))
    }

    /// Exact test: do the segments cross at a point interior to **both**?
    /// Touching at endpoints or collinear overlap does not count.
    pub fn properly_intersects(&self, other: &Segment) -> bool {
        let [d1, d2, d3, d4] = self.cross_signs(other);
        ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    }

    /// The four orientation signs every intersection query starts from
    /// (`self` endpoints against `other`, then `other` endpoints against
    /// `self`).
    #[inline]
    fn cross_signs(&self, other: &Segment) -> [f64; 4] {
        [
            orient2d(other.a, other.b, self.a),
            orient2d(other.a, other.b, self.b),
            orient2d(self.a, self.b, other.a),
            orient2d(self.a, self.b, other.b),
        ]
    }

    /// Bounding-range containment assuming `p` is already known collinear.
    #[inline]
    fn contains_point_collinear(&self, p: Point2) -> bool {
        let (minx, maxx) = minmax(self.a.x, self.b.x);
        let (miny, maxy) = minmax(self.a.y, self.b.y);
        p.x >= minx && p.x <= maxx && p.y >= miny && p.y <= maxy
    }

    /// Full intersection classification with a constructed point for the
    /// crossing case. Detection is exact; the crossing coordinates carry
    /// ordinary floating-point rounding.
    pub fn intersection(&self, other: &Segment) -> SegIntersection {
        let [d1, d2, d3, d4] = self.cross_signs(other);

        // Collinear configurations.
        if d1 == 0.0 && d2 == 0.0 && d3 == 0.0 && d4 == 0.0 {
            return self.collinear_overlap(other);
        }

        let proper = ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0));
        if proper {
            // Solve for the crossing parameter on `self` using the signed
            // areas, which is numerically stable for proper crossings.
            let t = d1 / (d1 - d2);
            return SegIntersection::Point(self.at(t));
        }

        // Endpoint-touching cases.
        if d1 == 0.0 && other.contains_point_collinear(self.a) {
            return SegIntersection::Point(self.a);
        }
        if d2 == 0.0 && other.contains_point_collinear(self.b) {
            return SegIntersection::Point(self.b);
        }
        if d3 == 0.0 && self.contains_point_collinear(other.a) {
            return SegIntersection::Point(other.a);
        }
        if d4 == 0.0 && self.contains_point_collinear(other.b) {
            return SegIntersection::Point(other.b);
        }
        SegIntersection::None
    }

    /// Overlap of two segments already known to be collinear.
    fn collinear_overlap(&self, other: &Segment) -> SegIntersection {
        // Project onto the dominant axis to order the endpoints.
        let dx = (self.b.x - self.a.x)
            .abs()
            .max((other.b.x - other.a.x).abs());
        let dy = (self.b.y - self.a.y)
            .abs()
            .max((other.b.y - other.a.y).abs());
        let key = |p: Point2| if dx >= dy { p.x } else { p.y };

        let (s0, s1) = order_by(self.a, self.b, key);
        let (o0, o1) = order_by(other.a, other.b, key);
        let lo = if key(s0) >= key(o0) { s0 } else { o0 };
        let hi = if key(s1) <= key(o1) { s1 } else { o1 };
        if key(lo) > key(hi) {
            SegIntersection::None
        } else if key(lo) == key(hi) {
            SegIntersection::Point(lo)
        } else {
            SegIntersection::Overlap(lo, hi)
        }
    }
}

#[inline]
fn minmax(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[inline]
fn order_by(a: Point2, b: Point2, key: impl Fn(Point2) -> f64) -> (Point2, Point2) {
    if key(a) <= key(b) {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point2::new(ax, ay), Point2::new(bx, by))
    }

    #[test]
    fn proper_crossing() {
        let s = seg(0.0, 0.0, 1.0, 1.0);
        let t = seg(0.0, 1.0, 1.0, 0.0);
        assert!(s.intersects(&t));
        assert!(s.properly_intersects(&t));
        match s.intersection(&t) {
            SegIntersection::Point(p) => {
                assert!((p.x - 0.5).abs() < 1e-15);
                assert!((p.y - 0.5).abs() < 1e-15);
            }
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn disjoint() {
        let s = seg(0.0, 0.0, 1.0, 0.0);
        let t = seg(0.0, 1.0, 1.0, 1.0);
        assert!(!s.intersects(&t));
        assert_eq!(s.intersection(&t), SegIntersection::None);
    }

    #[test]
    fn shared_endpoint_is_improper() {
        let s = seg(0.0, 0.0, 1.0, 0.0);
        let t = seg(1.0, 0.0, 2.0, 1.0);
        assert!(s.intersects(&t));
        assert!(!s.properly_intersects(&t));
        assert_eq!(
            s.intersection(&t),
            SegIntersection::Point(Point2::new(1.0, 0.0))
        );
    }

    #[test]
    fn t_junction_touch() {
        let s = seg(0.0, 0.0, 2.0, 0.0);
        let t = seg(1.0, 0.0, 1.0, 1.0);
        assert!(s.intersects(&t));
        assert!(!s.properly_intersects(&t));
        assert_eq!(
            s.intersection(&t),
            SegIntersection::Point(Point2::new(1.0, 0.0))
        );
    }

    #[test]
    fn collinear_overlap() {
        let s = seg(0.0, 0.0, 2.0, 0.0);
        let t = seg(1.0, 0.0, 3.0, 0.0);
        assert!(s.intersects(&t));
        match s.intersection(&t) {
            SegIntersection::Overlap(a, b) => {
                assert_eq!(a, Point2::new(1.0, 0.0));
                assert_eq!(b, Point2::new(2.0, 0.0));
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn collinear_touching_at_point() {
        let s = seg(0.0, 0.0, 1.0, 0.0);
        let t = seg(1.0, 0.0, 2.0, 0.0);
        assert_eq!(
            s.intersection(&t),
            SegIntersection::Point(Point2::new(1.0, 0.0))
        );
    }

    #[test]
    fn collinear_disjoint() {
        let s = seg(0.0, 0.0, 1.0, 0.0);
        let t = seg(2.0, 0.0, 3.0, 0.0);
        assert!(!s.intersects(&t));
        assert_eq!(s.intersection(&t), SegIntersection::None);
    }

    #[test]
    fn vertical_collinear_overlap() {
        let s = seg(0.0, 0.0, 0.0, 2.0);
        let t = seg(0.0, 1.0, 0.0, 5.0);
        match s.intersection(&t) {
            SegIntersection::Overlap(a, b) => {
                assert_eq!(a, Point2::new(0.0, 1.0));
                assert_eq!(b, Point2::new(0.0, 2.0));
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn contains_point() {
        let s = seg(0.0, 0.0, 2.0, 2.0);
        assert!(s.contains_point(Point2::new(1.0, 1.0)));
        assert!(s.contains_point(Point2::new(0.0, 0.0)));
        assert!(!s.contains_point(Point2::new(3.0, 3.0)));
        assert!(!s.contains_point(Point2::new(1.0, 1.0 + 1e-12)));
    }

    #[test]
    fn point_distance() {
        let s = seg(0.0, 0.0, 2.0, 0.0);
        assert_eq!(s.distance_to_point(Point2::new(1.0, 3.0)), 3.0);
        assert_eq!(s.distance_to_point(Point2::new(-3.0, 4.0)), 5.0);
        assert_eq!(s.distance_to_point(Point2::new(1.0, 0.0)), 0.0);
    }

    #[test]
    fn near_miss_is_exact() {
        // Segment endpoints exactly on the line of another segment but just
        // past the end: must not report an intersection.
        let s = seg(0.0, 0.0, 1.0, 1.0);
        let t = seg(1.0 + f64::EPSILON * 2.0, 1.0 + f64::EPSILON * 2.0, 2.0, 0.0);
        assert!(!s.intersects(&t));
    }
}
