//! Sizing fields for the graded inviscid region.
//!
//! The same sizing function drives both the decoupling-path discretization
//! and Triangle's refinement area bound (paper §II.E), so the shared
//! borders are consistent with the interiors refined against them. Target
//! values are **areas** (Triangle's `-a` semantics).

use adm_geom::point::Point2;

/// A mesh-spacing function: target edge length at a point, with the
/// target *area* view the refinement stack consumes derived from it.
///
/// Contract: `h(p)` must be finite and strictly positive for every query
/// point inside the domain, and implementations must be `Sync` (queried
/// concurrently from refinement workers).
pub trait SizingFn: Sync {
    /// Target edge length at `p`.
    fn h(&self, p: Point2) -> f64;

    /// Target triangle area at `p`: equilateral-triangle area for edge
    /// length `h(p)`. Fields defined by area override this so the area is
    /// exact rather than round-tripped through `h`.
    fn target_area(&self, p: Point2) -> f64 {
        let h = self.h(p);
        EQUILATERAL * h * h
    }
}

impl<S: SizingFn + ?Sized> SizingFn for &S {
    fn h(&self, p: Point2) -> f64 {
        (**self).h(p)
    }

    fn target_area(&self, p: Point2) -> f64 {
        (**self).target_area(p)
    }
}

impl<S: SizingFn + ?Sized> SizingFn for Box<S> {
    fn h(&self, p: Point2) -> f64 {
        (**self).h(p)
    }

    fn target_area(&self, p: Point2) -> f64 {
        (**self).target_area(p)
    }
}

/// Uniform edge length everywhere.
#[derive(Debug, Clone, Copy)]
pub struct UniformH(pub f64);

impl SizingFn for UniformH {
    fn h(&self, _p: Point2) -> f64 {
        self.0
    }
}

/// Distance-graded sizing: triangles grow with distance from the body so
/// the exponentially-growing far field (30–50 chords, §II.E) stays cheap.
///
/// The target *edge length* grows linearly with distance,
/// `h(d) = h0 + rate * d`, hence the target area grows quadratically:
/// `A(d) = c * h(d)^2` with `c = sqrt(3)/4` (equilateral). Both are capped
/// at `max_area`.
#[derive(Debug, Clone)]
pub struct GradedSizing {
    /// Sample points on the body (sparse is fine; distance is min over
    /// them).
    pub body: Vec<Point2>,
    /// Edge length at the body.
    pub h0: f64,
    /// Edge-length growth per unit distance.
    pub rate: f64,
    /// Upper bound on the target area.
    pub max_area: f64,
}

impl GradedSizing {
    /// Builds a graded field from body sample points, keeping at most
    /// `max_samples` of them for query speed.
    pub fn new(body: &[Point2], h0: f64, rate: f64, max_area: f64, max_samples: usize) -> Self {
        assert!(h0 > 0.0 && rate >= 0.0 && max_area > 0.0);
        assert!(!body.is_empty());
        let stride = (body.len() / max_samples.max(1)).max(1);
        GradedSizing {
            body: body.iter().step_by(stride).copied().collect(),
            h0,
            rate,
            max_area,
        }
    }

    /// Distance from `p` to the nearest body sample.
    pub fn distance(&self, p: Point2) -> f64 {
        self.body
            .iter()
            .map(|&b| p.distance_sq(b))
            .fold(f64::INFINITY, f64::min)
            .sqrt()
    }
}

/// Equilateral area factor.
pub const EQUILATERAL: f64 = 0.433_012_701_892_219_3; // sqrt(3)/4

impl SizingFn for GradedSizing {
    /// Grows linearly with distance from the body samples and is capped
    /// where the area cap bites, matching the area field below.
    fn h(&self, p: Point2) -> f64 {
        let h = self.h0 + self.rate * self.distance(p);
        h.min((self.max_area / EQUILATERAL).sqrt())
    }

    fn target_area(&self, p: Point2) -> f64 {
        let h = self.h0 + self.rate * self.distance(p);
        (EQUILATERAL * h * h).min(self.max_area)
    }
}

/// Edge-length size `k` from the paper's equation (1):
/// `k = 1/2 * sqrt(A / sqrt(2))`, the termination-condition edge length of
/// Ruppert refinement for target area `A`. Decoupling-path segments sized
/// by `k` are never split by the independent refinements.
#[inline]
pub fn k_value(target_area: f64) -> f64 {
    0.5 * (target_area / std::f64::consts::SQRT_2).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn uniform_field() {
        let s = UniformH(0.5);
        assert_eq!(s.h(p(100.0, -3.0)), 0.5);
        assert_eq!(s.target_area(p(0.0, 0.0)), EQUILATERAL * 0.25);
        assert_eq!(s.target_area(p(100.0, -3.0)), EQUILATERAL * 0.25);
    }

    #[test]
    fn graded_grows_with_distance() {
        let s = GradedSizing::new(&[p(0.0, 0.0)], 0.01, 0.1, 1e9, 10);
        let near = s.target_area(p(0.1, 0.0));
        let far = s.target_area(p(10.0, 0.0));
        assert!(near < far);
        // Quadratic growth in h.
        let h_far = 0.01 + 0.1 * 10.0;
        assert!((far - EQUILATERAL * h_far * h_far).abs() < 1e-12);
    }

    #[test]
    fn graded_caps_at_max_area() {
        let s = GradedSizing::new(&[p(0.0, 0.0)], 0.01, 1.0, 2.0, 10);
        assert_eq!(s.target_area(p(1000.0, 0.0)), 2.0);
    }

    #[test]
    fn graded_subsamples_body() {
        let body: Vec<Point2> = (0..1000).map(|i| p(i as f64, 0.0)).collect();
        let s = GradedSizing::new(&body, 0.01, 0.1, 1e9, 50);
        assert!(s.body.len() <= 50);
        // Distance error bounded by the subsample stride.
        assert!(s.distance(p(500.3, 0.0)) <= 20.0);
    }

    #[test]
    fn k_value_formula() {
        // k = 0.5 * sqrt(A / sqrt(2)): for A = sqrt(2), k = 0.5.
        assert!((k_value(std::f64::consts::SQRT_2) - 0.5).abs() < 1e-15);
        // Monotone in A.
        assert!(k_value(1.0) < k_value(4.0));
        // k scales as sqrt(A): quadrupling A doubles k.
        assert!((k_value(4.0) / k_value(1.0) - 2.0).abs() < 1e-12);
    }
}
