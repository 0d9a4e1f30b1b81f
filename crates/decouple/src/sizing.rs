//! Sizing fields for the graded inviscid region.
//!
//! The same sizing function drives both the decoupling-path discretization
//! and Triangle's refinement area bound (paper §II.E), so the shared
//! borders are consistent with the interiors refined against them. Target
//! values are **areas** (Triangle's `-a` semantics).

use adm_geom::aabb::Aabb;
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
///
/// The fields are private because `bbox` is an invariant over `body`: it
/// is the bounding box of exactly the kept samples.
#[derive(Debug, Clone)]
pub struct GradedSizing {
    /// Sample points on the body (sparse is fine; distance is min over
    /// them).
    body: Vec<Point2>,
    /// Bounding box of `body`. No sample is nearer a query than the box
    /// is, which gives the queries an exact early-out where the cap
    /// applies (see [`GradedSizing::edge_lower_bound`]).
    bbox: Aabb,
    /// Edge length at the body.
    h0: f64,
    /// Edge-length growth per unit distance.
    rate: f64,
    /// Upper bound on the target area.
    max_area: f64,
}

impl GradedSizing {
    /// Builds a graded field from body sample points, keeping at most
    /// `max_samples` of them for query speed.
    pub fn new(body: &[Point2], h0: f64, rate: f64, max_area: f64, max_samples: usize) -> Self {
        assert!(h0 > 0.0 && rate >= 0.0 && max_area > 0.0);
        assert!(!body.is_empty());
        let stride = (body.len() / max_samples.max(1)).max(1);
        let body: Vec<Point2> = body.iter().step_by(stride).copied().collect();
        let mut bbox = Aabb::empty();
        for &b in &body {
            bbox.expand(b);
        }
        GradedSizing {
            body,
            bbox,
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

    /// Uncapped edge length `h0 + rate * distance(p)`.
    fn edge(&self, p: Point2) -> f64 {
        self.h0 + self.rate * self.distance(p)
    }

    /// A lower bound on [`GradedSizing::edge`] from the distance to
    /// `bbox`, in O(1). It holds in floating point, not only in the
    /// reals: every sample lies in the box, so each per-axis gap to the
    /// box is at most that sample's, and rounding is monotone — so every
    /// later step (square, sum, minimum, root, `h0 + rate * d`) keeps the
    /// order. A capped bound therefore proves a capped exact value.
    fn edge_lower_bound(&self, p: Point2) -> f64 {
        let (lo, hi) = (self.bbox.min, self.bbox.max);
        let dx = (lo.x - p.x).max(p.x - hi.x).max(0.0);
        let dy = (lo.y - p.y).max(p.y - hi.y).max(0.0);
        self.h0 + self.rate * (dx * dx + dy * dy).sqrt()
    }
}

/// Equilateral area factor.
pub const EQUILATERAL: f64 = 0.433_012_701_892_219_3; // sqrt(3)/4

impl SizingFn for GradedSizing {
    /// Grows linearly with distance from the body samples and is capped
    /// where the area cap bites, matching the area field below.
    fn h(&self, p: Point2) -> f64 {
        let cap = (self.max_area / EQUILATERAL).sqrt();
        if self.edge_lower_bound(p) >= cap {
            return cap;
        }
        self.edge(p).min(cap)
    }

    /// Returns `max_area` without scanning the samples wherever the box
    /// bound already reaches the cap — almost all of a far field.
    fn target_area(&self, p: Point2) -> f64 {
        let lb = self.edge_lower_bound(p);
        if EQUILATERAL * lb * lb >= self.max_area {
            return self.max_area;
        }
        let h = self.edge(p);
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

    /// The plain scan the box bound must reproduce bit for bit: nearest
    /// sample by brute force, then the uncapped edge length.
    fn scan_edge(s: &GradedSizing, q: Point2) -> f64 {
        let d2 = s.body.iter().map(|&b| q.distance_sq(b));
        s.h0 + s.rate * d2.fold(f64::INFINITY, f64::min).sqrt()
    }

    fn scan_target_area(s: &GradedSizing, q: Point2) -> f64 {
        let h = scan_edge(s, q);
        (EQUILATERAL * h * h).min(s.max_area)
    }

    fn scan_h(s: &GradedSizing, q: Point2) -> f64 {
        scan_edge(s, q).min((s.max_area / EQUILATERAL).sqrt())
    }

    /// splitmix64, so every seeded body is reproducible.
    struct Rng(u64);
    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `n` points on a noisy unit-chord ellipse: an airfoil-like body.
    fn seeded_body(seed: u64, n: usize) -> Vec<Point2> {
        let mut r = Rng(seed);
        (0..n)
            .map(|_| {
                let t = std::f64::consts::TAU * r.unit();
                let wobble = 1.0 + 0.1 * (r.unit() - 0.5);
                p(0.5 + 0.5 * wobble * t.cos(), 0.06 * wobble * t.sin())
            })
            .collect()
    }

    /// The `k`-th float above (`k > 0`) or below `x`.
    fn ulps(x: f64, k: i64) -> f64 {
        let step = |x: f64, up: bool| {
            if x == 0.0 {
                let tiny = f64::from_bits(1);
                return if up { tiny } else { -tiny };
            }
            let b = x.to_bits();
            f64::from_bits(if (x > 0.0) == up { b + 1 } else { b - 1 })
        };
        (0..k.unsigned_abs()).fold(x, |x, _| step(x, k > 0))
    }

    /// Offsets around the cap radius: relative steps down to 1e-15, then
    /// single ulps.
    const REL: [f64; 11] = [
        -1e-3, -1e-6, -1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3,
    ];

    /// Queries where the early-out is decided: straight out from the
    /// samples that span the box faces, diagonally out from the box
    /// corners (all at the cap radius), on the faces themselves, in an
    /// annulus around the cap radius, and at the signed zeros.
    fn queries(s: &GradedSizing, seed: u64) -> Vec<Point2> {
        let lo = s
            .body
            .iter()
            .fold(p(f64::INFINITY, f64::INFINITY), |m, &b| m.min(b));
        let hi = s
            .body
            .iter()
            .fold(p(f64::NEG_INFINITY, f64::NEG_INFINITY), |m, &b| m.max(b));
        let cap = (s.max_area / EQUILATERAL).sqrt();
        let radius = if s.rate > 0.0 {
            ((cap - s.h0) / s.rate).max(0.0)
        } else {
            1.0
        };
        let mut out = Vec::new();
        let mut around = |base: Point2, dir: (f64, f64)| {
            for rel in REL {
                let r = radius * (1.0 + rel);
                let q = p(base.x + r * dir.0, base.y + r * dir.1);
                out.push(q);
                for k in [-3, -2, -1, 1, 2, 3] {
                    out.push(p(ulps(q.x, k), q.y));
                    out.push(p(q.x, ulps(q.y, k)));
                }
            }
        };
        for &b in &s.body {
            if b.x == lo.x {
                around(b, (-1.0, 0.0));
            }
            if b.x == hi.x {
                around(b, (1.0, 0.0));
            }
            if b.y == lo.y {
                around(b, (0.0, -1.0));
            }
            if b.y == hi.y {
                around(b, (0.0, 1.0));
            }
        }
        let d = std::f64::consts::FRAC_1_SQRT_2;
        for (corner, dir) in [
            (lo, (-d, -d)),
            (p(hi.x, lo.y), (d, -d)),
            (hi, (d, d)),
            (p(lo.x, hi.y), (-d, d)),
        ] {
            around(corner, dir);
        }
        out.extend([lo, p(hi.x, lo.y), hi, p(lo.x, hi.y)]);
        let mut r = Rng(seed);
        for _ in 0..200 {
            let (u, v) = (r.unit(), r.unit());
            let x = lo.x + u * (hi.x - lo.x);
            let y = lo.y + v * (hi.y - lo.y);
            out.extend([p(x, lo.y), p(x, hi.y), p(lo.x, y), p(hi.x, y)]);
            let t = std::f64::consts::TAU * r.unit();
            let rr = radius * (0.5 + r.unit()) + 0.5 * (hi.x - lo.x).max(hi.y - lo.y);
            let c = lo.midpoint(hi);
            out.push(p(c.x + rr * t.cos(), c.y + rr * t.sin()));
        }
        for x in [0.0, -0.0] {
            for y in [0.0, -0.0] {
                out.extend([p(x, y), p(x, lo.y), p(hi.x, y)]);
            }
        }
        out
    }

    fn assert_matches_scan(s: &GradedSizing, seed: u64) -> (usize, usize) {
        let (mut early, mut scanned) = (0, 0);
        for q in queries(s, seed) {
            let (got, want) = (s.target_area(q), scan_target_area(s, q));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "target_area at {q:?}: {got} vs {want}"
            );
            let (got, want) = (s.h(q), scan_h(s, q));
            assert_eq!(got.to_bits(), want.to_bits(), "h at {q:?}: {got} vs {want}");
            let lb = s.edge_lower_bound(q);
            if EQUILATERAL * lb * lb >= s.max_area {
                early += 1;
            } else {
                scanned += 1;
            }
        }
        (early, scanned)
    }

    #[test]
    fn box_bound_matches_the_plain_scan_bit_for_bit() {
        // (h0, rate, max_area): the inviscid_1m field, a coarse one, a
        // flat one and one capped everywhere.
        let fields = [
            (0.02, 0.12, 0.005),
            (0.05, 0.3, 1.0),
            (0.01, 0.0, 0.5),
            (1.0, 0.1, 0.01),
        ];
        let single = vec![p(0.3, -0.2)];
        let dups: Vec<Point2> = seeded_body(9, 40)
            .into_iter()
            .flat_map(|b| [b, b, b])
            .collect();
        let zeros = vec![p(-0.0, 0.0), p(1.0, -0.0), p(0.0, 0.5), p(0.5, -0.0)];
        let mut bodies: Vec<(Vec<Point2>, usize)> = vec![(single, 64), (dups, 64), (zeros, 64)];
        for (seed, n) in [(1, 1000), (2, 1000), (3, 257), (4, 64), (5, 7)] {
            bodies.push((seeded_body(seed, n), 64));
        }
        let (mut early, mut scanned) = (0, 0);
        for (i, (body, samples)) in bodies.iter().enumerate() {
            for &(h0, rate, max_area) in &fields {
                let s = GradedSizing::new(body, h0, rate, max_area, *samples);
                let (e, sc) = assert_matches_scan(&s, i as u64);
                early += e;
                scanned += sc;
            }
        }
        assert!(
            early > 1000 && scanned > 1000,
            "{early} early-outs, {scanned} scans"
        );
    }

    #[test]
    fn box_bound_is_tight_beside_the_face_samples() {
        // Straight out from a kept sample on a face of the box, that sample
        // is the nearest and the box gap is its gap exactly, so the bound
        // equals the scan: the box is that of the kept samples, not wider.
        for seed in 1..=4 {
            let s = GradedSizing::new(&seeded_body(seed, 1000), 0.02, 0.12, 0.005, 64);
            let (lo, hi) = (s.bbox.min, s.bbox.max);
            let mut checked = 0;
            for &b in &s.body {
                for (on_face, q) in [
                    (b.x == lo.x, p(b.x - 0.7, b.y)),
                    (b.x == hi.x, p(b.x + 0.7, b.y)),
                    (b.y == lo.y, p(b.x, b.y - 0.7)),
                    (b.y == hi.y, p(b.x, b.y + 0.7)),
                ] {
                    if on_face {
                        assert_eq!(s.edge_lower_bound(q), scan_edge(&s, q), "seed {seed} {q:?}");
                        checked += 1;
                    }
                }
            }
            assert!(checked >= 4, "seed {seed}: only {checked} face samples");
        }
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
