//! Anisotropic metric tensors and discrete metric fields.
//!
//! The adaptation loop (solve → estimate → remesh) communicates its
//! sizing demand as a *metric*: a 2×2 symmetric positive-definite tensor
//! `M` per vertex whose unit ball is the ideal element shape — edge
//! lengths are measured as `sqrt(eᵀ M e)` and an adapted mesh makes every
//! edge unit length in its local metric. [`Metric2`] is one tensor with
//! the closed-form symmetric eigendecomposition the estimator needs to
//! clamp Hessian eigenvalues; [`MetricField`] is the per-vertex discrete
//! field with the log-Euclidean interpolation rule (interpolate
//! `log(M)` entrywise, then exponentiate) that keeps interpolated
//! tensors SPD and swap-symmetric.
//!
//! Everything here is deterministic: queries visit grid cells and
//! candidate vertices in a fixed order, ties break on vertex index, and
//! [`MetricField::canonical_bytes`] gives a platform-independent byte
//! encoding (-0.0 normalized to +0.0, little-endian IEEE bits) so a
//! field can be content-addressed by downstream hashing.

use crate::aabb::Aabb;
use crate::point::Point2;

/// A 2×2 symmetric positive-definite tensor `[[a, b], [b, d]]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric2 {
    /// Top-left entry.
    pub a: f64,
    /// Off-diagonal entry (symmetric).
    pub b: f64,
    /// Bottom-right entry.
    pub d: f64,
}

impl Metric2 {
    /// The isotropic metric prescribing edge length `h` in every
    /// direction: `M = I / h²`.
    #[cfg(test)]
    fn isotropic(h: f64) -> Self {
        assert!(h > 0.0 && h.is_finite(), "isotropic metric needs h > 0");
        let l = 1.0 / (h * h);
        Metric2 { a: l, b: 0.0, d: l }
    }

    /// Eigendecomposition of the symmetric tensor: returns
    /// `(l1, l2, (c, s))` with `l1 >= l2` and `(c, s)` the unit
    /// eigenvector of `l1`. Closed-form and branch-stable: the
    /// eigenvector is built from whichever column of `M - l2·I` has the
    /// larger norm, so nearly-isotropic tensors degrade to the axis
    /// (1, 0) instead of a 0/0.
    pub fn eigen(&self) -> (f64, f64, (f64, f64)) {
        let half_tr = 0.5 * (self.a + self.d);
        let half_diff = 0.5 * (self.a - self.d);
        let disc = (half_diff * half_diff + self.b * self.b).sqrt();
        let l1 = half_tr + disc;
        let l2 = half_tr - disc;
        // (M - l2 I) v = 0 for the l2-eigenvector; its columns span the
        // l1-eigendirection.
        let (vx, vy) = if half_diff >= 0.0 {
            (half_diff + disc, self.b)
        } else {
            (self.b, disc - half_diff)
        };
        let n = (vx * vx + vy * vy).sqrt();
        let dir = if n > 0.0 {
            (vx / n, vy / n)
        } else {
            (1.0, 0.0)
        };
        (l1, l2, dir)
    }

    /// Rebuilds the tensor `R diag(l1, l2) Rᵀ` from eigenvalues and the
    /// unit eigenvector `(c, s)` of `l1`.
    pub fn from_eigen(l1: f64, l2: f64, (c, s): (f64, f64)) -> Self {
        Metric2 {
            a: c * c * l1 + s * s * l2,
            b: c * s * (l1 - l2),
            d: s * s * l1 + c * c * l2,
        }
    }

    /// Builds the metric from a (possibly indefinite) recovered Hessian:
    /// take absolute eigenvalues, scale by the interpolation-error
    /// budget `eps`, and clamp to the edge-length window
    /// `[h_min, h_max]` (i.e. eigenvalues into `[1/h_max², 1/h_min²]`).
    /// The result is SPD by construction for every finite input.
    pub fn from_hessian(hxx: f64, hxy: f64, hyy: f64, eps: f64, h_min: f64, h_max: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        assert!(
            0.0 < h_min && h_min <= h_max && h_max.is_finite(),
            "need 0 < h_min <= h_max"
        );
        let h = Metric2 {
            a: hxx,
            b: hxy,
            d: hyy,
        };
        let (l1, l2, dir) = h.eigen();
        let lo = 1.0 / (h_max * h_max);
        let hi = 1.0 / (h_min * h_min);
        let clamp = |l: f64| {
            let v = l.abs() / eps;
            if v.is_nan() {
                lo
            } else {
                v.clamp(lo, hi)
            }
        };
        Metric2::from_eigen(clamp(l1), clamp(l2), dir)
    }

    /// Matrix logarithm of the SPD tensor (a symmetric matrix, returned
    /// as its `(a, b, d)` entries).
    pub fn log(&self) -> (f64, f64, f64) {
        let (l1, l2, dir) = self.eigen();
        debug_assert!(l1 > 0.0 && l2 > 0.0, "log of a non-SPD metric");
        let m = Metric2::from_eigen(l1.ln(), l2.ln(), dir);
        (m.a, m.b, m.d)
    }

    /// Matrix exponential of a symmetric matrix `(a, b, d)`; the result
    /// is SPD.
    pub fn exp_sym(a: f64, b: f64, d: f64) -> Self {
        let m = Metric2 { a, b, d };
        let (l1, l2, dir) = m.eigen();
        Metric2::from_eigen(l1.exp(), l2.exp(), dir)
    }

    /// The edge length the metric demands along its most restrictive
    /// eigendirection: `1/sqrt(λ_max)`. This is the conservative scalar
    /// `h` an isotropic refiner should consume.
    pub fn h_min_dir(&self) -> f64 {
        let (l1, _, _) = self.eigen();
        1.0 / l1.sqrt()
    }

    /// `true` when the tensor is finite, symmetric by construction, and
    /// positive-definite (`a > 0`, `det > 0`).
    pub fn is_spd(&self) -> bool {
        self.a.is_finite()
            && self.b.is_finite()
            && self.d.is_finite()
            && self.a > 0.0
            && self.a * self.d - self.b * self.b > 0.0
    }

    /// Log-Euclidean weighted mean: `exp(Σ wᵢ log(Mᵢ) / Σ wᵢ)`. Weights
    /// must be non-negative with a positive sum. SPD in, SPD out.
    pub fn interpolate_log(items: &[(f64, Metric2)]) -> Metric2 {
        let mut wsum = 0.0;
        let (mut a, mut b, mut d) = (0.0, 0.0, 0.0);
        for &(w, m) in items {
            debug_assert!(w >= 0.0);
            let (la, lb, ld) = m.log();
            a += w * la;
            b += w * lb;
            d += w * ld;
            wsum += w;
        }
        assert!(wsum > 0.0, "interpolate_log needs a positive weight sum");
        Metric2::exp_sym(a / wsum, b / wsum, d / wsum)
    }
}

/// Normalizes an f64 for canonical encoding: -0.0 becomes +0.0 (the
/// same rule the kernel's arena uses for coordinate identity).
fn canonical_f64_bits(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v };
    v.to_bits()
}

/// Header of the canonical [`MetricField`] encoding (versioned so a
/// future layout change cannot collide with old digests).
pub const METRIC_FIELD_MAGIC: &[u8] = b"ADM-METRIC-v1\n";

/// A discrete per-vertex metric field with deterministic log-Euclidean
/// interpolation between sample points.
///
/// Queries use a uniform grid over the sample bounding box: the `k`
/// nearest samples (ties broken by vertex index) are blended with
/// inverse-distance-squared weights in log space. A query landing
/// exactly on a sample returns that sample's tensor bit-for-bit, so the
/// field interpolates its data.
pub struct MetricField {
    pts: Vec<Point2>,
    metrics: Vec<Metric2>,
    bbox: Aabb,
    nx: u32,
    ny: u32,
    cell_start: Vec<u32>,
    cell_items: Vec<u32>,
    /// Squared snap tolerance: queries within this distance² of a
    /// sample return the sample exactly.
    snap_sq: f64,
}

/// Number of nearest samples blended per query.
const KNN: usize = 6;

impl MetricField {
    /// Builds a field from parallel sample/tensor arrays. Every tensor
    /// must be SPD and every point finite; at least one sample is
    /// required (a sizing query must always have an answer).
    pub fn new(pts: Vec<Point2>, metrics: Vec<Metric2>) -> Self {
        assert_eq!(pts.len(), metrics.len(), "points/metrics length mismatch");
        assert!(!pts.is_empty(), "a metric field needs at least one sample");
        for (i, (p, m)) in pts.iter().zip(&metrics).enumerate() {
            assert!(p.is_finite(), "non-finite sample point {i}");
            assert!(m.is_spd(), "non-SPD metric at sample {i}: {m:?}");
        }
        let mut bbox = Aabb::empty();
        for &p in &pts {
            bbox.expand(p);
        }
        let n = pts.len();
        let side = ((n as f64 / 4.0).sqrt().ceil() as u32).clamp(1, 256);
        let (nx, ny) = (side, side);
        // Counting sort of samples into cells (CSR layout).
        let cell_of = |p: Point2| -> usize {
            let w = (bbox.max.x - bbox.min.x).max(f64::MIN_POSITIVE);
            let h = (bbox.max.y - bbox.min.y).max(f64::MIN_POSITIVE);
            let cx = (((p.x - bbox.min.x) / w) * nx as f64) as i64;
            let cy = (((p.y - bbox.min.y) / h) * ny as f64) as i64;
            let cx = cx.clamp(0, nx as i64 - 1) as usize;
            let cy = cy.clamp(0, ny as i64 - 1) as usize;
            cy * nx as usize + cx
        };
        let ncells = (nx * ny) as usize;
        let mut counts = vec![0u32; ncells + 1];
        for &p in &pts {
            counts[cell_of(p) + 1] += 1;
        }
        for c in 1..=ncells {
            counts[c] += counts[c - 1];
        }
        let mut items = vec![0u32; n];
        let mut cursor = counts.clone();
        for (i, &p) in pts.iter().enumerate() {
            let c = cell_of(p);
            items[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        let diag = bbox.min.distance(bbox.max).max(f64::MIN_POSITIVE);
        MetricField {
            pts,
            metrics,
            bbox,
            nx,
            ny,
            cell_start: counts,
            cell_items: items,
            snap_sq: (1e-12 * diag) * (1e-12 * diag),
        }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// `true` when the field has no samples (never, by construction —
    /// kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// The sample points.
    pub fn points(&self) -> &[Point2] {
        &self.pts
    }

    /// The sample tensors (parallel to [`Self::points`]).
    pub fn metrics(&self) -> &[Metric2] {
        &self.metrics
    }

    fn cell_coords(&self, p: Point2) -> (i64, i64) {
        let w = (self.bbox.max.x - self.bbox.min.x).max(f64::MIN_POSITIVE);
        let h = (self.bbox.max.y - self.bbox.min.y).max(f64::MIN_POSITIVE);
        let cx = (((p.x - self.bbox.min.x) / w) * self.nx as f64) as i64;
        let cy = (((p.y - self.bbox.min.y) / h) * self.ny as f64) as i64;
        (
            cx.clamp(0, self.nx as i64 - 1),
            cy.clamp(0, self.ny as i64 - 1),
        )
    }

    /// Visits every sample in expanding Chebyshev rings around `p`'s
    /// cell until at least `k` have been visited, then one extra ring (a
    /// nearer sample can hide one ring further out than the ring that
    /// first satisfied the count). The stop rule reads only the per-cell
    /// counts, so which samples are visited does not depend on `visit`.
    /// Ring cells are pairwise distinct and every sample lives in exactly
    /// one cell, so no sample is visited twice.
    fn visit_rings(&self, p: Point2, k: usize, mut visit: impl FnMut(u32)) {
        let (cx, cy) = self.cell_coords(p);
        let rmax = self.nx.max(self.ny) as i64;
        let mut cell = |x: i64, y: i64| -> usize {
            if x < 0 || y < 0 || x >= self.nx as i64 || y >= self.ny as i64 {
                return 0;
            }
            let c = (y * self.nx as i64 + x) as usize;
            let (s, e) = (self.cell_start[c] as usize, self.cell_start[c + 1] as usize);
            self.cell_items[s..e].iter().for_each(|&i| visit(i));
            e - s
        };
        let (mut seen, mut satisfied) = (0, false);
        for r in 0..=rmax {
            if r == 0 {
                seen += cell(cx, cy);
            } else {
                for x in (cx - r)..=(cx + r) {
                    seen += cell(x, cy - r);
                    seen += cell(x, cy + r);
                }
                for y in (cy - r + 1)..(cy + r) {
                    seen += cell(cx - r, y);
                    seen += cell(cx + r, y);
                }
            }
            if satisfied {
                break;
            }
            satisfied = seen >= k;
        }
    }

    /// Interpolated tensor at `p`: log-Euclidean inverse-distance blend
    /// of the `KNN` (6) nearest samples. Deterministic — candidate order
    /// is grid-fixed, ties break on the sample index. Allocation-free:
    /// the ring walk keeps the `k` smallest `(distance², index)` keys in
    /// a fixed array, the same set and order a full sort of every
    /// visited sample under that strict total order would keep.
    pub fn metric_at(&self, p: Point2) -> Metric2 {
        let k = KNN.min(self.pts.len());
        let less = |a: (f64, u32), b: (f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt();
        let mut best = [(f64::INFINITY, u32::MAX); KNN];
        let mut kept = 0;
        self.visit_rings(p, k, |i| {
            let key = (p.distance_sq(self.pts[i as usize]), i);
            let mut j = if kept < k {
                kept += 1;
                kept - 1
            } else if less(key, best[k - 1]) {
                k - 1
            } else {
                return;
            };
            while j > 0 && less(key, best[j - 1]) {
                best[j] = best[j - 1];
                j -= 1;
            }
            best[j] = key;
        });
        let (d0, nearest) = best[0];
        if d0 <= self.snap_sq {
            return self.metrics[nearest as usize];
        }
        let mut items = [(0.0, self.metrics[nearest as usize]); KNN];
        for (item, &(d2, i)) in items.iter_mut().zip(&best[..k]) {
            *item = (1.0 / d2, self.metrics[i as usize]);
        }
        Metric2::interpolate_log(&items[..k])
    }

    /// Scalar sizing view: the conservative edge length
    /// `1/sqrt(λ_max)` of the interpolated tensor at `p`.
    pub fn h_at(&self, p: Point2) -> f64 {
        self.metric_at(p).h_min_dir()
    }

    /// Canonical, platform-independent byte encoding: magic header,
    /// little-endian sample count, then per sample the canonicalized
    /// IEEE bits of `x, y, a, b, d` (-0.0 → +0.0). Two fields with the
    /// same samples encode identically; hashing these bytes gives a
    /// content address for the adaptation cycle that produced the field.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(METRIC_FIELD_MAGIC.len() + 8 + 40 * self.pts.len());
        out.extend_from_slice(METRIC_FIELD_MAGIC);
        out.extend_from_slice(&(self.pts.len() as u64).to_le_bytes());
        for (p, m) in self.pts.iter().zip(&self.metrics) {
            for v in [p.x, p.y, m.a, m.b, m.d] {
                out.extend_from_slice(&canonical_f64_bits(v).to_le_bytes());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn isotropic_roundtrip() {
        let m = Metric2::isotropic(0.25);
        assert!(m.is_spd());
        assert!((m.h_min_dir() - 0.25).abs() < 1e-14);
        assert!((1.0 / m.eigen().1.sqrt() - 0.25).abs() < 1e-14);
        let (l1, l2, _) = m.eigen();
        assert!((l1 - 16.0).abs() < 1e-12);
        assert!((l2 - 16.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_reconstructs_anisotropic_tensor() {
        // Eigenvalues 100 and 4, eigenvector at 30 degrees.
        let (c, s) = (30f64.to_radians().cos(), 30f64.to_radians().sin());
        let m = Metric2::from_eigen(100.0, 4.0, (c, s));
        let (l1, l2, (ec, es)) = m.eigen();
        assert!((l1 - 100.0).abs() < 1e-10);
        assert!((l2 - 4.0).abs() < 1e-10);
        // Eigenvector defined up to sign.
        let dot = (ec * c + es * s).abs();
        assert!((dot - 1.0).abs() < 1e-12, "eigvec off: {ec} {es}");
        assert!((m.h_min_dir() - 0.1).abs() < 1e-12);
        assert!((1.0 / m.eigen().1.sqrt() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_hessian_clamps_to_window() {
        // Indefinite Hessian with a huge and a tiny eigenvalue.
        let m = Metric2::from_hessian(1e9, 0.0, -1e-9, 1.0, 0.01, 10.0);
        assert!(m.is_spd());
        let (l1, l2, _) = m.eigen();
        assert!((l1 - 1.0 / (0.01 * 0.01)).abs() < 1e-6);
        assert!((l2 - 1.0 / (10.0 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn log_exp_roundtrip() {
        let m = Metric2::from_eigen(50.0, 2.0, (0.6, 0.8));
        let (a, b, d) = m.log();
        let back = Metric2::exp_sym(a, b, d);
        assert!((back.a - m.a).abs() < 1e-9 * m.a.abs());
        assert!((back.b - m.b).abs() < 1e-9 * m.a.abs());
        assert!((back.d - m.d).abs() < 1e-9 * m.a.abs());
    }

    #[test]
    fn interpolation_of_equal_tensors_is_identity() {
        let m = Metric2::from_eigen(9.0, 1.0, (1.0, 0.0));
        let out = Metric2::interpolate_log(&[(0.3, m), (0.7, m)]);
        assert!((out.a - m.a).abs() < 1e-12);
        assert!((out.b - m.b).abs() < 1e-12);
        assert!((out.d - m.d).abs() < 1e-12);
    }

    #[test]
    fn interpolation_stays_spd_between_extremes() {
        let m1 = Metric2::isotropic(1e-3);
        let m2 = Metric2::from_eigen(1.0, 1e-4, (0.0, 1.0));
        for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let out = Metric2::interpolate_log(&[(1.0 - t, m1), (t, m2)]);
            assert!(out.is_spd(), "not SPD at t={t}: {out:?}");
        }
    }

    #[test]
    fn field_returns_samples_exactly() {
        let pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0), p(1.0, 1.0)];
        let ms = vec![
            Metric2::isotropic(0.1),
            Metric2::isotropic(0.2),
            Metric2::isotropic(0.4),
            Metric2::from_eigen(25.0, 4.0, (0.8, 0.6)),
        ];
        let f = MetricField::new(pts.clone(), ms.clone());
        for (q, m) in pts.iter().zip(&ms) {
            let got = f.metric_at(*q);
            assert_eq!(got.a.to_bits(), m.a.to_bits());
            assert_eq!(got.b.to_bits(), m.b.to_bits());
            assert_eq!(got.d.to_bits(), m.d.to_bits());
        }
    }

    #[test]
    fn field_interpolates_between_samples() {
        let f = MetricField::new(
            vec![p(0.0, 0.0), p(1.0, 0.0)],
            vec![Metric2::isotropic(0.1), Metric2::isotropic(0.4)],
        );
        let h = f.h_at(p(0.5, 0.0));
        // Log-Euclidean IDW with equal weights: geometric mean of h.
        assert!(h > 0.1 && h < 0.4, "h = {h}");
        assert!((h - 0.2).abs() < 0.05, "h = {h}");
        // Far outside the hull the blend stays within the sample range.
        let far = f.h_at(p(100.0, 0.0));
        assert!((0.1 - 1e-12..=0.4 + 1e-12).contains(&far), "far = {far}");
    }

    #[test]
    fn field_queries_are_deterministic() {
        let n = 200;
        let pts: Vec<Point2> = (0..n)
            .map(|i| {
                let x = (i as f64 * 0.61803398875).fract();
                let y = (i as f64 * 0.38196601125).fract();
                p(x * 4.0, y * 3.0)
            })
            .collect();
        let ms: Vec<Metric2> = (0..n)
            .map(|i| Metric2::isotropic(0.05 + 0.001 * (i % 17) as f64))
            .collect();
        let f1 = MetricField::new(pts.clone(), ms.clone());
        let f2 = MetricField::new(pts, ms);
        for i in 0..50 {
            let q = p(0.13 * i as f64 - 1.0, 0.07 * i as f64 - 0.5);
            let (m1, m2) = (f1.metric_at(q), f2.metric_at(q));
            assert_eq!(m1.a.to_bits(), m2.a.to_bits());
            assert_eq!(m1.b.to_bits(), m2.b.to_bits());
            assert_eq!(m1.d.to_bits(), m2.d.to_bits());
        }
    }

    impl MetricField {
        /// The ring gather `metric_at` replaced: every candidate is
        /// collected into a `Vec` and the stop rule counts its length.
        fn candidates(&self, p: Point2, k: usize) -> Vec<u32> {
            let (cx, cy) = self.cell_coords(p);
            let rmax = self.nx.max(self.ny) as i64;
            let mut out: Vec<u32> = Vec::with_capacity(k * 2);
            let push_cell = |out: &mut Vec<u32>, x: i64, y: i64| {
                if x < 0 || y < 0 || x >= self.nx as i64 || y >= self.ny as i64 {
                    return;
                }
                let c = (y * self.nx as i64 + x) as usize;
                let (s, e) = (self.cell_start[c] as usize, self.cell_start[c + 1] as usize);
                out.extend_from_slice(&self.cell_items[s..e]);
            };
            let mut satisfied_at: Option<i64> = None;
            for r in 0..=rmax {
                if r == 0 {
                    push_cell(&mut out, cx, cy);
                } else {
                    for x in (cx - r)..=(cx + r) {
                        push_cell(&mut out, x, cy - r);
                        push_cell(&mut out, x, cy + r);
                    }
                    for y in (cy - r + 1)..(cy + r) {
                        push_cell(&mut out, cx - r, y);
                        push_cell(&mut out, cx + r, y);
                    }
                }
                match satisfied_at {
                    Some(r0) if r > r0 => break,
                    None if out.len() >= k => satisfied_at = Some(r),
                    _ => {}
                }
            }
            out
        }

        /// The sort-and-truncate query `metric_at` replaced: sort every
        /// ring candidate by `(distance², index)`, keep `k`. The
        /// bit-equality oracle.
        fn metric_at_sorted(&self, p: Point2) -> Metric2 {
            let k = KNN.min(self.pts.len());
            let mut cand = self.candidates(p, k);
            cand.sort_by(|&i, &j| {
                let di = p.distance_sq(self.pts[i as usize]);
                let dj = p.distance_sq(self.pts[j as usize]);
                di.total_cmp(&dj).then(i.cmp(&j))
            });
            cand.truncate(k);
            cand.dedup();
            let nearest = cand[0] as usize;
            if p.distance_sq(self.pts[nearest]) <= self.snap_sq {
                return self.metrics[nearest];
            }
            let items: Vec<(f64, Metric2)> = cand
                .iter()
                .map(|&i| {
                    let d2 = p.distance_sq(self.pts[i as usize]);
                    (1.0 / d2, self.metrics[i as usize])
                })
                .collect();
            Metric2::interpolate_log(&items)
        }
    }

    /// splitmix64 step: a seeded, dependency-free stream of `u64`s.
    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(s: &mut u64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (splitmix(s) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in the square `[lo, hi)²`.
    fn in_square(s: &mut u64, lo: f64, hi: f64) -> Point2 {
        p(uniform(s, lo, hi), uniform(s, lo, hi))
    }

    /// A field over `pts` with seeded anisotropic SPD tensors.
    fn seeded_field(s: &mut u64, pts: &[Point2]) -> MetricField {
        let ms = pts
            .iter()
            .map(|_| {
                let t = uniform(s, 0.0, std::f64::consts::PI);
                let l2 = uniform(s, 0.5, 4.0);
                Metric2::from_eigen(l2 * uniform(s, 1.0, 100.0), l2, (t.cos(), t.sin()))
            })
            .collect();
        MetricField::new(pts.to_vec(), ms)
    }

    fn assert_same_bits(f: &MetricField, q: Point2) {
        let (got, want) = (f.metric_at(q), f.metric_at_sorted(q));
        assert_eq!(got.a.to_bits(), want.a.to_bits(), "a at {q:?}");
        assert_eq!(got.b.to_bits(), want.b.to_bits(), "b at {q:?}");
        assert_eq!(got.d.to_bits(), want.d.to_bits(), "d at {q:?}");
    }

    #[test]
    fn selection_matches_sort_on_a_clustered_field() {
        // 95% of the samples in a box 1/50 of the bbox on a side: the
        // recovered-metric shape, where a few cells hold most samples.
        // The box straddles the grid lines at 0.5, so a query's own cell
        // can hold its k candidates while nearer ones sit one ring out.
        let mut s = 25;
        let (n, lo, hi) = (1_000, 0.49, 0.51);
        let mut pts = vec![p(0.0, 0.0), p(1.0, 1.0)];
        while pts.len() < n * 5 / 100 {
            pts.push(in_square(&mut s, 0.0, 1.0));
        }
        while pts.len() < n {
            pts.push(in_square(&mut s, lo, hi));
        }
        let f = seeded_field(&mut s, &pts);
        for i in 0..10_000 {
            let q = if i % 2 == 0 {
                in_square(&mut s, lo, hi)
            } else {
                in_square(&mut s, -0.5, 1.5)
            };
            assert_same_bits(&f, q);
        }
    }

    #[test]
    fn selection_matches_sort_on_samples_duplicates_and_tiny_fields() {
        let mut s = 7;
        // Exact-sample queries take the snap path.
        let pts: Vec<Point2> = (0..300).map(|_| in_square(&mut s, -2.0, 3.0)).collect();
        let f = seeded_field(&mut s, &pts);
        for &q in &pts {
            assert_same_bits(&f, q);
        }
        // Duplicate sample points: equal distances, the index decides.
        let dup: Vec<Point2> = (0..120)
            .map(|k| p((k / 3 % 5) as f64, (k / 15 % 3) as f64))
            .collect();
        let f = seeded_field(&mut s, &dup);
        for i in 0..500 {
            let q = if i % 3 == 0 {
                p((i % 5) as f64 + 0.5, (i % 3) as f64)
            } else {
                in_square(&mut s, -1.0, 6.0)
            };
            assert_same_bits(&f, q);
        }
        // Fewer samples than KNN.
        for n in 1..KNN {
            let pts: Vec<Point2> = (0..n).map(|_| in_square(&mut s, 0.0, 1.0)).collect();
            let f = seeded_field(&mut s, &pts);
            for &q in &pts {
                assert_same_bits(&f, q);
            }
            for _ in 0..200 {
                assert_same_bits(&f, in_square(&mut s, -1.0, 2.0));
            }
        }
    }

    #[test]
    fn selection_matches_sort_on_degenerate_boxes_and_far_queries() {
        let mut s = 11;
        // Zero-width bbox (every sample on the line x = 1), then a
        // zero-area one (every sample at one point).
        let line: Vec<Point2> = (0..200).map(|k| p(1.0, 0.025 * k as f64)).collect();
        for pts in [line, vec![p(2.0, -3.0); 20]] {
            let f = seeded_field(&mut s, &pts);
            for &q in &pts {
                assert_same_bits(&f, q);
            }
            for _ in 0..500 {
                assert_same_bits(&f, in_square(&mut s, -4.0, 9.0));
            }
        }
        // Queries far outside the bbox clamp to a border cell.
        let pts: Vec<Point2> = (0..500).map(|_| in_square(&mut s, 0.0, 1.0)).collect();
        let f = seeded_field(&mut s, &pts);
        for _ in 0..500 {
            let r = 10f64.powf(uniform(&mut s, 1.0, 12.0));
            let t = uniform(&mut s, 0.0, std::f64::consts::TAU);
            assert_same_bits(&f, p(r * t.cos(), r * t.sin()));
        }
    }

    #[test]
    fn canonical_bytes_normalize_negative_zero() {
        let f1 = MetricField::new(vec![p(0.0, 0.0)], vec![Metric2::isotropic(1.0)]);
        let f2 = MetricField::new(vec![p(-0.0, 0.0)], vec![Metric2::isotropic(1.0)]);
        assert_eq!(f1.canonical_bytes(), f2.canonical_bytes());
        assert!(f1.canonical_bytes().starts_with(METRIC_FIELD_MAGIC));
        // Different data, different bytes.
        let f3 = MetricField::new(vec![p(0.0, 0.0)], vec![Metric2::isotropic(2.0)]);
        assert_ne!(f1.canonical_bytes(), f3.canonical_bytes());
    }
}
