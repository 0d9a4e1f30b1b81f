//! Pluggable mesh-spacing functions (`hfun` style) with gradation control.
//!
//! The refinement stack consumes target *areas* (Triangle `-a`
//! semantics), but users think in target *edge lengths* h(x, y).
//! [`SizingFn`] (defined in `adm-decouple`, where the decoupling paths
//! consume it) is the one contract for both: a callable edge-length
//! field whose area view is derived (`A = sqrt(3)/4 · h²`, equilateral)
//! unless the field is defined by area. The near-body graded spacing
//! that drives the airfoil pipeline is one instance ([`GradedSizing`]),
//! so the general `.poly` front door and the airfoil path share one
//! sizing vocabulary.
//!
//! [`GradationLimited`] caps how fast any sizing function may vary:
//! Lipschitz-limiting against a set of anchor points bounds the size
//! ratio of adjacent elements by roughly `1 + g·h/d ≈ 1 + g` per element
//! step, the standard mesh-gradation control. The construction is a
//! fixed point — limiting an already-limited field changes nothing —
//! which the gradation property test gates.

use adm_geom::metric::MetricField;
use adm_geom::point::Point2;
use std::sync::Arc;

pub use adm_decouple::{GradedSizing, SizingFn, UniformH};

/// A reusable anchor table for [`GradationLimited`]: the anchor points
/// plus, per anchor, every other anchor sorted by distance.
///
/// Building the table is the quadratic part of gradation limiting
/// (`O(n² log n)` for the per-row sorts). Once built it can be shared
/// (`Arc`) across many limiter constructions — the adaptation loop
/// re-limits a fresh metric field every cycle against the *same* PSLG
/// anchors, so the table is paid once per adaptation run instead of
/// once per cycle. The distance-sorted rows also let [`Self::limit`]
/// prune: scanning a row in ascending distance, once
/// `min(values) + g·d` can no longer undercut the current best bound,
/// no farther anchor can either, so the sweep exits early while
/// computing the *exact* same minima as the full quadratic pass.
pub struct AnchorSet {
    pts: Vec<Point2>,
    /// Row-major `n × n`: row `i` holds all anchor indices sorted by
    /// distance from anchor `i` (ties broken by index).
    nbr_idx: Vec<u32>,
    /// Distances parallel to `nbr_idx`.
    nbr_dist: Vec<f64>,
}

impl AnchorSet {
    /// Builds the distance-sorted neighbor table. `O(n² log n)`.
    pub fn new(anchors: &[Point2]) -> Self {
        let n = anchors.len();
        let mut nbr_idx = Vec::with_capacity(n * n);
        let mut nbr_dist = Vec::with_capacity(n * n);
        let mut row: Vec<(f64, u32)> = Vec::with_capacity(n);
        for &p in anchors {
            row.clear();
            row.extend(
                anchors
                    .iter()
                    .enumerate()
                    .map(|(j, &q)| (p.distance(q), j as u32)),
            );
            row.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for &(d, j) in &row {
                nbr_idx.push(j);
                nbr_dist.push(d);
            }
        }
        AnchorSet {
            pts: anchors.to_vec(),
            nbr_idx,
            nbr_dist,
        }
    }

    /// Anchor count.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// `true` when there are no anchors.
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// The anchor points, in construction order.
    pub fn points(&self) -> &[Point2] {
        &self.pts
    }

    /// One Lipschitz regularization pass `out_i = min_j (v_j + g·d_ij)`
    /// over the cached table. Early-exits each row once no farther
    /// anchor can lower the bound; bitwise-identical to the full
    /// quadratic sweep (the pruned terms are provably not minima, and
    /// `min` is order-independent).
    pub fn limit(&self, values: &[f64], g: f64) -> Vec<f64> {
        assert_eq!(values.len(), self.pts.len());
        let n = self.pts.len();
        let vmin = values.iter().cloned().fold(f64::INFINITY, f64::min);
        (0..n)
            .map(|i| {
                let mut best = values[i];
                let row = i * n;
                for k in 0..n {
                    let d = self.nbr_dist[row + k];
                    if vmin + g * d >= best {
                        break;
                    }
                    let j = self.nbr_idx[row + k] as usize;
                    let bound = values[j] + g * d;
                    if bound < best {
                        best = bound;
                    }
                }
                best
            })
            .collect()
    }
}

/// Gradation limiter: the largest field below `base` whose value cannot
/// grow faster than `gradation` per unit distance across the anchor set.
///
/// Anchors are the points where small features pin the size down —
/// typically the input PSLG vertices. Limited anchor values are the
/// Lipschitz regularization `a_i = min_j (base.h(p_j) + g·d(p_i, p_j))`,
/// and a query point takes the smallest bound any anchor imposes on it:
/// `h(p) = min(base.h(p), min_i (a_i + g·d(p, p_i)))`.
///
/// Two properties follow from the min-form (and are property-tested):
/// the cap `h(p_i) ≤ h(p_j) + g·d(p_i, p_j)` holds for every anchor
/// pair, and limiting is idempotent — the anchor values are already
/// `g`-Lipschitz, so a second pass reproduces them.
pub struct GradationLimited<S: SizingFn> {
    base: S,
    anchors: Arc<AnchorSet>,
    limited: Vec<f64>,
    gradation: f64,
}

impl<S: SizingFn> GradationLimited<S> {
    /// Limits `base` against `anchors` with growth rate `gradation`
    /// (edge-length increase per unit distance; 0.1–0.5 is typical).
    /// Builds a fresh [`AnchorSet`]; use [`Self::with_anchor_set`] to
    /// amortize the table across repeated constructions.
    pub fn new(base: S, anchors: &[Point2], gradation: f64) -> Self {
        Self::with_anchor_set(base, Arc::new(AnchorSet::new(anchors)), gradation)
    }

    /// Limits `base` against a prebuilt (possibly shared) anchor table.
    /// Only the `O(n)`-ish pruned limiting pass runs here — the
    /// quadratic table build was paid when `anchors` was constructed.
    pub fn with_anchor_set(base: S, anchors: Arc<AnchorSet>, gradation: f64) -> Self {
        assert!(
            gradation > 0.0 && gradation.is_finite(),
            "gradation must be a positive finite growth rate"
        );
        let raw: Vec<f64> = anchors.points().iter().map(|&p| base.h(p)).collect();
        let limited = anchors.limit(&raw, gradation);
        GradationLimited {
            base,
            anchors,
            limited,
            gradation,
        }
    }

    /// The shared anchor table (hand to the next construction).
    pub fn anchor_set(&self) -> &Arc<AnchorSet> {
        &self.anchors
    }

    /// The growth rate this field is limited to.
    pub fn gradation(&self) -> f64 {
        self.gradation
    }
}

impl<S: SizingFn> SizingFn for GradationLimited<S> {
    fn h(&self, p: Point2) -> f64 {
        let mut best = self.base.h(p);
        for (a, &v) in self.anchors.points().iter().zip(&self.limited) {
            let bound = v + self.gradation * p.distance(*a);
            if bound < best {
                best = bound;
            }
        }
        best
    }
}

/// A [`MetricField`] as a scalar sizing function: `h(p)` is the edge
/// length the interpolated tensor demands along its most restrictive
/// eigendirection — the conservative isotropic consumption of an
/// anisotropic metric, which lets the existing Ruppert refinement
/// consume metric output unchanged.
pub struct MetricSizing {
    field: Arc<MetricField>,
}

impl MetricSizing {
    /// Wraps a (shared) metric field.
    pub fn new(field: Arc<MetricField>) -> Self {
        MetricSizing { field }
    }

    /// The underlying field.
    pub fn field(&self) -> &MetricField {
        &self.field
    }
}

impl SizingFn for MetricSizing {
    fn h(&self, p: Point2) -> f64 {
        self.field.h_at(p)
    }
}

/// The pipeline's composed sizing: the built-in graded near-body field,
/// optionally tightened pointwise by an extra [`SizingFn`] (the
/// adaptation loop's gradation-limited metric channel).
///
/// The contract that keeps every golden digest stable: with no extra
/// field the composition *is* the graded field — same call, same bits —
/// and with one, the target area is the pointwise minimum of the two
/// (a sizing can only demand more resolution, never less, so the
/// conforming-border floor built into the graded field survives).
pub struct ComposedSizing {
    graded: GradedSizing,
    extra: Option<Arc<dyn SizingFn + Send + Sync>>,
}

impl ComposedSizing {
    /// Composes the graded base with an optional extra constraint.
    pub fn new(graded: GradedSizing, extra: Option<Arc<dyn SizingFn + Send + Sync>>) -> Self {
        ComposedSizing { graded, extra }
    }
}

impl SizingFn for ComposedSizing {
    fn h(&self, p: Point2) -> f64 {
        let base = self.graded.h(p);
        match &self.extra {
            None => base,
            Some(s) => base.min(s.h(p)),
        }
    }

    fn target_area(&self, p: Point2) -> f64 {
        let base = self.graded.target_area(p);
        match &self.extra {
            None => base,
            Some(s) => base.min(s.target_area(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_decouple::EQUILATERAL;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn uniform_h_and_area() {
        let s = UniformH(2.0);
        assert_eq!(s.h(p(3.0, -1.0)), 2.0);
        assert!((s.target_area(p(0.0, 0.0)) - EQUILATERAL * 4.0).abs() < 1e-15);
    }

    #[test]
    fn graded_sizing_h_matches_area_field() {
        let s = GradedSizing::new(&[p(0.0, 0.0)], 0.01, 0.1, 1e9, 10);
        let q = p(3.0, 4.0);
        let h = s.h(q);
        assert!((h - (0.01 + 0.1 * 5.0)).abs() < 1e-12);
        assert!((s.target_area(q) - EQUILATERAL * h * h).abs() < 1e-12);
    }

    #[test]
    fn graded_sizing_h_respects_area_cap() {
        let s = GradedSizing::new(&[p(0.0, 0.0)], 0.01, 1.0, 2.0, 10);
        let far = s.h(p(1000.0, 0.0));
        assert!((EQUILATERAL * far * far - 2.0).abs() < 1e-12);
    }

    #[test]
    fn limiter_caps_a_jump() {
        // Base: tiny at the origin, huge everywhere else. The limiter
        // must pull nearby anchors down to tiny + g·d.
        struct Spike;
        impl SizingFn for Spike {
            fn h(&self, q: Point2) -> f64 {
                if q == p(0.0, 0.0) {
                    0.1
                } else {
                    10.0
                }
            }
        }
        let anchors = [p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)];
        let lim = GradationLimited::new(Spike, &anchors, 0.5);
        for (a, want) in anchors.iter().zip([0.1, 0.6, 1.1]) {
            assert!((lim.h(*a) - want).abs() < 1e-12);
        }
        // Query points interpolate the same bound.
        assert!((lim.h(p(0.5, 0.0)) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn limiter_never_raises() {
        let anchors = [p(0.0, 0.0), p(5.0, 0.0)];
        let base = UniformH(0.3);
        let lim = GradationLimited::new(base, &anchors, 0.2);
        for q in [p(0.0, 0.0), p(2.5, 0.0), p(7.0, 3.0)] {
            assert!(lim.h(q) <= UniformH(0.3).h(q) + 1e-15);
            assert!(lim.h(q) > 0.0);
        }
    }
}
