//! Decoupled subdomains and the recursive '+' split (paper §II.E).
//!
//! A decoupled region is an axis-aligned rectangle whose border is already
//! discretized by the graded marching rule. Splitting inserts a new point
//! at the center and marches four interior paths from it to the **existing
//! border points closest to the side midpoints** — no new points touch the
//! outer border, so neighbours' shared borders are never disturbed and no
//! inter-process communication is needed (§II.E).

use crate::march::march_path;
use crate::sizing::SizingFn;
use adm_geom::aabb::Aabb;
use adm_geom::point::Point2;
use std::ops::Range;

/// A decoupled subdomain: a CCW discretized border with the four
/// rectangle corners tracked by index. Vertices are stored in
/// counter-clockwise order so the border construction before refinement is
/// a single iteration (§II.E).
#[derive(Debug, Clone)]
pub struct Region {
    /// Border points, CCW, not closed (first point is not repeated).
    pub border: Vec<Point2>,
    /// Indices of the rectangle corners within `border`, in CCW order
    /// (SW, SE, NE, NW); `corner_idx[0] == 0`.
    pub corner_idx: [usize; 4],
}

impl Region {
    /// Builds a region from chained border pieces; `corners` are the four
    /// rectangle corners in CCW order starting at `border[0]`.
    pub fn new(border: Vec<Point2>, corner_idx: [usize; 4]) -> Self {
        debug_assert_eq!(corner_idx[0], 0);
        debug_assert!(corner_idx.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(corner_idx[3] < border.len());
        Region { border, corner_idx }
    }

    /// Bounding rectangle (from the corner points).
    pub fn bbox(&self) -> Aabb {
        let c0 = self.border[self.corner_idx[0]];
        let c2 = self.border[self.corner_idx[2]];
        Aabb::new(c0, c2)
    }

    /// Number of border points on side `k` (inclusive of both corners).
    pub fn side_len(&self, k: usize) -> usize {
        self.side_interior(k).len() + 2
    }

    /// The border indices strictly between side `k`'s two corners; side 3
    /// runs to the end of `border` (its far corner is index 0).
    fn side_interior(&self, k: usize) -> Range<usize> {
        let end = if k < 3 {
            self.corner_idx[k + 1]
        } else {
            self.border.len()
        };
        self.corner_idx[k] + 1..end
    }

    /// Estimated number of triangles a refinement to `sizing` will create
    /// (the subdomain cost used for decoupling decisions and load
    /// balancing).
    pub fn estimated_triangles(&self, sizing: &dyn SizingFn) -> f64 {
        let b = self.bbox();
        let n = 4;
        let mut est = 0.0;
        let cell = (b.width() / n as f64) * (b.height() / n as f64);
        for i in 0..n {
            for j in 0..n {
                let c = Point2::new(
                    b.min.x + (i as f64 + 0.5) * b.width() / n as f64,
                    b.min.y + (j as f64 + 0.5) * b.height() / n as f64,
                );
                est += cell / sizing.target_area(c).max(f64::MIN_POSITIVE);
            }
        }
        // A target "area" is one triangle's worth, but packing yields about
        // 2 triangles per unit quad of that area; keep the raw ratio (the
        // estimate is only used for relative balancing).
        est
    }

    /// Splits the region with a '+': a new center point plus four marched
    /// interior paths to the existing border points nearest each side's
    /// midpoint. Returns the four children (SW, SE, NE, NW order relative
    /// to the parent's corners).
    pub fn plus_split(&self, sizing: &dyn SizingFn) -> [Region; 4] {
        let b = self.bbox();
        let center = b.center();
        // Connection point per side: existing border point closest to the
        // side midpoint, excluding the side's corner endpoints.
        let mut conn: [usize; 4] = [0; 4];
        for (k, slot) in conn.iter_mut().enumerate() {
            let interior = self.side_interior(k);
            assert!(
                !interior.is_empty(),
                "side {k} has no interior border point to connect to"
            );
            let a = self.border[self.corner_idx[k]];
            let c = self.border[self.corner_idx[(k + 1) % 4]];
            let mid = a.midpoint(c);
            let best = interior
                .min_by(|&i, &j| {
                    self.border[i]
                        .distance_sq(mid)
                        .total_cmp(&self.border[j].distance_sq(mid))
                })
                .expect("interior point exists");
            *slot = best;
        }
        // Interior paths center -> connection point.
        let paths: [Vec<Point2>; 4] =
            std::array::from_fn(|k| march_path(center, self.border[conn[k]], sizing));

        // Child k: parent border from conn[k-1] to conn[k] (through corner
        // k), then rev(paths[k]) from conn[k] to center, then paths[k-1]
        // from center back toward conn[k-1] (exclusive both ends).
        std::array::from_fn(|k| {
            let prev = (k + 3) % 4;
            let mut border: Vec<Point2> = Vec::new();
            let mut corner_pos = [0usize; 4];
            // corner 0 of the child is conn[prev].
            corner_pos[0] = 0;
            // Walk the parent border cyclically from conn[prev] to conn[k].
            let n = self.border.len();
            let mut i = conn[prev];
            loop {
                border.push(self.border[i]);
                if i == self.corner_idx[k] {
                    corner_pos[1] = border.len() - 1;
                }
                if i == conn[k] {
                    break;
                }
                i = (i + 1) % n;
            }
            corner_pos[2] = border.len() - 1;
            // conn[k] -> center (skip conn[k], include center).
            for p in paths[k].iter().rev().skip(1) {
                border.push(*p);
            }
            corner_pos[3] = border.len() - 1; // center
                                              // center -> conn[prev] exclusive of both.
            let lp = paths[prev].len();
            for p in &paths[prev][1..lp.saturating_sub(1)] {
                border.push(*p);
            }
            Region::new(border, corner_pos)
        })
    }
}

/// `true` when the region can undergo a '+' split (every side has an
/// interior border point to connect to).
pub fn splittable(region: &Region) -> bool {
    (0..4).all(|k| region.side_len(k) >= 3)
}

/// Recursive decoupling (the paper decouples "based on the estimated
/// number of triangles for the subdomain"): a region splits while its
/// estimated triangle count exceeds `max_estimate`. The decision is *per
/// region* and therefore independent of execution order — the property
/// that lets the distributed driver decouple on any rank and still
/// produce the exact leaf set of the sequential run.
pub fn decouple_by_threshold(
    initial: Vec<Region>,
    max_estimate: f64,
    sizing: &dyn SizingFn,
) -> Vec<Region> {
    let mut leaves = Vec::new();
    let mut stack = initial;
    while let Some(r) = stack.pop() {
        if r.estimated_triangles(sizing) > max_estimate && splittable(&r) {
            stack.extend(r.plus_split(sizing));
        } else {
            leaves.push(r);
        }
    }
    leaves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::march::march_path;
    use crate::sizing::UniformH;
    use adm_geom::polygon::{is_ccw, is_simple, signed_area};

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    /// A discretized rectangle region.
    fn rect_region(min: Point2, max: Point2, sizing: &dyn SizingFn) -> Region {
        let (sw, se, ne, nw) = (min, p(max.x, min.y), max, p(min.x, max.y));
        let mut border = Vec::new();
        let mut corners = [0usize; 4];
        for (k, (a, b)) in [(sw, se), (se, ne), (ne, nw), (nw, sw)]
            .into_iter()
            .enumerate()
        {
            corners[k] = border.len();
            let chain = march_path(a, b, sizing);
            border.extend_from_slice(&chain[..chain.len() - 1]);
        }
        Region::new(border, corners)
    }

    #[test]
    fn rect_region_is_ccw_simple() {
        let s = UniformH(0.3);
        let r = rect_region(p(0.0, 0.0), p(4.0, 2.0), &s);
        assert!(is_ccw(&r.border));
        assert!(is_simple(&r.border));
        assert_eq!(r.border[r.corner_idx[0]], p(0.0, 0.0));
        assert_eq!(r.border[r.corner_idx[2]], p(4.0, 2.0));
    }

    #[test]
    fn plus_split_produces_four_tiling_children() {
        let s = UniformH(0.3);
        let r = rect_region(p(0.0, 0.0), p(4.0, 4.0), &s);
        let children = r.plus_split(&s);
        let mut total = 0.0;
        for c in &children {
            assert!(is_ccw(&c.border), "child not CCW");
            assert!(is_simple(&c.border), "child border self-intersects");
            total += signed_area(&c.border);
        }
        assert!((total - 16.0).abs() < 1e-9, "children do not tile: {total}");
    }

    #[test]
    fn plus_split_does_not_touch_outer_border() {
        let s = UniformH(0.4);
        let r = rect_region(p(0.0, 0.0), p(4.0, 4.0), &s);
        let before: std::collections::HashSet<(u64, u64)> = r
            .border
            .iter()
            .map(|q| (q.x.to_bits(), q.y.to_bits()))
            .collect();
        let children = r.plus_split(&s);
        for c in &children {
            for q in &c.border {
                let on_outer = q.x == 0.0 || q.x == 4.0 || q.y == 0.0 || q.y == 4.0;
                if on_outer {
                    assert!(
                        before.contains(&(q.x.to_bits(), q.y.to_bits())),
                        "new point {q:?} appeared on the outer border"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_internal_borders_are_identical() {
        let s = UniformH(0.3);
        let r = rect_region(p(0.0, 0.0), p(4.0, 4.0), &s);
        let children = r.plus_split(&s);
        // Points on the internal '+' (x == cx or y == cy, strictly inside)
        // must appear in exactly two children with identical bits.
        let mut counts: std::collections::HashMap<(u64, u64), usize> =
            std::collections::HashMap::new();
        for c in &children {
            for q in &c.border {
                let internal = (q.x > 0.0 && q.x < 4.0) && (q.y > 0.0 && q.y < 4.0);
                if internal {
                    *counts.entry((q.x.to_bits(), q.y.to_bits())).or_insert(0) += 1;
                }
            }
        }
        for (k, c) in &counts {
            let pt = Point2::new(f64::from_bits(k.0), f64::from_bits(k.1));
            if pt == p(2.0, 2.0) {
                assert_eq!(*c, 4, "center must be in all four children");
            } else {
                assert_eq!(*c, 2, "internal point {pt:?} in {c} children");
            }
        }
    }

    #[test]
    fn estimate_scales_with_sizing() {
        let coarse = UniformH(1.0);
        let fine = UniformH(0.3);
        let r = rect_region(p(0.0, 0.0), p(4.0, 4.0), &coarse);
        assert!(r.estimated_triangles(&fine) > 5.0 * r.estimated_triangles(&coarse));
    }

    #[test]
    fn decouple_by_threshold_bounds_every_leaf() {
        let s = UniformH(0.2);
        let r = rect_region(p(0.0, 0.0), p(8.0, 8.0), &s);
        let max_estimate = r.estimated_triangles(&s) / 16.0;
        let leaves = decouple_by_threshold(vec![r], max_estimate, &s);
        assert!(leaves.len() >= 16);
        let total: f64 = leaves.iter().map(|l| signed_area(&l.border)).sum();
        assert!((total - 64.0).abs() < 1e-9);
        // Every leaf is under the threshold or too small to split, and
        // the estimates are balanced: max/mean bounded.
        let ests: Vec<f64> = leaves.iter().map(|l| l.estimated_triangles(&s)).collect();
        for (l, &e) in leaves.iter().zip(&ests) {
            assert!(e <= max_estimate || !splittable(l), "leaf estimate {e}");
        }
        let max = ests.iter().cloned().fold(0.0, f64::max);
        let mean = ests.iter().sum::<f64>() / ests.len() as f64;
        assert!(max / mean < 4.0, "imbalance {max}/{mean}");
    }
}
