//! Boundary-layer point insertion along rays (paper §II.C).
//!
//! Each process inserts points along its rays according to the growth
//! function, stopping at the ray's intersection clamp or when the local
//! triangles would become isotropic — the layer thickness catches up with
//! the tangential spacing to the neighboring rays — providing the smooth
//! transition into the unstructured inviscid region (Figure 5).

use crate::growth::GrowthSpec;
use crate::rays::Ray;
use adm_geom::point::Point2;

/// Controls for point insertion.
#[derive(Debug, Clone, Copy)]
pub struct InsertParams {
    /// Stop when the next layer thickness exceeds `iso_factor` times the
    /// local tangential spacing (1.0 = stop at unit aspect ratio).
    pub iso_factor: f64,
    /// Hard cap on layers per ray (safety).
    pub max_layers: usize,
}

impl Default for InsertParams {
    fn default() -> Self {
        InsertParams {
            iso_factor: 1.0,
            max_layers: 10_000,
        }
    }
}

/// Per-ray insertion result, stored contiguously (paper §III: coordinates
/// are communicated as a flat array because the structured ordering is
/// implicitly known).
#[derive(Debug, Clone, Default)]
pub struct LayerPoints {
    /// All inserted points, ray-major (ray 0's points, then ray 1's, ...).
    /// Ray origins (surface points) are **not** included.
    pub points: Vec<Point2>,
    /// CSR offsets: points of ray `i` live in
    /// `points[offsets[i]..offsets[i+1]]`.
    pub offsets: Vec<usize>,
}

impl LayerPoints {
    /// Points of ray `i`.
    pub fn ray_points(&self, i: usize) -> &[Point2] {
        &self.points[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of rays.
    pub fn num_rays(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Tip of ray `i`: its outermost inserted point, or `None` if the ray
    /// received no points.
    pub fn tip(&self, i: usize) -> Option<Point2> {
        self.ray_points(i).last().copied()
    }
}

/// Inserts points along every ray. Rays must be in surface order (the
/// isotropy test uses the neighbors at each height).
pub fn insert_points(rays: &[Ray], growth: &GrowthSpec, params: &InsertParams) -> LayerPoints {
    let n = rays.len();
    let mut out = LayerPoints {
        points: Vec::with_capacity(4 * n),
        offsets: Vec::with_capacity(n + 1),
    };
    out.offsets.push(0);
    for i in 0..n {
        let r = &rays[i];
        let prev = &rays[(i + n - 1) % n];
        let next = &rays[(i + 1) % n];
        // Fan rays share their origin with a neighbor, so their tangential
        // spacing near the wall is below the first layer thickness; the
        // isotropy stop does not apply to them — fans fill the wake up to
        // their height clamp (Figure 4).
        let s1 = local_spacing(r, prev, next, growth.height(1));
        let fan_like = s1 <= params.iso_factor * growth.layer_thickness(1);
        for k in 1..=params.max_layers {
            let h = growth.height(k);
            if h >= r.max_height {
                break;
            }
            // Isotropy stop: when the layer thickness reaches the local
            // tangential spacing, the anisotropic layer hands over to the
            // isotropic region (Figure 5).
            if !fan_like {
                let spacing = local_spacing(r, prev, next, h);
                if growth.layer_thickness(k) >= params.iso_factor * spacing {
                    break;
                }
            }
            out.points.push(r.at(h));
        }
        out.offsets.push(out.points.len());
    }
    out
}

/// Tangential spacing at height `h`: the smaller of the distances to the
/// two neighboring rays' points at the same height (clamped to their own
/// reach so converging rays don't report zero).
fn local_spacing(r: &Ray, prev: &Ray, next: &Ray, h: f64) -> f64 {
    let p = r.at(h);
    let dp = p.distance(prev.at(h.min(prev.max_height)));
    let dn = p.distance(next.at(h.min(next.max_height)));
    dp.min(dn).max(f64::MIN_POSITIVE)
}

/// Smooths realized tip heights to a Lipschitz profile along the surface
/// and writes the result back as ray height clamps — the mechanism behind
/// Figure 5's "different heights ... to provide a smooth transition".
///
/// Between neighboring rays `i, j` the allowed height satisfies
/// `h_i <= h_j * (1 + l_ang * dtheta) + l_dist * d`, where `d` is the
/// distance between origins and `dtheta` the angle between ray directions.
/// The multiplicative angular term lets cusp fans grow gradually away
/// from their (short) flanking rays while still suppressing the radial
/// cliffs that cascade Ruppert splits on the outer border.
pub fn smooth_heights(rays: &mut [Ray], realized: &LayerPoints, l_dist: f64, l_ang: f64) {
    let n = rays.len();
    if n < 3 {
        return;
    }
    let mut h: Vec<f64> = (0..n)
        .map(|i| {
            realized
                .tip(i)
                .map(|p| p.distance(rays[i].origin))
                .unwrap_or(0.0)
                .min(rays[i].max_height)
        })
        .collect();
    // Monotone relaxation: sweep until no height decreases (bounded by n
    // sweeps; each pass propagates constraints one step around the loop).
    for _ in 0..n {
        let mut changed = false;
        for i in 0..n {
            for j in [(i + 1) % n, (i + n - 1) % n] {
                let d = rays[i].origin.distance(rays[j].origin);
                let dtheta = rays[i].dir.angle_between(rays[j].dir);
                let allow = h[j] * (1.0 + l_ang * dtheta) + l_dist * d;
                if h[i] > allow {
                    h[i] = allow;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (r, &hi) in rays.iter_mut().zip(&h) {
        if hi > 0.0 {
            r.max_height = r.max_height.min(hi * 1.0000001);
        }
    }
}

/// Summary statistics of a boundary layer (for EXPERIMENTS.md reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStats {
    /// Total points inserted (excluding surface vertices).
    pub points: usize,
    /// Minimum / maximum layers on any ray.
    pub min_layers: usize,
    pub max_layers: usize,
    /// Mean layers per ray.
    pub mean_layers: f64,
}

/// Computes summary statistics.
pub fn layer_stats(lp: &LayerPoints) -> LayerStats {
    let n = lp.num_rays();
    if n == 0 {
        return LayerStats::default();
    }
    let mut min_l = usize::MAX;
    let mut max_l = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        let c = lp.ray_points(i).len();
        min_l = min_l.min(c);
        max_l = max_l.max(c);
        total += c;
    }
    LayerStats {
        points: total,
        min_layers: min_l,
        max_layers: max_l,
        mean_layers: total as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::Geometric;
    use crate::normals::CornerThresholds;
    use crate::rays::emit_rays;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn circle(n: usize, r: f64) -> Vec<Point2> {
        (0..n)
            .map(|k| {
                let th = k as f64 * std::f64::consts::TAU / n as f64;
                p(r * th.cos(), r * th.sin())
            })
            .collect()
    }

    #[test]
    fn points_follow_growth_function() {
        let c = circle(64, 1.0);
        let rays = emit_rays(&c, 0.5, &CornerThresholds::default());
        let g: GrowthSpec = Geometric::new(0.01, 1.3).into();
        let lp = insert_points(&rays, &g, &InsertParams::default());
        assert_eq!(lp.num_rays(), rays.len());
        let pts = lp.ray_points(0);
        assert!(!pts.is_empty());
        // First point at first height from the surface.
        let d0 = pts[0].distance(rays[0].origin);
        assert!((d0 - 0.01).abs() < 1e-12);
        // Consecutive spacings grow by the ratio.
        if pts.len() >= 3 {
            let d1 = pts[1].distance(pts[0]);
            let d2 = pts[2].distance(pts[1]);
            assert!((d2 / d1 - 1.3).abs() < 1e-9);
        }
    }

    #[test]
    fn isotropy_stops_growth() {
        // Coarse circle: tangential spacing ~ 2*pi/16 ~ 0.4 at the wall.
        // With small first height the layers stop roughly when thickness
        // reaches spacing.
        let c = circle(16, 1.0);
        let rays = emit_rays(&c, f64::INFINITY, &CornerThresholds::default());
        let g: GrowthSpec = Geometric::new(0.01, 1.4).into();
        let lp = insert_points(&rays, &g, &InsertParams::default());
        let stats = layer_stats(&lp);
        assert!(stats.max_layers < 50, "unbounded growth: {stats:?}");
        assert!(stats.min_layers >= 3);
        // The final layer thickness is near the local spacing.
        let pts = lp.ray_points(0);
        let last_thick = pts[pts.len() - 1].distance(pts[pts.len() - 2]);
        assert!(last_thick < 1.0);
    }

    #[test]
    fn clamped_ray_gets_fewer_points() {
        let c = circle(64, 1.0);
        let mut rays = emit_rays(&c, 0.5, &CornerThresholds::default());
        rays[0].max_height = 0.05;
        let g: GrowthSpec = Geometric::new(0.01, 1.2).into();
        let lp = insert_points(&rays, &g, &InsertParams::default());
        assert!(lp.ray_points(0).len() < lp.ray_points(5).len());
        // No point exceeds the clamp.
        for q in lp.ray_points(0) {
            assert!(q.distance(rays[0].origin) < 0.05);
        }
    }

    #[test]
    fn smooth_transition_heights_vary_gradually() {
        // Figure 5's "different heights for a smooth transition": layer
        // counts of neighboring rays differ by a bounded amount on smooth
        // geometry.
        let c = circle(128, 1.0);
        let rays = emit_rays(&c, 0.4, &CornerThresholds::default());
        let g: GrowthSpec = Geometric::new(0.002, 1.25).into();
        let lp = insert_points(&rays, &g, &InsertParams::default());
        for i in 0..lp.num_rays() {
            let a = lp.ray_points(i).len() as i64;
            let b = lp.ray_points((i + 1) % lp.num_rays()).len() as i64;
            assert!((a - b).abs() <= 2, "jump at ray {i}: {a} vs {b}");
        }
    }

    #[test]
    fn stats_are_consistent() {
        let c = circle(32, 1.0);
        let rays = emit_rays(&c, 0.3, &CornerThresholds::default());
        let g: GrowthSpec = Geometric::new(0.01, 1.3).into();
        let lp = insert_points(&rays, &g, &InsertParams::default());
        let stats = layer_stats(&lp);
        assert_eq!(stats.points, lp.points.len());
        assert!(stats.min_layers <= stats.max_layers);
        assert!(stats.mean_layers >= stats.min_layers as f64);
        assert!(stats.mean_layers <= stats.max_layers as f64);
    }
}
