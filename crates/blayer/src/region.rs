//! Boundary-layer assembly for whole configurations.
//!
//! Ties the stages together per element — normals → rays → refinement →
//! intersection resolution → point insertion — and produces the artifacts
//! the rest of the pipeline needs: the anisotropic point cloud for parallel
//! triangulation (§II.D) and the outer border that becomes the inviscid
//! region's inner boundary (§II.E).

use crate::growth::GrowthSpec;
use crate::insert::{insert_points, layer_stats, InsertParams, LayerPoints, LayerStats};
use crate::intersect::{resolve_against_element, resolve_self_intersections};
use crate::normals::CornerThresholds;
use crate::rays::{emit_rays, Ray};
use adm_geom::point::Point2;
use adm_geom::segment::Segment;

/// Configuration for boundary-layer generation.
#[derive(Debug, Clone, Copy)]
pub struct BlParams {
    /// Requested layer height (clamps may reduce it locally).
    pub height: f64,
    /// Corner/fan thresholds.
    pub corners: CornerThresholds,
    /// Point-insertion controls.
    pub insert: InsertParams,
}

impl Default for BlParams {
    fn default() -> Self {
        BlParams {
            height: 0.1,
            corners: CornerThresholds::default(),
            insert: InsertParams::default(),
        }
    }
}

/// The generated boundary layer of one element.
///
/// The point cloud and outer border are computed once at construction and
/// served as slices: the pipeline queries them per layer per phase
/// (decomposition, region refinement, final constraint pass), and
/// rebuilding a fresh `Vec` on every call dominated those loops.
#[derive(Debug, Clone)]
pub struct BoundaryLayer {
    /// Refined, clamped rays in surface (CCW) order.
    pub rays: Vec<Ray>,
    /// Inserted layer points (CSR by ray; origins excluded).
    pub layer: LayerPoints,
    /// The element's surface points (ray origins may repeat cusp origins).
    pub surface: Vec<Point2>,
    /// Cached `surface ++ layer.points` (see [`BoundaryLayer::all_points`]).
    all_points: Vec<Point2>,
    /// Cached merged border (see [`BoundaryLayer::outer_border`]).
    outer_border: Vec<Point2>,
}

impl BoundaryLayer {
    /// Assembles a finished layer, computing the derived point cloud and
    /// outer border once. `rays` and `layer` must be final: the caches are
    /// not invalidated by later mutation (construction sites run after
    /// the last insertion pass).
    pub fn new(rays: Vec<Ray>, layer: LayerPoints, surface: Vec<Point2>) -> Self {
        let mut all_points = surface.clone();
        all_points.extend_from_slice(&layer.points);
        let outer_border = compute_outer_border(&rays, &layer);
        BoundaryLayer {
            rays,
            layer,
            surface,
            all_points,
            outer_border,
        }
    }

    /// All boundary-layer points: surface vertices plus inserted layer
    /// points — the point cloud handed to the parallel triangulation.
    pub fn all_points(&self) -> &[Point2] {
        &self.all_points
    }

    /// Outer border polyline (CCW): the outermost point of each ray (its
    /// tip, or its origin where no layers fit).
    ///
    /// Consecutive near-coincident tips are merged: converging clamped
    /// rays in concavities can leave neighboring tips separated by mere
    /// ulps, and such micro-segments poison downstream refinement with
    /// nanometre encroachment splits. A tip is dropped when it lies within
    /// `1e-6` of the local layer height of its predecessor.
    pub fn outer_border(&self) -> &[Point2] {
        &self.outer_border
    }

    /// Summary statistics.
    pub fn stats(&self) -> LayerStats {
        layer_stats(&self.layer)
    }
}

/// The tip-merging border walk behind [`BoundaryLayer::outer_border`].
fn compute_outer_border(rays: &[Ray], layer: &LayerPoints) -> Vec<Point2> {
    let mut border: Vec<Point2> = Vec::with_capacity(rays.len());
    let mut last_height = 0.0f64;
    for (i, ray) in rays.iter().enumerate() {
        let p = layer.tip(i).unwrap_or(ray.origin);
        let h = p.distance(ray.origin);
        if let Some(&prev) = border.last() {
            let scale = h.max(last_height).max(f64::MIN_POSITIVE);
            if prev.distance(p) <= 1e-6 * scale {
                continue;
            }
        }
        border.push(p);
        last_height = h;
    }
    // Close-up: the last tip may nearly coincide with the first.
    while border.len() > 1 {
        let first = border[0];
        let last = *border.last().unwrap();
        let scale = last_height.max(f64::MIN_POSITIVE);
        if first == last || first.distance(last) <= 1e-6 * scale {
            border.pop();
        } else {
            break;
        }
    }
    border
}

/// Height-smoothing slopes (see [`crate::insert::smooth_heights`]): the
/// boundary-layer top may rise at most ~35 degrees along the surface and
/// roughly double per ray across a cusp fan.
const SMOOTH_L_DIST: f64 = 0.7;
const SMOOTH_L_ANG: f64 = 1.5;

/// Inserts points, smooths the realized tip heights into a Lipschitz
/// profile, and re-inserts — the Figure 5 smooth transition.
fn insert_with_smooth_fans(
    rays: &mut [Ray],
    growth: &GrowthSpec,
    params: &BlParams,
) -> crate::insert::LayerPoints {
    let first = insert_points(rays, growth, &params.insert);
    crate::insert::smooth_heights(rays, &first, SMOOTH_L_DIST, SMOOTH_L_ANG);
    insert_points(rays, growth, &params.insert)
}

/// Generates the boundary layer for a single isolated element.
pub fn build_boundary_layer(
    surface: &[Point2],
    growth: &GrowthSpec,
    params: &BlParams,
) -> BoundaryLayer {
    let mut rays = emit_rays(surface, params.height, &params.corners);
    resolve_self_intersections(&mut rays);
    let layer = insert_with_smooth_fans(&mut rays, growth, params);
    BoundaryLayer::new(rays, layer, surface.to_vec())
}

/// Generates boundary layers for a multi-element configuration, resolving
/// both self- and multi-element intersections (§II.B's hierarchical
/// pipeline) before inserting points.
pub fn build_multielement_layers(
    surfaces: &[Vec<Point2>],
    growth: &GrowthSpec,
    params: &BlParams,
) -> Vec<BoundaryLayer> {
    // Emit + self-resolve per element.
    let mut all_rays: Vec<Vec<Ray>> = surfaces
        .iter()
        .map(|s| {
            let mut r = emit_rays(s, params.height, &params.corners);
            resolve_self_intersections(&mut r);
            r
        })
        .collect();
    // Multi-element passes: clamp each element's rays against every other
    // element's layer border. One pass per ordered pair; clamping only
    // shortens the obstacle borders, so re-running the pair set once more
    // keeps everything consistent.
    for _ in 0..2 {
        for a in 0..all_rays.len() {
            for b in 0..all_rays.len() {
                if a == b {
                    continue;
                }
                let rays_b = all_rays[b].clone();
                resolve_against_element(&mut all_rays[a], &rays_b, &surfaces[b]);
            }
        }
    }
    all_rays
        .into_iter()
        .zip(surfaces)
        .map(|(mut rays, surface)| {
            let layer = insert_with_smooth_fans(&mut rays, growth, params);
            BoundaryLayer::new(rays, layer, surface.clone())
        })
        .collect()
}

/// `true` when no boundary-layer point of `a` lies inside the solid or the
/// boundary layer of `b` — the postcondition of multi-element resolution.
pub fn layers_disjoint(a: &BoundaryLayer, b: &BoundaryLayer) -> bool {
    let border_b = b.outer_border();
    if border_b.len() < 3 {
        return true;
    }
    for &p in &a.layer.points {
        if adm_geom::polygon::contains_point(border_b, p) && !on_border(border_b, p) {
            return false;
        }
    }
    true
}

fn on_border(border: &[Point2], p: Point2) -> bool {
    let n = border.len();
    (0..n).any(|i| Segment::new(border[i], border[(i + 1) % n]).distance_to_point(p) < 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::Geometric;
    use adm_geom::polygon::{contains_point, is_simple};

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn circle(n: usize, r: f64, cx: f64, cy: f64) -> Vec<Point2> {
        (0..n)
            .map(|k| {
                let th = k as f64 * std::f64::consts::TAU / n as f64;
                p(cx + r * th.cos(), cy + r * th.sin())
            })
            .collect()
    }

    #[test]
    fn single_element_layer_basics() {
        let surf = circle(64, 1.0, 0.0, 0.0);
        let g: GrowthSpec = Geometric::new(0.005, 1.25).into();
        let bl = build_boundary_layer(&surf, &g, &BlParams::default());
        let stats = bl.stats();
        assert!(stats.points > 100);
        assert!(stats.min_layers >= 1);
        // No layer point inside the solid.
        for &q in &bl.layer.points {
            assert!(!contains_point(&surf, q));
        }
    }

    #[test]
    fn outer_border_is_simple_and_encloses_surface() {
        let surf = circle(96, 1.0, 0.0, 0.0);
        let g: GrowthSpec = Geometric::new(0.005, 1.25).into();
        let bl = build_boundary_layer(&surf, &g, &BlParams::default());
        let border = bl.outer_border();
        assert!(border.len() >= 32);
        assert!(is_simple(border), "outer border self-intersects");
        // Every surface point lies inside the border.
        for &q in &surf {
            assert!(contains_point(border, q));
        }
    }

    #[test]
    fn multielement_layers_do_not_overlap() {
        // Two circles 0.5 apart with layer height 0.4: unresolved layers
        // would overlap.
        let s1 = circle(48, 1.0, 0.0, 0.0);
        let s2 = circle(48, 1.0, 2.5, 0.0);
        let g: GrowthSpec = Geometric::new(0.01, 1.3).into();
        let params = BlParams {
            height: 0.4,
            ..Default::default()
        };
        let layers = build_multielement_layers(&[s1, s2], &g, &params);
        assert_eq!(layers.len(), 2);
        assert!(layers_disjoint(&layers[0], &layers[1]));
        assert!(layers_disjoint(&layers[1], &layers[0]));
        // Rays facing the gap were clamped below the requested height.
        let clamped = layers[0]
            .rays
            .iter()
            .filter(|r| r.max_height < params.height - 1e-12)
            .count();
        assert!(clamped > 0, "no gap clamping happened");
    }

    #[test]
    fn far_elements_are_not_affected_by_each_other() {
        // Widely separated elements must produce exactly the same layers
        // as isolated builds (no spurious multi-element clamping).
        let s1 = circle(32, 1.0, 0.0, 0.0);
        let s2 = circle(32, 1.0, 50.0, 0.0);
        let g: GrowthSpec = Geometric::new(0.01, 1.3).into();
        let params = BlParams {
            height: 0.3,
            ..Default::default()
        };
        let layers = build_multielement_layers(&[s1.clone(), s2.clone()], &g, &params);
        let iso1 = build_boundary_layer(&s1, &g, &params);
        let iso2 = build_boundary_layer(&s2, &g, &params);
        assert_eq!(layers[0].layer.points, iso1.layer.points);
        assert_eq!(layers[1].layer.points, iso2.layer.points);
    }

    #[test]
    fn all_points_counts_add_up() {
        let surf = circle(40, 1.0, 0.0, 0.0);
        let g: GrowthSpec = Geometric::new(0.01, 1.3).into();
        let bl = build_boundary_layer(&surf, &g, &BlParams::default());
        assert_eq!(
            bl.all_points().len(),
            bl.surface.len() + bl.layer.points.len()
        );
    }
}
