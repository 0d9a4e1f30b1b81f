//! Hierarchical ray-intersection resolution (paper §II.B).
//!
//! Self-intersections (rays of the same element crossing in coves and
//! concavities) and multi-element intersections (rays of one element
//! reaching into another element's boundary layer) are resolved by
//! clamping ray heights. Candidates are pruned hierarchically, exactly as
//! the paper describes:
//!
//! 1. axis-aligned bounding box rejection with Cohen–Sutherland clipping;
//! 2. an **alternating digital tree** over segment extent boxes projected
//!    to 4-D points (`O(log n)` per query);
//! 3. exact computational-geometry segment tests for the survivors.

use crate::rays::Ray;
use adm_geom::aabb::Aabb;
use adm_geom::adt::Adt;
use adm_geom::point::Point2;
use adm_geom::pslg::first_crossing;
use adm_geom::segment::{SegIntersection, Segment};

/// Fraction of the distance to an intersection point that a clamped ray
/// keeps. Slightly below 1 so tips of mutually-clamped rays stay distinct.
const CLAMP_FRACTION: f64 = 0.95;

/// Resolves self-intersections among the rays of a single element by
/// iterated clamping: each pass builds an ADT of the current ray segments,
/// finds properly-intersecting pairs, and clamps both rays to just below
/// their crossing point. Clamping only shortens rays, so the iteration is
/// monotone; it stops at a fixpoint (or after 16 guard passes).
///
/// Returns the number of clamp operations performed.
pub fn resolve_self_intersections(rays: &mut [Ray]) -> usize {
    let mut total = 0usize;
    for _pass in 0..16 {
        let clamped = resolve_pass(rays);
        total += clamped;
        if clamped == 0 {
            break;
        }
    }
    total
}

fn resolve_pass(rays: &mut [Ray]) -> usize {
    if rays.len() < 2 {
        return 0;
    }
    let segs: Vec<Segment> = rays.iter().map(|r| r.segment()).collect();
    let mut domain = Aabb::empty();
    for s in &segs {
        domain.expand(s.a);
        domain.expand(s.b);
    }
    let mut adt = Adt::for_domain(&domain);
    for (i, s) in segs.iter().enumerate() {
        adt.insert_segment(s, i);
    }
    let mut clamps = 0usize;
    let mut candidates: Vec<usize> = Vec::new();
    let mut new_heights: Vec<f64> = rays.iter().map(|r| r.max_height).collect();
    for i in 0..rays.len() {
        candidates.clear();
        adt.query_segment(&segs[i], &mut candidates);
        for &j in &candidates {
            if j <= i {
                continue;
            }
            // Rays sharing an origin (fans) meet at the surface, not in
            // the layer; only *proper* interior crossings count.
            if rays[i].origin == rays[j].origin {
                continue;
            }
            // (xi, xj): clamp targets for rays i and j respectively.
            let hit: Option<(Point2, Point2)> = if segs[i].properly_intersects(&segs[j]) {
                match segs[i].intersection(&segs[j]) {
                    SegIntersection::Point(x) => Some((x, x)),
                    _ => None,
                }
            } else if rays[i].dir.dot(rays[j].dir) < 0.0 {
                // Exactly antiparallel rays (parallel cove walls) overlap
                // collinearly instead of crossing; clamp each at its
                // nearest overlap endpoint.
                match segs[i].intersection(&segs[j]) {
                    SegIntersection::Overlap(x, y) => {
                        if rays[i].origin.distance_sq(x) <= rays[i].origin.distance_sq(y) {
                            Some((x, y))
                        } else {
                            Some((y, x))
                        }
                    }
                    _ => None,
                }
            } else {
                None
            };
            if let Some((xi, xj)) = hit {
                let di = rays[i].origin.distance(xi) * CLAMP_FRACTION;
                let dj = rays[j].origin.distance(xj) * CLAMP_FRACTION;
                if di < new_heights[i] {
                    new_heights[i] = di;
                    clamps += 1;
                }
                if dj < new_heights[j] {
                    new_heights[j] = dj;
                    clamps += 1;
                }
            }
        }
    }
    for (r, &h) in rays.iter_mut().zip(&new_heights) {
        r.max_height = h;
    }
    clamps
}

/// `true` when no two rays properly intersect. Rays sharing an origin
/// (fans) pass without an exemption: they meet at a common endpoint,
/// where `orient2d` is exactly 0. One [`first_crossing`] sweep over the
/// ray segments.
pub fn no_proper_intersections(rays: &[Ray]) -> bool {
    let segs: Vec<Segment> = rays.iter().map(Ray::segment).collect();
    first_crossing(&segs, |i, j| segs[i].properly_intersects(&segs[j])).is_none()
}

/// The outer border of an element's boundary layer as segments: the
/// closed polyline through the current ray tips. Used as the obstacle set
/// for multi-element intersection checks.
pub fn outer_border_segments(rays: &[Ray]) -> Vec<Segment> {
    let n = rays.len();
    (0..n)
        .map(|i| {
            let a = rays[i].at(rays[i].max_height);
            let b = rays[(i + 1) % n].at(rays[(i + 1) % n].max_height);
            Segment::new(a, b)
        })
        .collect()
}

/// Resolves intersections of element `a`'s rays with element `b`'s
/// boundary layer (paper §II.B): candidate rays are pruned by the AABB of
/// `b`'s layer via Cohen–Sutherland, then against an ADT of `b`'s
/// enclosing border segments (outer border + surface), and finally clamped
/// at exact intersection points.
///
/// Returns the number of rays clamped.
pub fn resolve_against_element(rays_a: &mut [Ray], rays_b: &[Ray], surface_b: &[Point2]) -> usize {
    if rays_a.is_empty() || rays_b.is_empty() {
        return 0;
    }
    // Obstacle set: b's outer boundary-layer border plus its surface.
    let mut obstacles = outer_border_segments(rays_b);
    let nb = surface_b.len();
    for i in 0..nb {
        obstacles.push(Segment::new(surface_b[i], surface_b[(i + 1) % nb]));
    }
    let mut bbox = Aabb::empty();
    for s in &obstacles {
        bbox.expand(s.a);
        bbox.expand(s.b);
    }
    // Level 1: Cohen–Sutherland AABB pruning of candidate rays.
    let candidates: Vec<usize> = (0..rays_a.len())
        .filter(|&i| bbox.intersects_segment(&rays_a[i].segment()))
        .collect();
    if candidates.is_empty() {
        return 0;
    }
    // Level 2: ADT over the obstacle extent boxes.
    let mut adt = Adt::for_domain(&bbox);
    for (k, s) in obstacles.iter().enumerate() {
        adt.insert_segment(s, k);
    }
    // Level 3: exact tests.
    let mut clamped = 0usize;
    let mut hits: Vec<usize> = Vec::new();
    for &i in &candidates {
        let seg = rays_a[i].segment();
        hits.clear();
        adt.query_segment(&seg, &mut hits);
        let mut min_h = rays_a[i].max_height;
        for &k in &hits {
            match seg.intersection(&obstacles[k]) {
                SegIntersection::Point(x) => {
                    let d = rays_a[i].origin.distance(x) * CLAMP_FRACTION;
                    min_h = min_h.min(d);
                }
                SegIntersection::Overlap(x, y) => {
                    let d = rays_a[i]
                        .origin
                        .distance(x)
                        .min(rays_a[i].origin.distance(y))
                        * CLAMP_FRACTION;
                    min_h = min_h.min(d);
                }
                SegIntersection::None => {}
            }
        }
        if min_h < rays_a[i].max_height {
            rays_a[i].max_height = min_h;
            clamped += 1;
        }
    }
    clamped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normals::CornerThresholds;
    use crate::rays::{emit_rays, RaySource};
    use adm_geom::point::Vec2;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn ray(ox: f64, oy: f64, dx: f64, dy: f64, h: f64) -> Ray {
        Ray {
            origin: p(ox, oy),
            dir: Vec2::new(dx, dy).normalized().unwrap(),
            max_height: h,
            source: RaySource::Vertex(0),
        }
    }

    #[test]
    fn crossing_pair_is_clamped() {
        let mut rays = vec![
            ray(0.0, 0.0, 1.0, 1.0, 10.0),
            ray(2.0, 0.0, -1.0, 1.0, 10.0),
        ];
        let n = resolve_self_intersections(&mut rays);
        assert!(n >= 2);
        assert!(no_proper_intersections(&rays));
        // Crossing at (1,1), distance sqrt(2): clamped just below.
        assert!(rays[0].max_height < 2f64.sqrt());
        assert!(rays[0].max_height > 0.9 * 2f64.sqrt());
    }

    #[test]
    fn parallel_rays_untouched() {
        let mut rays = vec![ray(0.0, 0.0, 0.0, 1.0, 5.0), ray(1.0, 0.0, 0.0, 1.0, 5.0)];
        assert_eq!(resolve_self_intersections(&mut rays), 0);
        assert_eq!(rays[0].max_height, 5.0);
    }

    #[test]
    fn fan_rays_sharing_origin_are_exempt() {
        let mut rays = vec![ray(0.0, 0.0, 1.0, 0.1, 5.0), ray(0.0, 0.0, 1.0, -0.1, 5.0)];
        assert_eq!(resolve_self_intersections(&mut rays), 0);
    }

    #[test]
    fn concave_channel_rays_resolve() {
        // A V-channel: rays from both walls converge and must be clamped
        // so none cross.
        let mut rays = Vec::new();
        for k in 0..10 {
            let x = k as f64 * 0.1;
            rays.push(ray(x, x, 1.0, -1.0, 3.0)); // wall 1 normal
            rays.push(ray(x + 2.0, x, -1.0, -1.0, 3.0)); // wall 2 normal
        }
        let n = resolve_self_intersections(&mut rays);
        assert!(n > 0);
        assert!(no_proper_intersections(&rays));
    }

    #[test]
    fn cove_geometry_resolves() {
        // A solid with a narrow slot (a cove, the Fig 13b/c case): rays
        // from the slot's two facing walls converge and must be clamped.
        // The walls are subdivided and slightly skewed so rays cross
        // properly inside the slot.
        let mut slot = vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 2.0)];
        // Right wall of the slot: from the top rim down (x ~ 2.2).
        for k in 0..=4 {
            slot.push(p(2.2 + 0.01 * k as f64, 2.0 - 0.4 * k as f64));
        }
        // Slot bottom and left wall back up (x ~ 1.8).
        for k in (0..=4).rev() {
            slot.push(p(1.8 - 0.01 * k as f64, 2.0 - 0.4 * k as f64));
        }
        slot.push(p(0.0, 2.0));
        assert!(adm_geom::polygon::is_ccw(&slot));
        assert!(adm_geom::polygon::is_simple(&slot));
        let mut rays = emit_rays(&slot, 0.8, &CornerThresholds::default());
        assert!(
            !no_proper_intersections(&rays),
            "test needs intersecting input"
        );
        resolve_self_intersections(&mut rays);
        assert!(no_proper_intersections(&rays));
        // Rays inside the slot were shortened below the slot width.
        assert!(rays.iter().any(|r| r.max_height < 0.5));
    }

    #[test]
    fn multielement_rays_clamped_at_neighbor_layer() {
        // Element A's rays point toward element B one unit away; B's
        // boundary layer (height 0.2) must stop A's rays.
        let square_b: Vec<Point2> = vec![p(2.0, -0.5), p(3.0, -0.5), p(3.0, 0.5), p(2.0, 0.5)];
        let rays_b = emit_rays(&square_b, 0.2, &CornerThresholds::default());
        let mut rays_a = vec![ray(0.0, 0.0, 1.0, 0.0, 5.0), ray(0.0, 0.3, 1.0, 0.0, 5.0)];
        let n = resolve_against_element(&mut rays_a, &rays_b, &square_b);
        assert!(n >= 1);
        // The horizontal ray at y=0 must stop before B's layer border at
        // x ~= 1.8.
        assert!(
            rays_a[0].max_height <= 1.9,
            "height {}",
            rays_a[0].max_height
        );
        assert!(rays_a[0].max_height > 1.0);
    }

    #[test]
    fn faraway_elements_untouched() {
        let square_b: Vec<Point2> = vec![p(20.0, -0.5), p(21.0, -0.5), p(21.0, 0.5), p(20.0, 0.5)];
        let rays_b = emit_rays(&square_b, 0.2, &CornerThresholds::default());
        let mut rays_a = vec![ray(0.0, 0.0, 0.0, 1.0, 2.0)];
        assert_eq!(resolve_against_element(&mut rays_a, &rays_b, &square_b), 0);
        assert_eq!(rays_a[0].max_height, 2.0);
    }

    #[test]
    fn clamping_is_monotone_and_idempotent() {
        let l = vec![
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(2.0, 1.0),
            p(1.0, 1.0),
            p(1.0, 2.0),
            p(0.0, 2.0),
        ];
        let mut rays = emit_rays(&l, 0.8, &CornerThresholds::default());
        resolve_self_intersections(&mut rays);
        let snapshot: Vec<f64> = rays.iter().map(|r| r.max_height).collect();
        resolve_self_intersections(&mut rays);
        let after: Vec<f64> = rays.iter().map(|r| r.max_height).collect();
        assert_eq!(snapshot, after, "second resolution changed heights");
    }
}
