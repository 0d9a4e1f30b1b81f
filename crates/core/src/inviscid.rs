//! Inviscid-region meshing: near-body subdomain plus decoupled quadrants
//! (paper §II.E).
//!
//! The near-body subdomain is bounded by the marched near-body rectangle
//! outside and the boundary-layer outer borders inside (the airfoil plus
//! its anisotropic layer is a hole). The rest of the domain out to the
//! far field is decoupled into quadrant-descended subdomains that refine
//! independently. These are the per-task refinement kernels and the
//! interface rules; the pipeline's task tree decides which runs where.

use adm_decouple::{GradedSizing, Region, SizingFn};
use adm_delaunay::cdt::{carve, constrained_delaunay};
use adm_delaunay::mesh::Mesh;
use adm_delaunay::refine::{refine, RefineParams, RefineStats};
use adm_geom::point::Point2;
use adm_geom::pslg::Pslg;
use adm_kernel::GlobalVertexId;

/// Smallest body edge length for which no boundary-layer outer-border
/// segment will be split by Ruppert refinement: every constrained segment
/// of length `d` is final when `d < 2k = sqrt(A / sqrt(2))` (paper eq. 1),
/// so the sizing at the border must satisfy
/// `A(0) = EQUILATERAL * h0^2 >= sqrt(2) * d_max^2`.
pub fn conforming_h0(outer_borders: &[Vec<Point2>]) -> f64 {
    let mut d_max: f64 = 0.0;
    for b in outer_borders {
        let n = b.len();
        for i in 0..n {
            d_max = d_max.max(b[i].distance(b[(i + 1) % n]));
        }
    }
    // h0 >= d_max * (sqrt(2)/EQUILATERAL)^(1/2) ~= 1.807 * d_max; add 15%
    // margin for the circumcenter-blocked split path.
    2.1 * d_max
}

/// Builds the graded sizing field for the configuration. `h0` is raised
/// to [`conforming_h0`] if below it, so independent refinement never
/// splits the shared boundary-layer border.
pub fn build_sizing(
    outer_borders: &[Vec<Point2>],
    h0: f64,
    rate: f64,
    max_area: f64,
) -> GradedSizing {
    let body: Vec<Point2> = outer_borders.iter().flatten().copied().collect();
    let h0 = h0.max(conforming_h0(outer_borders));
    GradedSizing::new(&body, h0, rate, max_area, 64)
}

/// Triangle's `-p -q -a` on one closed domain: CDT of `pslg`, carved from
/// the outside and from its hole seeds, then Ruppert-refined against
/// `sizing`'s area bound. Input point `i` is mesh vertex `map[i]`.
fn refine_domain(pslg: &Pslg, sizing: &dyn SizingFn) -> (Mesh, Vec<u32>, RefineStats) {
    let (mut mesh, map) = constrained_delaunay(&pslg.points, &pslg.segments, false)
        .expect("inviscid domain triangulation failed");
    carve(&mut mesh, &pslg.holes);
    let area = |p: Point2| sizing.target_area(p);
    let stats = refine(&mut mesh, Some(&area), &RefineParams::default());
    (mesh, map, stats)
}

/// The near-body domain: the outer border loop, then one loop per hole.
fn nearbody_pslg(rect_border: &[Point2], holes: &[Vec<Point2>], hole_seeds: &[Point2]) -> Pslg {
    let mut pslg = Pslg::new(Vec::new(), Vec::new(), hole_seeds.to_vec());
    pslg.push_loop(rect_border);
    for hole in holes {
        pslg.push_loop(hole);
    }
    pslg
}

/// Refines one region (border polygon) against the sizing field: the
/// near-body case with no holes. Returns the mesh and the refinement
/// statistics (whose `segment_splits` counts border-segment splits).
pub fn refine_region(region_border: &[Point2], sizing: &dyn SizingFn) -> (Mesh, RefineStats) {
    refine_nearbody(region_border, &[], &[], sizing)
}

/// Refines the near-body subdomain: outer rectangle border + hole loops.
pub fn refine_nearbody(
    rect_border: &[Point2],
    holes: &[Vec<Point2>],
    hole_seeds: &[Point2],
    sizing: &dyn SizingFn,
) -> (Mesh, RefineStats) {
    let (mesh, _, stats) = refine_domain(&nearbody_pslg(rect_border, holes, hole_seeds), sizing);
    (mesh, stats)
}

/// [`refine_nearbody`] with arena identity stamps: `rect_ids[i]` is the
/// global id of `rect_border[i]` and `hole_ids[k][i]` of `holes[k][i]`.
/// The produced mesh carries those stamps on its input-point vertices
/// (via the CDT's point map), so the merger can splice its interface
/// without hashing coordinates. Refinement Steiner vertices stay
/// unstamped — the ones on constrained segments remain constrained
/// endpoints and resolve through the merger's coordinate path.
pub fn refine_nearbody_stamped(
    rect_border: &[Point2],
    rect_ids: &[GlobalVertexId],
    holes: &[Vec<Point2>],
    hole_ids: &[Vec<GlobalVertexId>],
    hole_seeds: &[Point2],
    sizing: &dyn SizingFn,
) -> (Mesh, RefineStats) {
    assert_eq!(rect_border.len(), rect_ids.len());
    assert_eq!(holes.len(), hole_ids.len());
    let pslg = nearbody_pslg(rect_border, holes, hole_seeds);
    let (mut mesh, map, stats) = refine_domain(&pslg, sizing);
    let all_ids = rect_ids.iter().chain(hole_ids.iter().flatten());
    for (&v, &gid) in map.iter().zip(all_ids) {
        mesh.stamp_vertex(v, gid);
    }
    (mesh, stats)
}

/// Propagates interface splits from a refined donor mesh back into the
/// boundary-layer mesh.
///
/// In narrow inter-element gaps the two clamped boundary-layer borders
/// face each other at a distance smaller than their segment lengths, so
/// Ruppert refinement of the near-body subdomain legitimately splits
/// interface segments. Conformity is restored by applying the *same*
/// splits (bitwise-identical midpoints, recorded from the donor's
/// constrained edges) to the boundary-layer side.
///
/// Returns the number of vertices inserted into `bl`.
pub fn propagate_interface_splits(
    bl: &mut Mesh,
    donor: &Mesh,
    interface_loops: &[Vec<Point2>],
) -> usize {
    use adm_delaunay::mesh::NIL;
    use adm_geom::segment::Segment;
    use adm_kernel::canonical_bits;
    use std::collections::HashMap;
    // Donor constrained endpoints, once each, sorted by `x` so a border
    // segment reads only the ones inside its own `x`-extent.
    let ends = donor.constrained_edges().flat_map(|(a, b)| [a, b]);
    let mut donor_pts: Vec<Point2> = ends.map(|v| donor.vertex(v as usize)).collect();
    let key = |p: &Point2| canonical_bits(*p);
    let by_x = |p: &Point2, q: &Point2| (p.x + 0.0).total_cmp(&(q.x + 0.0));
    donor_pts.sort_by(|p, q| by_x(p, q).then(key(p).cmp(&key(q))));
    donor_pts.dedup_by_key(|p| key(p));
    // Canonical coordinate -> BL vertex id (lowest wins) of the interface
    // points (the BL mesh stores the arena's normalized points, while
    // interface loops may still carry -0.0 variants — canonical bits make
    // the two sides agree).
    let loop_pts = interface_loops.iter().flatten();
    let mut id_of: HashMap<(u64, u64), u32> = loop_pts.map(|&p| (canonical_bits(p), NIL)).collect();
    for i in 0..bl.num_vertices() {
        if let Some(id) = id_of.get_mut(&canonical_bits(bl.vertex(i))) {
            *id = (*id).min(i as u32);
        }
    }
    let mut inserted = 0usize;
    for border in interface_loops {
        let n = border.len();
        for i in 0..n {
            let (a, b) = (border[i], border[(i + 1) % n]);
            let seg = Segment::new(a, b);
            let len = seg.length();
            if len == 0.0 {
                continue;
            }
            // Donor vertices strictly interior to this segment. One within
            // `tol` of it lies within `tol` of its `x`-extent; twice that
            // covers the rounding of the distance below.
            let dir = b - a;
            let tol = 1e-9 * (1.0 + len);
            let first = donor_pts.partition_point(|p| p.x < a.x.min(b.x) - 2.0 * tol);
            let mut added: Vec<(f64, Point2)> = donor_pts[first..]
                .iter()
                .take_while(|p| p.x <= a.x.max(b.x) + 2.0 * tol)
                .filter(|&&p| p != a && p != b)
                .filter(|&&p| seg.distance_to_point(p) < tol)
                .map(|&p| ((p - a).dot(dir) / dir.norm_sq(), p))
                // Guard against near-endpoint splits (degenerate slivers).
                .filter(|&(t, _)| t > 1e-9 && t < 1.0 - 1e-9)
                .collect();
            if added.is_empty() {
                continue;
            }
            // Equal parameters go by canonical bits (the donor's edge set
            // iterates in a per-process order, so nothing else is stable).
            added.sort_by(|x, y| x.0.total_cmp(&y.0).then(key(&x.1).cmp(&key(&y.1))));
            let (ida, idb) = (id_of[&canonical_bits(a)], id_of[&canonical_bits(b)]);
            if ida == NIL || idb == NIL {
                continue;
            }
            let mut left = ida;
            for (_, p) in added {
                let Some((t, e)) = bl.find_edge(left, idb) else {
                    break;
                };
                let v = bl.split_edge(t, e, p);
                inserted += 1;
                left = v;
            }
        }
    }
    inserted
}

/// The per-region decoupling threshold targeting roughly
/// `target_subdomains` leaves: the total initial estimate divided by the
/// target.
pub fn decouple_threshold(
    initial: &[Region],
    target_subdomains: usize,
    sizing: &dyn SizingFn,
) -> f64 {
    let total: f64 = initial.iter().map(|r| r.estimated_triangles(sizing)).sum();
    // A '+' split quarters a region, so a threshold of exactly
    // total/target can overshoot the leaf count by up to 4x (and with it
    // the decoupling-border triangle overhead); the factor 2 centers the
    // outcome on the target.
    2.0 * total / target_subdomains.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_decouple::UniformH;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn propagated_splits_are_found_through_the_x_index() {
        let mut bl = Mesh::from_triangles(
            vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)],
            vec![[0, 1, 2], [0, 2, 3]],
        );
        // The loop carries -0.0 where the mesh stores 0.0; its second
        // segment is vertical, so only the tolerance widens its x-extent.
        let border = vec![p(-0.0, -0.0), p(1.0, -0.0), p(1.0, 1.0), p(-0.0, 1.0)];
        // Donor constrained endpoints: two on the vertical segment (given
        // out of order), one on the bottom, the corners themselves, and one
        // inside both x-ranges but on neither segment.
        let pts = [
            (1.0, 0.5),
            (1.0, 0.25),
            (0.5, -0.0),
            (1.0, 0.0),
            (0.5, -0.7),
            (1.0, 1.0),
        ];
        let mut donor = Mesh::from_triangles(
            pts.map(|(x, y)| p(x, y)).to_vec(),
            vec![[2, 3, 1], [2, 1, 0], [2, 0, 5], [4, 3, 2]],
        );
        // Its hull, which passes through every point.
        for (a, b) in [(4, 3), (3, 1), (1, 0), (0, 5), (5, 2), (2, 4)] {
            donor.constrain_edge(a, b);
        }
        assert_eq!(propagate_interface_splits(&mut bl, &donor, &[border]), 3);
        bl.check_consistency();
        assert_eq!(
            bl.points()[4..],
            [p(0.5, 0.0), p(1.0, 0.25), p(1.0, 0.5)],
            "bottom split first, then the vertical segment's in parameter order"
        );
    }

    #[test]
    fn refine_region_on_simple_square() {
        let border: Vec<Point2> = {
            // Pre-discretized square border.
            let mut b = Vec::new();
            for k in 0..10 {
                b.push(p(k as f64 * 0.1, 0.0));
            }
            for k in 0..10 {
                b.push(p(1.0, k as f64 * 0.1));
            }
            for k in 0..10 {
                b.push(p(1.0 - k as f64 * 0.1, 1.0));
            }
            for k in 0..10 {
                b.push(p(0.0, 1.0 - k as f64 * 0.1));
            }
            b
        };
        let sizing = UniformH(0.15);
        let (mesh, _splits) = refine_region(&border, &sizing);
        mesh.check_consistency();
        assert!(mesh.num_triangles() > 100);
        let q = adm_delaunay::quality::mesh_quality(&mesh);
        assert!((q.total_area - 1.0).abs() < 1e-9);
        assert!(q.max_area <= sizing.target_area(p(0.5, 0.5)) + 1e-12);
    }

    #[test]
    fn nearbody_with_square_hole() {
        let rect: Vec<Point2> = {
            let mut b = Vec::new();
            for k in 0..8 {
                b.push(p(-2.0 + k as f64 * 0.5, -2.0));
            }
            for k in 0..8 {
                b.push(p(2.0, -2.0 + k as f64 * 0.5));
            }
            for k in 0..8 {
                b.push(p(2.0 - k as f64 * 0.5, 2.0));
            }
            for k in 0..8 {
                b.push(p(-2.0, 2.0 - k as f64 * 0.5));
            }
            b
        };
        let hole: Vec<Point2> = vec![p(-0.5, -0.5), p(0.5, -0.5), p(0.5, 0.5), p(-0.5, 0.5)];
        let sizing = UniformH(0.35);
        let (mesh, _) = refine_nearbody(&rect, &[hole], &[p(0.0, 0.0)], &sizing);
        mesh.check_consistency();
        let q = adm_delaunay::quality::mesh_quality(&mesh);
        assert!((q.total_area - (16.0 - 1.0)).abs() < 1e-9);
    }
}
