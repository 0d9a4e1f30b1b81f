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
use adm_delaunay::mesh::Mesh;
use adm_delaunay::refine::RefineStats;
use adm_delaunay::triangulator::{triangulate, RefineOptions, TriOptions};
use adm_geom::point::Point2;
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

/// Refines one region (border polygon) against the sizing field.
/// Returns the mesh and the refinement statistics (whose
/// `segment_splits` counts border-segment splits).
pub fn refine_region(region_border: &[Point2], sizing: &dyn SizingFn) -> (Mesh, RefineStats) {
    let n = region_border.len() as u32;
    let segments: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let sz = |p: Point2| sizing.target_area(p);
    let opts = TriOptions {
        segments,
        carve_outside: true,
        refine: Some(RefineOptions {
            sizing: Some(&sz),
            ..Default::default()
        }),
        ..Default::default()
    };
    let out = triangulate(region_border, &opts).expect("region triangulation failed");
    (out.mesh, out.refine_stats.unwrap_or_default())
}

/// The shared assembly + refinement behind the near-body entry points.
fn nearbody_triangulation(
    rect_border: &[Point2],
    holes: &[Vec<Point2>],
    hole_seeds: &[Point2],
    sizing: &dyn SizingFn,
) -> adm_delaunay::triangulator::TriOutput {
    let mut points: Vec<Point2> = rect_border.to_vec();
    let mut segments: Vec<(u32, u32)> = {
        let n = rect_border.len() as u32;
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    };
    for hole in holes {
        let base = points.len() as u32;
        let n = hole.len() as u32;
        points.extend_from_slice(hole);
        segments.extend((0..n).map(|i| (base + i, base + (i + 1) % n)));
    }
    let sz = |p: Point2| sizing.target_area(p);
    let opts = TriOptions {
        segments,
        holes: hole_seeds.to_vec(),
        carve_outside: true,
        refine: Some(RefineOptions {
            sizing: Some(&sz),
            ..Default::default()
        }),
        ..Default::default()
    };
    triangulate(&points, &opts).expect("near-body triangulation failed")
}

/// Refines the near-body subdomain: outer rectangle border + hole loops.
pub fn refine_nearbody(
    rect_border: &[Point2],
    holes: &[Vec<Point2>],
    hole_seeds: &[Point2],
    sizing: &dyn SizingFn,
) -> (Mesh, RefineStats) {
    let out = nearbody_triangulation(rect_border, holes, hole_seeds, sizing);
    (out.mesh, out.refine_stats.unwrap_or_default())
}

/// [`refine_nearbody`] with arena identity stamps: `rect_ids[i]` is the
/// global id of `rect_border[i]` and `hole_ids[k][i]` of `holes[k][i]`.
/// The produced mesh carries those stamps on its input-point vertices
/// (via the triangulator's point map), so the merger can splice its
/// interface without hashing coordinates. Refinement Steiner vertices
/// stay unstamped — the ones on constrained segments remain constrained
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
    let mut out = nearbody_triangulation(rect_border, holes, hole_seeds, sizing);
    let all_ids = rect_ids.iter().chain(hole_ids.iter().flatten());
    for (&v, &gid) in out.point_map.iter().zip(all_ids) {
        out.mesh.stamp_vertex(v, gid);
    }
    (out.mesh, out.refine_stats.unwrap_or_default())
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
    use adm_geom::segment::Segment;
    use adm_kernel::canonical_bits;
    // Donor constrained endpoints.
    let mut donor_pts: Vec<Point2> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        for (a, b) in donor.constrained_edges() {
            for v in [a, b] {
                let p = donor.vertex(v as usize);
                if seen.insert(canonical_bits(p)) {
                    donor_pts.push(p);
                }
            }
        }
    }
    // Canonical coordinate -> BL vertex id (the BL mesh stores the
    // arena's normalized points, while interface loops may still carry
    // -0.0 variants — canonical bits make the two sides agree).
    let mut id_of: std::collections::HashMap<(u64, u64), u32> = std::collections::HashMap::new();
    for i in 0..bl.num_vertices() {
        id_of
            .entry(canonical_bits(bl.vertex(i)))
            .or_insert(i as u32);
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
            // Donor vertices strictly interior to this segment.
            let dir = b - a;
            let mut added: Vec<(f64, Point2)> = donor_pts
                .iter()
                .filter(|&&p| p != a && p != b)
                .filter(|&&p| seg.distance_to_point(p) < 1e-9 * (1.0 + len))
                .map(|&p| ((p - a).dot(dir) / dir.norm_sq(), p))
                // Guard against near-endpoint splits (degenerate slivers).
                .filter(|&(t, _)| t > 1e-9 && t < 1.0 - 1e-9)
                .collect();
            if added.is_empty() {
                continue;
            }
            added.sort_by(|x, y| x.0.total_cmp(&y.0));
            let Some(&ida) = id_of.get(&canonical_bits(a)) else {
                continue;
            };
            let Some(&idb) = id_of.get(&canonical_bits(b)) else {
                continue;
            };
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
    use adm_decouple::UniformSizing;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
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
        let sizing = UniformSizing(0.01);
        let (mesh, _splits) = refine_region(&border, &sizing);
        mesh.check_consistency();
        assert!(mesh.num_triangles() > 100);
        let q = adm_delaunay::quality::mesh_quality(&mesh);
        assert!((q.total_area - 1.0).abs() < 1e-9);
        assert!(q.max_area <= 0.01 + 1e-12);
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
        let sizing = UniformSizing(0.05);
        let (mesh, _) = refine_nearbody(&rect, &[hole], &[p(0.0, 0.0)], &sizing);
        mesh.check_consistency();
        let q = adm_delaunay::quality::mesh_quality(&mesh);
        assert!((q.total_area - (16.0 - 1.0)).abs() < 1e-9);
    }
}
