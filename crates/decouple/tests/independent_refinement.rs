//! The decoupling contract (paper §II.E): after the graded decoupling,
//! every subdomain can be refined **independently** — Ruppert refinement
//! never splits a shared border segment, so the union of the refined
//! subdomains is conforming and constrained-Delaunay without any
//! inter-process communication.

use adm_decouple::{decouple_by_threshold, initial_quadrants, GradedSizing, Region, SizingFn};
use adm_delaunay::quality::mesh_quality;
use adm_delaunay::{carve, constrained_delaunay, refine, Mesh, RefineParams, RefineStats};
use adm_geom::aabb::Aabb;
use adm_geom::point::Point2;
use adm_geom::polygon::signed_area;
use adm_geom::pslg::Pslg;

/// Decouples `initial` with every leaf's estimate at most a `1/parts`
/// share of the total.
fn decouple_into(initial: &[Region], parts: usize, sizing: &dyn SizingFn) -> Vec<Region> {
    let total: f64 = initial.iter().map(|r| r.estimated_triangles(sizing)).sum();
    decouple_by_threshold(initial.to_vec(), total / parts as f64, sizing)
}

fn refine_region(region: &Region, sizing: &dyn SizingFn) -> (Mesh, RefineStats) {
    let mut pslg = Pslg::default();
    pslg.push_loop(&region.border);
    let (mut mesh, _) =
        constrained_delaunay(&pslg.points, &pslg.segments, false).expect("refinement failed");
    carve(&mut mesh, &[]);
    let area = |p: Point2| sizing.target_area(p);
    let stats = refine(&mut mesh, Some(&area), &RefineParams::default());
    (mesh, stats)
}

#[test]
fn independent_refinement_never_splits_shared_borders() {
    let body = Aabb::new(Point2::new(-0.5, -0.3), Point2::new(1.5, 0.3));
    let far = Aabb::new(Point2::new(-15.0, -15.0), Point2::new(16.0, 15.0));
    let sizing = GradedSizing::new(
        &[
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.0),
            Point2::new(1.0, 0.0),
        ],
        0.15,
        0.25,
        40.0,
        8,
    );
    let init = initial_quadrants(&body, &far, &sizing);
    let leaves = decouple_into(&init.quadrants, 12, &sizing);
    assert!(leaves.len() >= 12);

    let mut boundary_points: Vec<std::collections::HashSet<(u64, u64)>> = Vec::new();
    let mut total_area = 0.0;
    let mut total_triangles = 0usize;
    for (i, leaf) in leaves.iter().enumerate() {
        let (mesh, stats) = refine_region(leaf, &sizing);
        // THE decoupling guarantee: no shared-border (constrained) segment
        // was split during refinement.
        assert_eq!(
            stats.segment_splits, 0,
            "leaf {i}: refinement split {} border segments",
            stats.segment_splits
        );
        assert!(mesh.is_constrained_delaunay(), "leaf {i} not CDT");
        let q = mesh_quality(&mesh);
        assert!(
            q.max_ratio <= std::f64::consts::SQRT_2 + 1e-9,
            "leaf {i} ratio {}",
            q.max_ratio
        );
        total_area += q.total_area;
        total_triangles += q.triangles;
        // Record the boundary vertex set (all original border points and
        // nothing else: refinement adds only interior vertices).
        let border_set: std::collections::HashSet<(u64, u64)> = leaf
            .border
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        // Constrained edges of the mesh must connect original border
        // points only.
        for (a, b) in mesh.constrained_edges() {
            for v in [a, b] {
                let p = mesh.vertex(v as usize);
                assert!(
                    border_set.contains(&(p.x.to_bits(), p.y.to_bits())),
                    "leaf {i}: constrained vertex {p:?} is not an original border point"
                );
            }
        }
        boundary_points.push(border_set);
    }
    // The refined leaves tile the annulus exactly.
    let expect_area: f64 = leaves.iter().map(|l| signed_area(&l.border)).sum();
    assert!(
        (total_area - expect_area).abs() < 1e-6 * expect_area.abs(),
        "area mismatch {total_area} vs {expect_area}"
    );
    assert!(total_triangles > 1_000);
}

#[test]
fn conforming_interfaces_after_independent_refinement() {
    // Neighboring leaves share identical border point sequences, so the
    // union mesh is conforming: every interface point of one leaf is a
    // border point of the other.
    let body = Aabb::new(Point2::new(-0.5, -0.5), Point2::new(0.5, 0.5));
    let far = Aabb::new(Point2::new(-8.0, -8.0), Point2::new(8.0, 8.0));
    let sizing = GradedSizing::new(&[Point2::new(0.0, 0.0)], 0.2, 0.3, 30.0, 4);
    let init = initial_quadrants(&body, &far, &sizing);
    let leaves = decouple_into(&init.quadrants, 8, &sizing);

    // Collect each leaf's border point set.
    let sets: Vec<std::collections::HashSet<(u64, u64)>> = leaves
        .iter()
        .map(|l| {
            l.border
                .iter()
                .map(|p| (p.x.to_bits(), p.y.to_bits()))
                .collect()
        })
        .collect();
    // For each pair of leaves, any point of leaf A lying exactly on leaf
    // B's border polyline must be one of B's border points — i.e. no
    // hanging nodes.
    for i in 0..leaves.len() {
        for j in 0..leaves.len() {
            if i == j {
                continue;
            }
            for &p in &leaves[i].border {
                let nb = leaves[j].border.len();
                let on_b = (0..nb).any(|k| {
                    let s = adm_geom::segment::Segment::new(
                        leaves[j].border[k],
                        leaves[j].border[(k + 1) % nb],
                    );
                    s.contains_point(p)
                });
                if on_b {
                    assert!(
                        sets[j].contains(&(p.x.to_bits(), p.y.to_bits())),
                        "hanging node {p:?} between leaves {i} and {j}"
                    );
                }
            }
        }
    }
}
