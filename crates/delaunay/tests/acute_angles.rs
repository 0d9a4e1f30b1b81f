//! Small-input-angle refinement: the concentric-shell rule must terminate
//! cleanly where plain midpoint splitting cascades.

use adm_delaunay::cdt::{carve, constrained_delaunay};
use adm_delaunay::quality::mesh_quality;
use adm_delaunay::refine::{refine, RefineParams};
use adm_geom::point::Point2;

fn p(x: f64, y: f64) -> Point2 {
    Point2::new(x, y)
}

/// A wedge with the given apex angle, closed by an arc-ish far side.
fn wedge(angle_deg: f64) -> (adm_delaunay::Mesh, f64) {
    let th = angle_deg.to_radians();
    let pts = vec![
        p(0.0, 0.0),                       // apex
        p(4.0, 0.0),                       // along one leg
        p(4.0 * th.cos(), 4.0 * th.sin()), // along the other
    ];
    let segs = [(0u32, 1u32), (1, 2), (2, 0)];
    let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).unwrap();
    carve(&mut mesh, &[]);
    let area = adm_delaunay::quality::mesh_quality(&mesh).total_area;
    (mesh, area)
}

#[test]
fn acute_wedges_terminate_without_nano_segments() {
    for angle in [40.0, 25.0, 12.0, 6.0] {
        let (mut mesh, area) = wedge(angle);
        let stats = refine(
            &mut mesh,
            None,
            &RefineParams {
                max_area: Some(0.05),
                max_insertions: 200_000,
            },
        );
        assert!(!stats.hit_cap, "angle {angle}: refinement blew up");
        mesh.check_consistency();
        let q = mesh_quality(&mesh);
        assert!((q.total_area - area).abs() < 1e-9, "angle {angle}");
        // No nanometre constrained subsegments: the shell rule keeps the
        // shortest segment within a sane factor of the local feature size.
        let mut min_seg = f64::INFINITY;
        for (a, b) in mesh.constrained_edges() {
            min_seg = min_seg.min(mesh.vertex(a as usize).distance(mesh.vertex(b as usize)));
        }
        assert!(
            min_seg > 1e-4,
            "angle {angle}: cascade produced segment of length {min_seg:.3e}"
        );
        // Quality away from the apex still holds (the apex region is
        // allowed its input-angle-limited triangles).
        assert!(q.max_area <= 0.05 + 1e-12, "angle {angle}");
    }
}

#[test]
fn star_of_acute_spokes() {
    // Many segments share one apex at 15-degree increments.
    let mut pts = vec![p(0.0, 0.0)];
    let mut segs = Vec::new();
    for k in 0..6 {
        let th = (k as f64) * 15f64.to_radians();
        pts.push(p(3.0 * th.cos(), 3.0 * th.sin()));
        segs.push((0u32, (k + 1) as u32));
    }
    // Close an enclosing box so the domain is bounded.
    let base = pts.len() as u32;
    pts.extend_from_slice(&[p(-4.0, -4.0), p(5.0, -4.0), p(5.0, 5.0), p(-4.0, 5.0)]);
    segs.extend_from_slice(&[
        (base, base + 1),
        (base + 1, base + 2),
        (base + 2, base + 3),
        (base + 3, base),
    ]);
    let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).unwrap();
    carve(&mut mesh, &[]);
    let stats = refine(
        &mut mesh,
        None,
        &RefineParams {
            max_area: Some(0.2),
            max_insertions: 300_000,
        },
    );
    assert!(!stats.hit_cap);
    mesh.check_consistency();
    let mut min_seg = f64::INFINITY;
    for (a, b) in mesh.constrained_edges() {
        min_seg = min_seg.min(mesh.vertex(a as usize).distance(mesh.vertex(b as usize)));
    }
    assert!(min_seg > 1e-4, "spoke cascade: {min_seg:.3e}");
}
