//! Kernel-equivalence tests for the insertion hot path.
//!
//! The incremental Bowyer-Watson kernel (epoch-stamped cavities, incident-
//! corner index, constraint bitmasks) must produce exactly the same
//! triangulation as the independent divide-and-conquer engine wherever the
//! Delaunay triangulation is unique, must be deterministic run-to-run, and
//! must survive degenerate inputs (cocircular grids, collinear strips)
//! without violating the empty-circle property.

use adm_delaunay::divconq::triangulate_dc;
use adm_delaunay::incremental::triangulate_incremental;
use adm_delaunay::mesh::Mesh;
use adm_geom::point::Point2;
use adm_geom::predicates::incircle;
use proptest::prelude::*;

fn p(x: f64, y: f64) -> Point2 {
    Point2::new(x, y)
}

/// Canonical, order-independent representation of a mesh: the set of its
/// triangles, each as the sorted coordinate-bit triple of its corners.
fn canon_mesh(mesh: &Mesh) -> Vec<Vec<(u64, u64)>> {
    let mut v: Vec<Vec<(u64, u64)>> = mesh
        .live_triangles()
        .map(|t| {
            let tri = mesh.tri(t as usize);
            let mut c: Vec<(u64, u64)> = tri
                .iter()
                .map(|&i| {
                    let q = mesh.vertex(i as usize);
                    (q.x.to_bits(), q.y.to_bits())
                })
                .collect();
            c.sort_unstable();
            c
        })
        .collect();
    v.sort_unstable();
    v
}

fn canon_dc(points: &[Point2], tris: &[[u32; 3]]) -> Vec<Vec<(u64, u64)>> {
    let mut v: Vec<Vec<(u64, u64)>> = tris
        .iter()
        .map(|t| {
            let mut c: Vec<(u64, u64)> = t
                .iter()
                .map(|&i| {
                    let q = points[i as usize];
                    (q.x.to_bits(), q.y.to_bits())
                })
                .collect();
            c.sort_unstable();
            c
        })
        .collect();
    v.sort_unstable();
    v
}

/// No vertex may lie strictly inside any triangle's circumcircle. Unlike
/// canonical-set equality this holds even when cocircular point groups make
/// the Delaunay triangulation non-unique.
fn assert_empty_circle(mesh: &Mesh) {
    for t in mesh.live_triangles() {
        let tri = mesh.tri(t as usize);
        let (a, b, c) = (
            mesh.vertex(tri[0] as usize),
            mesh.vertex(tri[1] as usize),
            mesh.vertex(tri[2] as usize),
        );
        for i in 0..mesh.num_vertices() {
            let q = mesh.vertex(i);
            if tri.contains(&(i as u32)) {
                continue;
            }
            assert!(
                incircle(a, b, c, q) <= 0.0,
                "empty-circle violation at t={t}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On random (general-position) input the DT is unique: the incremental
    /// kernel and the divide-and-conquer engine must produce the *same*
    /// triangle set, bit for bit.
    #[test]
    fn incremental_matches_divide_and_conquer(pts in prop::collection::vec(
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        3..80,
    )) {
        let Some(inc) = triangulate_incremental(&pts) else { return Ok(()); };
        inc.check_consistency();
        let dc = triangulate_dc(&pts, false);
        prop_assert_eq!(canon_mesh(&inc), canon_dc(&dc.points, &dc.triangles()));
    }

    /// The kernel is deterministic: two runs over the same input produce
    /// identical triangle sets (scratch reuse must not leak state).
    #[test]
    fn incremental_is_deterministic(pts in prop::collection::vec(
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        3..80,
    )) {
        let Some(first) = triangulate_incremental(&pts) else { return Ok(()); };
        let second = triangulate_incremental(&pts).unwrap();
        prop_assert_eq!(canon_mesh(&first), canon_mesh(&second));
    }
}

#[test]
fn cocircular_grid_is_delaunay_and_deterministic() {
    // Every unit square's four corners are exactly cocircular; the DT is
    // non-unique, so we check the empty-circle property, the Euler count,
    // and run-to-run determinism instead of set equality with D&C.
    for n in [3usize, 5, 8] {
        let mut pts = Vec::new();
        for i in 0..n {
            for j in 0..n {
                pts.push(p(i as f64, j as f64));
            }
        }
        let mesh = triangulate_incremental(&pts).unwrap();
        mesh.check_consistency();
        assert_empty_circle(&mesh);
        // T = 2v - 2 - h with every grid point a vertex and the hull
        // passing through the 4(n-1) perimeter points.
        let v = n * n;
        let h = 4 * (n - 1);
        assert_eq!(mesh.num_triangles(), 2 * v - 2 - h);
        let again = triangulate_incremental(&pts).unwrap();
        assert_eq!(canon_mesh(&mesh), canon_mesh(&again));
        // The independent engine must agree on the triangle *count* even
        // where cocircular ties let the diagonals differ.
        let dc = triangulate_dc(&pts, false);
        assert_eq!(dc.triangles().len(), mesh.num_triangles());
    }
}

#[test]
fn collinear_strip_with_apexes() {
    // Many exactly collinear points plus two off-line apexes: every cavity
    // border case and the hull-growth path hit exact orient2d zeros.
    let mut pts: Vec<Point2> = (0..20).map(|i| p(i as f64, 0.0)).collect();
    pts.push(p(9.5, 7.0));
    pts.push(p(9.5, -4.0));
    let mesh = triangulate_incremental(&pts).unwrap();
    mesh.check_consistency();
    assert_empty_circle(&mesh);
    // Hull = the two apexes plus the strip endpoints (h = 4); the interior
    // strip points sit strictly inside that quadrilateral.
    assert_eq!(mesh.num_triangles(), 2 * pts.len() - 2 - 4);
    let dc = triangulate_dc(&pts, false);
    assert_eq!(canon_mesh(&mesh), canon_dc(&dc.points, &dc.triangles()));
}

#[test]
fn duplicate_points_collapse() {
    // Duplicates must merge onto one vertex and leave a valid DT.
    let mut pts = vec![
        p(0.0, 0.0),
        p(4.0, 0.0),
        p(4.0, 4.0),
        p(0.0, 4.0),
        p(1.0, 2.0),
    ];
    let dups: Vec<Point2> = pts.clone();
    pts.extend(dups);
    let mesh = triangulate_incremental(&pts).unwrap();
    mesh.check_consistency();
    assert_empty_circle(&mesh);
    assert_eq!(mesh.num_vertices(), 5);
}
