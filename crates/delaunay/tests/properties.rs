//! Property-based tests for the Delaunay engine.

use adm_delaunay::cdt::{carve, constrained_delaunay, insert_constraint};
use adm_delaunay::divconq::triangulate_dc;
use adm_delaunay::mesh::Mesh;
use adm_delaunay::refine::{refine, RefineParams};
use adm_geom::point::Point2;
use adm_geom::predicates::{incircle, orient2d};
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point2::new(x, y)),
        n,
    )
}

/// Grid-ish points maximize cocircular degeneracies.
fn grid_points() -> impl Strategy<Value = Vec<Point2>> {
    (2usize..9, 2usize..9, -5i32..5).prop_map(|(nx, ny, off)| {
        let mut v = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                v.push(Point2::new(
                    (i as i32 + off) as f64,
                    (j as i32 + off) as f64,
                ));
            }
        }
        v
    })
}

/// Exactly collinear points plus two off-line apexes: the merge steps of
/// divide-and-conquer meet exact orient2d zeros along the strip.
fn collinear_strip_with_apexes() -> Vec<Point2> {
    let mut pts: Vec<Point2> = (0..20).map(|i| Point2::new(i as f64, 0.0)).collect();
    pts.extend([Point2::new(9.5, 7.0), Point2::new(9.5, -4.0)]);
    pts
}

/// A random cloud seasoned with degeneracies: some points repeated
/// verbatim, some dropped onto one exactly horizontal line.
fn seasoned_cloud() -> impl Strategy<Value = Vec<Point2>> {
    let base = prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..300);
    let dups = prop::collection::vec(0usize..4096, 0..10);
    let collinear = prop::collection::vec(0.0f64..100.0, 0..12);
    (base, dups, collinear).prop_map(|(base, dups, collinear)| {
        let mut pts: Vec<Point2> = base.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        for i in dups {
            pts.push(pts[i % pts.len()]);
        }
        pts.extend(collinear.iter().map(|&x| Point2::new(x, 0.0)));
        pts
    })
}

/// Order-free form of a triangle set: each triangle as the sorted
/// coordinate bits of its corners, the triangles sorted.
fn canon(tris: impl Iterator<Item = [Point2; 3]>) -> Vec<[(u64, u64); 3]> {
    let mut v: Vec<[(u64, u64); 3]> = tris
        .map(|t| {
            let mut c = t.map(|q| (q.x.to_bits(), q.y.to_bits()));
            c.sort_unstable();
            c
        })
        .collect();
    v.sort_unstable();
    v
}

fn assert_is_delaunay(points: &[Point2], tris: &[[u32; 3]]) {
    for t in tris {
        let (a, b, c) = (
            points[t[0] as usize],
            points[t[1] as usize],
            points[t[2] as usize],
        );
        assert!(orient2d(a, b, c) > 0.0, "non-CCW triangle");
        for (i, &p) in points.iter().enumerate() {
            if t.contains(&(i as u32)) {
                continue;
            }
            assert!(incircle(a, b, c, p) <= 0.0, "empty-circle violation");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every DC triangulation satisfies the empty-circumcircle property
    /// and the Euler relation, on random clouds and on a collinear strip.
    #[test]
    fn dc_triangulation_is_delaunay(pts in prop_oneof![points(3..60), Just(collinear_strip_with_apexes())]) {
        let dc = triangulate_dc(&pts, false);
        let tris = dc.triangles();
        assert_is_delaunay(&dc.points, &tris);
        // Euler: T = 2n - 2 - h, with h the boundary edges (hull
        // vertices, collinear ones included), for non-collinear inputs.
        let (first, last) = (dc.points[0], dc.points[dc.points.len() - 1]);
        if dc.points.iter().any(|&q| orient2d(first, last, q) != 0.0) {
            let edges: std::collections::HashSet<(u32, u32)> = tris
                .iter()
                .flat_map(|t| (0..3).map(move |i| (t[i], t[(i + 1) % 3])))
                .collect();
            let h = edges.iter().filter(|&&(a, b)| !edges.contains(&(b, a))).count();
            prop_assert_eq!(tris.len(), 2 * dc.points.len() - 2 - h);
        } else {
            prop_assert!(tris.is_empty());
        }
    }

    /// Grids (maximally cocircular) still triangulate correctly.
    #[test]
    fn dc_on_grids(pts in grid_points()) {
        let dc = triangulate_dc(&pts, false);
        let tris = dc.triangles();
        assert_is_delaunay(&dc.points, &tris);
        let area: f64 = tris
            .iter()
            .map(|t| {
                0.5 * (dc.points[t[1] as usize] - dc.points[t[0] as usize])
                    .cross(dc.points[t[2] as usize] - dc.points[t[0] as usize])
            })
            .sum();
        // Grid hull is the bounding rectangle.
        let b = adm_geom::aabb::Aabb::from_points(&dc.points).unwrap();
        prop_assert!((area - b.width() * b.height()).abs() < 1e-9);
    }

    /// Duplicates never change the triangulation.
    #[test]
    fn duplicates_are_harmless(pts in points(3..30), dup_idx in prop::collection::vec(0usize..29, 0..10)) {
        let mut with_dups = pts.clone();
        for &i in &dup_idx {
            if i < pts.len() {
                with_dups.push(pts[i]);
            }
        }
        let a = triangulate_dc(&pts, false);
        let b = triangulate_dc(&with_dups, false);
        prop_assert_eq!(&a.points, &b.points);
        prop_assert_eq!(a.triangles().len(), b.triangles().len());
    }

    /// Inserting random interior points keeps the mesh consistent (vertex
    /// hints included, after every insertion) and constrained-Delaunay.
    #[test]
    fn random_insertions(extra in prop::collection::vec((0.05f64..0.95, 0.05f64..0.95), 1..40)) {
        let base = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        let dc = triangulate_dc(&base, false);
        let mut mesh = Mesh::from_triangles(dc.points.clone(), dc.triangles());
        let mut hint = mesh.any_triangle().unwrap();
        for (x, y) in extra {
            if let Some(v) = mesh.insert_point(Point2::new(x, y), hint) {
                hint = mesh.triangle_of_vertex(v).unwrap();
            }
            mesh.check_consistency();
        }
        prop_assert!(mesh.is_constrained_delaunay());
    }

    /// The Ruppert insertion kernel builds the Delaunay triangulation:
    /// `insert_point`, one point at a time into a two-triangle start quad,
    /// gives bit for bit the triangle set divide-and-conquer builds from
    /// quad and cloud at once. The cloud lies strictly inside the quad and
    /// no four of the quad's corners are cocircular, so that triangulation
    /// is unique. Duplicates resolve to their vertex; points on the
    /// horizontal line land on edges and go through `split_edge`.
    #[test]
    fn insert_point_matches_divide_and_conquer(cloud in seasoned_cloud()) {
        let quad = vec![
            Point2::new(-1.0, -1.0),
            Point2::new(104.0, -3.0),
            Point2::new(101.0, 101.0),
            Point2::new(-3.0, 104.0),
        ];
        // The diagonal 0-2 is the Delaunay one.
        assert!(incircle(quad[0], quad[1], quad[2], quad[3]) < 0.0);
        let mut mesh = Mesh::from_triangles(quad.clone(), vec![[0, 1, 2], [0, 2, 3]]);
        let mut hint = mesh.any_triangle().unwrap();
        for &q in &cloud {
            let v = mesh.insert_point(q, hint).expect("cloud point inside the quad");
            hint = mesh.triangle_of_vertex(v).unwrap();
        }
        mesh.check_consistency();
        let mut all = quad;
        all.extend_from_slice(&cloud);
        let dc = triangulate_dc(&all, false);
        let inserted = mesh
            .live_triangles()
            .map(|t| mesh.tri(t as usize).map(|i| mesh.vertex(i as usize)));
        let built = dc.triangles().into_iter().map(|t| t.map(|i| dc.points[i as usize]));
        prop_assert_eq!(mesh.num_vertices(), dc.points.len());
        prop_assert_eq!(canon(inserted), canon(built));
    }

    /// Splitting random edges of a random cloud's triangulation at their
    /// midpoints, hull edges and constrained edges included, keeps the
    /// mesh consistent after every split.
    #[test]
    fn random_edge_splits(pts in points(8..40), picks in prop::collection::vec((0usize..1000, 0u8..3, any::<bool>()), 1..12)) {
        let (mut mesh, _) = match constrained_delaunay(&pts, &[], false) {
            Ok(v) => v,
            Err(_) => return Ok(()),
        };
        for (k, i, constrain) in picks {
            let live: Vec<u32> = mesh.live_triangles().collect();
            if live.is_empty() {
                return Ok(());
            }
            let t = live[k % live.len()];
            let (a, b) = mesh.edge_vertices(t, i);
            if constrain {
                mesh.constrain_edge(a, b);
            }
            let mid = Point2::new(
                0.5 * (mesh.vertex(a as usize).x + mesh.vertex(b as usize).x),
                0.5 * (mesh.vertex(a as usize).y + mesh.vertex(b as usize).y),
            );
            mesh.split_edge(t, i, mid);
            mesh.check_consistency();
        }
    }

    /// A chord between two far hull points of a random cloud crosses a
    /// corridor of several triangles; forcing it in keeps the mesh
    /// consistent.
    #[test]
    fn constraint_across_a_corridor(pts in points(12..60)) {
        let mut all = pts.clone();
        all.extend([Point2::new(-200.0, 0.5), Point2::new(200.0, -0.5)]);
        let (mut mesh, map) = match constrained_delaunay(&all, &[], false) {
            Ok(v) => v,
            Err(_) => return Ok(()),
        };
        let (a, b) = (map[pts.len()], map[pts.len() + 1]);
        prop_assume!(mesh.find_edge(a, b).is_none());
        insert_constraint(&mut mesh, a, b).unwrap();
        mesh.check_consistency();
        prop_assert!(mesh.is_constrained_delaunay());
    }

    /// Carving a square hole out of a square with random points around
    /// and inside the hole keeps the mesh consistent: the vertices inside
    /// lose every triangle, and with them their hints.
    #[test]
    fn carve_with_a_hole(
        ring in prop::collection::vec((-0.95f64..0.95, -0.95f64..0.95), 0..40),
        hole in 0.1f64..0.6,
    ) {
        let mut pts: Vec<Point2> = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
            .into_iter()
            .chain([(-hole, -hole), (hole, -hole), (hole, hole), (-hole, hole)])
            .map(|(x, y)| Point2::new(x, y))
            .collect();
        pts.extend(ring.iter().map(|&(x, y)| Point2::new(x, y)));
        let segs = [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)];
        let (mut mesh, map) = constrained_delaunay(&pts, &segs, false).unwrap();
        carve(&mut mesh, &[Point2::new(0.0, 0.0)]);
        mesh.check_consistency();
        for (q, &v) in pts.iter().zip(&map) {
            let in_hole = q.x.abs() < hole && q.y.abs() < hole;
            prop_assert_eq!(mesh.triangle_of_vertex(v).is_none(), in_hole);
        }
    }

    /// A random chord forced into a random triangulation survives as a
    /// chain of constrained edges; the mesh stays consistent.
    #[test]
    fn random_constraints(pts in points(8..40), picks in prop::collection::vec((0usize..39, 0usize..39), 1..5)) {
        let (mut mesh, map) = match constrained_delaunay(&pts, &[], false) {
            Ok(v) => v,
            Err(_) => return Ok(()),
        };
        if mesh.num_triangles() == 0 {
            return Ok(());
        }
        for (i, j) in picks {
            let (i, j) = (i % pts.len(), j % pts.len());
            let (a, b) = (map[i], map[j]);
            if a == b {
                continue;
            }
            // Crossing previously-inserted constraints is a legal error;
            // everything else must succeed.
            let _ = insert_constraint(&mut mesh, a, b);
            mesh.check_consistency();
        }
        prop_assert!(mesh.is_constrained_delaunay());
    }

    /// Refinement of a random convex quadrilateral terminates within the
    /// quality bound and conserves area.
    #[test]
    fn refine_random_convex_quad(
        w in 0.5f64..4.0,
        h in 0.5f64..4.0,
        skew in -0.3f64..0.3,
        max_area in 0.01f64..0.2,
    ) {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(w, 0.0),
            Point2::new(w + skew, h),
            Point2::new(skew, h),
        ];
        let segs = [(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).unwrap();
        carve(&mut mesh, &[]);
        let stats = refine(
            &mut mesh,
            None,
            &RefineParams {
                max_area: Some(max_area),
                max_insertions: 200_000,
            },
        );
        prop_assert!(!stats.hit_cap);
        mesh.check_consistency();
        let q = adm_delaunay::quality::mesh_quality(&mesh);
        prop_assert!(q.max_ratio <= std::f64::consts::SQRT_2 + 1e-9);
        prop_assert!(q.max_area <= max_area + 1e-12);
        prop_assert!((q.total_area - w * h).abs() < 1e-6 * w * h);
    }
}
