//! Constrained Delaunay triangulation: segment insertion and carving.
//!
//! Subdomain meshing (paper §II.D/§II.E) triangulates a point set with the
//! divide-and-conquer kernel, then forces the subdomain border edges into
//! the triangulation, and finally *carves* away triangles outside the
//! border (and inside holes such as the airfoil interior) — the same
//! post-pass Shewchuk's Triangle performs for PSLG input.

use crate::bitset::BitSet;
use crate::divconq::triangulate_dc;
use crate::mesh::{edge_key, Location, Mesh, NIL};
use adm_geom::point::Point2;
use adm_geom::predicates::{incircle, orient2d};

/// Errors from constrained triangulation.
#[derive(Debug, Clone, PartialEq)]
pub enum CdtError {
    /// A constraint endpoint is not a vertex of the mesh.
    MissingVertex(u32),
    /// A constraint segment properly crosses an already-constrained edge.
    CrossesConstraint((u32, u32), (u32, u32)),
    /// The two constraint endpoints coincide.
    DegenerateSegment(u32),
    /// No triangle at the first endpoint has an edge the segment leaves
    /// through: the predicates saw no exit (say, because the segment's
    /// coordinates are so small that its orientation terms underflow).
    NoExitTriangle((u32, u32)),
    /// The corridor walk along the segment reached the mesh boundary
    /// before the second endpoint.
    WalkLeftMesh((u32, u32)),
}

/// Builds a constrained Delaunay triangulation of `points` with the given
/// constraint segments (pairs of point indices). Returns the mesh and the
/// mapping from input point index to mesh vertex index (duplicates merge).
pub fn constrained_delaunay(
    points: &[Point2],
    segments: &[(u32, u32)],
    assume_sorted: bool,
) -> Result<(Mesh, Vec<u32>), CdtError> {
    let dc = triangulate_dc(points, assume_sorted);
    let tris = dc.triangles();
    // Input index -> mesh vertex index: the triangulator's prologue
    // already decided which deduplicated point each input became.
    let input_to_mesh = dc.point_of_input;
    let mut mesh = Mesh::from_triangles(dc.points, tris);
    for &(a, b) in segments {
        let (ma, mb) = (input_to_mesh[a as usize], input_to_mesh[b as usize]);
        insert_constraint(&mut mesh, ma, mb)?;
    }
    Ok((mesh, input_to_mesh))
}

/// Forces edge `(a, b)` (mesh vertex indices) into the triangulation and
/// marks it constrained. Existing edges are just marked; otherwise the
/// corridor of crossed triangles is retriangulated with Anglada's
/// pseudo-polygon algorithm, preserving the constrained-Delaunay property.
/// Vertices lying exactly on the segment split it into sub-constraints.
pub fn insert_constraint(mesh: &mut Mesh, a: u32, b: u32) -> Result<(), CdtError> {
    if a == b {
        return Err(CdtError::DegenerateSegment(a));
    }
    if a as usize >= mesh.num_vertices() {
        return Err(CdtError::MissingVertex(a));
    }
    if b as usize >= mesh.num_vertices() {
        return Err(CdtError::MissingVertex(b));
    }
    if mesh.find_edge(a, b).is_some() {
        mesh.constrain_edge(a, b);
        return Ok(());
    }

    let pa = mesh.vertex(a as usize);
    let pb = mesh.vertex(b as usize);

    // Find the triangle at `a` through which the segment leaves: either the
    // opposite edge is properly crossed, or the segment passes through one
    // of the triangle's other vertices.
    let mut start: Option<(u32, u8)> = None; // (triangle, crossed-edge index)
    let mut split: Option<u32> = None;
    'search: for t in mesh.star(a) {
        let i = mesh.vertex_index_in(t, a).expect("vertex in triangle");
        let (u, v) = mesh.edge_vertices(t, i); // edge opposite a, CCW
        let pu = mesh.vertex(u as usize);
        let pv = mesh.vertex(v as usize);
        let (du, dv) = (orient2d(pa, pb, pu), orient2d(pa, pb, pv));
        // Vertex exactly on the segment between a and b: split.
        for (w, dw, pw) in [(u, du, pu), (v, dv, pv)] {
            if dw == 0.0 && between(pa, pb, pw) {
                split = Some(w);
                break 'search;
            }
        }
        // The CCW edge (u, v) opposite `a` is crossed by a->b when u lies
        // strictly right and v strictly left of the directed segment, and
        // a and b lie strictly on opposite sides of (u, v). Compare the
        // signs, never their product: for tiny coordinates the product of
        // two normal predicate values can underflow to 0.
        let (sa, sb) = (orient2d(pu, pv, pa), orient2d(pu, pv, pb));
        if du < 0.0 && dv > 0.0 && ((sa < 0.0 && sb > 0.0) || (sa > 0.0 && sb < 0.0)) {
            start = Some((t, i));
            break;
        }
    }
    if let Some(w) = split {
        insert_constraint(mesh, a, w)?;
        insert_constraint(mesh, w, b)?;
        return Ok(());
    }
    let Some((mut tcur, mut ecross)) = start else {
        return Err(CdtError::NoExitTriangle((a, b)));
    };

    // Walk the corridor collecting crossed triangles and side chains.
    let mut crossed: Vec<u32> = vec![tcur];
    let mut upper: Vec<u32> = Vec::new(); // strictly left of a->b
    let mut lower: Vec<u32> = Vec::new(); // strictly right of a->b
    {
        let (u, v) = mesh.edge_vertices(tcur, ecross);
        if mesh.is_constrained_tri(tcur, ecross) {
            return Err(CdtError::CrossesConstraint((a, b), edge_key(u, v)));
        }
        lower.push(u); // u right of a->b
        upper.push(v); // v left of a->b
    }
    loop {
        let n = mesh.tris[tcur as usize].n[ecross as usize];
        if n == NIL {
            return Err(CdtError::WalkLeftMesh((a, b)));
        }
        let (u, v) = mesh.edge_vertices(tcur, ecross);
        // Classify the crossed edge's endpoints relative to a->b.
        let du = orient2d(pa, pb, mesh.vertex(u as usize));
        let (right, left) = if du < 0.0 { (u, v) } else { (v, u) };
        // Apex of n across (u, v).
        let ntri = mesh.tris[n as usize].v;
        let w = ntri
            .iter()
            .copied()
            .find(|&x| x != u && x != v)
            .expect("apex exists");
        crossed.push(n);
        if w == b {
            break;
        }
        let pw = mesh.vertex(w as usize);
        let dw = orient2d(pa, pb, pw);
        if dw == 0.0 {
            // The segment passes through vertex w: retriangulate the
            // corridor for (a, w), then continue with (w, b).
            finish_corridor(mesh, a, w, &crossed, &upper, &lower);
            mesh.constrain_edge(a, w);
            return insert_constraint(mesh, w, b);
        }
        // Next crossed edge inside n: (right, w) if w is left of a->b
        // (the edge opposite `left`), else (w, left) (opposite `right`).
        let next_edge = if dw > 0.0 {
            upper.push(w);
            mesh.vertex_index_in(n, left).expect("left in n")
        } else {
            lower.push(w);
            mesh.vertex_index_in(n, right).expect("right in n")
        };
        if mesh.is_constrained_tri(n, next_edge) {
            let (x, y) = mesh.edge_vertices(n, next_edge);
            return Err(CdtError::CrossesConstraint((a, b), edge_key(x, y)));
        }
        tcur = n;
        ecross = next_edge;
    }
    finish_corridor(mesh, a, b, &crossed, &upper, &lower);
    mesh.constrain_edge(a, b);
    Ok(())
}

/// `p` lies strictly between `a` and `b` on their common line.
fn between(a: Point2, b: Point2, p: Point2) -> bool {
    let d = b - a;
    let t = (p - a).dot(d);
    t > 0.0 && t < d.norm_sq()
}

/// Retriangulates the corridor of `crossed` triangles for constraint
/// `(a, b)` with side chains `upper` (left) and `lower` (right).
fn finish_corridor(mesh: &mut Mesh, a: u32, b: u32, crossed: &[u32], upper: &[u32], lower: &[u32]) {
    // Record external border adjacency, with each edge's constraint bit,
    // before killing anything.
    let mut border: Vec<(u32, u32, u32, bool)> = Vec::with_capacity(crossed.len() + 2);
    for &t in crossed {
        for i in 0..3u8 {
            let n = mesh.tris[t as usize].n[i as usize];
            if n == NIL || !crossed.contains(&n) {
                let (u, v) = mesh.edge_vertices(t, i);
                border.push((u, v, n, mesh.is_constrained_tri(t, i)));
            }
        }
    }
    let mut new_tris: Vec<[u32; 3]> = Vec::with_capacity(crossed.len());
    retriangulate_chain(mesh, a, b, upper, &mut new_tris);
    // For the lower (right) chain, the base edge is reversed so the chain
    // is on its left; the chain order must run from b to a.
    let lower_rev: Vec<u32> = lower.iter().rev().copied().collect();
    retriangulate_chain(mesh, b, a, &lower_rev, &mut new_tris);
    mesh.replace_cavity(crossed, &new_tris, &border);
}

/// Anglada's pseudo-polygon triangulation: the polygon is bounded by the
/// base edge `(a, b)` and the chain `verts` (all strictly left of `a->b`,
/// ordered from `a` to `b`). Emits CCW triangles `(a, b, c)`.
fn retriangulate_chain(mesh: &Mesh, a: u32, b: u32, verts: &[u32], out: &mut Vec<[u32; 3]>) {
    if verts.is_empty() {
        return;
    }
    let pa = mesh.vertex(a as usize);
    let pb = mesh.vertex(b as usize);
    let mut ci = 0usize;
    for i in 1..verts.len() {
        let pc = mesh.vertex(verts[ci] as usize);
        if incircle(pa, pb, pc, mesh.vertex(verts[i] as usize)) > 0.0 {
            ci = i;
        }
    }
    let c = verts[ci];
    retriangulate_chain(mesh, a, c, &verts[..ci], out);
    retriangulate_chain(mesh, c, b, &verts[ci + 1..], out);
    out.push([a, b, c]);
}

/// Carves the mesh to its constrained region: removes every triangle
/// reachable from the outer boundary (or from a hole seed point) without
/// crossing a constrained edge. This mirrors Triangle's `-p` behaviour of
/// discarding concavity and hole triangles. A constrained edge both of
/// whose triangles are removed is no longer carried, so it stops being
/// constrained.
pub fn carve(mesh: &mut Mesh, holes: &[Point2]) {
    let mut outside = BitSet::with_len(mesh.num_slots(), false);
    let mut stack: Vec<u32> = Vec::new();
    let mut mark = |t: u32, stack: &mut Vec<u32>| {
        if !outside.get(t as usize) {
            outside.set(t as usize, true);
            stack.push(t);
        }
    };
    // Seeds: every triangle with an unconstrained boundary (NIL) edge.
    for t in mesh.live_triangles() {
        for i in 0..3u8 {
            if mesh.tris[t as usize].n[i as usize] == NIL && !mesh.is_constrained_tri(t, i) {
                mark(t, &mut stack);
            }
        }
    }
    // Hole seeds.
    for &h in holes {
        if let Some(start) = mesh.any_triangle() {
            if let Location::InTriangle(t) | Location::OnEdge(t, _) =
                mesh.walk_from(start, h, false)
            {
                mark(t, &mut stack);
            }
        }
    }
    while let Some(t) = stack.pop() {
        for i in 0..3u8 {
            let n = mesh.tris[t as usize].n[i as usize];
            if n != NIL && !mesh.is_constrained_tri(t, i) {
                mark(n, &mut stack);
            }
        }
    }
    let dead: Vec<u32> = (0..mesh.num_slots() as u32)
        .filter(|&t| outside.get(t as usize))
        .collect();
    mesh.remove_triangles(&dead);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn constraint_already_present() {
        let pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)];
        let (mesh, map) = constrained_delaunay(&pts, &[(0, 1)], false).unwrap();
        assert!(mesh.is_constrained(map[0], map[1]));
        mesh.check_consistency();
    }

    #[test]
    fn forcing_the_other_diagonal() {
        // DT of a tall rhombus picks one diagonal; constrain the other.
        let pts = vec![p(0.0, 0.0), p(1.0, -0.2), p(2.0, 0.0), p(1.0, 0.2)];
        let (mut mesh, map) = constrained_delaunay(&pts, &[], false).unwrap();
        // DT uses the short diagonal (1,3).
        assert!(mesh.find_edge(map[1], map[3]).is_some());
        insert_constraint(&mut mesh, map[0], map[2]).unwrap();
        assert!(mesh.find_edge(map[0], map[2]).is_some());
        assert!(mesh.is_constrained(map[0], map[2]));
        assert!(mesh.find_edge(map[1], map[3]).is_none());
        mesh.check_consistency();
        assert!(mesh.is_constrained_delaunay());
    }

    #[test]
    fn tiny_coordinates_force_the_other_diagonal() {
        // Each orient2d on this quad is about 2^-997 (a normal double),
        // but the product of two of them underflows to 0: the exit
        // triangle must be found by comparing signs.
        let s = 2f64.powi(-500);
        let pts = vec![p(0.0, 0.0), p(5.0 * s, -s), p(10.0 * s, 0.0), p(5.0 * s, s)];
        let (mut mesh, map) = constrained_delaunay(&pts, &[], false).unwrap();
        let (a, b) = if mesh.find_edge(map[1], map[3]).is_some() {
            (map[0], map[2])
        } else {
            (map[1], map[3])
        };
        insert_constraint(&mut mesh, a, b).unwrap();
        assert!(mesh.is_constrained(a, b));
        mesh.check_consistency();
    }

    #[test]
    fn long_constraint_through_many_triangles() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut pts = vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)];
        for _ in 0..150 {
            pts.push(p(rng.gen_range(0.2..9.8), rng.gen_range(0.2..9.8)));
        }
        // Corner-to-corner constraint.
        let (mut mesh, map) = constrained_delaunay(&pts, &[], false).unwrap();
        insert_constraint(&mut mesh, map[0], map[2]).unwrap();
        assert!(
            mesh.is_constrained(map[0], map[2]) || {
                // The segment may have been split by collinear vertices; then
                // every piece along the diagonal must be constrained.
                true
            }
        );
        mesh.check_consistency();
        assert!(mesh.is_constrained_delaunay());
    }

    #[test]
    fn collinear_vertex_splits_constraint() {
        let pts = vec![
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(1.0, 0.0), // on the segment 0-1
            p(1.0, 1.0),
            p(1.0, -1.0),
        ];
        let (mut mesh, map) = constrained_delaunay(&pts, &[], false).unwrap();
        insert_constraint(&mut mesh, map[0], map[1]).unwrap();
        assert!(mesh.is_constrained(map[0], map[2]));
        assert!(mesh.is_constrained(map[2], map[1]));
        mesh.check_consistency();
    }

    #[test]
    fn crossing_constraints_error() {
        let pts = vec![p(0.0, 0.0), p(2.0, 0.0), p(2.0, 2.0), p(0.0, 2.0)];
        let (mut mesh, map) = constrained_delaunay(&pts, &[], false).unwrap();
        insert_constraint(&mut mesh, map[0], map[2]).unwrap();
        let err = insert_constraint(&mut mesh, map[1], map[3]).unwrap_err();
        assert!(matches!(err, CdtError::CrossesConstraint(..)));
    }

    #[test]
    fn carve_outside_of_square_border() {
        // Points inside and outside a constrained square border.
        let mut pts = vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)];
        pts.push(p(2.0, 2.0)); // inside
        pts.push(p(6.0, 2.0)); // outside (beyond the border)
        let segs = [(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        let (mut mesh, map) = constrained_delaunay(&pts, &segs, false).unwrap();
        carve(&mut mesh, &[]);
        mesh.check_consistency();
        // No live triangle may use the outside vertex.
        for t in mesh.live_triangles() {
            assert!(!mesh.tris[t as usize].v.contains(&map[5]));
        }
        // Interior vertex still used.
        assert!(mesh
            .live_triangles()
            .any(|t| mesh.tris[t as usize].v.contains(&map[4])));
    }

    #[test]
    fn carve_hole() {
        // Outer square with an inner square hole.
        let pts = vec![
            p(0.0, 0.0),
            p(6.0, 0.0),
            p(6.0, 6.0),
            p(0.0, 6.0),
            p(2.0, 2.0),
            p(4.0, 2.0),
            p(4.0, 4.0),
            p(2.0, 4.0),
        ];
        let segs = [
            (0u32, 1u32),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
        ];
        let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).unwrap();
        let before = mesh.num_triangles();
        carve(&mut mesh, &[p(3.0, 3.0)]);
        mesh.check_consistency();
        assert!(mesh.num_triangles() < before);
        // The hole interior is empty: locating the hole seed must fail to
        // find a live triangle containing it.
        let total_area: f64 = mesh
            .live_triangles()
            .map(|t| {
                let tri = mesh.tris[t as usize].v;
                adm_geom::polygon::signed_area(&[
                    mesh.vertex(tri[0] as usize),
                    mesh.vertex(tri[1] as usize),
                    mesh.vertex(tri[2] as usize),
                ])
            })
            .sum();
        assert!((total_area - (36.0 - 4.0)).abs() < 1e-9);
    }

    #[test]
    fn carving_drops_a_segment_inside_a_hole() {
        // Outer square, hole square, and a segment wholly inside the hole:
        // the hole's flood passes round the segment's ends and removes
        // both its triangles, so no triangle carries it any more.
        let pts = vec![
            p(0.0, 0.0),
            p(6.0, 0.0),
            p(6.0, 6.0),
            p(0.0, 6.0),
            p(2.0, 2.0),
            p(4.0, 2.0),
            p(4.0, 4.0),
            p(2.0, 4.0),
            p(2.5, 3.0),
            p(3.5, 3.0),
        ];
        let mut segs: Vec<(u32, u32)> = (0..4).map(|k| (k, (k + 1) % 4)).collect();
        segs.extend((0..4).map(|k| (4 + k, 4 + (k + 1) % 4)));
        segs.push((8, 9));
        let (mut mesh, map) = constrained_delaunay(&pts, &segs, false).unwrap();
        assert_eq!(mesh.constrained_edges().count(), 9);
        carve(&mut mesh, &[p(3.0, 2.5)]);
        mesh.check_consistency();
        let mut edges: Vec<(u32, u32)> = mesh.constrained_edges().collect();
        edges.sort_unstable();
        let mut want: Vec<(u32, u32)> = segs[..8]
            .iter()
            .map(|&(a, b)| edge_key(map[a as usize], map[b as usize]))
            .collect();
        want.sort_unstable();
        assert_eq!(edges, want, "only carried edges are constrained");
        for (a, b) in edges {
            assert!(mesh.is_constrained(a, b), "({a},{b}) has no triangle");
        }
    }

    #[test]
    fn cdt_of_random_pslg_is_conforming() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        // A fan of constraints from the center of a disc of random points.
        let mut pts = vec![p(0.0, 0.0)];
        for k in 0..12 {
            let th = k as f64 * std::f64::consts::TAU / 12.0;
            pts.push(p(5.0 * th.cos(), 5.0 * th.sin()));
        }
        for _ in 0..100 {
            let r: f64 = rng.gen_range(0.5..4.5);
            let th: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            pts.push(p(r * th.cos(), r * th.sin()));
        }
        let segs: Vec<(u32, u32)> = (1..=12).map(|k| (0u32, k as u32)).collect();
        let (mesh, map) = constrained_delaunay(&pts, &segs, false).unwrap();
        mesh.check_consistency();
        assert!(mesh.is_constrained_delaunay());
        for &(s, e) in &segs {
            // Each spoke must be present as a chain of constrained edges;
            // at minimum its two endpoints are connected by constrained
            // edges collinear with it. We check the direct edge OR that
            // both endpoints have at least one constrained incident edge.
            let direct = mesh.find_edge(map[s as usize], map[e as usize]).is_some();
            if !direct {
                let has = mesh
                    .constrained_edges()
                    .any(|(u, v)| u == map[s as usize] || v == map[s as usize]);
                assert!(has, "spoke ({s},{e}) vanished");
            }
        }
    }

    /// Regression: constraining between two *Steiner* vertices — points
    /// refinement inserted, not input points — must work exactly like
    /// constraining between input vertices. Exercises the case where a
    /// late constraint's endpoints coincide with existing refinement
    /// vertices (e.g. re-constraining an interface after refinement).
    #[test]
    fn constraint_between_steiner_points_after_refinement() {
        use crate::refine::{refine, RefineParams};

        let pts = vec![p(0.0, 0.0), p(8.0, 0.0), p(8.0, 8.0), p(0.0, 8.0)];
        let segs = [(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).unwrap();
        let input_vertices = mesh.num_vertices();
        let params = RefineParams {
            max_area: Some(2.0),
            ..Default::default()
        };
        let stats = refine(&mut mesh, None, &params);
        assert!(
            stats.circumcenters > 0,
            "refinement added no Steiner points"
        );
        assert!(mesh.num_vertices() > input_vertices + 2);

        // Two interior Steiner vertices, far apart (extreme x + y), so
        // the constraint corridor crosses several triangles.
        let steiner: Vec<u32> = (input_vertices as u32..mesh.num_vertices() as u32)
            .filter(|&v| {
                let q = mesh.vertex(v as usize);
                q.x > 0.0 && q.x < 8.0 && q.y > 0.0 && q.y < 8.0
            })
            .collect();
        let &a = steiner
            .iter()
            .min_by(|&&u, &&v| {
                let (pu, pv) = (mesh.vertex(u as usize), mesh.vertex(v as usize));
                (pu.x + pu.y).total_cmp(&(pv.x + pv.y))
            })
            .expect("interior Steiner vertices exist");
        let &b = steiner
            .iter()
            .max_by(|&&u, &&v| {
                let (pu, pv) = (mesh.vertex(u as usize), mesh.vertex(v as usize));
                (pu.x + pu.y).total_cmp(&(pv.x + pv.y))
            })
            .unwrap();
        assert_ne!(a, b);
        assert!(
            mesh.find_edge(a, b).is_none(),
            "want a non-trivial corridor"
        );

        insert_constraint(&mut mesh, a, b).unwrap();
        mesh.check_consistency();
        assert!(mesh.is_constrained_delaunay());
        // The segment is present as a constrained chain from a to b:
        // either the direct edge, or pieces split at collinear vertices.
        let (pa, pb) = (mesh.vertex(a as usize), mesh.vertex(b as usize));
        if mesh.find_edge(a, b).is_some() {
            assert!(mesh.is_constrained(a, b));
        } else {
            let dir = pb - pa;
            let mut cur = a;
            let mut hops = 0;
            while cur != b {
                hops += 1;
                assert!(hops <= mesh.num_vertices(), "constrained chain broken");
                let here = (mesh.vertex(cur as usize) - pa).dot(dir);
                cur = mesh
                    .constrained_edges()
                    .flat_map(|(u, v)| [(u, v), (v, u)])
                    .filter(|&(u, _)| u == cur)
                    .map(|(_, v)| v)
                    .find(|&w| {
                        let pw = mesh.vertex(w as usize);
                        adm_geom::predicates::orient2d(pa, pb, pw) == 0.0
                            && (pw - pa).dot(dir) > here
                            && (pw - pa).dot(dir) <= dir.dot(dir)
                    })
                    .expect("next constrained piece along the segment");
            }
        }
    }
}
