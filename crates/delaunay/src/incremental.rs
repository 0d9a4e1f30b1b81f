//! Incremental Delaunay triangulation (Triangle's `-i` engine).
//!
//! The second from-scratch construction engine, cross-validating the
//! divide-and-conquer kernel: after a lexicographic bootstrap, the
//! remaining points go through the BRIO bulk-insertion path
//! ([`Mesh::insert_batch`]) — Hilbert-sorted rounds with a walking locate
//! from the last insertion, so the walk and the cavity stay
//! cache-resident. Interior points use the Bowyer–Watson cavity of
//! [`crate::mesh::Mesh::insert_point`]; exterior points grow the convex
//! hull by carving the Bowyer–Watson conflict cavity and fanning over the
//! visible hull arc.

use crate::brio::brio_order;
use crate::mesh::{Location, Mesh, NIL};
use adm_geom::point::Point2;
use adm_geom::predicates::{incircle_one, orient2d, orient2d_one};

/// Triangulates `input` incrementally. Exact duplicates are merged.
/// Returns `None` when fewer than 3 non-collinear distinct points exist.
pub fn triangulate_incremental(input: &[Point2]) -> Option<Mesh> {
    let mut pts: Vec<Point2> = input.to_vec();
    pts.sort_by(|a, b| a.lex_cmp(*b));
    pts.dedup();
    if pts.len() < 3 {
        return None;
    }
    // Bootstrap: first two points plus the first point not collinear with
    // them.
    let a = pts[0];
    let b = pts[1];
    let k = pts[2..].iter().position(|&p| orient2d(a, b, p) != 0.0)? + 2;
    let c = pts[k];
    let tri = if orient2d(a, b, c) > 0.0 {
        [0u32, 1, 2]
    } else {
        [0u32, 2, 1]
    };
    let mut mesh = Mesh::from_triangles(vec![a, b, c], vec![tri]);

    let rest: Vec<Point2> = pts
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 0 && i != 1 && i != k)
        .map(|(_, &p)| p)
        .collect();
    mesh.insert_batch(&rest);
    Some(mesh)
}

impl Mesh {
    /// Bulk insertion: inserts `pts` in BRIO order (Hilbert-sorted rounds,
    /// see [`crate::brio`]), chaining the locate hint from one insertion
    /// to the next so the point-location walk stays short and
    /// cache-resident. Points outside the hull grow it; exact duplicates
    /// resolve to the existing vertex.
    ///
    /// Returns the mesh vertex of each input point, in **input** order.
    /// On point sets in general position the result is bit-identical to
    /// inserting the points one at a time in any order (the Delaunay
    /// triangulation is unique); with cocircular degeneracies the diagonal
    /// choices follow the deterministic BRIO order.
    ///
    /// The mesh must already contain at least one triangle.
    pub fn insert_batch(&mut self, pts: &[Point2]) -> Vec<u32> {
        let mut out = vec![NIL; pts.len()];
        let mut hint = self
            .any_triangle()
            .expect("insert_batch needs a seeded mesh");
        for &i in &brio_order(pts) {
            let v = insert_with_growth(self, pts[i as usize], hint);
            out[i as usize] = v;
            if let Some(t) = self.triangle_of_vertex(v) {
                hint = t;
            }
        }
        out
    }
}

/// Inserts `p`, growing the hull if `p` lies outside. Returns the vertex.
pub fn insert_with_growth(mesh: &mut Mesh, p: Point2, hint: u32) -> u32 {
    match mesh.walk_from(hint, p, false) {
        Location::OnVertex(v, _) => v,
        Location::InTriangle(t) => mesh
            .insert_point(p, t)
            .expect("interior insert cannot fail"),
        Location::OnEdge(t, i) => mesh.split_edge(t, i, p),
        Location::Blocked(..) => unreachable!("walk without constraint stop"),
        Location::Outside(t, i) => grow_hull(mesh, p, t, i),
    }
}

/// Adds `p` outside the hull: deletes every triangle whose circumcircle
/// strictly contains `p` (the Bowyer–Watson conflict cavity, which may be
/// empty), then fans `p` over the union of the visible hull arc and the
/// cavity border. Flip-based legalization is deliberately avoided: on
/// exactly-cocircular inputs (grids) a cocircular quad can block the flip
/// wave from reaching a strictly-illegal triangle farther out, whereas
/// the conflict cavity is exact by construction.
fn grow_hull(mesh: &mut Mesh, p: Point2, exit_t: u32, exit_i: u8) -> u32 {
    let (eu, ev) = mesh.edge_vertices(exit_t, exit_i);
    debug_assert!(orient2d(mesh.vertex(eu as usize), mesh.vertex(ev as usize), p) < 0.0);

    // Boundary successor/predecessor by walking each endpoint's star
    // (allocation-free).
    let next_boundary = |mesh: &Mesh, v: u32| -> Option<(u32, u32)> {
        for t in mesh.star(v) {
            for j in 0..3u8 {
                if mesh.tris[t as usize].n[j as usize] == NIL {
                    let (x, y) = mesh.edge_vertices(t, j);
                    if x == v {
                        return Some((v, y));
                    }
                }
            }
        }
        None
    };
    let prev_boundary = |mesh: &Mesh, v: u32| -> Option<(u32, u32)> {
        for t in mesh.star(v) {
            for j in 0..3u8 {
                if mesh.tris[t as usize].n[j as usize] == NIL {
                    let (x, y) = mesh.edge_vertices(t, j);
                    if y == v {
                        return Some((x, y));
                    }
                }
            }
        }
        None
    };
    let visible = |mesh: &Mesh, u: u32, v: u32| -> bool {
        orient2d_one(mesh.vertex(u as usize), mesh.vertex(v as usize), p) < 0.0
    };

    // The contiguous visible hull arc through the exit edge: the forward
    // part from the exit edge on, then the backward part collected
    // separately and stitched in front (prepending into one Vec would be
    // O(h^2) across a long arc).
    let mut chain = vec![(eu, ev)];
    let mut cur = ev;
    while let Some(e) = next_boundary(mesh, cur) {
        if !visible(mesh, e.0, e.1) || e.1 == eu {
            break;
        }
        chain.push(e);
        cur = e.1;
    }
    let arc_end = chain.last().unwrap().1;
    let mut back: Vec<(u32, u32)> = Vec::new();
    let mut cur = eu;
    while let Some(e) = prev_boundary(mesh, cur) {
        if !visible(mesh, e.0, e.1) || e.0 == arc_end {
            break;
        }
        back.push(e);
        cur = e.0;
    }
    if !back.is_empty() {
        back.reverse();
        back.extend_from_slice(&chain);
        std::mem::swap(&mut chain, &mut back);
    }

    // Owners of the visible edges (before any mutation).
    let owners: Vec<(u32, u8)> = chain
        .iter()
        .map(|&(u, v)| {
            for bt in mesh.star(u) {
                for j in 0..3u8 {
                    if mesh.tris[bt as usize].n[j as usize] == NIL
                        && mesh.edge_vertices(bt, j) == (u, v)
                    {
                        return (bt, j);
                    }
                }
            }
            unreachable!("chain edge is not a boundary edge")
        })
        .collect();

    // Conflict cavity: BFS from the owners whose circumcircle strictly
    // contains p. Epoch stamps replace the membership hash set; push and
    // pop orders are unchanged.
    let conflicts = |mesh: &Mesh, t: u32| -> bool {
        let tri = mesh.tris[t as usize].v;
        incircle_one(
            mesh.vertex(tri[0] as usize),
            mesh.vertex(tri[1] as usize),
            mesh.vertex(tri[2] as usize),
            p,
        ) > 0.0
    };
    let mut s = std::mem::take(&mut mesh.scratch);
    let (active, _evicted) = s.begin(mesh.tris.len());
    for &(bt, _) in &owners {
        if s.stamp(bt) != active && conflicts(mesh, bt) {
            s.set_stamp(bt, active);
            s.stack.push(bt);
        }
    }
    while let Some(t) = s.stack.pop() {
        s.cavity.push(t);
        for j in 0..3u8 {
            let n = mesh.tris[t as usize].n[j as usize];
            if n == NIL || s.stamp(n) == active {
                continue;
            }
            if mesh.is_constrained_tri(t, j) {
                continue;
            }
            if conflicts(mesh, n) {
                s.set_stamp(n, active);
                s.stack.push(n);
            }
        }
    }

    // Border assembly: every edge (u, v, external) must have p on its
    // left so the fan triangle (p, u, v) is CCW.
    //  * cavity borders keep their CCW-in-cavity direction;
    //  * visible hull edges owned by NON-conflict triangles are reversed
    //    (p lies right of the hull direction) with the owner as external.
    for ti in 0..s.cavity.len() {
        let t = s.cavity[ti];
        for j in 0..3u8 {
            let n = mesh.tris[t as usize].n[j as usize];
            if n != NIL && s.stamp(n) == active {
                continue;
            }
            let (u, v) = mesh.edge_vertices(t, j);
            if n == NIL && visible(mesh, u, v) {
                // Absorbed: p sees this boundary edge from outside.
                continue;
            }
            s.border.push((u, v, n));
        }
    }
    for (&(u, v), &(bt, _)) in chain.iter().zip(&owners) {
        if s.stamp(bt) != active {
            s.border.push((v, u, bt));
        }
    }

    for ti in 0..s.cavity.len() {
        mesh.kill_triangle(s.cavity[ti]);
    }

    // Fan retriangulation (same wiring discipline as the interior cavity).
    let pv = mesh.push_vertex(p);
    for bi in 0..s.border.len() {
        let (u, v, n) = s.border[bi];
        if orient2d_one(p, mesh.vertex(u as usize), mesh.vertex(v as usize)) <= 0.0 {
            debug_assert_eq!(n, NIL, "degenerate fan edge with internal neighbor");
            continue;
        }
        let t = mesh.alloc_triangle([pv, u, v]);
        mesh.tris[t as usize].n[0] = n;
        if n != NIL {
            for j in 0..3u8 {
                let (x, y) = mesh.edge_vertices(n, j);
                if (x, y) == (v, u) || (x, y) == (u, v) {
                    mesh.tris[n as usize].n[j as usize] = t;
                    if mesh.is_constrained_tri(n, j) {
                        mesh.set_con_bit(t, 0);
                    }
                }
            }
        } else if mesh.is_constrained(u, v) {
            mesh.set_con_bit(t, 0);
        }
        for (other, outgoing, idx) in [(v, false, 1u8), (u, true, 2u8)] {
            if let Some((t2, j)) = s.match_spoke(other, outgoing, t, idx) {
                mesh.tris[t as usize].n[idx as usize] = t2;
                mesh.tris[t2 as usize].n[j as usize] = t;
            }
        }
    }
    mesh.scratch = s;
    pv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divconq::triangulate_dc;
    use adm_geom::predicates::incircle;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn assert_delaunay(mesh: &Mesh) {
        mesh.check_consistency();
        for t in mesh.live_triangles() {
            let tri = mesh.tris[t as usize].v;
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
                assert!(incircle(a, b, c, q) <= 0.0, "empty-circle violation");
            }
        }
    }

    #[test]
    fn too_few_or_collinear_points() {
        assert!(triangulate_incremental(&[p(0.0, 0.0), p(1.0, 0.0)]).is_none());
        assert!(
            triangulate_incremental(&[p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0), p(3.0, 3.0)])
                .is_none()
        );
    }

    #[test]
    fn square_with_interior_point() {
        let mesh = triangulate_incremental(&[
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 1.0),
            p(0.0, 1.0),
            p(0.4, 0.6),
        ])
        .unwrap();
        assert_eq!(mesh.num_triangles(), 4);
        assert_delaunay(&mesh);
    }

    #[test]
    fn hull_growth_collinear_runs() {
        // Points arriving in x order force repeated hull growth, including
        // collinear boundary chains.
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(p(i as f64, 0.0));
            pts.push(p(i as f64, 1.0));
        }
        let mesh = triangulate_incremental(&pts).unwrap();
        assert_delaunay(&mesh);
        // All 20 strip points lie on the hull: T = 2n - 2 - h.
        assert_eq!(mesh.num_triangles(), 2 * 20 - 2 - 20);
    }

    #[test]
    fn matches_divide_and_conquer_on_random_points() {
        use rand::{Rng, SeedableRng};
        for seed in 0..4u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pts: Vec<Point2> = (0..150)
                .map(|_| p(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
                .collect();
            let inc = triangulate_incremental(&pts).unwrap();
            assert_delaunay(&inc);
            let dc = triangulate_dc(&pts, false);
            // Same triangle count (general position -> unique DT).
            assert_eq!(
                inc.num_triangles(),
                dc.triangles().len(),
                "seed {seed}: engines disagree"
            );
            // Exact same triangle set by coordinates.
            let canon_inc = canon_mesh(&inc);
            let canon_dc: Vec<Vec<(u64, u64)>> = {
                let mut v: Vec<Vec<(u64, u64)>> = dc
                    .triangles()
                    .iter()
                    .map(|t| {
                        let mut c: Vec<(u64, u64)> = t
                            .iter()
                            .map(|&i| {
                                let q = dc.points[i as usize];
                                (q.x.to_bits(), q.y.to_bits())
                            })
                            .collect();
                        c.sort_unstable();
                        c
                    })
                    .collect();
                v.sort();
                v
            };
            assert_eq!(canon_inc, canon_dc, "seed {seed}");
        }
    }

    fn canon_mesh(mesh: &Mesh) -> Vec<Vec<(u64, u64)>> {
        let mut v: Vec<Vec<(u64, u64)>> = mesh
            .live_triangles()
            .map(|t| {
                let tri = mesh.tris[t as usize].v;
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
        v.sort();
        v
    }

    #[test]
    fn grid_points_weak_delaunay() {
        let mut pts = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                pts.push(p(i as f64, j as f64));
            }
        }
        let mesh = triangulate_incremental(&pts).unwrap();
        assert_delaunay(&mesh);
        assert_eq!(mesh.num_triangles(), 2 * 49 - 2 - 24);
    }

    #[test]
    fn duplicates_merge() {
        let mesh = triangulate_incremental(&[
            p(0.0, 0.0),
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(0.5, 1.0),
            p(0.5, 1.0),
        ])
        .unwrap();
        assert_eq!(mesh.num_vertices(), 3);
        assert_eq!(mesh.num_triangles(), 1);
    }
}
