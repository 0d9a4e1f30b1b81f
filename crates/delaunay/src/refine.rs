//! Ruppert's Delaunay refinement with area and sizing-function bounds.
//!
//! The decoupled inviscid subdomains (paper §II.E) are refined with
//! "Triangle's ability to use a user-defined area constraint for Delaunay
//! refinement": every triangle must satisfy the circumradius-to-shortest-
//! edge bound `sqrt(2)` (Ruppert's termination condition) *and* an area
//! bound evaluated from the sizing function at its centroid.
//!
//! The implementation follows Ruppert's algorithm on a constrained
//! Delaunay triangulation whose boundary is fully constrained:
//!
//! 1. encroached subsegments (a vertex inside the diametral circle) are
//!    split at their midpoint;
//! 2. bad triangles get their circumcenter inserted — unless the
//!    circumcenter encroaches a subsegment or is hidden behind one, in
//!    which case the offending subsegment is split instead.

use crate::bitset::BitSet;
use crate::mesh::{Location, Mesh, NIL};
use crate::quality::circumcenter;
use adm_geom::point::Point2;
use std::collections::VecDeque;

/// Circumradius-to-shortest-edge bound: `sqrt(2)` gives Ruppert's
/// guaranteed-termination quality (min angle ≈ 20.7°).
const MAX_RATIO: f64 = std::f64::consts::SQRT_2;

/// Refinement controls.
#[derive(Clone)]
pub struct RefineParams {
    /// Uniform area bound applied everywhere (in addition to the sizing
    /// function), or `None`.
    pub max_area: Option<f64>,
    /// Safety cap on point insertions.
    pub max_insertions: usize,
}

impl Default for RefineParams {
    fn default() -> Self {
        RefineParams {
            max_area: None,
            max_insertions: 10_000_000,
        }
    }
}

/// Statistics from a refinement run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Points inserted at segment midpoints.
    pub segment_splits: usize,
    /// Points inserted at triangle circumcenters.
    pub circumcenters: usize,
    /// Circumcenters rejected because they encroached nearby subsegments
    /// (Ruppert's rule: split those segments instead).
    pub encroach_rejections: usize,
    /// Bad triangles skipped because their circumcenter already exists as
    /// a vertex (cocircular clusters).
    pub skipped: usize,
    /// Calls of the sizing function (area tests the uniform bound did not
    /// already decide).
    pub sizing_evals: usize,
    /// Queue entries dropped on pop because their segment or triangle no
    /// longer exists.
    pub stale_pops: usize,
    /// Triangles removed by the insertion cavities of all inserted points.
    pub cavity_tris: usize,
    /// `true` when the insertion cap stopped refinement early.
    pub hit_cap: bool,
}

impl RefineStats {
    /// Accumulates another run's counts (for aggregating per-subdomain
    /// refinements into one pipeline-level figure).
    pub fn absorb(&mut self, other: &RefineStats) {
        self.segment_splits += other.segment_splits;
        self.circumcenters += other.circumcenters;
        self.encroach_rejections += other.encroach_rejections;
        self.skipped += other.skipped;
        self.sizing_evals += other.sizing_evals;
        self.stale_pops += other.stale_pops;
        self.cavity_tris += other.cavity_tris;
        self.hit_cap |= other.hit_cap;
    }

    /// Mirrors the counters into a trace metrics registry under the
    /// `refine.*` namespace (additive, so per-subdomain runs aggregate).
    pub fn publish(&self, tracer: &adm_trace::Tracer) {
        tracer.count("refine.segment_splits", self.segment_splits as u64);
        tracer.count("refine.circumcenters", self.circumcenters as u64);
        tracer.count(
            "refine.encroach_rejections",
            self.encroach_rejections as u64,
        );
        tracer.count("refine.skipped", self.skipped as u64);
        tracer.count("refine.sizing_evals", self.sizing_evals as u64);
        tracer.count("refine.stale_pops", self.stale_pops as u64);
        tracer.count("refine.cavity_tris", self.cavity_tris as u64);
    }
}

/// Area bound: target triangle *area* at a location (Triangle's `-a`).
pub type AreaFn<'a> = &'a dyn Fn(Point2) -> f64;

/// Refines `mesh` in place until every triangle satisfies the quality and
/// size bounds. The mesh boundary (every NIL-neighbor edge) must be
/// constrained — the pipeline guarantees this for all subdomains.
pub fn refine(mesh: &mut Mesh, sizing: Option<AreaFn<'_>>, params: &RefineParams) -> RefineStats {
    debug_assert!(
        boundary_fully_constrained(mesh),
        "mesh border must be constrained"
    );
    // Ascending pair order, not slot order: the initial encroachment
    // queue, and with it every refined mesh, is pinned to this order.
    let mut segs: Vec<(u32, u32)> = mesh.constrained_edges().collect();
    segs.sort_unstable();
    let mut r = Refiner {
        sizing,
        params,
        acute: acute_apexes(mesh, &segs),
        seg_queue: VecDeque::new(),
        tri_queue: VecDeque::new(),
        stats: RefineStats::default(),
    };
    for (a, b) in segs {
        if is_encroached(mesh, a, b) {
            r.seg_queue.push_back((a, b));
        }
    }
    for t in mesh.live_triangles() {
        if r.is_bad(mesh, t) {
            r.tri_queue.push_back((t, mesh.tris[t as usize].v));
        }
    }

    let mut inserted = 0usize;
    let mut spins = 0usize;
    while inserted < params.max_insertions {
        // A queue cycle that never inserts is a livelock; bail loudly.
        spins += 1;
        assert!(
            spins <= 64 * (inserted + mesh.num_triangles() + 64),
            "refinement livelock: inserted={inserted} seg_q={} tri_q={} tris={}",
            r.seg_queue.len(),
            r.tri_queue.len(),
            mesh.num_triangles()
        );
        // Encroached segments have priority.
        if let Some((a, b)) = r.seg_queue.pop_front() {
            // Stale entries: the edge may have been split already. A live
            // entry is split unconditionally — it was queued either because
            // an existing vertex encroaches it or because a rejected
            // circumcenter does; re-checking only the former livelocks.
            let (t, i) = match mesh.find_edge(a, b) {
                Some((t, i)) if mesh.is_constrained_tri(t, i) => (t, i),
                _ => {
                    r.stats.stale_pops += 1;
                    continue;
                }
            };
            let mid = r.split_point(mesh, a, b);
            // Direct edge split: split points of slanted edges are
            // generally not exactly collinear with the edge, so a
            // locate-based insert could land them just outside the domain.
            let v = mesh.split_edge(t, i, mid);
            inserted += 1;
            r.stats.segment_splits += 1;
            r.after_insert(mesh, v);
            continue;
        }
        let Some((t, verts)) = r.tri_queue.pop_front() else {
            break;
        };
        // Stale: the triangle may have been destroyed.
        if !mesh.is_alive(t) || mesh.tris[t as usize].v != verts {
            r.stats.stale_pops += 1;
            continue;
        }
        // No re-check: every push site queues a triangle it has just found
        // bad, `is_bad` is a pure function of the vertex triple, and that
        // triple was confirmed unchanged above.
        debug_assert!(
            is_bad(mesh, t, sizing, params, &r.acute, &mut 0),
            "queued triangle {t} {verts:?} is no longer bad"
        );
        let [pa, pb, pc] = verts.map(|v| mesh.vertex(v as usize));
        let Some(cc) = circumcenter(pa, pb, pc) else {
            r.stats.skipped += 1;
            continue;
        };
        // Walk toward the circumcenter; constrained edges block.
        match mesh.walk_from(t, cc, true) {
            Location::OnVertex(..) => {
                r.stats.skipped += 1;
            }
            Location::Blocked(bt, bi) | Location::Outside(bt, bi) => {
                // The segment hiding the circumcenter is split instead.
                if mesh.is_constrained_tri(bt, bi) {
                    let (a, b) = mesh.edge_vertices(bt, bi);
                    let mid = r.split_point(mesh, a, b);
                    let v = mesh.split_edge(bt, bi, mid);
                    inserted += 1;
                    r.stats.segment_splits += 1;
                    r.after_insert(mesh, v);
                    // The original triangle may still be bad; requeue.
                    if mesh.is_alive(t) && mesh.tris[t as usize].v == verts {
                        r.tri_queue.push_back((t, verts));
                    }
                } else {
                    // Walked out of an unconstrained border — cannot happen
                    // when the boundary is fully constrained.
                    r.stats.skipped += 1;
                }
            }
            Location::InTriangle(ct) | Location::OnEdge(ct, _) => {
                // Reject the circumcenter if it encroaches a nearby
                // subsegment; split those segments instead (Ruppert's rule).
                let encroached = segments_encroached_by(mesh, cc, ct);
                if encroached.is_empty() {
                    if let Some(v) = mesh.insert_point(cc, ct) {
                        inserted += 1;
                        r.stats.circumcenters += 1;
                        r.after_insert(mesh, v);
                    } else {
                        r.stats.skipped += 1;
                    }
                } else {
                    r.stats.encroach_rejections += 1;
                    r.seg_queue.extend(encroached);
                    r.tri_queue.push_back((t, verts));
                }
            }
        }
    }
    r.stats.hit_cap = inserted >= params.max_insertions;
    r.stats
}

/// The state of one refinement run besides the mesh: the bounds, the
/// acute apexes, both work queues and the counters.
struct Refiner<'a> {
    sizing: Option<AreaFn<'a>>,
    params: &'a RefineParams,
    acute: BitSet,
    seg_queue: VecDeque<(u32, u32)>,
    tri_queue: VecDeque<(u32, [u32; 3])>,
    stats: RefineStats,
}

impl Refiner<'_> {
    fn is_bad(&mut self, mesh: &Mesh, t: u32) -> bool {
        let evals = &mut self.stats.sizing_evals;
        is_bad(mesh, t, self.sizing, self.params, &self.acute, evals)
    }

    fn split_point(&self, mesh: &Mesh, a: u32, b: u32) -> Point2 {
        shell_split_point(mesh, a, b, |v| is_apex(&self.acute, v))
    }

    /// After inserting vertex `v`, counts its cavity (still in the
    /// mesh's insertion scratch) and queues any newly bad triangles around
    /// it and any newly encroached constrained edges of those triangles.
    fn after_insert(&mut self, mesh: &Mesh, v: u32) {
        self.stats.cavity_tris += mesh.scratch.cavity.len();
        for t in mesh.star(v) {
            if self.is_bad(mesh, t) {
                self.tri_queue.push_back((t, mesh.tris[t as usize].v));
            }
            for i in 0..3u8 {
                if mesh.is_constrained_tri(t, i) {
                    // `(t, i)` already spans the edge, so the diametral test
                    // runs directly on it and its neighbor — no find_edge
                    // rescan of the star.
                    let (a, b) = mesh.edge_vertices(t, i);
                    let pa = mesh.vertex(a as usize);
                    let pb = mesh.vertex(b as usize);
                    let apex_inside = |t: u32| {
                        let tri = mesh.tris[t as usize].v;
                        let apex = tri.iter().copied().find(|&x| x != a && x != b).unwrap();
                        let pv = mesh.vertex(apex as usize);
                        (pa - pv).dot(pb - pv) < 0.0
                    };
                    let n = mesh.tris[t as usize].n[i as usize];
                    if apex_inside(t) || (n != NIL && apex_inside(n)) {
                        self.seg_queue.push_back((a, b));
                    }
                }
            }
        }
    }
}

/// Vertices where two constrained edges meet at less than 75 degrees —
/// the apexes needing concentric-shell treatment — as one bit per vertex
/// of the initial mesh. Computed once from the initial constraint set
/// `segs`: later splits only create 180-degree joints, and the Steiner
/// points they add lie past the end of the set ([`is_apex`]).
fn acute_apexes(mesh: &Mesh, segs: &[(u32, u32)]) -> BitSet {
    // Both directions of every segment, grouped by their first vertex:
    // each group is one vertex's constrained neighbours. Whether some pair
    // in a group is acute does not depend on the order inside it.
    let mut ends: Vec<(u32, u32)> = segs.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
    ends.sort_unstable();
    let mut acute = BitSet::with_len(mesh.num_vertices(), false);
    let threshold = 75f64.to_radians();
    for group in ends.chunk_by(|x, y| x.0 == y.0) {
        let v = group[0].0;
        let pv = mesh.vertex(v as usize);
        let dir = |k: usize| mesh.vertex(group[k].1 as usize) - pv;
        let n = group.len();
        let mut pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        if pairs.any(|(i, j)| dir(i).angle_between(dir(j)) < threshold) {
            acute.set(v as usize, true);
        }
    }
    acute
}

/// `true` when `v` is an acute apex. Vertices added after
/// [`acute_apexes`] ran lie past the end of the set and never are.
#[inline]
fn is_apex(acute: &BitSet, v: u32) -> bool {
    (v as usize) < acute.len() && acute.get(v as usize)
}

/// Split location for constrained segment `(a, b)`: the midpoint, unless
/// exactly one endpoint is an acute apex — then the split lands on the
/// concentric power-of-two shell nearest the midpoint, so subsegments
/// radiating from the apex share shell radii and stop encroaching one
/// another.
fn shell_split_point(mesh: &Mesh, a: u32, b: u32, acute: impl Fn(u32) -> bool) -> Point2 {
    let pa = mesh.vertex(a as usize);
    let pb = mesh.vertex(b as usize);
    let apex = match (acute(a), acute(b)) {
        (true, false) => Some((pa, pb)),
        (false, true) => Some((pb, pa)),
        _ => None,
    };
    match apex {
        None => pa.midpoint(pb),
        Some((apex, other)) => {
            let d = apex.distance(other);
            // Nearest power of two to d/2, clamped to keep both pieces
            // non-degenerate.
            let r = (2.0f64)
                .powf((d / 2.0).log2().round())
                .clamp(0.25 * d, 0.75 * d);
            apex.lerp(other, r / d)
        }
    }
}

/// A triangle is bad when it violates the ratio bound or any area bound.
/// Triangles with an acute-apex vertex are exempt from the *ratio* bound:
/// quality there is limited by the input angle itself, and insisting on
/// `sqrt(2)` would refine forever (Triangle applies the same exemption).
/// A pure function of `t`'s vertex triple; `sizing_evals` counts the
/// calls of `sizing`.
fn is_bad(
    mesh: &Mesh,
    t: u32,
    sizing: Option<AreaFn<'_>>,
    params: &RefineParams,
    acute: &BitSet,
    sizing_evals: &mut usize,
) -> bool {
    let tri = mesh.tris[t as usize].v;
    let (a, b, c) = (
        mesh.vertex(tri[0] as usize),
        mesh.vertex(tri[1] as usize),
        mesh.vertex(tri[2] as usize),
    );
    // Cheapest bound first: the area tests need no square roots, and in
    // area-driven refinement they decide almost every call. The values
    // computed here are arithmetic-identical to `tri_quality`'s, so the
    // split decisions — and therefore the meshes — are unchanged.
    let area = 0.5 * (b - a).cross(c - a);
    if let Some(maxa) = params.max_area {
        if area > maxa {
            return true;
        }
    }
    if let Some(f) = sizing {
        *sizing_evals += 1;
        let centroid = Point2::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0);
        if area > f(centroid) {
            return true;
        }
    }
    if tri.iter().any(|&v| is_apex(acute, v)) {
        return false;
    }
    let la = b.distance(c);
    let lb = c.distance(a);
    let lc = a.distance(b);
    let shortest = la.min(lb).min(lc);
    let circumradius = if area.abs() > 0.0 {
        la * lb * lc / (4.0 * area.abs())
    } else {
        f64::INFINITY
    };
    let ratio = if shortest > 0.0 {
        circumradius / shortest
    } else {
        f64::INFINITY
    };
    ratio > MAX_RATIO
}

/// Subsegment encroachment test: a constrained edge is encroached when the
/// apex of an adjacent triangle lies strictly inside its diametral circle
/// (`angle(a, apex, b) > 90°`). In a CDT, if any vertex encroaches then an
/// adjacent apex does, so this check is complete.
fn is_encroached(mesh: &Mesh, a: u32, b: u32) -> bool {
    let Some((t, i)) = mesh.find_edge(a, b) else {
        return false;
    };
    let pa = mesh.vertex(a as usize);
    let pb = mesh.vertex(b as usize);
    let check_apex = |t: u32| {
        let tri = mesh.tris[t as usize].v;
        let apex = tri.iter().copied().find(|&x| x != a && x != b).unwrap();
        let pv = mesh.vertex(apex as usize);
        (pa - pv).dot(pb - pv) < 0.0
    };
    if check_apex(t) {
        return true;
    }
    let n = mesh.tris[t as usize].n[i as usize];
    n != NIL && check_apex(n)
}

/// Constrained edges of triangles adjacent to the insertion site whose
/// diametral circle contains `p`.
fn segments_encroached_by(mesh: &Mesh, p: Point2, at: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    // Examine the conflict region's border conservatively: triangles around
    // the located triangle's vertices.
    let tri = mesh.tris[at as usize].v;
    for &v in &tri {
        for t in mesh.star(v) {
            for i in 0..3u8 {
                if !mesh.is_constrained_tri(t, i) {
                    continue;
                }
                let (a, b) = mesh.edge_vertices(t, i);
                let pa = mesh.vertex(a as usize);
                let pb = mesh.vertex(b as usize);
                if (pa - p).dot(pb - p) < 0.0 && !out.contains(&(a, b)) {
                    out.push((a, b));
                }
            }
        }
    }
    out
}

/// `true` when every boundary (NIL-neighbor) edge is constrained.
pub fn boundary_fully_constrained(mesh: &Mesh) -> bool {
    for t in mesh.live_triangles() {
        for i in 0..3u8 {
            if mesh.tris[t as usize].n[i as usize] == NIL && !mesh.is_constrained_tri(t, i) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdt::{carve, constrained_delaunay};
    use crate::quality::{mesh_quality, tri_quality};

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn square_domain(side: f64) -> Mesh {
        let pts = vec![p(0.0, 0.0), p(side, 0.0), p(side, side), p(0.0, side)];
        let segs = [(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).unwrap();
        carve(&mut mesh, &[]);
        mesh
    }

    #[test]
    fn refine_square_meets_quality_bound() {
        let mut mesh = square_domain(1.0);
        let params = RefineParams {
            max_area: Some(0.01),
            ..Default::default()
        };
        let stats = refine(&mut mesh, None, &params);
        assert!(!stats.hit_cap);
        mesh.check_consistency();
        assert!(mesh.is_constrained_delaunay());
        let q = mesh_quality(&mesh);
        assert!(
            q.max_ratio <= std::f64::consts::SQRT_2 + 1e-9,
            "ratio {}",
            q.max_ratio
        );
        assert!(q.max_area <= 0.01 + 1e-12);
        assert!(q.min_angle.to_degrees() > 20.0);
        // Area conservation.
        assert!((q.total_area - 1.0).abs() < 1e-9);
    }

    #[test]
    fn refine_with_sizing_function_grades_the_mesh() {
        let mut mesh = square_domain(4.0);
        // Fine near the origin corner, coarse far away.
        let sizing = |q: Point2| 0.001 + 0.05 * (q.x * q.x + q.y * q.y) / 32.0;
        let params = RefineParams::default();
        let stats = refine(&mut mesh, Some(&sizing), &params);
        assert!(!stats.hit_cap);
        mesh.check_consistency();
        assert!(mesh.is_constrained_delaunay());
        // Every triangle obeys its local bound.
        for t in mesh.live_triangles() {
            let tri = mesh.tris[t as usize].v;
            let (a, b, c) = (
                mesh.vertex(tri[0] as usize),
                mesh.vertex(tri[1] as usize),
                mesh.vertex(tri[2] as usize),
            );
            let q = tri_quality(a, b, c);
            let centroid = Point2::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0);
            assert!(q.area <= sizing(centroid) + 1e-12);
        }
        // Grading: triangles near the origin are smaller on average than
        // those in the far corner.
        let mut near = (0.0, 0usize);
        let mut far = (0.0, 0usize);
        for t in mesh.live_triangles() {
            let tri = mesh.tris[t as usize].v;
            let (a, b, c) = (
                mesh.vertex(tri[0] as usize),
                mesh.vertex(tri[1] as usize),
                mesh.vertex(tri[2] as usize),
            );
            let centroid = Point2::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0);
            let area = tri_quality(a, b, c).area;
            if centroid.distance(p(0.0, 0.0)) < 1.0 {
                near = (near.0 + area, near.1 + 1);
            } else if centroid.distance(p(4.0, 4.0)) < 1.0 {
                far = (far.0 + area, far.1 + 1);
            }
        }
        assert!(near.1 > 0 && far.1 > 0);
        assert!(near.0 / near.1 as f64 <= far.0 / far.1 as f64);
    }

    #[test]
    fn refine_lshape_with_reflex_corner() {
        let pts = vec![
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(2.0, 1.0),
            p(1.0, 1.0),
            p(1.0, 2.0),
            p(0.0, 2.0),
        ];
        let segs = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)];
        let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).unwrap();
        carve(&mut mesh, &[]);
        let params = RefineParams {
            max_area: Some(0.02),
            ..Default::default()
        };
        let stats = refine(&mut mesh, None, &params);
        assert!(!stats.hit_cap);
        mesh.check_consistency();
        assert!(mesh.is_constrained_delaunay());
        let q = mesh_quality(&mesh);
        assert!(q.max_ratio <= std::f64::consts::SQRT_2 + 1e-9);
        assert!((q.total_area - 3.0).abs() < 1e-9);
    }

    #[test]
    fn refine_domain_with_hole_keeps_hole_empty() {
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
        carve(&mut mesh, &[p(3.0, 3.0)]);
        let params = RefineParams {
            max_area: Some(0.2),
            ..Default::default()
        };
        let stats = refine(&mut mesh, None, &params);
        assert!(!stats.hit_cap);
        mesh.check_consistency();
        let q = mesh_quality(&mesh);
        assert!((q.total_area - 32.0).abs() < 1e-9);
        assert!(q.max_ratio <= std::f64::consts::SQRT_2 + 1e-9);
    }

    #[test]
    fn encroached_boundary_segments_get_split() {
        // A tall thin rectangle with a vertex close to the bottom edge
        // forces encroachment splits.
        let pts = vec![
            p(0.0, 0.0),
            p(10.0, 0.0),
            p(10.0, 1.0),
            p(0.0, 1.0),
            p(5.0, 0.05),
        ];
        let segs = [(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).unwrap();
        carve(&mut mesh, &[]);
        let before = mesh.constrained_edges().count();
        let stats = refine(&mut mesh, None, &RefineParams::default());
        assert!(!stats.hit_cap);
        assert!(
            mesh.constrained_edges().count() > before,
            "no segment was split"
        );
        mesh.check_consistency();
        assert!(mesh.is_constrained_delaunay());
    }

    /// The map-and-set apex finder [`acute_apexes`] replaced: the oracle
    /// its bits are held to.
    fn acute_apex_set(mesh: &Mesh) -> std::collections::HashSet<u32> {
        let mut incident: std::collections::HashMap<u32, Vec<u32>> = Default::default();
        for (a, b) in mesh.constrained_edges() {
            incident.entry(a).or_default().push(b);
            incident.entry(b).or_default().push(a);
        }
        let mut acute = std::collections::HashSet::new();
        for (&v, others) in &incident {
            let pv = mesh.vertex(v as usize);
            for i in 0..others.len() {
                for j in (i + 1)..others.len() {
                    let d1 = mesh.vertex(others[i] as usize) - pv;
                    let d2 = mesh.vertex(others[j] as usize) - pv;
                    if d1.angle_between(d2) < 75f64.to_radians() {
                        acute.insert(v);
                    }
                }
            }
        }
        acute
    }

    #[test]
    fn apex_bits_and_hash_set_split_every_segment_alike() {
        // Six spokes 15 degrees apart from one apex, a 30-degree wedge
        // corner at another, a 60-degree corner, and an enclosing box whose
        // right angles are not acute.
        let mut pts = vec![p(0.0, 0.0)];
        let mut segs = Vec::new();
        for k in 0..6u32 {
            let th = (k as f64) * 15f64.to_radians();
            pts.push(p(3.0 * th.cos(), 3.0 * th.sin()));
            segs.push((0, k + 1));
        }
        let th = 30f64.to_radians();
        pts.extend([
            p(-3.0, -3.0),
            p(-1.0, -3.0),
            p(-3.0 + 2.0 * th.cos(), -3.0 + 2.0 * th.sin()),
        ]);
        segs.extend([(7, 8), (8, 9), (9, 7)]);
        pts.extend([p(-4.0, -4.0), p(5.0, -4.0), p(5.0, 5.0), p(-4.0, 5.0)]);
        segs.extend([(10, 11), (11, 12), (12, 13), (13, 10)]);
        let (mut mesh, map) = constrained_delaunay(&pts, &segs, false).unwrap();
        carve(&mut mesh, &[p(-2.5, -2.9)]);

        let set = acute_apex_set(&mesh);
        let mut sorted: Vec<(u32, u32)> = mesh.constrained_edges().collect();
        sorted.sort_unstable();
        let bits = acute_apexes(&mesh, &sorted);
        assert!(set.contains(&map[0]) && set.contains(&map[7]) && !set.contains(&map[10]));
        for v in 0..mesh.num_vertices() as u32 + 64 {
            assert_eq!(is_apex(&bits, v), set.contains(&v), "vertex {v}");
        }

        // The shell cascade: split every segment at an apex, round after
        // round, as encroachment does near acute corners. Both membership
        // tests must pick the same point for every split, including the
        // segments between earlier split points.
        let mut splits = 0;
        for _ in 0..5 {
            let mut edges: Vec<(u32, u32)> = mesh.constrained_edges().collect();
            edges.sort_unstable();
            for (a, b) in edges {
                let by_bit = shell_split_point(&mesh, a, b, |v| is_apex(&bits, v));
                let by_set = shell_split_point(&mesh, a, b, |v| set.contains(&v));
                assert_eq!(
                    (by_bit.x.to_bits(), by_bit.y.to_bits()),
                    (by_set.x.to_bits(), by_set.y.to_bits()),
                    "segment ({a}, {b})"
                );
                if set.contains(&a) || set.contains(&b) {
                    let (t, i) = mesh.find_edge(a, b).unwrap();
                    mesh.split_edge(t, i, by_bit);
                    splits += 1;
                }
            }
        }
        assert!(splits >= 30, "only {splits} apex splits");
        mesh.check_consistency();
    }

    #[test]
    fn already_good_mesh_is_untouched() {
        let mut mesh = square_domain(1.0);
        // Two right triangles with ratio sqrt(2)/... ratio of the right
        // isoceles triangle = hypotenuse/2 / leg = sqrt(2)/2 < sqrt(2).
        let n_before = mesh.num_triangles();
        let stats = refine(&mut mesh, None, &RefineParams::default());
        assert_eq!(stats.circumcenters + stats.segment_splits, 0);
        assert_eq!(mesh.num_triangles(), n_before);
    }
}
