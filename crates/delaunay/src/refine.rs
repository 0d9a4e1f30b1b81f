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

use crate::mesh::{Location, Mesh, NIL};
use crate::quality::circumcenter;
use adm_geom::point::Point2;
use std::collections::VecDeque;

/// Refinement controls.
#[derive(Clone)]
pub struct RefineParams {
    /// Circumradius-to-shortest-edge bound; `sqrt(2)` gives Ruppert's
    /// guaranteed-termination quality (min angle ≈ 20.7°).
    pub max_ratio: f64,
    /// Uniform area bound applied everywhere (in addition to the sizing
    /// function), or `None`.
    pub max_area: Option<f64>,
    /// Safety cap on point insertions.
    pub max_insertions: usize,
}

impl Default for RefineParams {
    fn default() -> Self {
        RefineParams {
            max_ratio: std::f64::consts::SQRT_2,
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
    let mut stats = RefineStats::default();
    let mut seg_queue: VecDeque<(u32, u32)> = VecDeque::new();
    let mut tri_queue: VecDeque<(u32, [u32; 3])> = VecDeque::new();
    // Input vertices where constrained segments meet at an acute angle:
    // their segments are split on concentric power-of-two shells instead
    // of at midpoints (Ruppert/Shewchuk), which stops the mutual-
    // encroachment cascade that acute corners otherwise trigger.
    let acute = acute_apexes(mesh);

    // Seed the queues. The constrained-edge set iterates in hash order,
    // which varies between runs; sort so refinement (and therefore the
    // whole pipeline) is deterministic.
    let mut segs: Vec<(u32, u32)> = mesh.constrained_edges().collect();
    segs.sort_unstable();
    for (a, b) in segs {
        if is_encroached(mesh, a, b) {
            seg_queue.push_back((a, b));
        }
    }
    for t in mesh.live_triangles().collect::<Vec<_>>() {
        if is_bad(mesh, t, sizing, params, &acute) {
            tri_queue.push_back((t, mesh.tris[t as usize].v));
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
            seg_queue.len(),
            tri_queue.len(),
            mesh.num_triangles()
        );
        // Encroached segments have priority.
        if let Some((a, b)) = seg_queue.pop_front() {
            // Stale entries: the edge may have been split already. A live
            // entry is split unconditionally — it was queued either because
            // an existing vertex encroaches it or because a rejected
            // circumcenter does; re-checking only the former livelocks.
            let Some((t, i)) = mesh.find_edge(a, b) else {
                continue;
            };
            if !mesh.is_constrained_tri(t, i) {
                continue;
            }
            let mid = shell_split_point(mesh, a, b, &acute);
            // Direct edge split: split points of slanted edges are
            // generally not exactly collinear with the edge, so a
            // locate-based insert could land them just outside the domain.
            let v = mesh.split_edge(t, i, mid);
            inserted += 1;
            stats.segment_splits += 1;
            after_insert(
                mesh,
                v,
                sizing,
                params,
                &acute,
                &mut seg_queue,
                &mut tri_queue,
            );
            continue;
        }
        let Some((t, verts)) = tri_queue.pop_front() else {
            break;
        };
        // Stale: the triangle may have been destroyed.
        if !mesh.is_alive(t) || mesh.tris[t as usize].v != verts {
            continue;
        }
        if !is_bad(mesh, t, sizing, params, &acute) {
            continue;
        }
        let tri = mesh.tris[t as usize].v;
        let (pa, pb, pc) = (
            mesh.vertex(tri[0] as usize),
            mesh.vertex(tri[1] as usize),
            mesh.vertex(tri[2] as usize),
        );
        let Some(cc) = circumcenter(pa, pb, pc) else {
            stats.skipped += 1;
            continue;
        };
        // Walk toward the circumcenter; constrained edges block.
        match mesh.walk_from(t, cc, true) {
            Location::OnVertex(..) => {
                stats.skipped += 1;
            }
            Location::Blocked(bt, bi) | Location::Outside(bt, bi) => {
                // The segment hiding the circumcenter is split instead.
                if mesh.is_constrained_tri(bt, bi) {
                    let (a, b) = mesh.edge_vertices(bt, bi);
                    let mid = shell_split_point(mesh, a, b, &acute);
                    let v = mesh.split_edge(bt, bi, mid);
                    inserted += 1;
                    stats.segment_splits += 1;
                    after_insert(
                        mesh,
                        v,
                        sizing,
                        params,
                        &acute,
                        &mut seg_queue,
                        &mut tri_queue,
                    );
                    // The original triangle may still be bad; requeue.
                    if mesh.is_alive(t) && mesh.tris[t as usize].v == verts {
                        tri_queue.push_back((t, verts));
                    }
                } else {
                    // Walked out of an unconstrained border — cannot happen
                    // when the boundary is fully constrained.
                    stats.skipped += 1;
                }
            }
            Location::InTriangle(ct) | Location::OnEdge(ct, _) => {
                // Reject the circumcenter if it encroaches a nearby
                // subsegment; split those segments instead (Ruppert's rule).
                let encroached = segments_encroached_by(mesh, cc, ct);
                if encroached.is_empty() {
                    if let Some(v) = mesh.insert_point(cc, ct) {
                        inserted += 1;
                        stats.circumcenters += 1;
                        after_insert(
                            mesh,
                            v,
                            sizing,
                            params,
                            &acute,
                            &mut seg_queue,
                            &mut tri_queue,
                        );
                    } else {
                        stats.skipped += 1;
                    }
                } else {
                    stats.encroach_rejections += 1;
                    for (a, b) in encroached {
                        seg_queue.push_back((a, b));
                    }
                    tri_queue.push_back((t, verts));
                }
            }
        }
    }
    stats.hit_cap = inserted >= params.max_insertions;
    stats
}

/// Vertices where two constrained edges meet at less than 75 degrees —
/// the apexes needing concentric-shell treatment. Computed once from the
/// initial constraint set: later splits only create 180-degree joints.
fn acute_apexes(mesh: &Mesh) -> std::collections::HashSet<u32> {
    use std::collections::HashMap;
    let mut incident: HashMap<u32, Vec<u32>> = HashMap::new();
    for (a, b) in mesh.constrained_edges() {
        incident.entry(a).or_default().push(b);
        incident.entry(b).or_default().push(a);
    }
    let mut acute = std::collections::HashSet::new();
    let threshold = 75f64.to_radians();
    for (&v, others) in &incident {
        if others.len() < 2 {
            continue;
        }
        let pv = mesh.vertex(v as usize);
        'outer: for i in 0..others.len() {
            for j in (i + 1)..others.len() {
                let d1 = mesh.vertex(others[i] as usize) - pv;
                let d2 = mesh.vertex(others[j] as usize) - pv;
                if d1.angle_between(d2) < threshold {
                    acute.insert(v);
                    break 'outer;
                }
            }
        }
    }
    acute
}

/// Split location for constrained segment `(a, b)`: the midpoint, unless
/// an endpoint is an acute apex — then the split lands on the concentric
/// power-of-two shell nearest the midpoint, so subsegments radiating from
/// the apex share shell radii and stop encroaching one another.
fn shell_split_point(
    mesh: &Mesh,
    a: u32,
    b: u32,
    acute: &std::collections::HashSet<u32>,
) -> Point2 {
    let pa = mesh.vertex(a as usize);
    let pb = mesh.vertex(b as usize);
    let apex = match (acute.contains(&a), acute.contains(&b)) {
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

/// After inserting vertex `v`, queue any newly bad triangles around it and
/// any newly encroached constrained edges of those triangles.
fn after_insert(
    mesh: &Mesh,
    v: u32,
    sizing: Option<AreaFn<'_>>,
    params: &RefineParams,
    acute: &std::collections::HashSet<u32>,
    seg_queue: &mut VecDeque<(u32, u32)>,
    tri_queue: &mut VecDeque<(u32, [u32; 3])>,
) {
    for t in mesh.star(v) {
        if is_bad(mesh, t, sizing, params, acute) {
            tri_queue.push_back((t, mesh.tris[t as usize].v));
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
                    seg_queue.push_back((a, b));
                }
            }
        }
    }
}

/// A triangle is bad when it violates the ratio bound or any area bound.
/// Triangles with an acute-apex vertex are exempt from the *ratio* bound:
/// quality there is limited by the input angle itself, and insisting on
/// `sqrt(2)` would refine forever (Triangle applies the same exemption).
fn is_bad(
    mesh: &Mesh,
    t: u32,
    sizing: Option<AreaFn<'_>>,
    params: &RefineParams,
    acute: &std::collections::HashSet<u32>,
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
        let centroid = Point2::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0);
        if area > f(centroid) {
            return true;
        }
    }
    if !acute.is_empty() && tri.iter().any(|v| acute.contains(v)) {
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
    ratio > params.max_ratio
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
        let before = mesh.num_constrained();
        let stats = refine(&mut mesh, None, &RefineParams::default());
        assert!(!stats.hit_cap);
        assert!(mesh.num_constrained() > before, "no segment was split");
        mesh.check_consistency();
        assert!(mesh.is_constrained_delaunay());
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
