//! Triangle mesh with adjacency, point location, and cavity insertion.
//!
//! The mesh stores vertices contiguously (paper §III argues for contiguous
//! `Vertex` storage) and triangles as CCW index triples with a parallel
//! neighbor array. Incremental insertion uses the Bowyer–Watson cavity
//! algorithm driven by the exact predicates; cavities never cross
//! constrained edges, so insertion preserves *constrained* Delaunayhood.
//!
//! Insertion only supports points inside the current mesh or on its edges —
//! the refinement pipeline never needs hull growth (circumcenters that
//! would fall outside the domain are intercepted as segment encroachment
//! before they are inserted).

use crate::bitset::BitSet;
use adm_geom::point::Point2;
use adm_geom::predicates::{incircle, orient2d};
use adm_kernel::GlobalVertexId;
use std::collections::HashMap;

/// Sentinel for "no neighbor" (mesh boundary).
pub const NIL: u32 = u32::MAX;

/// Canonical (unordered) vertex pair used as an edge key.
#[inline]
pub fn edge_key(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Why [`Mesh::try_from_triangles`] refused a triangle soup: the directed
/// edge `a -> b` is carried twice, or its reverse `b -> a` is carried by
/// two triangles or by the triangle that carries `a -> b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonManifoldEdge {
    /// Start vertex of the offending half-edge.
    pub a: u32,
    /// End vertex of the offending half-edge.
    pub b: u32,
}

impl std::fmt::Display for NonManifoldEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "non-manifold edge ({},{})", self.a, self.b)
    }
}

impl std::error::Error for NonManifoldEdge {}

/// Where a query point lies relative to the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Strictly inside triangle `t`.
    InTriangle(u32),
    /// On edge `i` of triangle `t` (but not on a vertex).
    OnEdge(u32, u8),
    /// Coincides with vertex `v` (some incident triangle is `t`).
    OnVertex(u32, u32),
    /// Outside the mesh; the walk exited through edge `i` of triangle `t`.
    Outside(u32, u8),
    /// The walk was stopped by a constrained edge `i` of triangle `t`
    /// before reaching the target (only from [`Mesh::walk_from`] with
    /// `stop_at_constraints`).
    Blocked(u32, u8),
}

/// Reusable buffers for cavity insertion, shared by all insertion paths so
/// the steady-state hot loop performs no heap allocation.
///
/// Cavity membership is tracked with an *epoch-stamped* mark array instead
/// of a per-insert `HashSet`: each insertion bumps the epoch by two and
/// writes `epoch - 1` ("in cavity") or `epoch` ("evicted by repair") into
/// `visited`; stamps from earlier insertions never match, so the array is
/// reusable without clearing. On (theoretical) epoch overflow the array is
/// zeroed and the counter restarts.
#[derive(Debug, Clone, Default)]
pub(crate) struct InsertScratch {
    /// Per-triangle-slot stamp; `0` matches no epoch.
    visited: Vec<u32>,
    epoch: u32,
    /// BFS work stack.
    pub(crate) stack: Vec<u32>,
    /// Cavity triangles in BFS pop order (the kill order).
    pub(crate) cavity: Vec<u32>,
    /// Border edges `(u, v, external, con)` as seen from inside the
    /// cavity: `con` is the dead triangle's constraint bit for the edge,
    /// which the new triangle on it inherits.
    pub(crate) border: Vec<(u32, u32, u32, bool)>,
    /// Open fan spokes `(other_vertex, outgoing, tri, edge_idx)` awaiting
    /// their twin; a linear-probed substitute for the old spoke `HashMap`
    /// (each spoke matches exactly once, so order cannot matter).
    spokes: Vec<(u32, bool, u32, u8)>,
}

impl InsertScratch {
    /// Opens a new insertion episode over `slots` triangle slots; returns
    /// the `(active, evicted)` stamps for this episode.
    pub(crate) fn begin(&mut self, slots: usize) -> (u32, u32) {
        if self.visited.len() < slots {
            self.visited.resize(slots, 0);
        }
        if self.epoch >= u32::MAX - 2 {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        self.stack.clear();
        self.cavity.clear();
        self.border.clear();
        self.spokes.clear();
        (self.epoch - 1, self.epoch)
    }

    #[inline]
    pub(crate) fn stamp(&self, t: u32) -> u32 {
        self.visited[t as usize]
    }

    #[inline]
    pub(crate) fn set_stamp(&mut self, t: u32, s: u32) {
        self.visited[t as usize] = s;
    }

    /// Registers fan spoke `(t, idx)` whose non-new endpoint is `other`
    /// (`outgoing` when the edge runs new-vertex -> `other`). If the twin
    /// spoke was registered earlier, removes and returns it for wiring.
    pub(crate) fn match_spoke(
        &mut self,
        other: u32,
        outgoing: bool,
        t: u32,
        idx: u8,
    ) -> Option<(u32, u8)> {
        if let Some(k) = self
            .spokes
            .iter()
            .position(|&(o, dir, _, _)| o == other && dir != outgoing)
        {
            let (_, _, t2, j) = self.spokes.swap_remove(k);
            Some((t2, j))
        } else {
            self.spokes.push((other, outgoing, t, idx));
            None
        }
    }
}

/// One triangle slot, fused: corner vertices, neighbor adjacency and the
/// constraint bitmask live in a single 28-byte record, so a cavity BFS
/// step or star walk touches one cache line per triangle instead of
/// three parallel arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TriRec {
    /// CCW corner vertices; garbage while the slot is dead.
    pub v: [u32; 3],
    /// `n[i]` = triangle across the edge opposite corner `i` (NIL = hull).
    pub n: [u32; 3],
    /// Constraint bitmask: bit `i` set iff edge `i` is constrained. The
    /// only record of constrained edges: both triangles on an interior
    /// edge carry the same bit, and an edge no live triangle carries is
    /// not constrained.
    pub con: u8,
}

const _: () = assert!(std::mem::size_of::<TriRec>() == 28);

/// Corners `3*t + i` of a triangle list bucketed by vertex `v[i]` (a
/// counting sort): the corners at `v` are `corner[start[v]..start[v + 1]]`,
/// in the order they were given. The transient index the manifoldness
/// proof reads, built on entry and dropped on return.
struct Corners {
    start: Vec<u32>,
    corner: Vec<u32>,
}

impl Corners {
    fn of(
        tris: &[TriRec],
        nv: usize,
        corners: impl DoubleEndedIterator<Item = u32> + Clone,
    ) -> Corners {
        let vertex = |c: u32| tris[c as usize / 3].v[c as usize % 3] as usize;
        let mut start = vec![0u32; nv + 1];
        for c in corners.clone() {
            start[vertex(c)] += 1;
        }
        for v in 1..=nv {
            start[v] += start[v - 1];
        }
        // Filling each bucket from its end leaves `start[v]` at its head.
        let mut corner = vec![0; start[nv] as usize];
        for c in corners.rev() {
            let v = vertex(c);
            start[v] -= 1;
            corner[start[v] as usize] = c;
        }
        Corners { start, corner }
    }

    fn at(&self, v: u32) -> &[u32] {
        &self.corner[self.start[v as usize] as usize..self.start[v as usize + 1] as usize]
    }
}

/// A triangle mesh with neighbor adjacency and constrained-edge bookkeeping.
///
/// Coordinates are stored as separate x/y arrays (SoA): coordinate-only
/// scans (canonical I/O, quality sweeps) stream them. All per-triangle
/// state is fused in one `TriRec` record per slot; liveness is one bit
/// per slot in a packed [`BitSet`]. Like Triangle, the mesh keeps only
/// adjacency plus one vertex→triangle hint, which no mutation leaves stale
/// (DESIGN.md "Hot-path architecture").
#[derive(Debug, Clone, Default)]
pub struct Mesh {
    /// Vertex x coordinates (vertices are never removed).
    coords_x: Vec<f64>,
    /// Vertex y coordinates, parallel to `coords_x`.
    coords_y: Vec<f64>,
    /// Fused triangle records; slots of dead triangles are garbage until
    /// reused through the free list.
    pub(crate) tris: Vec<TriRec>,
    alive: BitSet,
    live_count: usize,
    free: Vec<u32>,
    /// Some live triangle incident to each vertex (NIL when none is).
    vert_tri: Vec<u32>,
    /// Arena identity stamps per vertex (raw [`GlobalVertexId`] values,
    /// [`GlobalVertexId::NONE_RAW`] = unstamped). May be *shorter* than
    /// the vertex count: refinement Steiner points appended after stamping
    /// carry no identity and simply fall off the end of this table.
    global: Vec<u32>,
    pub(crate) scratch: InsertScratch,
}

impl Mesh {
    /// Builds a mesh from a vertex list and CCW triangle soup, deriving
    /// the neighbor adjacency from shared edges.
    ///
    /// This is the one manifoldness proof: twins are found through a
    /// transient index of corners by vertex, and the first time either side
    /// of an edge is visited every triangle carrying it (they all have a
    /// corner at its start vertex) is seen, so the outcome does not depend
    /// on the order the triangles arrive in.
    ///
    /// # Panics
    /// Panics if an edge is shared by more than two triangles or by two
    /// triangles with the same orientation (non-manifold input); see
    /// [`Mesh::try_from_triangles`] for the fallible form.
    pub fn from_triangles(vertices: Vec<Point2>, tris: Vec<[u32; 3]>) -> Self {
        match Mesh::try_from_triangles(vertices, tris) {
            Ok(mesh) => mesh,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Mesh::from_triangles`] for a soup from outside the program: a
    /// non-manifold edge (shared by more than two triangles, by two with
    /// the same orientation, or twice by one triangle with a repeated
    /// vertex) is returned as an error. A union of meshes that are already
    /// conforming need not go through a soup: [`Mesh::splice`] keeps their
    /// adjacency and proves only the edges they could share.
    ///
    /// # Panics
    /// Panics if a triangle names a vertex index `>= vertices.len()`;
    /// range-check untrusted indices first.
    pub fn try_from_triangles(
        vertices: Vec<Point2>,
        tris: Vec<[u32; 3]>,
    ) -> Result<Self, NonManifoldEdge> {
        let mut mesh = Mesh {
            vert_tri: vec![NIL; vertices.len()],
            coords_x: vertices.iter().map(|p| p.x).collect(),
            coords_y: vertices.iter().map(|p| p.y).collect(),
            ..Default::default()
        };
        mesh.tris.reserve_exact(tris.len());
        for v in tris {
            mesh.alloc_triangle(v);
        }
        let at = Corners::of(
            &mesh.tris,
            mesh.num_vertices(),
            0..3 * mesh.tris.len() as u32,
        );
        for t in 0..mesh.tris.len() as u32 {
            for i in 0..3 {
                // A linked half-edge was proven when its twin was visited.
                if mesh.tris[t as usize].n[i] == NIL {
                    mesh.link_twin(&at, t, i)?;
                }
            }
        }
        Ok(mesh)
    }

    /// The union of `parts` over `vertices`, where `parts[k].1[v]` is the
    /// merged index of vertex `v` of mesh `parts[k].0` (`u32::MAX` for a
    /// vertex no live triangle uses). The result is the state
    /// [`Mesh::try_from_triangles`] builds from the parts' live triangles,
    /// mapped, in part and slot order — same slots, vertex hints and
    /// adjacency. Each triangle keeps its part's constraint bits, and the
    /// two sides of an edge linked across parts carry the bit when either
    /// did: an edge of the union is constrained iff some part constrains
    /// it.
    ///
    /// Each part is a conforming mesh, so its adjacency is copied, not
    /// re-derived. A vertex only one part references has all its
    /// triangles in that part, so an edge can be carried by two parts
    /// only if both its endpoints are referenced by two or more: only
    /// those half-edges are linked (when `NIL`) or checked against every
    /// other triangle on the edge (when the part already linked them),
    /// and only the corners at those shared vertices are indexed for the
    /// proof, which stays complete. A part that maps two of its own
    /// vertices to one merged vertex voids that argument; then every
    /// half-edge is proven against every corner.
    pub fn splice(
        vertices: Vec<Point2>,
        parts: &[(&Mesh, &[u32])],
    ) -> Result<Mesh, NonManifoldEdge> {
        let nv = vertices.len();
        let total: usize = parts.iter().map(|(part, _)| part.num_triangles()).sum();
        let mut mesh = Mesh {
            vert_tri: vec![NIL; nv],
            coords_x: vertices.iter().map(|p| p.x).collect(),
            coords_y: vertices.iter().map(|p| p.y).collect(),
            alive: BitSet::with_len(total, true),
            live_count: total,
            ..Default::default()
        };
        // `shared[m]`: merged vertex `m` is referenced by two or more
        // parts; `last[m]` is the last part that referenced it.
        let mut last = vec![NIL; nv];
        let mut shared = vec![false; nv];
        let mut aliased = false;
        for (k, &(part, map)) in parts.iter().enumerate() {
            debug_assert_eq!(map.len(), part.num_vertices(), "one map entry per vertex");
            for &m in map.iter().filter(|&&m| m != NIL) {
                let seen = &mut last[m as usize];
                aliased |= *seen == k as u32;
                shared[m as usize] |= *seen != NIL;
                *seen = k as u32;
            }
        }
        if aliased {
            shared.fill(true);
        }
        mesh.tris.reserve_exact(total);
        let mut rank: Vec<u32> = Vec::new();
        let mut frontier: Vec<u32> = Vec::new();
        let mut corners: Vec<u32> = Vec::new();
        for &(part, map) in parts {
            // Part slot -> merged slot: live slots keep their order.
            let base = mesh.tris.len() as u32;
            rank.clear();
            rank.resize(part.num_slots(), NIL);
            for (r, s) in part.live_triangles().enumerate() {
                rank[s as usize] = base + r as u32;
            }
            for s in part.live_triangles() {
                let rec = part.tris[s as usize];
                let v = rec.v.map(|x| map[x as usize]);
                debug_assert!(v.iter().all(|&m| (m as usize) < nv), "unmapped corner");
                let t = mesh.tris.len() as u32;
                mesh.tris.push(TriRec {
                    v,
                    n: rec.n.map(|x| if x == NIL { NIL } else { rank[x as usize] }),
                    con: rec.con,
                });
                for i in 0..3 {
                    mesh.vert_tri[v[i] as usize] = t;
                    if shared[v[i] as usize] {
                        corners.push(3 * t + i as u32);
                    }
                    if shared[v[(i + 1) % 3] as usize] && shared[v[(i + 2) % 3] as usize] {
                        frontier.push(3 * t + i as u32);
                    }
                }
            }
        }
        let at = Corners::of(&mesh.tris, nv, corners.iter().copied());
        for h in frontier {
            mesh.link_twin(&at, h / 3, (h % 3) as usize)?;
        }
        Ok(mesh)
    }

    /// Pre-sizes every per-vertex and per-triangle array (plus the
    /// insertion scratch) for `add_vertices` / `add_triangles` more
    /// entries, so a subsequent bounded insertion loop allocates nothing.
    pub fn reserve(&mut self, add_vertices: usize, add_triangles: usize) {
        self.coords_x.reserve(add_vertices);
        self.coords_y.reserve(add_vertices);
        self.vert_tri.reserve(add_vertices);
        self.tris.reserve(add_triangles);
        self.alive.reserve(add_triangles);
        self.free.reserve(add_triangles);
        let slots = self.tris.len() + add_triangles;
        if self.scratch.visited.len() < slots {
            self.scratch.visited.resize(slots, 0);
        }
        self.scratch.stack.reserve(64);
        self.scratch.cavity.reserve(64);
        self.scratch.border.reserve(64);
        self.scratch.spokes.reserve(64);
    }

    /// Number of live triangles (O(1)).
    pub fn num_triangles(&self) -> usize {
        self.live_count
    }

    /// Number of triangle slots (live + dead); slot ids are `0..num_slots`.
    pub fn num_slots(&self) -> usize {
        self.tris.len()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.coords_x.len()
    }

    /// The coordinates of vertex `i`.
    #[inline]
    pub fn vertex(&self, i: usize) -> Point2 {
        Point2::new(self.coords_x[i], self.coords_y[i])
    }

    /// All vertex coordinates, materialized as a `Point2` list.
    pub fn points(&self) -> Vec<Point2> {
        self.coords_x
            .iter()
            .zip(&self.coords_y)
            .map(|(&x, &y)| Point2::new(x, y))
            .collect()
    }

    /// The corner vertices of triangle slot `t` (CCW).
    #[inline]
    pub fn tri(&self, t: usize) -> [u32; 3] {
        self.tris[t].v
    }

    /// The three neighbors of triangle slot `t` (`n[i]` faces corner `i`).
    #[inline]
    pub fn tri_neighbors(&self, t: usize) -> [u32; 3] {
        self.tris[t].n
    }

    /// The neighbor of triangle `t` across the edge opposite corner `i`.
    #[inline]
    pub fn neighbor(&self, t: usize, i: usize) -> u32 {
        self.tris[t].n[i]
    }

    /// Stamps vertex `v` with the arena identity `id`.
    ///
    /// Stamps assert the *global-id invariant*: the coordinates of `v`
    /// are bitwise-identical (modulo `-0.0`) to the arena point behind
    /// `id`, so any other stamped mesh containing the same coordinates
    /// carries the same id. Vertices left unstamped (refinement Steiner
    /// points) report `None` from [`Mesh::global_id`].
    pub fn stamp_vertex(&mut self, v: u32, id: GlobalVertexId) {
        if self.global.len() <= v as usize {
            self.global.resize(v as usize + 1, GlobalVertexId::NONE_RAW);
        }
        self.global[v as usize] = id.raw();
    }

    /// Stamps vertices `0..ids.len()` with `ids` in order — the common
    /// case where a mesh's vertex prefix is exactly its input point list.
    pub fn stamp_prefix(&mut self, ids: &[GlobalVertexId]) {
        for (v, &id) in ids.iter().enumerate() {
            self.stamp_vertex(v as u32, id);
        }
    }

    /// The arena identity of vertex `v`, if it was stamped.
    #[inline]
    pub fn global_id(&self, v: u32) -> Option<GlobalVertexId> {
        match self.global.get(v as usize) {
            Some(&raw) if raw != GlobalVertexId::NONE_RAW => Some(GlobalVertexId(raw)),
            _ => None,
        }
    }

    /// `true` when at least one vertex carries an arena identity stamp.
    pub fn has_global_ids(&self) -> bool {
        self.global.iter().any(|&g| g != GlobalVertexId::NONE_RAW)
    }

    /// `true` if triangle slot `t` is live.
    #[inline]
    pub fn is_alive(&self, t: u32) -> bool {
        self.alive.get(t as usize)
    }

    /// Iterator over live triangle ids.
    pub fn live_triangles(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.tris.len() as u32).filter(move |&t| self.alive.get(t as usize))
    }

    /// The two endpoints of edge `i` of triangle `t` (CCW direction).
    #[inline]
    pub fn edge_vertices(&self, t: u32, i: u8) -> (u32, u32) {
        let tri = self.tris[t as usize].v;
        (tri[(i as usize + 1) % 3], tri[(i as usize + 2) % 3])
    }

    /// Marks edge `(a, b)` constrained: sets its bit in both triangles
    /// that carry it.
    ///
    /// # Panics
    /// Panics if `(a, b)` is not an edge of the mesh.
    pub fn constrain_edge(&mut self, a: u32, b: u32) {
        let Some((t, i)) = self.locate_edge(a, b) else {
            panic!("constrained edge ({a},{b}) is not an edge of the mesh");
        };
        let n = self.tris[t as usize].n[i as usize];
        let on_edge = |&j: &u8| {
            let (x, y) = self.edge_vertices(n, j);
            edge_key(x, y) == edge_key(a, b)
        };
        let twin = (n != NIL).then(|| (0..3u8).find(on_edge)).flatten();
        self.tris[t as usize].con |= 1 << i;
        if let Some(j) = twin {
            self.tris[n as usize].con |= 1 << j;
        }
    }

    /// [`Mesh::find_edge`], falling back to a scan of every live triangle:
    /// where two regions touch at a vertex, its star walks one fan.
    pub(crate) fn locate_edge(&self, a: u32, b: u32) -> Option<(u32, u8)> {
        self.find_edge(a, b).or_else(|| {
            let mut edges = self
                .live_triangles()
                .flat_map(|t| (0..3u8).map(move |i| (t, i)));
            edges.find(|&(t, i)| {
                let (u, v) = self.edge_vertices(t, i);
                edge_key(u, v) == edge_key(a, b)
            })
        })
    }

    /// `true` when `(a, b)` is an edge of the mesh and constrained.
    #[cfg(test)]
    pub(crate) fn is_constrained(&self, a: u32, b: u32) -> bool {
        self.find_edge(a, b)
            .is_some_and(|(t, i)| self.is_constrained_tri(t, i))
    }

    /// `true` when edge `i` of live triangle `t` is constrained (bitmask
    /// lookup — the hash-free fast path when `(t, i)` is already known).
    #[inline]
    pub fn is_constrained_tri(&self, t: u32, i: u8) -> bool {
        (self.tris[t as usize].con >> i) & 1 != 0
    }

    /// Every constrained edge once, as a canonical pair, in slot order:
    /// an interior edge is reported by the lower of its two slots.
    pub fn constrained_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        // Most triangles carry no bit: test it before the liveness bit.
        let carriers = (0..self.tris.len() as u32)
            .filter(move |&t| self.tris[t as usize].con != 0 && self.alive.get(t as usize));
        carriers.flat_map(move |t| {
            let TriRec { v, n, con } = self.tris[t as usize];
            (0..3)
                .filter(move |&i| con >> i & 1 != 0 && n[i] > t)
                .map(move |i| edge_key(v[(i + 1) % 3], v[(i + 2) % 3]))
        })
    }

    /// Any live triangle, or `None` for an empty mesh.
    pub fn any_triangle(&self) -> Option<u32> {
        self.live_triangles().next()
    }

    /// A live triangle incident to vertex `v` (its cached hint), or `None`
    /// when no live triangle uses `v`.
    pub fn triangle_of_vertex(&self, v: u32) -> Option<u32> {
        let t = self.vert_tri[v as usize];
        let fresh =
            t == NIL || (self.alive.get(t as usize) && self.tris[t as usize].v.contains(&v));
        debug_assert!(fresh, "stale hint {t} at vertex {v}");
        if fresh {
            return (t != NIL).then_some(t);
        }
        // A stale hint, which no mutation path leaves behind: scan for the
        // lowest live incident id, the triangle the hint refresh of
        // `remove_triangles` writes, so star orders stay fixed.
        self.live_triangles()
            .find(|&s| self.tris[s as usize].v.contains(&v))
    }

    /// Index (0..3) of vertex `v` within triangle `t`.
    pub fn vertex_index_in(&self, t: u32, v: u32) -> Option<u8> {
        self.tris[t as usize]
            .v
            .iter()
            .position(|&x| x == v)
            .map(|i| i as u8)
    }

    /// Allocation-free iterator over the live triangles incident to `v`:
    /// CCW from the cached starting triangle, then (after hitting the
    /// boundary) CW from the start for the rest.
    pub fn star(&self, v: u32) -> StarIter<'_> {
        let start = self.triangle_of_vertex(v).unwrap_or(NIL);
        let phase = if start == NIL { 3 } else { 0 };
        StarIter {
            mesh: self,
            v,
            start,
            cur: start,
            phase,
        }
    }

    /// Finds the live triangle containing edge `(a, b)` (in either
    /// direction); returns `(t, i)` where `i` is the edge index.
    pub fn find_edge(&self, a: u32, b: u32) -> Option<(u32, u8)> {
        for t in self.star(a) {
            for i in 0..3u8 {
                let (u, v) = self.edge_vertices(t, i);
                if (u == a && v == b) || (u == b && v == a) {
                    return Some((t, i));
                }
            }
        }
        None
    }

    /// Walks from triangle `from` toward `target` along the straight line
    /// from `from`'s centroid. Stops when the target's containing triangle
    /// is reached, the mesh boundary is exited, or (when
    /// `stop_at_constraints`) a constrained edge must be crossed.
    pub fn walk_from(&self, from: u32, target: Point2, stop_at_constraints: bool) -> Location {
        debug_assert!(self.alive.get(from as usize));
        let mut cur = from;
        let mut prev = NIL;
        // Upper bound on steps to guarantee termination even if the line
        // walk degenerates; a straight walk visits each triangle at most
        // once.
        let max_steps = 4 * self.tris.len() + 16;
        for _ in 0..max_steps {
            let tri = self.tris[cur as usize].v;
            // Three explicit loads: `tri.map(..)` measured slower here.
            let (a, b, c) = (
                self.vertex(tri[0] as usize),
                self.vertex(tri[1] as usize),
                self.vertex(tri[2] as usize),
            );
            // `d[k]` is the orientation of the edge opposite vertex k.
            let d = [
                orient2d(b, c, target),
                orient2d(c, a, target),
                orient2d(a, b, target),
            ];
            if let Some(loc) = self.locate_in(cur, target, d) {
                return loc;
            }
            // Move through the most violated edge not returning to `prev`.
            // Stable 3-element insertion network: identical permutation
            // (including tie order) to the stable library sort it replaces.
            let mut order = [(d[0], 0u8), (d[1], 1u8), (d[2], 2u8)];
            if order[1].0 < order[0].0 {
                order.swap(0, 1);
            }
            if order[2].0 < order[1].0 {
                order.swap(1, 2);
                if order[1].0 < order[0].0 {
                    order.swap(0, 1);
                }
            }
            let mut moved = false;
            for &(d, i) in &order {
                if d >= 0.0 {
                    break;
                }
                let n = self.tris[cur as usize].n[i as usize];
                if n == prev && n != NIL {
                    continue;
                }
                if stop_at_constraints && self.is_constrained_tri(cur, i) {
                    return Location::Blocked(cur, i);
                }
                if n == NIL {
                    return Location::Outside(cur, i);
                }
                prev = cur;
                cur = n;
                moved = true;
                break;
            }
            if !moved {
                // Only the edge back to `prev` is violated; revisit is
                // impossible for a straight walk, treat conservatively.
                let (d, i) = order[0];
                debug_assert!(d < 0.0);
                let n = self.tris[cur as usize].n[i as usize];
                if n == NIL {
                    return Location::Outside(cur, i);
                }
                if stop_at_constraints && self.is_constrained_tri(cur, i) {
                    return Location::Blocked(cur, i);
                }
                prev = cur;
                cur = n;
            }
        }
        // The greedy walk can cycle among extreme slivers (it is not a
        // true straight-line walk). Fall back to an exhaustive scan —
        // exact, O(n), and only reached in pathological geometry.
        self.locate_by_scan(target, stop_at_constraints, cur)
    }

    /// Where `target` lies in triangle `t` given the orientations `d` of
    /// its three edges (lane `k` is the edge opposite corner `k`), or
    /// `None` when it lies outside. A target coinciding with a corner
    /// always lands inside (its two incident edge orientations are exactly
    /// zero and the third is the triangle's own CCW orientation), so the
    /// coordinate comparison runs once per location, not once per step.
    #[inline]
    fn locate_in(&self, t: u32, target: Point2, d: [f64; 3]) -> Option<Location> {
        if !d.iter().all(|&x| x >= 0.0) {
            return None;
        }
        let tri = self.tris[t as usize].v;
        if let Some(&vi) = tri.iter().find(|&&vi| self.vertex(vi as usize) == target) {
            return Some(Location::OnVertex(vi, t));
        }
        Some(match d.iter().position(|&x| x == 0.0) {
            Some(i) => Location::OnEdge(t, i as u8),
            None => Location::InTriangle(t),
        })
    }

    /// Exhaustive point location over all live triangles; the fallback
    /// when the greedy walk exhausts its step budget.
    fn locate_by_scan(&self, target: Point2, stop_at_constraints: bool, last: u32) -> Location {
        for t in self.live_triangles() {
            let [a, b, c] = self.tris[t as usize].v.map(|v| self.vertex(v as usize));
            let d = [
                orient2d(b, c, target),
                orient2d(c, a, target),
                orient2d(a, b, target),
            ];
            if let Some(loc) = self.locate_in(t, target, d) {
                return loc;
            }
        }
        // Outside every triangle. Report the boundary edge of the last
        // walk triangle that faces the target; with `stop_at_constraints`
        // a constrained facing edge reports Blocked.
        let tri = self.tris[last as usize].v;
        let (a, b, c) = (
            self.vertex(tri[0] as usize),
            self.vertex(tri[1] as usize),
            self.vertex(tri[2] as usize),
        );
        let ds = [
            orient2d(b, c, target),
            orient2d(c, a, target),
            orient2d(a, b, target),
        ];
        let mut worst = 0u8;
        for i in 1..3u8 {
            if ds[i as usize] < ds[worst as usize] {
                worst = i;
            }
        }
        if stop_at_constraints && self.is_constrained_tri(last, worst) {
            return Location::Blocked(last, worst);
        }
        Location::Outside(last, worst)
    }

    /// Appends a new vertex (no topology change). Used by construction
    /// engines that manage their own triangle creation.
    pub(crate) fn push_vertex(&mut self, p: Point2) -> u32 {
        self.coords_x.push(p.x);
        self.coords_y.push(p.y);
        self.vert_tri.push(NIL);
        (self.coords_x.len() - 1) as u32
    }

    /// Links half-edge `a -> b` (edge `i` of `t`) to its twin, found among
    /// `a`'s corners in `at` — every triangle on the edge has one — or
    /// leaves it `NIL` when nothing carries `b -> a`. An
    /// already-linked half-edge is proven instead: its neighbour must be
    /// the one triangle carrying `b -> a`. Fails if another triangle
    /// carries `a -> b`, or two carry `b -> a`. Linked twins end with the
    /// OR of their constraint bits.
    fn link_twin(&mut self, at: &Corners, t: u32, i: usize) -> Result<(), NonManifoldEdge> {
        let (a, b) = self.edge_vertices(t, i as u8);
        for &c in at.at(a) {
            let (t2, k) = (c / 3, (c % 3) as usize);
            let tri = self.tris[t2 as usize].v;
            // Corner `k` starts half-edge a -> tri[k+1] (edge k+2) and
            // ends half-edge tri[k+2] -> a (edge k+1).
            let again = tri[(k + 1) % 3] == b && (t2, (k + 2) % 3) != (t, i);
            let twin = tri[(k + 2) % 3] == b;
            let linked = self.tris[t as usize].n[i];
            let second = twin && (t2 == t || (linked != NIL && linked != t2));
            if again || second {
                return Err(NonManifoldEdge { a, b });
            }
            if twin {
                // Either side's bit constrains the edge; a part that linked
                // the edge itself gave both sides the same bit.
                let j = (k + 1) % 3;
                let bits = [(t, i), (t2, j)].map(|(s, e)| self.tris[s as usize].con >> e & 1);
                debug_assert!(linked == NIL || bits[0] == bits[1], "twin bits differ");
                self.tris[t as usize].n[i] = t2;
                self.tris[t2 as usize].n[j] = t;
                self.tris[t as usize].con |= bits[1] << i;
                self.tris[t2 as usize].con |= bits[0] << j;
            }
        }
        Ok(())
    }

    pub(crate) fn alloc_triangle(&mut self, verts: [u32; 3]) -> u32 {
        let t = if let Some(t) = self.free.pop() {
            let rec = &mut self.tris[t as usize];
            rec.v = verts;
            rec.n = [NIL; 3];
            rec.con = 0;
            self.alive.set(t as usize, true);
            t
        } else {
            let t = self.tris.len() as u32;
            self.tris.push(TriRec {
                v: verts,
                n: [NIL; 3],
                con: 0,
            });
            self.alive.push(true);
            t
        };
        self.live_count += 1;
        for &v in &verts {
            self.vert_tri[v as usize] = t;
        }
        t
    }

    pub(crate) fn kill_triangle(&mut self, t: u32) {
        debug_assert!(self.alive.get(t as usize));
        self.alive.set(t as usize, false);
        self.live_count -= 1;
        self.free.push(t);
    }

    /// Inserts point `p` into the mesh with the Bowyer–Watson cavity
    /// algorithm, starting the location walk at `hint` (any live triangle).
    ///
    /// Returns the vertex index of `p` (an existing index if `p` duplicates
    /// a mesh vertex). Returns `None` when `p` lies outside the mesh.
    ///
    /// If `p` lies on a constrained edge, that edge is split: the two
    /// halves inherit the constrained mark.
    pub fn insert_point(&mut self, p: Point2, hint: u32) -> Option<u32> {
        match self.walk_from(hint, p, false) {
            Location::OnVertex(v, _) => Some(v),
            Location::Outside(..) | Location::Blocked(..) => None,
            Location::InTriangle(t) => Some(self.insert_in_cavity(p, t, None)),
            Location::OnEdge(t, i) => Some(self.split_edge(t, i, p)),
        }
    }

    /// Splits edge `i` of triangle `t` at point `p` (intended to lie on or
    /// numerically near the edge — e.g. its midpoint, which is generally
    /// *not* exactly collinear in floating point). Unlike
    /// [`Mesh::insert_point`] this performs no location walk: the cavity is
    /// seeded from the edge's adjacent triangles and the edge itself is
    /// removed, so the split succeeds regardless of which side of the edge
    /// `p` rounded to. Constrained marks are inherited by both halves.
    pub fn split_edge(&mut self, t: u32, i: u8, p: Point2) -> u32 {
        let (a, b) = self.edge_vertices(t, i);
        let was_constrained = self.is_constrained_tri(t, i);
        // The split edge dies with both its triangles, and with it its bits.
        let v = self.insert_in_cavity(p, t, Some((t, i)));
        if was_constrained {
            self.constrain_edge(a, v);
            self.constrain_edge(v, b);
        }
        v
    }

    /// Core cavity insertion. `seed` is a triangle whose circumcircle
    /// contains `p` (its containing triangle). `on_edge` carries the edge
    /// `p` lies on, whose two adjacent triangles seed the cavity.
    fn insert_in_cavity(&mut self, p: Point2, seed: u32, on_edge: Option<(u32, u8)>) -> u32 {
        let pv = self.push_vertex(p);

        // Grow the conflict cavity by BFS. Constrained edges are opaque.
        // Scratch buffers + epoch stamps replace the per-insert hash sets;
        // the BFS pop/push order is unchanged, so the kill order — and with
        // it the free-list state and every downstream slot id — is too.
        let mut s = std::mem::take(&mut self.scratch);
        let (active, evicted) = s.begin(self.tris.len());
        s.set_stamp(seed, active);
        s.stack.push(seed);
        // When splitting an edge, both adjacent triangles seed the cavity
        // and the edge itself must never survive as a fan base — even when
        // `p` rounded slightly off the edge line.
        let mut skip_pair: Option<(u32, u32)> = None;
        let mut seed2 = NIL;
        if let Some((t, i)) = on_edge {
            skip_pair = Some(self.edge_vertices(t, i));
            let n = self.tris[t as usize].n[i as usize];
            if n != NIL && s.stamp(n) != active {
                s.set_stamp(n, active);
                s.stack.push(n);
                seed2 = n;
            }
        }
        while let Some(t) = s.stack.pop() {
            s.cavity.push(t);
            for i in 0..3u8 {
                let n = self.tris[t as usize].n[i as usize];
                if n == NIL || s.stamp(n) == active {
                    continue;
                }
                if self.is_constrained_tri(t, i) {
                    continue;
                }
                let tri = self.tris[n as usize].v;
                // Three explicit loads: `tri.map(..)` measured slower here.
                let (a, b, c) = (
                    self.vertex(tri[0] as usize),
                    self.vertex(tri[1] as usize),
                    self.vertex(tri[2] as usize),
                );
                if incircle(a, b, c, p) > 0.0 {
                    s.set_stamp(n, active);
                    s.stack.push(n);
                }
            }
        }

        // Collect the border: directed edges (u, v) of cavity triangles
        // whose neighbor is outside the cavity, with the external triangle.
        // The cavity must be star-shaped around p; when p is exactly
        // collinear with (or beyond) a border edge that has an internal
        // neighbor, the triangle contributing that edge is evicted from
        // the cavity (restamped) and the border recomputed (cavity
        // repair). Eviction only shrinks the set and never touches the
        // seeds (p lies inside them), so the loop terminates.
        'repair: loop {
            s.border.clear();
            let mut ti = 0;
            while ti < s.cavity.len() {
                let t = s.cavity[ti];
                ti += 1;
                if s.stamp(t) != active {
                    continue;
                }
                for i in 0..3u8 {
                    let n = self.tris[t as usize].n[i as usize];
                    if n != NIL && s.stamp(n) == active {
                        continue;
                    }
                    let (u, v) = self.edge_vertices(t, i);
                    let degenerate = {
                        let skip = skip_pair
                            .map(|(sa, sb)| (u == sa && v == sb) || (u == sb && v == sa))
                            .unwrap_or(false);
                        !skip
                            && orient2d(p, self.vertex(u as usize), self.vertex(v as usize)) <= 0.0
                    };
                    if degenerate && n != NIL && t != seed && t != seed2 {
                        s.set_stamp(t, evicted);
                        continue 'repair;
                    }
                    s.border.push((u, v, n, self.is_constrained_tri(t, i)));
                }
            }
            break;
        }
        {
            let InsertScratch {
                visited, cavity, ..
            } = &mut s;
            cavity.retain(|&t| visited[t as usize] == active);
        }
        for ti in 0..s.cavity.len() {
            self.kill_triangle(s.cavity[ti]);
        }

        // Fan retriangulation: one triangle (p, u, v) per border edge.
        // Degenerate edges (p exactly on a border edge, which only happens
        // when that edge lies on the mesh boundary) are skipped, leaving p
        // on the boundary.
        for bi in 0..s.border.len() {
            let (u, v, n, con) = s.border[bi];
            if let Some((sa, sb)) = skip_pair {
                if (u == sa && v == sb) || (u == sb && v == sa) {
                    debug_assert_eq!(n, NIL, "split edge survived as interior border");
                    continue;
                }
            }
            if orient2d(p, self.vertex(u as usize), self.vertex(v as usize)) <= 0.0 {
                debug_assert!(
                    n == NIL,
                    "degenerate fan edge with internal neighbor {n}: p={p:?} u={:?} v={:?} orient={}",
                    self.vertex(u as usize),
                    self.vertex(v as usize),
                    orient2d(p, self.vertex(u as usize), self.vertex(v as usize)),
                );
                continue;
            }
            let t = self.alloc_triangle([pv, u, v]);
            // Edge 0 (opposite p) is (u, v): pairs with external n and
            // inherits the dead triangle's constraint bit.
            self.tris[t as usize].n[0] = n;
            self.tris[t as usize].con = con as u8;
            if n != NIL {
                // Find n's edge matching (v, u).
                let mut fixed = false;
                for j in 0..3u8 {
                    let (x, y) = self.edge_vertices(n, j);
                    if (x == v && y == u) || (x == u && y == v) {
                        self.tris[n as usize].n[j as usize] = t;
                        fixed = true;
                        break;
                    }
                }
                debug_assert!(fixed, "external neighbor lost its border edge");
            }
            // Edge 1 (opposite u) is (v, p); edge 2 (opposite v) is (p, u).
            // Both touch the brand-new vertex, so neither can be
            // constrained; they pair up with their twin spokes.
            for (other, outgoing, idx) in [(v, false, 1u8), (u, true, 2u8)] {
                if let Some((t2, j)) = s.match_spoke(other, outgoing, t, idx) {
                    self.tris[t as usize].n[idx as usize] = t2;
                    self.tris[t2 as usize].n[j as usize] = t;
                }
            }
        }
        self.scratch = s;
        pv
    }

    /// Removes the triangles of `dead`, an ascending slot list, patching
    /// surviving neighbors to NIL and refreshing vertex-triangle hints.
    /// Slots are freed in list order, so the free list's reuse order is a
    /// function of the set. A constrained edge of a removed triangle
    /// survives on its surviving twin, if any.
    pub fn remove_triangles(&mut self, dead: &[u32]) {
        debug_assert!(dead.windows(2).all(|w| w[0] < w[1]), "slots must ascend");
        for &t in dead {
            debug_assert!(self.alive.get(t as usize));
            for i in 0..3u8 {
                let n = self.tris[t as usize].n[i as usize];
                if n != NIL && dead.binary_search(&n).is_err() {
                    for j in 0..3u8 {
                        if self.tris[n as usize].n[j as usize] == t {
                            self.tris[n as usize].n[j as usize] = NIL;
                        }
                    }
                }
            }
            self.kill_triangle(t);
        }
        // Refresh hints for vertices that pointed at dead triangles.
        for v in 0..self.vert_tri.len() {
            let t = self.vert_tri[v];
            if t != NIL && !self.alive.get(t as usize) {
                self.vert_tri[v] = NIL;
            }
        }
        for t in 0..self.tris.len() as u32 {
            if self.alive.get(t as usize) {
                for &v in &self.tris[t as usize].v {
                    if self.vert_tri[v as usize] == NIL {
                        self.vert_tri[v as usize] = t;
                    }
                }
            }
        }
    }

    /// Replaces the triangulation inside a cavity: kills `dead` triangles
    /// and installs `new_tris` (CCW triples), wiring internal adjacency and
    /// reconnecting to the external border. `border` lists the *directed*
    /// border edges `(u, v, external, con)` as seen from inside the
    /// cavity: the external triangle, and the dead triangle's constraint
    /// bit, which the new triangle on the edge inherits.
    pub(crate) fn replace_cavity(
        &mut self,
        dead: &[u32],
        new_tris: &[[u32; 3]],
        border: &[(u32, u32, u32, bool)],
    ) {
        for &t in dead {
            self.kill_triangle(t);
        }
        let mut pending: HashMap<(u32, u32), (u32, u8)> = HashMap::new();
        for tri in new_tris {
            let t = self.alloc_triangle(*tri);
            for i in 0..3u8 {
                let (u, v) = self.edge_vertices(t, i);
                if let Some((t2, j)) = pending.remove(&(v, u)) {
                    self.tris[t as usize].n[i as usize] = t2;
                    self.tris[t2 as usize].n[j as usize] = t;
                } else if let Some(&(_, _, n, con)) =
                    border.iter().find(|&&(x, y, _, _)| (x, y) == (u, v))
                {
                    self.tris[t as usize].n[i as usize] = n;
                    self.tris[t as usize].con |= (con as u8) << i;
                    if n != NIL {
                        for j in 0..3u8 {
                            let (x, y) = self.edge_vertices(n, j);
                            if (x, y) == (v, u) {
                                self.tris[n as usize].n[j as usize] = t;
                            }
                        }
                    }
                } else {
                    pending.insert((u, v), (t, i));
                }
            }
        }
        debug_assert!(pending.is_empty(), "unmatched cavity edges: {pending:?}");
    }

    /// Verifies internal consistency: neighbor symmetry, equal constraint
    /// bits on both sides of every interior edge, CCW orientation,
    /// vertex-triangle hints. Panics with a description on failure. For
    /// tests and debug assertions.
    pub fn check_consistency(&self) {
        for t in self.live_triangles() {
            let tri = self.tris[t as usize].v;
            for &v in &tri {
                assert_ne!(
                    self.vert_tri[v as usize], NIL,
                    "vertex {v} of {t} has no hint"
                );
            }
            let (a, b, c) = (
                self.vertex(tri[0] as usize),
                self.vertex(tri[1] as usize),
                self.vertex(tri[2] as usize),
            );
            assert!(
                orient2d(a, b, c) > 0.0,
                "triangle {t} not CCW: {tri:?} {a:?} {b:?} {c:?}"
            );
            for i in 0..3u8 {
                let (u, v) = self.edge_vertices(t, i);
                let n = self.tris[t as usize].n[i as usize];
                if n == NIL {
                    continue;
                }
                assert!(
                    self.alive.get(n as usize),
                    "triangle {t} has dead neighbor {n}"
                );
                let j = (0..3u8)
                    .find(|&j| {
                        let (x, y) = self.edge_vertices(n, j);
                        self.tris[n as usize].n[j as usize] == t && ((x, y) == (v, u))
                    })
                    .unwrap_or_else(|| panic!("neighbor symmetry broken between {t} and {n}"));
                assert_eq!(
                    self.is_constrained_tri(t, i),
                    self.is_constrained_tri(n, j),
                    "constraint bits differ across edge ({u},{v}) of {t} and {n}"
                );
            }
        }
        // Vertex hints: every hint that is not NIL names a live triangle
        // incident to its vertex, so (with the check above) a vertex holds
        // NIL exactly when no live triangle uses it.
        for (v, &t) in self.vert_tri.iter().enumerate() {
            let live = t == NIL || self.alive.get(t as usize);
            let fresh = live && (t == NIL || self.tris[t as usize].v.contains(&(v as u32)));
            assert!(fresh, "vertex {v} has stale hint {t}");
        }
    }

    /// `true` when every non-constrained interior edge satisfies the local
    /// Delaunay (empty-circumcircle) condition — i.e. the mesh is a
    /// constrained Delaunay triangulation.
    pub fn is_constrained_delaunay(&self) -> bool {
        for t in self.live_triangles() {
            for i in 0..3u8 {
                let n = self.tris[t as usize].n[i as usize];
                if n == NIL || n < t {
                    continue;
                }
                let (u, v) = self.edge_vertices(t, i);
                if self.is_constrained_tri(t, i) {
                    continue;
                }
                let tri = self.tris[t as usize].v;
                let (a, b, c) = (
                    self.vertex(tri[0] as usize),
                    self.vertex(tri[1] as usize),
                    self.vertex(tri[2] as usize),
                );
                // Apex of the neighbor across edge i.
                let ntri = self.tris[n as usize].v;
                let apex = ntri
                    .iter()
                    .copied()
                    .find(|&x| x != u && x != v)
                    .expect("neighbor shares edge");
                if incircle(a, b, c, self.vertex(apex as usize)) > 0.0 {
                    return false;
                }
            }
        }
        true
    }
}

/// Allocation-free iterator over the live triangles incident to a vertex
/// (from [`Mesh::star`]): the vertex's hint triangle, its CCW successors up
/// to the boundary (or full circle), then the CW predecessors of the start.
pub struct StarIter<'a> {
    mesh: &'a Mesh,
    v: u32,
    start: u32,
    cur: u32,
    /// 0 = yield start, 1 = walking CCW, 2 = walking CW, 3 = done.
    phase: u8,
}

impl Iterator for StarIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            match self.phase {
                0 => {
                    self.phase = 1;
                    self.cur = self.start;
                    return Some(self.start);
                }
                1 => {
                    let i = self
                        .mesh
                        .vertex_index_in(self.cur, self.v)
                        .expect("vertex in triangle");
                    // CCW neighbor around v: across the edge opposite the
                    // vertex at position (i+1) — the edge (v, next_ccw).
                    let n = self.mesh.tris[self.cur as usize].n[((i + 1) % 3) as usize];
                    if n == NIL {
                        self.phase = 2;
                        self.cur = self.start;
                        continue;
                    }
                    if n == self.start {
                        self.phase = 3;
                        return None; // full circle
                    }
                    self.cur = n;
                    return Some(n);
                }
                2 => {
                    let i = self
                        .mesh
                        .vertex_index_in(self.cur, self.v)
                        .expect("vertex in triangle");
                    let n = self.mesh.tris[self.cur as usize].n[((i + 2) % 3) as usize];
                    if n == NIL || n == self.start {
                        self.phase = 3;
                        return None;
                    }
                    self.cur = n;
                    return Some(n);
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divconq::triangulate_dc;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn square_mesh() -> Mesh {
        // Unit square split along the (0,0)-(1,1) diagonal.
        Mesh::from_triangles(
            vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)],
            vec![[0, 1, 2], [0, 2, 3]],
        )
    }

    /// The hash-map twin linker `from_triangles` used before it proved
    /// manifoldness from a corner index: the adjacency oracle.
    fn hash_adjacency(tris: &[[u32; 3]]) -> Vec<[u32; 3]> {
        let mut n = vec![[NIL; 3]; tris.len()];
        let mut half: HashMap<(u32, u32), (usize, usize)> = HashMap::new();
        for (t, tri) in tris.iter().enumerate() {
            for i in 0..3 {
                let (a, b) = (tri[(i + 1) % 3], tri[(i + 2) % 3]);
                if let Some((t2, j)) = half.remove(&(b, a)) {
                    n[t][i] = t2 as u32;
                    n[t2][j] = t as u32;
                } else {
                    half.insert((a, b), (t, i));
                }
            }
        }
        n
    }

    /// The edge {0,1} under three triangles, in arrival order `order`.
    fn three_on_one_edge(order: [usize; 3]) -> Mesh {
        let tris = [[0, 1, 2], [1, 0, 3], [0, 1, 4]];
        let pts = vec![
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(0.5, 1.0),
            p(0.5, -1.0),
            p(0.5, 2.0),
        ];
        Mesh::from_triangles(pts, order.map(|k| tris[k]).to_vec())
    }

    macro_rules! third_triangle_panics {
        ($($name:ident: $order:expr,)*) => {$(
            #[test]
            #[should_panic(expected = "non-manifold")]
            fn $name() {
                three_on_one_edge($order);
            }
        )*};
    }
    // All six orders: a linker that forgets an edge once both its sides
    // have matched accepts four of them.
    third_triangle_panics! {
        third_triangle_order_012: [0, 1, 2],
        third_triangle_order_021: [0, 2, 1],
        third_triangle_order_102: [1, 0, 2],
        third_triangle_order_120: [1, 2, 0],
        third_triangle_order_201: [2, 0, 1],
        third_triangle_order_210: [2, 1, 0],
    }

    #[test]
    #[should_panic(expected = "non-manifold")]
    fn two_copies_of_one_triangle_are_rejected() {
        let pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)];
        Mesh::from_triangles(pts, vec![[0, 1, 2], [0, 1, 2]]);
    }

    #[test]
    fn shuffled_soup_links_the_same_twins_as_the_hash_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let pts: Vec<Point2> = (0..400)
            .map(|_| p(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let dc = triangulate_dc(&pts, false);
        let mut tris = dc.triangles();
        for k in (1..tris.len()).rev() {
            tris.swap(k, rng.gen_range(0..k + 1));
        }
        let want = hash_adjacency(&tris);
        let m = Mesh::from_triangles(dc.points.clone(), tris);
        m.check_consistency();
        for (t, n) in want.iter().enumerate() {
            assert_eq!(m.tri_neighbors(t), *n, "neighbours of slot {t}");
        }
    }

    fn mesh_from_dc(points: &[Point2]) -> Mesh {
        let t = triangulate_dc(points, false);
        let tris = t.triangles();
        Mesh::from_triangles(t.points.clone(), tris)
    }

    #[test]
    fn free_list_reuse_across_bitset_pack_boundary() {
        // Slots 63 and 64 straddle the packed-u64 word boundary of the
        // alive bitset. Kill one triangle on each side, then let the free
        // list hand both slots back, and check the bits land in the right
        // words both times.
        let mut rng = 7u64;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point2> = (0..60).map(|_| p(next() * 10.0, next() * 10.0)).collect();
        let mut m = mesh_from_dc(&pts);
        assert!(m.num_slots() > 65, "need slots on both sides of 63/64");

        let before = m.num_triangles();
        let (t63, t64) = (63u32, 64u32);
        let (v63, v64) = (m.tris[63].v, m.tris[64].v);
        m.kill_triangle(t63);
        m.kill_triangle(t64);
        assert!(!m.is_alive(t63) && !m.is_alive(t64));
        assert!(m.is_alive(62) && m.is_alive(65), "neighbors must survive");
        assert_eq!(m.num_triangles(), before - 2);

        // LIFO free list: 64 comes back first, then 63 — each allocation
        // must flip exactly its own bit back on.
        let r64 = m.alloc_triangle(v64);
        assert_eq!(r64, t64);
        assert!(m.is_alive(t64) && !m.is_alive(t63));
        let r63 = m.alloc_triangle(v63);
        assert_eq!(r63, t63);
        assert!(m.is_alive(t63) && m.is_alive(t64));
        assert_eq!(m.num_triangles(), before);
    }

    /// A hint made stale on purpose by a bare `kill_triangle`, which no
    /// product path leaves unrepaired: release builds scan for the lowest
    /// live incident id, and debug builds refuse to reach that scan.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "stale hint"))]
    fn stale_hint_falls_back_to_the_lowest_incident_triangle() {
        let pts: Vec<Point2> = (0..30)
            .map(|k| p((k * 7 % 11) as f64, (k * 5 % 13) as f64))
            .collect();
        let mut m = mesh_from_dc(&pts);
        // The last slot allocated is the hint of all three of its corners.
        let last = m.num_slots() as u32 - 1;
        let corners = m.tri(last as usize);
        m.kill_triangle(last);
        for v in corners {
            let lowest = m.live_triangles().find(|&t| m.tri(t as usize).contains(&v));
            assert_eq!(m.triangle_of_vertex(v), lowest, "vertex {v}");
        }
    }

    #[test]
    fn adjacency_from_soup() {
        let m = square_mesh();
        m.check_consistency();
        assert_eq!(m.num_triangles(), 2);
        // Shared edge (0, 2).
        assert_eq!(m.neighbor(0, 1), 1); // edge opposite vertex 1 of tri 0 is (2,0)
        assert_eq!(m.neighbor(1, 2), 0);
    }

    #[test]
    fn locate_inside_on_edge_on_vertex_outside() {
        let m = square_mesh();
        assert!(matches!(
            m.walk_from(0, p(0.6, 0.2), false),
            Location::InTriangle(0)
        ));
        assert!(matches!(
            m.walk_from(0, p(0.2, 0.6), false),
            Location::InTriangle(1)
        ));
        match m.walk_from(0, p(0.5, 0.5), false) {
            Location::OnEdge(t, i) => {
                let (a, b) = m.edge_vertices(t, i);
                assert_eq!(edge_key(a, b), (0, 2));
            }
            other => panic!("expected on-edge, got {other:?}"),
        }
        assert!(matches!(
            m.walk_from(0, p(1.0, 1.0), false),
            Location::OnVertex(2, _)
        ));
        assert!(matches!(
            m.walk_from(0, p(2.0, 2.0), false),
            Location::Outside(..)
        ));
    }

    #[test]
    fn insert_interior_point_keeps_delaunay() {
        let mut m = square_mesh();
        let v = m.insert_point(p(0.5, 0.25), 0).unwrap();
        assert_eq!(v, 4);
        m.check_consistency();
        assert!(m.is_constrained_delaunay());
        assert_eq!(m.num_triangles(), 4);
    }

    #[test]
    fn insert_on_interior_edge() {
        let mut m = square_mesh();
        let v = m.insert_point(p(0.5, 0.5), 0).unwrap();
        assert_eq!(v, 4);
        m.check_consistency();
        assert!(m.is_constrained_delaunay());
        assert_eq!(m.num_triangles(), 4);
    }

    #[test]
    fn insert_on_boundary_edge() {
        let mut m = square_mesh();
        let v = m.insert_point(p(0.5, 0.0), 0).unwrap();
        m.check_consistency();
        assert!(m.is_constrained_delaunay());
        // p is now a hull vertex; triangle count grows by 1.
        assert_eq!(m.num_triangles(), 3);
        assert!(m.star(v).next().is_some());
    }

    #[test]
    fn insert_duplicate_returns_existing() {
        let mut m = square_mesh();
        let v = m.insert_point(p(1.0, 0.0), 0).unwrap();
        assert_eq!(v, 1);
        assert_eq!(m.num_vertices(), 4);
    }

    #[test]
    fn insert_outside_returns_none() {
        let mut m = square_mesh();
        assert!(m.insert_point(p(3.0, 3.0), 0).is_none());
    }

    #[test]
    fn constrained_edge_split_inherits_mark() {
        let mut m = square_mesh();
        m.constrain_edge(0, 2);
        let v = m.insert_point(p(0.5, 0.5), 0).unwrap();
        assert!(!m.is_constrained(0, 2));
        assert!(m.is_constrained(0, v));
        assert!(m.is_constrained(v, 2));
        m.check_consistency();
    }

    #[test]
    #[should_panic(expected = "constraint bits differ")]
    fn a_bit_on_one_side_of_an_edge_is_inconsistent() {
        let mut m = square_mesh();
        // Edge 1 of triangle 0 is the shared diagonal (2, 0).
        m.tris[0].con |= 1 << 1;
        m.check_consistency();
    }

    #[test]
    #[should_panic(expected = "constrained edge (1,3) is not an edge of the mesh")]
    fn constraining_a_missing_edge_panics() {
        square_mesh().constrain_edge(1, 3);
    }

    #[test]
    fn cavity_does_not_cross_constraints() {
        // Square with constrained diagonal; insert a point whose cavity
        // would normally include both sides.
        let mut m = square_mesh();
        m.constrain_edge(0, 2);
        // Close to the diagonal inside triangle 0.
        let v = m.insert_point(p(0.55, 0.45), 0).unwrap();
        m.check_consistency();
        // The diagonal must survive.
        assert!(m.find_edge(0, 2).is_some());
        assert!(m.is_constrained(0, 2));
        let _ = v;
    }

    #[test]
    fn many_random_insertions_stay_delaunay() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut m = mesh_from_dc(&[p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)]);
        let mut hint = m.any_triangle().unwrap();
        for k in 0..300 {
            let q = p(rng.gen_range(0.01..9.99), rng.gen_range(0.01..9.99));
            let v = m
                .insert_point(q, hint)
                .unwrap_or_else(|| panic!("insert {k} failed"));
            hint = m.triangle_of_vertex(v).unwrap();
        }
        m.check_consistency();
        assert!(m.is_constrained_delaunay());
        // Euler: all 4 corners on hull, T = 2n - 2 - h.
        assert_eq!(m.num_triangles(), 2 * m.num_vertices() - 2 - 4);
    }

    #[test]
    fn triangles_around_interior_and_boundary_vertex() {
        let mut m = square_mesh();
        let v = m.insert_point(p(0.5, 0.5), 0).unwrap();
        assert_eq!(m.star(v).count(), 4);
        assert_eq!(m.star(0).count(), 2);
    }

    #[test]
    fn walk_blocked_by_constraint() {
        let mut m = square_mesh();
        m.constrain_edge(0, 2);
        // Walk from triangle 0 toward a point in triangle 1.
        let loc = m.walk_from(0, p(0.1, 0.9), true);
        match loc {
            Location::Blocked(t, i) => {
                let (a, b) = m.edge_vertices(t, i);
                assert_eq!(edge_key(a, b), (0, 2));
            }
            other => panic!("expected blocked, got {other:?}"),
        }
    }

    #[test]
    fn find_edge_works() {
        let m = square_mesh();
        assert!(m.find_edge(0, 2).is_some());
        assert!(m.find_edge(0, 1).is_some());
        assert!(m.find_edge(1, 3).is_none());
    }

    #[test]
    fn grid_insertions_on_lattice_lines() {
        // Insert points exactly on existing edges repeatedly.
        let mut m = mesh_from_dc(&[p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)]);
        let hint = m.any_triangle().unwrap();
        for k in 1..8 {
            let q = p(k as f64 * 0.5, k as f64 * 0.5); // on the diagonal
            m.insert_point(q, hint);
        }
        // Then the whole integer lattice: every unit square's corners are
        // cocircular, and the corners and diagonal points are duplicates.
        for i in 0..=4 {
            for j in 0..=4 {
                let hint = m.any_triangle().unwrap();
                m.insert_point(p(i as f64, j as f64), hint);
            }
        }
        assert_eq!(m.num_vertices(), 4 + 7 + 25 - 4 - 3);
        m.check_consistency();
        assert!(m.is_constrained_delaunay());
    }
}
