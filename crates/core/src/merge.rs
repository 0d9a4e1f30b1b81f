//! Merging independently-meshed subdomains into one global mesh.
//!
//! Subdomain meshes share bitwise-identical border points (the decoupling
//! invariant), so merging is vertex deduplication plus a splice of the
//! parts' own adjacency: [`MeshMerger::finish`] hands every part and its
//! vertex map to [`Mesh::splice`], which links and proves only the
//! half-edges between vertices two or more parts reference — the only
//! edges two parts can share — and so proves the union conforming.
//! `merge_inputs` is the one spelling of that tail.
//! [`MeshMerger::add_mesh_spliced`] deduplicates through the arena:
//! vertices stamped with a [`GlobalVertexId`] resolve through a dense
//! array; unstamped vertices are hashed by their
//! (negative-zero-normalized) coordinate bits only when they are
//! constrained-edge endpoints (the only vertices the decoupling invariant
//! allows to be shared), and everything else is appended blindly. Hashing
//! is O(interface), not O(total).

use adm_delaunay::mesh::{Mesh, NonManifoldEdge, NIL};
use adm_geom::point::Point2;
use adm_kernel::{canonical_bits, canonical_point, GlobalVertexId};
use adm_mpirt::Pool;
use adm_partition::{reduction_plan, ReductionNode};
use adm_trace::{Tracer, Track};
use std::collections::HashMap;

/// Sentinel for "not yet resolved" in the dense id maps.
const UNRESOLVED: u32 = u32::MAX;

/// Accumulates subdomain meshes into one global mesh.
///
/// A merger is *associative over subtrees*: a merged intermediate keeps
/// enough per-vertex identity metadata ([`MeshMerger::absorb`]'s replay
/// classes) that splicing meshes `i..j` into their own merger and then
/// absorbing that merger into one holding meshes `0..i` produces
/// bitwise-identical state to splicing `0..j` sequentially. This is
/// what lets the tree-parallel reduction ([`crate::merge_tree_spliced`])
/// guarantee sha256-identical output to the sequential path-sorted
/// fold.
///
/// The merger holds the spliced meshes by reference, each with its local
/// -> merged vertex map, until [`MeshMerger::finish`] splices them.
#[derive(Default)]
pub struct MeshMerger<'a> {
    vertices: Vec<Point2>,
    /// The spliced meshes, in splice order.
    parts: Vec<&'a Mesh>,
    /// The parts' local -> merged vertex maps, concatenated in part order
    /// (one entry per part vertex; [`UNRESOLVED`] for a vertex no live
    /// triangle uses).
    maps: Vec<u32>,
    /// Canonical coordinate bits -> merged vertex (the hashing path).
    index: HashMap<(u64, u64), u32>,
    /// Arena id -> merged vertex (the splicing path).
    global_map: Vec<u32>,
    /// Per merged vertex: the first arena id registered to it
    /// ([`UNRESOLVED`] if none). Replayed by [`MeshMerger::absorb`].
    meta_gid: Vec<u32>,
    /// Per merged vertex: `true` iff it was created through the
    /// coordinate index (a shared / constrained-frontier vertex).
    meta_shared: Vec<bool>,
    /// Rare second-and-later arena ids cross-registered to a vertex
    /// that already carries one (mixed stamp/coordinate interfaces).
    extra_gids: Vec<(u32, u32)>,
    /// Per-call scratch: local vertex lies on a constrained edge.
    shared_mark: Vec<bool>,
}

impl<'a> MeshMerger<'a> {
    /// Creates an empty merger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a merger pre-sized for splicing: `arena_len` global ids
    /// (the minting arena's [`adm_kernel::MeshArena::len`]) plus room for
    /// `vertices` merged vertices and as many part vertices, so a bounded
    /// sequence of [`MeshMerger::add_mesh_spliced`] calls allocates nothing
    /// beyond the per-mesh scratch growth.
    pub fn with_capacity(arena_len: usize, vertices: usize) -> Self {
        MeshMerger {
            vertices: Vec::with_capacity(vertices),
            parts: Vec::with_capacity(16),
            maps: Vec::with_capacity(vertices),
            index: HashMap::with_capacity(arena_len + vertices / 8 + 16),
            global_map: vec![UNRESOLVED; arena_len],
            meta_gid: Vec::with_capacity(vertices),
            meta_shared: Vec::with_capacity(vertices),
            extra_gids: Vec::with_capacity(16),
            shared_mark: Vec::with_capacity(vertices),
        }
    }

    fn vertex_id(&mut self, p: Point2) -> u32 {
        *self.index.entry(canonical_bits(p)).or_insert_with(|| {
            self.vertices.push(canonical_point(p));
            self.meta_gid.push(UNRESOLVED);
            self.meta_shared.push(true);
            (self.vertices.len() - 1) as u32
        })
    }

    #[inline]
    fn push_vertex(&mut self, p: Point2) -> u32 {
        let id = self.vertices.len() as u32;
        self.vertices.push(canonical_point(p));
        self.meta_gid.push(UNRESOLVED);
        self.meta_shared.push(false);
        id
    }

    /// Registers `gid -> m` in the dense map (first registration wins,
    /// matching the sequential resolve paths, which never overwrite a
    /// hit) and records the id in the vertex's replayable metadata.
    fn register_gid(&mut self, m: u32, gid: GlobalVertexId) {
        let slot = self.global_slot(gid);
        if self.global_map[slot] != UNRESOLVED {
            return;
        }
        self.global_map[slot] = m;
        let raw = gid.raw();
        let meta = &mut self.meta_gid[m as usize];
        if *meta == UNRESOLVED {
            *meta = raw;
        } else if *meta != raw {
            self.extra_gids.push((m, raw));
        }
    }

    #[inline]
    fn global_slot(&mut self, gid: GlobalVertexId) -> usize {
        if self.global_map.len() <= gid.index() {
            self.global_map.resize(gid.index() + 1, UNRESOLVED);
        }
        gid.index()
    }

    /// Resolves a vertex that may be shared across meshes (a constrained-
    /// edge endpoint): by stamp when present, by canonical coordinates
    /// otherwise — and *cross-registers* both maps, because the mesh that
    /// introduced the point first may have carried the other kind of
    /// identity (merge order differs between the sequential and parallel
    /// drivers).
    fn resolve_shared(&mut self, mesh: &Mesh, v: u32) -> u32 {
        let p = mesh.vertex(v as usize);
        match mesh.global_id(v) {
            Some(gid) => {
                let slot = self.global_slot(gid);
                let hit = self.global_map[slot];
                if hit != UNRESOLVED {
                    return hit;
                }
                let m = self.vertex_id(p);
                self.register_gid(m, gid);
                m
            }
            None => self.vertex_id(p),
        }
    }

    /// Resolves a vertex the decoupling invariant guarantees is private
    /// to meshes carrying matching stamps: dense-array lookup for stamped
    /// vertices, blind append (no hashing at all) for the rest.
    fn resolve_private(&mut self, mesh: &Mesh, v: u32) -> u32 {
        let p = mesh.vertex(v as usize);
        match mesh.global_id(v) {
            Some(gid) => {
                let slot = self.global_slot(gid);
                let hit = self.global_map[slot];
                if hit != UNRESOLVED {
                    return hit;
                }
                let m = self.push_vertex(p);
                self.register_gid(m, gid);
                m
            }
            None => self.push_vertex(p),
        }
    }

    /// Adds `mesh` via the arena splicing path.
    ///
    /// Correctness rests on the global-id invariant's contrapositive: a
    /// vertex that can be shared with another subdomain mesh is either
    /// stamped in every mesh containing it, or lies on a constrained edge
    /// in every mesh containing it (interface loops are constrained, and
    /// segment splits inherit the constraint). So stamped vertices resolve
    /// through `global_map`, unstamped constrained endpoints through the
    /// coordinate index, and everything else is appended without any
    /// lookup. The mesh itself is kept for [`MeshMerger::finish`], with
    /// its vertex map.
    pub fn add_mesh_spliced(&mut self, mesh: &'a Mesh) {
        let n = mesh.num_vertices();
        let base = self.maps.len();
        self.maps.resize(base + n, UNRESOLVED);
        self.parts.push(mesh);
        self.shared_mark.clear();
        self.shared_mark.resize(n, false);
        // Pass 1: mark the shared-vertex frontier, the constrained-edge
        // endpoints. Every one is a corner of a live triangle.
        for (a, b) in mesh.constrained_edges() {
            self.shared_mark[a as usize] = true;
            self.shared_mark[b as usize] = true;
        }
        // Pass 2: triangle corners, in live order.
        for t in mesh.live_triangles() {
            for v in mesh.tri(t as usize) {
                if self.maps[base + v as usize] == UNRESOLVED {
                    self.maps[base + v as usize] = if self.shared_mark[v as usize] {
                        self.resolve_shared(mesh, v)
                    } else {
                        self.resolve_private(mesh, v)
                    };
                }
            }
        }
    }

    /// Absorbs another merger, exactly as if `child`'s meshes had been
    /// spliced into `self` directly, in the same order.
    ///
    /// This is the associativity primitive behind the tree-parallel
    /// merge: every child vertex is *replayed* through the same
    /// resolution class it was created with (stamped/unstamped ×
    /// shared/private, recorded in `meta_gid`/`meta_shared`), so the
    /// parent makes precisely the dedup decisions the sequential
    /// left-fold would have made — including the negative ones (two
    /// coincident private interior points still never alias), and
    /// including the cross-registration of stamp and coordinate
    /// identity. A stamped vertex already known to the parent (by id)
    /// resolves to the parent's copy *without* touching the coordinate
    /// index, matching the sequential early-return.
    ///
    /// Preconditions are the same as [`MeshMerger::add_mesh_spliced`]'s
    /// (the decoupling invariant, one arena minting all ids); both
    /// mergers must resolve ids against the same arena.
    pub fn absorb(&mut self, child: MeshMerger<'a>) {
        let MeshMerger {
            vertices,
            parts,
            maps,
            meta_gid,
            meta_shared,
            extra_gids,
            ..
        } = child;
        let mut cmap: Vec<u32> = Vec::with_capacity(vertices.len());
        for (i, &p) in vertices.iter().enumerate() {
            let gid = meta_gid[i];
            let m = if gid != UNRESOLVED {
                let slot = self.global_slot(GlobalVertexId(gid));
                let hit = self.global_map[slot];
                if hit != UNRESOLVED {
                    hit
                } else {
                    let m = if meta_shared[i] {
                        self.vertex_id(p)
                    } else {
                        self.push_vertex(p)
                    };
                    self.register_gid(m, GlobalVertexId(gid));
                    m
                }
            } else if meta_shared[i] {
                self.vertex_id(p)
            } else {
                self.push_vertex(p)
            };
            cmap.push(m);
        }
        for (v, gid) in extra_gids {
            self.register_gid(cmap[v as usize], GlobalVertexId(gid));
        }
        self.parts.extend(parts);
        self.maps.extend(maps.into_iter().map(|m| match m {
            UNRESOLVED => UNRESOLVED,
            m => cmap[m as usize],
        }));
    }

    /// Every part with its slice of `maps`, in splice order.
    fn part_maps(&self) -> impl Iterator<Item = (&'a Mesh, &[u32])> + '_ {
        let mut off = 0;
        self.parts.iter().map(move |&part| {
            let map = &self.maps[off..off + part.num_vertices()];
            off += part.num_vertices();
            (part, map)
        })
    }

    /// Finalizes into a global [`Mesh`] with [`Mesh::splice`]: each part's
    /// adjacency and constraint bits are kept, and only half-edges between
    /// vertices that two or more parts reference are linked or checked.
    /// Private vertices are never aliased, so no other edge can be shared,
    /// and the manifoldness proof is as complete as a rebuild from the
    /// triangle soup. Returns the first non-manifold edge if the union has
    /// one (an interface mismatch).
    pub fn try_finish(mut self) -> Result<Mesh, NonManifoldEdge> {
        let vertices = std::mem::take(&mut self.vertices);
        let parts: Vec<(&Mesh, &[u32])> = self.part_maps().collect();
        Mesh::splice(vertices, &parts)
    }

    /// [`MeshMerger::try_finish`] for unions known to be manifold.
    ///
    /// # Panics
    /// Panics if the union is non-manifold (an interface mismatch).
    pub fn finish(self) -> Mesh {
        self.try_finish().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Tree-parallel reduction of path-ordered subdomain meshes into one
/// merger, scheduled by `plan` and executed on `pool`.
///
/// Leaves splice their mesh with [`MeshMerger::add_mesh_spliced`];
/// each internal node [`MeshMerger::absorb`]s its right child into its
/// left as soon as both are ready (forked via [`Pool::join`], so a
/// sibling subtree can merge while this one is still triangulating its
/// own join). Because the plan is in-order over `meshes` and `absorb`
/// is exact, the result is bitwise-identical to the sequential
/// left-fold `add_mesh_spliced(meshes[0]); ...; add_mesh_spliced
/// (meshes[n-1])` — at every thread count, including the inline pool.
///
/// When `tracer` is given, every internal node emits a `merge.node`
/// span on the [`Track::pool_worker`] lane of whichever pool worker
/// performed it, with `lo`/`hi` args naming the covered task range.
pub fn merge_tree_spliced<'a>(
    meshes: &[&'a Mesh],
    plan: &ReductionNode,
    pool: &Pool,
    tracer: Option<&Tracer>,
) -> MeshMerger<'a> {
    assert_eq!(plan.lo, 0, "plan must start at the first mesh");
    assert_eq!(plan.hi, meshes.len(), "plan must cover every mesh");
    reduce(meshes, plan, pool, tracer)
}

fn reduce<'a>(
    meshes: &[&'a Mesh],
    node: &ReductionNode,
    pool: &Pool,
    tracer: Option<&Tracer>,
) -> MeshMerger<'a> {
    match &node.children {
        None => {
            let slice = &meshes[node.lo..node.hi];
            let verts: usize = slice.iter().map(|m| m.num_vertices()).sum();
            let mut merger = MeshMerger::with_capacity(0, verts + 16);
            for mesh in slice {
                merger.add_mesh_spliced(mesh);
            }
            merger
        }
        Some((l, r)) => {
            let (mut a, b) = pool.join(
                || reduce(meshes, l, pool, tracer),
                || reduce(meshes, r, pool, tracer),
            );
            let span =
                tracer.map(|t| t.span(Track::pool_worker(pool.current_lane()), "merge.node"));
            a.absorb(b);
            if let Some(s) = span {
                s.close_with(&[("lo", node.lo as u64), ("hi", node.hi as u64)]);
            }
            a
        }
    }
}

/// Conformity report for a merged mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conformity {
    /// Interior edges shared by exactly two triangles.
    pub interior_edges: usize,
    /// Boundary edges (exactly one triangle).
    pub boundary_edges: usize,
}

/// The merge tail every driver and [`crate::reconstruct`] share: the
/// balanced reduction over the inputs' task paths (strictly ascending),
/// then [`MeshMerger::try_finish`], whose splice is the conformity proof.
pub(crate) fn merge_inputs(
    inputs: &[(&[u8], &Mesh)],
    pool: &Pool,
    tracer: Option<&Tracer>,
) -> Result<Mesh, NonManifoldEdge> {
    let (paths, meshes): (Vec<&[u8]>, Vec<&Mesh>) = inputs.iter().copied().unzip();
    merge_tree_spliced(&meshes, &reduction_plan(&paths), pool, tracer).try_finish()
}

/// Edge statistics of `mesh`, counted off its adjacency: a `NIL`
/// neighbour is a boundary edge, every other half-edge is one side of an
/// interior edge. Manifoldness needs no check here: a [`Mesh`] cannot
/// hold an edge with a third triangle ([`Mesh::from_triangles`],
/// [`Mesh::splice`]).
pub fn check_conformity(mesh: &Mesh) -> Conformity {
    let half_edges = 3 * mesh.num_triangles();
    let boundary_edges = mesh
        .live_triangles()
        .flat_map(|t| mesh.tri_neighbors(t as usize))
        .filter(|&n| n == NIL)
        .count();
    Conformity {
        interior_edges: (half_edges - boundary_edges) / 2,
        boundary_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_delaunay::cdt::{carve, constrained_delaunay};

    include!("../tests/support/mesh_state.rs");

    /// The finish before the splice, kept as the oracle: the parts' live
    /// triangles, mapped, as one soup through [`Mesh::from_triangles`],
    /// then every part's constrained edges, mapped, constrained in the
    /// union (an edge is constrained iff some part constrains it).
    fn soup_finish(merger: &MeshMerger) -> Mesh {
        let soup: Vec<[u32; 3]> = merger
            .part_maps()
            .flat_map(|(part, map)| {
                part.live_triangles()
                    .map(move |t| part.tri(t as usize).map(|v| map[v as usize]))
            })
            .collect();
        let mut mesh = Mesh::from_triangles(merger.vertices.clone(), soup);
        for (part, map) in merger.part_maps() {
            for (a, b) in part.constrained_edges() {
                mesh.constrain_edge(map[a as usize], map[b as usize]);
            }
        }
        mesh
    }

    /// [`MeshMerger::finish`], held to [`soup_finish`].
    fn finish_checked(merger: MeshMerger, label: &str) -> Mesh {
        let want = soup_finish(&merger);
        let got = merger.finish();
        assert_same_state(&got, &want, label);
        got
    }

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    /// The edge-table count `check_conformity` was before it read the
    /// adjacency: the oracle for the count.
    fn edge_table_count(mesh: &Mesh) -> Conformity {
        let mut counts: HashMap<(u32, u32), usize> = HashMap::new();
        for t in mesh.live_triangles() {
            let tri = mesh.tri(t as usize);
            for k in 0..3 {
                let (a, b) = (tri[k], tri[(k + 1) % 3]);
                *counts.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        }
        let boundary_edges = counts.values().filter(|&&c| c == 1).count();
        assert!(counts.values().all(|&c| c <= 2), "edge under 3 triangles");
        Conformity {
            interior_edges: counts.len() - boundary_edges,
            boundary_edges,
        }
    }

    #[test]
    fn adjacency_count_equals_the_edge_table_also_after_carving() {
        let mut meshes = mixed_identity_meshes();
        meshes.push(fold_spliced(&meshes.iter().collect::<Vec<_>>()));
        // A square ring: carving removes the hole's triangles and patches
        // the survivors' neighbours to NIL, which must count as boundary.
        let square = |h: f64| [p(-h, -h), p(h, -h), p(h, h), p(-h, h)];
        let pts = [square(1.5), square(0.5)].concat();
        let loops = [0u32, 4].map(|base| (0..4).map(move |k| (base + k, base + (k + 1) % 4)));
        let segments: Vec<(u32, u32)> = loops.into_iter().flatten().collect();
        let (mut carved, _) = constrained_delaunay(&pts, &segments, false).unwrap();
        let before = carved.num_triangles();
        carve(&mut carved, &[p(0.0, 0.0)]);
        assert!(carved.num_triangles() < before, "the hole must be carved");
        meshes.push(carved);
        for (k, mesh) in meshes.iter().enumerate() {
            assert_eq!(check_conformity(mesh), edge_table_count(mesh), "mesh {k}");
        }
        let ring = check_conformity(meshes.last().unwrap());
        assert_eq!((ring.boundary_edges, ring.interior_edges), (8, 8));
    }

    #[test]
    fn merging_dedups_shared_border() {
        // Two unit squares sharing a (constrained) edge, each as its own
        // anonymous mesh.
        let mut left = Mesh::from_triangles(
            vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)],
            vec![[0, 1, 2], [0, 2, 3]],
        );
        left.constrain_edge(1, 2);
        let mut right = Mesh::from_triangles(
            vec![p(1.0, 0.0), p(2.0, 0.0), p(2.0, 1.0), p(1.0, 1.0)],
            vec![[0, 1, 2], [0, 2, 3]],
        );
        right.constrain_edge(3, 0);
        let mut m = MeshMerger::new();
        m.add_mesh_spliced(&left);
        m.add_mesh_spliced(&right);
        let merged = m.finish();
        assert_eq!(merged.num_vertices(), 6); // 8 - 2 shared
        assert_eq!(merged.num_triangles(), 4);
        merged.check_consistency();
        let conf = check_conformity(&merged);
        assert_eq!(conf.boundary_edges, 6);
        assert_eq!(conf.interior_edges, 3);
    }

    #[test]
    fn constrained_edges_survive_merge() {
        let mut left = Mesh::from_triangles(
            vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)],
            vec![[0, 1, 2], [0, 2, 3]],
        );
        left.constrain_edge(1, 2);
        let mut m = MeshMerger::new();
        m.add_mesh_spliced(&left);
        let merged = m.finish();
        assert_eq!(merged.constrained_edges().count(), 1);
    }

    /// Two triangulations of the same (border-constrained) square with
    /// different diagonals: overlapping triangles, a non-manifold union.
    fn mismatched_squares() -> [Mesh; 2] {
        let square = |tris: Vec<[u32; 3]>| {
            let mut m = Mesh::from_triangles(
                vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)],
                tris,
            );
            for k in 0..4 {
                m.constrain_edge(k, (k + 1) % 4);
            }
            m
        };
        [
            square(vec![[0, 1, 2], [0, 2, 3]]),
            square(vec![[0, 1, 3], [1, 2, 3]]),
        ]
    }

    #[test]
    #[should_panic(expected = "non-manifold")]
    fn interface_mismatch_is_detected() {
        let [a, b] = mismatched_squares();
        let mut m = MeshMerger::new();
        m.add_mesh_spliced(&a);
        m.add_mesh_spliced(&b);
        let _ = m.finish();
    }

    #[test]
    fn interface_mismatch_is_an_error_from_try_finish() {
        let [a, b] = mismatched_squares();
        let inputs: [(&[u8], &Mesh); 2] = [(&[0], &a), (&[1], &b)];
        let err = merge_inputs(&inputs, &Pool::new(0), None).unwrap_err();
        assert!(err.to_string().starts_with("non-manifold edge"), "{err}");
    }

    #[test]
    fn shared_corner_across_three_subdomains_dedups_once() {
        // Three triangles from three "subdomains" all touching the origin:
        // the duplicated corner must collapse to a single global vertex.
        // Each triangle constrains the spokes it shares with a neighbour.
        let quadrant = |a: Point2, b: Point2, spokes: &[u32]| {
            let mut m = Mesh::from_triangles(vec![p(0.0, 0.0), a, b], vec![[0, 1, 2]]);
            for &tip in spokes {
                m.constrain_edge(0, tip);
            }
            m
        };
        let m1 = quadrant(p(1.0, 0.0), p(0.0, 1.0), &[2]);
        let m2 = quadrant(p(0.0, 1.0), p(-1.0, 0.0), &[1, 2]);
        let m3 = quadrant(p(-1.0, 0.0), p(0.0, -1.0), &[1]);
        let mut m = MeshMerger::new();
        m.add_mesh_spliced(&m1);
        m.add_mesh_spliced(&m2);
        m.add_mesh_spliced(&m3);
        let merged = m.finish();
        // 9 corner instances -> 5 distinct points (origin + 4 axis tips).
        assert_eq!(merged.num_vertices(), 5);
        assert_eq!(merged.num_triangles(), 3);
        merged.check_consistency();
        let conf = check_conformity(&merged);
        assert_eq!(conf.interior_edges, 2); // the two shared spokes
        assert_eq!(conf.boundary_edges, 5);
    }

    #[test]
    fn empty_subdomain_mesh_is_a_noop() {
        // A decomposition can produce an empty leaf; merging its (empty)
        // mesh must not disturb the union.
        let tri =
            Mesh::from_triangles(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)], vec![[0, 1, 2]]);
        let empty = Mesh::from_triangles(Vec::new(), Vec::new());
        let mut m = MeshMerger::new();
        m.add_mesh_spliced(&tri);
        m.add_mesh_spliced(&empty);
        let merged = m.finish();
        assert_eq!(merged.num_vertices(), 3);
        assert_eq!(merged.num_triangles(), 1);
    }

    #[test]
    fn single_mesh_merge_is_identity() {
        // The single-rank degenerate case: one subdomain in, same mesh out.
        let mut mesh = Mesh::from_triangles(
            vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)],
            vec![[0, 1, 2], [0, 2, 3]],
        );
        mesh.constrain_edge(0, 1);
        let mut m = MeshMerger::new();
        m.add_mesh_spliced(&mesh);
        let merged = m.finish();
        assert_eq!(merged.num_vertices(), mesh.num_vertices());
        assert_eq!(merged.num_triangles(), mesh.num_triangles());
        assert_eq!(
            merged.constrained_edges().count(),
            mesh.constrained_edges().count()
        );
        assert_eq!(
            check_conformity(&merged),
            check_conformity(&mesh),
            "edge statistics must be preserved"
        );
    }

    #[test]
    fn negative_zero_interface_points_dedup() {
        // Regression: interface points on a y = 0 chord can arrive as
        // -0.0 from one subdomain and +0.0 from the other (mirrored
        // marching). Keying the dedup table on raw `to_bits` split them
        // into two vertices and broke conformity.
        let mut above =
            Mesh::from_triangles(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)], vec![[0, 1, 2]]);
        above.constrain_edge(0, 1);
        let mut below = Mesh::from_triangles(
            vec![p(1.0, -0.0), p(-0.0, -0.0), p(0.5, -1.0)],
            vec![[0, 1, 2]],
        );
        below.constrain_edge(0, 1);
        let mut m = MeshMerger::new();
        m.add_mesh_spliced(&above);
        m.add_mesh_spliced(&below);
        let merged = m.finish();
        assert_eq!(merged.num_vertices(), 4, "-0.0 twins must collapse");
        assert_eq!(merged.num_triangles(), 2);
        // The surviving coordinates are the normalized ones.
        for v in merged.points() {
            assert_ne!(v.x.to_bits(), (-0.0f64).to_bits());
            assert_ne!(v.y.to_bits(), (-0.0f64).to_bits());
        }
        let conf = check_conformity(&merged);
        assert_eq!(conf.interior_edges, 1);
    }

    #[test]
    fn spliced_merge_dedups_by_stamp() {
        // Two stamped triangles sharing an edge: the shared vertices carry
        // equal global ids and must collapse without any constraint marks.
        let mut left =
            Mesh::from_triangles(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)], vec![[0, 1, 2]]);
        left.stamp_prefix(&[0, 1, 2].map(GlobalVertexId));
        let mut right = Mesh::from_triangles(
            vec![p(0.0, 0.0), p(0.5, -1.0), p(1.0, 0.0)],
            vec![[0, 1, 2]],
        );
        right.stamp_prefix(&[0, 3, 1].map(GlobalVertexId));
        let mut m = MeshMerger::with_capacity(4, 4);
        m.add_mesh_spliced(&left);
        m.add_mesh_spliced(&right);
        let merged = m.finish();
        assert_eq!(merged.num_vertices(), 4);
        assert_eq!(merged.num_triangles(), 2);
        merged.check_consistency();
        assert_eq!(check_conformity(&merged).interior_edges, 1);
    }

    #[test]
    fn an_interface_edge_one_part_constrains_is_constrained_on_both_sides() {
        // The stamped pair of `spliced_merge_dedups_by_stamp`; only the
        // left part constrains the shared edge.
        let mut left =
            Mesh::from_triangles(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)], vec![[0, 1, 2]]);
        left.stamp_prefix(&[0, 1, 2].map(GlobalVertexId));
        left.constrain_edge(0, 1);
        let mut right = Mesh::from_triangles(
            vec![p(0.0, 0.0), p(0.5, -1.0), p(1.0, 0.0)],
            vec![[0, 1, 2]],
        );
        right.stamp_prefix(&[0, 3, 1].map(GlobalVertexId));
        for flip in [false, true] {
            let mut m = MeshMerger::with_capacity(4, 4);
            let (first, second) = if flip {
                (&right, &left)
            } else {
                (&left, &right)
            };
            m.add_mesh_spliced(first);
            m.add_mesh_spliced(second);
            let merged = finish_checked(m, &format!("flip={flip}"));
            // Both sides carry the bit: the edge is interior, and
            // `check_consistency` holds twins to equal bits.
            merged.check_consistency();
            let edges: Vec<(u32, u32)> = merged.constrained_edges().collect();
            let ends = edges
                .iter()
                .map(|&(a, b)| [a, b].map(|v| merged.vertex(v as usize)));
            assert_eq!(ends.collect::<Vec<_>>(), [[p(0.0, 0.0), p(1.0, 0.0)]]);
            assert_eq!(check_conformity(&merged).interior_edges, 1);
        }
    }

    #[test]
    fn spliced_merge_cross_registers_stamped_and_coordinate_identities() {
        // One subdomain resolved its interface by stamps, the other is an
        // anonymous mesh whose interface edge is constrained. Whichever
        // order they arrive in, the interface must collapse.
        for flip in [false, true] {
            let mut stamped =
                Mesh::from_triangles(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)], vec![[0, 1, 2]]);
            stamped.stamp_prefix(&[10, 11, 12].map(GlobalVertexId));
            stamped.constrain_edge(0, 1); // the interface edge
            let mut anon = Mesh::from_triangles(
                vec![p(0.0, 0.0), p(0.5, -1.0), p(1.0, 0.0)],
                vec![[0, 1, 2]],
            );
            anon.constrain_edge(0, 2);
            let mut m = MeshMerger::new();
            if flip {
                m.add_mesh_spliced(&anon);
                m.add_mesh_spliced(&stamped);
            } else {
                m.add_mesh_spliced(&stamped);
                m.add_mesh_spliced(&anon);
            }
            let merged = m.finish();
            assert_eq!(merged.num_vertices(), 4, "flip={flip}");
            assert_eq!(check_conformity(&merged).interior_edges, 1);
        }
    }

    #[test]
    fn spliced_private_vertices_never_alias() {
        // Interior (unstamped, unconstrained) vertices append blindly:
        // two coincident interior points from different meshes must NOT
        // merge — the decoupling invariant says they cannot be shared, so
        // aliasing them would corrupt genuinely disjoint subdomains.
        let a = Mesh::from_triangles(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)], vec![[0, 1, 2]]);
        let b = Mesh::from_triangles(vec![p(5.0, 0.0), p(6.0, 0.0), p(0.5, 1.0)], vec![[0, 1, 2]]);
        let mut m = MeshMerger::new();
        m.add_mesh_spliced(&a);
        m.add_mesh_spliced(&b);
        assert_eq!(m.finish().num_vertices(), 6);
    }

    /// Four meshes exercising every identity system the merger knows:
    /// stamped+constrained, anonymous+constrained (coordinate
    /// identity), a mesh that cross-registers a stamp onto a
    /// coordinate-born vertex, and a second stamp for an
    /// already-stamped coordinate (the `extra_gids` path).
    fn mixed_identity_meshes() -> Vec<Mesh> {
        let mut a =
            Mesh::from_triangles(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)], vec![[0, 1, 2]]);
        a.stamp_prefix(&[0, 1, 2].map(GlobalVertexId));
        a.constrain_edge(0, 1);
        let mut b = Mesh::from_triangles(
            vec![p(0.0, 0.0), p(0.5, -1.0), p(1.0, 0.0)],
            vec![[0, 1, 2]],
        );
        b.constrain_edge(0, 2);
        b.constrain_edge(1, 2);
        let mut c = Mesh::from_triangles(
            vec![p(1.0, 0.0), p(0.5, -1.0), p(2.0, 0.0)],
            vec![[0, 1, 2]],
        );
        c.stamp_prefix(&[1, 9, 7].map(GlobalVertexId));
        c.constrain_edge(0, 1);
        c.constrain_edge(1, 2);
        let mut d = Mesh::from_triangles(
            vec![p(2.0, 0.0), p(0.5, -1.0), p(3.0, 0.0)],
            vec![[0, 1, 2]],
        );
        // gid 42 for a coordinate whose merged vertex already carries
        // gid 7 (from c): forces the extra_gids bookkeeping.
        d.stamp_prefix(&[42, 9, 43].map(GlobalVertexId));
        d.constrain_edge(0, 1);
        vec![a, b, c, d]
    }

    fn fold_spliced(meshes: &[&Mesh]) -> Mesh {
        let mut m = MeshMerger::new();
        for mesh in meshes {
            m.add_mesh_spliced(mesh);
        }
        finish_checked(m, "sequential fold")
    }

    #[test]
    fn absorb_is_exact_against_sequential_fold() {
        let meshes = mixed_identity_meshes();
        let refs: Vec<&Mesh> = meshes.iter().collect();
        let seq = fold_spliced(&refs);
        for split in 1..refs.len() {
            let (lhs, rhs) = refs.split_at(split);
            let mut left = MeshMerger::new();
            for m in lhs {
                left.add_mesh_spliced(m);
            }
            let mut right = MeshMerger::new();
            for m in rhs {
                right.add_mesh_spliced(m);
            }
            left.absorb(right);
            let label = format!("split={split}");
            let got = finish_checked(left, &label);
            assert_same_state(&got, &seq, &label);
        }
    }

    #[test]
    fn absorb_keeps_private_vertices_unaliased() {
        // The negative dedup decision must survive absorption: two
        // coincident *private* points in different subtrees still must
        // not merge, because replay preserves the private class.
        let a = Mesh::from_triangles(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)], vec![[0, 1, 2]]);
        let b = Mesh::from_triangles(vec![p(5.0, 0.0), p(6.0, 0.0), p(0.5, 1.0)], vec![[0, 1, 2]]);
        let mut left = MeshMerger::new();
        left.add_mesh_spliced(&a);
        let mut right = MeshMerger::new();
        right.add_mesh_spliced(&b);
        left.absorb(right);
        assert_eq!(left.finish().num_vertices(), 6);
    }

    #[test]
    fn merge_tree_matches_sequential_fold_at_every_thread_count() {
        let meshes = mixed_identity_meshes();
        let refs: Vec<&Mesh> = meshes.iter().collect();
        let seq = fold_spliced(&refs);
        let paths: Vec<&[u8]> = vec![&[1], &[2], &[3], &[4]];
        let plan = adm_partition::reduction_plan(&paths);
        for threads in [0usize, 1, 2, 4] {
            let pool = Pool::new(threads);
            let label = format!("threads={threads}");
            let got = finish_checked(merge_tree_spliced(&refs, &plan, &pool, None), &label);
            assert_same_state(&got, &seq, &label);
        }
    }

    #[test]
    #[should_panic(expected = "non-manifold")]
    fn linked_interior_edge_in_two_parts_is_detected() {
        // Both parts carry the diagonal (0,0)-(1,1) as an interior edge
        // they have already linked, between two stamped vertices; every
        // other vertex is private. Only the check of linked frontier
        // half-edges sees the diagonal under four triangles.
        let part = |a: Point2, b: Point2| {
            let mut m = Mesh::from_triangles(
                vec![p(0.0, 0.0), a, p(1.0, 1.0), b],
                vec![[0, 1, 2], [0, 2, 3]],
            );
            m.stamp_vertex(0, GlobalVertexId(0));
            m.stamp_vertex(2, GlobalVertexId(1));
            m
        };
        let a = part(p(1.0, 0.0), p(0.0, 1.0));
        let b = part(p(2.0, -1.0), p(-1.0, 2.0));
        let mut m = MeshMerger::with_capacity(2, 8);
        m.add_mesh_spliced(&a);
        m.add_mesh_spliced(&b);
        let _ = m.finish();
    }

    #[test]
    fn a_part_aliasing_its_own_vertices_matches_the_soup_build() {
        // Two coincident constrained corners of one part collapse onto
        // one pinched (but manifold) merged vertex. The result equals the
        // soup build, constraint bits included, although the pinched
        // vertex's star walks only one of its two fans.
        let mut part = Mesh::from_triangles(
            vec![
                p(0.0, 0.0),
                p(1.0, 0.0),
                p(0.0, 1.0),
                p(0.0, -0.0),
                p(-1.0, 0.0),
                p(0.0, -1.0),
            ],
            vec![[0, 1, 2], [3, 4, 5]],
        );
        part.constrain_edge(0, 1);
        part.constrain_edge(3, 4);
        let mut m = MeshMerger::new();
        m.add_mesh_spliced(&part);
        let merged = finish_checked(m, "aliased part");
        assert_eq!(merged.num_vertices(), 5);
    }

    #[test]
    #[should_panic(expected = "non-manifold")]
    fn a_part_aliasing_its_own_vertices_into_a_doubled_edge_is_detected() {
        // Corners 0 and 3 coincide, so the part's distinct edges 0 -> 1
        // and 3 -> 1 become one half-edge carried twice. Vertex 1 is
        // private, so only the full proof an aliasing part triggers sees it.
        let mut part = Mesh::from_triangles(
            vec![
                p(0.0, 0.0),
                p(1.0, 0.0),
                p(0.0, 1.0),
                p(0.0, -0.0),
                p(0.5, -1.0),
            ],
            vec![[0, 1, 2], [3, 1, 4]],
        );
        part.constrain_edge(0, 2);
        part.constrain_edge(3, 4);
        let mut m = MeshMerger::new();
        m.add_mesh_spliced(&part);
        let _ = m.finish();
    }
}
