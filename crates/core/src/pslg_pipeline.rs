//! General PSLG front door: validate → CDT → carve → per-component
//! refinement → spliced merge — the PSLG plan of [`crate::pipeline`]'s
//! driver.
//!
//! Non-airfoil domains enter here: an arbitrary multi-part
//! [`Pslg`] (closed loops, holes, open constraint chains) is admitted by
//! [`Pslg::validate`], triangulated and carved with Triangle `-p`
//! semantics, split into connected components (one per part — that is
//! the natural decomposition a multi-part domain already carries), each
//! component Ruppert-refined against a pluggable [`SizingFn`], and the
//! results spliced back by the same driver, merge tail and shard writer
//! the airfoil pipeline uses. The components are a flat task tree:
//! [`mesh_pslg`] runs it on the calling thread, [`mesh_pslg_on`] on
//! whatever [`Executor`] it is given (the caller's pool, `adm-mpirt` ranks
//! under the balancer, the fault-injecting simulator). Results are reassembled
//! in task-path order, so every executor produces the bitwise-identical
//! mesh — the fuzz harness and the system tests gate on that digest
//! equality.
//!
//! Termination is a *contract*, not a hope: refinement runs under
//! [`RefineParams::max_insertions`], and exhausting the budget surfaces
//! as [`PslgMeshError::BudgetExhausted`] instead of a silently
//! truncated mesh.

use crate::pipeline::{close_leaf, drive};
use crate::sizing::SizingFn;
use crate::tasklog::{TaskKind, TaskLog};
use adm_delaunay::cdt::{carve, constrained_delaunay, CdtError};
use adm_delaunay::mesh::{Mesh, NIL};
use adm_delaunay::refine::{refine, RefineParams, RefineStats};
use adm_geom::point::Point2;
use adm_geom::pslg::{Pslg, PslgError, RepairReport};
use adm_kernel::{GlobalVertexId, MeshArena};
use adm_mpirt::{Executor, Pool, Task, WorkItem};
use adm_trace::Tracer;
use std::collections::HashMap;
use std::path::Path;

/// Why a PSLG meshing run produced no mesh.
#[derive(Debug, Clone, PartialEq)]
pub enum PslgMeshError {
    /// The input failed [`Pslg::validate`].
    Invalid(PslgError),
    /// Constraint insertion failed — unreachable for validated input
    /// (validation rejects proper crossings), surfaced typed anyway.
    Cdt(CdtError),
    /// Carving removed every triangle: the PSLG has no closed region
    /// (for example, only open chains), so there is nothing to mesh.
    EmptyDomain,
    /// Refinement hit [`RefineParams::max_insertions`] before reaching
    /// the quality/size bounds in `components` of the domain's parts.
    BudgetExhausted {
        /// Number of components whose refinement was cut short.
        components: usize,
    },
    /// The carved domain has more connected components than two-byte
    /// task paths (and therefore shard names) can tell apart.
    TooManyComponents {
        /// Components the domain split into.
        count: usize,
        /// The most the path format can key.
        cap: usize,
    },
    /// Sharded output failed to write (message of the underlying
    /// `std::io::Error`).
    Io(String),
}

impl std::fmt::Display for PslgMeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PslgMeshError::Invalid(e) => write!(f, "invalid PSLG: {e}"),
            PslgMeshError::Cdt(e) => write!(f, "constraint insertion failed: {e:?}"),
            PslgMeshError::EmptyDomain => write!(f, "PSLG encloses no region"),
            PslgMeshError::BudgetExhausted { components } => {
                write!(
                    f,
                    "refinement budget exhausted in {components} component(s)"
                )
            }
            PslgMeshError::TooManyComponents { count, cap } => {
                write!(f, "{count} components, at most {cap} supported")
            }
            PslgMeshError::Io(msg) => write!(f, "sharded output failed: {msg}"),
        }
    }
}

impl std::error::Error for PslgMeshError {}

impl From<PslgError> for PslgMeshError {
    fn from(e: PslgError) -> Self {
        PslgMeshError::Invalid(e)
    }
}

impl From<std::io::Error> for PslgMeshError {
    fn from(e: std::io::Error) -> Self {
        PslgMeshError::Io(e.to_string())
    }
}

/// Output of a PSLG meshing run.
pub struct PslgMeshResult {
    /// The merged, conforming mesh.
    pub mesh: Mesh,
    /// What validation repaired on admission.
    pub report: RepairReport,
    /// Aggregated refinement statistics over all components.
    pub refine_stats: RefineStats,
    /// Connected components the carved domain split into.
    pub components: usize,
    /// One record per refined component.
    pub log: TaskLog,
    /// The full trace of the run: phase/task spans plus the refinement
    /// and merge counters. Export with `adm_trace::chrome`.
    pub trace: Tracer,
}

/// Validate → CDT → carve → split: one boundary-constrained,
/// arena-stamped mesh per component, plus what validation repaired.
/// Deterministic: the CDT is deterministic, component ids are assigned in
/// live-slot order, and component-local vertex order is first-encounter
/// over slot-sorted triangles.
fn prepare(pslg: &Pslg) -> Result<(Vec<Mesh>, RepairReport), PslgMeshError> {
    let valid = pslg.validate()?;
    let (mut cdt, _map) = constrained_delaunay(&valid.pslg.points, &valid.pslg.segments, false)
        .map_err(PslgMeshError::Cdt)?;
    carve(&mut cdt, &valid.pslg.holes);
    if cdt.num_triangles() == 0 {
        return Err(PslgMeshError::EmptyDomain);
    }
    // One arena mints a global id per carved-CDT vertex; components
    // sharing a vertex (touching parts) splice back to one copy.
    let points = cdt.points();
    let mut arena = MeshArena::with_capacity(points.len());
    let ids = arena.intern_all(&points);
    Ok((split_components(&cdt, &ids), valid.report))
}

/// Splits the carved mesh into triangle-adjacency components, each
/// re-packaged as a standalone stamped mesh. Every component boundary
/// edge is constrained — carving only stops at constrained edges, so a
/// live triangle's dead-or-NIL side is always a constraint — which is
/// exactly [`refine`]'s precondition.
fn split_components(parent: &Mesh, ids: &[GlobalVertexId]) -> Vec<Mesh> {
    let slots = parent.num_slots();
    let mut comp = vec![u32::MAX; slots];
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for t in parent.live_triangles() {
        if comp[t as usize] != u32::MAX {
            continue;
        }
        let cid = groups.len() as u32;
        let mut members = Vec::new();
        let mut stack = vec![t];
        comp[t as usize] = cid;
        while let Some(u) = stack.pop() {
            members.push(u);
            for &n in &parent.tri_neighbors(u as usize) {
                if n != NIL && parent.is_alive(n) && comp[n as usize] == u32::MAX {
                    comp[n as usize] = cid;
                    stack.push(n);
                }
            }
        }
        members.sort_unstable();
        groups.push(members);
    }

    groups
        .iter()
        .map(|members| {
            let mut lmap: HashMap<u32, u32> = HashMap::new();
            let mut pts: Vec<Point2> = Vec::new();
            let mut stamps: Vec<GlobalVertexId> = Vec::new();
            let mut tris: Vec<[u32; 3]> = Vec::new();
            for &t in members {
                let tri = parent.tri(t as usize);
                let mut lt = [0u32; 3];
                for (k, &v) in tri.iter().enumerate() {
                    lt[k] = *lmap.entry(v).or_insert_with(|| {
                        pts.push(parent.vertex(v as usize));
                        stamps.push(ids[v as usize]);
                        (pts.len() - 1) as u32
                    });
                }
                tris.push(lt);
            }
            let mut m = Mesh::from_triangles(pts, tris);
            for (l, &gid) in stamps.iter().enumerate() {
                m.stamp_vertex(l as u32, gid);
            }
            for &t in members {
                for i in 0..3u8 {
                    if parent.is_constrained_tri(t, i) {
                        let (a, b) = parent.edge_vertices(t, i);
                        m.constrain_edge(lmap[&a], lmap[&b]);
                    }
                }
            }
            m
        })
        .collect()
}

/// One per-component refinement task.
#[derive(Clone)]
struct Component(Box<Mesh>);

impl WorkItem for Component {
    fn cost(&self) -> u64 {
        self.0.num_triangles() as u64
    }
}

/// The most components two path bytes can key.
const MAX_COMPONENTS: usize = 1 << 16;

/// The task path of each of `count` components: its index as two
/// big-endian bytes, which is also what names its shard.
fn component_paths(count: usize) -> Result<impl Iterator<Item = Vec<u8>>, PslgMeshError> {
    if count > MAX_COMPONENTS {
        return Err(PslgMeshError::TooManyComponents {
            count,
            cap: MAX_COMPONENTS,
        });
    }
    Ok((0..=u16::MAX).take(count).map(|i| i.to_be_bytes().to_vec()))
}

/// Meshes a general PSLG on the calling thread (a width-0 pool), merge
/// included: a domain has a handful of components, and pool workers measured
/// 2 % more peak memory on the plate benchmark for no resolved time gain.
pub fn mesh_pslg(
    pslg: &Pslg,
    sizing: &dyn SizingFn,
    params: &RefineParams,
) -> Result<PslgMeshResult, PslgMeshError> {
    let pool = Pool::new(0);
    mesh_pslg_on(pslg, sizing, params, Executor::Pool, &pool, None)
}

/// [`mesh_pslg`] with the per-component refinements run by `executor`
/// (concurrently, on a wide `pool` or on ranks), the merge forked on the
/// caller's `pool`, and — with `shard_out` — the
/// refined components streamed to per-component shards (keyed by
/// component index, the order the merge reduces over) before the
/// in-process merge; `shard-cat` reconstructs the identical mesh from
/// that directory alone. A refinement that exhausts its budget publishes
/// nothing.
pub fn mesh_pslg_on(
    pslg: &Pslg,
    sizing: &dyn SizingFn,
    params: &RefineParams,
    executor: Executor,
    pool: &Pool,
    shard_out: Option<&Path>,
) -> Result<PslgMeshResult, PslgMeshError> {
    let driven = drive(
        executor,
        pool,
        shard_out,
        |_| {
            let (components, report) = prepare(pslg)?;
            // A flat task tree: one seed per component, no splits.
            let seeds = component_paths(components.len())?
                .zip(components)
                .map(|(path, m)| Task {
                    path,
                    body: Component(Box::new(m)),
                })
                .collect();
            Ok((report, seeds))
        },
        |_, Component(mut mesh), tracer, track| {
            let span = tracer.span(track, TaskKind::InviscidRefine.span_name());
            let points = mesh.num_vertices();
            let area = |p: Point2| sizing.target_area(p);
            let stats = refine(&mut mesh, Some(&area), params);
            stats.publish(tracer);
            close_leaf(span, points, mesh.num_triangles());
            ((mesh, stats), Vec::new())
        },
        |&report, outs| {
            let mut stats = RefineStats::default();
            let mut capped = 0;
            let mut components = Vec::with_capacity(outs.len());
            for (path, (mesh, s)) in outs {
                capped += usize::from(s.hit_cap);
                stats.absorb(&s);
                components.push((path, *mesh));
            }
            if capped > 0 {
                return Err(PslgMeshError::BudgetExhausted { components: capped });
            }
            let count = components.len();
            Ok((components, (report, stats, count)))
        },
    )?;
    let (report, refine_stats, components) = driven.stats;
    Ok(PslgMeshResult {
        mesh: driven.mesh,
        report,
        refine_stats,
        components,
        log: driven.log,
        trace: driven.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256_hex;
    use crate::sizing::UniformH;
    use adm_delaunay::io::write_ascii_canonical;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn digest(mesh: &Mesh) -> String {
        let mut buf = Vec::new();
        write_ascii_canonical(mesh, &mut buf).expect("in-memory write");
        sha256_hex(&buf)
    }

    /// Two unit squares, far apart; the second has a square hole.
    fn two_part_pslg() -> Pslg {
        let mut points = vec![p(0.0, 0.0), p(2.0, 0.0), p(2.0, 2.0), p(0.0, 2.0)];
        let mut segments = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        let b = points.len() as u32;
        points.extend([p(5.0, 0.0), p(8.0, 0.0), p(8.0, 3.0), p(5.0, 3.0)]);
        segments.extend([(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b)]);
        let h = points.len() as u32;
        points.extend([p(6.0, 1.0), p(7.0, 1.0), p(7.0, 2.0), p(6.0, 2.0)]);
        segments.extend([(h, h + 1), (h + 1, h + 2), (h + 2, h + 3), (h + 3, h)]);
        Pslg::new(points, segments, vec![p(6.5, 1.5)])
    }

    #[test]
    fn meshes_two_parts_with_hole() {
        let out = mesh_pslg(&two_part_pslg(), &UniformH(0.6), &RefineParams::default()).unwrap();
        assert_eq!(out.components, 2);
        assert!(out.mesh.num_triangles() > 8);
        assert!(out.mesh.is_constrained_delaunay());
        out.mesh.check_consistency();
        // Total area = 4 + 9 - 1.
        let q = adm_delaunay::quality::mesh_quality(&out.mesh);
        assert!((q.total_area - 12.0).abs() < 1e-9);
    }

    #[test]
    fn serial_and_parallel_digests_match() {
        let pslg = two_part_pslg();
        let sizing = UniformH(0.5);
        let params = RefineParams::default();
        let serial = mesh_pslg(&pslg, &sizing, &params).unwrap();
        let d0 = digest(&serial.mesh);
        for ranks in [1, 2, 4] {
            let exec = Executor::ranks(ranks);
            let par = mesh_pslg_on(&pslg, &sizing, &params, exec, &Pool::new(0), None).unwrap();
            assert_eq!(digest(&par.mesh), d0, "ranks = {ranks}");
        }
    }

    #[test]
    fn component_count_past_two_path_bytes_is_typed_rejection() {
        let paths: Vec<_> = component_paths(1 << 16).unwrap().collect();
        assert_eq!(paths.len(), 1 << 16);
        assert_eq!(paths[255..257], [vec![0, 255], vec![1, 0]]);
        assert_eq!(paths.last().unwrap(), &[255, 255]);
        assert!(paths.windows(2).all(|w| w[0] < w[1]), "paths collide");
        match component_paths((1 << 16) + 1).map(|_| ()) {
            Err(PslgMeshError::TooManyComponents { count, cap }) => {
                assert_eq!((count, cap), (65_537, 65_536));
            }
            other => panic!("expected TooManyComponents, got {other:?}"),
        }
    }

    #[test]
    fn open_chain_only_is_empty_domain() {
        let pslg = Pslg::new(
            vec![p(0.0, 0.0), p(1.0, 0.0), p(2.0, 1.0)],
            vec![(0, 1), (1, 2)],
            vec![],
        );
        match mesh_pslg(&pslg, &UniformH(0.5), &RefineParams::default()) {
            Err(PslgMeshError::EmptyDomain) => {}
            other => panic!("expected EmptyDomain, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn crossing_input_is_typed_invalid() {
        let pslg = Pslg::new(
            vec![p(0.0, 0.0), p(2.0, 2.0), p(0.0, 2.0), p(2.0, 0.0)],
            vec![(0, 1), (2, 3)],
            vec![],
        );
        match mesh_pslg(&pslg, &UniformH(0.5), &RefineParams::default()) {
            Err(PslgMeshError::Invalid(PslgError::SegmentsCross { .. })) => {}
            other => panic!("expected SegmentsCross, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn tiny_budget_is_typed_exhaustion() {
        let params = RefineParams {
            max_insertions: 2,
            ..Default::default()
        };
        match mesh_pslg(&two_part_pslg(), &UniformH(0.05), &params) {
            Err(PslgMeshError::BudgetExhausted { components }) => assert!(components >= 1),
            other => panic!("expected BudgetExhausted, got {:?}", other.map(|_| ())),
        }
    }
}
