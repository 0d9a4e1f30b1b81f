//! General PSLG front door: validate → CDT → carve → per-component
//! refinement → spliced merge.
//!
//! Non-airfoil domains enter here: an arbitrary multi-part
//! [`Pslg`] (closed loops, holes, open constraint chains) is admitted by
//! [`Pslg::validate`], triangulated and carved with Triangle `-p`
//! semantics, split into connected components (one per part — that is
//! the natural decomposition a multi-part domain already carries), each
//! component Ruppert-refined against a pluggable [`SizingFn`], and the
//! results spliced back through the same arena-identity merge machinery
//! the airfoil pipeline uses. [`mesh_pslg_parallel`] distributes the
//! per-component refinements over `adm-mpirt` ranks under the dynamic
//! load balancer; results are reassembled in task-path order, so the
//! serial and parallel paths produce bitwise-identical meshes — the
//! fuzz harness and the system tests gate on that digest equality.
//!
//! Termination is a *contract*, not a hope: refinement runs under
//! [`RefineParams::max_insertions`], and exhausting the budget surfaces
//! as [`PslgMeshError::BudgetExhausted`] instead of a silently
//! truncated mesh.

use crate::merge::{check_conformity, merge_tree_spliced};
use crate::sizing::SizingFn;
use adm_delaunay::cdt::{carve, constrained_delaunay, CdtError};
use adm_delaunay::mesh::{Mesh, NIL};
use adm_delaunay::refine::{refine, RefineParams, RefineStats};
use adm_geom::point::Point2;
use adm_geom::pslg::{Pslg, PslgError, RepairReport};
use adm_kernel::{GlobalVertexId, MeshArena};
use adm_mpirt::{run_task_tree, BalancerConfig, Pool, Task, ThreadedTransport, WorkItem};
use adm_partition::reduction_plan;
use std::collections::HashMap;
use std::sync::Arc;

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
}

/// The domain after admission, carving, and component splitting — the
/// input both the serial and the parallel drivers refine and merge.
struct PslgWork {
    /// One boundary-constrained, arena-stamped mesh per component.
    components: Vec<Mesh>,
    report: RepairReport,
}

/// Validate → CDT → carve → split. Deterministic: the CDT is
/// deterministic, component ids are assigned in live-slot order, and
/// component-local vertex order is first-encounter over slot-sorted
/// triangles.
fn prepare(pslg: &Pslg) -> Result<PslgWork, PslgMeshError> {
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
    let components = split_components(&cdt, &ids);
    Ok(PslgWork {
        components,
        report: valid.report,
    })
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

/// Refines one component in place against the sizing function.
fn refine_component(m: &mut Mesh, sizing: &dyn SizingFn, params: &RefineParams) -> RefineStats {
    let area = |p: Point2| sizing.target_area(p);
    refine(m, Some(&area), params)
}

/// Splices refined components back together in component order.
fn merge_components(components: &[Mesh]) -> Mesh {
    let refs: Vec<&Mesh> = components.iter().collect();
    let paths: Vec<[u8; 2]> = (0..components.len() as u16)
        .map(|i| i.to_be_bytes())
        .collect();
    let path_refs: Vec<&[u8]> = paths.iter().map(|p| p.as_slice()).collect();
    let plan = reduction_plan(&path_refs);
    let pool = Pool::new(0);
    let mesh = merge_tree_spliced(&refs, &plan, &pool, None).finish();
    check_conformity(&mesh);
    mesh
}

fn collect(
    components: Vec<Mesh>,
    stats: RefineStats,
    capped: usize,
    report: RepairReport,
) -> Result<PslgMeshResult, PslgMeshError> {
    if capped > 0 {
        return Err(PslgMeshError::BudgetExhausted { components: capped });
    }
    let n = components.len();
    Ok(PslgMeshResult {
        mesh: merge_components(&components),
        report,
        refine_stats: stats,
        components: n,
    })
}

/// Meshes a general PSLG sequentially.
pub fn mesh_pslg(
    pslg: &Pslg,
    sizing: &dyn SizingFn,
    params: &RefineParams,
) -> Result<PslgMeshResult, PslgMeshError> {
    let mut work = prepare(pslg)?;
    let mut stats = RefineStats::default();
    let mut capped = 0;
    for m in &mut work.components {
        let s = refine_component(m, sizing, params);
        capped += usize::from(s.hit_cap);
        stats.absorb(&s);
    }
    collect(work.components, stats, capped, work.report)
}

/// One per-component refinement task for the dynamic load balancer.
#[derive(Clone)]
struct RefineTask(Box<Mesh>);

impl WorkItem for RefineTask {
    fn cost(&self) -> u64 {
        self.0.num_triangles() as u64
    }
}

/// Meshes a general PSLG with the per-component refinements executed on
/// `ranks` mpirt ranks under the dynamic load balancer. Bitwise-identical
/// to [`mesh_pslg`]: refinement is per-component deterministic and the
/// merge reassembles results in component order regardless of which rank
/// ran what.
pub fn mesh_pslg_parallel(
    pslg: &Pslg,
    sizing: &dyn SizingFn,
    params: &RefineParams,
    ranks: usize,
) -> Result<PslgMeshResult, PslgMeshError> {
    let (components, stats, capped, report) =
        refine_components_parallel(pslg, sizing, params, ranks)?;
    collect(components, stats, capped, report)
}

/// [`mesh_pslg_parallel`] with distributed output: the refined
/// components are streamed to per-component shards in `dir` (keyed by
/// component index — the same path order `merge_components` reduces
/// over) before the in-process merge, and the returned manifest names
/// them. `shard-cat` reconstructs the identical mesh from `dir` alone.
pub fn mesh_pslg_sharded(
    pslg: &Pslg,
    sizing: &dyn SizingFn,
    params: &RefineParams,
    ranks: usize,
    dir: &std::path::Path,
) -> Result<(PslgMeshResult, crate::shard::ShardManifest), PslgMeshError> {
    let (components, stats, capped, report) =
        refine_components_parallel(pslg, sizing, params, ranks)?;
    if capped > 0 {
        // Never publish shards of a truncated refinement.
        return Err(PslgMeshError::BudgetExhausted { components: capped });
    }
    let paths: Vec<[u8; 2]> = (0..components.len() as u16)
        .map(|i| i.to_be_bytes())
        .collect();
    let inputs: Vec<(&[u8], &Mesh)> = paths
        .iter()
        .map(|p| p.as_slice())
        .zip(components.iter())
        .collect();
    let manifest = crate::shard::write_shard_set(dir, &inputs, None)
        .map_err(|e| PslgMeshError::Io(e.to_string()))?;
    let result = collect(components, stats, capped, report)?;
    Ok((result, manifest))
}

/// The shared body of the parallel drivers: refine every component on
/// `ranks` ranks and return them in canonical component order.
fn refine_components_parallel(
    pslg: &Pslg,
    sizing: &dyn SizingFn,
    params: &RefineParams,
    ranks: usize,
) -> Result<(Vec<Mesh>, RefineStats, usize, RepairReport), PslgMeshError> {
    assert!(ranks >= 1);
    let work = prepare(pslg)?;
    // A flat task tree: one seed per component, keyed by component index
    // (the order `merge_components` reduces over), no splits.
    let seeds = work
        .components
        .into_iter()
        .enumerate()
        .map(|(i, m)| Task {
            path: (i as u16).to_be_bytes().to_vec(),
            body: RefineTask(Box::new(m)),
        })
        .collect();
    let refined = run_task_tree(
        Arc::new(ThreadedTransport::new(ranks)),
        BalancerConfig::default(),
        seeds,
        None,
        |_rank, RefineTask(mut mesh)| {
            let stats = refine_component(&mut mesh, sizing, params);
            ((mesh, stats), Vec::new())
        },
    );

    let mut stats = RefineStats::default();
    let mut capped = 0;
    let mut components = Vec::with_capacity(refined.len());
    for (_path, (mesh, s)) in refined {
        capped += usize::from(s.hit_cap);
        stats.absorb(&s);
        components.push(*mesh);
    }
    Ok((components, stats, capped, work.report))
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
            let par = mesh_pslg_parallel(&pslg, &sizing, &params, ranks).unwrap();
            assert_eq!(digest(&par.mesh), d0, "ranks = {ranks}");
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
