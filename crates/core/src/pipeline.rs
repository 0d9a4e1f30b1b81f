//! The push-button pipeline (paper §I): geometry in, mesh out.
//!
//! The pipeline is one task tree: a boundary-layer subdomain is split
//! or triangulated, an inviscid region is decoupled or refined, the
//! near-body subdomain is refined. Each task is defined once (`step`),
//! seeded once (`setup`) and its outputs assembled once (`assemble`:
//! boundary-layer constrain + carve, interface repair, shard set, merge).
//! Two executors run the tree and differ only in scheduling:
//! [`generate`] walks it depth-first on the calling thread;
//! [`generate_parallel`] hands it to `adm-mpirt` ranks under the paper's
//! dynamic load balancer. Outputs reach the assembly in task-path order
//! either way, so both produce the same mesh and the same shard set.

use crate::blmesh::assemble_bl_mesh;
use crate::config::MeshConfig;
use crate::inviscid::{
    build_sizing, decouple_threshold, propagate_interface_splits, refine_nearbody,
    refine_nearbody_stamped, refine_region,
};
use crate::merge::{check_conformity, merge_tree_spliced};
use crate::sizing::ComposedSizing;
use crate::tasklog::{TaskKind, TaskLog};
use adm_blayer::{build_multielement_layers, BoundaryLayer};
use adm_decouple::{initial_quadrants, splittable, Region};
use adm_delaunay::mesh::Mesh;
use adm_geom::aabb::Aabb;
use adm_geom::point::Point2;
use adm_kernel::{GlobalVertexId, MeshArena};
use adm_mpirt::{
    run_inline, run_task_tree, BalancerConfig, Pool, Task, ThreadedTransport, Transport,
    TransportClock, WorkItem,
};
use adm_partition::{reduction_plan, triangulate_leaf_pooled, DecomposeParams, Subdomain};
use adm_trace::{Tracer, Track};
use std::sync::Arc;

/// Aggregate numbers for one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Boundary-layer cloud size.
    pub bl_points: usize,
    /// Triangles in the carved boundary-layer mesh.
    pub bl_triangles: usize,
    /// Triangles in the inviscid region (near-body + subdomains).
    pub inviscid_triangles: usize,
    /// Total triangles in the merged mesh.
    pub total_triangles: usize,
    /// Total vertices in the merged mesh.
    pub total_vertices: usize,
    /// Shared-border splits during refinement (0 = perfectly conforming
    /// decoupling).
    pub border_splits: usize,
    /// Wall time of the whole run in seconds.
    pub total_s: f64,
}

/// Output of a pipeline run.
pub struct PipelineResult {
    /// The merged global mesh.
    pub mesh: Mesh,
    /// Per-task measurements (input for the scaling simulation).
    pub log: TaskLog,
    /// Aggregates.
    pub stats: PipelineStats,
    /// The full trace of the run: phase/task spans plus the metrics
    /// registry (refinement counters, load-balancer counters, predicate
    /// ladder hit rates). Export with `adm_trace::chrome`.
    pub trace: Tracer,
}

/// The stage-0 geometry of a run: boundary layers, the combined point
/// cloud, and the arena that minted every global vertex id — everything
/// upstream of the per-cycle decompose/mesh/merge stack that does *not*
/// change between adaptation cycles.
///
/// Built once by [`build_prelude`] and handed to
/// [`generate_staged_with_pool`] / [`generate_parallel_staged`] each
/// cycle, so the anisotropic layer construction and cloud interning are
/// paid once per adaptation run.
/// The staged entry points produce byte-identical meshes whether the
/// prelude is prebuilt or built inline — the cloud and intern order are
/// the same either way.
pub struct GeomPrelude {
    /// Per-element anisotropic boundary layers (§II.A–II.C).
    pub layers: Vec<BoundaryLayer>,
    /// Combined boundary-layer point cloud of all elements.
    pub cloud: Vec<Point2>,
    /// Arena ids of `cloud`, in cloud order.
    pub cloud_ids: Vec<GlobalVertexId>,
    /// The frozen arena that minted `cloud_ids`. Cycles only read it: the
    /// near-body rectangle gets the ids it would be interned under on top
    /// of it, without touching it.
    pub arena: Arc<MeshArena>,
    /// Outer border loop of each element's layer.
    pub outer_borders: Vec<Vec<Point2>>,
    /// One point strictly inside each element (carve seeds).
    pub hole_seeds: Vec<Point2>,
}

/// Builds the cycle-invariant geometry prelude for `config`.
pub fn build_prelude(config: &MeshConfig) -> GeomPrelude {
    let surfaces: Vec<Vec<Point2>> = config.pslg.loops.iter().map(|l| l.points.clone()).collect();
    let layers = build_multielement_layers(&surfaces, &config.growth, &config.bl);
    let hole_seeds = config.pslg.hole_seeds();
    let cloud: Vec<Point2> = layers
        .iter()
        .flat_map(|l| l.all_points())
        .copied()
        .collect();
    let outer_borders: Vec<Vec<Point2>> =
        layers.iter().map(|l| l.outer_border().to_vec()).collect();
    let mut arena = MeshArena::with_capacity(cloud.len());
    let cloud_ids = arena.intern_all(&cloud);
    GeomPrelude {
        layers,
        cloud,
        cloud_ids,
        arena: Arc::new(arena),
        outer_borders,
        hole_seeds,
    }
}

/// Runs the full pipeline on the calling thread.
pub fn generate(config: &MeshConfig) -> PipelineResult {
    // Shared-memory worker pool: forks the per-leaf divide-and-conquer
    // triangulations and the merge reduction tree. Output bytes are
    // pool-width-independent (0 workers = inline).
    generate_staged_with_pool(config, None, &Pool::new(config.merge_threads))
}

/// [`generate`] over a caller-owned worker [`Pool`] and an optional
/// prebuilt [`GeomPrelude`]. With a prelude, the boundary-layer build and
/// cloud interning are reused (the adaptation loop's per-cycle entry
/// point); the mesh server batches every request through one pool sized
/// to the machine instead of spinning threads up and down per job. Output
/// bytes are identical with or without a prelude and at any pool width.
pub fn generate_staged_with_pool(
    config: &MeshConfig,
    prelude: Option<&GeomPrelude>,
    pool: &Pool,
) -> PipelineResult {
    let tracer = Tracer::wall();
    tracer.name_track(Track::ROOT, "pipeline (sequential)");
    drive(config, prelude, pool, &tracer, |shared, seeds| {
        run_inline(seeds, |body| step(body, shared, Track::ROOT))
    })
}

/// Runs the pipeline with the subdomain work — including the recursive
/// decomposition and decoupling — executed on `ranks` mpirt ranks under
/// the dynamic load balancer. Produces the bitwise-identical mesh of
/// [`generate`]: every split/stop decision is per-subdomain and therefore
/// independent of which rank executes it.
pub fn generate_parallel(config: &MeshConfig, ranks: usize) -> PipelineResult {
    assert!(ranks >= 1);
    generate_parallel_staged(
        config,
        Arc::new(ThreadedTransport::new(ranks)),
        BalancerConfig::default(),
        None,
    )
}

/// [`generate_parallel`] over an explicit transport — the entry point for
/// fault-injected chaos runs on [`adm_mpirt::SimTransport`] — and an
/// optional prebuilt [`GeomPrelude`]. The mesh is schedule-independent:
/// results are reassembled in task-tree order, so any transport schedule
/// (and any rank count) yields identical bytes.
pub fn generate_parallel_staged(
    config: &MeshConfig,
    transport: Arc<dyn Transport>,
    balancer: BalancerConfig,
    prelude: Option<&GeomPrelude>,
) -> PipelineResult {
    // The tracer runs on the transport's clock: wall time on the threaded
    // transport, virtual time on the simulator — which makes the whole
    // trace (and its fingerprint) replay-stable under a seeded schedule.
    let tracer = Tracer::new(Arc::new(TransportClock::new(transport.clone())));
    tracer.name_track(Track::ROOT, "driver");
    // Virtual-time transports refuse worker threads (wall-clock workers
    // would desynchronize the simulated clock), so the pool degrades to
    // inline mode there — same bytes, replay-stable trace.
    let pool = Pool::new(if transport.supports_worker_threads() {
        config.merge_threads
    } else {
        0
    });
    drive(config, prelude, &pool, &tracer, |shared, seeds| {
        run_task_tree(transport, balancer, seeds, Some(&tracer), |rank, body| {
            step(body, shared, Track::rank(rank))
        })
    })
}

/// One node of the pipeline's task tree. Decomposition and decoupling
/// are tasks themselves: a split returns its children, which the rank
/// executor's balancer may ship to other ranks — the paper's "repeatedly
/// decoupled and sent to other processes until all processes have
/// sufficient work".
///
/// Bodies are `Clone` because the hardened balancer retransmits unacked
/// transfers; dedup on the receiver keeps processing exactly-once.
#[derive(Clone)]
enum TaskBody {
    /// Decompose-or-triangulate one boundary-layer subdomain.
    Bl(Box<Subdomain>),
    /// Decouple-or-refine one inviscid region; `est` is its estimated
    /// triangle count under the run's sizing.
    Region { region: Box<Region>, est: f64 },
    /// Refine the near-body subdomain (geometry in [`Shared`]).
    NearBody,
}

impl TaskBody {
    fn region(region: Region, sizing: &ComposedSizing) -> Self {
        TaskBody::Region {
            est: region.estimated_triangles(sizing),
            region: Box::new(region),
        }
    }
}

impl WorkItem for TaskBody {
    fn cost(&self) -> u64 {
        match self {
            TaskBody::Bl(s) => s.cost(),
            TaskBody::Region { est, .. } => *est as u64,
            TaskBody::NearBody => 4096,
        }
    }
}

/// What one task hands to the assembly.
enum TaskOut {
    /// A boundary-layer leaf's triangles, as arena-id triples.
    BlTris(Vec<[u32; 3]>),
    /// A refined inviscid region and its border-segment split count.
    Region(Box<Mesh>, usize),
    /// The refined near-body subdomain and its border-segment split count.
    NearBody(Box<Mesh>, usize),
    /// The task split; its children carry the work on.
    Split,
}

/// Everything tasks and the assembly read but never write, fixed by
/// [`setup`] before the first task runs.
struct Shared<'a> {
    pre: &'a GeomPrelude,
    /// Near-body outer rectangle border and its ids on top of `pre.arena`.
    rect: Vec<Point2>,
    rect_ids: Vec<GlobalVertexId>,
    /// Arena ids of each loop of `pre.outer_borders`.
    outer_border_ids: Vec<Vec<GlobalVertexId>>,
    /// Graded decoupled-region sizing (§II.E), optionally tightened by the
    /// adaptation loop's extra channel.
    sizing: ComposedSizing,
    /// A region whose estimate exceeds this decouples further.
    threshold: f64,
    bl_params: DecomposeParams,
    /// Forks leaf triangulations and the merge reduction.
    pool: &'a Pool,
    tracer: &'a Tracer,
}

/// The pipeline's sizing field for `config` around `outer_borders`. With
/// no extra field the composition is the graded field, same bits.
fn composed_sizing(config: &MeshConfig, outer_borders: &[Vec<Point2>]) -> ComposedSizing {
    ComposedSizing::new(
        build_sizing(
            outer_borders,
            config.effective_sizing_h0(),
            config.sizing_rate,
            config.sizing_max_area,
        ),
        config.extra_sizing.clone(),
    )
}

/// Fixes the shared geometry and the seed tasks: the undecomposed
/// boundary-layer root, the four quadrants and the near-body region, at
/// paths `[0]`..`[5]`. Everything else is created by [`step`].
fn setup<'a>(
    config: &MeshConfig,
    pre: &'a GeomPrelude,
    pool: &'a Pool,
    tracer: &'a Tracer,
) -> (Shared<'a>, Vec<Task<TaskBody>>) {
    let sizing = composed_sizing(config, &pre.outer_borders);
    let mut bbox = Aabb::empty();
    for &p in pre.outer_borders.iter().flatten() {
        bbox.expand(p);
    }
    let nearbody_box = bbox.inflated(config.nearbody_margin * config.pslg.reference_chord());
    let init = initial_quadrants(&nearbody_box, &config.pslg.farfield, &sizing);
    let threshold = decouple_threshold(&init.quadrants, config.inviscid_subdomains, &sizing);

    // The rectangle's ids are the ones interning it on top of the frozen
    // arena would mint — the arena's own where a point is already there,
    // fresh ones past its end otherwise — without copying the arena.
    let mut fresh = MeshArena::new();
    let rect_ids = init
        .nearbody_border
        .iter()
        .map(|&p| {
            pre.arena
                .id_of(p)
                .unwrap_or_else(|| GlobalVertexId(pre.arena.len() as u32 + fresh.intern(p).raw()))
        })
        .collect();
    let outer_border_ids = pre
        .outer_borders
        .iter()
        .map(|b| pre.arena.ids_of(b))
        .collect();

    let mut bodies = vec![TaskBody::Bl(Box::new(Subdomain::root_with_ids(
        &pre.cloud,
        &pre.cloud_ids,
    )))];
    bodies.extend(
        init.quadrants
            .into_iter()
            .map(|q| TaskBody::region(q, &sizing)),
    );
    bodies.push(TaskBody::NearBody);
    let seeds = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| Task {
            path: vec![i as u8],
            body,
        })
        .collect();

    let shared = Shared {
        pre,
        rect: init.nearbody_border,
        rect_ids,
        outer_border_ids,
        sizing,
        threshold,
        bl_params: DecomposeParams::for_subdomain_count(config.bl_subdomains),
        pool,
        tracer,
    };
    (shared, seeds)
}

/// Closes a leaf task's span with what a work transfer of it would move
/// (16 bytes per input point) and what it produced; `TaskLog` reads both
/// back.
fn close_leaf(span: adm_trace::SpanGuard, points: usize, triangles: usize) {
    span.close_with(&[
        ("bytes", (points * 16) as u64),
        ("triangles", triangles as u64),
    ]);
}

/// Runs one task: returns its output and the children it split into.
/// Every split/stop decision reads the task and [`Shared`] only, so the
/// tree is the same under any executor; spans go to `track`.
fn step(body: TaskBody, sh: &Shared, track: Track) -> (TaskOut, Vec<TaskBody>) {
    let tr = sh.tracer;
    match body {
        TaskBody::Bl(leaf) if sh.bl_params.is_leaf(&leaf) => {
            let span = tr.span(track, TaskKind::BlTriangulate.span_name());
            let tris = triangulate_leaf_pooled(&leaf, sh.pool);
            close_leaf(span, leaf.len(), tris.len());
            (TaskOut::BlTris(tris), Vec::new())
        }
        TaskBody::Bl(mut sub) => {
            let span = tr.span(track, TaskKind::Decompose.span_name());
            let axis = sub.choose_cut_axis();
            let (lo, hi, _path) = sub.split(axis);
            span.close();
            let children = [lo, hi].map(|s| TaskBody::Bl(Box::new(s)));
            (TaskOut::Split, children.into())
        }
        TaskBody::Region { region, est } if est > sh.threshold && splittable(&region) => {
            let span = tr.span(track, TaskKind::Decompose.span_name());
            let children = region
                .plus_split(&sh.sizing)
                .into_iter()
                .map(|c| TaskBody::region(c, &sh.sizing))
                .collect();
            span.close();
            (TaskOut::Split, children)
        }
        TaskBody::Region { region, .. } => {
            let span = tr.span(track, TaskKind::InviscidRefine.span_name());
            let (mesh, stats) = refine_region(&region.border, &sh.sizing);
            stats.publish(tr);
            close_leaf(span, region.border.len(), mesh.num_triangles());
            let out = TaskOut::Region(Box::new(mesh), stats.segment_splits);
            (out, Vec::new())
        }
        TaskBody::NearBody => {
            let span = tr.span(track, TaskKind::NearBodyRefine.span_name());
            let (mesh, stats) = refine_nearbody_stamped(
                &sh.rect,
                &sh.rect_ids,
                &sh.pre.outer_borders,
                &sh.outer_border_ids,
                &sh.pre.hole_seeds,
                &sh.sizing,
            );
            stats.publish(tr);
            close_leaf(span, sh.rect.len(), mesh.num_triangles());
            let out = TaskOut::NearBody(Box::new(mesh), stats.segment_splits);
            (out, Vec::new())
        }
    }
}

/// Turns the path-ordered task outputs into the global mesh: assemble
/// the boundary-layer mesh from its leaves, repair its interface against
/// the near-body mesh, stream the merge inputs to `shard_out` when set,
/// and reduce them over the task tree. `total_s` is left for the caller.
fn assemble(
    pre: &GeomPrelude,
    pool: &Pool,
    tracer: &Tracer,
    outs: Vec<(Vec<u8>, TaskOut)>,
    shard_out: Option<&std::path::Path>,
) -> (Mesh, PipelineStats) {
    let mut leaf_tris: Vec<Vec<[u32; 3]>> = Vec::new();
    // Sub-meshes keep their task path: the merge below reduces them over
    // the task tree itself, so sibling subtrees can merge independently.
    let mut subs: Vec<(Vec<u8>, Box<Mesh>)> = Vec::new();
    let mut nearbody = None;
    let mut border_splits = 0;
    for (path, out) in outs {
        match out {
            TaskOut::BlTris(tris) => leaf_tris.push(tris),
            TaskOut::Region(mesh, splits) => {
                border_splits += splits;
                subs.push((path, mesh));
            }
            TaskOut::NearBody(mesh, splits) => {
                border_splits += splits;
                nearbody = Some(subs.len());
                subs.push((path, mesh));
            }
            TaskOut::Split => {}
        }
    }
    let mut bl_mesh = assemble_bl_mesh(&pre.arena, &pre.layers, &pre.hole_seeds, leaf_tris);

    // Interface repair: in narrow inter-element gaps the near-body
    // refinement legitimately splits boundary-layer border segments; the
    // same splits are applied to the boundary-layer side so the union
    // stays conforming. Only the near-body mesh touches that border —
    // the decoupled regions lie outside the near-body rectangle.
    let nearbody = &subs[nearbody.expect("every run refines the near body")].1;
    let propagated = propagate_interface_splits(&mut bl_mesh, nearbody, &pre.outer_borders);

    // Merge inputs in task-path order. The boundary-layer mesh takes the
    // path `[0]` (its seed task's slot, which only ever emits triangles,
    // never a sub-mesh), so it sorts before every region and near-body
    // result.
    const BL_PATH: &[u8] = &[0];
    let inputs: Vec<(&[u8], &Mesh)> = std::iter::once((BL_PATH, &bl_mesh))
        .chain(subs.iter().map(|(p, m)| (p.as_slice(), &**m)))
        .collect();
    // Distributed output: the shard set *is* the merge's input
    // decomposition, so `shard-cat` can replay the reduction offline.
    // Shards are keyed by task path, so the set (and the manifest bytes)
    // are identical under every executor, rank count and schedule.
    if let Some(dir) = shard_out {
        let span = tracer.span(Track::ROOT, "phase.shard_write");
        crate::shard::write_shard_set(dir, &inputs, Some(tracer)).expect("sharded output failed");
        span.close();
    }
    let (paths, meshes): (Vec<&[u8]>, Vec<&Mesh>) = inputs.into_iter().unzip();
    // A balanced in-order plan over an associative absorb: bitwise equal
    // to the sequential left fold at any pool width.
    let merger = merge_tree_spliced(&meshes, &reduction_plan(&paths), pool, Some(tracer));
    let mesh = merger.finish();
    check_conformity(&mesh);

    let stats = PipelineStats {
        bl_points: pre.cloud.len(),
        bl_triangles: bl_mesh.num_triangles(),
        inviscid_triangles: subs.iter().map(|(_, m)| m.num_triangles()).sum(),
        total_triangles: mesh.num_triangles(),
        total_vertices: mesh.num_vertices(),
        border_splits: border_splits - propagated.min(border_splits),
        total_s: 0.0,
    };
    (mesh, stats)
}

/// The one driver behind every `generate*` entry point: setup, then
/// `execute` runs the task tree and returns its outputs in path order,
/// then assembly. The three phases are the depth-1 children of the root
/// `pipeline` span on the driver lane.
fn drive(
    config: &MeshConfig,
    prelude: Option<&GeomPrelude>,
    pool: &Pool,
    tracer: &Tracer,
    execute: impl FnOnce(&Shared, Vec<Task<TaskBody>>) -> Vec<(Vec<u8>, TaskOut)>,
) -> PipelineResult {
    let t0 = tracer.now();
    let root = tracer.span(Track::ROOT, "pipeline");
    // The run's `merge.steals` counter is the *delta* of the pool's steal
    // count over this job — a reused pool never bleeds one request's
    // steal traffic into the next request's trace.
    let steals_before = pool.steals();

    let span = tracer.span(Track::ROOT, "phase.setup");
    // Stage-0 geometry (§II.A–II.C) comes from the prelude when one is
    // supplied; the fresh build produces the identical cloud and intern
    // order, so the mesh bytes cannot depend on which branch ran.
    let built;
    let pre = match prelude {
        Some(pre) => pre,
        None => {
            let span = tracer.span(Track::ROOT, TaskKind::BlBuild.span_name());
            built = build_prelude(config);
            span.close();
            &built
        }
    };
    let (shared, seeds) = setup(config, pre, pool, tracer);
    span.close();

    let span = tracer.span(Track::ROOT, "phase.parallel_mesh");
    let outs = execute(&shared, seeds);
    span.close();

    let span = tracer.span(Track::ROOT, TaskKind::Merge.span_name());
    let (mesh, mut stats) = assemble(pre, pool, tracer, outs, config.shard_out.as_deref());
    span.close_with(&[("triangles", mesh.num_triangles() as u64)]);
    tracer.count("merge.steals", pool.steals() - steals_before);
    root.close();

    stats.total_s = (tracer.now() - t0).as_secs_f64();
    PipelineResult {
        mesh,
        // The task log is a view over the trace: every per-task span
        // recorded on any lane becomes one record.
        log: TaskLog::from_trace(tracer),
        stats,
        trace: tracer.clone(),
    }
}

/// Sequential single-triangulator baseline: meshes the *same* domain as
/// one constrained refinement problem without any decomposition or
/// decoupling, mimicking "plain Triangle" for the sequential-efficiency
/// comparison (§IV: 196 s vs 192 s). Uses the identical boundary layer
/// and sizing so the work is comparable.
pub fn generate_undecomposed(config: &MeshConfig) -> PipelineResult {
    let tracer = Tracer::wall();
    tracer.name_track(Track::ROOT, "pipeline (undecomposed)");
    let t0 = tracer.now();
    let root = tracer.span(Track::ROOT, "pipeline");
    let span = tracer.span(Track::ROOT, TaskKind::BlBuild.span_name());
    let pre = build_prelude(config);
    span.close();

    // The whole cloud as one leaf.
    let pool = Pool::new(config.merge_threads);
    let span = tracer.span(Track::ROOT, TaskKind::BlTriangulate.span_name());
    let tris =
        triangulate_leaf_pooled(&Subdomain::root_with_ids(&pre.cloud, &pre.cloud_ids), &pool);
    close_leaf(span, pre.cloud.len(), tris.len());

    // One big inviscid region: far-field rectangle with the BL outer
    // borders as holes — no quadrants, no decoupling.
    let sizing = composed_sizing(config, &pre.outer_borders);
    let f = &config.pslg.farfield;
    let rect = [
        f.min,
        Point2::new(f.max.x, f.min.y),
        f.max,
        Point2::new(f.min.x, f.max.y),
    ];
    let span = tracer.span(Track::ROOT, TaskKind::InviscidRefine.span_name());
    let (inviscid, rstats) = refine_nearbody(&rect, &pre.outer_borders, &pre.hole_seeds, &sizing);
    rstats.publish(&tracer);
    span.close_with(&[("triangles", inviscid.num_triangles() as u64)]);

    // The same assembly as [`generate`], measured under `phase.merge`
    // (interface repair included), so the sequential-efficiency table can
    // exclude merge symmetrically on both sides of its ratio.
    let span = tracer.span(Track::ROOT, TaskKind::Merge.span_name());
    // No split count: the far-field rectangle's segments are this
    // region's own to split, not a border shared with another subdomain.
    let outs = vec![
        (vec![0], TaskOut::BlTris(tris)),
        (vec![1], TaskOut::NearBody(Box::new(inviscid), 0)),
    ];
    let (mesh, mut stats) = assemble(&pre, &pool, &tracer, outs, None);
    span.close_with(&[("triangles", mesh.num_triangles() as u64)]);
    root.close();

    stats.total_s = (tracer.now() - t0).as_secs_f64();
    PipelineResult {
        mesh,
        log: TaskLog::from_trace(&tracer),
        stats,
        trace: tracer,
    }
}
