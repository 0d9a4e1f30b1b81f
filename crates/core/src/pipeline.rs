//! The push-button pipeline (paper §I): geometry in, mesh out.
//!
//! One driver, `drive`, runs every front door: set up, run a task tree
//! on an [`Executor`], write the shard set if asked, reduce the sub-meshes
//! over the task tree. What differs between front doors is the *plan*
//! handed to it — a `setup` that fixes the shared state and the seed
//! tasks, a `step` that runs one task, an `assemble` that turns the
//! path-ordered task outputs into merge inputs. This module holds the
//! airfoil plan (a boundary-layer subdomain is split or triangulated, an
//! inviscid region is decoupled or refined, the near-body subdomain is
//! refined; assembly constrains + carves the boundary-layer mesh and
//! repairs its interface) and the undecomposed baseline plan;
//! `pslg_pipeline` holds the general-PSLG plan. Outputs reach the assembly
//! in task-path order under either executor and at any pool width, so a
//! plan's mesh and shard set do not depend on who ran it.

use crate::blmesh::assemble_bl_mesh;
use crate::config::MeshConfig;
use crate::inviscid::{
    build_sizing, decouple_threshold, propagate_interface_splits, refine_nearbody,
    refine_nearbody_stamped, refine_region,
};
use crate::merge::merge_inputs;
use crate::shard::write_shard_set;
use crate::sizing::ComposedSizing;
use crate::tasklog::{TaskKind, TaskLog};
use adm_blayer::{build_multielement_layers, BoundaryLayer};
use adm_decouple::{initial_quadrants, splittable, Region};
use adm_delaunay::mesh::Mesh;
use adm_geom::aabb::Aabb;
use adm_geom::point::Point2;
use adm_kernel::{GlobalVertexId, MeshArena};
use adm_mpirt::{Executor, Pool, Task, WorkItem};
use adm_partition::{triangulate_leaf, DecomposeParams, Subdomain};
use adm_trace::{Tracer, Track};
use std::borrow::Cow;
use std::path::Path;
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
/// [`generate_staged_with_pool`] / [`generate_on`] each cycle, so the anisotropic layer construction and cloud interning are
/// paid once per adaptation run.
/// The staged entry points produce byte-identical meshes whether the
/// prelude is prebuilt or built inline — the cloud and intern order are
/// the same either way.
#[derive(Clone)]
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

/// Runs the full pipeline in this process: the task tree, the per-leaf
/// divide-and-conquer triangulations and the merge reduction all fork on
/// a pool of `config.merge_threads` workers. Output bytes are
/// pool-width-independent (0 workers = everything on the calling thread).
pub fn generate(config: &MeshConfig) -> PipelineResult {
    generate_staged_with_pool(config, None, &Pool::new(config.merge_threads))
}

/// [`generate`] over a caller-owned worker [`Pool`] and an optional
/// prebuilt [`GeomPrelude`]. With a prelude, the boundary-layer build and
/// cloud interning are reused (the adaptation loop's per-cycle entry
/// point); the mesh server batches every request through one pool sized
/// to the machine instead of spinning threads up and down per job. The
/// task tree, the leaf triangulations and the merge all fork on `pool`;
/// output bytes are identical with or without a prelude and at any width.
pub fn generate_staged_with_pool(
    config: &MeshConfig,
    prelude: Option<&GeomPrelude>,
    pool: &Pool,
) -> PipelineResult {
    generate_on(config, prelude, Executor::Pool, pool)
}

/// Runs the pipeline with the subdomain work — including the recursive
/// decomposition and decoupling — executed on `ranks` mpirt ranks under
/// the dynamic load balancer. Produces the bitwise-identical mesh of
/// [`generate`]: every split/stop decision is per-subdomain and therefore
/// independent of which rank executes it.
pub fn generate_parallel(config: &MeshConfig, ranks: usize) -> PipelineResult {
    let pool = Pool::new(config.merge_threads);
    generate_on(config, None, Executor::ranks(ranks), &pool)
}

/// The maximal form of the airfoil front door: the task tree runs on
/// `executor` (fork–join on `pool`, `ranks` threads, or a fault-injected
/// [`adm_mpirt::SimTransport`] for chaos runs), leaf triangulations and
/// the merge fork on the caller's `pool`, and a prebuilt [`GeomPrelude`]
/// is reused when given. The mesh is schedule-independent: results are
/// reassembled in task-tree order, so any executor, transport schedule and
/// rank count yields identical bytes. On a virtual-time transport pass
/// `Pool::new(0)`: wall-clock workers would desynchronize the simulated
/// clock and with it the replay-stable trace (never the mesh).
pub fn generate_on(
    config: &MeshConfig,
    prelude: Option<&GeomPrelude>,
    executor: Executor,
    pool: &Pool,
) -> PipelineResult {
    let setup = |tracer: &Tracer| Ok(setup(config, prelude_for(config, prelude, tracer)));
    let assemble = |sh: &Shared, outs| Ok(assemble(&sh.pre, outs));
    let shard_out = config.shard_out.as_deref();
    pipeline_result(drive(executor, pool, shard_out, setup, step, assemble))
}

/// Stage-0 geometry (§II.A–II.C): the caller's prelude, or a fresh one
/// built under its `phase.bl_build` span. Both have the identical cloud
/// and intern order, so the mesh bytes cannot depend on which one ran.
fn prelude_for<'a>(
    config: &MeshConfig,
    prelude: Option<&'a GeomPrelude>,
    tracer: &Tracer,
) -> Cow<'a, GeomPrelude> {
    prelude.map(Cow::Borrowed).unwrap_or_else(|| {
        let _span = tracer.span(Track::ROOT, TaskKind::BlBuild.span_name());
        Cow::Owned(build_prelude(config))
    })
}

/// Completes the airfoil plans' stats with what only the driver knows.
fn pipeline_result(driven: std::io::Result<Driven<PipelineStats>>) -> PipelineResult {
    let d = driven.expect("sharded output failed");
    let stats = PipelineStats {
        total_triangles: d.mesh.num_triangles(),
        total_vertices: d.mesh.num_vertices(),
        total_s: d.total_s,
        ..d.stats
    };
    PipelineResult {
        mesh: d.mesh,
        log: d.log,
        stats,
        trace: d.trace,
    }
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
    pre: Cow<'a, GeomPrelude>,
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

/// Seeds at the one-byte paths `[0]`, `[1]`, ….
fn seed_tasks(bodies: Vec<TaskBody>) -> Vec<Task<TaskBody>> {
    let seed = |(i, body)| Task {
        path: vec![i as u8],
        body,
    };
    bodies.into_iter().enumerate().map(seed).collect()
}

/// Fixes the shared geometry and the seed tasks: the undecomposed
/// boundary-layer root, the four quadrants and the near-body region, at
/// paths `[0]`..`[5]`. Everything else is created by [`step`].
fn setup<'a>(config: &MeshConfig, pre: Cow<'a, GeomPrelude>) -> (Shared<'a>, Vec<Task<TaskBody>>) {
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
    let seeds = seed_tasks(bodies);

    let shared = Shared {
        pre,
        rect: init.nearbody_border,
        rect_ids,
        outer_border_ids,
        sizing,
        threshold,
        bl_params: DecomposeParams::for_subdomain_count(config.bl_subdomains),
    };
    (shared, seeds)
}

/// Closes a leaf task's span with what a work transfer of it would move
/// (16 bytes per input point) and what it produced; `TaskLog` reads both
/// back.
pub(crate) fn close_leaf(span: adm_trace::SpanGuard, points: usize, triangles: usize) {
    span.close_with(&[
        ("bytes", (points * 16) as u64),
        ("triangles", triangles as u64),
    ]);
}

/// Triangulates one boundary-layer leaf under its task span, on the
/// calling thread: the leaves already fill the pool as tasks, and a
/// second fork inside each leaf did not pay on `bl_heavy` at widths 2
/// and 3 (EXPERIMENTS.md, "Exact incircle on the stack").
fn triangulate_bl_leaf(leaf: &Subdomain, tracer: &Tracer, track: Track) -> TaskOut {
    let span = tracer.span(track, TaskKind::BlTriangulate.span_name());
    let tris = triangulate_leaf(leaf);
    close_leaf(span, leaf.len(), tris.len());
    TaskOut::BlTris(tris)
}

/// Runs one task: returns its output and the children it split into.
/// Every split/stop decision reads the task and [`Shared`] only, so the
/// tree is the same under any executor; spans go to `track`.
fn step(sh: &Shared, body: TaskBody, tr: &Tracer, track: Track) -> (TaskOut, Vec<TaskBody>) {
    match body {
        TaskBody::Bl(leaf) if sh.bl_params.is_leaf(&leaf) => {
            (triangulate_bl_leaf(&leaf, tr, track), Vec::new())
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

/// The airfoil plans' assembly: the boundary-layer mesh from its leaves,
/// its interface repaired against the near-body mesh, then every sub-mesh
/// in task-path order. The merged-mesh totals and `total_s` are left for
/// [`pipeline_result`].
fn assemble(
    pre: &GeomPrelude,
    outs: Vec<(Vec<u8>, TaskOut)>,
) -> (Vec<(Vec<u8>, Mesh)>, PipelineStats) {
    let mut leaf_tris: Vec<Vec<[u32; 3]>> = Vec::new();
    let mut inputs = Vec::new();
    let mut nearbody = None;
    let mut border_splits = 0;
    for (path, out) in outs {
        match out {
            TaskOut::BlTris(tris) => leaf_tris.push(tris),
            TaskOut::Region(mesh, splits) => {
                border_splits += splits;
                inputs.push((path, *mesh));
            }
            TaskOut::NearBody(mesh, splits) => {
                border_splits += splits;
                nearbody = Some(inputs.len());
                inputs.push((path, *mesh));
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
    let nearbody = &inputs[nearbody.expect("every run refines the near body")].1;
    let propagated = propagate_interface_splits(&mut bl_mesh, nearbody, &pre.outer_borders);

    let stats = PipelineStats {
        bl_points: pre.cloud.len(),
        bl_triangles: bl_mesh.num_triangles(),
        inviscid_triangles: inputs.iter().map(|(_, m)| m.num_triangles()).sum(),
        border_splits: border_splits - propagated.min(border_splits),
        ..Default::default()
    };
    // The boundary-layer mesh takes the path `[0]` (its seed task's slot,
    // which only ever emits triangles, never a sub-mesh), so it sorts
    // before every region and near-body result.
    inputs.insert(0, (vec![0], bl_mesh));
    (inputs, stats)
}

/// What [`drive`] hands back: the merged mesh, the plan's own stats, the
/// task log, the run's trace and its wall (or virtual) seconds.
pub(crate) struct Driven<T> {
    pub mesh: Mesh,
    pub stats: T,
    pub log: TaskLog,
    pub trace: Tracer,
    pub total_s: f64,
}

/// The one driver behind every front door. `setup` fixes the plan's
/// shared state and seed tasks; `executor` runs `step` over the tree and
/// returns the outputs in path order; `assemble` turns them into the
/// merge inputs (ascending task path) plus the plan's stats. The driver
/// owns the rest: the tracer (on the executor's clock, handed to every
/// plan function), the root `pipeline` span and its three phase children
/// on the driver lane, the shard set, the merge tail on `pool`
/// ([`merge_inputs`]: reduction over the task tree, then the adjacency
/// build that proves the union manifold), the task log. A plan's error
/// ends the run before anything is written.
pub(crate) fn drive<S: Sync, B: WorkItem, O: Send + 'static, T, E: From<std::io::Error>>(
    executor: Executor,
    pool: &Pool,
    shard_out: Option<&Path>,
    setup: impl FnOnce(&Tracer) -> Result<(S, Vec<Task<B>>), E>,
    step: impl Fn(&S, B, &Tracer, Track) -> (O, Vec<B>) + Sync,
    assemble: impl FnOnce(&S, Vec<(Vec<u8>, O)>) -> Result<(Vec<(Vec<u8>, Mesh)>, T), E>,
) -> Result<Driven<T>, E> {
    let trace = executor.tracer();
    let tracer = &trace;
    tracer.name_track(Track::ROOT, "driver");
    let t0 = tracer.now();
    let root = tracer.span(Track::ROOT, "pipeline");
    // The run's `merge.steals` counter is the *delta* of the pool's steal
    // count over this job — a reused pool never bleeds one request's
    // steal traffic into the next request's trace.
    let steals_before = pool.steals();

    let span = tracer.span(Track::ROOT, TaskKind::Serial.span_name());
    let (shared, seeds) = setup(tracer)?;
    span.close();

    let span = tracer.span(Track::ROOT, "phase.parallel_mesh");
    let outs = executor.run(seeds, pool, tracer, |body, track| {
        step(&shared, body, tracer, track)
    });
    span.close();

    let span = tracer.span(Track::ROOT, TaskKind::Merge.span_name());
    let (inputs, stats) = assemble(&shared, outs)?;
    let inputs: Vec<(&[u8], &Mesh)> = inputs.iter().map(|(p, m)| (p.as_slice(), m)).collect();
    // Distributed output: the shard set *is* the merge's input
    // decomposition, so `shard-cat` can replay the reduction offline.
    // Shards are keyed by task path, so the set (and the manifest bytes)
    // are identical under every executor, rank count and schedule.
    if let Some(dir) = shard_out {
        let span = tracer.span(Track::ROOT, "phase.shard_write");
        write_shard_set(dir, &inputs, Some(tracer))?;
        span.close();
    }
    // The sub-meshes reduce over the task tree itself, so sibling subtrees
    // merge independently: a balanced in-order plan over an associative
    // absorb, bitwise equal to the sequential left fold at any pool width.
    let mesh = merge_inputs(&inputs, pool, Some(tracer)).unwrap_or_else(|e| panic!("{e}"));
    span.close_with(&[("triangles", mesh.num_triangles() as u64)]);
    tracer.count("merge.steals", pool.steals() - steals_before);
    root.close();

    Ok(Driven {
        mesh,
        stats,
        // The task log is a view over the trace: every per-task span
        // recorded on any lane becomes one record.
        log: TaskLog::from_trace(tracer),
        total_s: (tracer.now() - t0).as_secs_f64(),
        trace,
    })
}

/// Sequential single-triangulator baseline: meshes the *same* domain as
/// one constrained refinement problem without any decomposition or
/// decoupling, mimicking "plain Triangle" for the sequential-efficiency
/// comparison (§IV: 196 s vs 192 s). Uses the identical boundary layer,
/// sizing and assembly (interface repair included, under `phase.merge`),
/// so the work is comparable and the sequential-efficiency table can
/// exclude merge symmetrically on both sides of its ratio.
pub fn generate_undecomposed(config: &MeshConfig) -> PipelineResult {
    type Shared = (GeomPrelude, ComposedSizing);
    let pool = Pool::new(config.merge_threads);
    // Two seeds: the whole cloud as one leaf, and one big inviscid region —
    // the far-field rectangle with the boundary-layer outer borders as
    // holes; no quadrants, no decoupling.
    let setup = |tracer: &Tracer| {
        let pre = prelude_for(config, None, tracer).into_owned();
        let root = Subdomain::root_with_ids(&pre.cloud, &pre.cloud_ids);
        let seeds = seed_tasks(vec![TaskBody::Bl(Box::new(root)), TaskBody::NearBody]);
        let sizing = composed_sizing(config, &pre.outer_borders);
        Ok(((pre, sizing), seeds))
    };
    let step = |(pre, sizing): &Shared, body, tracer: &Tracer, track| match body {
        TaskBody::Bl(leaf) => (triangulate_bl_leaf(&leaf, tracer, track), vec![]),
        _ => {
            let f = &config.pslg.farfield;
            let (ll, ur) = (f.min, f.max);
            let rect = [ll, Point2::new(ur.x, ll.y), ur, Point2::new(ll.x, ur.y)];
            let span = tracer.span(track, TaskKind::InviscidRefine.span_name());
            let (mesh, stats) = refine_nearbody(&rect, &pre.outer_borders, &pre.hole_seeds, sizing);
            stats.publish(tracer);
            span.close_with(&[("triangles", mesh.num_triangles() as u64)]);
            // No split count: the far-field rectangle's segments are this
            // region's own to split, not a border shared with another
            // subdomain.
            (TaskOut::NearBody(Box::new(mesh), 0), vec![])
        }
    };
    let assemble = |(pre, _): &Shared, outs| Ok(assemble(pre, outs));
    pipeline_result(drive(Executor::Pool, &pool, None, setup, step, assemble))
}
