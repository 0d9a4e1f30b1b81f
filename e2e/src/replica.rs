//! Traced stage replicas.
//!
//! Each function here re-executes the stage graph of one product entry
//! point — `generate_staged_with_pool`, `adapt`, `mesh_pslg` — by calling
//! the layers' **public functions** in the same order with the same
//! arguments, and brackets every call with a span recorded from outside.
//! The product is not instrumented and not modified. A replica is only
//! trusted when the mesh it produces has the sha256 digest of the mesh
//! the real entry point produced from the same input; the callers in
//! `traced.rs` fail the run otherwise.
//!
//! Span names are the per-layer metric names minus their unit suffix.

use adm_core::inviscid::{conforming_h0, decouple_threshold, propagate_interface_splits};
use adm_core::{
    build_prelude, build_sizing, check_conformity, merge_tree_spliced, refine_nearbody,
    refine_region, sha256_hex, AdaptOptions, AnchorSet, ComposedSizing, GeomPrelude,
    GradationLimited, MeshConfig, MetricSizing, SizingFn,
};
use adm_decouple::{decouple_by_threshold, initial_quadrants};
use adm_delaunay::cdt::{carve, constrained_delaunay, insert_constraint};
use adm_delaunay::mesh::{Mesh, NIL};
use adm_delaunay::refine::{refine, RefineParams, RefineStats};
use adm_geom::aabb::Aabb;
use adm_geom::point::Point2;
use adm_geom::pslg::Pslg;
use adm_kernel::{GlobalVertexId, MeshArena};
use adm_mpirt::Pool;
use adm_partition::{
    decompose, reduction_plan, triangulate_leaf_pooled, DecomposeParams, Subdomain,
};
use adm_trace::{Tracer, Track};
use std::collections::HashMap;
use std::sync::Arc;

const LANE: Track = Track::ROOT;

/// What a replica of the airfoil pipeline hands back besides its spans.
pub struct AirfoilOut {
    pub mesh: Mesh,
    pub refine: RefineStats,
    pub bl_points: usize,
    pub bl_leaves: usize,
    /// Triangles emitted by the per-leaf divide-and-conquer runs.
    pub dc_triangles: usize,
    pub inviscid_leaves: usize,
    /// Triangles produced by the near-body and region refinements.
    pub refined_triangles: usize,
    pub merge_inputs: usize,
    /// Bytes written by the shard stage (0 without `shard_out`).
    pub shard_bytes: u64,
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Splices `meshes` exactly as the product's drivers do: balanced
/// reduction over two-byte big-endian paths, finish, conformity check.
fn merge_stage(tr: &Tracer, meshes: &[&Mesh], pool: &Pool) -> Mesh {
    let span = tr.span(LANE, "merge");
    let paths: Vec<[u8; 2]> = (0..meshes.len() as u16).map(|i| i.to_be_bytes()).collect();
    let path_refs: Vec<&[u8]> = paths.iter().map(|p| p.as_slice()).collect();
    let tree = tr.span(LANE, "merge.tree");
    let plan = reduction_plan(&path_refs);
    let merger = merge_tree_spliced(meshes, &plan, pool, None);
    tree.close();
    let finish = tr.span(LANE, "merge.finish");
    let mesh = merger.finish();
    finish.close();
    let conf = tr.span(LANE, "merge.conformity");
    check_conformity(&mesh);
    conf.close();
    span.close_with(&[("inputs", meshes.len() as u64)]);
    mesh
}

/// The stage graph of `adm_core::generate_staged_with_pool`.
pub fn airfoil(
    tr: &Tracer,
    config: &MeshConfig,
    prelude: Option<&GeomPrelude>,
    pool: &Pool,
) -> AirfoilOut {
    let root = tr.span(LANE, "pipeline");
    let hole_seeds = config.pslg.hole_seeds();

    // 1. Boundary layers and the interned cloud (skipped with a prelude).
    let built: Option<GeomPrelude> = match prelude {
        Some(_) => None,
        None => {
            let span = tr.span(LANE, "blayer.build");
            let surfaces: Vec<Vec<Point2>> =
                config.pslg.loops.iter().map(|l| l.points.clone()).collect();
            let layers =
                adm_blayer::build_multielement_layers(&surfaces, &config.growth, &config.bl);
            span.close();
            let span = tr.span(LANE, "blmesh.intern");
            let cloud: Vec<Point2> = layers
                .iter()
                .flat_map(|l| l.all_points())
                .copied()
                .collect();
            let mut arena = MeshArena::with_capacity(cloud.len());
            let cloud_ids = arena.intern_all(&cloud);
            span.close();
            Some(GeomPrelude {
                outer_borders: layers.iter().map(|l| l.outer_border().to_vec()).collect(),
                hole_seeds: hole_seeds.clone(),
                layers,
                cloud,
                cloud_ids,
                arena: Arc::new(arena),
            })
        }
    };
    let pre = prelude.unwrap_or_else(|| built.as_ref().expect("built above"));
    let arena = &pre.arena;

    // 2. Decompose, triangulate the leaves, reassemble, constrain, carve.
    let blmesh = tr.span(LANE, "blmesh");
    let span = tr.span(LANE, "partition.decompose");
    let leaves: Vec<Subdomain> = decompose(
        Subdomain::root_with_ids(&pre.cloud, &pre.cloud_ids),
        &DecomposeParams::for_subdomain_count(config.bl_subdomains),
    )
    .leaves;
    span.close();
    let mut all_tris: Vec<[u32; 3]> = Vec::new();
    let mut dc_triangles = 0usize;
    let mut seen = std::collections::HashSet::new();
    for leaf in &leaves {
        let span = tr.span(LANE, "dc.triangulate");
        let tris = triangulate_leaf_pooled(leaf, pool);
        span.close_with(&[("triangles", tris.len() as u64)]);
        dc_triangles += tris.len();
        let span = tr.span(LANE, "blmesh.dedupe");
        for t in tris {
            let mut key = t;
            key.sort_unstable();
            if seen.insert(key) {
                all_tris.push(t);
            }
        }
        span.close();
    }
    let span = tr.span(LANE, "blmesh.carve");
    let mut bl_mesh = Mesh::from_triangles(arena.points().to_vec(), all_tris);
    let prefix: Vec<GlobalVertexId> = (0..arena.len() as u32).map(GlobalVertexId).collect();
    bl_mesh.stamp_prefix(&prefix);
    let lookup = |p: Point2| -> u32 { arena.id_of(p).expect("border point in cloud").raw() };
    for l in &pre.layers {
        for ring in [&l.surface[..], l.outer_border()] {
            for i in 0..ring.len() {
                let (a, b) = (lookup(ring[i]), lookup(ring[(i + 1) % ring.len()]));
                if a != b {
                    insert_constraint(&mut bl_mesh, a, b).expect("boundary-layer constraint");
                }
            }
        }
    }
    carve(&mut bl_mesh, &hole_seeds);
    span.close();
    blmesh.close();
    let outer_borders = &pre.outer_borders;

    // 3. Sizing, decoupling, near-body and per-region refinement.
    let span = tr.span(LANE, "sizing.build");
    let sizing = ComposedSizing::new(
        build_sizing(
            outer_borders,
            config.effective_sizing_h0(),
            config.sizing_rate,
            config.sizing_max_area,
        ),
        config.extra_sizing.clone(),
    );
    span.close();
    let inviscid = tr.span(LANE, "inviscid");
    let span = tr.span(LANE, "decouple.split");
    let mut bbox = Aabb::empty();
    for &p in outer_borders.iter().flatten() {
        bbox.expand(p);
    }
    let nearbody_box = bbox.inflated(config.nearbody_margin * config.pslg.reference_chord());
    let init = initial_quadrants(&nearbody_box, &config.pslg.farfield, &sizing);
    let threshold = decouple_threshold(&init.quadrants, config.inviscid_subdomains, &sizing);
    let regions = decouple_by_threshold(init.quadrants.to_vec(), threshold, &sizing);
    span.close();
    let mut stats = RefineStats::default();
    let span = tr.span(LANE, "refine.nearbody");
    let (nearbody, s) = refine_nearbody(&init.nearbody_border, outer_borders, &hole_seeds, &sizing);
    span.close_with(&[("triangles", nearbody.num_triangles() as u64)]);
    stats.absorb(&s);
    let mut sub_meshes = Vec::with_capacity(regions.len());
    for region in &regions {
        let span = tr.span(LANE, "refine.region");
        let (mesh, s) = refine_region(&region.border, &sizing);
        span.close_with(&[("triangles", mesh.num_triangles() as u64)]);
        stats.absorb(&s);
        sub_meshes.push(mesh);
    }
    inviscid.close();

    // 3b. Interface repair.
    let span = tr.span(LANE, "merge.propagate");
    propagate_interface_splits(&mut bl_mesh, &nearbody, outer_borders);
    span.close();

    // 4. Shards (when asked for), then the merge.
    let mut meshes: Vec<&Mesh> = Vec::with_capacity(2 + sub_meshes.len());
    meshes.push(&bl_mesh);
    meshes.push(&nearbody);
    meshes.extend(sub_meshes.iter());
    let mut shard_bytes = 0;
    if let Some(dir) = &config.shard_out {
        let span = tr.span(LANE, "shard.write");
        let paths: Vec<[u8; 2]> = (0..meshes.len() as u16).map(|i| i.to_be_bytes()).collect();
        let inputs: Vec<(&[u8], &Mesh)> = paths
            .iter()
            .map(|p| p.as_slice())
            .zip(meshes.iter().copied())
            .collect();
        adm_core::write_shard_set(dir, &inputs, None).expect("shard write");
        shard_bytes = dir_bytes(dir);
        span.close_with(&[("bytes", shard_bytes)]);
    }
    let refined_triangles =
        nearbody.num_triangles() + sub_meshes.iter().map(Mesh::num_triangles).sum::<usize>();
    let mesh = merge_stage(tr, &meshes, pool);
    root.close_with(&[("triangles", mesh.num_triangles() as u64)]);
    AirfoilOut {
        mesh,
        refine: stats,
        bl_points: pre.cloud.len(),
        bl_leaves: leaves.len(),
        dc_triangles,
        inviscid_leaves: regions.len(),
        refined_triangles,
        merge_inputs: meshes.len(),
        shard_bytes,
    }
}

/// One cycle of the adaptation replica.
pub struct AdaptCycle {
    pub mesh_digest: String,
    pub cg_iters: usize,
}

pub struct AdaptOut {
    pub cycles: Vec<AdaptCycle>,
    /// The pipeline replica's output of every cycle, in order.
    pub meshes: Vec<AirfoilOut>,
    /// The gradation-limited metric channel installed after cycle 0 (what
    /// cycle 1 refined against), for the sizing probe.
    pub metric_sizing: Option<Arc<dyn SizingFn + Send + Sync>>,
}

/// The stage graph of `adm_core::adapt` (sequential runner), with the
/// per-cycle mesh stage itself replaced by [`airfoil`].
pub fn adapt(tr: &Tracer, config: &MeshConfig, opts: &AdaptOptions) -> AdaptOut {
    let root = tr.span(LANE, "adapt");
    let span = tr.span(LANE, "blayer.build");
    let prelude = build_prelude(config);
    span.close();
    let span = tr.span(LANE, "sizing.build");
    let floor = opts.h_floor_factor * conforming_h0(&prelude.outer_borders);
    let border_pts: Vec<Point2> = prelude.outer_borders.iter().flatten().copied().collect();
    let stride = border_pts.len().div_ceil(opts.max_anchors.max(1)).max(1);
    let anchor_pts: Vec<Point2> = border_pts.iter().step_by(stride).copied().collect();
    let anchor_set = Arc::new(AnchorSet::new(&anchor_pts));
    span.close();
    let mut params = opts.metric;
    params.h_min = params.h_min.max(floor);

    let pool = Pool::new(config.merge_threads);
    let mut cfg = config.clone();
    let mut cycles = Vec::new();
    let mut meshes = Vec::new();
    let mut metric_sizing = None;
    for cycle in 0..opts.cycles {
        let cycle_span = tr.span(LANE, "adapt.cycle");
        let span = tr.span(LANE, "adapt.remesh");
        let out = airfoil(tr, &cfg, Some(&prelude), &pool);
        span.close();

        let span = tr.span(LANE, "adapt.canon_roundtrip");
        let mut canon = Vec::new();
        adm_delaunay::io::write_ascii_canonical(&out.mesh, &mut canon).expect("in-memory write");
        let mesh_digest = sha256_hex(&canon);
        let cmesh = adm_delaunay::io::read_ascii(&mut canon.as_slice()).expect("canonical parses");
        span.close_with(&[("bytes", canon.len() as u64)]);

        let span = tr.span(LANE, "solver.solve");
        let flow = adm_solver::solve_potential_flow(&cmesh, &opts.flow);
        span.close_with(&[("iters", flow.residuals.len() as u64)]);

        let span = tr.span(LANE, "solver.estimate");
        let est = adm_solver::zz_error(&cmesh, &flow.psi);
        if params.eps.is_none() {
            params.eps = Some(adm_solver::auto_interpolation_eps(&cmesh, &flow.psi));
        }
        let metric = adm_solver::hessian_metric(&cmesh, &flow.psi, &params);
        span.close_with(&[("dofs", est.dofs as u64)]);

        cycles.push(AdaptCycle {
            mesh_digest,
            cg_iters: flow.residuals.len(),
        });
        meshes.push(out);
        if opts.target_error.is_some_and(|t| est.total <= t) {
            cycle_span.close_with(&[("cycle", cycle as u64)]);
            break;
        }
        let span = tr.span(LANE, "sizing.build");
        let limited: Arc<dyn SizingFn + Send + Sync> = Arc::new(GradationLimited::with_anchor_set(
            MetricSizing::new(Arc::new(metric)),
            anchor_set.clone(),
            opts.gradation,
        ));
        span.close();
        if metric_sizing.is_none() {
            metric_sizing = Some(limited.clone());
        }
        cfg.extra_sizing = Some(limited);
        cycle_span.close_with(&[("cycle", cycle as u64)]);
    }
    root.close();
    AdaptOut {
        cycles,
        meshes,
        metric_sizing,
    }
}

pub struct PslgOut {
    pub mesh: Mesh,
    pub refine: RefineStats,
    pub components: usize,
    pub refined_triangles: usize,
}

/// Triangle-adjacency components of a carved mesh, each repackaged as a
/// standalone arena-stamped mesh with its boundary constrained — the
/// decomposition `mesh_pslg` refines and splices (component ids in
/// live-slot order, local vertices in first-encounter order over
/// slot-sorted triangles).
fn split_components(parent: &Mesh, ids: &[GlobalVertexId]) -> Vec<Mesh> {
    let mut comp = vec![u32::MAX; parent.num_slots()];
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
            let mut local: HashMap<u32, u32> = HashMap::new();
            let mut pts: Vec<Point2> = Vec::new();
            let mut stamps: Vec<GlobalVertexId> = Vec::new();
            let mut tris: Vec<[u32; 3]> = Vec::new();
            for &t in members {
                let lt = parent.tri(t as usize).map(|v| {
                    *local.entry(v).or_insert_with(|| {
                        pts.push(parent.vertex(v as usize));
                        stamps.push(ids[v as usize]);
                        (pts.len() - 1) as u32
                    })
                });
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
                        m.constrain_edge(local[&a], local[&b]);
                    }
                }
            }
            m
        })
        .collect()
}

/// The stage graph of `adm_core::mesh_pslg`.
pub fn pslg(tr: &Tracer, input: &Pslg, sizing: &dyn SizingFn, params: &RefineParams) -> PslgOut {
    let root = tr.span(LANE, "pslg.mesh");
    let span = tr.span(LANE, "pslg.validate");
    let valid = input.validate().expect("benchmark PSLG is valid");
    span.close();
    let span = tr.span(LANE, "pslg.cdt");
    let (mut cdt, _map) = constrained_delaunay(&valid.pslg.points, &valid.pslg.segments, false)
        .expect("constraints insert");
    span.close();
    let span = tr.span(LANE, "pslg.carve_split");
    carve(&mut cdt, &valid.pslg.holes);
    let points = cdt.points();
    let mut arena = MeshArena::with_capacity(points.len());
    let ids = arena.intern_all(&points);
    let mut components = split_components(&cdt, &ids);
    span.close();
    let mut stats = RefineStats::default();
    let area = |p: Point2| sizing.target_area(p);
    for m in &mut components {
        let span = tr.span(LANE, "refine.region");
        let s = refine(m, Some(&area), params);
        span.close_with(&[("triangles", m.num_triangles() as u64)]);
        assert!(!s.hit_cap, "refinement budget exhausted");
        stats.absorb(&s);
    }
    let refined_triangles = components.iter().map(Mesh::num_triangles).sum();
    let refs: Vec<&Mesh> = components.iter().collect();
    let mesh = merge_stage(tr, &refs, &Pool::new(0));
    root.close_with(&[("triangles", mesh.num_triangles() as u64)]);
    PslgOut {
        mesh,
        refine: stats,
        components: components.len(),
        refined_triangles,
    }
}
