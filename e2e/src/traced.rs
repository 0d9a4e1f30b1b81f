//! The traced pass: per-layer numbers for one workload.
//!
//! Runs the workload's real entry point once untraced (the "timed op"),
//! then the stage replica of `replica.rs` with spans on, and fails the
//! pass unless the replica reproduces the timed op's sha256 digest —
//! otherwise the spans would describe a different program. Every parent
//! span's children must cover at least [`COVERAGE_FLOOR`] of it, so time
//! cannot hide between stages.

use crate::inputs::{self, Budget, Workload};
use crate::library::{plate_inputs, timed, Timed};
use crate::metrics::Layers;
use crate::replica::{self, AirfoilOut};
use crate::serve::{self, remove_scratch, scratch_dir, Rig};
use crate::spans::{coverage_min, durations_s, total_s};
use crate::stats::{cv, percentile};
use crate::verify::{digest, hex};
use crate::{json, probes};
use adm_core::{
    adapt, build_sizing, generate, generate_parallel, generate_staged_with_pool, mesh_pslg,
    read_manifest, reconstruct, verify_shards, MeshConfig, PipelineResult, Sha256, TaskKind,
};
use adm_delaunay::refine::RefineParams;
use adm_mpirt::Pool;
use adm_serve::{cache_key, DiskCache, DiskLoad, Server, ServerConfig};
use adm_simnet::{simulate, InitialDist, SimConfig, Task};
use adm_trace::{Span, TraceSnapshot, Tracer, Track};
use std::time::Instant;

/// Least share of a parent span its children must cover.
pub const COVERAGE_FLOOR: f64 = 0.95;

/// Outcome of one traced pass.
pub struct Traced {
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The replica's spans, for the Chrome trace next to `--out`.
    pub snapshot: Option<TraceSnapshot>,
}

impl Traced {
    fn new() -> Traced {
        Traced {
            layers: Layers::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            snapshot: None,
        }
    }

    /// Counts one checked op; records why it failed if it did.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what.to_string());
        }
    }

    /// Takes over a closed loop's ops and failures, and its client-side
    /// numbers.
    fn absorb_loop(&mut self, run: &Timed) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.errors.extend(run.errors.iter().cloned());
        let l = &mut self.layers;
        if !run.op_s.is_empty() {
            l.set("client.rtt_s_p90", percentile(&run.op_s, 90.0));
            l.set("client.rtt_s_p99", percentile(&run.op_s, 99.0));
        }
        l.set(
            "serve.resp_mb_per_s",
            run.bytes as f64 / 1e6 / run.wall_s.max(1e-12),
        );
    }

    /// Takes a trace: stamps the workload id on its root spans, applies
    /// the coverage rule to the driver lane's spans down to `max_depth`
    /// and keeps the snapshot for export.
    fn adopt(&mut self, w: Workload, tracer: &Tracer, max_depth: u32) {
        let mut snap = tracer.snapshot();
        for s in snap.spans.iter_mut().filter(|s| s.parent.is_none()) {
            s.args.push(("workload", w.id()));
        }
        let on_lane: Vec<Span> = lane_spans(&snap.spans, max_depth);
        let (share, name) = coverage_min(&on_lane).unwrap_or((1.0, String::new()));
        self.layers.set("bench.coverage_min", share);
        self.check(
            &format!(
                "span {name:?} is only {:.1}% covered by its children",
                100.0 * share
            ),
            share >= COVERAGE_FLOOR,
        );
        self.snapshot = Some(snap);
    }
}

/// The driver lane's spans no deeper than `max_depth`, with parent
/// indices rebased onto the subset.
fn lane_spans(spans: &[Span], max_depth: u32) -> Vec<Span> {
    let mut new_index = vec![usize::MAX; spans.len()];
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.track == Track::ROOT && s.closed() && s.depth <= max_depth {
            new_index[i] = out.len();
            let mut s = s.clone();
            s.parent = s.parent.map(|p| new_index[p]).filter(|&p| p != usize::MAX);
            out.push(s);
        }
    }
    out
}

/// Fills the airfoil-pipeline layers from a replica's spans. Totals sum
/// over every `pipeline` span in the trace (the adaptation replica runs
/// the pipeline once per cycle).
fn airfoil_layers(spans: &[Span], outs: &[&AirfoilOut], l: &mut Layers) {
    let sum = |f: fn(&AirfoilOut) -> usize| outs.iter().map(|o| f(o)).sum::<usize>() as f64;
    l.set("blayer.build_s", total_s(spans, "blayer.build"));
    l.set(
        "blayer.points",
        outs.last().map_or(0.0, |o| o.bl_points as f64),
    );
    l.set(
        "partition.decompose_s",
        total_s(spans, "partition.decompose"),
    );
    l.set("partition.leaves", sum(|o| o.bl_leaves));
    let dc_s = total_s(spans, "dc.triangulate");
    l.set("dc.triangulate_s", dc_s);
    l.set(
        "dc.mtri_per_s",
        sum(|o| o.dc_triangles) / 1e6 / dc_s.max(1e-12),
    );
    let blmesh_s = total_s(spans, "blmesh") + total_s(spans, "blmesh.intern");
    l.set("blmesh.total_s", blmesh_s);
    l.set(
        "blmesh.carve_self_s",
        blmesh_s - l.get("partition.decompose_s") - dc_s,
    );
    l.set("decouple.split_s", total_s(spans, "decouple.split"));
    l.set("decouple.leaves", sum(|o| o.inviscid_leaves));
    refine_layers(
        spans,
        sum(|o| o.refined_triangles),
        sum(|o| o.refine.circumcenters + o.refine.segment_splits),
        sum(|o| o.refine.segment_splits),
        l,
    );
    l.set("sizing.build_s", total_s(spans, "sizing.build"));
    merge_layers(
        spans,
        sum(|o| o.merge_inputs),
        total_s(spans, "pipeline"),
        l,
    );
    l.set("shard.write_s", total_s(spans, "shard.write"));
    l.set(
        "shard.bytes",
        outs.iter().map(|o| o.shard_bytes).sum::<u64>() as f64,
    );
}

fn refine_layers(spans: &[Span], triangles: f64, steiner: f64, splits: f64, l: &mut Layers) {
    let regions = durations_s(spans, "refine.region");
    let regions_s: f64 = regions.iter().sum();
    let nearbody_s = total_s(spans, "refine.nearbody");
    l.set("refine.regions_s", regions_s);
    l.set("refine.nearbody_s", nearbody_s);
    l.set(
        "refine.mtri_per_s",
        triangles / 1e6 / (regions_s + nearbody_s).max(1e-12),
    );
    l.set(
        "refine.region_s_max",
        regions.iter().copied().fold(0.0, f64::max),
    );
    l.set("refine.region_s_cv", cv(&regions));
    l.set("refine.steiner_points", steiner);
    l.set("refine.segment_splits", splits);
}

fn merge_layers(spans: &[Span], inputs: f64, op_s: f64, l: &mut Layers) {
    let parts = ["propagate", "tree", "finish", "conformity"];
    let mut merge_s = 0.0;
    for part in parts {
        let s = total_s(spans, &format!("merge.{part}"));
        l.set(&format!("merge.{part}_s"), s);
        merge_s += s;
    }
    l.set("merge.inputs", inputs);
    l.set("merge.share_of_op", merge_s / op_s.max(1e-12));
}

fn overhead(l: &mut Layers, traced_s: f64, untraced_s: f64) {
    l.set(
        "bench.traced_overhead_frac",
        traced_s / untraced_s.max(1e-12) - 1.0,
    );
}

fn graded_probe(seed: u64, config: &MeshConfig, borders: &[Vec<adm_geom::Point2>]) -> f64 {
    let sizing = build_sizing(
        borders,
        config.effective_sizing_h0(),
        config.sizing_rate,
        config.sizing_max_area,
    );
    let f = &config.pslg.farfield;
    probes::sizing_eval_ns(seed, &sizing, 0.5 * (f.max.x - f.min.x))
}

/// `inviscid_1m`, `bl_heavy`: the sequential airfoil pipeline.
fn airfoil(w: Workload, seed: u64) -> Traced {
    let mut t = Traced::new();
    let cfg = match w {
        Workload::Inviscid1m => inputs::inviscid_config(seed),
        _ => inputs::bl_heavy_config(seed),
    };
    // The process's first op, cold; its mesh is the reference.
    let (first, first_s) = timed(|| generate(&cfg));
    t.layers.set("pipeline.first_op_s", first_s);
    let want = probes::encode_hash(&first.mesh, &mut t.layers);
    let triangles = first.stats.total_triangles;
    drop(first);

    // One warm op at each pool width through the entry point the server
    // and `generate` share.
    let wide = Pool::new(cfg.merge_threads);
    let (r, w2_s) = timed(|| generate_staged_with_pool(&cfg, None, &wide));
    t.layers.set("pipeline.wall_w2_s", w2_s);
    t.check(
        "pool width 2 changed the triangle count",
        r.stats.total_triangles == triangles,
    );
    drop(r);
    let (r, w0_s) = timed(|| generate_staged_with_pool(&cfg, None, &Pool::new(0)));
    t.layers.set("pipeline.wall_w0_s", w0_s);
    t.check(
        "pool width 0 changed the triangle count",
        r.stats.total_triangles == triangles,
    );
    drop(r);

    let tracer = Tracer::wall();
    let (out, traced_s) = timed(|| replica::airfoil(&tracer, &cfg, None, &wide));
    t.check(
        "traced replica does not reproduce the timed op's digest",
        digest(&out.mesh) == want,
    );
    overhead(&mut t.layers, traced_s, w2_s);
    let spans = tracer.snapshot().spans;
    airfoil_layers(&spans, &[&out], &mut t.layers);
    t.adopt(w, &tracer, u32::MAX);

    // The sizing field the refinement queried, rebuilt for the probe.
    let borders: Vec<Vec<adm_geom::Point2>> = {
        let pre = adm_core::build_prelude(&cfg);
        pre.outer_borders
    };
    t.layers
        .set("sizing.graded_eval_ns", graded_probe(seed, &cfg, &borders));
    t
}

/// Predicted two-rank wall from the serial run's task log, by the model
/// `fig11_12_scaling` uses: serial stages once, boundary-layer build and
/// the merge tree shared by the ranks, the per-subdomain tasks replayed
/// through the simulator's load balancer.
fn simnet_prediction(serial: &PipelineResult, p: usize) -> f64 {
    let records = serial.log.parallel_tasks();
    let tasks: Vec<Task> = records
        .iter()
        .map(|r| Task {
            cost_s: r.cost_s.max(1e-7),
            bytes: r.bytes.max(64),
        })
        .collect();
    let serial_s = serial.log.total_s(TaskKind::Serial);
    let bl_s = serial.log.total_s(TaskKind::BlBuild);
    let decompose_s = serial.log.total_s(TaskKind::Decompose);
    let merge_s = serial.log.total_s(TaskKind::Merge);
    let merged = records
        .iter()
        .filter(|r| r.kind != TaskKind::BlTriangulate)
        .count()
        .max(1)
        + 1;
    let critical_s = merge_s * ((merged + 1) as f64).log2().ceil() / merged as f64;
    let total_bytes: f64 = tasks.iter().map(|t| t.bytes as f64).sum();
    let levels = (tasks.len() as f64).log2().max(1.0);
    let dist = InitialDist::Tree {
        split_cost_s_per_byte: (decompose_s / (total_bytes * levels)).max(1e-12),
    };
    let sim = simulate(p, &tasks, dist, &SimConfig::default());
    serial_s + bl_s / p as f64 + sim.makespan_s + (merge_s / p as f64).max(critical_s)
}

/// `ranks2_1m`: the rank driver. Its stage graph is not replicated — the
/// load balancer's task types are private — so the layer numbers come
/// from the spans the driver already records, and the digest oracle is
/// serial ≡ 1 rank ≡ 2 ranks.
fn ranks(seed: u64) -> Traced {
    let mut t = Traced::new();
    let cfg = inputs::inviscid_config(seed);
    let (serial, serial_s) = timed(|| generate(&cfg));
    t.layers.set("pipeline.first_op_s", serial_s);
    let want = probes::encode_hash(&serial.mesh, &mut t.layers);
    let pred_s = simnet_prediction(&serial, 2);
    drop(serial);

    let (r1, r1_s) = timed(|| generate_parallel(&cfg, 1));
    t.check("1 rank != serial", digest(&r1.mesh) == want);
    drop(r1);
    let (r2, r2_s) = timed(|| generate_parallel(&cfg, 2));
    t.check("2 ranks != serial", digest(&r2.mesh) == want);

    let l = &mut t.layers;
    l.set("mpirt.r1_over_serial", r1_s / serial_s);
    l.set("mpirt.parallel_efficiency", serial_s / (2.0 * r2_s));
    l.set("mpirt.tasks", r2.log.parallel_tasks().len() as f64);
    l.set("simnet.pred_p2_s", pred_s);
    l.set("simnet.pred_err_p2", (pred_s - r2_s).abs() / r2_s);
    let spans = r2.trace.snapshot().spans;
    l.set("mpirt.setup_s", total_s(&spans, "phase.setup"));
    l.set(
        "mpirt.parallel_mesh_s",
        total_s(&spans, "phase.parallel_mesh"),
    );
    l.set(
        "mpirt.merge_tail_s",
        total_s(&spans, TaskKind::Merge.span_name()),
    );
    l.set(
        "blayer.build_s",
        total_s(&spans, TaskKind::BlBuild.span_name()),
    );
    l.set(
        "dc.triangulate_s",
        total_s(&spans, TaskKind::BlTriangulate.span_name()),
    );
    let regions = durations_s(&spans, TaskKind::InviscidRefine.span_name());
    l.set("refine.regions_s", regions.iter().sum());
    l.set(
        "refine.nearbody_s",
        total_s(&spans, TaskKind::NearBodyRefine.span_name()),
    );
    l.set(
        "refine.region_s_max",
        regions.iter().copied().fold(0.0, f64::max),
    );
    l.set("refine.region_s_cv", cv(&regions));
    l.set("decouple.leaves", regions.len() as f64);
    l.set(
        "refine.mtri_per_s",
        r2.stats.inviscid_triangles as f64
            / 1e6
            / (l.get("refine.regions_s") + l.get("refine.nearbody_s")).max(1e-12),
    );
    // The driver lane's phases (setup → parallel mesh → merge) must
    // account for the op. Deeper product spans and the rank lanes, which
    // idle by design, are not the benchmark's to hold to the rule.
    let tracer = r2.trace.clone();
    drop(r2);
    t.adopt(Workload::Ranks2_1m, &tracer, 1);
    t
}

/// `adapt_naca`: solve → estimate → remesh.
fn adapt_naca(seed: u64) -> Traced {
    let mut t = Traced::new();
    let (cfg, opts) = inputs::adapt_inputs(seed);
    let (real, op_s) = timed(|| adapt(&cfg, &opts));
    t.layers.set("pipeline.first_op_s", op_s);

    let tracer = Tracer::wall();
    let (out, traced_s) = timed(|| replica::adapt(&tracer, &cfg, &opts));
    let same = out.cycles.len() == real.cycles.len()
        && out
            .cycles
            .iter()
            .zip(&real.cycles)
            .all(|(a, b)| a.mesh_digest == b.mesh_digest && a.cg_iters == b.solve_iters);
    t.check(
        "traced replica does not reproduce every cycle's digest",
        same,
    );
    overhead(&mut t.layers, traced_s, op_s);

    let spans = tracer.snapshot().spans;
    let outs: Vec<&AirfoilOut> = out.meshes.iter().collect();
    airfoil_layers(&spans, &outs, &mut t.layers);
    let l = &mut t.layers;
    l.set("solver.solve_s", total_s(&spans, "solver.solve"));
    l.set(
        "solver.cg_iters",
        out.cycles.iter().map(|c| c.cg_iters).sum::<usize>() as f64,
    );
    l.set("solver.estimate_s", total_s(&spans, "solver.estimate"));
    l.set("adapt.remesh_s", total_s(&spans, "adapt.remesh"));
    l.set(
        "adapt.canon_roundtrip_s",
        total_s(&spans, "adapt.canon_roundtrip"),
    );
    probes::encode_hash(&out.meshes.last().expect("a cycle ran").mesh, l);
    let f = &cfg.pslg.farfield;
    let radius = 0.5 * (f.max.x - f.min.x);
    if let Some(metric) = &out.metric_sizing {
        l.set(
            "sizing.metric_eval_ns",
            probes::sizing_eval_ns(seed, metric.as_ref(), radius),
        );
    }
    let borders = adm_core::build_prelude(&cfg).outer_borders;
    l.set("sizing.graded_eval_ns", graded_probe(seed, &cfg, &borders));
    t.adopt(Workload::AdaptNaca, &tracer, u32::MAX);
    t
}

/// `pslg_plate`: the general front door.
fn pslg_plate(seed: u64) -> Traced {
    let mut t = Traced::new();
    let tracer = Tracer::wall();
    let text = inputs::plate_poly_text(seed);
    let span = tracer.span(Track::ROOT, "pslg.read_poly");
    let poly = adm_delaunay::read_poly(&mut text.as_bytes()).expect("plate .poly parses");
    span.close_with(&[("bytes", text.len() as u64)]);
    drop(poly);
    let (pslg, sizing) = plate_inputs(seed);
    let params = RefineParams::default();

    let (real, op_s) = timed(|| mesh_pslg(&pslg, &sizing, &params).expect("plate meshes"));
    t.layers.set("pipeline.first_op_s", op_s);
    let want = probes::encode_hash(&real.mesh, &mut t.layers);
    let (warm, warm_s) = timed(|| mesh_pslg(&pslg, &sizing, &params).expect("plate meshes"));
    t.check(
        "second op changed the refinement counts",
        warm.refine_stats == real.refine_stats,
    );
    drop((real, warm));

    let (out, traced_s) = timed(|| replica::pslg(&tracer, &pslg, &sizing, &params));
    t.check(
        "traced replica does not reproduce the timed op's digest",
        digest(&out.mesh) == want,
    );
    overhead(&mut t.layers, traced_s, warm_s);
    let spans = tracer.snapshot().spans;
    let l = &mut t.layers;
    l.set("pslg.read_poly_s", total_s(&spans, "pslg.read_poly"));
    l.set("pslg.validate_s", total_s(&spans, "pslg.validate"));
    l.set("pslg.mesh_s", total_s(&spans, "pslg.mesh"));
    refine_layers(
        &spans,
        out.refined_triangles as f64,
        (out.refine.circumcenters + out.refine.segment_splits) as f64,
        out.refine.segment_splits as f64,
        l,
    );
    l.set("decouple.leaves", out.components as f64);
    merge_layers(
        &spans,
        out.components as f64,
        total_s(&spans, "pslg.mesh"),
        l,
    );
    l.set(
        "sizing.graded_eval_ns",
        probes::sizing_eval_ns(seed, &sizing, 7.0),
    );
    t.adopt(Workload::PslgPlate, &tracer, u32::MAX);
    t
}

/// Budget of the closed loop inside a traced serve pass: a quarter of the
/// timed one, enough for the RTT percentiles and the `STATS` ratios.
fn loop_budget(budget: Budget) -> Budget {
    match budget {
        Budget::Seconds(s) => Budget::Seconds((0.25 * s).max(1.0)),
        Budget::Full => Budget::Seconds(4.0),
        Budget::Smoke => Budget::Smoke,
    }
}

/// Reads `STATS` and the ping round trip off a rig into the layers.
fn inspect_rig(rig: &Rig, l: &mut Layers) {
    let mut client = rig.client();
    l.set("wire.ping_rtt_us", probes::ping_rtt_us(&mut client));
    let stats = json::parse(&client.stats().expect("STATS answered")).expect("STATS is JSON");
    let counter = |name: &str| {
        stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0)
    };
    l.set(
        "serve.hit_ratio",
        counter("serve.hits_mem") / counter("serve.requests").max(1.0),
    );
    l.set("serve.jobs", counter("serve.mesh_jobs"));
}

/// In-process `Server::submit`, no TCP: one miss, then `hits` repeats of
/// the same request. Returns the miss's digest.
fn submit_probe(tag: &str, config: &MeshConfig, disk: bool, hits: usize, l: &mut Layers) -> String {
    let dir = disk.then(|| scratch_dir(tag));
    let server = Server::new(ServerConfig {
        workers: 1,
        pool_threads: 0,
        cache_dir: dir.clone(),
        ..Default::default()
    })
    .expect("server boots");
    let (resp, miss_s) = timed(|| server.submit(config).expect("miss served"));
    l.set("server.submit_miss_s", miss_s);
    let t = Instant::now();
    for _ in 0..hits {
        std::hint::black_box(server.submit(config).expect("hit served"));
    }
    l.set(
        "server.submit_hit_us",
        t.elapsed().as_secs_f64() * 1e6 / hits as f64,
    );
    server.shutdown();
    if let Some(dir) = dir {
        remove_scratch(&dir);
    }
    resp.digest.clone()
}

/// `serve_miss`: the request path of a miss, end to end over TCP and
/// then stage by stage in process.
fn serve_miss(seed: u64, budget: Budget) -> Traced {
    let mut t = Traced::new();
    let run = serve::run_miss(seed, loop_budget(budget), |rig| {
        inspect_rig(rig, &mut t.layers)
    });
    t.absorb_loop(&run);

    // Request 0 again, in process: encode → parse → key → mesh job (the
    // airfoil replica, shards on) → ASCII encode → sha256.
    let cfg = inputs::miss_request(seed, 0);
    let tracer = Tracer::wall();
    let root = tracer.span(Track::ROOT, "serve.request_path");
    probes::request_path(&tracer, &cfg, &mut t.layers);
    let key = cache_key(&cfg).expect("cacheable");
    let cache_root = scratch_dir("serve_miss_replica");
    let mut job_cfg = cfg.clone();
    job_cfg.shard_out = Some(cache_root.join(&key));
    let span = tracer.span(Track::ROOT, "serve.mesh_job");
    let out = replica::airfoil(&tracer, &job_cfg, None, &Pool::new(0));
    let mesh_job_s = {
        let (a, b) = span.close();
        (b - a).as_secs_f64()
    };
    let span = tracer.span(Track::ROOT, "serve.encode");
    let inner = tracer.span(Track::ROOT, "io.ascii_canonical");
    let mut ascii = Vec::new();
    adm_delaunay::io::write_ascii_canonical(&out.mesh, &mut ascii).expect("in-memory write");
    inner.close();
    let inner = tracer.span(Track::ROOT, "hash.sha256");
    let mut h = Sha256::new();
    h.update(&ascii);
    let got = hex(&h.finish());
    inner.close();
    let encode_s = {
        let (a, b) = span.close();
        (b - a).as_secs_f64()
    };
    root.close_with(&[("bytes", ascii.len() as u64)]);
    t.check(
        "traced replica does not reproduce the served response's digest",
        run.digests.first() == Some(&got),
    );
    drop(ascii);

    let spans = tracer.snapshot().spans;
    airfoil_layers(&spans, &[&out], &mut t.layers);
    probes::encode_hash(&out.mesh, &mut t.layers);
    // The split ROADMAP item 1 asks for: meshing vs encode + hash.
    eprintln!(
        "[serve_miss] request 0 in process: mesh job {mesh_job_s:.4} s, encode + hash {encode_s:.4} s ({:.1}% of the two)",
        100.0 * encode_s / (mesh_job_s + encode_s)
    );
    t.adopt(Workload::ServeMiss, &tracer, u32::MAX);

    // The disk level's read side, on the shard set the replica just wrote.
    let dir = cache_root.join(&key);
    let manifest = read_manifest(&dir).expect("manifest written");
    let (report, verify_s) = timed(|| verify_shards(&dir, &manifest).expect("shards verify"));
    t.check(
        "replica's shard set is inconsistent",
        report.is_consistent(),
    );
    t.layers.set("shard.verify_s", verify_s);
    let (rebuilt, reconstruct_s) = timed(|| reconstruct(&dir, &manifest).expect("reconstructs"));
    t.layers.set("shard.reconstruct_s", reconstruct_s);
    t.check(
        "reconstruction differs from the served mesh",
        digest(&rebuilt) == got,
    );
    let cache = DiskCache::new(&cache_root).expect("cache opens");
    let (loaded, load_s) = timed(|| cache.load(&key));
    t.layers.set("cache.disk_load_s", load_s);
    t.check(
        "disk cache does not load the entry",
        matches!(loaded, DiskLoad::Hit(_)),
    );
    remove_scratch(&cache_root);

    let fresh = inputs::miss_request(seed, 2_000_003);
    submit_probe("serve_miss_submit", &fresh, true, 1_000, &mut t.layers);
    t
}

/// `serve_hot`: the request path of a memory hit.
fn serve_hot(seed: u64, budget: Budget) -> Traced {
    let mut t = Traced::new();
    let run = serve::run_hot(seed, loop_budget(budget), |rig| {
        inspect_rig(rig, &mut t.layers)
    });
    t.absorb_loop(&run);

    let cfg = inputs::hot_request(seed, 0);
    let tracer = Tracer::wall();
    let root = tracer.span(Track::ROOT, "serve.request_path");
    probes::request_path(&tracer, &cfg, &mut t.layers);
    let span = tracer.span(Track::ROOT, "server.submit");
    let got = submit_probe("serve_hot_submit", &cfg, false, 2_000, &mut t.layers);
    span.close();
    root.close();
    t.check(
        "in-process submit does not reproduce the served response's digest",
        run.digests.first() == Some(&got),
    );
    t.layers.set(
        "io.response_bytes",
        run.bytes as f64 / run.ok().max(1) as f64,
    );
    t.adopt(Workload::ServeHot, &tracer, u32::MAX);
    t
}

/// Runs the traced pass of `w`. The substrate probes run in every pass:
/// they are the floor under whichever layers the workload exercises.
pub fn run(w: Workload, seed: u64, budget: Budget) -> Traced {
    let mut t = match w {
        Workload::Inviscid1m | Workload::BlHeavy => airfoil(w, seed),
        Workload::Ranks2_1m => ranks(seed),
        Workload::AdaptNaca => adapt_naca(seed),
        Workload::PslgPlate => pslg_plate(seed),
        Workload::ServeMiss => serve_miss(seed, budget),
        Workload::ServeHot => serve_hot(seed, budget),
    };
    probes::substrate(seed, &mut t.layers);
    t
}
