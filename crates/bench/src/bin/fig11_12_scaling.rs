//! Figures 11 & 12: strong scalability and efficiency up to 256 ranks.
//!
//! Methodology (see DESIGN.md): the real pipeline runs once on this host,
//! logging the measured cost and payload of every subdomain task; the
//! discrete-event simulator then replays the paper's execution model
//! (tree distribution, largest-first priority scheduling, communicator
//! work requests over 4X FDR InfiniBand) for each rank count. Speedup is
//! measured against the true sequential time (all tasks + serial stages),
//! matching the paper's "fastest sequential algorithm" baseline.
//!
//! Usage: fig11_12_scaling [--points N] [--subdomains S] [--schedule fifo]
//!        [--sharded]
//!
//! `--sharded` models the distributed-output mode: each rank streams its
//! subdomain meshes to per-task shards (one `.adm` file each, plus one
//! manifest), and the merge reduction never runs — consumers reconstruct offline
//! with `shard-cat` only when they need the unified mesh. The merge is
//! still *measured* (reported as `merge_s`) but charged to neither the
//! modeled wall clock nor dropped from the sequential baseline: the
//! fastest sequential algorithm still produces its single mesh in one
//! address space, while the parallel run's deliverable is the verified
//! shard set. The shard write itself is charged, parallel over ranks.

use adm_bench::{maybe_write_snapshot_trace, scaling_config, write_json, Series};
use adm_core::{generate, TaskKind};
use adm_simnet::{simulate, InitialDist, LinkModel, Schedule, SimConfig, SimResult, Task};
use adm_trace::json::{obj, Value};

/// Renders a simulated schedule as a trace snapshot: one lane per
/// simulated rank, one span per executed task, plus a root lane covering
/// the makespan. `--trace-out` exports this for the largest rank count so
/// the 256-rank schedule can be inspected in `about:tracing`.
fn sim_snapshot(p: usize, sim: &SimResult) -> adm_trace::TraceSnapshot {
    use adm_trace::{Span, TraceSnapshot, Track};
    let ns = |s: f64| (s * 1e9).round() as u64;
    let mut snap = TraceSnapshot {
        spans: Vec::new(),
        counters: std::collections::BTreeMap::new(),
        histograms: std::collections::BTreeMap::new(),
        track_names: std::collections::BTreeMap::new(),
    };
    snap.track_names
        .insert(Track::ROOT, format!("simulated schedule ({p} ranks)"));
    snap.spans.push(Span {
        name: "sim.makespan".into(),
        track: Track::ROOT,
        start_ns: 0,
        end_ns: ns(sim.makespan_s),
        depth: 0,
        parent: None,
        args: vec![],
    });
    if sim.setup_s > 0.0 {
        snap.spans.push(Span {
            name: "sim.tree_distribution".into(),
            track: Track::ROOT,
            start_ns: 0,
            end_ns: ns(sim.setup_s),
            depth: 1,
            parent: Some(0),
            args: vec![],
        });
    }
    for rank in 0..p {
        snap.track_names
            .insert(Track::rank(rank), format!("rank {rank}"));
    }
    for iv in &sim.intervals {
        snap.spans.push(Span {
            name: "sim.task".into(),
            track: Track::rank(iv.rank),
            start_ns: ns(iv.start_s),
            end_ns: ns(iv.end_s),
            depth: 0,
            parent: None,
            args: vec![],
        });
    }
    snap.counters.insert("sim.steals".into(), sim.steals as u64);
    snap.counters.insert("sim.denies".into(), sim.denies as u64);
    snap
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let points = get("--points", 120);
    let subdomains = get("--subdomains", 512);
    // --scale-costs F multiplies every measured task cost and payload by
    // F, modeling the paper's workload size (172.8M triangles) with this
    // host's measured cost *distribution*.
    let scale = get("--scale-costs", 1) as f64;
    let schedule = if args.iter().any(|a| a == "--schedule") && args.iter().any(|a| a == "fifo") {
        Schedule::Fifo
    } else {
        Schedule::LargestFirst
    };

    let sharded = args.iter().any(|a| a == "--sharded");

    eprintln!("[fig11/12] meshing once to measure task costs ...");
    let mut config = scaling_config(points, subdomains);
    let shard_dir = std::env::temp_dir().join(format!("adm-fig11-shards-{}", std::process::id()));
    if sharded {
        let _ = std::fs::remove_dir_all(&shard_dir);
        config.shard_out = Some(shard_dir.clone());
    }
    let result = generate(&config);
    eprintln!(
        "[fig11/12] mesh: {} triangles, {} vertices ({} tasks)",
        result.stats.total_triangles,
        result.stats.total_vertices,
        result.log.parallel_tasks().len()
    );

    let tasks: Vec<Task> = result
        .log
        .parallel_tasks()
        .iter()
        .map(|r| Task {
            cost_s: r.cost_s.max(1e-7) * scale,
            bytes: (r.bytes.max(64) as f64 * scale) as u64,
        })
        .collect();
    // Stage bucketing (see DESIGN.md):
    //  * per-subdomain tasks      -> simulated with the LB protocol;
    //  * boundary-layer build     -> parallel over ranks (each process
    //    owns a slice of the surface, paper SII.B): bl_s / p;
    //  * decomposition/decoupling -> modeled by the simulator's tree-
    //    distribution setup phase (measured time informs its constant);
    //  * merge                    -> tree-parallel reduction over the
    //    task tree: `p` ranks absorb pairs concurrently, bounded below
    //    by the critical path (ceil(log2(T+1)) absorbs of ~merge_s/T
    //    each over T merged meshes);
    //  * anything else            -> serial (Amdahl term).
    let serial_s = result.log.total_s(TaskKind::Serial) * scale;
    let bl_s = result.log.total_s(TaskKind::BlBuild) * scale;
    let decompose_s = result.log.total_s(TaskKind::Decompose) * scale;
    let merge_s = result.log.total_s(TaskKind::Merge) * scale;
    // Meshes entering the merge reduction: every refined subdomain plus
    // the reassembled boundary-layer mesh.
    let merged_meshes = result
        .log
        .parallel_tasks()
        .iter()
        .filter(|r| r.kind != TaskKind::BlTriangulate)
        .count()
        .max(1)
        + 1;
    let merge_depth = ((merged_meshes + 1) as f64).log2().ceil();
    let merge_critical_s = merge_s * merge_depth / merged_meshes as f64;
    let merge_tree_s = |p: usize| -> f64 { (merge_s / p as f64).max(merge_critical_s) };
    // Measured wall time of the sharded output phase (zero unless
    // --sharded): read back from the pipeline trace.
    let shard_write_s = result
        .trace
        .snapshot()
        .spans
        .iter()
        .filter(|s| s.name == "phase.shard_write")
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum::<f64>()
        * scale;
    if sharded {
        let _ = std::fs::remove_dir_all(&shard_dir);
    }
    let task_s: f64 = tasks.iter().map(|t| t.cost_s).sum();
    let sequential_s = serial_s + bl_s + task_s + merge_s;
    let amdahl = serial_s / sequential_s;
    eprintln!(
        "[fig11/12] sequential {sequential_s:.3}s ({} tasks {task_s:.3}s, bl {bl_s:.3}s, decompose {decompose_s:.3}s, merge {merge_s:.3}s over {merged_meshes} meshes, serial fraction {:.2}%)",
        tasks.len(),
        100.0 * amdahl
    );
    if sharded {
        eprintln!(
            "[fig11/12] sharded output: {shard_write_s:.4}s shard write charged at /p; merge {merge_s:.3}s measured but deferred to shard-cat"
        );
    }

    // Granularity diagnostics: strong scaling is bounded by the largest
    // indivisible task.
    {
        let mut by_cost = result.log.parallel_tasks();
        by_cost.sort_by(|a, b| b.cost_s.total_cmp(&a.cost_s));
        for r in by_cost.iter().take(5) {
            eprintln!(
                "[fig11/12]   top task: {:?} {:.4}s ({} tris)",
                r.kind, r.cost_s, r.triangles
            );
        }
    }

    let cfg = SimConfig {
        link: LinkModel::fdr_infiniband(),
        schedule,
        ..Default::default()
    };
    // Calibrate the tree split constant from the measured decomposition:
    // the sequential decomposition touched the full payload ~log2(leaves)
    // times.
    let total_bytes: f64 = tasks.iter().map(|t| t.bytes as f64).sum();
    let levels = (tasks.len() as f64).log2().max(1.0);
    let dist = InitialDist::Tree {
        split_cost_s_per_byte: (decompose_s / (total_bytes * levels)).max(1e-12),
    };

    let mut speedup = Series::new("speedup");
    let mut efficiency = Series::new("efficiency");
    let mut largest_sim: Option<(usize, SimResult)> = None;
    println!("ranks  makespan(s)  speedup  efficiency  steals");
    for p in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let sim = simulate(p, &tasks, dist, &cfg);
        // Serial remainder runs once; the boundary-layer build is evenly
        // parallel over ranks. Classic mode pays the merge (a tree
        // reduction capped by its critical path); sharded mode pays the
        // per-rank shard write instead and never merges.
        let tail = if sharded {
            shard_write_s / p as f64
        } else {
            merge_tree_s(p)
        };
        let wall = serial_s + bl_s / p as f64 + sim.makespan_s + tail;
        let s = sequential_s / wall;
        let e = s / p as f64;
        println!(
            "{p:>5}  {wall:>11.4}  {s:>7.2}  {:>9.1}%  {:>6}",
            100.0 * e,
            sim.steals
        );
        speedup.push(p as f64, s);
        efficiency.push(p as f64, e);
        largest_sim = Some((p, sim));
    }
    if let Some((p, sim)) = &largest_sim {
        maybe_write_snapshot_trace(&sim_snapshot(*p, sim)).expect("write trace");
    }

    let report = obj! {
        "mesh_triangles": result.stats.total_triangles,
        "tasks": tasks.len(),
        "serial_fraction": amdahl,
        "sequential_s": sequential_s,
        // Measured merge time (tree-parallel in the modeled wall clock;
        // measured but NOT charged in `sharded` mode).
        "merge_s": merge_s,
        // `merged` (classic single-mesh output) or `sharded` (distributed
        // per-task shards, merge deferred to offline reconstruction).
        "mode": if sharded { "sharded" } else { "merged" },
        // Measured wall time of the shard write (0 in `merged` mode);
        // charged as `shard_write_s / p` in the modeled wall clock.
        "shard_write_s": shard_write_s,
        "schedule": format!("{schedule:?}"),
        "speedup": &speedup,
        "efficiency": &efficiency,
        // Trace-derived per-phase breakdown of the measured sequential run.
        "trace_phases": Value::arr(&result.trace.phase_totals()),
        "paper_reference": "Fig 11: speedup ~180 at 256 ranks; Fig 12: ~80% at 128, ~70% at 256",
    };
    let path = write_json(
        &format!(
            "fig11_12_scaling{}{}{}",
            if sharded { "_sharded" } else { "" },
            if schedule == Schedule::Fifo {
                "_fifo"
            } else {
                ""
            },
            if scale > 1.0 { "_paperscale" } else { "" }
        ),
        &report,
    )
    .expect("write report");
    eprintln!("[fig11/12] wrote {}", path.display());
}
