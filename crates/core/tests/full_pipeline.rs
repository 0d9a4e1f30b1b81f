//! End-to-end pipeline tests: the push-button promise.

use adm_core::{
    generate, generate_on, generate_parallel, generate_undecomposed, mesh_digest_hex, Executor,
    MeshConfig, PipelineStats, SizingFn, TaskKind,
};
use adm_delaunay::quality::mesh_quality;
use adm_mpirt::Pool;
use adm_trace::Track;

fn small_naca_config() -> MeshConfig {
    let mut c = MeshConfig::naca0012(40);
    c.sizing_max_area = 2.0;
    c.bl_subdomains = 8;
    c.inviscid_subdomains = 8;
    c
}

#[test]
fn naca0012_pipeline_end_to_end() {
    let config = small_naca_config();
    let out = generate(&config);
    let mesh = &out.mesh;
    mesh.check_consistency();
    assert!(out.stats.total_triangles > 5_000, "{:?}", out.stats);
    assert_eq!(
        out.stats.total_triangles,
        out.stats.bl_triangles + out.stats.inviscid_triangles
    );
    // Conforming decoupling: no shared border was split.
    assert_eq!(out.stats.border_splits, 0, "decoupling contract violated");
    let q = mesh_quality(mesh);
    assert!(q.min_angle > 0.0);
    assert!(q.triangles == out.stats.total_triangles);
    let tasks = out.log.parallel_tasks();
    assert!(tasks.len() >= 9, "only {} parallel tasks", tasks.len());
}

/// The modeled serial term is the driver's setup phase without the
/// boundary-layer build nested in it: positive, and never counting the
/// build's time twice.
#[test]
fn serial_term_is_the_setup_phase_without_the_bl_build() {
    let out = generate(&small_naca_config());
    let serial = out.log.total_s(TaskKind::Serial);
    let bl = out.log.total_s(TaskKind::BlBuild);
    let setup: f64 = out
        .trace
        .snapshot()
        .spans
        .iter()
        .filter(|s| s.name == "phase.setup")
        .map(|s| s.duration().as_secs_f64())
        .sum();
    assert!(serial > 0.0, "no serial time recorded");
    assert!(bl > 0.0, "no boundary-layer build recorded");
    // 1 ns of slack for the seconds conversion's rounding.
    assert!(
        serial + bl <= setup + 1e-9,
        "serial {serial} + bl {bl} > setup {setup}"
    );
}

#[test]
fn parallel_run_matches_sequential_mesh() {
    let config = small_naca_config();
    let seq = generate(&config);
    for ranks in [1usize, 2] {
        let par = generate_parallel(&config, ranks);
        assert_eq!(
            par.stats.total_triangles, seq.stats.total_triangles,
            "rank count {ranks}: triangle count differs"
        );
        assert_eq!(par.stats.total_vertices, seq.stats.total_vertices);
        let canon = |mesh: &adm_delaunay::Mesh| -> Vec<Vec<(u64, u64)>> {
            let mut v: Vec<Vec<(u64, u64)>> = mesh
                .live_triangles()
                .map(|t| {
                    let tri = mesh.tri(t as usize);
                    let mut c: Vec<(u64, u64)> = tri
                        .iter()
                        .map(|&i| {
                            let p = mesh.vertex(i as usize);
                            (p.x.to_bits(), p.y.to_bits())
                        })
                        .collect();
                    c.sort_unstable();
                    c
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&par.mesh), canon(&seq.mesh), "rank count {ranks}");
    }
}

/// The pool and the rank executor run the same task tree through the
/// same assembly, so every aggregate agrees — not only the mesh. The
/// extra sizing channel makes the near-body refinement split
/// boundary-layer border segments, so the split count and its repair by
/// interface propagation are exercised rather than trivially zero.
#[test]
fn sequential_and_one_rank_report_equal_stats() {
    let mut config = small_naca_config();
    /// Fine near the chord line, graded away from it.
    struct NearChord;
    impl SizingFn for NearChord {
        fn h(&self, p: adm_geom::Point2) -> f64 {
            let d = (p.x - p.x.clamp(0.0, 1.0)).hypot(p.y);
            0.008 + 0.5 * (d - 0.08).max(0.0)
        }
    }
    config.extra_sizing = Some(std::sync::Arc::new(NearChord));
    let plain = generate(&small_naca_config()).stats;
    let seq = generate(&config).stats;
    assert!(
        seq.bl_triangles > plain.bl_triangles,
        "the extra channel must force propagated border splits"
    );
    let par = generate_parallel(&config, 1).stats;
    assert_eq!(
        PipelineStats {
            total_s: 0.0,
            ..seq
        },
        PipelineStats {
            total_s: 0.0,
            ..par
        }
    );
}

/// The pool executor forks the task tree on the caller's pool: the width
/// decides who runs a task, never what comes out — mesh, stats, task
/// count and every byte of the shard set.
#[test]
fn pool_width_changes_no_output() {
    let root = std::env::temp_dir().join(format!("adm-pool-widths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let run = |width: usize| {
        let dir = root.join(width.to_string());
        let mut config = small_naca_config();
        config.shard_out = Some(dir.clone());
        let out = generate_on(&config, None, Executor::Pool, &Pool::new(width));
        let mut files: Vec<(std::path::PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("shard directory written")
            .map(|entry| entry.unwrap().path())
            .map(|path| {
                (
                    path.file_name().unwrap().into(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect();
        files.sort();
        let stats = PipelineStats {
            total_s: 0.0,
            ..out.stats
        };
        let tasks = out.log.parallel_tasks().len();
        ((mesh_digest_hex(&out.mesh), stats, tasks), files, out.trace)
    };
    let (want, want_files, _) = run(0);
    assert!(want_files.len() > 3, "no shard set to compare");
    for width in [1usize, 2, 8] {
        let (got, files, trace) = run(width);
        assert_eq!(got, want, "width {width}");
        assert!(files == want_files, "shard set differs at width {width}");
        if width != 2 {
            continue;
        }
        // Lanes: tasks that ran on a worker recorded on that worker's
        // lane, every span lies inside the span that was innermost on
        // its lane when it opened, and the driver's phases still cover
        // the root span.
        let spans = trace.snapshot().spans;
        let on_worker = |s: &adm_trace::Span| s.name.starts_with("task.") && s.track != Track::ROOT;
        assert!(spans.iter().any(on_worker), "no task ran on a worker");
        for s in &spans {
            assert!(s.closed(), "{} left open", s.name);
            if let Some(p) = s.parent.map(|p| &spans[p]) {
                let inside = p.start_ns <= s.start_ns && s.end_ns <= p.end_ns;
                assert!(
                    p.track == s.track && inside,
                    "{} escapes {}",
                    s.name,
                    p.name
                );
            }
        }
        let root = spans.iter().position(|s| s.name == "pipeline").unwrap();
        let phases = spans.iter().filter(|s| s.parent == Some(root));
        let covered: f64 = phases.map(|s| s.duration().as_secs_f64()).sum();
        assert!(covered >= 0.95 * spans[root].duration().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The refinement work counters belong to the task tree, not to the
/// schedule: each repeats exactly at every pool width and on two ranks.
#[test]
fn refine_counters_repeat_at_every_width_and_on_two_ranks() {
    let names = [
        "refine.sizing_evals",
        "refine.stale_pops",
        "refine.cavity_tris",
    ];
    let counts = |out: adm_core::PipelineResult| names.map(|n| out.trace.counter(n));
    let mut config = small_naca_config();
    config.merge_threads = 0;
    let want = counts(generate(&config));
    assert!(want.iter().all(|&c| c > 0), "{names:?} = {want:?}");
    for width in [2, 8] {
        config.merge_threads = width;
        assert_eq!(counts(generate(&config)), want, "width {width}");
    }
    assert_eq!(counts(generate_parallel(&config, 2)), want, "2 ranks");
}

/// The "plain Triangle" baseline meshes the same domain through the
/// same assembly: same boundary-layer mesh, same covered area, no
/// decoupling borders inside the inviscid region.
#[test]
fn undecomposed_baseline_covers_the_same_domain() {
    let config = small_naca_config();
    let pipe = generate(&config);
    let base = generate_undecomposed(&config);
    base.mesh.check_consistency();
    assert_eq!(base.stats.bl_points, pipe.stats.bl_points);
    assert_eq!(base.stats.bl_triangles, pipe.stats.bl_triangles);
    assert_eq!(base.stats.border_splits, 0);
    let (a, b) = (mesh_quality(&base.mesh), mesh_quality(&pipe.mesh));
    assert!((a.total_area - b.total_area).abs() < 1e-6 * b.total_area);
    assert_eq!(base.log.parallel_tasks().len(), 2, "one leaf, one region");
}

#[test]
fn three_element_pipeline_end_to_end() {
    let mut config = MeshConfig::three_element(36);
    config.sizing_max_area = 2.0;
    config.bl_subdomains = 8;
    config.inviscid_subdomains = 8;
    let out = generate(&config);
    out.mesh.check_consistency();
    assert!(out.stats.total_triangles > 8_000, "{:?}", out.stats);
    assert_eq!(out.stats.border_splits, 0);
    for l in &config.pslg.loops {
        for t in out.mesh.live_triangles() {
            let tri = out.mesh.tri(t as usize);
            let c = adm_geom::Point2::new(
                (out.mesh.vertex(tri[0] as usize).x
                    + out.mesh.vertex(tri[1] as usize).x
                    + out.mesh.vertex(tri[2] as usize).x)
                    / 3.0,
                (out.mesh.vertex(tri[0] as usize).y
                    + out.mesh.vertex(tri[1] as usize).y
                    + out.mesh.vertex(tri[2] as usize).y)
                    / 3.0,
            );
            assert!(
                !adm_geom::polygon::contains_point(&l.points, c),
                "triangle inside element {}",
                l.name
            );
        }
    }
}

#[test]
fn polynomial_growth_law_works_end_to_end() {
    let mut config = small_naca_config();
    config.growth = adm_blayer::GrowthSpec::Polynomial {
        first_height: 3e-4,
        exponent: 1.6,
    };
    let out = generate(&config);
    out.mesh.check_consistency();
    assert!(out.stats.total_triangles > 4_000);
    assert_eq!(out.stats.border_splits, 0);
}

#[test]
fn capped_growth_law_works_end_to_end() {
    let mut config = small_naca_config();
    config.growth = adm_blayer::GrowthSpec::CappedGeometric {
        first_height: 2e-4,
        ratio: 1.4,
        max_thickness: 4e-3,
    };
    let out = generate(&config);
    out.mesh.check_consistency();
    assert!(out.stats.total_triangles > 4_000);
    assert_eq!(out.stats.border_splits, 0);
}
