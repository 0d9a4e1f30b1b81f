//! Predicate-ladder hit rates on the NACA workload.
//!
//! Runs the full single-rank pipeline (the fig-11 NACA 0012 domain at a
//! small sizing) with the `predicate-stats` counters enabled and reports,
//! per predicate, how many calls each rung of the adaptive ladder settled
//! (stage A, B, C or the exact stage D) and each rung's share of the calls.
//!
//! Build with `cargo run --release -p adm-bench --features predicate-stats
//! --bin predicate_stats`; without the feature it explains and exits 0 so
//! default builds stay green.

fn main() {
    #[cfg(not(feature = "predicate-stats"))]
    {
        eprintln!(
            "predicate_stats: rebuild with `--features predicate-stats` to enable the counters"
        );
    }
    #[cfg(feature = "predicate-stats")]
    run();
}

#[cfg(feature = "predicate-stats")]
fn run() {
    use adm_bench::write_json;
    use adm_core::{generate, MeshConfig};
    use adm_geom::predicates::stats;
    use adm_trace::json::{obj, Value};

    let mut config = MeshConfig::naca0012(96);
    config.sizing_max_area = 0.5;
    config.bl_subdomains = 8;
    config.inviscid_subdomains = 8;

    stats::reset();
    let out = generate(&config);
    let (orient, incircle) = stats::snapshot();

    // Every call lands on exactly one rung, so a rung's share is its count
    // over the predicate's call total.
    let shares = |rungs: [u64; 4]| {
        let calls = rungs.iter().sum::<u64>().max(1) as f64;
        rungs.map(|r| r as f64 / calls)
    };
    let (orient_share, incircle_share) = (shares(orient), shares(incircle));

    println!(
        "pipeline: {} triangles in {:.3}s",
        out.stats.total_triangles, out.stats.total_s
    );
    for (name, rungs, share) in [
        ("orient2d", orient, orient_share),
        ("incircle", incircle, incircle_share),
    ] {
        let pct = share.map(|f| format!("{:.4}%", 100.0 * f));
        println!("{name}  ladder [A,B,C,exact]: {rungs:?}  share {pct:?}");
    }

    let report = obj! {
        // Calls settled per rung, `[stage_a, stage_b, stage_c, exact]`.
        "orient2d_ladder": Value::arr(orient),
        "incircle_ladder": Value::arr(incircle),
        // Each rung's fraction of the predicate's calls.
        "orient2d_share": Value::arr(orient_share),
        "incircle_share": Value::arr(incircle_share),
        "workload": "naca0012(96) sizing 0.5, 8/8 subdomains, single rank",
    };
    let path = write_json("predicate_stats", &report).expect("write report");
    eprintln!("[predicate_stats] wrote {}", path.display());
}
