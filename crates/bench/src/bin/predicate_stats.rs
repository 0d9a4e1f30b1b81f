//! Predicate-ladder hit rates on the NACA workload.
//!
//! Runs the full single-rank pipeline (the fig-11 NACA 0012 domain at a
//! small sizing) with the `predicate-stats` counters enabled and reports,
//! per predicate, how the calls split across the batched stage-A filter
//! and the scalar ladder rungs. The headline numbers are the **batch
//! absorption** (fraction of all predicate evaluations that went through
//! the vectorizable batched filter) and the **batch fallback rate**
//! (fraction of batched lanes the stage-A error bound could not certify,
//! which therefore re-entered the scalar ladder).
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
    let (ob, ib) = stats::batch_snapshot();

    // Every scalar call lands on exactly one ladder rung; batch fallbacks
    // re-enter the scalar ladder, so subtract them to count the calls that
    // bypassed the batched filter entirely.
    let scalar_total: u64 = orient.iter().sum::<u64>() + incircle.iter().sum::<u64>();
    let batch_lanes = ob[0] + ib[0];
    let batch_fallbacks = ob[1] + ib[1];
    let direct_scalar = scalar_total - batch_fallbacks;
    let absorption = batch_lanes as f64 / (batch_lanes + direct_scalar) as f64;
    let fallback_rate = batch_fallbacks as f64 / batch_lanes.max(1) as f64;

    println!(
        "pipeline: {} triangles in {:.3}s",
        out.stats.total_triangles, out.stats.total_s
    );
    println!("orient2d  ladder [A,B,C,exact]: {orient:?}");
    println!("incircle  ladder [A,B,C,exact]: {incircle:?}");
    println!("orient2d  batch lanes {} (fallback {})", ob[0], ob[1]);
    println!("incircle  batch lanes {} (fallback {})", ib[0], ib[1]);
    println!(
        "batch absorption {:.1}%  fallback rate {:.3}%",
        100.0 * absorption,
        100.0 * fallback_rate
    );

    let report = obj! {
        // Scalar ladder rungs `[stage_a, stage_b, stage_c, exact]`.
        "orient2d_ladder": Value::arr(orient),
        "incircle_ladder": Value::arr(incircle),
        // Batched lanes and how many fell back to the scalar ladder.
        "orient2d_batch": ob[0],
        "orient2d_batch_fallback": ob[1],
        "incircle_batch": ib[0],
        "incircle_batch_fallback": ib[1],
        // batch_lanes / (batch_lanes + direct scalar calls).
        "batch_absorption": absorption,
        // batch_fallbacks / batch_lanes.
        "batch_fallback_rate": fallback_rate,
        "workload": "naca0012(96) sizing 0.5, 8/8 subdomains, single rank",
    };
    let path = write_json("predicate_stats", &report).expect("write report");
    eprintln!("[predicate_stats] wrote {}", path.display());
}
