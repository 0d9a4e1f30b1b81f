//! Determinism contract of the adaptation loop.
//!
//! Every cycle of `adapt` must be exactly reproducible: rerunning the
//! loop gives the same per-cycle mesh and metric digests, the serial and
//! N-rank drivers agree cycle by cycle, and a fault-injected simulated
//! transport changes nothing. These are the same oracles the one-shot
//! pipeline pins, extended across cycles — the metric handed to cycle
//! `k+1` is a deterministic function of cycle `k`'s (schedule-free)
//! mesh, so the whole loop inherits the invariant.

use adm_core::adapt::adapt_with_runner;
use adm_core::{
    adapt, generate_on, generate_staged_with_pool, AdaptOptions, AnchorSet, Executor, MeshConfig,
};
use adm_geom::point::Point2;
use adm_mpirt::{BalancerConfig, FaultPlan, Pool, SimTransport, Transport};
use std::sync::Arc;

fn coarse_config() -> MeshConfig {
    let mut c = MeshConfig::naca0012(24);
    c.sizing_max_area = 6.0;
    c.bl_subdomains = 4;
    c.inviscid_subdomains = 4;
    c.merge_threads = 0;
    c
}

fn two_cycles(ranks: usize) -> AdaptOptions {
    AdaptOptions {
        cycles: 2,
        ranks,
        ..Default::default()
    }
}

/// Per-cycle (mesh, metric) digest pairs of one run.
fn cycle_digests(config: &MeshConfig, opts: &AdaptOptions) -> Vec<(String, String)> {
    adapt(config, opts)
        .cycles
        .iter()
        .map(|c| (c.mesh_digest.clone(), c.metric_digest.clone()))
        .collect()
}

#[test]
fn adapt_rerun_is_digest_identical() {
    let config = coarse_config();
    let a = cycle_digests(&config, &two_cycles(1));
    let b = cycle_digests(&config, &two_cycles(1));
    assert_eq!(a.len(), 2);
    assert_eq!(a, b, "rerun diverged");
}

#[test]
fn adapt_serial_matches_two_ranks_every_cycle() {
    let config = coarse_config();
    let serial = cycle_digests(&config, &two_cycles(1));
    let parallel = cycle_digests(&config, &two_cycles(2));
    assert_eq!(serial, parallel, "serial vs 2-rank cycle digests diverged");
}

#[test]
fn adapt_is_schedule_independent_under_sim_transport() {
    let config = coarse_config();
    let serial = cycle_digests(&config, &two_cycles(1));
    for (seed, ranks) in [(11u64, 2usize), (12, 3)] {
        let opts = two_cycles(1);
        let out = adapt_with_runner(&config, &opts, &mut |cfg, pre| {
            let sim = SimTransport::new(ranks, FaultPlan::chaos(seed));
            let transport: Arc<dyn Transport> = Arc::new(sim);
            let executor = Executor::Ranks(transport, BalancerConfig::default());
            generate_on(cfg, Some(pre), executor, &Pool::new(0))
        });
        let got: Vec<(String, String)> = out
            .cycles
            .iter()
            .map(|c| (c.mesh_digest.clone(), c.metric_digest.clone()))
            .collect();
        assert_eq!(
            got, serial,
            "sim transport [seed {seed}, ranks {ranks}] diverged"
        );
    }
}

#[test]
fn staged_prelude_path_matches_plain_generate() {
    // The refactor seam itself: the staged entry point over a prebuilt
    // prelude must be byte-identical to the one-shot pipeline.
    let config = coarse_config();
    let plain = adm_core::adapt::mesh_digest_hex(&adm_core::generate(&config).mesh);
    let pre = adm_core::build_prelude(&config);
    let pool = Pool::new(config.merge_threads);
    let staged = generate_staged_with_pool(&config, Some(&pre), &pool);
    let staged = adm_core::adapt::mesh_digest_hex(&staged.mesh);
    assert_eq!(plain, staged);
}

#[test]
fn anchor_set_pruned_limit_matches_brute_force_bitwise() {
    // The anchor-reuse fast path must compute the *same bits* as the
    // plain quadratic Lipschitz pass, for any anchor cloud and values.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for n in [1usize, 2, 17, 128] {
        let pts: Vec<Point2> = (0..n)
            .map(|_| Point2::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
            .collect();
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..5.0)).collect();
        for g in [0.05, 0.25, 2.0] {
            let set = AnchorSet::new(&pts);
            let fast = set.limit(&values, g);
            let brute: Vec<f64> = (0..n)
                .map(|i| {
                    let mut best = values[i];
                    for (j, &v) in values.iter().enumerate() {
                        let bound = v + g * pts[i].distance(pts[j]);
                        if bound < best {
                            best = bound;
                        }
                    }
                    best
                })
                .collect();
            let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
            let brute_bits: Vec<u64> = brute.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, brute_bits, "n={n} g={g}");
        }
    }
}
