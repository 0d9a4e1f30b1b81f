//! Adaptation-loop benchmarks.
//!
//! `adapt/cycle_naca16` times one full solve → estimate → remesh cycle
//! (the unit of work the adaptation driver repeats), pinned by
//! `bench_results/adapt_baseline.json` in CI. The `sizing/gradation_*`
//! pair isolates the anchor-reuse optimization: a fresh
//! `GradationLimited::new` pays the `O(n² log n)` distance-table build
//! on every construction, while `with_anchor_set` over a shared
//! `AnchorSet` pays only the pruned limiting pass — the difference is
//! what every adaptation cycle after the first saves.
//!
//! Cycle 0 meshes without a metric, so `adapt/cycle_naca16` never asks
//! one. `adapt/two_cycles_naca16` adds the metric-driven second cycle,
//! and `sizing/metric_at_recovered` isolates its sizing query: the field
//! `hessian_metric` recovers from the cycle-0 mesh, asked at that mesh's
//! triangle centroids — the clustered query pattern of refinement, where
//! most samples share a few cells of the field's grid.

use adm_core::{adapt, AdaptOptions, AnchorSet, GradationLimited, MeshConfig, UniformH};
use adm_geom::point::Point2;
use adm_solver::{hessian_metric, solve_potential_flow, FlowConditions, MetricParams};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn naca16() -> MeshConfig {
    let mut config = MeshConfig::naca0012(16);
    config.sizing_max_area = 6.0;
    config.bl_subdomains = 4;
    config.inviscid_subdomains = 4;
    config.merge_threads = 0;
    config
}

fn bench_adapt_cycle(c: &mut Criterion) {
    let config = naca16();
    for (id, cycles) in [("adapt/cycle_naca16", 1), ("adapt/two_cycles_naca16", 2)] {
        let opts = AdaptOptions {
            cycles,
            ..Default::default()
        };
        c.bench_function(id, |b| {
            b.iter(|| {
                let out = adapt(&config, &opts);
                std::hint::black_box(out.cycles.last().unwrap().error_total)
            })
        });
    }
}

fn bench_recovered_metric(c: &mut Criterion) {
    let opts = AdaptOptions {
        cycles: 1,
        ..Default::default()
    };
    let mesh = adapt(&naca16(), &opts).mesh;
    let flow = solve_potential_flow(&mesh, &FlowConditions::default());
    let field = hessian_metric(&mesh, &flow.psi, &MetricParams::default());
    let centroids: Vec<Point2> = mesh
        .live_triangles()
        .map(|t| {
            let [a, b, c] = mesh.tri(t as usize).map(|v| mesh.vertex(v as usize));
            Point2::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)
        })
        .collect();
    c.bench_function("sizing/metric_at_recovered", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for &q in &centroids {
                sum += field.metric_at(q).a;
            }
            std::hint::black_box(sum)
        })
    });
}

fn bench_gradation_reuse(c: &mut Criterion) {
    const N: usize = 512;
    let mut r = rand::rngs::StdRng::seed_from_u64(42);
    let pts: Vec<Point2> = (0..N)
        .map(|_| Point2::new(r.gen_range(-4.0..4.0), r.gen_range(-4.0..4.0)))
        .collect();
    let base = UniformH(0.35);

    let mut g = c.benchmark_group("sizing");
    g.bench_function(format!("gradation_fresh_{N}"), |b| {
        b.iter(|| {
            let lim = GradationLimited::new(base, &pts, 0.25);
            std::hint::black_box(lim)
        })
    });
    let shared = Arc::new(AnchorSet::new(&pts));
    g.bench_function(format!("gradation_reuse_{N}"), |b| {
        b.iter(|| {
            let lim = GradationLimited::with_anchor_set(base, shared.clone(), 0.25);
            std::hint::black_box(lim)
        })
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(2500))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_adapt_cycle, bench_recovered_metric, bench_gradation_reuse
}
criterion_main!(benches);
