//! Point-insertion kernel throughput.
//!
//! Exercises the zero-allocation insertion hot path in isolation:
//!
//! * `steady_state_50k`  — raw Bowyer-Watson inserts into a two-triangle,
//!   pre-reserved square (no location cold start): the purest measure of
//!   the cavity kernel.
//! * `ruppert_naca0012`  — Ruppert refinement of a fixed NACA 0012
//!   subdomain: split_edge + circumcenter inserts through the same kernel.
//! * `ruppert_graded_region` — one far-field rectangle with a marched
//!   border, refined against the pipeline's graded sizing field
//!   (`build_sizing`) through an `AreaFn` closure: the sizing queries of a
//!   decoupled leaf, most of them where the area cap applies.
//!
//! `bench_results/insert_kernel_baseline.json` holds the pre-optimization
//! numbers this suite is compared against.

use adm_airfoil::Naca4;
use adm_core::build_sizing;
use adm_decouple::{march_path, SizingFn};
use adm_delaunay::refine::{refine, RefineParams};
use adm_delaunay::{carve, constrained_delaunay, Mesh};
use adm_geom::point::Point2;
use adm_geom::pslg::Pslg;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};

fn random_cloud(n: usize, seed: u64) -> Vec<Point2> {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point2::new(r.gen_range(0.01..0.99), r.gen_range(0.01..0.99)))
        .collect()
}

fn bench_steady_state(c: &mut Criterion) {
    const N: usize = 50_000;
    // Lexicographic order gives the hint chain spatial locality, so the
    // point-location walk stays short and the cavity kernel dominates.
    let mut cloud = random_cloud(N, 42);
    cloud.sort_by(|a, b| (a.x, a.y).partial_cmp(&(b.x, b.y)).unwrap());
    let square = vec![
        Point2::new(0.0, 0.0),
        Point2::new(1.0, 0.0),
        Point2::new(1.0, 1.0),
        Point2::new(0.0, 1.0),
    ];
    c.bench_function("insert_kernel/steady_state_50k", |b| {
        b.iter(|| {
            let mut mesh = Mesh::from_triangles(square.clone(), vec![[0, 1, 2], [0, 2, 3]]);
            mesh.reserve(N, 2 * N + 64);
            let mut hint = mesh.any_triangle().unwrap();
            for &p in &cloud {
                let v = mesh.insert_point(p, hint).expect("interior");
                hint = mesh.triangle_of_vertex(v).unwrap_or(hint);
            }
            std::hint::black_box(mesh.num_triangles())
        })
    });
}

fn bench_ruppert_naca(c: &mut Criterion) {
    // Fixed NACA 0012 subdomain: the airfoil surface inside a tight box,
    // surface and box fully constrained, interior carved, then refined.
    let mut domain = Pslg::default();
    domain.push_loop(&[
        Point2::new(-0.5, -0.6),
        Point2::new(1.5, -0.6),
        Point2::new(1.5, 0.6),
        Point2::new(-0.5, 0.6),
    ]);
    domain.push_loop(&Naca4::naca0012().surface(100));
    let params = RefineParams {
        max_area: Some(2e-4),
        ..Default::default()
    };
    c.bench_function("insert_kernel/ruppert_naca0012", |b| {
        b.iter(|| {
            let (mut mesh, _) =
                constrained_delaunay(&domain.points, &domain.segments, false).unwrap();
            carve(&mut mesh, &[Point2::new(0.5, 0.0)]);
            refine(&mut mesh, None, &params);
            std::hint::black_box(mesh.num_triangles())
        })
    });
}

fn bench_ruppert_graded_region(c: &mut Criterion) {
    // The rate and area cap of the `inviscid_1m` workload (0.12, 0.005)
    // around a NACA 0012 body. The rectangle starts just behind the
    // trailing edge, so queries near it scan the body samples and the
    // rest of the rectangle is capped.
    let body = Naca4::naca0012().surface(120);
    let sizing = build_sizing(&[body], 0.0, 0.12, 0.005);
    let corners = [
        Point2::new(1.05, -3.0),
        Point2::new(7.05, -3.0),
        Point2::new(7.05, 3.0),
        Point2::new(1.05, 3.0),
    ];
    let mut border = Vec::new();
    for k in 0..4 {
        let side = march_path(corners[k], corners[(k + 1) % 4], &sizing);
        border.extend_from_slice(&side[..side.len() - 1]);
    }
    let mut domain = Pslg::default();
    domain.push_loop(&border);
    let area = |p: Point2| sizing.target_area(p);
    c.bench_function("insert_kernel/ruppert_graded_region", |b| {
        b.iter(|| {
            let (mut mesh, _) =
                constrained_delaunay(&domain.points, &domain.segments, false).unwrap();
            carve(&mut mesh, &[]);
            refine(&mut mesh, Some(&area), &RefineParams::default());
            std::hint::black_box(mesh.num_triangles())
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(2500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_steady_state, bench_ruppert_naca, bench_ruppert_graded_region
}
criterion_main!(benches);
