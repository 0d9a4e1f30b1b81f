//! Constrained-Delaunay and Ruppert-refinement benchmarks.

use adm_delaunay::cdt::{carve, constrained_delaunay, insert_constraint};
use adm_delaunay::refine::{refine, RefineParams};
use adm_geom::point::Point2;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};

fn bench_refine(c: &mut Criterion) {
    let mut g = c.benchmark_group("ruppert");
    for max_area in [1e-3f64, 2.5e-4] {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        let segments = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let params = RefineParams {
            max_area: Some(max_area),
            ..Default::default()
        };
        g.bench_function(format!("unit_square_area_{max_area:.0e}"), |b| {
            b.iter(|| {
                let (mut mesh, _) = constrained_delaunay(&pts, &segments, false).unwrap();
                carve(&mut mesh, &[]);
                refine(&mut mesh, None, &params);
                std::hint::black_box(mesh.num_triangles())
            })
        });
    }
    g.finish();
}

fn bench_constraint_insertion(c: &mut Criterion) {
    // Long constraints through a dense random cloud.
    let mut r = rand::rngs::StdRng::seed_from_u64(3);
    let mut pts = vec![
        Point2::new(0.0, 0.0),
        Point2::new(10.0, 0.0),
        Point2::new(10.0, 10.0),
        Point2::new(0.0, 10.0),
    ];
    for _ in 0..5_000 {
        pts.push(Point2::new(r.gen_range(0.1..9.9), r.gen_range(0.1..9.9)));
    }
    c.bench_function("cdt_insert_corner_to_corner", |b| {
        b.iter(|| {
            let (mut mesh, map) = constrained_delaunay(&pts, &[], false).unwrap();
            insert_constraint(&mut mesh, map[0], map[2]).unwrap();
            std::hint::black_box(mesh.num_triangles())
        })
    });
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
    targets = bench_refine, bench_constraint_insertion
}
criterion_main!(benches);
