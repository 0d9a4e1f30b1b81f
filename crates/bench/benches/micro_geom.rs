//! Geometry micro-benchmarks, including ablation A1:
//! alternating-digital-tree pruning vs brute-force segment intersection.

use adm_geom::aabb::Aabb;
use adm_geom::adt::Adt;
use adm_geom::hull::lower_hull_indices_sorted;
use adm_geom::point::Point2;
use adm_geom::predicates::{incircle, orient2d};
use adm_geom::segment::Segment;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(42)
}

fn bench_predicates(c: &mut Criterion) {
    let mut g = c.benchmark_group("predicates");
    let mut r = rng();
    let pts: Vec<Point2> = (0..4096)
        .map(|_| Point2::new(r.gen_range(-1.0..1.0), r.gen_range(-1.0..1.0)))
        .collect();
    g.bench_function("orient2d_generic", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 3) % (pts.len() - 2);
            std::hint::black_box(orient2d(pts[i], pts[i + 1], pts[i + 2]))
        })
    });
    // Near-collinear points force the exact fallback.
    let a = Point2::new(0.5, 0.5);
    let bpt = Point2::new(12.0, 12.0);
    let cpt = Point2::new(24.0, 24.0);
    g.bench_function("orient2d_exact_fallback", |b| {
        b.iter(|| std::hint::black_box(orient2d(a, bpt, cpt)))
    });
    g.bench_function("incircle_generic", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 4) % (pts.len() - 3);
            std::hint::black_box(incircle(pts[i], pts[i + 1], pts[i + 2], pts[i + 3]))
        })
    });
    // Cocircular points force the exact fallback.
    let (ca, cb, cc2, cd) = (
        Point2::new(-1.0, -1.0),
        Point2::new(1.0, -1.0),
        Point2::new(1.0, 1.0),
        Point2::new(-1.0, 1.0),
    );
    g.bench_function("incircle_exact_fallback", |b| {
        b.iter(|| std::hint::black_box(incircle(ca, cb, cc2, cd)))
    });
    // A float rectangle: exactly cocircular, but its coordinate
    // differences round, so every filter fails and the call runs stage D
    // (the integer square above stops at stage B).
    let rect = [(0.1, 0.3), (0.7, 0.3), (0.7, 1.9), (0.1, 1.9)].map(|(x, y)| Point2::new(x, y));
    g.bench_function("incircle_inexact_cocircular", |b| {
        b.iter(|| {
            let [ra, rb, rc, rd] = std::hint::black_box(rect);
            std::hint::black_box(incircle(ra, rb, rc, rd))
        })
    });
    g.finish();
}

fn bench_hull(c: &mut Criterion) {
    let mut r = rng();
    let mut pts: Vec<Point2> = (0..10_000)
        .map(|_| Point2::new(r.gen_range(-1.0..1.0), r.gen_range(-1.0..1.0)))
        .collect();
    pts.sort_by(|a, b| a.lex_cmp(*b));
    c.bench_function("lower_hull_10k_sorted", |b| {
        b.iter(|| std::hint::black_box(lower_hull_indices_sorted(&pts)))
    });
}

/// Ablation A1 (paper §II.B): hierarchical ADT pruning vs brute-force
/// pairwise intersection over n rays.
fn bench_adt_vs_brute(c: &mut Criterion) {
    let mut g = c.benchmark_group("intersection_search");
    for n in [200usize, 1000, 4000] {
        let mut r = rng();
        let segs: Vec<Segment> = (0..n)
            .map(|_| {
                let a = Point2::new(r.gen_range(-10.0..10.0), r.gen_range(-10.0..10.0));
                let d = Point2::new(a.x + r.gen_range(-0.3..0.3), a.y + r.gen_range(-0.3..0.3));
                Segment::new(a, d)
            })
            .collect();
        let domain = Aabb::new(Point2::new(-10.5, -10.5), Point2::new(10.5, 10.5));
        g.bench_function(format!("adt_{n}"), |b| {
            b.iter_batched(
                || {
                    let mut adt = Adt::for_domain(&domain);
                    for (i, s) in segs.iter().enumerate() {
                        adt.insert_segment(s, i);
                    }
                    adt
                },
                |adt| {
                    let mut hits = Vec::new();
                    let mut count = 0usize;
                    for s in &segs {
                        hits.clear();
                        adt.query_segment(s, &mut hits);
                        for &j in &hits {
                            if s.properly_intersects(&segs[j]) {
                                count += 1;
                            }
                        }
                    }
                    std::hint::black_box(count)
                },
                BatchSize::LargeInput,
            )
        });
        g.bench_function(format!("brute_{n}"), |b| {
            b.iter(|| {
                let mut count = 0usize;
                for i in 0..segs.len() {
                    for j in 0..segs.len() {
                        if i != j && segs[i].properly_intersects(&segs[j]) {
                            count += 1;
                        }
                    }
                }
                std::hint::black_box(count)
            })
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_predicates, bench_hull, bench_adt_vs_brute
}
criterion_main!(benches);
