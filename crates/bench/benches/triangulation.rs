//! Triangulation benchmarks, including ablations A2 (maintained sort vs
//! re-sorting, the paper's §III Triangle modification) and A3 (cut-axis
//! selection by shortest bounding-box edge vs a fixed axis).

use adm_core::{build_prelude, MeshConfig};
use adm_delaunay::divconq::{delaunay_rec, prepare_input, triangulate_dc};
use adm_delaunay::quadedge::EdgePool;
use adm_geom::point::Point2;
use adm_partition::{decompose, triangulate_leaf, CutAxis, DecomposeParams, Subdomain};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};

fn random_points(n: usize, aspect: f64) -> Vec<Point2> {
    let mut r = rand::rngs::StdRng::seed_from_u64(7);
    (0..n)
        .map(|_| Point2::new(r.gen_range(0.0..aspect), r.gen_range(0.0..1.0)))
        .collect()
}

/// Ablation A2: the paper removes Triangle's input sort because the
/// decomposition maintains x-sorted vertices.
fn bench_sorted_input(c: &mut Criterion) {
    let mut g = c.benchmark_group("dc_triangulation");
    for n in [2_000usize, 20_000] {
        let mut pts = random_points(n, 1.0);
        g.bench_function(format!("unsorted_{n}"), |b| {
            b.iter(|| std::hint::black_box(triangulate_dc(&pts, false).triangles().len()))
        });
        pts.sort_by(|a, b| a.lex_cmp(*b));
        g.bench_function(format!("presorted_{n}"), |b| {
            b.iter(|| std::hint::black_box(triangulate_dc(&pts, true).triangles().len()))
        });
    }
    g.finish();
}

/// Ablation A3: cutting along the shortest bounding-box edge (the paper's
/// choice) vs always cutting vertically, on a strongly elongated cloud —
/// fixed vertical cuts produce long skinny subdomains whose triangulation
/// is more expensive.
fn bench_cut_axis(c: &mut Criterion) {
    let mut g = c.benchmark_group("cut_axis");
    // Tall skinny cloud (boundary-layer-like): height 20x width.
    let pts: Vec<Point2> = {
        let mut r = rand::rngs::StdRng::seed_from_u64(9);
        (0..20_000)
            .map(|_| Point2::new(r.gen_range(0.0..1.0), r.gen_range(0.0..20.0)))
            .collect()
    };
    let params = DecomposeParams {
        min_vertices: 64,
        max_level: 5,
    };
    g.bench_function("shortest_edge_cuts", |b| {
        b.iter(|| {
            let mut leaves = Vec::new();
            let mut stack = vec![Subdomain::root(&pts)];
            while let Some(mut s) = stack.pop() {
                if s.level >= params.max_level || s.len() < params.min_vertices {
                    leaves.push(s);
                    continue;
                }
                let axis = s.choose_cut_axis();
                let (lo, hi, _) = s.split(axis);
                stack.push(lo);
                stack.push(hi);
            }
            let tris: usize = leaves.iter().map(|l| triangulate_leaf(l).len()).sum();
            std::hint::black_box(tris)
        })
    });
    g.bench_function("fixed_vertical_cuts", |b| {
        b.iter(|| {
            let mut leaves = Vec::new();
            let mut stack = vec![Subdomain::root(&pts)];
            while let Some(mut s) = stack.pop() {
                if s.level >= params.max_level || s.len() < params.min_vertices {
                    leaves.push(s);
                    continue;
                }
                // Always a vertical median line (splits x), regardless of
                // the subdomain shape.
                let (lo, hi, _) = s.split(CutAxis::Y);
                stack.push(lo);
                stack.push(hi);
            }
            let tris: usize = leaves.iter().map(|l| triangulate_leaf(l).len()).sum();
            std::hint::black_box(tris)
        })
    });
    g.finish();
}

/// The construction engine, divide-and-conquer (Triangle's default), on
/// unsorted random input.
fn bench_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines");
    for n in [2_000usize, 20_000] {
        let pts = random_points(n, 1.0);
        g.bench_function(format!("divide_conquer_{n}"), |b| {
            b.iter(|| std::hint::black_box(triangulate_dc(&pts, false).triangles().len()))
        });
    }
    g.finish();
}

/// The divide-and-conquer kernel alone (`delaunay_rec`, no input
/// preparation or triangle filter) over the 64 boundary-layer leaves of
/// the `bl_heavy` benchmark workload: the three-element case at 1,200
/// points per side under a `1e-5`, `1.08` geometric layer. Its float
/// rectangles and trapezoids are exactly cocircular, so about half of the
/// `incircle` calls the stage-A filter cannot settle run stage D.
fn bench_bl_heavy_leaves(c: &mut Criterion) {
    let mut config = MeshConfig::three_element(1200);
    config.growth = adm_blayer::Geometric::new(1e-5, 1.08).into();
    let pre = build_prelude(&config);
    let root = Subdomain::root_with_ids(&pre.cloud, &pre.cloud_ids);
    let leaves = decompose(root, &DecomposeParams::for_subdomain_count(64)).leaves;
    let inputs: Vec<Vec<Point2>> = leaves
        .iter()
        .map(|l| {
            let pts: Vec<Point2> = l.x_sorted.iter().map(|v| v.pos).collect();
            prepare_input(&pts, true).0
        })
        .collect();
    let mut g = c.benchmark_group("triangulation");
    g.bench_function("dc_bl_heavy_leaves", |b| {
        b.iter(|| {
            for pts in &inputs {
                let mut pool = EdgePool::with_capacity(3 * pts.len() + 8);
                std::hint::black_box(delaunay_rec(&mut pool, pts, 0, pts.len()));
            }
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
    targets = bench_sorted_input, bench_cut_axis, bench_engines, bench_bl_heavy_leaves
}
criterion_main!(benches);
