//! Prints adaptive-predicate-ladder hit rates for a representative
//! workload (incremental triangulation + Ruppert refinement).
//!
//! Run with:
//! `cargo run --release -p adm-bench --example predicate_stats --features predicate-stats`

#[cfg(feature = "predicate-stats")]
fn main() {
    use adm_delaunay::incremental::triangulate_incremental;
    use adm_delaunay::refine::{refine, RefineParams};
    use adm_delaunay::{carve, constrained_delaunay};
    use adm_geom::point::Point2;
    use adm_geom::predicates::stats;
    use rand::{Rng, SeedableRng};

    let mut r = rand::rngs::StdRng::seed_from_u64(42);
    let pts: Vec<Point2> = (0..50_000)
        .map(|_| Point2::new(r.gen_range(0.0..1.0), r.gen_range(0.0..1.0)))
        .collect();
    stats::reset();
    let mesh = triangulate_incremental(&pts).unwrap();
    let (orient, incircle) = stats::snapshot();
    println!("incremental 50k ({} triangles):", mesh.num_triangles());
    report(orient, incircle);

    let square = vec![
        Point2::new(0.0, 0.0),
        Point2::new(1.0, 0.0),
        Point2::new(1.0, 1.0),
        Point2::new(0.0, 1.0),
    ];
    stats::reset();
    let (mut mesh, _) =
        constrained_delaunay(&square, &[(0, 1), (1, 2), (2, 3), (3, 0)], false).unwrap();
    carve(&mut mesh, &[]);
    let params = RefineParams {
        max_area: Some(2.5e-4),
        ..Default::default()
    };
    refine(&mut mesh, None, &params);
    let (orient, incircle) = stats::snapshot();
    println!("ruppert 2.5e-4 ({} triangles):", mesh.num_triangles());
    report(orient, incircle);

    // The counters also publish into the trace metrics registry, which is
    // what the pipeline exports via --trace-out.
    let tracer = adm_trace::Tracer::wall();
    stats::publish(&tracer);
    println!("registry view:");
    for (name, value) in tracer.snapshot().counters {
        println!("  {name} = {value}");
    }
    adm_bench::maybe_write_trace(&tracer).expect("write trace");
}

#[cfg(feature = "predicate-stats")]
fn report(orient: [u64; 4], incircle: [u64; 4]) {
    let pct = |counts: [u64; 4]| {
        let total: u64 = counts.iter().sum::<u64>().max(1);
        counts.map(|c| 100.0 * c as f64 / total as f64)
    };
    let o = pct(orient);
    let i = pct(incircle);
    println!(
        "  orient2d : A {:.3}%  B {:.4}%  C {:.4}%  exact {:.4}%  (counts {:?}, n={})",
        o[0],
        o[1],
        o[2],
        o[3],
        orient,
        orient.iter().sum::<u64>()
    );
    println!(
        "  incircle : A {:.3}%  B {:.4}%  C {:.4}%  exact {:.4}%  (counts {:?}, n={})",
        i[0],
        i[1],
        i[2],
        i[3],
        incircle,
        incircle.iter().sum::<u64>()
    );
}

#[cfg(not(feature = "predicate-stats"))]
fn main() {
    eprintln!("rebuild with `--features predicate-stats` to enable the counters");
}
