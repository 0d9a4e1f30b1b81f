//! Figures 9 & 10: the decoupled inviscid region.
//!
//! Builds the four initial quadrants (Fig 9), decouples them by estimated
//! triangle count with the pipeline's own policy (`decouple_threshold`
//! targeting 64 subdomains, then `decouple_by_threshold`), refines every
//! subdomain independently, and reports the per-subdomain triangle
//! balance that the paper's Figure 10 illustrates ("each subdomain has
//! roughly the same number of triangles"). Renders the decoupled borders
//! as an SVG.

use adm_bench::maybe_write_trace;
use adm_bench::write_json;
use adm_core::inviscid::decouple_threshold;
use adm_core::refine_region;
use adm_decouple::{decouple_by_threshold, initial_quadrants, GradedSizing};
use adm_geom::aabb::Aabb;
use adm_geom::point::Point2;
use adm_trace::json::obj;
use adm_trace::{Tracer, Track};
use std::fmt::Write as _;

fn main() {
    let body = Aabb::new(Point2::new(-0.2, -0.25), Point2::new(1.2, 0.25));
    let far = Aabb::new(Point2::new(-30.0, -30.0), Point2::new(31.0, 30.0));
    let body_samples: Vec<Point2> = (0..32).map(|k| Point2::new(k as f64 / 31.0, 0.0)).collect();
    let sizing = GradedSizing::new(&body_samples, 0.04, 0.12, 8.0, 32);

    let init = initial_quadrants(&body, &far, &sizing);
    let threshold = decouple_threshold(&init.quadrants, 64, &sizing);
    let leaves = decouple_by_threshold(init.quadrants.to_vec(), threshold, &sizing);
    eprintln!("[fig10] {} decoupled subdomains", leaves.len());

    let tracer = Tracer::wall();
    let root = tracer.span(Track::ROOT, "fig10_decoupling");
    let mut counts = Vec::with_capacity(leaves.len());
    let mut splits = 0usize;
    let mut all_stats = adm_delaunay::refine::RefineStats::default();
    for (i, leaf) in leaves.iter().enumerate() {
        let span = tracer.span(Track::ROOT, "task.inviscid_refine");
        let (mesh, s) = refine_region(&leaf.border, &sizing);
        span.close_with(&[("triangles", mesh.num_triangles() as u64)]);
        all_stats.absorb(&s);
        splits += s.segment_splits;
        counts.push(mesh.num_triangles());
        if i % 16 == 0 {
            eprintln!(
                "[fig10]   subdomain {i}: {} triangles",
                mesh.num_triangles()
            );
        }
    }
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    let total: usize = counts.iter().sum();
    let mean = total as f64 / counts.len() as f64;
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / counts.len() as f64;
    let cv = var.sqrt() / mean;
    println!("subdomains: {}   total triangles: {total}", leaves.len());
    println!("per-subdomain: min {min}, mean {mean:.0}, max {max}, CV {cv:.2}");
    println!("border splits during independent refinement: {splits} (must be 0)");

    // SVG of the decoupled borders (Figure 10's picture).
    let mut svg = String::new();
    let w = 1000.0;
    let scale = w / far.width();
    let h = far.height() * scale;
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w:.0}\" height=\"{h:.0}\">"
    );
    let tx = |p: Point2| ((p.x - far.min.x) * scale, (far.max.y - p.y) * scale);
    for (li, leaf) in leaves.iter().enumerate() {
        let hue = (li * 61) % 360;
        let pts: Vec<String> = leaf
            .border
            .iter()
            .map(|&p| {
                let (x, y) = tx(p);
                format!("{x:.1},{y:.1}")
            })
            .collect();
        let _ = writeln!(
            svg,
            "<polygon points=\"{}\" fill=\"hsl({hue},60%,85%)\" stroke=\"#333\" stroke-width=\"0.5\"/>",
            pts.join(" ")
        );
    }
    let _ = writeln!(svg, "</svg>");
    let svg_path =
        adm_bench::report::write_artifact("fig10_decoupling.svg", svg.as_bytes()).expect("svg");
    eprintln!("[fig10] wrote {}", svg_path.display());

    let report = obj! {
        "subdomains": leaves.len(),
        "border_splits": splits,
        "min_triangles": min,
        "max_triangles": max,
        "mean_triangles": mean,
        "coefficient_of_variation": cv,
        "total_triangles": total,
        "paper_reference": "Fig 10: decoupled subdomains with roughly equal triangle counts",
    };
    let path = write_json("fig10_decoupling", &report).expect("write report");
    eprintln!("[fig10] wrote {}", path.display());
    all_stats.publish(&tracer);
    root.close();
    maybe_write_trace(&tracer).expect("write trace");
    assert_eq!(splits, 0, "decoupling contract violated");
}
