//! Figure 8: the boundary layer decomposed into 128 independent Delaunay
//! subdomains.
//!
//! Generates the boundary-layer point cloud, decomposes it with the
//! projection-based coarse partitioner, verifies the merged triangulation
//! equals the direct global Delaunay triangulation, reports the load
//! balance of the subdomains, and renders the decomposition as an SVG.

use adm_airfoil::naca0012_domain;
use adm_bench::{maybe_write_trace, write_json};
use adm_blayer::{build_boundary_layer, BlParams, Geometric, GrowthSpec};
use adm_delaunay::divconq::triangulate_dc;
use adm_partition::{decompose, triangulate_leaf, DecomposeParams, Subdomain};
use adm_trace::json::obj;
use adm_trace::{Tracer, Track};
use std::fmt::Write as _;

fn main() {
    let tracer = Tracer::wall();
    let root = tracer.span(Track::ROOT, "fig08_decomposition");
    let domain = naca0012_domain(140, 30.0);
    let growth = GrowthSpec::from(Geometric::new(1.5e-4, 1.2));
    let bl = build_boundary_layer(
        &domain.loops[0].points,
        &growth,
        &BlParams {
            height: 0.05,
            ..Default::default()
        },
    );
    let cloud = bl.all_points();
    eprintln!("[fig08] boundary-layer cloud: {} points", cloud.len());

    let span = tracer.span(Track::ROOT, "phase.decompose");
    let d = decompose(
        Subdomain::root(cloud),
        &DecomposeParams::for_subdomain_count(128),
    );
    span.close_with(&[("leaves", d.leaves.len() as u64)]);
    eprintln!("[fig08] {} subdomains", d.leaves.len());

    // Merge and compare against the direct DT.
    let mut merged: Vec<[u32; 3]> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for leaf in &d.leaves {
        for t in triangulate_leaf(leaf) {
            let mut k = t;
            k.sort_unstable();
            if seen.insert(k) {
                merged.push(t);
            }
        }
    }
    let dc = triangulate_dc(cloud, false);
    let direct = dc.triangles();
    let mut direct_keys: Vec<[u32; 3]> = direct
        .iter()
        .map(|t| {
            let mut k = [
                dc.input_index[t[0] as usize],
                dc.input_index[t[1] as usize],
                dc.input_index[t[2] as usize],
            ];
            k.sort_unstable();
            k
        })
        .collect();
    direct_keys.sort();
    let mut merged_keys: Vec<[u32; 3]> = merged
        .iter()
        .map(|t| {
            let mut k = *t;
            k.sort_unstable();
            k
        })
        .collect();
    merged_keys.sort();
    let equal = merged_keys == direct_keys;
    println!(
        "subdomains: {}   merged == direct DT: {}   triangles: {}",
        d.leaves.len(),
        equal,
        direct.len()
    );

    let costs: Vec<u64> = d.leaves.iter().map(|l| l.cost()).collect();
    let min = *costs.iter().min().unwrap();
    let max = *costs.iter().max().unwrap();
    let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
    println!(
        "subdomain cost: min {min}, mean {mean:.0}, max {max} (imbalance {:.2})",
        max as f64 / mean
    );

    // SVG: each subdomain's triangles in a distinct color.
    let mut svg = String::new();
    let (mut minp, mut maxp) = (cloud[0], cloud[0]);
    for &p in cloud {
        minp = minp.min(p);
        maxp = maxp.max(p);
    }
    let w = 1200.0;
    let scale = w / (maxp.x - minp.x);
    let h = (maxp.y - minp.y) * scale;
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w:.0}\" height=\"{h:.0}\">"
    );
    for (li, leaf) in d.leaves.iter().enumerate() {
        let hue = (li * 47) % 360;
        let _ = writeln!(
            svg,
            "<g stroke=\"hsl({hue},70%,40%)\" stroke-width=\"0.3\" fill=\"none\">"
        );
        for t in triangulate_leaf(leaf) {
            let tx = |i: u32| {
                let p = cloud[i as usize];
                ((p.x - minp.x) * scale, (maxp.y - p.y) * scale)
            };
            let (x0, y0) = tx(t[0]);
            let (x1, y1) = tx(t[1]);
            let (x2, y2) = tx(t[2]);
            let _ = writeln!(
                svg,
                "<path d=\"M{x0:.1} {y0:.1} L{x1:.1} {y1:.1} L{x2:.1} {y2:.1} Z\"/>"
            );
        }
        let _ = writeln!(svg, "</g>");
    }
    let _ = writeln!(svg, "</svg>");
    let svg_path = adm_bench::report::write_artifact("fig08_decomposition.svg", svg.as_bytes())
        .expect("write svg");
    eprintln!("[fig08] wrote {}", svg_path.display());

    let report = obj! {
        "cloud_points": cloud.len(),
        "leaves": d.leaves.len(),
        "merged_equals_direct": equal,
        "direct_triangles": direct.len(),
        "min_cost": min,
        "max_cost": max,
        "mean_cost": mean,
        "imbalance": max as f64 / mean,
        "paper_reference": "Fig 8: 30p30n boundary layer in 128 independent Delaunay subdomains",
    };
    let path = write_json("fig08_decomposition", &report).expect("write report");
    eprintln!("[fig08] wrote {}", path.display());
    root.close();
    maybe_write_trace(&tracer).expect("write trace");
    assert!(equal, "merged decomposition must equal the direct DT");
}
