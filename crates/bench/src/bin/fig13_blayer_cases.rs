//! Figures 2–5 and 13: the qualitative boundary-layer cases.
//!
//! Runs the three-element configuration through the boundary-layer stage
//! and verifies/reports every special case the paper illustrates:
//! surface-normal rays (Fig 2), cusp fans at trailing edges (Figs 3/4),
//! smooth height transition (Fig 5), resolved self-intersections at
//! coves/concavities (Fig 13b/c), resolved multi-element intersections in
//! the gaps (Fig 13d), and the blunt trailing edge (Fig 13e). Renders the
//! rays and borders as SVGs, with close-ups of each region.

use adm_airfoil::{three_element_highlift, HighLiftParams};
use adm_bench::{maybe_write_trace, write_json};
use adm_blayer::{
    build_multielement_layers, layers_disjoint, no_proper_intersections, BlParams, Geometric,
    GrowthSpec, RaySource,
};
use adm_geom::point::Point2;
use adm_trace::json::obj;
use adm_trace::{Tracer, Track};
use std::fmt::Write as _;

fn render(
    layers: &[adm_blayer::BoundaryLayer],
    surfaces: &[Vec<Point2>],
    window: (Point2, Point2),
    name: &str,
) {
    let (min, max) = window;
    let w = 1000.0;
    let scale = w / (max.x - min.x);
    let h = (max.y - min.y) * scale;
    let tx = |p: Point2| ((p.x - min.x) * scale, (max.y - p.y) * scale);
    let mut svg = String::new();
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w:.0}\" height=\"{h:.0}\">"
    );
    for s in surfaces {
        let pts: Vec<String> = s
            .iter()
            .map(|&p| {
                let (x, y) = tx(p);
                format!("{x:.1},{y:.1}")
            })
            .collect();
        let _ = writeln!(
            svg,
            "<polygon points=\"{}\" fill=\"#ccc\" stroke=\"#000\" stroke-width=\"0.6\"/>",
            pts.join(" ")
        );
    }
    for l in layers {
        let _ = writeln!(svg, "<g stroke=\"#27c\" stroke-width=\"0.35\">");
        for r in &l.rays {
            let a = tx(r.origin);
            let b = tx(r.at(r.max_height));
            let _ = writeln!(
                svg,
                "<line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\"/>",
                a.0, a.1, b.0, b.1
            );
        }
        let _ = writeln!(svg, "</g>");
        // Outer border in red.
        let ob = l.outer_border();
        let pts: Vec<String> = ob
            .iter()
            .map(|&p| {
                let (x, y) = tx(p);
                format!("{x:.1},{y:.1}")
            })
            .collect();
        let _ = writeln!(
            svg,
            "<polygon points=\"{}\" fill=\"none\" stroke=\"#c33\" stroke-width=\"0.8\"/>",
            pts.join(" ")
        );
    }
    let _ = writeln!(svg, "</svg>");
    let p = adm_bench::report::write_artifact(name, svg.as_bytes()).expect("svg");
    eprintln!("[fig13] wrote {}", p.display());
}

fn main() {
    let pslg = three_element_highlift(&HighLiftParams {
        n_per_side: 70,
        farfield_chords: 30.0,
    });
    let surfaces: Vec<Vec<Point2>> = pslg.loops.iter().map(|l| l.points.clone()).collect();
    let growth = GrowthSpec::from(Geometric::new(2e-4, 1.25));
    let params = BlParams {
        height: 0.04,
        ..Default::default()
    };
    let tracer = Tracer::wall();
    let root = tracer.span(Track::ROOT, "fig13_blayer_cases");
    let layers = {
        let span = tracer.span(Track::ROOT, "phase.bl_build");
        let layers = build_multielement_layers(&surfaces, &growth, &params);
        span.close();
        layers
    };

    let mut rays_n = Vec::new();
    let mut fans_n = Vec::new();
    let mut clamped_n = Vec::new();
    let mut self_ok = true;
    for (i, l) in layers.iter().enumerate() {
        rays_n.push(l.rays.len());
        fans_n.push(
            l.rays
                .iter()
                .filter(|r| matches!(r.source, RaySource::Fan(_)))
                .count(),
        );
        clamped_n.push(
            l.rays
                .iter()
                .filter(|r| r.max_height < params.height - 1e-12)
                .count(),
        );
        if !no_proper_intersections(&l.rays) {
            self_ok = false;
        }
        eprintln!(
            "[fig13] element {} ({}): {} rays, {} fan rays, {} clamped",
            i, pslg.loops[i].name, rays_n[i], fans_n[i], clamped_n[i]
        );
    }
    let mut multi_ok = true;
    for i in 0..layers.len() {
        for j in 0..layers.len() {
            if i != j && !layers_disjoint(&layers[i], &layers[j]) {
                multi_ok = false;
            }
        }
    }
    // Smooth transition (Fig 5): max ratio between neighboring realized
    // tip heights.
    let mut max_jump: f64 = 1.0;
    for l in &layers {
        let n = l.layer.num_rays();
        for i in 0..n {
            let hi = l
                .layer
                .tip(i)
                .map(|p| p.distance(l.rays[i].origin))
                .unwrap_or(0.0);
            let hj = l
                .layer
                .tip((i + 1) % n)
                .map(|p| p.distance(l.rays[(i + 1) % n].origin))
                .unwrap_or(0.0);
            if hi > 0.0 && hj > 0.0 {
                max_jump = max_jump.max((hi / hj).max(hj / hi));
            }
        }
    }
    println!("self-intersections resolved: {self_ok}");
    println!("multi-element layers disjoint: {multi_ok}");
    println!("max neighboring tip-height ratio: {max_jump:.2}");

    // Full configuration plus the Figure 13 close-ups.
    render(
        &layers,
        &surfaces,
        (Point2::new(-0.3, -0.4), Point2::new(1.4, 0.3)),
        "fig13_overview.svg",
    );
    // (b) slat cove and trailing edge.
    render(
        &layers,
        &surfaces,
        (Point2::new(-0.12, -0.12), Point2::new(0.12, 0.08)),
        "fig13_slat_te.svg",
    );
    // (d) main trailing edge over the flap (multi-element gap).
    render(
        &layers,
        &surfaces,
        (Point2::new(0.85, -0.2), Point2::new(1.15, 0.05)),
        "fig13_main_flap_gap.svg",
    );
    // (e) flap blunt trailing edge.
    render(
        &layers,
        &surfaces,
        (Point2::new(1.15, -0.3), Point2::new(1.35, -0.1)),
        "fig13_flap_blunt_te.svg",
    );

    let report = obj! {
        "elements": layers.len(),
        "rays_per_element": rays_n,
        "fan_rays_per_element": fans_n.clone(),
        "clamped_rays_per_element": clamped_n.clone(),
        "self_intersections_resolved": self_ok,
        "multielement_disjoint": multi_ok,
        "max_tip_jump_ratio": max_jump,
        "paper_reference": "Fig 13: resolved self/multi-element intersections, cusp fans, blunt TE",
    };
    let path = write_json("fig13_blayer_cases", &report).expect("write report");
    eprintln!("[fig13] wrote {}", path.display());
    root.close();
    maybe_write_trace(&tracer).expect("write trace");
    assert!(self_ok && multi_ok);
    assert!(fans_n.iter().all(|&f| f > 0), "every element needs fans");
    assert!(clamped_n.iter().sum::<usize>() > 0, "gap clamping expected");
}
