//! Figure 2: NACA 0012 airfoil with surface normals.
//!
//! Renders the surface-normal rays of the extrusion stage (before any
//! refinement or clamping) — the paper's first picture of the method —
//! and reports the angle statistics that motivate §II.B's refinement
//! (large inter-ray angles at the leading edge and the trailing-edge
//! cusp).

use adm_airfoil::Naca4;
use adm_bench::{maybe_write_trace, write_json};
use adm_blayer::{emit_rays, loop_normals, max_consecutive_angle, CornerThresholds, RaySource};
use adm_trace::json::obj;
use adm_trace::{Tracer, Track};
use std::fmt::Write as _;

fn main() {
    let tracer = Tracer::wall();
    let root = tracer.span(Track::ROOT, "fig02_normals");
    let surface = Naca4::naca0012().surface(60);
    let normals = loop_normals(&surface);

    // Before refinement: one ray per vertex; measure the worst inter-ray
    // angle (the quantity the paper's Figure 3 shows going wrong).
    let mut max_before = 0f64;
    for i in 0..normals.len() {
        let a = normals[i].dir;
        let b = normals[(i + 1) % normals.len()].dir;
        max_before = max_before.max(a.angle_between(b));
    }
    // The trailing-edge cusp turn.
    let te_turn = normals
        .iter()
        .map(|nv| nv.turn)
        .fold(f64::NEG_INFINITY, f64::max);

    let th = CornerThresholds::default();
    let rays = emit_rays(&surface, 0.08, &th);
    let max_after = max_consecutive_angle(&rays);
    let fans = rays
        .iter()
        .filter(|r| matches!(r.source, RaySource::Fan(_)))
        .count();
    let interp = rays
        .iter()
        .filter(|r| matches!(r.source, RaySource::Interpolated(_)))
        .count();

    println!(
        "surface points: {}   rays after refinement: {} ({} fan, {} interpolated)",
        surface.len(),
        rays.len(),
        fans,
        interp
    );
    println!(
        "max inter-ray angle: {:.1} deg before refinement, {:.1} deg after (threshold {:.0})",
        max_before.to_degrees(),
        max_after.to_degrees(),
        th.max_ray_angle.to_degrees()
    );
    println!("trailing-edge turn: {:.1} deg (cusp)", te_turn.to_degrees());

    // The Figure 2 rendering.
    let mut svg = String::new();
    let (w, h) = (1400.0, 500.0);
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w:.0}\" height=\"{h:.0}\">"
    );
    let tx = |p: adm_geom::Point2| ((p.x + 0.15) * 1000.0, 250.0 - p.y * 1000.0);
    let pts: Vec<String> = surface
        .iter()
        .map(|&p| {
            let (x, y) = tx(p);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    let _ = writeln!(
        svg,
        "<polygon points=\"{}\" fill=\"#ddd\" stroke=\"#000\" stroke-width=\"1\"/>",
        pts.join(" ")
    );
    let _ = writeln!(svg, "<g stroke=\"#27c\" stroke-width=\"0.7\">");
    for r in &rays {
        let a = tx(r.origin);
        let b = tx(r.at(r.max_height));
        let _ = writeln!(
            svg,
            "<line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\"/>",
            a.0, a.1, b.0, b.1
        );
    }
    let _ = writeln!(svg, "</g></svg>");
    let path = adm_bench::report::write_artifact("fig02_normals.svg", svg.as_bytes()).unwrap();
    eprintln!("[fig02] wrote {}", path.display());

    let report = obj! {
        "surface_points": surface.len(),
        "rays": rays.len(),
        "fan_rays": fans,
        "interpolated_rays": interp,
        "max_angle_before_refinement_deg": max_before.to_degrees(),
        "max_angle_after_refinement_deg": max_after.to_degrees(),
        "trailing_edge_turn_deg": te_turn.to_degrees(),
        "paper_reference": "Fig 2: NACA 0012 with surface normals; Figs 3/4: TE angles need fans",
    };
    let path = write_json("fig02_normals", &report).unwrap();
    eprintln!("[fig02] wrote {}", path.display());
    root.close();
    maybe_write_trace(&tracer).expect("write trace");
    assert!(max_after <= th.max_ray_angle + 1e-9);
    assert!(te_turn.to_degrees() > 150.0);
}
