//! Figure 16: solver convergence on anisotropic vs isotropic meshes
//! (plus the §IV element-count comparison, E5).
//!
//! The paper runs FUN3D's conservation-of-mass equation on two meshes of
//! the same domain — one with anisotropic boundary layers (360,241
//! triangles, converges to 1e-12 in ~5,000 iterations) and one purely
//! isotropic with the same sizing (5,314,372 triangles, >14x more,
//! ~10,000 iterations). Our substitute (DESIGN.md): the same potential
//! (Laplace) problem solved with Jacobi-preconditioned CG on both meshes.
//! The isotropic mesh must resolve the wall-normal first-layer scale
//! isotropically, which is exactly why it needs an order of magnitude
//! more elements.
//!
//! Usage: fig16_convergence [--points N] [--iso-h0-factor F]

use adm_bench::{maybe_write_trace, write_json};
use adm_core::{generate, MeshConfig};
use adm_decouple::{GradedSizing, SizingFn};
use adm_delaunay::mesh::Mesh;
use adm_delaunay::{carve, constrained_delaunay, refine, RefineParams};
use adm_geom::point::Point2;
use adm_solver::{assemble, cg, dirichlet_on_boundary, CgOptions};
use adm_trace::json::obj;
use adm_trace::Track;

/// Builds the purely isotropic comparison mesh: same surface, same far
/// field, graded sizing whose body edge length resolves the first-layer
/// scale isotropically.
fn isotropic_mesh(config: &MeshConfig, h0: f64) -> Mesh {
    let pslg = config.pslg.to_general();
    let body: Vec<Point2> = config
        .pslg
        .loops
        .iter()
        .flat_map(|l| l.points.clone())
        .collect();
    let sizing = GradedSizing::new(&body, h0, config.sizing_rate, config.sizing_max_area, 64);
    let (mut mesh, _) = constrained_delaunay(&pslg.points, &pslg.segments, false)
        .expect("isotropic meshing failed");
    carve(&mut mesh, &pslg.holes);
    let area = |p: Point2| sizing.target_area(p);
    refine(&mut mesh, Some(&area), &RefineParams::default());
    mesh
}

/// Solves the model problem and returns the residual history.
fn solve_model(mesh: &Mesh, tol: f64) -> Vec<f64> {
    // Laplace with a free-stream-like boundary field: the potential-flow
    // stand-in for the conservation-of-mass equation.
    let bc = dirichlet_on_boundary(mesh, |p| p.y - 0.087 * p.x);
    let sys = assemble(mesh, adm_geom::Vec2::ZERO, |_| 0.0, &bc);
    let (_u, hist) = cg(
        &sys.matrix,
        &sys.rhs,
        &CgOptions {
            tol,
            max_iters: 100_000,
            jacobi_precond: true,
        },
    );
    hist
}

fn sample(hist: &[f64]) -> Vec<(usize, f64)> {
    let stride = (hist.len() / 60).max(1);
    hist.iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0 || *i == hist.len() - 1)
        .map(|(i, &r)| (i, r))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let getf = |flag: &str, default: f64| -> f64 {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let points = getf("--points", 80.0) as usize;
    let iso_factor = getf("--iso-h0-factor", 0.45);
    let tol = 1e-12;

    let mut config = MeshConfig::naca0012(points);
    config.sizing_max_area = 1.0;
    config.bl_subdomains = 32;
    config.inviscid_subdomains = 32;

    eprintln!("[fig16] anisotropic mesh (full pipeline) ...");
    let aniso = generate(&config);
    eprintln!("[fig16]   {} triangles", aniso.stats.total_triangles);

    let iso_h0 = config.growth.first_height() * iso_factor;
    eprintln!("[fig16] isotropic mesh (wall edge {iso_h0:.2e}) ...");
    // Keep tracing the post-pipeline stages on the pipeline's tracer so
    // --trace-out shows the whole experiment.
    let iso = {
        let span = aniso.trace.span(Track::ROOT, "fig16.iso_mesh");
        let iso = isotropic_mesh(&config, iso_h0);
        span.close_with(&[("triangles", iso.num_triangles() as u64)]);
        iso
    };
    eprintln!("[fig16]   {} triangles", iso.num_triangles());

    eprintln!("[fig16] solving on the anisotropic mesh ...");
    let span = aniso.trace.span(Track::ROOT, "fig16.solve_aniso");
    let hist_aniso = solve_model(&aniso.mesh, tol);
    span.close_with(&[("iterations", hist_aniso.len() as u64)]);
    eprintln!("[fig16]   {} iterations", hist_aniso.len());
    eprintln!("[fig16] solving on the isotropic mesh ...");
    let span = aniso.trace.span(Track::ROOT, "fig16.solve_iso");
    let hist_iso = solve_model(&iso, tol);
    span.close_with(&[("iterations", hist_iso.len() as u64)]);
    eprintln!("[fig16]   {} iterations", hist_iso.len());

    let ratio_e = iso.num_triangles() as f64 / aniso.stats.total_triangles as f64;
    let ratio_i = hist_iso.len() as f64 / hist_aniso.len() as f64;
    println!("mesh         triangles   iterations(tol {tol:.0e})");
    println!(
        "anisotropic  {:>9}   {:>10}",
        aniso.stats.total_triangles,
        hist_aniso.len()
    );
    println!(
        "isotropic    {:>9}   {:>10}",
        iso.num_triangles(),
        hist_iso.len()
    );
    println!("element ratio:   {ratio_e:.1}x   (paper: 14.7x)");
    println!("iteration ratio: {ratio_i:.2}x  (paper: ~2x, 10k vs 5k)");

    let report = obj! {
        "aniso_triangles": aniso.stats.total_triangles,
        "iso_triangles": iso.num_triangles(),
        "element_ratio": ratio_e,
        "aniso_iterations": hist_aniso.len(),
        "iso_iterations": hist_iso.len(),
        "iteration_ratio": ratio_i,
        "tolerance": tol,
        "aniso_residuals_sampled": sample(&hist_aniso),
        "iso_residuals_sampled": sample(&hist_iso),
        "paper_reference": "aniso 360,241 tris ~5k iters; iso 5,314,372 tris ~10k iters to 1e-12",
    };
    let path = write_json("fig16_convergence", &report).expect("write report");
    eprintln!("[fig16] wrote {}", path.display());
    maybe_write_trace(&aniso.trace).expect("write trace");
}
