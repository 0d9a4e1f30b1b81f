//! Figure 16 companion: mesh economy of the adaptation loop.
//!
//! The paper's fig. 16 argument is that solution-aware anisotropy buys
//! the same accuracy with far fewer elements. This experiment makes the
//! same claim for the adaptation driver on the error-per-DoF axis
//! (`error_total * sqrt(dofs)`, constant for an optimal uniform family;
//! lower = better economy). Three mesh families over the same NACA 0012
//! domain:
//!
//! * **adapted** — `adapt` cycles (solve → estimate → remesh), each
//!   cycle's metric recovered from the previous cycle's potential-flow
//!   solution;
//! * **uniform** — the same pipeline with a uniform edge-length cap as
//!   the extra sizing channel (resolution added everywhere, no solution
//!   feedback);
//! * **one-shot** — the plain anisotropic pipeline re-run at smaller
//!   far-field area budgets (graded + boundary-layer anisotropy, no
//!   solution feedback).
//!
//! The committed claim: by the third cycle the adapted family has lower
//! error-per-DoF than *every* sampled point of both one-shot families.
//!
//! Usage: fig16_adapt [--points N] [--max-area A] [--cycles N]
//!                    [--floor-factor F] [--gradation G]

use adm_bench::write_json;
use adm_core::{adapt, generate, AdaptOptions, MeshConfig, UniformH};
use adm_decouple::EQUILATERAL;
use adm_delaunay::mesh::Mesh;
use adm_solver::{solve_potential_flow, zz_error, FlowConditions};
use adm_trace::json::{obj, Value};
use std::sync::Arc;

struct SamplePoint {
    /// What distinguishes this point within its family (cycle index,
    /// uniform cap h, or far-field max area).
    knob: f64,
    triangles: usize,
    dofs: usize,
    error_total: f64,
    error_per_dof: f64,
}

impl From<&SamplePoint> for Value {
    fn from(p: &SamplePoint) -> Value {
        obj! {
            "knob": p.knob,
            "triangles": p.triangles,
            "dofs": p.dofs,
            "error_total": p.error_total,
            "error_per_dof": p.error_per_dof,
        }
    }
}

/// Solves the shared model problem and returns the estimator's view.
fn measure(mesh: &Mesh, knob: f64) -> SamplePoint {
    let flow = solve_potential_flow(mesh, &FlowConditions::default());
    let est = zz_error(mesh, &flow.psi);
    SamplePoint {
        knob,
        triangles: mesh.num_triangles(),
        dofs: est.dofs,
        error_total: est.total,
        error_per_dof: est.error_per_dof(),
    }
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
    let points = getf("--points", 24.0) as usize;
    let max_area = getf("--max-area", 6.0);
    let cycles = getf("--cycles", 3.0) as usize;
    let floor_factor = getf("--floor-factor", 0.125);
    let gradation = getf("--gradation", 0.25);

    let mut config = MeshConfig::naca0012(points);
    config.sizing_max_area = max_area;
    config.bl_subdomains = 4;
    config.inviscid_subdomains = 4;
    config.merge_threads = 0;

    eprintln!("[fig16_adapt] adapted family ({cycles} cycles) ...");
    let opts = AdaptOptions {
        cycles,
        h_floor_factor: floor_factor,
        gradation,
        ..Default::default()
    };
    let out = adapt(&config, &opts);
    let adapted: Vec<SamplePoint> = out
        .cycles
        .iter()
        .map(|c| SamplePoint {
            knob: c.cycle as f64,
            triangles: c.triangles,
            dofs: c.dofs,
            error_total: c.error_total,
            error_per_dof: c.error_per_dof,
        })
        .collect();
    for p in &adapted {
        eprintln!(
            "[fig16_adapt]   cycle {}: {} dofs, err {:.4e}, err*sqrt(dofs) {:.3}",
            p.knob, p.dofs, p.error_total, p.error_per_dof
        );
    }

    // Uniform family: cap the edge length everywhere via the extra
    // sizing channel. Caps chosen to sweep a DoF range bracketing the
    // adapted family's.
    eprintln!("[fig16_adapt] uniform family ...");
    let base_h = (max_area / EQUILATERAL).sqrt();
    let uniform: Vec<SamplePoint> = (0..cycles)
        .map(|k| {
            let h = base_h / 1.6f64.powi(k as i32 + 1);
            let mut cfg = config.clone();
            cfg.extra_sizing = Some(Arc::new(UniformH(h)));
            let p = measure(&generate(&cfg).mesh, h);
            eprintln!(
                "[fig16_adapt]   h {:.3}: {} dofs, err {:.4e}, err*sqrt(dofs) {:.3}",
                h, p.dofs, p.error_total, p.error_per_dof
            );
            p
        })
        .collect();

    // One-shot family: the plain anisotropic pipeline at shrinking
    // far-field budgets. No solution feedback — this is what the
    // adaptation loop has to beat to justify its solve/estimate cost.
    eprintln!("[fig16_adapt] one-shot family ...");
    let one_shot: Vec<SamplePoint> = (0..cycles)
        .map(|k| {
            let a = max_area / 2.5f64.powi(k as i32);
            let mut cfg = config.clone();
            cfg.sizing_max_area = a;
            let p = measure(&generate(&cfg).mesh, a);
            eprintln!(
                "[fig16_adapt]   max_area {:.3}: {} dofs, err {:.4e}, err*sqrt(dofs) {:.3}",
                a, p.dofs, p.error_total, p.error_per_dof
            );
            p
        })
        .collect();

    let best = |family: &[SamplePoint]| {
        family
            .iter()
            .map(|p| p.error_per_dof)
            .fold(f64::INFINITY, f64::min)
    };
    let adapted_final = adapted.last().expect("at least one cycle").error_per_dof;
    let uniform_best = best(&uniform);
    let one_shot_best = best(&one_shot);
    let beats = adapted_final < uniform_best && adapted_final < one_shot_best;

    println!("family     best err*sqrt(dofs)");
    println!("adapted    {adapted_final:.3}  (final cycle)");
    println!("uniform    {uniform_best:.3}");
    println!("one-shot   {one_shot_best:.3}");
    println!("adapted beats both: {}", if beats { "YES" } else { "NO" });

    let report = obj! {
        "points": points,
        "max_area": max_area,
        "cycles": cycles,
        "floor_factor": floor_factor,
        "gradation": gradation,
        "adapted": Value::arr(&adapted),
        "uniform": Value::arr(&uniform),
        "one_shot": Value::arr(&one_shot),
        "adapted_final_error_per_dof": adapted_final,
        "uniform_best_error_per_dof": uniform_best,
        "one_shot_best_error_per_dof": one_shot_best,
        // The acceptance bit: final adapted cycle beats the best point of
        // both non-adaptive families on error-per-DoF.
        "adapted_beats_both": beats,
        "paper_reference": "fig. 16: solution-aware anisotropy buys accuracy per element; \
                            here measured as ZZ error * sqrt(dofs), lower = better",
    };
    let path = write_json("fig16_adapt", &report).expect("write report");
    eprintln!("[fig16_adapt] wrote {}", path.display());
    if !beats {
        std::process::exit(1);
    }
}
