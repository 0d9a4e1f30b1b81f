//! `admesh` — the push-button command-line mesh generator.
//!
//! The paper's headline interface: "the user only needs to provide the
//! input configuration and wait for the output without any human
//! intervention."
//!
//! ```sh
//! admesh --naca 0012 --points 80 --out mesh.txt --svg mesh.svg
//! admesh --three-element --points 60 --ranks 4 --binary-out mesh.bin
//! admesh --naca 2412 --height 0.08 --growth 2e-4,1.3 --max-area 0.5
//! ```

use adm2d::blayer::{Geometric, GrowthSpec};
use adm2d::core::{
    adapt, default_merge_threads, generate, generate_parallel, mesh_pslg_on, AdaptOptions,
    AdaptResult, Executor, GradationLimited, GradedSizing, MeshConfig, PipelineResult,
    PslgMeshResult, SizingFn, UniformH,
};
use adm2d::delaunay::io::{write_ascii, write_binary, write_svg};
use adm2d::delaunay::quality::mesh_quality;
use adm2d::delaunay::RefineParams;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

const USAGE: &str = "\
admesh — parallel 2-D anisotropic Delaunay mesh generator (ICPP 2016 reproduction)

USAGE:
    admesh [OPTIONS]

GEOMETRY (choose one):
    --naca <DIGITS>        NACA 4-digit airfoil, e.g. --naca 0012 [default]
    --three-element        synthetic slat/main/flap high-lift configuration
    --poly <PATH>          general Triangle-format .poly PSLG: multiple parts,
                           holes, open chains; validated, refined against the
                           sizing function, no boundary layer
    --poly-airfoil <PATH>  treat each closed .poly loop as an airfoil body and
                           run the full boundary-layer pipeline

PSLG SIZING (with --poly):
    --sizing <H0,RATE>     edge length h = H0 + RATE * distance-to-boundary
                           (default: uniform h = bbox diagonal / 30)
    --gradation <G>        cap sizing growth at G per unit distance
                           (Lipschitz limit anchored at the input vertices)

ADAPTATION (airfoil pipelines only):
    --adapt <N>            run N solve -> estimate -> remesh cycles: each cycle
                           re-meshes against a Hessian metric recovered from a
                           potential-flow solve on the previous mesh; honors
                           --ranks per cycle (serial and parallel cycles are
                           byte-identical) and writes per-cycle shard sets
                           under --out-shards as cycle-NNN/
    --adapt-target <ERR>   stop early once the estimated total error is <= ERR

OPTIONS:
    --points <N>           surface points per airfoil side        [default: 80]
    --farfield <CHORDS>    far-field distance in chords           [default: 30]
    --height <H>           boundary-layer height (chord units)    [default: 0.05]
    --growth <H0,RATIO>    geometric growth law                   [default: 2e-4,1.25]
    --growth-law <LAW>     geometric | polynomial | capped        [default: geometric]
                           (polynomial: RATIO is the exponent;
                            capped: thickness capped at 20*H0)
    --max-area <A>         far-field triangle area cap            [default: 1.0]
    --subdomains <N>       target subdomains per stage            [default: 32]
    --ranks <N>            run on N parallel ranks (mpirt)        [default: in-process pool]
    --out <PATH>           write Triangle-format ASCII mesh
    --binary-out <PATH>    write compact binary mesh
    --out-shards <DIR>     distributed output: write per-subdomain shards plus
                           a digest manifest (mesh.admshards.json) into DIR;
                           reconstruct or verify offline with shard-cat
    --svg <PATH>           write an SVG rendering
    --trace-out <PATH>     write a Chrome trace-event JSON of the run
                           (open in about:tracing or Perfetto)
    --report               print a mesh-quality report (angle histogram)
    --quiet                suppress statistics
    --help                 show this help
";

struct Args {
    naca: String,
    three_element: bool,
    poly: Option<String>,
    poly_airfoil: Option<String>,
    sizing: Option<(f64, f64)>,
    gradation: Option<f64>,
    points: usize,
    farfield: f64,
    height: f64,
    growth: (f64, f64),
    growth_law: String,
    max_area: f64,
    subdomains: usize,
    adapt: Option<usize>,
    adapt_target: Option<f64>,
    ranks: Option<usize>,
    out: Option<String>,
    binary_out: Option<String>,
    out_shards: Option<String>,
    svg: Option<String>,
    trace_out: Option<String>,
    quiet: bool,
    report: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        naca: "0012".to_string(),
        three_element: false,
        poly: None,
        poly_airfoil: None,
        sizing: None,
        gradation: None,
        points: 80,
        farfield: 30.0,
        height: 0.05,
        growth: (2e-4, 1.25),
        growth_law: "geometric".to_string(),
        max_area: 1.0,
        subdomains: 32,
        adapt: None,
        adapt_target: None,
        ranks: None,
        out: None,
        binary_out: None,
        out_shards: None,
        svg: None,
        trace_out: None,
        quiet: false,
        report: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--naca" => args.naca = value(&argv, &mut i, "--naca")?,
            "--three-element" => args.three_element = true,
            "--poly" => args.poly = Some(value(&argv, &mut i, "--poly")?),
            "--poly-airfoil" => args.poly_airfoil = Some(value(&argv, &mut i, "--poly-airfoil")?),
            "--sizing" => {
                let v = value(&argv, &mut i, "--sizing")?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 2 {
                    return Err("--sizing expects H0,RATE".to_string());
                }
                args.sizing = Some((
                    parts[0].parse().map_err(|e| format!("--sizing h0: {e}"))?,
                    parts[1]
                        .parse()
                        .map_err(|e| format!("--sizing rate: {e}"))?,
                ));
            }
            "--gradation" => {
                args.gradation = Some(
                    value(&argv, &mut i, "--gradation")?
                        .parse()
                        .map_err(|e| format!("--gradation: {e}"))?,
                )
            }
            "--points" => {
                args.points = value(&argv, &mut i, "--points")?
                    .parse()
                    .map_err(|e| format!("--points: {e}"))?
            }
            "--farfield" => {
                args.farfield = value(&argv, &mut i, "--farfield")?
                    .parse()
                    .map_err(|e| format!("--farfield: {e}"))?
            }
            "--height" => {
                args.height = value(&argv, &mut i, "--height")?
                    .parse()
                    .map_err(|e| format!("--height: {e}"))?
            }
            "--growth" => {
                let v = value(&argv, &mut i, "--growth")?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 2 {
                    return Err("--growth expects H0,RATIO".to_string());
                }
                args.growth = (
                    parts[0].parse().map_err(|e| format!("--growth h0: {e}"))?,
                    parts[1]
                        .parse()
                        .map_err(|e| format!("--growth ratio: {e}"))?,
                );
            }
            "--growth-law" => args.growth_law = value(&argv, &mut i, "--growth-law")?,
            "--max-area" => {
                args.max_area = value(&argv, &mut i, "--max-area")?
                    .parse()
                    .map_err(|e| format!("--max-area: {e}"))?
            }
            "--subdomains" => {
                args.subdomains = value(&argv, &mut i, "--subdomains")?
                    .parse()
                    .map_err(|e| format!("--subdomains: {e}"))?
            }
            "--adapt" => {
                args.adapt = Some(
                    value(&argv, &mut i, "--adapt")?
                        .parse()
                        .map_err(|e| format!("--adapt: {e}"))?,
                )
            }
            "--adapt-target" => {
                args.adapt_target = Some(
                    value(&argv, &mut i, "--adapt-target")?
                        .parse()
                        .map_err(|e| format!("--adapt-target: {e}"))?,
                )
            }
            "--ranks" => {
                args.ranks = Some(
                    value(&argv, &mut i, "--ranks")?
                        .parse()
                        .map_err(|e| format!("--ranks: {e}"))?,
                )
            }
            "--out" => args.out = Some(value(&argv, &mut i, "--out")?),
            "--binary-out" => args.binary_out = Some(value(&argv, &mut i, "--binary-out")?),
            "--out-shards" => args.out_shards = Some(value(&argv, &mut i, "--out-shards")?),
            "--svg" => args.svg = Some(value(&argv, &mut i, "--svg")?),
            "--trace-out" => args.trace_out = Some(value(&argv, &mut i, "--trace-out")?),
            "--quiet" => args.quiet = true,
            "--report" => args.report = true,
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn build_config(args: &Args) -> Result<MeshConfig, String> {
    let mut config = if let Some(path) = &args.poly_airfoil {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let poly = adm2d::delaunay::read_poly(&mut std::io::BufReader::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        // The general front door's checks, so crossing loops are a typed
        // error here rather than an assert inside `with_farfield_margin`.
        let valid = poly
            .to_pslg()
            .validate()
            .map_err(|e| format!("{path}: {e}"))?;
        let loops = valid.closed_loops();
        if loops.is_empty() {
            return Err(format!("{path}: no closed loops"));
        }
        let on_loops: usize = loops.iter().map(Vec::len).sum();
        if on_loops < valid.pslg.segments.len() {
            let stray = valid.pslg.segments.len() - on_loops;
            return Err(format!("{path}: {stray} segment(s) lie on no closed loop"));
        }
        let loops = loops
            .into_iter()
            .enumerate()
            .map(|(i, l)| adm2d::airfoil::SurfaceLoop::new(format!("loop{i}"), l))
            .collect();
        MeshConfig::from_pslg(adm2d::airfoil::Pslg::with_farfield_margin(
            loops,
            args.farfield,
        ))
    } else if args.three_element {
        let pslg = adm2d::airfoil::three_element_highlift(&adm2d::airfoil::HighLiftParams {
            n_per_side: args.points,
            farfield_chords: args.farfield,
        });
        MeshConfig::from_pslg(pslg)
    } else {
        let foil = adm2d::airfoil::Naca4::from_digits(&args.naca)
            .ok_or_else(|| format!("invalid NACA code: {}", args.naca))?;
        let surface = foil.surface(args.points);
        let pslg = adm2d::airfoil::Pslg::with_farfield_margin(
            vec![adm2d::airfoil::SurfaceLoop::new(
                format!("naca{}", args.naca),
                surface,
            )],
            args.farfield,
        );
        MeshConfig::from_pslg(pslg)
    };
    config.growth = match args.growth_law.as_str() {
        "geometric" => Geometric::new(args.growth.0, args.growth.1).into(),
        "polynomial" => GrowthSpec::Polynomial {
            first_height: args.growth.0,
            exponent: args.growth.1,
        },
        "capped" => GrowthSpec::CappedGeometric {
            first_height: args.growth.0,
            ratio: args.growth.1,
            max_thickness: 20.0 * args.growth.0,
        },
        other => return Err(format!("unknown growth law: {other}")),
    };
    config.bl.height = args.height;
    config.sizing_max_area = args.max_area;
    config.bl_subdomains = args.subdomains;
    config.inviscid_subdomains = args.subdomains;
    Ok(config)
}

enum RunOutput {
    /// The airfoil boundary-layer pipeline.
    Pipeline(PipelineResult),
    /// The general PSLG front door.
    Pslg(PslgMeshResult),
    /// The solve -> estimate -> remesh adaptation loop.
    Adapt(AdaptResult),
}

impl RunOutput {
    /// What every path produces: the mesh and the run's trace.
    fn parts(&self) -> (&adm2d::delaunay::Mesh, &adm2d::trace::Tracer) {
        match self {
            RunOutput::Pipeline(r) => (&r.mesh, &r.trace),
            RunOutput::Pslg(r) => (&r.mesh, &r.trace),
            RunOutput::Adapt(r) => (&r.mesh, &r.trace),
        }
    }
}

/// Meshes a general `.poly` domain: validate, refine against the user
/// sizing function, merge — serial and `--ranks N` runs are
/// byte-identical.
fn run_poly(args: &Args, path: &str) -> Result<PslgMeshResult, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let poly = adm2d::delaunay::read_poly(&mut std::io::BufReader::new(file))
        .map_err(|e| format!("{path}: {e}"))?;
    let pslg = poly.to_pslg();
    let bbox = pslg.bbox();
    let base: Box<dyn SizingFn> = match args.sizing {
        Some((h0, rate)) => {
            if h0 <= 0.0 || rate < 0.0 {
                return Err("--sizing needs H0 > 0 and RATE >= 0".to_string());
            }
            // Boundary = every vertex referenced by a constraint segment.
            let mut on_boundary = vec![false; pslg.points.len()];
            for &(a, b) in &pslg.segments {
                for v in [a, b] {
                    if let Some(f) = on_boundary.get_mut(v as usize) {
                        *f = true;
                    }
                }
            }
            let body: Vec<_> = pslg
                .points
                .iter()
                .zip(&on_boundary)
                .filter(|(_, &ob)| ob)
                .map(|(&p, _)| p)
                .collect();
            if body.is_empty() {
                return Err(format!("{path}: no constraint segments to grade from"));
            }
            Box::new(GradedSizing::new(&body, h0, rate, args.max_area, 256))
        }
        None => Box::new(UniformH(bbox.min.distance(bbox.max) / 30.0)),
    };
    let sized: Box<dyn SizingFn> = match args.gradation {
        Some(g) => {
            if g <= 0.0 {
                return Err("--gradation needs G > 0".to_string());
            }
            Box::new(GradationLimited::new(base, &pslg.points, g))
        }
        None => base,
    };
    let executor = match args.ranks {
        Some(r) if r > 1 => Executor::ranks(r),
        _ => Executor::Pool,
    };
    let pool = adm2d::mpirt::Pool::new(default_merge_threads());
    let shard_out = args.out_shards.as_deref().map(std::path::Path::new);
    let params = RefineParams::default();
    let out = mesh_pslg_on(&pslg, &sized, &params, executor, &pool, shard_out)
        .map_err(|e| format!("{path}: {e}"))?;
    if let (Some(dir), false) = (&args.out_shards, args.quiet) {
        eprintln!("wrote {} shard(s) to {dir}", out.components);
    }
    Ok(out)
}

fn run(args: &Args) -> Result<RunOutput, String> {
    if let Some(path) = &args.poly {
        if args.adapt.is_some() {
            return Err("--adapt applies to the airfoil pipelines, not --poly".to_string());
        }
        return Ok(RunOutput::Pslg(run_poly(args, &path.clone())?));
    }
    let mut config = build_config(args)?;
    config.shard_out = args.out_shards.as_ref().map(std::path::PathBuf::from);
    if let Some(cycles) = args.adapt {
        if cycles == 0 {
            return Err("--adapt needs at least one cycle".to_string());
        }
        let opts = AdaptOptions {
            cycles,
            target_error: args.adapt_target,
            ranks: args.ranks.unwrap_or(1).max(1),
            ..Default::default()
        };
        let result = adapt(&config, &opts);
        if let (Some(dir), false) = (&args.out_shards, args.quiet) {
            eprintln!("wrote per-cycle shards under {dir}/cycle-NNN");
        }
        return Ok(RunOutput::Adapt(result));
    }
    if args.adapt_target.is_some() {
        return Err("--adapt-target needs --adapt".to_string());
    }
    let result = match args.ranks {
        Some(r) if r > 1 => generate_parallel(&config, r),
        _ => generate(&config),
    };
    if let (Some(dir), false) = (&args.out_shards, args.quiet) {
        eprintln!("wrote shards to {dir}");
    }
    Ok(RunOutput::Pipeline(result))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let started = std::time::Instant::now();
    let result = match run(&args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let wall = started.elapsed();
    let (mesh, trace) = result.parts();
    if !args.quiet {
        eprintln!("triangles        : {}", mesh.num_triangles());
        eprintln!("vertices         : {}", mesh.num_vertices());
        match &result {
            RunOutput::Pipeline(r) => {
                let s = &r.stats;
                eprintln!(
                    "boundary layer   : {} points, {} triangles",
                    s.bl_points, s.bl_triangles
                );
                eprintln!("inviscid region  : {} triangles", s.inviscid_triangles);
                eprintln!("border splits    : {}", s.border_splits);
            }
            RunOutput::Adapt(r) => {
                eprintln!("adaptation       : {} cycle(s)", r.cycles.len());
                eprintln!(
                    "cycle  triangles      dofs    error-total  err*sqrt(dofs)  equidist  cg-iters"
                );
                for c in &r.cycles {
                    eprintln!(
                        "{:>5}  {:>9}  {:>8}  {:>11.5e}  {:>14.5e}  {:>8.2}  {:>8}",
                        c.cycle,
                        c.triangles,
                        c.dofs,
                        c.error_total,
                        c.error_per_dof,
                        c.equidistribution,
                        c.solve_iters
                    );
                }
            }
            RunOutput::Pslg(r) => {
                eprintln!("components       : {}", r.components);
                if !r.report.is_clean() {
                    eprintln!(
                        "input repairs    : {} merged points, {} degenerate + {} duplicate segments dropped",
                        r.report.merged_points,
                        r.report.dropped_degenerate,
                        r.report.dropped_duplicate
                    );
                }
                eprintln!(
                    "refinement       : {} segment splits, {} circumcenters",
                    r.refine_stats.segment_splits, r.refine_stats.circumcenters
                );
            }
        }
        let q = mesh_quality(mesh);
        eprintln!(
            "angles           : {:.1} .. {:.1} degrees",
            q.min_angle.to_degrees(),
            q.max_angle.to_degrees()
        );
        eprintln!("wall time        : {:.2}s", wall.as_secs_f64());
    }
    if args.report {
        let q = mesh_quality(mesh);
        eprintln!("--- quality report ---");
        eprintln!("triangles        : {}", q.triangles);
        eprintln!("total area       : {:.4}", q.total_area);
        eprintln!(
            "area range       : {:.3e} .. {:.3e}",
            q.min_area, q.max_area
        );
        eprintln!("max R/l ratio    : {:.3}", q.max_ratio);
        eprintln!("min-angle histogram (boundary-layer slivers are intentional):");
        let labels = ["0-10", "10-20", "20-30", "30-40", "40-50", "50-60"];
        let total: usize = q.angle_histogram.iter().sum();
        for (lab, &count) in labels.iter().zip(&q.angle_histogram) {
            let pct = 100.0 * count as f64 / total.max(1) as f64;
            let bar = "#".repeat((pct / 2.0).round() as usize);
            eprintln!("  {lab:>5} deg  {count:>8}  {pct:>5.1}%  {bar}");
        }
    }
    let write = |path: &str, f: &dyn Fn(&mut BufWriter<File>) -> std::io::Result<()>| {
        File::create(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|file| {
                let mut w = BufWriter::new(file);
                f(&mut w).map_err(|e| format!("{path}: {e}"))
            })
    };
    let mut status = ExitCode::SUCCESS;
    if let Some(p) = &args.out {
        if let Err(e) = write(p, &|w| write_ascii(mesh, w)) {
            eprintln!("error: {e}");
            status = ExitCode::FAILURE;
        } else if !args.quiet {
            eprintln!("wrote {p}");
        }
    }
    if let Some(p) = &args.binary_out {
        if let Err(e) = write(p, &|w| write_binary(mesh, w)) {
            eprintln!("error: {e}");
            status = ExitCode::FAILURE;
        } else if !args.quiet {
            eprintln!("wrote {p}");
        }
    }
    if let Some(p) = &args.svg {
        if let Err(e) = write(p, &|w| write_svg(mesh, w, 1600.0)) {
            eprintln!("error: {e}");
            status = ExitCode::FAILURE;
        } else if !args.quiet {
            eprintln!("wrote {p}");
        }
    }
    if let Some(p) = &args.trace_out {
        let snap = trace.snapshot();
        if let Err(e) = write(p, &|w| adm2d::trace::chrome::write_chrome_trace(w, &snap)) {
            eprintln!("error: {e}");
            status = ExitCode::FAILURE;
        } else if !args.quiet {
            eprintln!("wrote {p}");
            for row in trace.phase_totals() {
                eprintln!("  {:<24} x{:<5} {:>9.3}s", row.name, row.count, row.total_s);
            }
        }
    }
    status
}
