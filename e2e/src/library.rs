//! The five library workloads, timed with tracing off.

use crate::inputs::{self, Budget, Workload};
use crate::stats::median;
use crate::verify::{expected, peak_rss_mb, Fingerprint};
use adm_core::{
    adapt, generate, generate_parallel, mesh_pslg, AdaptOptions, GradedSizing, PslgMeshError,
};
use adm_delaunay::mesh::Mesh;
use adm_delaunay::refine::RefineParams;
use adm_geom::pslg::Pslg;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one timed run measured (library and serve workloads alike).
#[derive(Debug, Default)]
pub struct Timed {
    pub setup_s: f64,
    /// Wall seconds of every successful op, in order.
    pub op_s: Vec<f64>,
    /// Wall seconds of the timed section (sum of ops for a single
    /// caller; start-to-last-reply for concurrent clients).
    pub wall_s: f64,
    /// Final-mesh triangles over all successful ops.
    pub triangles: u64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// Response payload bytes of the successful requests (serve only).
    pub bytes: u64,
    /// Canonical-ASCII digests seen: the workload's mesh (library), one
    /// per request in order (`serve_miss`), one per key (`serve_hot`).
    pub digests: Vec<String>,
    /// Why ops failed or outputs were rejected; empty when correct.
    pub errors: Vec<String>,
}

impl Timed {
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// Output of one library op: counts always, the mesh unless the op
/// already hashed it (the adaptation loop does).
pub struct OpOut {
    pub fp: Fingerprint,
    pub mesh: Option<Mesh>,
}

impl OpOut {
    pub fn of(mesh: Mesh) -> OpOut {
        OpOut {
            fp: Fingerprint::counts(&mesh),
            mesh: Some(mesh),
        }
    }

    /// Counts plus digest, hashing the mesh now if the op did not.
    pub fn full(&self) -> Fingerprint {
        match (&self.fp.sha256, &self.mesh) {
            (None, Some(mesh)) => Fingerprint::full(mesh),
            _ => self.fp.clone(),
        }
    }
}

pub type Op = Box<dyn FnMut() -> OpOut>;

/// The plate PSLG and its sizing, as `admesh --poly --sizing` builds them.
pub fn plate_inputs(seed: u64) -> (Pslg, GradedSizing) {
    let text = inputs::plate_poly_text(seed);
    let poly = adm_delaunay::read_poly(&mut text.as_bytes()).expect("plate .poly parses");
    let pslg = poly.to_pslg();
    let mut on_boundary = vec![false; pslg.points.len()];
    for &(a, b) in &pslg.segments {
        on_boundary[a as usize] = true;
        on_boundary[b as usize] = true;
    }
    let body: Vec<_> = pslg
        .points
        .iter()
        .zip(&on_boundary)
        .filter(|(_, &ob)| ob)
        .map(|(&p, _)| p)
        .collect();
    let (h0, rate, max_area, samples) = inputs::PLATE_SIZING;
    (pslg, GradedSizing::new(&body, h0, rate, max_area, samples))
}

fn plate_mesh(r: Result<adm_core::PslgMeshResult, PslgMeshError>) -> OpOut {
    OpOut::of(r.expect("plate meshes").mesh)
}

fn adapt_out(config: &adm_core::MeshConfig, opts: &AdaptOptions) -> OpOut {
    let r = adapt(config, opts);
    let mut fp = Fingerprint::counts(&r.mesh);
    fp.sha256 = Some(r.cycles.last().expect("a cycle ran").mesh_digest.clone());
    OpOut { fp, mesh: None }
}

/// Generates the workload's inputs from `seed`, runs the warm-up op and
/// returns the op to time. The second value is the warm-up's output when
/// the warm-up is the op itself. (`ranks2_1m` is held to the *serial*
/// driver's mesh through `expected.json`, where it shares `inviscid_1m`'s
/// entries, and in the traced pass, which runs both drivers.)
pub fn prepare(w: Workload, seed: u64) -> (Op, Option<OpOut>) {
    match w {
        Workload::Inviscid1m | Workload::BlHeavy => {
            let cfg = if w == Workload::Inviscid1m {
                inputs::inviscid_config(seed)
            } else {
                inputs::bl_heavy_config(seed)
            };
            let warm = OpOut::of(generate(&cfg).mesh);
            (Box::new(move || OpOut::of(generate(&cfg).mesh)), Some(warm))
        }
        Workload::Ranks2_1m => {
            let cfg = inputs::inviscid_config(seed);
            let warm = OpOut::of(generate_parallel(&cfg, 2).mesh);
            (
                Box::new(move || OpOut::of(generate_parallel(&cfg, 2).mesh)),
                Some(warm),
            )
        }
        Workload::AdaptNaca => {
            let (cfg, opts) = inputs::adapt_inputs(seed);
            // Warm-up: one cycle (mesh + solve + estimate) touches every
            // layer the timed op uses at a fifth of its cost.
            let one = AdaptOptions {
                cycles: 1,
                ..opts.clone()
            };
            adapt_out(&cfg, &one);
            (Box::new(move || adapt_out(&cfg, &opts)), None)
        }
        Workload::PslgPlate => {
            let (pslg, sizing) = plate_inputs(seed);
            let params = RefineParams::default();
            let warm = plate_mesh(mesh_pslg(&pslg, &sizing, &params));
            (
                Box::new(move || plate_mesh(mesh_pslg(&pslg, &sizing, &params))),
                Some(warm),
            )
        }
        Workload::ServeMiss | Workload::ServeHot => {
            unreachable!("serve workloads live in serve.rs")
        }
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// `setup_s` of a run whose first set-up took `first_s`: the set-up is
/// repeated at least twice more, then until four seconds of set-up have
/// been measured or nine are done, and the median is reported — one
/// set-up of a few hundredths of a second is mostly noise, and a gated
/// metric has to repeat. The repeats run after the timed section, each
/// torn down off the clock, so that the ops and the high-water mark see
/// the heap of one set-up, not of several.
pub fn median_setup_s<T>(
    first_s: f64,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> f64 {
    let mut times = vec![first_s];
    while times.len() < 3 || (times.len() < 9 && times.iter().sum::<f64>() < 4.0) {
        let (state, dt) = timed(&mut setup);
        times.push(dt);
        teardown(state);
    }
    median(&times)
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Times a library workload: set-up (inputs + warm-up), then ops until
/// the budget is spent. Every rep's counts are checked as it finishes;
/// the warm-up's and the last rep's canonical digests are checked
/// outside the timed region.
///
/// `peak_rss_mb` is `VmHWM` right after the process's first full op —
/// the warm-up where that is the op itself, else the first timed op. Only
/// that reading is the op's footprint: on a used heap glibc's dynamic
/// mmap threshold turns the big frees into fragmentation, and the mark
/// creeps (`inviscid_1m`: 237 MB ± 1 % after the first op, 305 – 338 MB
/// after seven) by an amount that depends on how many ops the run fits.
pub fn run(w: Workload, seed: u64, budget: Budget) -> Timed {
    let mut out = Timed::default();
    let pinned = expected(w, seed);

    let setup = || prepare(w, seed);
    let ((mut op, warm), first_setup_s) = timed(setup);
    let mut peak = warm.is_some().then(peak_rss_mb);

    // The reference every rep must match: the pinned fingerprint where
    // one exists, else the warm-up's, else (adapt on an unpinned seed)
    // the first rep's.
    let warm = warm.map(|o| o.full());
    if let (Some(warm), Some(pinned)) = (&warm, &pinned) {
        out.attempted += 1;
        if let Err(e) = warm.check(pinned, "warm-up vs expected.json") {
            out.fail(e);
        }
    }
    let mut reference = pinned.or(warm);

    let reps = w.reps(budget);
    let mut last: Option<OpOut> = None;
    loop {
        let done = out.op_s.len() + out.failed as usize;
        let more = match (reps, budget) {
            (Some(n), _) => done < n,
            (None, Budget::Seconds(s)) => out.wall_s < s || done < 2,
            (None, _) => unreachable!("fixed budgets have rep counts"),
        };
        if !more {
            break;
        }
        // The previous mesh is released before the clock starts so the
        // high-water mark is one op's, not two.
        last = None;
        out.attempted += 1;
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(&mut op));
        let dt = t.elapsed().as_secs_f64();
        out.wall_s += dt;
        match result {
            Err(p) => out.fail(format!("op panicked: {}", panic_text(p))),
            Ok(o) => {
                peak.get_or_insert_with(peak_rss_mb);
                let want = reference.get_or_insert_with(|| o.full());
                match o.fp.check(want, "rep") {
                    Err(e) => out.fail(e),
                    Ok(()) => {
                        out.op_s.push(dt);
                        out.triangles += o.fp.triangles as u64;
                        last = Some(o);
                    }
                }
            }
        }
    }
    out.peak_rss_mb = peak.unwrap_or_else(peak_rss_mb);

    if let (Some(last), Some(want)) = (&last, &reference) {
        let full = last.full();
        if let Err(e) = full.check(want, "last rep") {
            // The op was already counted as a success: take it back.
            out.op_s.pop();
            out.triangles -= full.triangles as u64;
            out.fail(e);
        }
        out.digests.extend(full.sha256);
    }
    drop((op, last));
    out.setup_s = median_setup_s(first_setup_s, setup, drop);
    out
}
