//! The anisotropic adaptation loop: solve → estimate → remesh.
//!
//! Reframes the one-shot pipeline as a re-entrant cycle driver. Each
//! cycle re-runs the full decompose/mesh/merge stack (the airfoil plan of
//! [`crate::pipeline`], on either executor) against the cycle-invariant
//! [`GeomPrelude`], solves potential flow on the merged mesh, recovers a
//! Hessian-based metric from the stream function, and installs the
//! gradation-limited metric as the next cycle's extra sizing channel. The
//! loop stops after `cycles` rounds or as soon as the estimated error
//! drops under `target_error`.
//!
//! Every per-cycle invariant of the one-shot pipeline is preserved: the
//! mesh of a cycle is byte-identical between the serial and the N-rank
//! driver (the metric field is a deterministic function of the previous
//! cycle's mesh, which is itself schedule-independent), shard output goes
//! to a `cycle-NNN` subdirectory per cycle so the PR 8 shard path carries
//! the inter-cycle meshes, and the driver's own trace nests
//! `adapt.stage.*` spans inside per-cycle `adapt.cycle` spans under the
//! root `pipeline` span.

use crate::config::MeshConfig;
use crate::hash::sha256_hex;
use crate::inviscid::conforming_h0;
use crate::pipeline::{build_prelude, generate_on, GeomPrelude, PipelineResult, PipelineStats};
use crate::sizing::{AnchorSet, GradationLimited, MetricSizing};
use adm_delaunay::mesh::Mesh;
use adm_geom::metric::MetricField;
use adm_geom::point::Point2;
use adm_mpirt::{Executor, Pool};
use adm_solver::{solve_potential_flow, zz_error, FlowConditions, MetricParams};
use adm_trace::{Tracer, Track};
use std::sync::Arc;

/// Controls for one adaptation run.
#[derive(Clone)]
pub struct AdaptOptions {
    /// Number of solve → estimate → remesh cycles (cycle 0 meshes with
    /// no metric, so `cycles = 1` reproduces the one-shot pipeline plus
    /// one solve/estimate pass).
    pub cycles: usize,
    /// Early exit: stop after any cycle whose total estimated error is
    /// at or below this value.
    pub target_error: Option<f64>,
    /// Ranks for the per-cycle mesh stage: `<= 1` runs the task tree on
    /// the in-process pool, more on that many threaded ranks. The mesh bytes
    /// are identical either way.
    pub ranks: usize,
    /// Free-stream conditions for the per-cycle potential-flow solve.
    pub flow: FlowConditions,
    /// Hessian → metric conversion (clamps and target error density).
    pub metric: MetricParams,
    /// Gradation (growth per unit distance) limiting the metric channel
    /// across the anchor set.
    pub gradation: f64,
    /// Cap on the number of gradation anchors subsampled from the
    /// boundary-layer outer borders.
    pub max_anchors: usize,
    /// The metric's `h_min` is floored at this fraction of the outer
    /// borders' conforming length. Smaller values let the estimator
    /// drive the error lower per cycle at a higher per-cycle cost; see
    /// the floor discussion in [`adapt_with_runner`].
    pub h_floor_factor: f64,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            cycles: 3,
            target_error: None,
            ranks: 1,
            flow: FlowConditions::default(),
            metric: MetricParams::default(),
            gradation: 0.25,
            max_anchors: 256,
            h_floor_factor: 0.25,
        }
    }
}

/// What one cycle produced: mesh size, error figures, and the digests
/// that pin the determinism contract (identical inputs ⇒ identical
/// digests at any rank count).
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Cycle index (0-based).
    pub cycle: usize,
    /// Live triangles in the cycle's merged mesh.
    pub triangles: usize,
    /// Vertices in the cycle's merged mesh.
    pub vertices: usize,
    /// Degrees of freedom the estimator saw (used vertices).
    pub dofs: usize,
    /// Total ZZ-recovered error `sqrt(sum eta_T^2)`.
    pub error_total: f64,
    /// Mesh-economy figure of merit: `error_total * sqrt(dofs)` (scale
    ///-free for an optimal uniform family; lower = better adapted).
    pub error_per_dof: f64,
    /// `max(eta) / mean(eta)` — 1.0 is perfect equidistribution.
    pub equidistribution: f64,
    /// SHA-256 of the cycle mesh's canonical ASCII encoding.
    pub mesh_digest: String,
    /// SHA-256 of the recovered metric field's canonical bytes.
    pub metric_digest: String,
    /// CG iterations the potential-flow solve took.
    pub solve_iters: usize,
}

/// Output of an adaptation run: the final mesh plus the per-cycle story.
pub struct AdaptResult {
    /// The last cycle's merged mesh, in canonical vertex/triangle order
    /// (identical bytes no matter which runner produced it).
    pub mesh: Mesh,
    /// The last cycle's pipeline aggregates.
    pub stats: PipelineStats,
    /// One report per executed cycle.
    pub cycles: Vec<CycleReport>,
    /// The driver's trace: `adapt.cycle` spans (one per cycle) nesting
    /// `adapt.stage.{mesh,solve,estimate}` under the root `pipeline`
    /// span. Per-cycle pipeline traces live in their own tracers.
    pub trace: Tracer,
}

/// SHA-256 hex digest of a mesh's canonical ASCII encoding — the same
/// bytes the determinism tests compare across rank counts.
pub fn mesh_digest_hex(mesh: &Mesh) -> String {
    let mut buf = Vec::new();
    adm_delaunay::io::write_ascii_canonical(mesh, &mut buf).expect("in-memory write cannot fail");
    sha256_hex(&buf)
}

/// SHA-256 hex digest of a metric field's canonical byte encoding.
pub fn metric_digest_hex(field: &MetricField) -> String {
    sha256_hex(&field.canonical_bytes())
}

/// Runs the adaptation loop with the built-in per-cycle runners
/// (in-process on one pool for `ranks <= 1`, threaded-transport ranks otherwise).
pub fn adapt(config: &MeshConfig, opts: &AdaptOptions) -> AdaptResult {
    let ranks = opts.ranks;
    let pool = Pool::new(config.merge_threads);
    adapt_with_runner(config, opts, &mut |cfg, pre| {
        let executor = match ranks {
            0 | 1 => Executor::Pool,
            _ => Executor::ranks(ranks),
        };
        generate_on(cfg, Some(pre), executor, &pool)
    })
}

/// [`adapt`] over an injected per-cycle mesh runner — the seam the
/// determinism tests use to drive cycles on a simulated transport.
pub fn adapt_with_runner(
    config: &MeshConfig,
    opts: &AdaptOptions,
    runner: &mut dyn FnMut(&MeshConfig, &GeomPrelude) -> PipelineResult,
) -> AdaptResult {
    assert!(opts.cycles >= 1, "at least one cycle");
    let tracer = Tracer::wall();
    tracer.name_track(Track::ROOT, "adapt driver");
    let root = tracer.span(Track::ROOT, "pipeline");

    // Stage 0: cycle-invariant geometry, built once and reused by every
    // cycle's mesh stage.
    let prelude_span = tracer.span(Track::ROOT, "adapt.prelude");
    let prelude = build_prelude(config);
    prelude_span.close();

    // Floor the metric's resolution demand at a fraction of the
    // conforming length: the decomposition re-discretizes its interface
    // borders against the *composed* sizing each cycle (so decoupled
    // refinement stays split-free by construction), and splits of the
    // boundary-layer border are repaired by interface propagation — but
    // an unbounded metric could still demand arbitrarily fine edges at
    // a solution feature and blow the cycle cost. A fraction of the
    // conforming h0 allows real refinement where the error concentrates
    // while keeping each cycle within a small factor of the last.
    let floor = opts.h_floor_factor * conforming_h0(&prelude.outer_borders);

    // Gradation anchors: a bounded subsample of the outer-border points,
    // distance-table built once and shared across every cycle's limiter
    // (the anchor-reuse path).
    let border_pts: Vec<Point2> = prelude.outer_borders.iter().flatten().copied().collect();
    let stride = border_pts.len().div_ceil(opts.max_anchors.max(1)).max(1);
    let anchor_pts: Vec<Point2> = border_pts.iter().step_by(stride).copied().collect();
    let anchor_set = Arc::new(AnchorSet::new(&anchor_pts));

    // Metric params are resolved once and held fixed across cycles. In
    // particular, an unset interpolation budget (`eps: None`) is pinned
    // to the cycle-0 auto value: re-picking it per cycle would re-halve
    // the median error forever (every cycle demands more resolution than
    // the last, even after the estimated error saturates), while a
    // frozen budget makes the loop a fixed-point iteration — once the
    // mesh satisfies the budget, later cycles reproduce it.
    let mut params = opts.metric;
    params.h_min = params.h_min.max(floor);

    let mut cfg = config.clone();
    let mut reports: Vec<CycleReport> = Vec::new();
    let mut last: Option<PipelineResult> = None;
    let mut last_canon: Option<Mesh> = None;
    for cycle in 0..opts.cycles {
        let cycle_span = tracer.span(Track::ROOT, "adapt.cycle");
        // Each cycle's shard set is a complete, digest-verified snapshot
        // of that cycle's merge inputs — the inter-cycle mesh carrier.
        if let Some(dir) = &config.shard_out {
            cfg.shard_out = Some(dir.join(format!("cycle-{cycle:03}")));
        }

        let mesh_span = tracer.span(Track::ROOT, "adapt.stage.mesh");
        let result = runner(&cfg, &prelude);
        mesh_span.close_with(&[("triangles", result.mesh.num_triangles() as u64)]);

        // Solve and estimate on the *canonicalized* mesh, not the raw
        // merge output: serial and parallel merges leave different
        // internal vertex/triangle orderings behind (their canonical
        // bytes agree, their slot orders do not), and CG rounding plus
        // metric sample order both follow slot order. Round-tripping
        // through the canonical encoding makes every downstream float —
        // and therefore the next cycle's metric and mesh — independent
        // of which driver produced the triangulation.
        let mut canon = Vec::new();
        adm_delaunay::io::write_ascii_canonical(&result.mesh, &mut canon)
            .expect("in-memory write cannot fail");
        let mesh_digest = sha256_hex(&canon);
        let cmesh = adm_delaunay::io::read_ascii(&mut canon.as_slice())
            .expect("canonical encoding must parse back");

        let solve_span = tracer.span(Track::ROOT, "adapt.stage.solve");
        let flow = solve_potential_flow(&cmesh, &opts.flow);
        solve_span.close_with(&[("iters", flow.residuals.len() as u64)]);

        let estimate_span = tracer.span(Track::ROOT, "adapt.stage.estimate");
        let est = zz_error(&cmesh, &flow.psi);
        if params.eps.is_none() {
            params.eps = Some(adm_solver::auto_interpolation_eps(&cmesh, &flow.psi));
        }
        let metric = adm_solver::hessian_metric(&cmesh, &flow.psi, &params);
        estimate_span.close_with(&[("dofs", est.dofs as u64)]);

        reports.push(CycleReport {
            cycle,
            triangles: result.mesh.num_triangles(),
            vertices: result.mesh.num_vertices(),
            dofs: est.dofs,
            error_total: est.total,
            error_per_dof: est.error_per_dof(),
            equidistribution: est.equidistribution(),
            mesh_digest,
            metric_digest: metric_digest_hex(&metric),
            solve_iters: flow.residuals.len(),
        });
        cycle_span.close_with(&[
            ("cycle", cycle as u64),
            ("triangles", result.mesh.num_triangles() as u64),
        ]);
        last = Some(result);
        last_canon = Some(cmesh);

        if let Some(target) = opts.target_error {
            if est.total <= target {
                break;
            }
        }
        // Install the recovered metric — gradation-limited over the
        // shared anchor table — as the next cycle's sizing channel.
        let limited = GradationLimited::with_anchor_set(
            MetricSizing::new(Arc::new(metric)),
            anchor_set.clone(),
            opts.gradation,
        );
        cfg.extra_sizing = Some(Arc::new(limited));
    }
    root.close();

    let last = last.expect("at least one cycle ran");
    AdaptResult {
        // Return the canonicalized mesh, not the raw merge output: raw
        // slot order is schedule-dependent (serial vs N-rank merges
        // interleave differently), so slot-order writers downstream
        // (`write_ascii`, `write_binary`) would leak the driver into the
        // bytes. The canonical round-trip already happened above.
        mesh: last_canon.expect("at least one cycle ran"),
        stats: last.stats,
        cycles: reports,
        trace: tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coarse_config() -> MeshConfig {
        let mut c = MeshConfig::naca0012(24);
        c.sizing_max_area = 6.0;
        c.bl_subdomains = 4;
        c.inviscid_subdomains = 4;
        c.merge_threads = 0;
        c
    }

    #[test]
    fn two_cycles_refine_where_error_lives() {
        let config = coarse_config();
        let opts = AdaptOptions {
            cycles: 2,
            ..Default::default()
        };
        let out = adapt(&config, &opts);
        assert_eq!(out.cycles.len(), 2);
        // Cycle 1 sees the metric channel: it must add resolution.
        assert!(
            out.cycles[1].triangles > out.cycles[0].triangles,
            "metric cycle did not refine ({} -> {})",
            out.cycles[0].triangles,
            out.cycles[1].triangles
        );
        // And the digests are real (distinct meshes, nonempty hashes).
        assert_ne!(out.cycles[0].mesh_digest, out.cycles[1].mesh_digest);
        assert_eq!(out.cycles[0].mesh_digest.len(), 64);
        assert_eq!(out.cycles[0].metric_digest.len(), 64);
    }

    #[test]
    fn cycle_zero_equals_plain_generate() {
        // The staged path with no metric must reproduce the one-shot
        // pipeline bit for bit.
        let config = coarse_config();
        let plain = crate::pipeline::generate(&config);
        let opts = AdaptOptions {
            cycles: 1,
            ..Default::default()
        };
        let out = adapt(&config, &opts);
        assert_eq!(out.cycles[0].mesh_digest, mesh_digest_hex(&plain.mesh));
    }

    #[test]
    fn target_error_stops_early() {
        let config = coarse_config();
        let opts = AdaptOptions {
            cycles: 4,
            target_error: Some(f64::INFINITY),
            ..Default::default()
        };
        let out = adapt(&config, &opts);
        assert_eq!(out.cycles.len(), 1, "infinite target must stop at once");
    }
}
