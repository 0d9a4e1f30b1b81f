//! Push-button configuration.
//!
//! The paper's generator is "push-button": the user provides the input
//! geometry and boundary-layer parameters and waits for the mesh (§I).
//! [`MeshConfig`] is that input surface.

use adm_airfoil::{naca0012_domain, three_element_highlift, HighLiftParams, Pslg};
use adm_blayer::{BlParams, Geometric, GrowthSpec};

/// Everything the generator needs.
#[derive(Clone)]
pub struct MeshConfig {
    /// Input geometry (airfoil loops + far field).
    pub pslg: Pslg,
    /// Boundary-layer growth law.
    pub growth: GrowthSpec,
    /// Boundary-layer controls (height, corner thresholds, insertion).
    pub bl: BlParams,
    /// Isotropic edge length at the edge of the boundary layer; `None`
    /// derives it from the mean surface spacing.
    pub sizing_h0: Option<f64>,
    /// Sizing growth rate (edge length per unit distance from the body).
    pub sizing_rate: f64,
    /// Far-field cap on the target triangle area.
    pub sizing_max_area: f64,
    /// Near-body box margin around the boundary layer, in reference
    /// chords.
    pub nearbody_margin: f64,
    /// Target number of boundary-layer subdomains (coarse partitioner).
    pub bl_subdomains: usize,
    /// Target number of decoupled inviscid subdomains.
    pub inviscid_subdomains: usize,
    /// Worker threads for the shared-memory pool (concurrent subdomain
    /// tasks, forked divide-and-conquer triangulation, tree-parallel
    /// merge). `0` runs all on the calling thread — same output bits.
    pub merge_threads: usize,
    /// Distributed output: when set, every merge-input mesh is also
    /// streamed to a per-subdomain shard file (`shard-<path>.adm`), plus
    /// one manifest, in this directory — see `crate::shard`. The in-process
    /// merge still runs; consumers that accept shards can skip it
    /// entirely and reconstruct offline with `shard-cat`.
    pub shard_out: Option<std::path::PathBuf>,
    /// Extra sizing constraint composed (pointwise minimum) with the
    /// built-in graded field. `None` — the default — leaves the graded
    /// field bit-identical to builds that predate this hook. The
    /// adaptation loop installs its gradation-limited metric channel
    /// here between cycles.
    pub extra_sizing: Option<std::sync::Arc<dyn crate::sizing::SizingFn + Send + Sync>>,
}

/// Default pool width: the `ADM_MERGE_THREADS` environment variable if
/// set (the CI matrix pins it), otherwise the machine's available
/// parallelism capped at 8. The cap dates from when the pool ran only
/// the shallow merge tree; it is unexamined for the task tree.
pub fn default_merge_threads() -> usize {
    if let Ok(v) = std::env::var("ADM_MERGE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

impl MeshConfig {
    /// Sensible defaults for a single NACA 0012 (the Figure 2 case).
    pub fn naca0012(points_per_side: usize) -> Self {
        let pslg = naca0012_domain(points_per_side, 30.0);
        Self::from_pslg(pslg)
    }

    /// Defaults for the synthetic three-element high-lift configuration
    /// (the 30p30n stand-in).
    pub fn three_element(points_per_side: usize) -> Self {
        let pslg = three_element_highlift(&HighLiftParams {
            n_per_side: points_per_side,
            farfield_chords: 30.0,
        });
        Self::from_pslg(pslg)
    }

    /// Defaults derived from an arbitrary PSLG.
    pub fn from_pslg(pslg: Pslg) -> Self {
        let chord = pslg.reference_chord();
        MeshConfig {
            pslg,
            growth: Geometric::new(2e-4 * chord, 1.25).into(),
            bl: BlParams {
                height: 0.05 * chord,
                ..Default::default()
            },
            sizing_h0: None,
            sizing_rate: 0.12,
            sizing_max_area: 4.0 * chord * chord,
            nearbody_margin: 0.3,
            bl_subdomains: 32,
            inviscid_subdomains: 32,
            merge_threads: default_merge_threads(),
            shard_out: None,
            extra_sizing: None,
        }
    }

    /// Mean surface edge length over all loops.
    pub fn mean_surface_spacing(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for l in &self.pslg.loops {
            let n = l.points.len();
            for i in 0..n {
                total += l.points[i].distance(l.points[(i + 1) % n]);
                count += 1;
            }
        }
        total / count.max(1) as f64
    }

    /// The sizing edge length at the body (explicit or derived).
    pub fn effective_sizing_h0(&self) -> f64 {
        self.sizing_h0
            .unwrap_or_else(|| 1.5 * self.mean_surface_spacing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naca_defaults_scale_with_chord() {
        let c = MeshConfig::naca0012(40);
        assert!((c.growth.first_height() - 2e-4).abs() < 1e-12);
        assert!((c.bl.height - 0.05).abs() < 1e-12);
        assert!(c.mean_surface_spacing() > 0.0);
        assert!(c.effective_sizing_h0() > c.mean_surface_spacing());
    }

    #[test]
    fn three_element_has_three_loops() {
        let c = MeshConfig::three_element(40);
        assert_eq!(c.pslg.loops.len(), 3);
    }

    #[test]
    fn explicit_sizing_overrides_derived() {
        let mut c = MeshConfig::naca0012(40);
        c.sizing_h0 = Some(0.5);
        assert_eq!(c.effective_sizing_h0(), 0.5);
    }
}
