//! Shared experiment workloads.

use adm_core::MeshConfig;

/// The scaling case: larger mesh, more subdomains, so that 256 simulated
/// ranks still have multiple tasks each.
pub fn scaling_config(points_per_side: usize, subdomains: usize) -> MeshConfig {
    let mut c = MeshConfig::naca0012(points_per_side);
    c.growth = adm_blayer::Geometric::new(1e-4, 1.18).into();
    // A fine far field keeps the largest indivisible subdomain a tiny
    // fraction of the total work, as in the paper's 172.8M-triangle run.
    c.sizing_max_area = 0.005;
    c.nearbody_margin = 0.15;
    c.bl_subdomains = subdomains;
    c.inviscid_subdomains = subdomains;
    c.merge_threads = 0; // task costs feed adm-simnet: measure them uncontended
    c
}
