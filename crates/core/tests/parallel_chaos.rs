//! Fault-injected end-to-end runs: `generate_parallel` on the simulated
//! transport must produce the *same bytes* as the sequential pipeline, no
//! matter what the fault schedule does to the balancer.
//!
//! A failure prints the `(seed, ranks)` pair; replay it with
//! `FaultPlan::chaos(seed)` and the same rank count.

use adm_core::{
    generate, generate_on, generate_parallel, mesh_pslg, mesh_pslg_on, sha256_hex, Executor,
    MeshConfig, UniformH,
};
use adm_delaunay::io::write_ascii_canonical;
use adm_delaunay::mesh::Mesh;
use adm_delaunay::refine::RefineParams;
use adm_mpirt::{BalancerConfig, FaultPlan, Pool, SimTransport, Transport};
use std::sync::Arc;

fn tiny_config() -> MeshConfig {
    let mut c = MeshConfig::naca0012(24);
    c.sizing_max_area = 6.0;
    c.bl_subdomains = 4;
    c.inviscid_subdomains = 4;
    c
}

/// Canonical `.node`/`.ele` digest: the mesh-artifact identity the sweep
/// compares across schedules.
fn mesh_sha(mesh: &Mesh) -> String {
    let mut buf = Vec::new();
    write_ascii_canonical(mesh, &mut buf).expect("in-memory write");
    sha256_hex(&buf)
}

/// `ranks` simulated ranks under the chaos fault schedule of `seed`. Runs
/// on it take an inline pool: wall-clock workers would race virtual time.
fn chaos_executor(seed: u64, ranks: usize) -> Executor {
    let sim: Arc<dyn Transport> = Arc::new(SimTransport::new(ranks, FaultPlan::chaos(seed)));
    Executor::Ranks(sim, BalancerConfig::default())
}

/// Runs one fault-injected pipeline and returns the mesh digest plus the
/// trace fingerprint (spans + metrics recorded under virtual time).
fn chaos_run(config: &MeshConfig, seed: u64, ranks: usize) -> (String, (u64, u64)) {
    let out = generate_on(config, None, chaos_executor(seed, ranks), &Pool::new(0));
    adm_trace::check_well_formed(&out.trace.snapshot()).expect("malformed pipeline trace");
    (mesh_sha(&out.mesh), out.trace.fingerprint())
}

fn chaos_run_sha(config: &MeshConfig, seed: u64, ranks: usize) -> String {
    chaos_run(config, seed, ranks).0
}

#[test]
fn chaos_schedules_produce_bit_identical_mesh() {
    let config = tiny_config();
    let seq_sha = mesh_sha(&generate(&config).mesh);
    for (seed, ranks) in [(0u64, 2usize), (1, 4), (2, 1), (3, 2), (4, 4), (5, 3)] {
        let sha = chaos_run_sha(&config, seed, ranks);
        assert_eq!(
            sha, seq_sha,
            "mesh bytes diverged from sequential [seed {seed}, ranks {ranks}]"
        );
    }
}

#[test]
fn threaded_parallel_matches_sequential_sha() {
    let config = tiny_config();
    let seq_sha = mesh_sha(&generate(&config).mesh);
    for ranks in [1usize, 2, 4] {
        let par = generate_parallel(&config, ranks);
        assert_eq!(
            mesh_sha(&par.mesh),
            seq_sha,
            "production transport diverged [ranks {ranks}]"
        );
    }
}

/// The general-PSLG front door runs on the same driver, so it takes the
/// same fault schedules: multi-component fuzz domains on the simulator
/// must reproduce the serial digest, with a well-formed trace.
#[test]
fn chaos_schedules_produce_bit_identical_pslg_mesh() {
    let (sizing, params) = (UniformH(0.7), RefineParams::default());
    let mut multi_component = 0;
    for seed in 0..6u64 {
        let pslg = adm_geom::pslg_gen::generate_pslg((1 << 32) + seed).pslg;
        let Ok(serial) = mesh_pslg(&pslg, &sizing, &params) else {
            continue; // a planted crossing: rejected before any executor runs
        };
        multi_component += usize::from(serial.components > 1);
        for ranks in [2usize, 4] {
            let exec = chaos_executor(seed, ranks);
            let out = mesh_pslg_on(&pslg, &sizing, &params, exec, &Pool::new(0), None)
                .expect("chaos run meshes what the serial run meshed");
            adm_trace::check_well_formed(&out.trace.snapshot()).expect("malformed PSLG trace");
            assert_eq!(
                mesh_sha(&out.mesh),
                mesh_sha(&serial.mesh),
                "PSLG bytes diverged from serial [seed {seed}, ranks {ranks}]"
            );
        }
    }
    assert!(multi_component >= 2, "sweep balanced nothing");
}

/// Under the simulated transport the whole run — including every trace
/// span and counter, which are stamped with virtual time — is a pure
/// function of (seed, ranks): replaying a seed must reproduce the trace
/// byte-for-byte, and a different seed must not.
#[test]
fn same_seed_replays_identical_trace_fingerprint() {
    let config = tiny_config();
    for (seed, ranks) in [(0u64, 2usize), (1, 4)] {
        let (sha1, fp1) = chaos_run(&config, seed, ranks);
        let (sha2, fp2) = chaos_run(&config, seed, ranks);
        assert_eq!(sha1, sha2, "mesh differs on replay [seed {seed}]");
        assert_eq!(
            fp1, fp2,
            "trace fingerprint differs on replay [seed {seed}, ranks {ranks}]"
        );
    }
    let (_, fp_a) = chaos_run(&config, 0, 2);
    let (_, fp_b) = chaos_run(&config, 9, 2);
    assert_ne!(fp_a, fp_b, "distinct seeds produced identical traces");
}

/// Distributed output under fault injection: whatever the fault
/// schedule does to the balancer, the shard directory — manifest bytes
/// and every per-shard digest — must match the fault-free run's.
/// Shards are keyed by task path, so a rank crash that migrates a task
/// may only change *who* writes a shard, never *what* is written.
#[test]
fn chaos_schedules_produce_identical_shard_sets() {
    let root = std::env::temp_dir().join(format!("adm-chaos-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let shard_run = |tag: &str, seed: u64, ranks: usize| -> (Vec<u8>, Vec<(String, String)>) {
        let dir = root.join(tag);
        let mut config = tiny_config();
        config.shard_out = Some(dir.clone());
        let _ = generate_on(&config, None, chaos_executor(seed, ranks), &Pool::new(0));
        let manifest_bytes =
            std::fs::read(dir.join(adm_core::MANIFEST_NAME)).expect("manifest written");
        let manifest = adm_core::read_manifest(&dir).expect("manifest parses");
        let report = adm_core::verify_shards(&dir, &manifest).expect("shards readable");
        assert!(report.is_consistent(), "[{tag}] {:?}", report.problems);
        let digests = manifest
            .shards
            .iter()
            .map(|s| (s.file_name(), s.mesh_sha256.clone()))
            .collect();
        (manifest_bytes, digests)
    };

    // The fault-free reference: the production threaded transport with
    // shard_out set, no fault plan at all.
    let fault_free = {
        let dir = root.join("fault-free");
        let mut config = tiny_config();
        config.shard_out = Some(dir.clone());
        let _ = generate_parallel(&config, 2);
        let manifest_bytes =
            std::fs::read(dir.join(adm_core::MANIFEST_NAME)).expect("manifest written");
        let manifest = adm_core::read_manifest(&dir).expect("manifest parses");
        let digests: Vec<(String, String)> = manifest
            .shards
            .iter()
            .map(|s| (s.file_name(), s.mesh_sha256.clone()))
            .collect();
        (manifest_bytes, digests)
    };

    for (seed, ranks) in [(0u64, 2usize), (1, 4), (3, 2), (5, 3)] {
        let (manifest_bytes, digests) = shard_run(&format!("s{seed}r{ranks}"), seed, ranks);
        assert_eq!(
            manifest_bytes, fault_free.0,
            "manifest bytes diverged [seed {seed}, ranks {ranks}]"
        );
        assert_eq!(
            digests, fault_free.1,
            "shard digests diverged [seed {seed}, ranks {ranks}]"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The full 64-seed × {1,2,4,8} sweep (the CI `chaos` job runs this in
/// release mode; it is too slow for the debug tier-1 pass).
#[test]
#[ignore = "extended sweep: run in release via the chaos CI job"]
fn chaos_sweep_64_seeds_all_rank_counts() {
    let config = tiny_config();
    let seq_sha = mesh_sha(&generate(&config).mesh);
    for &ranks in &[1usize, 2, 4, 8] {
        for seed in 0..64u64 {
            let sha = chaos_run_sha(&config, seed, ranks);
            assert_eq!(
                sha, seq_sha,
                "mesh bytes diverged from sequential [seed {seed}, ranks {ranks}]"
            );
        }
    }
}
