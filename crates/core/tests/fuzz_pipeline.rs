//! Pipeline half of the PSLG fuzz gate: for every generated domain that
//! passes validation, the full front door (validate → CDT → carve →
//! per-component refinement → spliced merge) must terminate under its
//! insertion budget and produce sha256-identical meshes across repeated
//! serial runs and across 1/2/4-rank parallel runs. Planted-crossing
//! cases must surface the typed validation error through the pipeline.
//!
//! Seeds are disjoint from the CDT-level harness (`fuzz_pslg.rs` covers
//! 0..512; this one starts at 1 << 32) so CI fuzzes distinct cases at
//! both layers. `ADM_FUZZ_PIPELINE_CASES` overrides the count; failing
//! seeds are printed and dumped as `.poly` under
//! `ADM_FUZZ_ARTIFACT_DIR`.

use adm_core::{
    default_merge_threads, mesh_pslg, mesh_pslg_on, sha256_hex, Executor, PslgMeshError, UniformH,
};
use adm_delaunay::io::write_ascii_canonical;
use adm_delaunay::poly::{write_poly, PolyFile};
use adm_delaunay::refine::RefineParams;
use adm_geom::pslg::{Pslg, PslgError};
use adm_geom::pslg_gen::generate_pslg;
use adm_mpirt::Pool;

const SEED_BASE: u64 = 1 << 32;

fn case_count() -> u64 {
    std::env::var("ADM_FUZZ_PIPELINE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
}

fn fail(seed: u64, pslg: &Pslg, msg: &str) -> ! {
    let artifact = std::env::var("ADM_FUZZ_ARTIFACT_DIR")
        .ok()
        .and_then(|dir| {
            std::fs::create_dir_all(&dir).ok()?;
            let path = format!("{dir}/fuzz_pipeline_seed_{seed}.poly");
            let mut f = std::fs::File::create(&path).ok()?;
            write_poly(&PolyFile::from_pslg(pslg), &mut f).ok()?;
            Some(format!(" [artifact: {path}]"))
        })
        .unwrap_or_default();
    panic!("fuzz_pipeline seed {seed}: {msg}{artifact}");
}

fn digest(mesh: &adm_delaunay::mesh::Mesh) -> String {
    let mut buf = Vec::new();
    write_ascii_canonical(mesh, &mut buf).expect("in-memory write");
    sha256_hex(&buf)
}

#[test]
fn fuzz_pipeline_serial_parallel_digests() {
    let cases = case_count();
    let sizing = UniformH(0.7);
    let params = RefineParams {
        max_insertions: 200_000,
        ..Default::default()
    };
    // The merge pool the CI matrix pins through `ADM_MERGE_THREADS`.
    let pool = Pool::new(default_merge_threads());
    let mut meshed = 0u64;
    let mut rejected = 0u64;
    for seed in SEED_BASE..SEED_BASE + cases {
        let g = generate_pslg(seed);
        let serial = match mesh_pslg(&g.pslg, &sizing, &params) {
            Ok(r) => {
                if g.expect_reject {
                    fail(seed, &g.pslg, "planted crossing not detected");
                }
                r
            }
            Err(PslgMeshError::Invalid(PslgError::SegmentsCross { .. })) if g.expect_reject => {
                rejected += 1;
                continue;
            }
            Err(e) => fail(seed, &g.pslg, &format!("pipeline failed: {e}")),
        };
        let d0 = digest(&serial.mesh);
        // Serial determinism: a second run reproduces the digest.
        match mesh_pslg(&g.pslg, &sizing, &params) {
            Ok(r) if digest(&r.mesh) == d0 => {}
            Ok(_) => fail(seed, &g.pslg, "serial digest diverged between runs"),
            Err(e) => fail(seed, &g.pslg, &format!("serial rerun failed: {e}")),
        }
        // Parallel equality at several rank counts.
        for ranks in [2, 4] {
            let exec = Executor::ranks(ranks);
            match mesh_pslg_on(&g.pslg, &sizing, &params, exec, &pool, None) {
                Ok(r) if digest(&r.mesh) == d0 => {}
                Ok(_) => fail(seed, &g.pslg, &format!("{ranks}-rank digest diverged")),
                Err(e) => fail(seed, &g.pslg, &format!("{ranks}-rank run failed: {e}")),
            }
        }
        meshed += 1;
    }
    assert!(meshed > cases / 2, "only {meshed}/{cases} cases meshed");
    eprintln!("fuzz_pipeline: {meshed} meshed, {rejected} rejected, {cases} total");
}
