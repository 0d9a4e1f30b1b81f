//! Termination-gated robustness fuzz harness over adversarial PSLGs.
//!
//! Drives seeded generator cases (`adm_geom::pslg_gen`) through the CDT
//! stack and asserts, for every case:
//!
//! * validation verdict matches the generator's tag (planted crossings
//!   are rejected with the typed error, everything else is admitted);
//! * the CDT's input-to-vertex map sends every input point to the mesh
//!   vertex with its coordinates (`-0.0` folded), the coordinate lookup
//!   the triangulator's own map replaced;
//! * the constrained Delaunay triangulation recovers **every** input
//!   segment as a chain of constrained mesh edges;
//! * carve + Ruppert refinement terminate under an explicit insertion
//!   budget (no `hit_cap`), with all mesh invariants intact
//!   (`check_consistency`, Delaunay-except-constrained);
//! * the canonical serialization is bitwise identical across two
//!   independent runs (stronger than digest equality).
//!
//! On failure the offending seed is printed and, when
//! `ADM_FUZZ_ARTIFACT_DIR` is set, the PSLG is dumped as a Triangle
//! `.poly` file for replay. `ADM_FUZZ_CASES` overrides the case count
//! (default 512, the CI gate).

use adm_delaunay::cdt::{carve, constrained_delaunay};
use adm_delaunay::io::write_ascii_canonical;
use adm_delaunay::mesh::Mesh;
use adm_delaunay::poly::{write_poly, PolyFile};
use adm_delaunay::refine::{boundary_fully_constrained, refine, RefineParams};
use adm_geom::point::{canonical_bits, Point2};
use adm_geom::predicates::orient2d;
use adm_geom::pslg::{Pslg, PslgError};
use adm_geom::pslg_gen::generate_pslg;
use std::collections::HashMap;

fn case_count() -> u64 {
    std::env::var("ADM_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
}

/// Dumps the failing PSLG as a `.poly` artifact; returns its path.
fn dump_artifact(seed: u64, pslg: &Pslg) -> Option<String> {
    let dir = std::env::var("ADM_FUZZ_ARTIFACT_DIR").ok()?;
    std::fs::create_dir_all(&dir).ok()?;
    let path = format!("{dir}/fuzz_pslg_seed_{seed}.poly");
    let mut f = std::fs::File::create(&path).ok()?;
    write_poly(&PolyFile::from_pslg(pslg), &mut f).ok()?;
    Some(path)
}

/// Panics with the seed (and artifact path, if writable) attached.
fn fail(seed: u64, pslg: &Pslg, msg: &str) -> ! {
    let artifact = dump_artifact(seed, pslg)
        .map(|p| format!(" [artifact: {p}]"))
        .unwrap_or_default();
    panic!("fuzz_pslg seed {seed}: {msg}{artifact}");
}

/// `true` when the validated segment `(a, b)` is present in the mesh as
/// a chain of constrained edges: greedy walk from `a` toward `b` over
/// constrained edges that lie exactly on the segment's line and advance
/// the parameter toward `b`.
fn segment_recovered(
    mesh: &Mesh,
    adj: &HashMap<u32, Vec<u32>>,
    input_to_mesh: &[u32],
    a: u32,
    b: u32,
) -> bool {
    let (ma, mb) = (input_to_mesh[a as usize], input_to_mesh[b as usize]);
    let (pa, pb) = (mesh.vertex(ma as usize), mesh.vertex(mb as usize));
    let dir = pb - pa;
    let along = |p: Point2| (p - pa).dot(dir);
    let mut cur = ma;
    let mut hops = 0usize;
    while cur != mb {
        hops += 1;
        if hops > mesh.num_vertices() {
            return false; // cycle guard
        }
        let Some(nexts) = adj.get(&cur) else {
            return false;
        };
        let here = along(mesh.vertex(cur as usize));
        // Constrained neighbor exactly on the line, strictly advancing.
        let step = nexts.iter().copied().find(|&w| {
            let pw = mesh.vertex(w as usize);
            orient2d(pa, pb, pw) == 0.0 && along(pw) > here && along(pw) <= along(pb)
        });
        match step {
            Some(w) => cur = w,
            None => return false,
        }
    }
    true
}

fn canonical_bytes(mesh: &Mesh) -> Vec<u8> {
    let mut buf = Vec::new();
    write_ascii_canonical(mesh, &mut buf).expect("in-memory canonical write");
    buf
}

/// One full run: CDT → segment-recovery check → carve → refine under
/// budget → invariant checks. Returns the canonical bytes.
fn mesh_case(seed: u64, pslg: &Pslg, valid: &Pslg) -> Vec<u8> {
    let (mut mesh, input_to_mesh) =
        match constrained_delaunay(&valid.points, &valid.segments, false) {
            Ok(v) => v,
            Err(e) => fail(seed, pslg, &format!("CDT failed on validated input: {e:?}")),
        };

    // The map equals a lookup of each input point's coordinates among the
    // mesh vertices (which are pairwise distinct).
    let vertex_of: HashMap<(u64, u64), u32> = (0..mesh.num_vertices())
        .map(|v| (canonical_bits(mesh.vertex(v)), v as u32))
        .collect();
    if vertex_of.len() != mesh.num_vertices() {
        fail(seed, pslg, "two mesh vertices share coordinates");
    }
    for (i, &p) in valid.points.iter().enumerate() {
        if vertex_of.get(&canonical_bits(p)) != Some(&input_to_mesh[i]) {
            fail(
                seed,
                pslg,
                &format!("input point {i} mapped off its vertex"),
            );
        }
    }

    // Every validated constraint must be recovered as constrained edges.
    let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
    for (a, b) in mesh.constrained_edges() {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default().push(a);
    }
    for &(a, b) in &valid.segments {
        if !segment_recovered(&mesh, &adj, &input_to_mesh, a, b) {
            fail(seed, pslg, &format!("segment ({a},{b}) not recovered"));
        }
    }

    carve(&mut mesh, &valid.holes);
    if mesh.num_triangles() == 0 {
        fail(seed, pslg, "carve removed every triangle");
    }
    if !boundary_fully_constrained(&mesh) {
        fail(seed, pslg, "carved boundary not fully constrained");
    }

    // Termination gate: a modest uniform sizing plus an explicit budget;
    // exhausting it is a failure, not a retry.
    let params = RefineParams {
        max_area: Some(0.5),
        max_insertions: 200_000,
    };
    let stats = refine(&mut mesh, None, &params);
    if stats.hit_cap {
        fail(
            seed,
            pslg,
            &format!(
                "refinement blew the {} insertion budget",
                params.max_insertions
            ),
        );
    }

    mesh.check_consistency();
    if !mesh.is_constrained_delaunay() {
        fail(seed, pslg, "result is not constrained Delaunay");
    }
    canonical_bytes(&mesh)
}

#[test]
fn fuzz_pslg_cdt_invariants() {
    let cases = case_count();
    let mut meshed = 0u64;
    let mut rejected = 0u64;
    for seed in 0..cases {
        let g = generate_pslg(seed);
        match g.pslg.validate() {
            Err(PslgError::SegmentsCross { .. }) if g.expect_reject => {
                rejected += 1;
                continue;
            }
            Err(e) => fail(seed, &g.pslg, &format!("unexpected rejection: {e:?}")),
            Ok(_) if g.expect_reject => fail(seed, &g.pslg, "planted crossing not detected"),
            Ok(valid) => {
                let run1 = mesh_case(seed, &g.pslg, &valid.pslg);
                let run2 = mesh_case(seed, &g.pslg, &valid.pslg);
                if run1 != run2 {
                    fail(seed, &g.pslg, "canonical output diverged between two runs");
                }
                meshed += 1;
            }
        }
    }
    // The harness must actually exercise both verdicts.
    assert!(meshed > cases / 2, "only {meshed}/{cases} cases meshed");
    assert!(rejected > 0, "no rejection cases generated in {cases}");
    eprintln!("fuzz_pslg: {meshed} meshed, {rejected} rejected, {cases} total");
}
