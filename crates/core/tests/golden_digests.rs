//! Golden canonical-mesh digests for every kernel path.
//!
//! The raw-speed layout pass (SoA coordinates, fused triangle records,
//! batched predicate filters) promises *same bytes, faster*. These
//! digests were pinned on the pre-layout code; any change that shifts a
//! single canonical byte on the divide-and-conquer, CDT, Ruppert, or
//! full-pipeline path fails here. If a failure is intentional (a real
//! algorithm change, not a speed pass), re-pin with the printed digest.

use adm_core::{generate, generate_parallel, sha256_hex, MeshConfig};
use adm_delaunay::cdt::{carve, constrained_delaunay, insert_constraint};
use adm_delaunay::divconq::triangulate_dc;
use adm_delaunay::io::write_ascii_canonical;
use adm_delaunay::mesh::Mesh;
use adm_delaunay::refine::{refine, RefineParams};
use adm_geom::point::Point2;

fn mesh_sha(mesh: &Mesh) -> String {
    let mut buf = Vec::new();
    write_ascii_canonical(mesh, &mut buf).expect("in-memory write");
    sha256_hex(&buf)
}

/// splitmix64: tiny, stable, seedable — the cloud must never change.
struct Rng(u64);
impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn cloud(seed: u64, n: usize) -> Vec<Point2> {
    let mut r = Rng(seed);
    (0..n)
        .map(|_| Point2::new(r.next_f64() * 10.0, r.next_f64() * 10.0))
        .collect()
}

#[test]
fn dc_random_cloud_digest() {
    let dc = triangulate_dc(&cloud(42, 800), false);
    let tris = dc.triangles();
    let mesh = Mesh::from_triangles(dc.points, tris);
    assert_eq!(
        mesh_sha(&mesh),
        "16c0d68fcc5393d6d44afaacf08cc7f4ef3b951f991ddb387fc8a5be45a9c9d6",
        "divide-and-conquer kernel output drifted"
    );
}

#[test]
fn cdt_corner_constraint_digest() {
    let mut pts = vec![
        Point2::new(0.0, 0.0),
        Point2::new(10.0, 0.0),
        Point2::new(10.0, 10.0),
        Point2::new(0.0, 10.0),
    ];
    let mut r = Rng(7);
    for _ in 0..1500 {
        pts.push(Point2::new(
            0.1 + 9.8 * r.next_f64(),
            0.1 + 9.8 * r.next_f64(),
        ));
    }
    let (mut mesh, map) = constrained_delaunay(&pts, &[], false).expect("cdt");
    insert_constraint(&mut mesh, map[0], map[2]).expect("constraint");
    assert_eq!(
        mesh_sha(&mesh),
        "daf4a994223be4274945ab7165354ecfda128ed47c764dc57060fa0a63e066d0",
        "cdt constraint-insertion output drifted"
    );
}

#[test]
fn ruppert_unit_square_digest() {
    let pts = vec![
        Point2::new(0.0, 0.0),
        Point2::new(1.0, 0.0),
        Point2::new(1.0, 1.0),
        Point2::new(0.0, 1.0),
    ];
    let segments = [(0, 1), (1, 2), (2, 3), (3, 0)];
    let (mut mesh, _) = constrained_delaunay(&pts, &segments, false).expect("cdt");
    carve(&mut mesh, &[]);
    let params = RefineParams {
        max_area: Some(1e-3),
        ..Default::default()
    };
    refine(&mut mesh, None, &params);
    assert_eq!(
        mesh_sha(&mesh),
        "4e3cc83d6ec286c1be9155e08359f2612ae3c6ea2db58dd2d1032cf4d67deb6c",
        "Ruppert refinement output drifted"
    );
}

#[test]
fn pipeline_digest_across_merge_widths() {
    let mut config = MeshConfig::naca0012(24);
    config.sizing_max_area = 6.0;
    config.bl_subdomains = 4;
    config.inviscid_subdomains = 4;
    let golden = "3d8436fe67f0bb7a0cb1fb687a0d1a18cb2c6471528c77fa09905b8e0db141d9";

    // The merge pool width is env-driven; exercise both the sequential
    // spine and the widest tree. This test owns the variable — nothing
    // else in this binary reads it.
    for width in ["1", "8"] {
        std::env::set_var("ADM_MERGE_THREADS", width);
        let seq = generate(&config);
        assert_eq!(
            mesh_sha(&seq.mesh),
            golden,
            "sequential pipeline drifted [merge width {width}]"
        );
        let par = generate_parallel(&config, 2);
        assert_eq!(
            mesh_sha(&par.mesh),
            golden,
            "parallel pipeline drifted [merge width {width}]"
        );
    }
    std::env::remove_var("ADM_MERGE_THREADS");
}
