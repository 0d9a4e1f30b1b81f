//! Round-trip tests for the mesh I/O formats on a *non-airfoil* mesh: a
//! two-part plate (chamfered outline with a square hole, plus a separate
//! block) meshed through CDT → carve → refinement. Every writer/reader
//! pair must reproduce the triangulation exactly — gated by comparing
//! canonical serializations, which are insensitive to vertex/triangle
//! ordering history — and the binary format (`ADM2DM03`) must preserve
//! arena identity stamps and constrained edges.

use adm_delaunay::cdt::{carve, constrained_delaunay};
use adm_delaunay::io::{read_ascii, read_binary, write_ascii, write_ascii_canonical, write_binary};
use adm_delaunay::mesh::Mesh;
use adm_delaunay::refine::{refine, RefineParams};
use adm_geom::point::Point2;
use adm_kernel::GlobalVertexId;
use std::io::BufReader;

/// Chamfered plate with a square hole plus a detached block — the same
/// shape family as `examples/two_part_plate.poly`, scaled down.
fn plate_mesh() -> Mesh {
    let pts: Vec<Point2> = [
        // part 1: chamfered plate
        (0.5, 0.0),
        (3.5, 0.0),
        (4.0, 0.5),
        (4.0, 2.5),
        (3.5, 3.0),
        (0.5, 3.0),
        (0.0, 2.5),
        (0.0, 0.5),
        // part 1: square hole
        (1.0, 1.0),
        (2.0, 1.0),
        (2.0, 2.0),
        (1.0, 2.0),
        // part 2: block
        (5.0, 0.0),
        (7.0, 0.0),
        (7.0, 3.0),
        (5.0, 3.0),
    ]
    .iter()
    .map(|&(x, y)| Point2::new(x, y))
    .collect();
    let mut segs: Vec<(u32, u32)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
    segs.extend((0..4).map(|i| (8 + i, 8 + (i + 1) % 4)));
    segs.extend((0..4).map(|i| (12 + i, 12 + (i + 1) % 4)));
    let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).expect("valid plate PSLG");
    carve(&mut mesh, &[Point2::new(1.5, 1.5)]);
    let params = RefineParams {
        max_area: Some(0.4),
        ..Default::default()
    };
    refine(&mut mesh, None, &params);
    mesh.check_consistency();
    mesh
}

fn canonical(mesh: &Mesh) -> Vec<u8> {
    let mut buf = Vec::new();
    write_ascii_canonical(mesh, &mut buf).expect("in-memory write");
    buf
}

#[test]
fn ascii_node_ele_round_trip() {
    let mesh = plate_mesh();
    let mut buf = Vec::new();
    write_ascii(&mesh, &mut buf).unwrap();
    let back = read_ascii(&mut BufReader::new(&buf[..])).unwrap();
    assert_eq!(back.num_triangles(), mesh.num_triangles());
    assert_eq!(canonical(&back), canonical(&mesh));
}

#[test]
fn canonical_ascii_is_a_fixed_point() {
    // Reading the canonical form and re-canonicalizing must be
    // byte-identical: canonicalization is idempotent across a round trip.
    let mesh = plate_mesh();
    let bytes = canonical(&mesh);
    let back = read_ascii(&mut BufReader::new(&bytes[..])).unwrap();
    assert_eq!(canonical(&back), bytes);
}

#[test]
fn binary_constrained_round_trip_is_v3() {
    let mesh = plate_mesh();
    assert!(!mesh.has_global_ids());
    assert!(mesh.constrained_edges().count() > 0);
    let mut buf = Vec::new();
    write_binary(&mesh, &mut buf).unwrap();
    assert_eq!(
        &buf[..8],
        b"ADM2DM03",
        "constrained meshes carry the edge section"
    );
    let back = read_binary(&mut &buf[..]).unwrap();
    assert!(!back.has_global_ids());
    assert_eq!(back.num_vertices(), mesh.num_vertices());
    assert_eq!(
        back.constrained_edges().count(),
        mesh.constrained_edges().count()
    );
    assert_eq!(canonical(&back), canonical(&mesh));
}

#[test]
fn binary_stamped_boundary_round_trip() {
    let mut mesh = plate_mesh();
    // Stamp exactly the boundary (constrained-edge endpoints) with
    // synthetic arena ids, leaving refinement-interior vertices
    // unstamped — the mixed stamp table must persist faithfully.
    let mut boundary: Vec<u32> = mesh.constrained_edges().flat_map(|(a, b)| [a, b]).collect();
    boundary.sort_unstable();
    boundary.dedup();
    assert!(!boundary.is_empty());
    assert!(
        boundary.len() < mesh.num_vertices(),
        "refinement should have added interior vertices"
    );
    for (k, &v) in boundary.iter().enumerate() {
        mesh.stamp_vertex(v, GlobalVertexId(1000 + k as u32));
    }
    let mut buf = Vec::new();
    write_binary(&mesh, &mut buf).unwrap();
    assert_eq!(
        &buf[..8],
        b"ADM2DM03",
        "stamped + constrained meshes use version 3"
    );
    let back = read_binary(&mut &buf[..]).unwrap();
    assert_eq!(canonical(&back), canonical(&mesh));
    for v in 0..mesh.num_vertices() as u32 {
        assert_eq!(
            back.global_id(v),
            mesh.global_id(v),
            "stamp table diverged at vertex {v}"
        );
    }
}
