// Shared by the merge unit tests (`include!`d from `src/merge.rs`) and
// `tests/arena_merge.rs`: whole-state equality of two meshes through the
// public accessors.

/// Asserts `got` and `want` hold the same state as far as any accessor
/// can tell: slots and their liveness, corners, neighbours and
/// constraint bits per live slot, the constrained-edge set, the vertex
/// coordinates bit for bit, and per vertex the cached incident triangle
/// and the order of its star (which starts at that triangle).
fn assert_same_state(got: &Mesh, want: &Mesh, label: &str) {
    assert_eq!(got.num_slots(), want.num_slots(), "slot count, {label}");
    assert_eq!(got.num_triangles(), want.num_triangles(), "{label}");
    for t in 0..got.num_slots() {
        let live = got.is_alive(t as u32);
        assert_eq!(live, want.is_alive(t as u32), "liveness of {t}, {label}");
        if live {
            assert_eq!(got.tri(t), want.tri(t), "corners of {t}, {label}");
            assert_eq!(
                got.tri_neighbors(t),
                want.tri_neighbors(t),
                "neighbours of {t}, {label}"
            );
            for i in 0..3u8 {
                assert_eq!(
                    got.is_constrained_tri(t as u32, i),
                    want.is_constrained_tri(t as u32, i),
                    "constraint bit {i} of {t}, {label}"
                );
            }
        }
    }
    let edges = |m: &Mesh| {
        let mut e: Vec<(u32, u32)> = m.constrained_edges().collect();
        e.sort_unstable();
        e
    };
    assert_eq!(edges(got), edges(want), "constrained set, {label}");
    let bits = |m: &Mesh| {
        m.points()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(got), bits(want), "vertices, {label}");
    for v in 0..got.num_vertices() as u32 {
        assert_eq!(
            got.triangle_of_vertex(v),
            want.triangle_of_vertex(v),
            "incident triangle of {v}, {label}"
        );
        assert!(got.star(v).eq(want.star(v)), "star of {v}, {label}");
    }
}
