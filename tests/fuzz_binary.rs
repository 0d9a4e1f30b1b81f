//! Seeded byte-mutation fuzz of the binary mesh reader.
//!
//! One small constrained domain is meshed, carved and stamped, then encoded
//! in all three binary versions the reader accepts: v1 (plain triangle
//! soup) and v2 (plus the stamp table), which the writer no longer emits
//! and this test lays out by hand, and v3 (plus the constrained-edge
//! section), which `write_binary` writes. Each encoding is mutated 2,000
//! times (bit flip, range delete, range duplicate, truncate, one 4-byte
//! word copied over another — the last keeps triangle indices in range,
//! so it reaches the manifoldness proof rather than the index check).
//! For every mutant `read_binary` must return, not
//! panic; a truncated encoding must never come back `Ok`; a mesh it
//! accepts must carry every constrained edge on a triangle, and write back
//! and read again with the same counts. The sweep runs on a 256 kB stack,
//! like the JSON fuzz. Fixed cases hold the reader to refusing a
//! constrained pair that is not an edge of the mesh.

use adm2d::delaunay::io::{read_binary, write_binary};
use adm2d::delaunay::{carve, constrained_delaunay, Mesh};
use adm2d::geom::point::Point2;
use adm2d::kernel::GlobalVertexId;
use adm2d::serve::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTANTS_PER_CORPUS: u64 = 2_000;

/// A random sub-range of `0..len` at most 32 bytes long.
fn range(rng: &mut Rng, len: usize) -> std::ops::Range<usize> {
    let start = rng.below(len);
    start..(start + 1 + rng.below(32)).min(len)
}

/// One mutant of `doc`, and whether it is a truncation (a strict prefix).
fn mutate(doc: &[u8], rng: &mut Rng) -> (Vec<u8>, bool) {
    let mut out = doc.to_vec();
    match rng.below(5) {
        0 => {
            let at = rng.below(out.len());
            out[at] ^= 1 << rng.below(8);
        }
        1 => {
            out.drain(range(rng, doc.len()));
        }
        2 => {
            let r = range(rng, doc.len());
            let copy = doc[r.clone()].to_vec();
            out.splice(r.start..r.start, copy);
        }
        3 => {
            out.truncate(rng.below(doc.len()));
            return (out, true);
        }
        _ => {
            let words = doc.len() / 4;
            let (from, to) = (4 * rng.below(words), 4 * rng.below(words));
            out[to..to + 4].copy_from_slice(&doc[from..from + 4]);
        }
    }
    (out, false)
}

/// `mesh` in a pre-v3 layout: v1 (counts, vertices, triangles) or, when
/// `stamped`, v2 (the stamp table between vertices and triangles).
fn legacy_encoding(mesh: &Mesh, stamped: bool) -> Vec<u8> {
    let mut buf = if stamped { b"ADM2DM02" } else { b"ADM2DM01" }.to_vec();
    buf.extend((mesh.num_vertices() as u64).to_le_bytes());
    buf.extend((mesh.num_triangles() as u64).to_le_bytes());
    for p in mesh.points() {
        buf.extend(p.x.to_le_bytes());
        buf.extend(p.y.to_le_bytes());
    }
    if stamped {
        for v in 0..mesh.num_vertices() as u32 {
            let raw = mesh
                .global_id(v)
                .map_or(GlobalVertexId::NONE_RAW, |g| g.raw());
            buf.extend(raw.to_le_bytes());
        }
    }
    for t in mesh.live_triangles() {
        for v in mesh.tri(t as usize) {
            buf.extend(v.to_le_bytes());
        }
    }
    buf
}

/// The v1, v2 and v3 encodings of one small carved, stamped, constrained
/// mesh.
fn corpora() -> Vec<(&'static str, Vec<u8>)> {
    let mut pts: Vec<Point2> = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0)]
        .iter()
        .map(|&(x, y)| Point2::new(x, y))
        .collect();
    pts.extend((0..8).map(|k| Point2::new(0.4 + 0.4 * k as f64, 0.3 + 0.3 * (k % 3) as f64)));
    let segs = [(0, 1), (1, 2), (2, 3), (3, 0)];
    let (mut constrained, _) = constrained_delaunay(&pts, &segs, false).unwrap();
    carve(&mut constrained, &[]);
    let tris: Vec<[u32; 3]> = constrained
        .live_triangles()
        .map(|t| constrained.tri(t as usize))
        .collect();
    let plain = Mesh::from_triangles(constrained.points(), tris);
    let mut stamped = plain.clone();
    for v in 0..pts.len() as u32 {
        stamped.stamp_vertex(v, GlobalVertexId(100 + v));
        constrained.stamp_vertex(v, GlobalVertexId(100 + v));
    }
    let mut v3 = Vec::new();
    write_binary(&constrained, &mut v3).unwrap();
    let out = vec![
        ("v1", legacy_encoding(&plain, false)),
        ("v2", legacy_encoding(&stamped, true)),
        ("v3", v3),
    ];
    for (name, buf) in &out {
        assert_eq!(&buf[..8], format!("ADM2DM0{}", &name[1..]).as_bytes());
    }
    out
}

/// `true` when some live triangle carries `(a, b)` with its constraint
/// bit set — searched without `find_edge`, whose star walk sees one fan
/// of a vertex where two regions touch.
fn carried(mesh: &Mesh, a: u32, b: u32) -> bool {
    mesh.live_triangles().any(|t| {
        let v = mesh.tri(t as usize);
        (0..3u8).any(|i| {
            let (u, w) = (v[(i as usize + 1) % 3], v[(i as usize + 2) % 3]);
            (u.min(w), u.max(w)) == (a.min(b), a.max(b)) && mesh.is_constrained_tri(t, i)
        })
    })
}

#[test]
fn a_constrained_pair_that_is_not_an_edge_is_refused() {
    let (_, v3) = corpora().pop().unwrap();
    let mesh = read_binary(&mut v3.as_slice()).unwrap();
    let n = mesh.num_vertices() as u32;
    let k = mesh.constrained_edges().count();
    assert!(k > 0, "the corpus is constrained");
    let no_edge = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .find(|&(a, b)| mesh.find_edge(a, b).is_none())
        .expect("two vertices with no edge between them");
    for (a, b) in [(10, 10), no_edge] {
        // Overwrite the first pair of the constrained-edge section.
        let mut bytes = v3.clone();
        let at = bytes.len() - 8 * k;
        bytes[at..at + 4].copy_from_slice(&a.to_le_bytes());
        bytes[at + 4..at + 8].copy_from_slice(&b.to_le_bytes());
        let err = read_binary(&mut bytes.as_slice()).expect_err("a dangling pair reads");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "({a},{b})");
    }
}

#[test]
fn mutated_binary_meshes_are_rejected_or_read_never_a_panic() {
    let corpora = corpora();
    let sweep = move || {
        for (name, doc) in corpora {
            let back = read_binary(&mut doc.as_slice()).expect("the corpus reads");
            back.check_consistency();
            let mut rng = Rng::new(0xB12A_0000 ^ doc.len() as u64);
            let mut accepted = 0;
            for i in 0..MUTANTS_PER_CORPUS {
                let (bytes, truncated) = mutate(&doc, &mut rng);
                let verdict = catch_unwind(AssertUnwindSafe(|| {
                    let Ok(mesh) = read_binary(&mut bytes.as_slice()) else {
                        return false;
                    };
                    for (a, b) in mesh.constrained_edges() {
                        assert!(carried(&mesh, a, b), "({a},{b}) has no triangle");
                    }
                    let mut again = Vec::new();
                    write_binary(&mesh, &mut again).unwrap();
                    let reread = read_binary(&mut again.as_slice())
                        .expect("an accepted mesh reads back after writing");
                    assert_eq!(reread.num_vertices(), mesh.num_vertices());
                    assert_eq!(reread.num_triangles(), mesh.num_triangles());
                    assert_eq!(
                        reread.constrained_edges().count(),
                        mesh.constrained_edges().count()
                    );
                    true
                }));
                let Ok(read) = verdict else {
                    panic!("{name} mutant {i} panicked: {bytes:?}");
                };
                assert!(!(truncated && read), "{name} mutant {i}: truncation read");
                accepted += read as u32;
            }
            // Bit flips in coordinates leave a readable mesh, so a sweep
            // that accepts nothing is not exercising the reader's tail.
            assert!(accepted > 0, "{name}: no mutant was accepted");
        }
    };
    std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(sweep)
        .unwrap()
        .join()
        .expect("fuzz sweep failed");
}
