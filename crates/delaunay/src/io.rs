//! Mesh import/export.
//!
//! Supports Triangle-compatible ASCII `.node`/`.ele` text (the format the
//! paper's 9-minute sequential write time refers to) and a compact binary
//! format (the paper notes binary output cuts write time when the flow
//! solver accepts it).

use crate::mesh::Mesh;
use adm_geom::point::Point2;
use adm_kernel::GlobalVertexId;
use std::io::{self, BufRead, BufWriter, Read, Write};

/// Writes the mesh as Triangle-style ASCII: a `.node` section then a
/// `.ele` section, concatenated into one stream.
///
/// The writer is buffered internally, so call sites may hand over a bare
/// `File` without paying one syscall per line.
pub fn write_ascii<W: Write>(mesh: &Mesh, w: &mut W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{} 2 0 0", mesh.num_vertices())?;
    for i in 0..mesh.num_vertices() {
        let v = mesh.vertex(i);
        writeln!(w, "{} {:.17} {:.17}", i, v.x, v.y)?;
    }
    writeln!(w, "{} 3 0", mesh.num_triangles())?;
    for (k, t) in mesh.live_triangles().enumerate() {
        let tri = mesh.tris[t as usize].v;
        writeln!(w, "{} {} {} {}", k, tri[0], tri[1], tri[2])?;
    }
    w.flush()
}

/// Writes the mesh as Triangle-style ASCII in a *canonical* form:
/// vertices sorted by coordinate, triangles renumbered, rotated so their
/// smallest vertex leads (orientation preserved), and sorted. Two meshes
/// describing the same triangulation produce byte-identical output no
/// matter what internal ordering their construction history left behind —
/// which is what lets the chaos tests compare parallel output against the
/// sequential baseline by digest.
pub fn write_ascii_canonical<W: Write>(mesh: &Mesh, w: &mut W) -> io::Result<()> {
    // Only vertices referenced by live triangles participate; dead
    // entries (carved/super-triangle leftovers) differ by history.
    let mut used: Vec<u32> = mesh
        .live_triangles()
        .flat_map(|t| mesh.tris[t as usize].v)
        .collect();
    used.sort_unstable();
    used.dedup();
    let mut order: Vec<u32> = used.clone();
    order.sort_unstable_by(|&a, &b| {
        let (pa, pb) = (mesh.vertex(a as usize), mesh.vertex(b as usize));
        pa.x.total_cmp(&pb.x).then(pa.y.total_cmp(&pb.y))
    });
    let mut new_id = vec![u32::MAX; mesh.num_vertices()];
    for (new, &old) in order.iter().enumerate() {
        new_id[old as usize] = new as u32;
    }
    let mut tris: Vec<[u32; 3]> = mesh
        .live_triangles()
        .map(|t| {
            let tri = mesh.tris[t as usize].v.map(|v| new_id[v as usize]);
            // Rotate the cycle (a,b,c) so the smallest index leads; this
            // keeps winding, unlike sorting the corners.
            let lead = (0..3).min_by_key(|&i| tri[i]).expect("3 corners");
            [tri[lead], tri[(lead + 1) % 3], tri[(lead + 2) % 3]]
        })
        .collect();
    tris.sort_unstable();
    let mut w = BufWriter::new(w);
    writeln!(w, "{} 2 0 0", order.len())?;
    for (i, &old) in order.iter().enumerate() {
        let v = mesh.vertex(old as usize);
        writeln!(w, "{} {:.17} {:.17}", i, v.x, v.y)?;
    }
    writeln!(w, "{} 3 0", tris.len())?;
    for (k, t) in tris.iter().enumerate() {
        writeln!(w, "{} {} {} {}", k, t[0], t[1], t[2])?;
    }
    w.flush()
}

/// Reads a mesh previously written by [`write_ascii`].
pub fn read_ascii<R: BufRead>(r: &mut R) -> io::Result<Mesh> {
    let mut line = String::new();
    let read_line = |r: &mut R, line: &mut String| -> io::Result<Vec<f64>> {
        line.clear();
        loop {
            if r.read_line(line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated mesh",
                ));
            }
            let t = line.trim();
            if !t.is_empty() && !t.starts_with('#') {
                let vals: Result<Vec<f64>, _> = t.split_whitespace().map(str::parse).collect();
                return vals.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            line.clear();
        }
    };
    let header = read_line(r, &mut line)?;
    let n = header[0] as usize;
    let mut vertices = Vec::with_capacity(n);
    for _ in 0..n {
        let row = read_line(r, &mut line)?;
        vertices.push(Point2::new(row[1], row[2]));
    }
    let header = read_line(r, &mut line)?;
    let m = header[0] as usize;
    let mut tris = Vec::with_capacity(m);
    for _ in 0..m {
        let row = read_line(r, &mut line)?;
        tris.push([row[1] as u32, row[2] as u32, row[3] as u32]);
    }
    Ok(Mesh::from_triangles(vertices, tris))
}

/// Version-1 binary magic (read only): vertices + triangles.
const BINARY_MAGIC_V1: &[u8; 8] = b"ADM2DM01";
/// Version-2 binary magic (read only): the v1 payload plus a per-vertex
/// global-id table (raw [`GlobalVertexId`] values, `u32::MAX` =
/// unstamped) between the vertex and triangle sections.
const BINARY_MAGIC_V2: &[u8; 8] = b"ADM2DM02";
/// Version-3 binary magic, the one [`write_binary`] emits: a constraint
/// count and a flags byte after the v1 counts, the stamp table when the
/// flags say so, and a sorted constrained-edge section after the
/// triangles. v1/v2 dropped the constraint set, which made them unusable
/// as shard formats — the spliced merge keys its shared vertices off
/// constrained-edge endpoints.
const BINARY_MAGIC_V3: &[u8; 8] = b"ADM2DM03";

/// Stamp-table-present bit in the v3 flags byte.
const V3_FLAG_STAMPS: u8 = 1;

/// Writes the mesh in the compact binary format (little-endian), always
/// as version 3: stamps and constraints persist. The writer is buffered
/// internally.
pub fn write_binary<W: Write>(mesh: &Mesh, w: &mut W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    let stamped = mesh.has_global_ids();
    w.write_all(BINARY_MAGIC_V3)?;
    w.write_all(&(mesh.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(mesh.num_triangles() as u64).to_le_bytes())?;
    w.write_all(&(mesh.num_constrained() as u64).to_le_bytes())?;
    w.write_all(&[if stamped { V3_FLAG_STAMPS } else { 0 }])?;
    for i in 0..mesh.num_vertices() {
        let v = mesh.vertex(i);
        w.write_all(&v.x.to_le_bytes())?;
        w.write_all(&v.y.to_le_bytes())?;
    }
    if stamped {
        for v in 0..mesh.num_vertices() as u32 {
            let raw = mesh
                .global_id(v)
                .map_or(GlobalVertexId::NONE_RAW, |g| g.raw());
            w.write_all(&raw.to_le_bytes())?;
        }
    }
    for t in mesh.live_triangles() {
        for &vi in &mesh.tris[t as usize].v {
            w.write_all(&vi.to_le_bytes())?;
        }
    }
    // Sorted so the encoding is a pure function of the constraint *set* —
    // the in-memory HashSet iterates in per-process order.
    let mut edges: Vec<(u32, u32)> = mesh.constrained_edges().collect();
    edges.sort_unstable();
    for (a, b) in edges {
        w.write_all(&a.to_le_bytes())?;
        w.write_all(&b.to_le_bytes())?;
    }
    w.flush()
}

/// Reads a mesh in any binary version: the v3 [`write_binary`] emits, and
/// the v1/v2 earlier writers did.
pub fn read_binary<R: Read>(r: &mut R) -> io::Result<Mesh> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    let version = match &magic {
        m if m == BINARY_MAGIC_V1 => 1,
        m if m == BINARY_MAGIC_V2 => 2,
        m if m == BINARY_MAGIC_V3 => 3,
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic")),
    };
    // The counts come straight from an untrusted header: vertex and
    // triangle slots are `u32`-indexed, so anything larger is malformed,
    // and the reservations below are capped so a lying header costs at
    // most `MAX_PREALLOC` entries before `read_exact` hits end of file.
    const MAX_PREALLOC: usize = 1 << 20;
    let read_count = |r: &mut R, what: &str| -> io::Result<usize> {
        let mut buf8 = [0u8; 8];
        r.read_exact(&mut buf8)?;
        u32::try_from(u64::from_le_bytes(buf8))
            .map(|c| c as usize)
            .map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{what} count exceeds the u32 index space"),
                )
            })
    };
    let n = read_count(r, "vertex")?;
    let m = read_count(r, "triangle")?;
    let mut buf8 = [0u8; 8];
    let mut num_constrained = 0usize;
    let mut stamped = version == 2;
    if version >= 3 {
        r.read_exact(&mut buf8)?;
        num_constrained = u64::from_le_bytes(buf8) as usize;
        let mut flags = [0u8; 1];
        r.read_exact(&mut flags)?;
        stamped = flags[0] & V3_FLAG_STAMPS != 0;
    }
    let mut vertices = Vec::with_capacity(n.min(MAX_PREALLOC));
    for _ in 0..n {
        r.read_exact(&mut buf8)?;
        let x = f64::from_le_bytes(buf8);
        r.read_exact(&mut buf8)?;
        let y = f64::from_le_bytes(buf8);
        vertices.push(Point2::new(x, y));
    }
    let mut buf4 = [0u8; 4];
    let mut stamps = Vec::new();
    if stamped {
        stamps.reserve(n.min(MAX_PREALLOC));
        for _ in 0..n {
            r.read_exact(&mut buf4)?;
            stamps.push(u32::from_le_bytes(buf4));
        }
    }
    let mut tris = Vec::with_capacity(m.min(MAX_PREALLOC));
    for _ in 0..m {
        let mut t = [0u32; 3];
        for slot in &mut t {
            r.read_exact(&mut buf4)?;
            *slot = u32::from_le_bytes(buf4);
            if *slot as usize >= n {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "triangle references missing vertex",
                ));
            }
        }
        tris.push(t);
    }
    let mut mesh = Mesh::try_from_triangles(vertices, tris)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    for (v, &raw) in stamps.iter().enumerate() {
        if raw != GlobalVertexId::NONE_RAW {
            mesh.stamp_vertex(v as u32, GlobalVertexId(raw));
        }
    }
    for _ in 0..num_constrained {
        r.read_exact(&mut buf4)?;
        let a = u32::from_le_bytes(buf4);
        r.read_exact(&mut buf4)?;
        let b = u32::from_le_bytes(buf4);
        if a as usize >= n || b as usize >= n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "constrained edge references missing vertex",
            ));
        }
        mesh.constrain_edge(a, b);
    }
    Ok(mesh)
}

/// Renders the mesh edges as an SVG document (for the qualitative figures).
/// The writer is buffered internally.
pub fn write_svg<W: Write>(mesh: &Mesh, w: &mut W, width: f64) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    let mut min = Point2::new(f64::INFINITY, f64::INFINITY);
    let mut max = Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for i in 0..mesh.num_vertices() {
        let v = mesh.vertex(i);
        min = min.min(v);
        max = max.max(v);
    }
    let span_x = (max.x - min.x).max(1e-12);
    let span_y = (max.y - min.y).max(1e-12);
    let scale = width / span_x;
    let height = span_y * scale;
    writeln!(
        w,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" viewBox=\"0 0 {width:.2} {height:.2}\">"
    )?;
    writeln!(w, "<g stroke=\"#456\" stroke-width=\"0.4\" fill=\"none\">")?;
    let tx = |p: Point2| ((p.x - min.x) * scale, (max.y - p.y) * scale);
    for t in mesh.live_triangles() {
        let tri = mesh.tris[t as usize].v;
        let (x0, y0) = tx(mesh.vertex(tri[0] as usize));
        let (x1, y1) = tx(mesh.vertex(tri[1] as usize));
        let (x2, y2) = tx(mesh.vertex(tri[2] as usize));
        writeln!(
            w,
            "<path d=\"M{x0:.2} {y0:.2} L{x1:.2} {y1:.2} L{x2:.2} {y2:.2} Z\"/>"
        )?;
    }
    writeln!(w, "</g>")?;
    // Constrained edges highlighted, sorted so the document is
    // byte-for-byte reproducible (the constraint set iterates in hash
    // order).
    writeln!(w, "<g stroke=\"#c33\" stroke-width=\"0.9\" fill=\"none\">")?;
    let mut constrained: Vec<(u32, u32)> = mesh.constrained_edges().collect();
    constrained.sort_unstable();
    for (a, b) in constrained {
        let (x0, y0) = tx(mesh.vertex(a as usize));
        let (x1, y1) = tx(mesh.vertex(b as usize));
        writeln!(w, "<path d=\"M{x0:.2} {y0:.2} L{x1:.2} {y1:.2}\"/>")?;
    }
    writeln!(w, "</g>")?;
    writeln!(w, "</svg>")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdt::{carve, constrained_delaunay};

    fn sample_mesh() -> Mesh {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(3.0, 0.0),
            Point2::new(3.0, 3.0),
            Point2::new(0.0, 3.0),
            Point2::new(1.5, 1.4),
        ];
        let segs = [(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).unwrap();
        carve(&mut mesh, &[]);
        mesh
    }

    #[test]
    fn ascii_roundtrip() {
        let mesh = sample_mesh();
        let mut buf = Vec::new();
        write_ascii(&mesh, &mut buf).unwrap();
        let back = read_ascii(&mut buf.as_slice()).unwrap();
        assert_eq!(back.num_vertices(), mesh.num_vertices());
        assert_eq!(back.num_triangles(), mesh.num_triangles());
        assert_eq!(back.points(), mesh.points());
        back.check_consistency();
    }

    #[test]
    fn binary_roundtrip() {
        let mesh = sample_mesh();
        let mut buf = Vec::new();
        write_binary(&mesh, &mut buf).unwrap();
        let back = read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back.num_vertices(), mesh.num_vertices());
        assert_eq!(back.num_triangles(), mesh.num_triangles());
        assert_eq!(back.points(), mesh.points());
        // The constraint set survives the round-trip (v3); v1/v2 dropped
        // it, which is why they can't serve as shard formats.
        let edges = |m: &Mesh| {
            let mut e: Vec<_> = m.constrained_edges().collect();
            e.sort_unstable();
            e
        };
        assert!(mesh.num_constrained() > 0, "sample mesh is constrained");
        assert_eq!(edges(&back), edges(&mesh));
        back.check_consistency();
    }

    #[test]
    fn binary_header_lying_about_its_size_is_an_error_not_an_abort() {
        // 24 bytes: v3 magic + 2^60 vertices + 2^60 triangles. Reserving
        // what the header declares would abort the process.
        let mut header = BINARY_MAGIC_V3.to_vec();
        header.extend_from_slice(&(1u64 << 60).to_le_bytes());
        header.extend_from_slice(&(1u64 << 60).to_le_bytes());
        let err = read_binary(&mut header.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A count that fits u32 but not the file ends in EOF, having
        // reserved no more than the cap.
        let mut header = BINARY_MAGIC_V1.to_vec();
        header.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        header.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        let err = read_binary(&mut header.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn non_manifold_binary_is_an_error_not_an_abort() {
        // A third triangle on edge {0,1}, a repeated vertex, and one
        // triangle listed twice: each used to panic inside the reader.
        let soups: [&[[u32; 3]]; 3] = [
            &[[0, 1, 2], [1, 0, 3], [0, 1, 4]],
            &[[0, 0, 1]],
            &[[0, 1, 2], [0, 1, 2]],
        ];
        let pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 2.0)];
        for tris in soups {
            let mut buf = BINARY_MAGIC_V1.to_vec();
            buf.extend_from_slice(&(pts.len() as u64).to_le_bytes());
            buf.extend_from_slice(&(tris.len() as u64).to_le_bytes());
            for (x, y) in pts {
                buf.extend_from_slice(&f64::to_le_bytes(x));
                buf.extend_from_slice(&f64::to_le_bytes(y));
            }
            for v in tris.iter().flatten() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            let err = read_binary(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tris:?}");
            assert!(err.to_string().starts_with("non-manifold edge"), "{err}");
        }
    }

    #[test]
    fn truncated_binary_is_an_error() {
        let mut buf = Vec::new();
        write_binary(&sample_mesh(), &mut buf).unwrap();
        for cut in [buf.len() - 1, buf.len() / 2, 25, 8] {
            let err = read_binary(&mut &buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn canonical_ascii_is_permutation_invariant() {
        let mesh = sample_mesh();
        let mut canon = Vec::new();
        write_ascii_canonical(&mesh, &mut canon).unwrap();
        // Round-tripping through plain ASCII renumbers vertices and
        // reorders triangles; the canonical form must not care.
        let mut plain = Vec::new();
        write_ascii(&mesh, &mut plain).unwrap();
        let back = read_ascii(&mut plain.as_slice()).unwrap();
        let mut canon2 = Vec::new();
        write_ascii_canonical(&back, &mut canon2).unwrap();
        assert_eq!(canon, canon2);
        // And it parses as a valid mesh of the same size.
        let reread = read_ascii(&mut canon.as_slice()).unwrap();
        assert_eq!(reread.num_triangles(), mesh.num_triangles());
    }

    #[test]
    fn binary_is_smaller_than_ascii() {
        let mesh = sample_mesh();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_ascii(&mesh, &mut a).unwrap();
        write_binary(&mesh, &mut b).unwrap();
        assert!(b.len() < a.len());
    }

    #[test]
    fn binary_writer_is_v3_and_reader_keeps_v1_v2() {
        let tri = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        ];
        let mut stamped = Mesh::from_triangles(tri.clone(), vec![[0, 1, 2]]);
        stamped.stamp_vertex(0, GlobalVertexId(7));
        // Plain, stamped and constrained meshes all write version 3: the
        // plain one is the 33-byte header and its payload, nothing else.
        let plain = Mesh::from_triangles(tri.clone(), vec![[0, 1, 2]]);
        for mesh in [&plain, &stamped, &sample_mesh()] {
            let mut buf = Vec::new();
            write_binary(mesh, &mut buf).unwrap();
            assert_eq!(&buf[..8], b"ADM2DM03");
        }
        let mut buf = Vec::new();
        write_binary(&plain, &mut buf).unwrap();
        assert_eq!(buf.len(), 33 + 3 * 16 + 3 * 4);
        // A v2 file (stamps, no constraint section) written by hand.
        let mut v2 = BINARY_MAGIC_V2.to_vec();
        v2.extend_from_slice(&3u64.to_le_bytes());
        v2.extend_from_slice(&1u64.to_le_bytes());
        for p in &tri {
            v2.extend_from_slice(&p.x.to_le_bytes());
            v2.extend_from_slice(&p.y.to_le_bytes());
        }
        for stamp in [7, u32::MAX, u32::MAX] {
            v2.extend_from_slice(&stamp.to_le_bytes());
        }
        for v in [0u32, 1, 2] {
            v2.extend_from_slice(&v.to_le_bytes());
        }
        let back = read_binary(&mut v2.as_slice()).unwrap();
        assert_eq!(back.points(), tri);
        assert_eq!(back.global_id(0), Some(GlobalVertexId(7)));
        assert_eq!(back.global_id(1), None);
        assert_eq!(back.num_triangles(), 1);
    }

    #[test]
    fn binary_v3_roundtrips_stamps_and_constraints() {
        let mut mesh = sample_mesh();
        mesh.stamp_vertex(0, GlobalVertexId(7));
        mesh.stamp_vertex(3, GlobalVertexId(42));
        let mut buf = Vec::new();
        write_binary(&mesh, &mut buf).unwrap();
        assert_eq!(&buf[..8], b"ADM2DM03");
        let back = read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back.points(), mesh.points());
        assert_eq!(back.global_id(0), Some(GlobalVertexId(7)));
        assert_eq!(back.global_id(1), None);
        assert_eq!(back.global_id(3), Some(GlobalVertexId(42)));
        assert_eq!(back.num_constrained(), mesh.num_constrained());
        // Writing twice gives identical bytes: the edge section is
        // sorted, not HashSet-ordered.
        let mut again = Vec::new();
        write_binary(&back, &mut again).unwrap();
        assert_eq!(buf, again);
    }

    #[test]
    fn bad_magic_rejected() {
        let data = b"NOTAMESHxxxxxxxxxxxxxxxx".to_vec();
        assert!(read_binary(&mut data.as_slice()).is_err());
    }

    #[test]
    fn svg_output_contains_paths() {
        let mesh = sample_mesh();
        let mut buf = Vec::new();
        write_svg(&mesh, &mut buf, 400.0).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("<svg"));
        assert!(s.matches("<path").count() >= mesh.num_triangles());
        assert!(s.ends_with("</svg>\n"));
    }
}
