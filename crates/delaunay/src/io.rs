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
/// Coordinates print with exactly 17 fraction digits, the bytes
/// `format!("{:.17}")` gives: for finite `|x| < 2^63` the line encoder
/// prints `round(|x| * 10^17)` computed exactly, with ties to even and the
/// sign kept (`-0.0` and negatives that round to zero print as
/// `-0.00000000000000000`); NaN, infinities and `|x| >= 2^63` go through
/// `std`'s formatter. Output is staged in a bounded buffer of about
/// 64 KiB, so call sites may hand over a bare `File` without paying one
/// syscall per line.
pub fn write_ascii<W: Write>(mesh: &Mesh, w: &mut W) -> io::Result<()> {
    let mut enc = LineEncoder::new(w);
    enc.ints(&[mesh.num_vertices() as u64, 2, 0, 0])?;
    for i in 0..mesh.num_vertices() {
        enc.vertex(i as u64, mesh.vertex(i))?;
    }
    enc.ints(&[mesh.num_triangles() as u64, 3, 0])?;
    for (k, t) in mesh.live_triangles().enumerate() {
        let [a, b, c] = mesh.tris[t as usize].v;
        enc.ints(&[k as u64, a.into(), b.into(), c.into()])?;
    }
    enc.finish()
}

/// Writes the mesh as Triangle-style ASCII in a *canonical* form:
/// vertices sorted by coordinate, triangles renumbered, rotated so their
/// smallest vertex leads (orientation preserved), and sorted. Two meshes
/// describing the same triangulation produce byte-identical output no
/// matter what internal ordering their construction history left behind —
/// which is what lets the chaos tests compare parallel output against the
/// sequential baseline by digest.
///
/// Vertices are ordered by `(x, y)` under `f64::total_cmp`; two vertices
/// with bit-identical coordinates keep their relative id order.
/// Coordinates print exactly as in [`write_ascii`]: 17 fraction digits,
/// `round(|x| * 10^17)` with ties to even for finite `|x| < 2^63`, `std`'s
/// `{:.17}` for everything else.
pub fn write_ascii_canonical<W: Write>(mesh: &Mesh, w: &mut W) -> io::Result<()> {
    // Only vertices referenced by live triangles participate; dead
    // entries (carved/super-triangle leftovers) differ by history. The
    // renumbering table doubles as the "used" mark.
    const UNUSED: u32 = u32::MAX;
    let mut new_id = vec![UNUSED; mesh.num_vertices()];
    for t in mesh.live_triangles() {
        for v in mesh.tris[t as usize].v {
            new_id[v as usize] = 0;
        }
    }
    let mut order: Vec<(u64, u64, u32)> = (0..mesh.num_vertices())
        .filter(|&v| new_id[v] != UNUSED)
        .map(|v| {
            let p = mesh.vertex(v);
            (order_key(p.x), order_key(p.y), v as u32)
        })
        .collect();
    order.sort_unstable();
    for (new, &(_, _, old)) in order.iter().enumerate() {
        new_id[old as usize] = new as u32;
    }
    let mut tris: Vec<u128> = mesh
        .live_triangles()
        .map(|t| {
            let tri = mesh.tris[t as usize].v.map(|v| new_id[v as usize]);
            // Rotate the cycle (a,b,c) so the smallest index leads; this
            // keeps winding, unlike sorting the corners.
            let lead = (0..3).min_by_key(|&i| tri[i]).expect("3 corners");
            let [a, b, c] = [tri[lead], tri[(lead + 1) % 3], tri[(lead + 2) % 3]];
            // Packed so integer order is the lexicographic order of (a,b,c).
            (u128::from(a) << 64) | (u128::from(b) << 32) | u128::from(c)
        })
        .collect();
    tris.sort_unstable();
    let mut enc = LineEncoder::new(w);
    enc.ints(&[order.len() as u64, 2, 0, 0])?;
    for (i, &(kx, ky, _)) in order.iter().enumerate() {
        enc.vertex(
            i as u64,
            Point2::new(from_order_key(kx), from_order_key(ky)),
        )?;
    }
    enc.ints(&[tris.len() as u64, 3, 0])?;
    for (k, &t) in tris.iter().enumerate() {
        let corner = |shift: u32| (t >> shift) as u64 & u64::from(u32::MAX);
        enc.ints(&[k as u64, corner(64), corner(32), corner(0)])?;
    }
    enc.finish()
}

/// The `u64` whose unsigned order is `f64::total_cmp`'s: every bit of a
/// negative value flipped, the sign bit of a non-negative one set.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`].
fn from_order_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Bytes the line encoder gathers before handing them to the writer.
const ENCODE_CHUNK: usize = 64 * 1024;

/// 10^17: one unit in the 17th fraction digit.
const FRAC_SCALE: u64 = 100_000_000_000_000_000;

/// `"00".."99"`, two ASCII digits per entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The one line writer behind [`write_ascii`], [`write_ascii_canonical`]
/// and [`crate::poly::write_poly`]: integers and fixed-17 coordinates
/// printed by hand into a bounded buffer that is drained into `w` every
/// [`ENCODE_CHUNK`] bytes.
pub(crate) struct LineEncoder<'w, W: Write> {
    w: &'w mut W,
    buf: Vec<u8>,
}

impl<'w, W: Write> LineEncoder<'w, W> {
    pub(crate) fn new(w: &'w mut W) -> Self {
        LineEncoder {
            w,
            buf: Vec::with_capacity(ENCODE_CHUNK + 256),
        }
    }

    /// One line of at most four space-separated integers.
    pub(crate) fn ints(&mut self, fields: &[u64]) -> io::Result<()> {
        let mut line = [0u8; 4 * 21];
        let mut n = 0;
        for (i, &v) in fields.iter().enumerate() {
            if i > 0 {
                line[n] = b' ';
                n += 1;
            }
            n += put_uint(&mut line[n..], v);
        }
        self.buf.extend_from_slice(&line[..n]);
        self.end_line()
    }

    /// One `.node` line: `i x y`.
    pub(crate) fn vertex(&mut self, i: u64, p: Point2) -> io::Result<()> {
        let mut line = [0u8; 20 + 2 * (1 + FIXED17_MAX)];
        let mut n = put_uint(&mut line, i);
        for x in [p.x, p.y] {
            line[n] = b' ';
            n += 1;
            match put_fixed17(&mut line[n..], x) {
                Some(len) => n += len,
                None => {
                    self.buf.extend_from_slice(&line[..n]);
                    write!(self.buf, "{x:.17}")?;
                    n = 0;
                }
            }
        }
        self.buf.extend_from_slice(&line[..n]);
        self.end_line()
    }

    fn end_line(&mut self) -> io::Result<()> {
        self.buf.push(b'\n');
        if self.buf.len() >= ENCODE_CHUNK {
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> io::Result<()> {
        self.w.write_all(&self.buf)?;
        self.w.flush()
    }
}

/// Writes the decimal digits of `v` at the start of `out`; returns how
/// many (at most 20).
fn put_uint(out: &mut [u8], v: u64) -> usize {
    let len = v.checked_ilog10().unwrap_or(0) as usize + 1;
    put_padded(&mut out[..len], v);
    len
}

/// Fills `out` with the `out.len()` low decimal digits of `v`,
/// zero-padded.
fn put_padded(out: &mut [u8], mut v: u64) {
    let mut at = out.len();
    while at >= 2 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if at == 1 {
        out[0] = b'0' + (v % 10) as u8;
    }
}

/// Longest [`put_fixed17`] output: sign, 19 integer digits, the point
/// and 17 fraction digits.
const FIXED17_MAX: usize = 1 + 19 + 1 + 17;

/// Writes `x` with exactly 17 fraction digits at the start of `out`, the
/// bytes `format!("{x:.17}")` gives, and returns their count. Returns
/// `None`, writing nothing, for NaN, the infinities and `|x| >= 2^63`,
/// which the caller hands to `std`.
///
/// `|x| = m * 2^e` exactly with `m < 2^53`, so `|x| * 10^17` is
/// `m * 10^17` (< 2^110) shifted by `e`, which `u128` holds: exact for
/// `e >= 0` (`e <= 10`, < 2^120), and rounded half to even from the
/// shifted-out bits for `e < 0`, which is `std`'s exact-mode rule.
fn put_fixed17(out: &mut [u8], x: f64) -> Option<usize> {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    // Exponent 63 and up: |x| >= 2^63, and 2047 is NaN/inf.
    if biased >= 1023 + 63 {
        return None;
    }
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let scaled = u128::from(m) * u128::from(FRAC_SCALE);
    let r = if e >= 0 {
        scaled << e
    } else if e > -120 {
        let s = e.unsigned_abs();
        let (q, rem, half) = (scaled >> s, scaled & ((1 << s) - 1), 1u128 << (s - 1));
        q + u128::from(rem > half || (rem == half && q & 1 == 1))
    } else {
        // scaled < 2^110 <= 2^(s-1): below half a unit.
        0
    };
    let (int, frac) = match u64::try_from(r) {
        Ok(r) => (r / FRAC_SCALE, r % FRAC_SCALE),
        Err(_) => (
            (r / u128::from(FRAC_SCALE)) as u64,
            (r % u128::from(FRAC_SCALE)) as u64,
        ),
    };
    let mut n = 0;
    if bits >> 63 == 1 {
        out[0] = b'-';
        n = 1;
    }
    n += put_uint(&mut out[n..], int);
    out[n] = b'.';
    put_padded(&mut out[n + 1..n + 9], frac / 1_000_000_000);
    put_padded(&mut out[n + 9..n + 18], frac % 1_000_000_000);
    Some(n + 18)
}

/// Reads a mesh previously written by [`write_ascii`].
///
/// Fails closed like [`read_binary`]: a count or vertex index that is not
/// an integer, an index at or past the vertex count, a short row, a field
/// that is not a number, or a soup that is not a manifold mesh is
/// `InvalidData`; input that ends early is `UnexpectedEof`. A header's
/// counts reserve at most 2^20 entries up front.
pub fn read_ascii<R: BufRead>(r: &mut R) -> io::Result<Mesh> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    // Leaves the next non-blank, non-comment line in `line`.
    let next_row = |r: &mut R, line: &mut String| -> io::Result<()> {
        loop {
            line.clear();
            if r.read_line(line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated mesh",
                ));
            }
            let t = line.trim();
            if !t.is_empty() && !t.starts_with('#') {
                return Ok(());
            }
        }
    };
    // Every field of a row must be a number, as in Triangle's format.
    let numeric_tail = |fields: std::str::SplitWhitespace| {
        for f in fields {
            f.parse::<f64>().map_err(|_| bad("non-numeric field"))?;
        }
        Ok::<(), io::Error>(())
    };
    let count = |line: &str, what: &str| -> io::Result<usize> {
        let mut fields = line.split_whitespace();
        let c = fields
            .next()
            .and_then(|f| f.parse::<u32>().ok())
            .ok_or_else(|| bad(what))?;
        numeric_tail(fields)?;
        Ok(c as usize)
    };
    next_row(r, &mut line)?;
    let n = count(&line, "bad vertex count")?;
    let mut vertices = Vec::with_capacity(n.min(MAX_PREALLOC));
    for _ in 0..n {
        next_row(r, &mut line)?;
        let mut fields = line.split_whitespace();
        let mut coord = || {
            fields
                .next()
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| bad("short or non-numeric vertex row"))
        };
        let (_index, x, y) = (coord()?, coord()?, coord()?);
        numeric_tail(fields)?;
        vertices.push(Point2::new(x, y));
    }
    next_row(r, &mut line)?;
    let m = count(&line, "bad triangle count")?;
    let mut tris = Vec::with_capacity(m.min(MAX_PREALLOC));
    for _ in 0..m {
        next_row(r, &mut line)?;
        let mut fields = line.split_whitespace();
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| bad("short or non-numeric triangle row"))?;
        let mut corner = || {
            fields
                .next()
                .and_then(|f| f.parse::<u32>().ok())
                .filter(|&v| (v as usize) < n)
                .ok_or_else(|| bad("triangle corner is not a vertex index"))
        };
        let t = [corner()?, corner()?, corner()?];
        numeric_tail(fields)?;
        tris.push(t);
    }
    Mesh::try_from_triangles(vertices, tris)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The most entries a reader reserves from an untrusted header count
/// before the data behind it has been read.
const MAX_PREALLOC: usize = 1 << 20;

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

    /// The two ASCII writers as they were before the line encoder, kept
    /// verbatim as the byte oracle.
    mod reference {
        use crate::mesh::Mesh;
        use std::io::{self, BufWriter, Write};

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
    }

    /// One `.node` line through the line encoder.
    fn encoded_vertex_line(i: u64, x: f64, y: f64) -> String {
        let mut out = Vec::new();
        let mut enc = LineEncoder::new(&mut out);
        enc.vertex(i, Point2::new(x, y)).unwrap();
        enc.finish().unwrap();
        String::from_utf8(out).unwrap()
    }

    fn assert_formats_like_std(i: u64, x: f64, y: f64) {
        assert_eq!(
            encoded_vertex_line(i, x, y),
            format!("{i} {x:.17} {y:.17}\n"),
            "bits {:#018x} {:#018x}",
            x.to_bits(),
            y.to_bits()
        );
    }

    #[test]
    fn fixed17_matches_std_on_a_seeded_corpus() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x05ee_df17);
        let mut checked = 0usize;
        let mut check = |i: u64, x: f64, y: f64| {
            assert_formats_like_std(i, x, y);
            checked += 2;
        };
        for i in 0..160_000u64 {
            // Raw bit patterns: every exponent, both signs, NaN payloads.
            // Half are past 2^63, where std formats both sides and its
            // long expansions are slow, so most of those only have their
            // routing checked.
            let (a, b) = (rng.next_u64(), rng.next_u64());
            let mut out = [0u8; FIXED17_MAX];
            let fast = put_fixed17(&mut out, f64::from_bits(a)).is_some();
            if fast || i % 64 == 0 {
                check(i, f64::from_bits(a), f64::from_bits(b));
            }
            // The fast path's whole range: any sign and mantissa, every
            // exponent below 2^63, subnormals included.
            let mut in_range = || {
                let biased = rng.gen_range(0u64..1023 + 63);
                let bits = rng.next_u64() & (1 << 63 | ((1 << 52) - 1));
                f64::from_bits(bits | biased << 52)
            };
            let (a, b) = (in_range(), in_range());
            check(i, a, b);
            // Coordinates the size of a mesh's.
            let (a, b) = (rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0));
            check(i * 7919, a, b);
            // Tiny values, where almost every digit is a rounding decision.
            let (a, b) = (rng.gen_range(-1e-12..1e-12), rng.gen_range(-1e-12..1e-12));
            check(u64::MAX - i, a, b);
        }
        assert!(checked >= 1_000_000, "{checked} values");
    }

    #[test]
    fn fixed17_breaks_exact_ties_to_even() {
        // m * 2^-(18 + j) has 18 + j fraction digits, so every one is a
        // tie or a near-tie at the 17th digit.
        for j in 0..40 {
            for m in (1u32..200).step_by(2) {
                let x = f64::from(m) * 2f64.powi(-(18 + j));
                assert_formats_like_std(j as u64, x, -x);
            }
        }
        assert_eq!(
            encoded_vertex_line(0, 2f64.powi(-18), 3.0 * 2f64.powi(-18)),
            "0 0.00000381469726562 0.00001144409179688\n"
        );
    }

    #[test]
    fn fixed17_edge_values_and_fallback() {
        let two63 = 2f64.powi(63);
        let below = f64::from_bits(two63.to_bits() - 1);
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e-17,
            5e-18,
            -5e-18,
            0.5,
            1.0,
            below,
            -below,
            two63,
            -two63,
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for &x in &edges {
            for &y in &edges {
                assert_formats_like_std(3, x, y);
            }
        }
        let mut out = [0u8; FIXED17_MAX];
        assert!(put_fixed17(&mut out, below).is_some());
        for x in [two63, -two63, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(put_fixed17(&mut out, x), None, "{x} takes std's path");
        }
    }

    #[test]
    fn order_key_is_total_cmp_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in vals {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits());
            for b in vals {
                assert_eq!(order_key(a).cmp(&order_key(b)), a.total_cmp(&b), "{a} {b}");
            }
        }
    }

    #[test]
    fn encoder_drains_through_a_bounded_buffer() {
        /// Records the size of every write it is handed.
        struct Chunks(Vec<usize>, Vec<u8>);
        impl Write for Chunks {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.push(b.len());
                self.1.extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut mesh = sample_mesh();
        for i in 0..4000 {
            let p = Point2::new(0.1 + (i % 63) as f64 * 0.045, 0.1 + (i / 63) as f64 * 0.044);
            mesh.insert_point(p, 0);
        }
        let mut sink = Chunks(Vec::new(), Vec::new());
        write_ascii_canonical(&mesh, &mut sink).unwrap();
        assert!(sink.0.len() > 2, "{:?}", sink.0);
        assert!(
            sink.0.iter().all(|&n| n < ENCODE_CHUNK + 256),
            "{:?}",
            sink.0
        );
        let mut want = Vec::new();
        reference::write_ascii_canonical(&mesh, &mut want).unwrap();
        assert_eq!(sink.1, want);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Both writers are byte-identical to the reference on meshes with
        /// dead slots, unused vertices, bit-identical coordinates and
        /// magnitudes from subnormal to past 2^63.
        #[test]
        fn writers_match_the_reference(
            raw in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..80),
            scale_pow in -330i32..22,
            kills in 0usize..6,
        ) {
            let scale = 10f64.powi(scale_pow);
            let pts: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x * scale, y)).collect();
            let dc = crate::divconq::triangulate_dc(&pts, false);
            let tris = dc.triangles();
            proptest::prop_assume!(!tris.is_empty());
            let mut mesh = Mesh::from_triangles(dc.points.clone(), tris);
            // A duplicate of vertex 0 that no triangle uses, and a few dead
            // slots whose vertices may go unused.
            mesh.insert_point(Point2::new(1e-9 * scale, 0.5), 0);
            let dead: std::collections::HashSet<u32> =
                mesh.live_triangles().take(kills.min(mesh.num_triangles() - 1)).collect();
            mesh.remove_triangles(&dead);
            for canonical in [false, true] {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                if canonical {
                    write_ascii_canonical(&mesh, &mut got).unwrap();
                    reference::write_ascii_canonical(&mesh, &mut want).unwrap();
                } else {
                    write_ascii(&mesh, &mut got).unwrap();
                    reference::write_ascii(&mesh, &mut want).unwrap();
                }
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    /// `read_ascii` on `text`, which must fail with `kind`.
    fn assert_ascii_rejected(text: &str, kind: io::ErrorKind) {
        match read_ascii(&mut text.as_bytes()) {
            Ok(_) => panic!("accepted {text:?}"),
            Err(e) => assert_eq!(e.kind(), kind, "{text:?}: {e}"),
        }
    }

    const THREE_POINTS: &str = "3 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n";

    #[test]
    fn ascii_short_rows_are_errors() {
        assert_ascii_rejected(
            "3 2 0 0\n0 0.0 0.0\n1 1.0\n2 0.0 1.0\n1 3 0\n0 0 1 2\n",
            io::ErrorKind::InvalidData,
        );
        assert_ascii_rejected(
            &format!("{THREE_POINTS}1 3 0\n0 0 1\n"),
            io::ErrorKind::InvalidData,
        );
        assert_ascii_rejected("", io::ErrorKind::UnexpectedEof);
        assert_ascii_rejected(THREE_POINTS, io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn ascii_header_counts_are_bounded_integers() {
        assert_ascii_rejected("1e18 2 0 0\n", io::ErrorKind::InvalidData);
        assert_ascii_rejected("1000000000000000000 2 0 0\n", io::ErrorKind::InvalidData);
        assert_ascii_rejected("-3 2 0 0\n", io::ErrorKind::InvalidData);
        assert_ascii_rejected(
            &format!("{THREE_POINTS}2.5 3 0\n"),
            io::ErrorKind::InvalidData,
        );
        // A count that fits u32 but not the input reserves no more than
        // the cap, then runs out of rows.
        assert_ascii_rejected(
            "4294967295 2 0 0\n0 0.0 0.0\n",
            io::ErrorKind::UnexpectedEof,
        );
        assert_ascii_rejected(
            &format!("{THREE_POINTS}4294967295 3 0\n0 0 1 2\n"),
            io::ErrorKind::UnexpectedEof,
        );
    }

    #[test]
    fn ascii_corner_indices_must_be_vertex_indices() {
        for bad in ["-1", "1.5", "NaN", "3", "4294967296", "x"] {
            assert_ascii_rejected(
                &format!("{THREE_POINTS}1 3 0\n0 0 1 {bad}\n"),
                io::ErrorKind::InvalidData,
            );
        }
        assert_ascii_rejected(
            "3 2 0 0\n0 0.0 0.0\n1 one 0.0\n2 0.0 1.0\n1 3 0\n0 0 1 2\n",
            io::ErrorKind::InvalidData,
        );
        let ok = read_ascii(&mut format!("{THREE_POINTS}1 3 0\n0 0 1 2\n").as_bytes()).unwrap();
        assert_eq!(ok.num_triangles(), 1);
    }

    #[test]
    fn non_manifold_ascii_is_an_error_not_a_panic() {
        let pts = "5 2 0 0\n0 0 0\n1 1 0\n2 0.5 1\n3 0.5 -1\n4 0.5 2\n";
        for tris in [
            "3 3 0\n0 0 1 2\n1 1 0 3\n2 0 1 4\n",
            "1 3 0\n0 0 0 1\n",
            "2 3 0\n0 0 1 2\n1 0 1 2\n",
        ] {
            assert_ascii_rejected(&format!("{pts}{tris}"), io::ErrorKind::InvalidData);
        }
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
