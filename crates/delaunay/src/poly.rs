//! Triangle-compatible `.poly` PSLG files.
//!
//! The paper's generator is driven by a PSLG input file ("the time to
//! read the input file is under 1 second for 1,500 surface vertices");
//! Shewchuk's `.poly` format is the de-facto interchange for 2-D PSLGs:
//!
//! ```text
//! <#points> 2 <#attrs> <#markers>
//! <id> <x> <y> [attrs...] [marker]
//! <#segments> <#markers>
//! <id> <v1> <v2> [marker]
//! <#holes>
//! <id> <x> <y>
//! ```
//!
//! Ids may be 0- or 1-based; both are accepted and normalized to 0-based.

use adm_geom::point::Point2;
use adm_geom::pslg::Pslg;
use std::io::{self, BufRead, Write};

/// A parsed PSLG file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolyFile {
    /// Vertex coordinates.
    pub points: Vec<Point2>,
    /// Segments as 0-based vertex index pairs.
    pub segments: Vec<(u32, u32)>,
    /// Hole seed points.
    pub holes: Vec<Point2>,
}

impl PolyFile {
    /// The file's content as an (unvalidated) general PSLG domain — the
    /// front-door conversion; run [`Pslg::validate`] on the result.
    pub fn to_pslg(&self) -> Pslg {
        Pslg::new(
            self.points.clone(),
            self.segments.clone(),
            self.holes.clone(),
        )
    }

    /// Packages a PSLG for `.poly` serialization (fuzz-failure artifacts,
    /// example files).
    pub fn from_pslg(pslg: &Pslg) -> PolyFile {
        PolyFile {
            points: pslg.points.clone(),
            segments: pslg.segments.clone(),
            holes: pslg.holes.clone(),
        }
    }
}

/// Reads a `.poly` stream.
pub fn read_poly<R: BufRead>(r: &mut R) -> io::Result<PolyFile> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for line in r.lines() {
        let line = line?;
        let t = line.split('#').next().unwrap_or("").trim();
        if t.is_empty() {
            continue;
        }
        let vals: Result<Vec<f64>, _> = t.split_whitespace().map(str::parse).collect();
        rows.push(vals.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?);
    }
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut it = rows.into_iter();
    let header = it.next().ok_or_else(|| bad("missing node header"))?;
    let n_pts = header[0] as usize;
    let mut raw_pts: Vec<(i64, Point2)> = Vec::with_capacity(n_pts);
    for _ in 0..n_pts {
        let row = it.next().ok_or_else(|| bad("truncated node list"))?;
        if row.len() < 3 {
            return Err(bad("node row needs id x y"));
        }
        raw_pts.push((row[0] as i64, Point2::new(row[1], row[2])));
    }
    // 0- vs 1-based detection from the minimum id.
    let base = raw_pts.iter().map(|(i, _)| *i).min().unwrap_or(0);
    let mut points = vec![Point2::ORIGIN; n_pts];
    for (id, p) in &raw_pts {
        let idx = (id - base) as usize;
        if idx >= n_pts {
            return Err(bad("node id out of range"));
        }
        points[idx] = *p;
    }
    let seg_header = it.next().ok_or_else(|| bad("missing segment header"))?;
    let n_segs = seg_header[0] as usize;
    let mut segments = Vec::with_capacity(n_segs);
    for _ in 0..n_segs {
        let row = it.next().ok_or_else(|| bad("truncated segment list"))?;
        if row.len() < 3 {
            return Err(bad("segment row needs id v1 v2"));
        }
        let a = row[1] as i64 - base;
        let b = row[2] as i64 - base;
        if a < 0 || b < 0 || a as usize >= n_pts || b as usize >= n_pts {
            return Err(bad("segment vertex out of range"));
        }
        segments.push((a as u32, b as u32));
    }
    let mut holes = Vec::new();
    if let Some(hole_header) = it.next() {
        let n_holes = hole_header[0] as usize;
        for _ in 0..n_holes {
            let row = it.next().ok_or_else(|| bad("truncated hole list"))?;
            if row.len() < 3 {
                return Err(bad("hole row needs id x y"));
            }
            holes.push(Point2::new(row[1], row[2]));
        }
    }
    Ok(PolyFile {
        points,
        segments,
        holes,
    })
}

/// Writes a `.poly` stream (0-based ids, no attributes/markers).
pub fn write_poly<W: Write>(poly: &PolyFile, w: &mut W) -> io::Result<()> {
    writeln!(w, "{} 2 0 0", poly.points.len())?;
    for (i, p) in poly.points.iter().enumerate() {
        writeln!(w, "{i} {:.17} {:.17}", p.x, p.y)?;
    }
    writeln!(w, "{} 0", poly.segments.len())?;
    for (i, (a, b)) in poly.segments.iter().enumerate() {
        writeln!(w, "{i} {a} {b}")?;
    }
    writeln!(w, "{}", poly.holes.len())?;
    for (i, h) in poly.holes.iter().enumerate() {
        writeln!(w, "{i} {:.17} {:.17}", h.x, h.y)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_squares() -> PolyFile {
        let p = |x: f64, y: f64| Point2::new(x, y);
        PolyFile {
            points: vec![
                p(0.0, 0.0),
                p(1.0, 0.0),
                p(1.0, 1.0),
                p(0.0, 1.0),
                p(3.0, 0.0),
                p(4.0, 0.0),
                p(4.0, 1.0),
                p(3.0, 1.0),
            ],
            segments: vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
            holes: vec![p(0.5, 0.5)],
        }
    }

    #[test]
    fn roundtrip() {
        let poly = two_squares();
        let mut buf = Vec::new();
        write_poly(&poly, &mut buf).unwrap();
        let back = read_poly(&mut buf.as_slice()).unwrap();
        assert_eq!(back, poly);
    }

    #[test]
    fn one_based_ids_accepted() {
        let text = "\
3 2 0 0
1 0.0 0.0
2 1.0 0.0
3 0.5 1.0
3 0
1 1 2
2 2 3
3 3 1
0
";
        let poly = read_poly(&mut text.as_bytes()).unwrap();
        assert_eq!(poly.points.len(), 3);
        assert_eq!(poly.segments, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn comments_and_blank_lines() {
        let text = "\
# a comment
3 2 0 0

0 0.0 0.0  # trailing comment
1 1.0 0.0
2 0.5 1.0
3 0
0 0 1
1 1 2
2 2 0
0
";
        let poly = read_poly(&mut text.as_bytes()).unwrap();
        assert_eq!(poly.points.len(), 3);
    }

    #[test]
    fn truncated_file_rejected() {
        let text = "3 2 0 0\n0 0.0 0.0\n";
        assert!(read_poly(&mut text.as_bytes()).is_err());
    }
}
