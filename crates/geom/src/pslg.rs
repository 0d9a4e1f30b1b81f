//! General planar straight-line graph (PSLG) domains with validation.
//!
//! The front door for arbitrary multi-part polygonal input: a point set,
//! undirected constraint segments (closed loops, open chains, isolated
//! interior points are all legal), and Triangle-style hole seeds. The
//! meshable region is defined exactly as Triangle's `-p` switch defines
//! it: the constrained Delaunay triangulation of everything, carved from
//! the outside and from each hole seed.
//!
//! [`Pslg::validate`] is the single admission gate: configurations a CDT
//! handles are *repaired* in place (duplicate points merged, degenerate
//! and duplicate segments dropped), configurations no CDT can represent
//! are *rejected* with a typed [`PslgError`]. Everything downstream — the
//! pipeline, the fuzz harness, the `.poly` reader — goes through it, so
//! "accepted by validate" is the robustness contract the fuzz gate
//! enforces.

use crate::aabb::Aabb;
use crate::point::{canonical_bits, Point2};
use crate::segment::Segment;
use std::collections::HashMap;
use std::fmt;

/// A general PSLG domain: points, undirected constraint segments (by
/// point index), and hole seed points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pslg {
    /// Vertex coordinates.
    pub points: Vec<Point2>,
    /// Constraint segments as point-index pairs. Closed loops, open
    /// chains, and shared endpoints are all allowed; crossings are not.
    pub segments: Vec<(u32, u32)>,
    /// Hole seeds: one point strictly inside each region to carve out.
    pub holes: Vec<Point2>,
}

/// Why a PSLG cannot be meshed. Repairable defects never reach this —
/// [`Pslg::validate`] fixes them and reports the fixes in
/// [`RepairReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum PslgError {
    /// The PSLG has no points at all.
    Empty,
    /// A coordinate is NaN or infinite.
    NonFinitePoint(usize),
    /// A hole seed coordinate is NaN or infinite.
    NonFiniteHole(usize),
    /// A segment references a point index that does not exist.
    SegmentOutOfRange { segment: usize, vertex: u32 },
    /// Two constraint segments cross at a point interior to both. The
    /// pairs are the (repaired) endpoint indices of the two segments.
    SegmentsCross { a: (u32, u32), b: (u32, u32) },
    /// Fewer than three distinct points survive repair — no triangulation
    /// exists.
    TooFewPoints,
}

impl fmt::Display for PslgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PslgError::Empty => write!(f, "PSLG has no points"),
            PslgError::NonFinitePoint(i) => write!(f, "point {i} is not finite"),
            PslgError::NonFiniteHole(i) => write!(f, "hole seed {i} is not finite"),
            PslgError::SegmentOutOfRange { segment, vertex } => {
                write!(f, "segment {segment} references missing point {vertex}")
            }
            PslgError::SegmentsCross { a, b } => write!(
                f,
                "segments ({},{}) and ({},{}) properly cross",
                a.0, a.1, b.0, b.1
            ),
            PslgError::TooFewPoints => write!(f, "fewer than 3 distinct points"),
        }
    }
}

impl std::error::Error for PslgError {}

/// What [`Pslg::validate`] repaired on the way to a valid PSLG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Points merged into an earlier exact duplicate (`-0.0` and `0.0`
    /// coordinates count as the same position).
    pub merged_points: usize,
    /// Segments dropped because both endpoints merged to one point.
    pub dropped_degenerate: usize,
    /// Segments dropped as exact (undirected) duplicates of an earlier
    /// segment.
    pub dropped_duplicate: usize,
}

impl RepairReport {
    /// `true` when validation changed nothing.
    pub fn is_clean(&self) -> bool {
        *self == RepairReport::default()
    }
}

/// A PSLG that passed [`Pslg::validate`]: duplicate-free points, no
/// degenerate or duplicate segments, no proper segment crossings.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidPslg {
    /// The repaired PSLG.
    pub pslg: Pslg,
    /// What repair did.
    pub report: RepairReport,
}

/// The lexicographically first pair `(i, j)`, `i < j`, of `segs` for
/// which `conflict(i, j)` holds, or `None`: the one segment-pair search of
/// the workspace, behind [`Pslg::validate`],
/// [`crate::polygon::is_simple`] and the boundary layer's ray check.
///
/// A sort-and-sweep: segments are ordered by the low `x` of their bounding
/// box, the active window holds those whose `x`-extent still reaches the
/// sweep line, and only pairs whose closed boxes also overlap in `y` reach
/// `conflict` — so `conflict` must hold only for segments that share a
/// point (touching, crossing or overlapping segments all lie in both
/// boxes), and the coordinates must be finite. The sweep runs to the end
/// and keeps the smallest conflicting pair, so the answer is the one an
/// all-pairs loop in index order would stop at. Long segments that all
/// overlap in `x` stay in the window together, which is the quadratic
/// worst case [`Pslg::validate`] documents.
pub fn first_crossing(
    segs: &[Segment],
    mut conflict: impl FnMut(usize, usize) -> bool,
) -> Option<(usize, usize)> {
    let boxes: Vec<Aabb> = segs.iter().map(Aabb::of_segment).collect();
    let mut order: Vec<usize> = (0..segs.len()).collect();
    order.sort_unstable_by(|&i, &j| boxes[i].min.x.total_cmp(&boxes[j].min.x).then(i.cmp(&j)));
    let mut active: Vec<usize> = Vec::new();
    let mut first: Option<(usize, usize)> = None;
    for &s in &order {
        active.retain(|&t| boxes[t].max.x >= boxes[s].min.x);
        for &t in &active {
            if !boxes[t].intersects(&boxes[s]) {
                continue;
            }
            let pair = (s.min(t), s.max(t));
            if first.is_none_or(|f| pair < f) && conflict(pair.0, pair.1) {
                first = Some(pair);
            }
        }
        active.push(s);
    }
    first
}

impl Pslg {
    /// Builds a PSLG; no validation happens until [`Pslg::validate`].
    pub fn new(points: Vec<Point2>, segments: Vec<(u32, u32)>, holes: Vec<Point2>) -> Self {
        Pslg {
            points,
            segments,
            holes,
        }
    }

    /// Appends a closed loop: its points, then one segment from each point
    /// to the next and from the last back to the first. The one
    /// loop-to-segment encoder of the workspace.
    pub fn push_loop(&mut self, loop_pts: &[Point2]) {
        let base = self.points.len() as u32;
        let n = loop_pts.len() as u32;
        self.points.extend_from_slice(loop_pts);
        self.segments
            .extend((0..n).map(|i| (base + i, base + (i + 1) % n)));
    }

    /// Bounding box of all points.
    pub fn bbox(&self) -> Aabb {
        let mut b = Aabb::empty();
        for &p in &self.points {
            b.expand(p);
        }
        b
    }

    /// Validates and repairs the PSLG.
    ///
    /// **Repaired** (CDT-representable, fixed silently and reported):
    /// exact duplicate points are merged, segments whose endpoints merged
    /// are dropped, duplicate undirected segments are dropped.
    ///
    /// **Accepted as-is**: shared endpoints, T-junctions at a vertex,
    /// vertices lying exactly on a segment (the CDT splits the constraint
    /// there), collinear overlapping segments whose overlap ends at
    /// vertices, touching parts, open chains, isolated points.
    ///
    /// **Rejected** with a typed error: non-finite coordinates,
    /// out-of-range indices, segments that properly cross (no CDT
    /// contains both as edges), fewer than three distinct points. The
    /// named crossing pair is the first one in repaired segment order.
    ///
    /// **Cost**: the crossing check sweeps the segments in `x`, so
    /// disjoint or local geometry costs `O(n log n)` plus the pairs whose
    /// bounding boxes overlap. It is still quadratic when many long
    /// segments all overlap in `x` (say, a stack of near-horizontal
    /// chords spanning the domain).
    pub fn validate(&self) -> Result<ValidPslg, PslgError> {
        let (pslg, report) = self.repair()?;
        let segs: Vec<Segment> = pslg
            .segments
            .iter()
            .map(|&(a, b)| Segment::new(pslg.points[a as usize], pslg.points[b as usize]))
            .collect();
        if let Some((i, j)) = first_crossing(&segs, |i, j| segs[i].properly_intersects(&segs[j])) {
            return Err(PslgError::SegmentsCross {
                a: pslg.segments[i],
                b: pslg.segments[j],
            });
        }
        Ok(ValidPslg { pslg, report })
    }

    /// Every check and repair of [`Pslg::validate`] except the crossing
    /// check.
    fn repair(&self) -> Result<(Pslg, RepairReport), PslgError> {
        if self.points.is_empty() {
            return Err(PslgError::Empty);
        }
        for (i, p) in self.points.iter().enumerate() {
            if !p.is_finite() {
                return Err(PslgError::NonFinitePoint(i));
            }
        }
        for (i, h) in self.holes.iter().enumerate() {
            if !h.is_finite() {
                return Err(PslgError::NonFiniteHole(i));
            }
        }
        let n = self.points.len() as u32;
        for (i, &(a, b)) in self.segments.iter().enumerate() {
            for v in [a, b] {
                if v >= n {
                    return Err(PslgError::SegmentOutOfRange {
                        segment: i,
                        vertex: v,
                    });
                }
            }
        }

        let mut report = RepairReport::default();

        // Merge exact duplicate points (first occurrence wins) and remap.
        let mut canon: HashMap<(u64, u64), u32> = HashMap::with_capacity(self.points.len());
        let mut remap: Vec<u32> = Vec::with_capacity(self.points.len());
        let mut points: Vec<Point2> = Vec::with_capacity(self.points.len());
        for &p in &self.points {
            let next = points.len() as u32;
            let id = *canon.entry(canonical_bits(p)).or_insert(next);
            if id == next {
                points.push(p);
            } else {
                report.merged_points += 1;
            }
            remap.push(id);
        }
        if points.len() < 3 {
            return Err(PslgError::TooFewPoints);
        }

        // Remap segments; drop degenerate and duplicate ones.
        let mut seen: HashMap<(u32, u32), ()> = HashMap::with_capacity(self.segments.len());
        let mut segments: Vec<(u32, u32)> = Vec::with_capacity(self.segments.len());
        for &(a, b) in &self.segments {
            let (a, b) = (remap[a as usize], remap[b as usize]);
            if a == b {
                report.dropped_degenerate += 1;
                continue;
            }
            let key = (a.min(b), a.max(b));
            if seen.insert(key, ()).is_some() {
                report.dropped_duplicate += 1;
                continue;
            }
            segments.push((a, b));
        }

        let pslg = Pslg {
            points,
            segments,
            holes: self.holes.clone(),
        };
        Ok((pslg, report))
    }
}

impl ValidPslg {
    /// Closed loops of the segment graph, each returned as a CCW-oriented
    /// point cycle (orientation is *repaired*, never rejected: undirected
    /// segments carry no orientation, so normalizing to CCW is free).
    /// Vertices of open chains and isolated points appear in no loop.
    /// Vertices with degree > 2 (loops sharing a vertex) stop loop
    /// extraction at that vertex — such configurations still mesh, they
    /// just have no unambiguous loop decomposition.
    pub fn closed_loops(&self) -> Vec<Vec<Point2>> {
        let n = self.pslg.points.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in &self.pslg.segments {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let mut visited = vec![false; n];
        let mut loops = Vec::new();
        for start in 0..n as u32 {
            if visited[start as usize] || adj[start as usize].len() != 2 {
                continue;
            }
            // Walk the degree-2 chain; it is a loop iff it returns to
            // `start` through degree-2 vertices only.
            let mut cycle: Vec<u32> = vec![start];
            let mut prev = u32::MAX;
            let mut cur = start;
            let closed = loop {
                let nbrs = &adj[cur as usize];
                if nbrs.len() != 2 {
                    break false;
                }
                let next = if nbrs[0] != prev { nbrs[0] } else { nbrs[1] };
                if next == start {
                    break true;
                }
                if cycle.len() > n {
                    break false;
                }
                prev = cur;
                cur = next;
                cycle.push(cur);
            };
            if !closed || cycle.len() < 3 {
                continue;
            }
            for &v in &cycle {
                visited[v as usize] = true;
            }
            let mut pts: Vec<Point2> = cycle
                .iter()
                .map(|&v| self.pslg.points[v as usize])
                .collect();
            if !crate::polygon::is_ccw(&pts) {
                pts.reverse();
            }
            loops.push(pts);
        }
        loops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn square(x0: f64, y0: f64, s: f64, base: u32) -> (Vec<Point2>, Vec<(u32, u32)>) {
        (
            vec![p(x0, y0), p(x0 + s, y0), p(x0 + s, y0 + s), p(x0, y0 + s)],
            vec![
                (base, base + 1),
                (base + 1, base + 2),
                (base + 2, base + 3),
                (base + 3, base),
            ],
        )
    }

    #[test]
    fn clean_pslg_validates_unchanged() {
        let (pts, segs) = square(0.0, 0.0, 1.0, 0);
        let pslg = Pslg::new(pts.clone(), segs.clone(), vec![]);
        let v = pslg.validate().unwrap();
        assert!(v.report.is_clean());
        assert_eq!(v.pslg.points, pts);
        assert_eq!(v.pslg.segments, segs);
    }

    #[test]
    fn duplicate_points_merge_and_remap() {
        // Point 4 duplicates point 0 (one as -0.0); a segment to it must
        // remap to 0 and a (4,0) segment becomes degenerate and drops.
        let pslg = Pslg::new(
            vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0), p(-0.0, 0.0)],
            vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            vec![],
        );
        let v = pslg.validate().unwrap();
        assert_eq!(v.report.merged_points, 1);
        assert_eq!(v.report.dropped_degenerate, 1);
        assert_eq!(v.pslg.points.len(), 3);
        assert_eq!(v.pslg.segments, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn duplicate_segments_drop() {
        let (pts, mut segs) = square(0.0, 0.0, 1.0, 0);
        segs.push((1, 0)); // reversed duplicate of (0, 1)
        let v = Pslg::new(pts, segs, vec![]).validate().unwrap();
        assert_eq!(v.report.dropped_duplicate, 1);
        assert_eq!(v.pslg.segments.len(), 4);
    }

    #[test]
    fn proper_crossing_rejected() {
        let pslg = Pslg::new(
            vec![p(0.0, 0.0), p(2.0, 2.0), p(0.0, 2.0), p(2.0, 0.0)],
            vec![(0, 1), (2, 3)],
            vec![],
        );
        match pslg.validate() {
            Err(PslgError::SegmentsCross { a, b }) => {
                assert_eq!(a, (0, 1));
                assert_eq!(b, (2, 3));
            }
            other => panic!("expected SegmentsCross, got {other:?}"),
        }
    }

    /// The all-pairs loop the sweep replaced, in index order: the
    /// accept/reject oracle for [`first_crossing`].
    fn first_crossing_all_pairs(
        points: &[Point2],
        segments: &[(u32, u32)],
    ) -> Option<(usize, usize)> {
        let seg = |(a, b): (u32, u32)| Segment::new(points[a as usize], points[b as usize]);
        for i in 0..segments.len() {
            for j in i + 1..segments.len() {
                if seg(segments[i]).properly_intersects(&seg(segments[j])) {
                    return Some((i, j));
                }
            }
        }
        None
    }

    /// Sweep and oracle agree on `pslg`'s repaired segments, and a named
    /// pair really crosses; returns that pair.
    fn sweep_agrees_with_all_pairs(pslg: &Pslg) -> Option<(usize, usize)> {
        let (repaired, _) = pslg.repair().expect("the corpus repairs");
        let (pts, segs) = (&repaired.points, &repaired.segments);
        let seg = |(a, b): (u32, u32)| Segment::new(pts[a as usize], pts[b as usize]);
        let lines: Vec<Segment> = segs.iter().map(|&s| seg(s)).collect();
        let got = first_crossing(&lines, |i, j| lines[i].properly_intersects(&lines[j]));
        assert_eq!(got, first_crossing_all_pairs(pts, segs));
        if let Some((i, j)) = got {
            assert!(i < j);
            assert!(seg(segs[i]).properly_intersects(&seg(segs[j])));
            let (a, b) = (segs[i], segs[j]);
            assert_eq!(pslg.validate(), Err(PslgError::SegmentsCross { a, b }));
        } else {
            assert!(pslg.validate().is_ok());
        }
        got
    }

    /// `rows × cols` disjoint triangles, one per unit cell: `3·rows·cols`
    /// segments, none touching another.
    fn triangle_grid(rows: u32, cols: u32) -> Pslg {
        let mut pts = Vec::new();
        let mut segs = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let (x, y) = (c as f64, r as f64);
                let base = pts.len() as u32;
                pts.extend([
                    p(x + 0.1, y + 0.1),
                    p(x + 0.9, y + 0.1),
                    p(x + 0.5, y + 0.9),
                ]);
                segs.extend([(base, base + 1), (base + 1, base + 2), (base + 2, base)]);
            }
        }
        Pslg::new(pts, segs, vec![])
    }

    #[test]
    fn sweep_matches_all_pairs_on_the_generator_corpus() {
        let mut rejected = 0;
        for seed in 0..400 {
            let case = crate::pslg_gen::generate_pslg(seed);
            let got = sweep_agrees_with_all_pairs(&case.pslg);
            if case.expect_reject {
                assert!(got.is_some(), "seed {seed}: planted crossing accepted");
                rejected += 1;
            }
        }
        assert!(rejected > 0, "the corpus plants crossings");
    }

    #[test]
    fn sweep_matches_all_pairs_on_crossing_soups_and_grids() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        // Random chords: many crossings, so the *first* pair matters.
        for n in [3usize, 8, 30, 120] {
            for _ in 0..20 {
                let pts: Vec<Point2> = (0..2 * n)
                    .map(|_| p(rng.gen_range(0..16) as f64, rng.gen_range(0..16) as f64))
                    .collect();
                let segs = (0..n as u32).map(|k| (2 * k, 2 * k + 1)).collect();
                sweep_agrees_with_all_pairs(&Pslg::new(pts, segs, vec![]));
            }
        }
        // A clean 3,072-segment grid, then the same grid with one long
        // diagonal planted last that crosses several cells.
        let mut grid = triangle_grid(32, 32);
        assert_eq!(sweep_agrees_with_all_pairs(&grid), None);
        let base = grid.points.len() as u32;
        grid.points.extend([p(3.5, 3.0), p(6.5, 6.6)]);
        grid.segments.push((base, base + 1));
        assert!(sweep_agrees_with_all_pairs(&grid).is_some());
    }

    #[test]
    fn sweep_validates_49152_disjoint_segments() {
        // 16,384 disjoint triangles: the all-pairs check took 17.5 s on
        // a 2-vCPU Xeon in release, the sweep 0.044 s.
        let v = triangle_grid(128, 128).validate().unwrap();
        assert!(v.report.is_clean());
        assert_eq!(v.pslg.segments.len(), 49_152);
    }

    #[test]
    fn touching_parts_and_t_junctions_accepted() {
        // Two squares sharing corner (1,1); a T-junction vertex exactly on
        // the first square's bottom edge.
        let (mut pts, mut segs) = square(0.0, 0.0, 1.0, 0);
        let (pts2, segs2) = square(1.0, 1.0, 1.0, 4);
        pts.extend(pts2);
        segs.extend(segs2);
        pts.push(p(0.5, 0.0)); // exactly on segment (0,1)
        pts.push(p(0.5, -1.0));
        segs.push((8, 9));
        let v = Pslg::new(pts, segs, vec![]).validate().unwrap();
        // The shared corner is listed once per square; repair merges the
        // two copies and nothing else changes.
        assert_eq!(v.report.merged_points, 1);
        assert_eq!(v.report.dropped_degenerate, 0);
        assert_eq!(v.report.dropped_duplicate, 0);
        assert_eq!(v.pslg.points.len(), 9);
        assert_eq!(v.pslg.segments.len(), 9);
    }

    #[test]
    fn collinear_overlap_accepted() {
        // (0,1) and (2,3) overlap along y = 0 between x = 1 and x = 2; the
        // overlap ends at vertices, which the CDT splits at.
        let pslg = Pslg::new(
            vec![
                p(0.0, 0.0),
                p(2.0, 0.0),
                p(1.0, 0.0),
                p(3.0, 0.0),
                p(1.5, 1.0),
            ],
            vec![(0, 1), (2, 3)],
            vec![],
        );
        assert!(pslg.validate().is_ok());
    }

    #[test]
    fn non_finite_rejected() {
        let pslg = Pslg::new(
            vec![p(0.0, 0.0), p(f64::NAN, 0.0), p(1.0, 1.0)],
            vec![],
            vec![],
        );
        assert_eq!(pslg.validate().unwrap_err(), PslgError::NonFinitePoint(1));
    }

    #[test]
    fn out_of_range_segment_rejected() {
        let pslg = Pslg::new(
            vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)],
            vec![(0, 7)],
            vec![],
        );
        assert!(matches!(
            pslg.validate(),
            Err(PslgError::SegmentOutOfRange {
                segment: 0,
                vertex: 7
            })
        ));
    }

    #[test]
    fn too_few_points_rejected() {
        let pslg = Pslg::new(vec![p(0.0, 0.0), p(0.0, 0.0), p(-0.0, 0.0)], vec![], vec![]);
        assert_eq!(pslg.validate().unwrap_err(), PslgError::TooFewPoints);
    }

    #[test]
    fn closed_loops_extracted_ccw() {
        let (mut pts, mut segs) = square(0.0, 0.0, 1.0, 0);
        // Second square listed clockwise; plus an open chain.
        pts.extend([p(3.0, 0.0), p(3.0, 1.0), p(4.0, 1.0), p(4.0, 0.0)]);
        segs.extend([(4, 5), (5, 6), (6, 7), (7, 4)]);
        pts.extend([p(10.0, 0.0), p(11.0, 0.0)]);
        segs.push((8, 9));
        let v = Pslg::new(pts, segs, vec![]).validate().unwrap();
        let loops = v.closed_loops();
        assert_eq!(loops.len(), 2);
        for l in &loops {
            assert!(crate::polygon::is_ccw(l));
            assert_eq!(l.len(), 4);
        }
    }
}
