//! Seeded adversarial PSLG generator for the robustness fuzz gate.
//!
//! Produces small multi-part domains from a single `u64` seed, seasoned
//! with exactly the configurations that break naive mesh generators:
//! exactly-collinear constraint chains, vertices lying exactly on
//! segments, near-degenerate vertices a few ulps off a constrained edge,
//! duplicate points and segments, parts touching at a shared corner, and
//! open constraint chains inside the domain. A tagged fraction of seeds
//! deliberately emits a proper segment crossing to exercise the typed
//! rejection path.
//!
//! Construction guarantees:
//! * when [`GeneratedPslg::expect_reject`] is `false`, the PSLG passes
//!   [`Pslg::validate`](crate::pslg::Pslg::validate) (possibly with
//!   repairs) — every part lives in its own grid cell, holes and chains
//!   in disjoint sub-boxes, so nothing can cross;
//! * all deliberate input angles are ≥ 90° (rectangles, 135° chamfers),
//!   keeping the domain inside Ruppert's provable-termination class;
//! * coordinates are dyadic rationals, so the collinear seasonings are
//!   *exactly* collinear in f64 (asserted with the robust predicate).
//!
//! The generator is deterministic and dependency-free (splitmix64), so a
//! failing case is fully reproduced by its seed.

use crate::point::Point2;
use crate::predicates::orient2d;
use crate::pslg::Pslg;

/// One generated fuzz case.
#[derive(Debug, Clone)]
pub struct GeneratedPslg {
    /// The domain.
    pub pslg: Pslg,
    /// `true` when the generator planted a proper segment crossing —
    /// validation must reject with `PslgError::SegmentsCross`.
    pub expect_reject: bool,
    /// The seed that produced this case (for reproduction).
    pub seed: u64,
}

/// splitmix64: tiny, stable, seedable.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Dyadic rational in `[0, 1)` with 1/64 resolution.
    fn dyadic(&mut self) -> f64 {
        self.below(64) as f64 / 64.0
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// An axis-aligned rectangle with optional 135° chamfers, on dyadic
/// coordinates. `cut` of 0 gives the plain rectangle.
fn chamfered_rect(x0: f64, y0: f64, w: f64, h: f64, cut: f64) -> Vec<Point2> {
    let p = Point2::new;
    if cut == 0.0 {
        vec![p(x0, y0), p(x0 + w, y0), p(x0 + w, y0 + h), p(x0, y0 + h)]
    } else {
        vec![
            p(x0 + cut, y0),
            p(x0 + w - cut, y0),
            p(x0 + w, y0 + cut),
            p(x0 + w, y0 + h - cut),
            p(x0 + w - cut, y0 + h),
            p(x0 + cut, y0 + h),
            p(x0, y0 + h - cut),
            p(x0, y0 + cut),
        ]
    }
}

/// Subdivides segment index `si` at exactly-collinear interior points.
/// Every candidate is verified with the exact predicate; rounding that
/// breaks collinearity skips the candidate instead of emitting an
/// almost-collinear chain by accident.
fn subdivide_collinear(b: &mut Pslg, si: usize, pieces: u64) {
    let (a, c) = b.segments[si];
    let (pa, pc) = (b.points[a as usize], b.points[c as usize]);
    let mut chain = vec![a];
    for k in 1..pieces {
        let t = k as f64 / pieces as f64;
        let q = pa.lerp(pc, t);
        if orient2d(pa, pc, q) != 0.0 || q == pa || q == pc {
            continue;
        }
        let id = b.points.len() as u32;
        b.points.push(q);
        chain.push(id);
    }
    chain.push(c);
    if chain.len() > 2 {
        b.segments.remove(si);
        for w in chain.windows(2) {
            b.segments.push((w[0], w[1]));
        }
    }
}

/// Generates one fuzz case from a seed. Roughly 1 in 8 seeds plants a
/// proper crossing (`expect_reject`); the rest are valid by construction.
pub fn generate_pslg(seed: u64) -> GeneratedPslg {
    let mut rng = Rng(seed);
    let mut b = Pslg::default();

    let parts = 1 + rng.below(3); // 1..=3 parts, one per 8-unit grid cell
    let mut prev_corner: Option<Point2> = None;
    for part in 0..parts {
        let cell_x = part as f64 * 8.0;
        // Part body: 3..6 units wide/tall inside the cell, dyadic origin.
        let w = 3.0 + rng.dyadic() * 2.0;
        let h = 3.0 + rng.dyadic() * 2.0;
        let (x0, y0) = match prev_corner {
            // Touching parts: this part's lower-left corner is exactly the
            // previous part's lower-right corner.
            Some(c) if rng.chance(30) => (c.x, c.y),
            _ => (cell_x + rng.dyadic(), rng.dyadic()),
        };
        let cut = if rng.chance(40) { 0.5 } else { 0.0 };
        let outline = chamfered_rect(x0, y0, w, h, cut);
        b.push_loop(&outline);
        prev_corner = Some(Point2::new(x0 + w, y0));

        // Interior sub-boxes: hole in the left half, open chain in the
        // right half — disjoint by construction, ≥ 1 unit from the
        // outline (cut ≤ 0.5 keeps chamfers clear of both).
        let (cx, cy) = (x0 + w / 2.0, y0 + h / 2.0);
        if rng.chance(55) {
            let hw = 0.5 + rng.dyadic() * 0.5;
            let hole = chamfered_rect(x0 + 1.0, cy - hw / 2.0, hw, hw, 0.0);
            b.push_loop(&hole);
            b.holes.push(Point2::new(x0 + 1.0 + hw / 2.0, cy));
        }
        if rng.chance(40) {
            // Open constraint chain: an axis-aligned V of 1–2 segments.
            let base = b.points.len() as u32;
            let qx = cx + 0.5;
            b.points.push(Point2::new(qx, cy - 0.5));
            b.points.push(Point2::new(qx + 0.5, cy - 0.5));
            b.segments.push((base, base + 1));
            if rng.chance(50) {
                b.points.push(Point2::new(qx + 0.5, cy + 0.5));
                b.segments.push((base + 1, base + 2));
            }
        }

        // Near-degenerate interior vertex: a few ulps above the bottom
        // edge (inside the part, off every constraint).
        if rng.chance(45) {
            let eps = [1e-7, 1e-9, 1e-12][rng.below(3) as usize];
            b.points
                .push(Point2::new(x0 + w / 2.0, y0 + eps * (1.0 + h)));
        }
        // Vertex lying *exactly* on the top edge (forces a constraint
        // split through a vertex that belongs to no segment).
        if rng.chance(45) {
            b.points.push(Point2::new(x0 + w / 2.0, y0 + h));
        }
        // A plain interior point so refinement has something to chew on.
        b.points
            .push(Point2::new(cx - rng.dyadic(), cy + rng.dyadic() - 0.5));
    }

    // Exactly-collinear chains: subdivide a few outline segments.
    for _ in 0..rng.below(3) {
        let si = rng.below(b.segments.len() as u64) as usize;
        subdivide_collinear(&mut b, si, 2 + rng.below(3));
    }

    // Repair seasoning: duplicate an existing point (sometimes as -0.0),
    // and duplicate an existing segment.
    if rng.chance(50) {
        let i = rng.below(b.points.len() as u64) as usize;
        let mut q = b.points[i];
        if q.y == 0.0 {
            q.y = -0.0;
        }
        b.points.push(q);
    }
    if rng.chance(50) {
        let (s, t) = b.segments[rng.below(b.segments.len() as u64) as usize];
        b.segments.push((t, s));
    }

    // Rejection seasoning: a segment that properly crosses the first
    // part's bottom edge (segment 0 spans the bottom, possibly already
    // subdivided — cross whatever segment 0 currently is).
    let expect_reject = rng.chance(12);
    if expect_reject {
        let (a, c) = b.segments[0];
        let (pa, pc) = (b.points[a as usize], b.points[c as usize]);
        let mid = pa.midpoint(pc);
        let base = b.points.len() as u32;
        b.points.push(Point2::new(mid.x, mid.y - 1.0));
        b.points.push(Point2::new(mid.x, mid.y + 1.0));
        b.segments.push((base, base + 1));
    }

    GeneratedPslg {
        pslg: b,
        expect_reject,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pslg::PslgError;

    #[test]
    fn valid_by_construction() {
        let mut rejects = 0;
        for seed in 0..400 {
            let g = generate_pslg(seed);
            match g.pslg.validate() {
                Ok(v) => {
                    assert!(!g.expect_reject, "seed {seed}: crossing not detected");
                    assert!(v.pslg.points.len() >= 4);
                    assert!(!v.pslg.segments.is_empty());
                }
                Err(PslgError::SegmentsCross { .. }) => {
                    assert!(g.expect_reject, "seed {seed}: spurious crossing");
                    rejects += 1;
                }
                Err(e) => panic!("seed {seed}: unexpected rejection {e:?}"),
            }
        }
        // The tagged fraction actually fires.
        assert!(rejects > 10, "only {rejects} planted crossings in 400");
    }

    #[test]
    fn deterministic_per_seed() {
        for seed in [0, 1, 7, 99, 12345] {
            let a = generate_pslg(seed);
            let b = generate_pslg(seed);
            assert_eq!(a.pslg, b.pslg);
            assert_eq!(a.expect_reject, b.expect_reject);
        }
    }

    #[test]
    fn seasonings_all_appear_somewhere() {
        let (mut merged, mut dup_seg, mut touching) = (false, false, false);
        for seed in 0..200 {
            let g = generate_pslg(seed);
            if let Ok(v) = g.pslg.validate() {
                merged |= v.report.merged_points > 0;
                dup_seg |= v.report.dropped_duplicate > 0;
                touching |= v.pslg.points.len() < g.pslg.points.len();
            }
            touching |= g.expect_reject;
        }
        assert!(merged && dup_seg && touching);
    }
}
