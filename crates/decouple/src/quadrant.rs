//! Initial decoupling of the inviscid region into four quadrants
//! (paper §II.E, Figure 9).
//!
//! The fluid domain between the near-body box (which contains the airfoil
//! and its boundary layer) and the far-field rectangle is tiled by four
//! pinwheel rectangles. Every shared border chain — far-field pieces,
//! spokes from the far field to the near-body corners, and the near-body
//! sides — is discretized **once** with the graded marching rule and
//! shared by both adjacent subdomains, which is what lets them refine
//! independently yet conformingly.

use crate::march::march_path;
use crate::region::Region;
use crate::sizing::SizingFn;
use adm_geom::aabb::Aabb;
use adm_geom::point::Point2;

/// The initial decoupling: four quadrants plus the near-body border.
#[derive(Debug, Clone)]
pub struct InitialDecoupling {
    /// The four pinwheel quadrants (left, top, right, bottom).
    pub quadrants: [Region; 4],
    /// The near-body rectangle border (CCW, discretized) — the outer
    /// border of the near-body subdomain and the inner border of the
    /// quadrants.
    pub nearbody_border: Vec<Point2>,
}

/// Builds the initial four-quadrant decoupling between `nearbody` (B) and
/// `farfield` (F). `B` must be strictly inside `F`.
pub fn initial_quadrants(
    nearbody: &Aabb,
    farfield: &Aabb,
    sizing: &dyn SizingFn,
) -> InitialDecoupling {
    let (b, f) = (nearbody, farfield);
    assert!(
        f.min.x < b.min.x && f.min.y < b.min.y && f.max.x > b.max.x && f.max.y > b.max.y,
        "near-body box must be strictly inside the far field"
    );
    let p = Point2::new;
    // Skeleton vertices.
    let (bsw, bse, bne, bnw) = (
        p(b.min.x, b.min.y),
        p(b.max.x, b.min.y),
        p(b.max.x, b.max.y),
        p(b.min.x, b.max.y),
    );
    let (fsw, fse, fne, fnw) = (
        p(f.min.x, f.min.y),
        p(f.max.x, f.min.y),
        p(f.max.x, f.max.y),
        p(f.min.x, f.max.y),
    );
    // T-junctions on the far-field border (pinwheel).
    let ts = p(b.min.x, f.min.y);
    let te = p(f.max.x, b.min.y);
    let tn = p(b.max.x, f.max.y);
    let tw = p(f.min.x, b.max.y);

    // Discretize every skeleton chain exactly once.
    let m = |a: Point2, c: Point2| march_path(a, c, sizing);
    let fb1 = m(fsw, ts); // far bottom, left piece
    let fb2 = m(ts, fse);
    let fr1 = m(fse, te); // far right, lower piece
    let fr2 = m(te, fne);
    let ft1 = m(fne, tn); // far top, right piece
    let ft2 = m(tn, fnw);
    let fl1 = m(fnw, tw); // far left, upper piece
    let fl2 = m(tw, fsw);
    let ss = m(ts, bsw); // spokes: far border T-point -> near-body corner
    let se_ = m(te, bse);
    let sn = m(tn, bne);
    let sw_ = m(tw, bnw);
    let bs = m(bsw, bse); // near-body sides, CCW around B
    let be = m(bse, bne);
    let bn = m(bne, bnw);
    let bw = m(bnw, bsw);

    // Chain concatenation: appends `chain` (optionally reversed) skipping
    // its first point (the junction already present).
    fn extend(border: &mut Vec<Point2>, chain: &[Point2], rev: bool) {
        if rev {
            for q in chain.iter().rev().skip(1) {
                border.push(*q);
            }
        } else {
            for q in chain.iter().skip(1) {
                border.push(*q);
            }
        }
    }
    // Builds a region from (chain, reversed) pieces; corner positions are
    // located afterwards by matching the given corner coordinates.
    fn assemble(pieces: &[(&[Point2], bool)], corners: [Point2; 4]) -> Region {
        let mut border = vec![if pieces[0].1 {
            *pieces[0].0.last().unwrap()
        } else {
            pieces[0].0[0]
        }];
        for (chain, rev) in pieces {
            extend(&mut border, chain, *rev);
        }
        // The walk closes the loop: drop the repeated first point.
        assert_eq!(border.first(), border.last(), "pieces do not close");
        border.pop();
        let mut idx = [usize::MAX; 4];
        for (k, c) in corners.iter().enumerate() {
            idx[k] = border
                .iter()
                .position(|q| q == c)
                .unwrap_or_else(|| panic!("corner {c:?} not on the border"));
        }
        assert_eq!(idx[0], 0);
        Region::new(border, idx)
    }

    // Left quadrant [f.min.x, b.min.x] x [f.min.y, b.max.y]:
    // fsw -> ts (far bottom) -> bsw (spoke) -> bnw (B west, reversed) ->
    // tw (west spoke, reversed) -> fsw (far left lower).
    let q_left = assemble(
        &[
            (&fb1, false),
            (&ss, false),
            (&bw, true),
            (&sw_, true),
            (&fl2, false),
        ],
        [fsw, ts, bnw, tw],
    );
    // Top quadrant [f.min.x, b.max.x] x [b.max.y, f.max.y]:
    // tw -> bnw (spoke) -> bne (B north, reversed) -> tn (spoke, reversed)
    // -> fnw (far top left piece) -> tw (far left upper).
    let q_top = assemble(
        &[
            (&sw_, false),
            (&bn, true),
            (&sn, true),
            (&ft2, false),
            (&fl1, false),
        ],
        [tw, bne, tn, fnw],
    );
    // Right quadrant [b.max.x, f.max.x] x [b.min.y, f.max.y]:
    // bse -> te (spoke, reversed) -> fne (far right upper) -> tn (far top
    // right piece) -> bne (spoke) -> bse (B east, reversed).
    let q_right = assemble(
        &[
            (&se_, true),
            (&fr2, false),
            (&ft1, false),
            (&sn, false),
            (&be, true),
        ],
        [bse, te, fne, tn],
    );
    // Bottom quadrant [b.min.x, f.max.x] x [f.min.y, b.min.y]:
    // ts -> fse (far bottom right) -> te (far right lower) -> bse (spoke)
    // -> bsw (B south, reversed) -> ts (spoke, reversed).
    let q_bottom = assemble(
        &[
            (&fb2, false),
            (&fr1, false),
            (&se_, false),
            (&bs, true),
            (&ss, true),
        ],
        [ts, fse, te, bsw],
    );

    // Near-body border CCW: bs + be + bn + bw.
    let mut nearbody_border = vec![bsw];
    for chain in [&bs, &be, &bn, &bw] {
        extend(&mut nearbody_border, chain, false);
    }
    assert_eq!(nearbody_border.first(), nearbody_border.last());
    nearbody_border.pop();

    InitialDecoupling {
        quadrants: [q_left, q_top, q_right, q_bottom],
        nearbody_border,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::{GradedSizing, UniformH};
    use adm_geom::polygon::{is_ccw, is_simple, signed_area};

    fn boxes() -> (Aabb, Aabb) {
        let b = Aabb::new(Point2::new(-1.0, -1.0), Point2::new(2.0, 1.0));
        let f = Aabb::new(Point2::new(-30.0, -30.0), Point2::new(31.0, 30.0));
        (b, f)
    }

    #[test]
    fn quadrants_tile_the_annulus() {
        let (b, f) = boxes();
        let s = UniformH(2.0);
        let d = initial_quadrants(&b, &f, &s);
        let mut total = 0.0;
        for q in &d.quadrants {
            assert!(is_ccw(&q.border));
            assert!(is_simple(&q.border));
            total += signed_area(&q.border);
        }
        let expect = f.width() * f.height() - b.width() * b.height();
        assert!(
            (total - expect).abs() < 1e-6,
            "total {total} expect {expect}"
        );
    }

    #[test]
    fn nearbody_border_is_ccw_rectangle() {
        let (b, f) = boxes();
        let s = UniformH(2.0);
        let d = initial_quadrants(&b, &f, &s);
        assert!(is_ccw(&d.nearbody_border));
        assert!(is_simple(&d.nearbody_border));
        let area = signed_area(&d.nearbody_border);
        assert!((area - b.width() * b.height()).abs() < 1e-9);
    }

    #[test]
    fn shared_borders_are_bitwise_identical() {
        // Every discretized point strictly between the far field and the
        // near-body box (on spokes) or on the near-body border must appear
        // in exactly two of the five subdomains (4 quadrants + near-body).
        let (b, f) = boxes();
        let s = GradedSizing::new(&[Point2::new(0.5, 0.0)], 0.2, 0.3, 50.0, 8);
        let d = initial_quadrants(&b, &f, &s);
        let mut counts: std::collections::HashMap<(u64, u64), usize> =
            std::collections::HashMap::new();
        let mut bump = |pts: &[Point2]| {
            for q in pts {
                let interior_x = q.x > f.min.x && q.x < f.max.x;
                let interior_y = q.y > f.min.y && q.y < f.max.y;
                if interior_x && interior_y {
                    *counts.entry((q.x.to_bits(), q.y.to_bits())).or_insert(0) += 1;
                }
            }
        };
        for q in &d.quadrants {
            bump(&q.border);
        }
        bump(&d.nearbody_border);
        for (k, c) in &counts {
            let pt = Point2::new(f64::from_bits(k.0), f64::from_bits(k.1));
            // Near-body corners join two quadrants plus the near-body
            // subdomain; every other interior border point joins exactly
            // two subdomains.
            let is_b_corner =
                (pt.x == b.min.x || pt.x == b.max.x) && (pt.y == b.min.y || pt.y == b.max.y);
            let expect = if is_b_corner { 3 } else { 2 };
            assert_eq!(
                *c, expect,
                "interior border point {pt:?} appears in {c} subdomains"
            );
        }
        assert!(!counts.is_empty());
    }

    #[test]
    fn quadrant_bboxes_form_the_documented_pinwheel() {
        // Each quadrant must span exactly its pinwheel rectangle: one long
        // edge along the far field, the short edge reaching the near-body
        // box (Figure 9 layout).
        let (b, f) = boxes();
        let s = UniformH(2.0);
        let d = initial_quadrants(&b, &f, &s);
        let expect = [
            // left, top, right, bottom
            (f.min.x, f.min.y, b.min.x, b.max.y),
            (f.min.x, b.max.y, b.max.x, f.max.y),
            (b.max.x, b.min.y, f.max.x, f.max.y),
            (b.min.x, f.min.y, f.max.x, b.min.y),
        ];
        for (q, (xmin, ymin, xmax, ymax)) in d.quadrants.iter().zip(expect) {
            let (mut lo, mut hi) = (q.border[0], q.border[0]);
            for p in &q.border {
                lo = Point2::new(lo.x.min(p.x), lo.y.min(p.y));
                hi = Point2::new(hi.x.max(p.x), hi.y.max(p.y));
            }
            assert_eq!((lo.x, lo.y, hi.x, hi.y), (xmin, ymin, xmax, ymax));
        }
    }

    #[test]
    fn graded_borders_are_finer_near_the_body() {
        let (b, f) = boxes();
        let s = GradedSizing::new(&[Point2::new(0.5, 0.0)], 0.2, 0.5, 1e9, 8);
        let d = initial_quadrants(&b, &f, &s);
        // Near-body border spacing << far-field border spacing.
        let nb = &d.nearbody_border;
        let near_spacing = nb[0].distance(nb[1]);
        let q = &d.quadrants[0];
        let far_max = q
            .border
            .windows(2)
            .map(|w| w[0].distance(w[1]))
            .fold(0.0, f64::max);
        assert!(near_spacing * 5.0 < far_max, "{near_spacing} vs {far_max}");
    }
}
