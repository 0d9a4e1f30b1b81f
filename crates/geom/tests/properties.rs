//! Property-based tests for the geometry substrate.

use adm_geom::aabb::Aabb;
use adm_geom::adt::Adt;
use adm_geom::hull::lower_hull_indices_sorted;
use adm_geom::point::Point2;
use adm_geom::predicates::{incircle, orient2d};
use adm_geom::segment::{SegIntersection, Segment};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        -100.0f64..100.0,
        // Small-magnitude values stress the predicate filters.
        -1e-6f64..1e-6,
    ]
}

fn point() -> impl Strategy<Value = Point2> {
    (coord(), coord()).prop_map(|(x, y)| Point2::new(x, y))
}

fn segment() -> impl Strategy<Value = Segment> {
    (point(), point()).prop_map(|(a, b)| Segment::new(a, b))
}

proptest! {
    /// orient2d is antisymmetric under swapping two arguments.
    #[test]
    fn orient_antisymmetric(a in point(), b in point(), c in point()) {
        let d1 = orient2d(a, b, c);
        let d2 = orient2d(b, a, c);
        prop_assert_eq!(d1 > 0.0, d2 < 0.0);
        prop_assert_eq!(d1 == 0.0, d2 == 0.0);
    }

    /// orient2d is invariant under cyclic rotation of its arguments.
    #[test]
    fn orient_cyclic(a in point(), b in point(), c in point()) {
        let sign = |v: f64| if v > 0.0 { 1 } else if v < 0.0 { -1 } else { 0 };
        let d1 = orient2d(a, b, c);
        let d2 = orient2d(b, c, a);
        let d3 = orient2d(c, a, b);
        prop_assert_eq!(sign(d1), sign(d2));
        prop_assert_eq!(sign(d2), sign(d3));
    }

    /// incircle sign flips when the triangle orientation flips.
    #[test]
    fn incircle_orientation_antisymmetry(a in point(), b in point(), c in point(), d in point()) {
        let s1 = incircle(a, b, c, d);
        let s2 = incircle(a, c, b, d);
        prop_assert_eq!(s1 > 0.0, s2 < 0.0);
        prop_assert_eq!(s1 == 0.0, s2 == 0.0);
    }

    /// Segment intersection is symmetric.
    #[test]
    fn segment_intersection_symmetric(s in segment(), t in segment()) {
        prop_assert_eq!(s.intersects(&t), t.intersects(&s));
        prop_assert_eq!(s.properly_intersects(&t), t.properly_intersects(&s));
    }

    /// If an intersection point is constructed, it lies (to tolerance) on
    /// both segments' lines and inside both extent boxes.
    #[test]
    fn constructed_intersection_is_on_both(s in segment(), t in segment()) {
        if let SegIntersection::Point(p) = s.intersection(&t) {
            let tol = 1e-6 * (1.0 + s.length().max(t.length()));
            prop_assert!(s.distance_to_point(p) <= tol);
            prop_assert!(t.distance_to_point(p) <= tol);
        }
    }

    /// Cohen–Sutherland agrees with the exact definition of segment/box
    /// intersection whenever the answer is robustly decidable: a clipped
    /// result must lie inside the (slightly inflated) box, and a reject
    /// must be consistent with both endpoints plus midpoint sampling.
    #[test]
    fn clip_result_inside_box(s in segment(), a in point(), b in point()) {
        let bx = Aabb::new(a, b);
        match bx.clip_segment(&s) {
            Some(c) => {
                let infl = bx.inflated(1e-9 * (1.0 + bx.width() + bx.height()));
                prop_assert!(infl.contains(c.a));
                prop_assert!(infl.contains(c.b));
            }
            None => {
                // Sample the segment; no sample may be strictly inside.
                for k in 0..=16 {
                    let p = s.at(k as f64 / 16.0);
                    let shrunk = Aabb::new(bx.min, bx.max);
                    prop_assert!(
                        !(p.x > shrunk.min.x && p.x < shrunk.max.x
                          && p.y > shrunk.min.y && p.y < shrunk.max.y),
                        "rejected segment has interior sample {p:?}"
                    );
                }
            }
        }
    }

    /// ADT query returns exactly the brute-force extent-box intersections.
    #[test]
    fn adt_matches_brute_force(segs in prop::collection::vec(segment(), 1..60), q in segment()) {
        let mut domain = Aabb::empty();
        for s in &segs {
            domain.expand(s.a);
            domain.expand(s.b);
        }
        domain.expand(q.a);
        domain.expand(q.b);
        let mut adt = Adt::for_domain(&domain);
        for (i, s) in segs.iter().enumerate() {
            adt.insert_segment(s, i);
        }
        let mut got = vec![];
        adt.query_segment(&q, &mut got);
        got.sort_unstable();
        let qb = Aabb::of_segment(&q);
        let want: Vec<usize> = segs
            .iter()
            .enumerate()
            .filter(|(_, s)| Aabb::of_segment(s).intersects(&qb))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// The lower hull of sorted points supports the point set from below
    /// and is convex.
    #[test]
    fn lower_hull_supports(mut pts in prop::collection::vec(point(), 3..80)) {
        pts.sort_by(|a, b| a.lex_cmp(*b));
        let h: Vec<Point2> = lower_hull_indices_sorted(&pts).into_iter().map(|i| pts[i]).collect();
        prop_assert!(h.len() >= 2 || pts.iter().all(|p| *p == pts[0]));
        for w in h.windows(3) {
            prop_assert!(orient2d(w[0], w[1], w[2]) > 0.0);
        }
        for w in h.windows(2) {
            for &p in &pts {
                prop_assert!(orient2d(w[0], w[1], p) >= 0.0);
            }
        }
    }
}

/// Integer-lattice cross-validation: on integer coordinates the exact
/// determinant fits in i128, giving an independent ground truth for the
/// expansion-arithmetic fallbacks.
mod integer_ground_truth {
    use adm_geom::point::Point2;
    use adm_geom::predicates::{incircle, orient2d};
    use proptest::prelude::*;

    const R: i64 = 1 << 20;

    fn ipoint() -> impl Strategy<Value = (i64, i64)> {
        (-R..R, -R..R)
    }

    fn orient_i128(a: (i64, i64), b: (i64, i64), c: (i64, i64)) -> i128 {
        let (ax, ay) = (a.0 as i128, a.1 as i128);
        let (bx, by) = (b.0 as i128, b.1 as i128);
        let (cx, cy) = (c.0 as i128, c.1 as i128);
        (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    }

    fn incircle_i128(a: (i64, i64), b: (i64, i64), c: (i64, i64), d: (i64, i64)) -> i128 {
        let col = |p: (i64, i64)| {
            let x = (p.0 - d.0) as i128;
            let y = (p.1 - d.1) as i128;
            (x, y, x * x + y * y)
        };
        let (ax, ay, aw) = col(a);
        let (bx, by, bw) = col(b);
        let (cx, cy, cw) = col(c);
        ax * (by * cw - cy * bw) - ay * (bx * cw - cx * bw) + aw * (bx * cy - cx * by)
    }

    fn f(p: (i64, i64)) -> Point2 {
        Point2::new(p.0 as f64, p.1 as f64)
    }

    /// Three-way sign (`f64::signum` maps +-0.0 to +-1.0, which is not
    /// what a predicate comparison wants).
    fn sign_f(v: f64) -> i32 {
        if v > 0.0 {
            1
        } else if v < 0.0 {
            -1
        } else {
            0
        }
    }

    fn sign_i(v: i128) -> i32 {
        v.signum() as i32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn orient_matches_i128(a in ipoint(), b in ipoint(), c in ipoint()) {
            let got = orient2d(f(a), f(b), f(c));
            let want = orient_i128(a, b, c);
            prop_assert_eq!(sign_f(got), sign_i(want));
        }

        #[test]
        fn incircle_matches_i128(a in ipoint(), b in ipoint(), c in ipoint(), d in ipoint()) {
            let got = incircle(f(a), f(b), f(c), f(d));
            let want = incircle_i128(a, b, c, d);
            prop_assert_eq!(sign_f(got), sign_i(want));
        }

        /// Nearly-degenerate lattice configurations: collinear triples
        /// with one coordinate nudged by 0 or 1 ulp-of-lattice.
        #[test]
        fn orient_near_collinear_lattice(x in -R..R, k in 1i64..1000, eps in 0i64..2) {
            let a = (x, x);
            let b = (x + k, x + k);
            let c = (x + 2 * k, x + 2 * k + eps);
            let got = orient2d(f(a), f(b), f(c));
            let want = orient_i128(a, b, c);
            prop_assert_eq!(sign_f(got), sign_i(want));
        }

        /// Cocircular lattice squares with a nudged query point.
        #[test]
        fn incircle_near_cocircular_lattice(cx in -R/2..R/2, cy in -R/2..R/2, r in 1i64..10_000, eps in -1i64..2) {
            let a = (cx - r, cy - r);
            let b = (cx + r, cy - r);
            let c = (cx + r, cy + r);
            let d = (cx - r + eps, cy + r);
            let got = incircle(f(a), f(b), f(c), f(d));
            let want = incircle_i128(a, b, c, d);
            prop_assert_eq!(sign_f(got), sign_i(want));
        }
    }
}
