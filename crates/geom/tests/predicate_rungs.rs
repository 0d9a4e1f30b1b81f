//! Every predicate call is settled by exactly one rung of its ladder.
//!
//! Under the `predicate-stats` feature, `N` calls of each predicate on a
//! seeded mix of generic, near-degenerate and exactly degenerate inputs
//! must raise its four rung counters by `N` in total.
//!
//! This file holds exactly one test so no sibling test thread bumps a
//! counter inside the measurement window.
#![cfg(feature = "predicate-stats")]

use adm_geom::point::Point2;
use adm_geom::predicates::{incircle, orient2d, stats};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn each_call_lands_on_one_rung() {
    const N: u64 = 20_000;
    let mut rng = StdRng::seed_from_u64(40);
    let (orient_before, incircle_before) = stats::snapshot();
    for k in 0..N {
        let mut coord = || rng.gen_range(-8.0..8.0);
        let (x0, y0, x1, y1) = (coord(), coord(), coord(), coord());
        let (a, b) = (Point2::new(x0, y0), Point2::new(x1, y1));
        let [c, d] = match k % 4 {
            // Generic.
            0 => [Point2::new(coord(), coord()), Point2::new(coord(), coord())],
            // `c` on the line `ab` and `d` on the circle with diameter
            // `ab`, each up to rounding.
            1 => {
                let (t, (s, co)) = (coord(), coord().sin_cos());
                let (mx, my) = ((x0 + x1) / 2.0, (y0 + y1) / 2.0);
                let r = (b - a).norm() / 2.0;
                [
                    Point2::new(x0 + t * (x1 - x0), y0 + t * (y1 - y0)),
                    Point2::new(mx + r * co, my + r * s),
                ]
            }
            // Repeated points: exact zeros.
            2 => [a, b],
            // A float rectangle: an exact zero whose differences round.
            _ => [Point2::new(x1, y0), Point2::new(x0, y1)],
        };
        let _ = orient2d(a, b, c);
        let _ = incircle(a, b, c, d);
    }
    let (orient, incircle) = stats::snapshot();
    let calls = |now: [u64; 4], before: [u64; 4]| (0..4).map(|r| now[r] - before[r]).sum::<u64>();
    assert_eq!(calls(orient, orient_before), N, "orient2d rungs {orient:?}");
    assert_eq!(
        calls(incircle, incircle_before),
        N,
        "incircle rungs {incircle:?}"
    );
}
