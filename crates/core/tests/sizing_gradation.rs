//! Property tests for the gradation limiter: for random anchor sets,
//! random growth rates, and a wiggly base field, the limited field must
//! (1) satisfy the Lipschitz cap `h(p_i) ≤ h(p_j) + g·d(p_i, p_j)`
//! between every anchor pair, (2) never exceed the base anywhere, and
//! (3) be a fixed point — limiting the already-limited field changes
//! nothing, at anchors or at arbitrary query points.

use adm_core::{GradationLimited, SizingFn};
use adm_geom::point::Point2;
use proptest::prelude::*;

/// Deterministic, strictly positive, non-Lipschitz-friendly base field:
/// rapid oscillation makes the raw anchor values jump around so the
/// limiter actually has work to do.
struct Wiggly;

impl SizingFn for Wiggly {
    fn h(&self, p: Point2) -> f64 {
        0.05 + (5.0 * p.x).sin().abs() + (7.0 * p.y).cos().abs()
    }
}

fn anchor_strategy() -> impl Strategy<Value = Vec<Point2>> {
    proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 2..40)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point2::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cap holds between every anchor pair, and the limiter never
    /// raises the field above its base.
    #[test]
    fn limited_field_satisfies_gradation_cap(
        anchors in anchor_strategy(),
        g in 0.05f64..2.0,
        query in (-12.0f64..12.0, -12.0f64..12.0),
    ) {
        let lim = GradationLimited::new(Wiggly, &anchors, g);
        for (i, &ai) in anchors.iter().enumerate() {
            let hi = lim.h(ai);
            prop_assert!(hi > 0.0 && hi.is_finite());
            // Never above the base value at the anchor.
            prop_assert!(hi <= Wiggly.h(ai) * (1.0 + 1e-12));
            for (j, &aj) in anchors.iter().enumerate() {
                let bound = lim.h(aj) + g * ai.distance(aj);
                prop_assert!(
                    hi <= bound * (1.0 + 1e-9),
                    "anchor {} violates the cap against anchor {}: {} > {}",
                    i, j, hi, bound
                );
            }
        }
        // Arbitrary query points: below base, and below every anchor's
        // cone (the definition, checked through the public surface).
        let q = Point2::new(query.0, query.1);
        let hq = lim.h(q);
        prop_assert!(hq > 0.0 && hq <= Wiggly.h(q) * (1.0 + 1e-12));
        for &a in &anchors {
            let bound = lim.h(a) + g * q.distance(a);
            prop_assert!(hq <= bound * (1.0 + 1e-9));
        }
    }

    /// Idempotence: the limited anchor values are already `g`-Lipschitz,
    /// so limiting the limited field reproduces it exactly (up to
    /// floating-point noise) — at the anchors and at query points.
    #[test]
    fn limiting_is_idempotent(
        anchors in anchor_strategy(),
        g in 0.05f64..2.0,
        query in (-12.0f64..12.0, -12.0f64..12.0),
    ) {
        let once = GradationLimited::new(Wiggly, &anchors, g);
        let twice = GradationLimited::new(&once, &anchors, g);
        let scale = 1e-12;
        for (i, &ai) in anchors.iter().enumerate() {
            let (a, b) = (once.h(ai), twice.h(ai));
            prop_assert!(
                (a - b).abs() <= scale * a.abs().max(1.0),
                "anchor {} moved on the second pass: {} -> {}",
                i, a, b
            );
        }
        let q = Point2::new(query.0, query.1);
        let (a, b) = (once.h(q), twice.h(q));
        prop_assert!((a - b).abs() <= scale * a.abs().max(1.0));
    }
}
