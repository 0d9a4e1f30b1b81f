//! Property-based tests for the decoupling machinery.

use adm_decouple::{
    chain_respects_bounds, decouple_by_threshold, initial_quadrants, k_value, march_path,
    GradedSizing, SizingFn, UniformH,
};
use adm_geom::aabb::Aabb;
use adm_geom::point::Point2;
use adm_geom::polygon::{is_ccw, is_simple, signed_area};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Marched chains include exact endpoints and satisfy the decoupling
    /// segment bounds under any graded sizing.
    #[test]
    fn marching_respects_bounds(
        ax in -10.0f64..10.0, ay in -10.0f64..10.0,
        bx in -10.0f64..10.0, by in -10.0f64..10.0,
        h0 in 0.05f64..0.5, rate in 0.0f64..0.5,
    ) {
        let a = Point2::new(ax, ay);
        let b = Point2::new(bx, by);
        prop_assume!(a.distance(b) > 0.1);
        let sizing = GradedSizing::new(&[Point2::new(0.0, 0.0)], h0, rate, 1e9, 4);
        let chain = march_path(a, b, &sizing);
        prop_assert_eq!(chain[0], a);
        prop_assert_eq!(*chain.last().unwrap(), b);
        prop_assert!(chain_respects_bounds(&chain, &sizing));
        // Arc length is preserved (points lie on the segment, in order).
        let total: f64 = chain.windows(2).map(|w| w[0].distance(w[1])).sum();
        prop_assert!((total - a.distance(b)).abs() < 1e-9 * (1.0 + total));
    }

    /// k-value scaling law (paper eq. 1).
    #[test]
    fn k_value_scaling(area in 1e-6f64..1e3, factor in 1.0f64..100.0) {
        let k1 = k_value(area);
        let k2 = k_value(area * factor * factor);
        prop_assert!((k2 / k1 - factor).abs() < 1e-9 * factor);
    }

    /// The pinwheel quadrants tile the annulus exactly for any box pair.
    #[test]
    fn quadrants_tile(
        bw in 0.5f64..4.0, bh in 0.5f64..4.0,
        margin in 2.0f64..20.0, h0 in 0.3f64..2.0,
    ) {
        let b = Aabb::new(Point2::new(-bw, -bh), Point2::new(bw, bh));
        let f = b.inflated(margin);
        let sizing = UniformH(h0);
        let d = initial_quadrants(&b, &f, &sizing);
        let mut total = 0.0;
        for q in &d.quadrants {
            prop_assert!(is_ccw(&q.border));
            prop_assert!(is_simple(&q.border));
            total += signed_area(&q.border);
        }
        let expect = f.width() * f.height() - b.width() * b.height();
        prop_assert!((total - expect).abs() < 1e-6 * expect);
    }

    /// Recursive decoupling preserves the total area and never touches the
    /// outer border.
    #[test]
    fn decoupling_preserves_area(target in 4usize..24, h0 in 0.2f64..1.0) {
        let b = Aabb::new(Point2::new(-1.0, -1.0), Point2::new(1.0, 1.0));
        let f = b.inflated(8.0);
        let sizing = GradedSizing::new(&[Point2::new(0.0, 0.0)], h0, 0.2, 50.0, 4);
        let d = initial_quadrants(&b, &f, &sizing);
        let before: f64 = d.quadrants.iter().map(|q| signed_area(&q.border)).sum();
        let total: f64 = d.quadrants.iter().map(|q| q.estimated_triangles(&sizing)).sum();
        let leaves = decouple_by_threshold(d.quadrants.to_vec(), total / target as f64, &sizing);
        prop_assert!(leaves.len() >= target.min(4));
        let after: f64 = leaves.iter().map(|l| signed_area(&l.border)).sum();
        prop_assert!((after - before).abs() < 1e-6 * before);
        for l in &leaves {
            prop_assert!(is_ccw(&l.border));
            prop_assert!(is_simple(&l.border));
            // Leaf borders satisfy the marching bounds where they came
            // from marched paths (every consecutive pair).
            for w in l.border.windows(2) {
                let d01 = w[0].distance(w[1]);
                let k = k_value(sizing.target_area(w[0]));
                prop_assert!(d01 < 2.0 * k * 1.5, "segment far beyond bound");
            }
        }
    }
}
