//! Property-based tests for the boundary-layer generator.

use adm_blayer::{
    build_boundary_layer, emit_rays, loop_normals, no_proper_intersections,
    resolve_self_intersections, BlParams, CornerThresholds, Geometric, GrowthSpec,
};
use adm_geom::point::Point2;
use adm_geom::polygon::{contains_point, is_ccw, is_simple};
use proptest::prelude::*;

/// A random star-shaped (hence simple, CCW) polygon around the origin.
fn star_polygon() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(0.5f64..2.0, 6..40).prop_map(|radii| {
        let n = radii.len();
        radii
            .iter()
            .enumerate()
            .map(|(k, &r)| {
                let th = k as f64 * std::f64::consts::TAU / n as f64;
                Point2::new(r * th.cos(), r * th.sin())
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Growth functions are strictly monotone and consistent with their
    /// per-layer thickness.
    #[test]
    fn growth_monotone(h0 in 1e-5f64..1e-2, ratio in 1.01f64..1.6, exp in 1.0f64..3.0) {
        let laws = [
            GrowthSpec::from(Geometric::new(h0, ratio)),
            GrowthSpec::Polynomial { first_height: h0, exponent: exp },
            GrowthSpec::CappedGeometric { first_height: h0, ratio, max_thickness: 10.0 * h0 },
        ];
        for law in &laws {
            let mut acc = 0.0;
            for k in 1..40 {
                let t = law.layer_thickness(k);
                prop_assert!(t > 0.0);
                acc += t;
                prop_assert!((law.height(k) - acc).abs() < 1e-9 * acc.max(1e-30));
                prop_assert!(law.height(k) > law.height(k - 1));
            }
        }
    }

    /// Normals of a star polygon are unit length and point away from the
    /// origin (which the polygon surrounds).
    #[test]
    fn star_normals_point_outward(poly in star_polygon()) {
        prop_assume!(is_ccw(&poly) && is_simple(&poly));
        let normals = loop_normals(&poly);
        for (p, nv) in poly.iter().zip(&normals) {
            prop_assert!((nv.dir.norm() - 1.0).abs() < 1e-9);
            // Outwardness: positive radial component except possibly at
            // extreme reflex corners; star polygons keep it positive.
            let radial = (*p - Point2::ORIGIN).normalized().unwrap();
            prop_assert!(nv.dir.dot(radial) > -0.5, "normal folds inward");
        }
        // Total turning of a simple CCW loop is exactly 2 pi.
        let total: f64 = normals.iter().map(|nv| nv.turn).sum();
        prop_assert!((total - std::f64::consts::TAU).abs() < 1e-6);
    }

    /// Intersection resolution always reaches a crossing-free state and
    /// never lengthens a ray.
    #[test]
    fn resolution_fixpoint(poly in star_polygon(), height in 0.05f64..1.5) {
        prop_assume!(is_ccw(&poly) && is_simple(&poly));
        let mut rays = emit_rays(&poly, height, &CornerThresholds::default());
        let before: Vec<f64> = rays.iter().map(|r| r.max_height).collect();
        resolve_self_intersections(&mut rays);
        prop_assert!(no_proper_intersections(&rays));
        for (r, &b) in rays.iter().zip(&before) {
            prop_assert!(r.max_height <= b + 1e-15);
        }
    }

    /// The full boundary layer never places a point inside the solid and
    /// honors every ray clamp.
    #[test]
    fn layer_points_outside_solid(poly in star_polygon(), ratio in 1.1f64..1.4) {
        prop_assume!(is_ccw(&poly) && is_simple(&poly));
        let growth = GrowthSpec::from(Geometric::new(0.01, ratio));
        let bl = build_boundary_layer(&poly, &growth, &BlParams {
            height: 0.3,
            ..Default::default()
        });
        for &q in &bl.layer.points {
            prop_assert!(!contains_point(&poly, q) || on_boundary(&poly, q));
        }
        for (i, r) in bl.rays.iter().enumerate() {
            for &q in bl.layer.ray_points(i) {
                prop_assert!(q.distance(r.origin) < r.max_height + 1e-12);
            }
        }
    }
}

fn on_boundary(poly: &[Point2], p: Point2) -> bool {
    let n = poly.len();
    (0..n).any(|i| {
        adm_geom::segment::Segment::new(poly[i], poly[(i + 1) % n]).distance_to_point(p) < 1e-12
    })
}

/// Every variant's `height` and `layer_thickness`, k = 0..200, equal the
/// closed forms below bit for bit: the expressions, in the order the laws
/// have always evaluated them.
#[test]
fn growth_heights_match_the_closed_forms_bit_for_bit() {
    let geo_height = |h0: f64, r: f64, k: usize| -> f64 {
        if k == 0 {
            0.0
        } else if (r - 1.0).abs() < 1e-14 {
            h0 * k as f64
        } else {
            h0 * (r.powi(k as i32) - 1.0) / (r - 1.0)
        }
    };
    let geo_thick = |h0: f64, r: f64, k: usize| -> f64 {
        if k == 0 {
            0.0
        } else {
            h0 * r.powi(k as i32 - 1)
        }
    };
    let capped_height = |h0: f64, r: f64, cap: f64, k: usize| -> f64 {
        let mut h = 0.0;
        for i in 1..=k {
            h += geo_thick(h0, r, i).min(cap);
        }
        h
    };
    let poly_height = |h0: f64, p: f64, k: usize| h0 * (k as f64).powf(p);
    let same = |got: f64, want: f64, what: &str| {
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
    };
    for (h0, r) in [
        (2e-4, 1.25),
        (1e-5, 1.08),
        (0.5, 1.0),
        (1e-3, 0.9),
        (3e-2, 1.6),
    ] {
        let cap = 20.0 * h0;
        let geometric = GrowthSpec::from(Geometric::new(h0, r));
        let capped = GrowthSpec::CappedGeometric {
            first_height: h0,
            ratio: r,
            max_thickness: cap,
        };
        for k in 0..=200 {
            let at = format!("h0 {h0} r {r} k {k}");
            same(geometric.height(k), geo_height(h0, r, k), &at);
            same(geometric.layer_thickness(k), geo_thick(h0, r, k), &at);
            same(capped.height(k), capped_height(h0, r, cap, k), &at);
            let thick = if k == 0 {
                0.0
            } else {
                geo_thick(h0, r, k).min(cap)
            };
            same(capped.layer_thickness(k), thick, &at);
        }
    }
    for (h0, p) in [(1e-3, 1.0), (1e-3, 1.5), (2e-4, 2.0), (0.1, 2.7)] {
        let law = GrowthSpec::Polynomial {
            first_height: h0,
            exponent: p,
        };
        for k in 0..=200 {
            let at = format!("h0 {h0} p {p} k {k}");
            same(law.height(k), poly_height(h0, p, k), &at);
            let thick = if k == 0 {
                0.0
            } else {
                poly_height(h0, p, k) - poly_height(h0, p, k - 1)
            };
            same(law.layer_thickness(k), thick, &at);
        }
    }
}

/// A law built without [`Geometric::new`] (a request's `growth` line) is
/// still refused when used, with the constructor's message.
#[test]
#[should_panic(expected = "first height must be positive")]
fn invalid_growth_law_panics_on_use() {
    let law = GrowthSpec::CappedGeometric {
        first_height: 0.0,
        ratio: 1.2,
        max_thickness: 1.0,
    };
    law.height(0);
}
