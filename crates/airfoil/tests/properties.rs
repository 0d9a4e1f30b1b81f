//! Property-based tests for the airfoil geometry generators.

use adm_airfoil::{transform, Naca4, Pslg, SurfaceLoop};
use adm_geom::point::Point2;
use adm_geom::polygon::{is_ccw, is_simple, signed_area};
use proptest::prelude::*;

fn naca_code() -> impl Strategy<Value = (f64, f64, f64)> {
    // camber 0-6%, camber position 0.2-0.7, thickness 6-24%.
    (0.0f64..0.06, 0.2f64..0.7, 0.06f64..0.24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every parameterized NACA section is a simple CCW polygon with
    /// plausible area, for both sharp and blunt trailing edges.
    #[test]
    fn naca_surfaces_are_simple_ccw((m, p, t) in naca_code(), n in 12usize..80, sharp in any::<bool>()) {
        let foil = Naca4 {
            camber: m,
            camber_pos: p,
            thickness: t,
            sharp_te: sharp,
        };
        let s = foil.surface(n);
        prop_assert!(is_ccw(&s), "not CCW");
        prop_assert!(is_simple(&s), "self-intersecting");
        let area = signed_area(&s);
        // Thin-airfoil area is roughly 0.68 * t for NACA-like sections.
        prop_assert!(area > 0.3 * t && area < 1.1 * t, "area {area} for t {t}");
        // Unit chord: x spans [0, ~1].
        let xmin = s.iter().map(|q| q.x).fold(f64::INFINITY, f64::min);
        let xmax = s.iter().map(|q| q.x).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(xmin.abs() < 0.02);
        prop_assert!((xmax - 1.0).abs() < 0.02);
    }

    /// Transforms preserve lengths (rotation+translation) and scale areas
    /// by scale^2.
    #[test]
    fn transform_isometry(
        (m, p, t) in naca_code(),
        scale in 0.1f64..3.0,
        rot in -180.0f64..180.0,
        tx in -5.0f64..5.0,
        ty in -5.0f64..5.0,
    ) {
        let foil = Naca4 { camber: m, camber_pos: p, thickness: t, sharp_te: true };
        let s = foil.surface(24);
        let out = transform(&s, scale, rot, Point2::new(tx, ty));
        let perimeter = |poly: &[Point2]| -> f64 {
            poly.iter().zip(poly.iter().cycle().skip(1)).map(|(a, b)| a.distance(*b)).sum()
        };
        prop_assert!((perimeter(&out) - scale * perimeter(&s)).abs() < 1e-9 * perimeter(&s).max(1.0));
        prop_assert!((signed_area(&out).abs() - scale * scale * signed_area(&s).abs()).abs()
            < 1e-9 * signed_area(&s).abs().max(1.0));
    }

    /// PSLG far fields scale with the requested chord margin and hole
    /// seeds are always interior.
    #[test]
    fn pslg_farfield_and_seeds((m, p, t) in naca_code(), margin in 5.0f64..50.0) {
        let foil = Naca4 { camber: m, camber_pos: p, thickness: t, sharp_te: true };
        let s = foil.surface(30);
        let pslg = Pslg::with_farfield_margin(vec![SurfaceLoop::new("foil", s)], margin);
        let chord = pslg.reference_chord();
        prop_assert!(pslg.farfield.width() >= 2.0 * margin * chord);
        for (l, seed) in pslg.loops.iter().zip(pslg.hole_seeds()) {
            prop_assert!(adm_geom::polygon::contains_point(&l.points, seed));
        }
    }

    /// Thickness function: zero at the leading edge, maximum near 30%
    /// chord, closed (sharp) at the trailing edge.
    #[test]
    fn thickness_profile((_m, _p, t) in naca_code()) {
        let foil = Naca4 { camber: 0.0, camber_pos: 0.0, thickness: t, sharp_te: true };
        prop_assert!(foil.half_thickness(0.0).abs() < 1e-12);
        prop_assert!(foil.half_thickness(1.0).abs() < 1e-3 * t);
        let at_03 = foil.half_thickness(0.3);
        for x in [0.02, 0.1, 0.7, 0.9] {
            prop_assert!(foil.half_thickness(x) <= at_03 * 1.02);
        }
    }
}
