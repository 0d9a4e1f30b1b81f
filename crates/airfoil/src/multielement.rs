//! Synthetic three-element high-lift configuration.
//!
//! The paper evaluates on the 30p30n slat/main/flap airfoil. Its exact
//! coordinates are not redistributable, so this module builds a synthetic
//! configuration with the same algorithmic stressors (see DESIGN.md):
//!
//! * a **slat** deflected nose-down ahead of the main element, with a
//!   concave cove on its aft lower surface (self-intersecting rays,
//!   Fig 13b/c) and a sharp trailing-edge cusp close to the main leading
//!   edge (multi-element intersections, Fig 13d);
//! * a **main** element with its own trailing-edge cove;
//! * a **flap** deflected nose-down under the main trailing edge with a
//!   **blunt** trailing edge (two slope discontinuities, Fig 13e).

use crate::naca::{transform, Naca4};
use crate::pslg::{Pslg, SurfaceLoop};
use adm_geom::point::Point2;

/// Carves a concave cove into the lower surface of a unit-chord surface
/// polyline: lower-surface points with `x` in `(x0, x1)` are pulled toward
/// the chord line by factor `pull` (0 = untouched, 1 = onto the chord
/// line), producing two concave corner discontinuities.
pub fn add_cove(points: &mut [Point2], x0: f64, x1: f64, pull: f64) {
    for p in points.iter_mut() {
        if p.y < 0.0 && p.x > x0 && p.x < x1 {
            p.y *= 1.0 - pull;
        }
    }
}

/// Parameters for the synthetic high-lift configuration.
#[derive(Debug, Clone, Copy)]
pub struct HighLiftParams {
    /// Surface points per airfoil side (before transforms).
    pub n_per_side: usize,
    /// Far-field margin in chords (paper: 30–50).
    pub farfield_chords: f64,
}

impl Default for HighLiftParams {
    fn default() -> Self {
        HighLiftParams {
            n_per_side: 60,
            farfield_chords: 30.0,
        }
    }
}

/// Builds the three-element configuration as a PSLG.
pub fn three_element_highlift(params: &HighLiftParams) -> Pslg {
    let n = params.n_per_side;

    // Slat: cambered thin section, nose-down 25 degrees, ahead of and
    // below the main leading edge, with an aft-lower cove.
    let slat_foil = Naca4::from_digits("4415").unwrap();
    let mut slat_pts = slat_foil.surface(n.max(24) / 2);
    add_cove(&mut slat_pts, 0.50, 0.92, 0.75);
    let slat = transform(&slat_pts, 0.18, 25.0, Point2::new(-0.15, 0.02));

    // Main: NACA 0012 with a trailing-edge cove on the lower surface.
    let main_foil = Naca4::naca0012();
    let mut main_pts = main_foil.surface(n);
    add_cove(&mut main_pts, 0.72, 0.97, 0.6);
    let main = transform(&main_pts, 1.0, 0.0, Point2::new(0.0, 0.0));

    // Flap: cambered section, nose-down 30 degrees, below/behind the main
    // trailing edge, blunt TE.
    let flap_foil = Naca4 {
        sharp_te: false,
        ..Naca4::from_digits("4412").unwrap()
    };
    let flap_pts = flap_foil.surface(n.max(24) / 2);
    let flap = transform(&flap_pts, 0.30, 30.0, Point2::new(0.97, -0.065));

    Pslg::with_farfield_margin(
        vec![
            SurfaceLoop::new("slat", slat),
            SurfaceLoop::new("main", main),
            SurfaceLoop::new("flap", flap),
        ],
        params.farfield_chords,
    )
}

/// Single-element NACA 0012 domain (the paper's Figure 2 case).
pub fn naca0012_domain(n_per_side: usize, farfield_chords: f64) -> Pslg {
    let surface = Naca4::naca0012().surface(n_per_side);
    Pslg::with_farfield_margin(vec![SurfaceLoop::new("naca0012", surface)], farfield_chords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_geom::polygon::{contains_point, is_simple};
    use adm_geom::predicates::orient2d;
    use adm_geom::segment::Segment;

    #[test]
    fn naca0012_domain_basics() {
        let d = naca0012_domain(40, 30.0);
        assert_eq!(d.loops.len(), 1);
        assert!(d.loops[0].len() >= 79);
        assert!(d.farfield.width() >= 60.0);
    }

    #[test]
    fn cove_creates_concavity_but_stays_simple() {
        let foil = Naca4::naca0012();
        let mut pts = foil.surface(40);
        add_cove(&mut pts, 0.5, 0.9, 0.75);
        assert!(is_simple(&pts));
        let n = pts.len();
        let reflex = |i: usize| orient2d(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) < 0.0;
        assert!((0..n).any(reflex), "the cove adds a reflex corner");
        // At least a few points were pulled.
        let pulled = pts
            .iter()
            .filter(|p| p.y < 0.0 && p.y > -0.02 && p.x > 0.5 && p.x < 0.9)
            .count();
        assert!(pulled > 0);
    }

    #[test]
    fn three_element_loops_are_simple_and_disjoint() {
        let pslg = three_element_highlift(&HighLiftParams::default());
        assert_eq!(pslg.loops.len(), 3);
        for l in &pslg.loops {
            assert!(is_simple(&l.points), "loop {} self-intersects", l.name);
        }
        // Pairwise: no boundary crossings and no containment.
        for i in 0..3 {
            for j in (i + 1)..3 {
                let a = &pslg.loops[i];
                let b = &pslg.loops[j];
                for k in 0..a.points.len() {
                    let sa = Segment::new(a.points[k], a.points[(k + 1) % a.points.len()]);
                    for m in 0..b.points.len() {
                        let sb = Segment::new(b.points[m], b.points[(m + 1) % b.points.len()]);
                        assert!(
                            !sa.intersects(&sb),
                            "loops {} and {} intersect",
                            a.name,
                            b.name
                        );
                    }
                }
                assert!(!contains_point(&b.points, a.points[0]));
                assert!(!contains_point(&a.points, b.points[0]));
            }
        }
    }

    #[test]
    fn elements_are_ordered_slat_main_flap_along_x() {
        let pslg = three_element_highlift(&HighLiftParams::default());
        let cx: Vec<f64> = pslg.loops.iter().map(|l| l.bbox().center().x).collect();
        assert!(cx[0] < cx[1] && cx[1] < cx[2]);
    }

    #[test]
    fn gaps_are_small_relative_to_chord() {
        // The slat TE must be close to the main LE, and the flap LE close
        // to the main TE — the configurations that force multi-element
        // intersection handling.
        let pslg = three_element_highlift(&HighLiftParams::default());
        let (slat, main, flap) = (&pslg.loops[0], &pslg.loops[1], &pslg.loops[2]);
        let min_dist = |a: &SurfaceLoop, b: &SurfaceLoop| -> f64 {
            let mut d = f64::INFINITY;
            for &p in &a.points {
                for k in 0..b.points.len() {
                    let s = Segment::new(b.points[k], b.points[(k + 1) % b.points.len()]);
                    d = d.min(s.distance_to_point(p));
                }
            }
            d
        };
        let d_sm = min_dist(slat, main);
        let d_mf = min_dist(main, flap);
        assert!(d_sm > 0.0 && d_sm < 0.08, "slat-main gap {d_sm}");
        assert!(d_mf > 0.0 && d_mf < 0.08, "main-flap gap {d_mf}");
    }

    #[test]
    fn flap_has_blunt_te() {
        let pslg = three_element_highlift(&HighLiftParams::default());
        let flap = &pslg.loops[2];
        // A blunt TE shows as two nearly-coincident extreme-x points.
        let mut xs: Vec<(f64, Point2)> = flap.points.iter().map(|&p| (p.x, p)).collect();
        xs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let gap = xs[0].1.distance(xs[1].1);
        assert!(gap > 1e-4 && gap < 0.01, "blunt TE gap {gap}");
    }
}
