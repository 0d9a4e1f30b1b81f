//! Planar straight-line graph (PSLG) domain description.
//!
//! The mesh generator's input (paper §II.A): one or more closed airfoil
//! element surfaces plus a rectangular far-field border. Surface loops are
//! stored CCW; the meshed fluid region lies *outside* the loops and inside
//! the far field.

use adm_geom::aabb::Aabb;
use adm_geom::point::Point2;
use adm_geom::polygon::{centroid, is_ccw, is_simple};
use adm_geom::pslg::{Pslg as GeneralPslg, PslgError, ValidPslg};

/// One closed component (airfoil element) of the configuration.
#[derive(Debug, Clone)]
pub struct SurfaceLoop {
    /// CCW vertices of the closed surface (not repeated at the end).
    pub points: Vec<Point2>,
    /// Human-readable component name ("main", "slat", "flap", ...).
    pub name: String,
}

impl SurfaceLoop {
    /// Creates a loop, normalizing orientation to CCW.
    pub fn new(name: impl Into<String>, mut points: Vec<Point2>) -> Self {
        if !is_ccw(&points) {
            points.reverse();
        }
        SurfaceLoop {
            points,
            name: name.into(),
        }
    }

    /// Number of surface vertices.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the loop has no vertices.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Chord length: extent along x.
    pub fn chord(&self) -> f64 {
        let b = Aabb::from_points(&self.points).expect("non-empty loop");
        b.width()
    }

    /// A point strictly inside the loop (used as a hole seed). Uses the
    /// polygon centroid when it is interior, otherwise probes edge-normal
    /// offsets.
    pub fn interior_point(&self) -> Point2 {
        let c = centroid(&self.points);
        if adm_geom::polygon::contains_point(&self.points, c) {
            return c;
        }
        // Probe inward offsets from edge midpoints (CCW loop: interior is
        // left of each edge).
        for i in 0..self.points.len() {
            let a = self.points[i];
            let b = self.points[(i + 1) % self.points.len()];
            if let Some(dir) = (b - a).normalized() {
                let inward = dir.perp();
                let len = a.distance(b);
                for scale in [0.25, 0.05, 0.01] {
                    let q = a.midpoint(b) + inward * (len * scale);
                    if adm_geom::polygon::contains_point(&self.points, q) {
                        return q;
                    }
                }
            }
        }
        c
    }

    /// Bounding box of the loop.
    pub fn bbox(&self) -> Aabb {
        Aabb::from_points(&self.points).expect("non-empty loop")
    }
}

/// The meshing domain: airfoil elements plus a far-field rectangle.
#[derive(Debug, Clone)]
pub struct Pslg {
    /// Closed component surfaces (CCW).
    pub loops: Vec<SurfaceLoop>,
    /// Far-field rectangle.
    pub farfield: Aabb,
}

impl Pslg {
    /// Builds a PSLG with a far field `margin_chords` chord lengths away
    /// from the configuration bounding box in every direction (the paper
    /// uses 30–50 chords).
    pub fn with_farfield_margin(loops: Vec<SurfaceLoop>, margin_chords: f64) -> Self {
        assert!(!loops.is_empty(), "need at least one surface loop");
        let mut bbox = Aabb::empty();
        let mut chord: f64 = 0.0;
        for l in &loops {
            assert!(l.points.len() >= 3, "degenerate loop {}", l.name);
            assert!(is_simple(&l.points), "loop {} self-intersects", l.name);
            bbox = bbox.union(&l.bbox());
            chord = chord.max(l.chord());
        }
        let farfield = bbox.inflated(margin_chords * chord);
        let pslg = Pslg { loops, farfield };
        // Route the whole-domain checks through the general PSLG front
        // door: unlike the per-loop `is_simple` assert above, this also
        // rejects loops that cross *each other* (overlapping elements).
        if let Err(e) = pslg.validate_general() {
            panic!("airfoil domain rejected by PSLG validation: {e}");
        }
        pslg
    }

    /// Lowers the airfoil domain to the general PSLG front door: loop
    /// edges plus the far-field rectangle as constraint segments, one
    /// hole seed per component (the fluid region is outside the bodies).
    pub fn to_general(&self) -> GeneralPslg {
        let mut general = GeneralPslg::new(Vec::new(), Vec::new(), self.hole_seeds());
        for l in &self.loops {
            general.push_loop(&l.points);
        }
        let (lo, hi) = (self.farfield.min, self.farfield.max);
        general.push_loop(&[lo, Point2::new(hi.x, lo.y), hi, Point2::new(lo.x, hi.y)]);
        general
    }

    /// Validates the lowered domain through the general front door's
    /// typed checks (crossing segments, duplicate points, ...).
    pub fn validate_general(&self) -> Result<ValidPslg, PslgError> {
        self.to_general().validate()
    }

    /// One interior (hole) seed per loop.
    pub fn hole_seeds(&self) -> Vec<Point2> {
        self.loops.iter().map(|l| l.interior_point()).collect()
    }

    /// Reference chord (longest loop chord).
    pub fn reference_chord(&self) -> f64 {
        self.loops.iter().map(|l| l.chord()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_loop(cx: f64, cy: f64, r: f64) -> Vec<Point2> {
        vec![
            Point2::new(cx - r, cy - r),
            Point2::new(cx + r, cy - r),
            Point2::new(cx + r, cy + r),
            Point2::new(cx - r, cy + r),
        ]
    }

    #[test]
    fn loop_normalizes_to_ccw() {
        let mut pts = square_loop(0.0, 0.0, 1.0);
        pts.reverse(); // make CW
        let l = SurfaceLoop::new("sq", pts);
        assert!(is_ccw(&l.points));
    }

    #[test]
    fn interior_point_is_inside() {
        let l = SurfaceLoop::new("sq", square_loop(3.0, -2.0, 0.5));
        let p = l.interior_point();
        assert!(adm_geom::polygon::contains_point(&l.points, p));
    }

    #[test]
    fn interior_point_concave() {
        // C-shaped loop whose centroid is outside the polygon.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(3.0, 0.0),
            Point2::new(3.0, 1.0),
            Point2::new(1.0, 1.0),
            Point2::new(1.0, 2.0),
            Point2::new(3.0, 2.0),
            Point2::new(3.0, 3.0),
            Point2::new(0.0, 3.0),
        ];
        let l = SurfaceLoop::new("c", pts);
        let p = l.interior_point();
        assert!(adm_geom::polygon::contains_point(&l.points, p));
    }

    #[test]
    fn farfield_margin_in_chords() {
        let l = SurfaceLoop::new("sq", square_loop(0.0, 0.0, 0.5)); // chord 1
        let pslg = Pslg::with_farfield_margin(vec![l], 30.0);
        assert!((pslg.farfield.width() - 61.0).abs() < 1e-12);
        assert!((pslg.farfield.height() - 61.0).abs() < 1e-12);
        assert_eq!(pslg.reference_chord(), 1.0);
    }

    #[test]
    fn hole_seeds_one_per_loop() {
        let l1 = SurfaceLoop::new("a", square_loop(0.0, 0.0, 0.5));
        let l2 = SurfaceLoop::new("b", square_loop(5.0, 0.0, 0.5));
        let pslg = Pslg::with_farfield_margin(vec![l1, l2], 10.0);
        let seeds = pslg.hole_seeds();
        assert_eq!(seeds.len(), 2);
        assert!(adm_geom::polygon::contains_point(
            &pslg.loops[0].points,
            seeds[0]
        ));
        assert!(adm_geom::polygon::contains_point(
            &pslg.loops[1].points,
            seeds[1]
        ));
    }

    #[test]
    fn lowering_to_general_pslg_validates_cleanly() {
        let l1 = SurfaceLoop::new("a", square_loop(0.0, 0.0, 0.5));
        let l2 = SurfaceLoop::new("b", square_loop(5.0, 0.0, 0.5));
        let pslg = Pslg::with_farfield_margin(vec![l1, l2], 10.0);
        let g = pslg.to_general();
        // 8 surface vertices + 4 far-field corners; one segment each.
        assert_eq!(g.points.len(), 12);
        assert_eq!(g.segments.len(), 12);
        assert_eq!(g.holes.len(), 2);
        let v = pslg.validate_general().expect("clean domain");
        assert!(v.report.is_clean());
    }

    #[test]
    #[should_panic(expected = "PSLG validation")]
    fn rejects_crossing_loops() {
        // Two squares overlapping: each simple on its own, so only the
        // general front-door crossing check can catch this.
        let l1 = SurfaceLoop::new("a", square_loop(0.0, 0.0, 1.0));
        let l2 = SurfaceLoop::new("b", square_loop(0.7, 0.3, 1.0));
        let _ = Pslg::with_farfield_margin(vec![l1, l2], 10.0);
    }

    #[test]
    #[should_panic(expected = "self-intersects")]
    fn rejects_self_intersecting_loop() {
        let bow = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        ];
        let _ = Pslg::with_farfield_margin(vec![SurfaceLoop::new("bow", bow)], 10.0);
    }
}
