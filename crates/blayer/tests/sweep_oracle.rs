//! The one segment-pair sweep (`adm_geom::pslg::first_crossing`) against
//! the all-pairs loops it replaced, for each of its three callers:
//! `polygon::is_simple`, `Pslg::validate` and `no_proper_intersections`.
//!
//! Inputs are seeded random and adversarial: star and lattice polygons,
//! bow-ties, a vertex on a non-adjacent edge, repeated vertices, collinear
//! overlap, ray fans that share an origin, and up to about 3,000 edges or
//! rays per case. Every verdict (and every named crossing pair) must equal
//! the oracle's.

use adm_blayer::{emit_rays, no_proper_intersections, resolve_self_intersections};
use adm_blayer::{CornerThresholds, Ray, RaySource};
use adm_geom::point::{canonical_bits, Point2, Vec2};
use adm_geom::polygon::is_simple;
use adm_geom::pslg::{Pslg, PslgError};
use adm_geom::segment::Segment;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn p(x: f64, y: f64) -> Point2 {
    Point2::new(x, y)
}

/// `is_simple`'s all-pairs oracle: neighbouring edges may touch but not
/// cross, other edges may not even touch.
fn is_simple_all_pairs(poly: &[Point2]) -> bool {
    let n = poly.len();
    if n < 3 {
        return false;
    }
    for i in 0..n {
        let si = Segment::new(poly[i], poly[(i + 1) % n]);
        for j in (i + 1)..n {
            let sj = Segment::new(poly[j], poly[(j + 1) % n]);
            let adjacent = j == i + 1 || (i == 0 && j == n - 1);
            if adjacent {
                if si.properly_intersects(&sj) {
                    return false;
                }
            } else if si.intersects(&sj) {
                return false;
            }
        }
    }
    true
}

/// `no_proper_intersections`' all-pairs oracle, as it was: fans (rays
/// sharing an origin) are skipped explicitly, which the sweep's caller
/// leaves to `properly_intersects`.
fn no_proper_intersections_all_pairs(rays: &[Ray]) -> bool {
    for i in 0..rays.len() {
        for j in (i + 1)..rays.len() {
            if rays[i].origin == rays[j].origin {
                continue;
            }
            if rays[i].segment().properly_intersects(&rays[j].segment()) {
                return false;
            }
        }
    }
    true
}

/// `validate`'s oracle: the first properly crossing pair of the *raw*
/// segments, in index order, named by repaired point indices (first
/// occurrence of each position, `-0.0 == 0.0`). Repair only merges
/// duplicate points and drops zero-length or repeated segments, none of
/// which can cross anything the kept copy does not, so the first raw pair
/// survives repair and is the first repaired pair.
fn validate_all_pairs(pslg: &Pslg) -> Result<(), PslgError> {
    let mut first: HashMap<(u64, u64), u32> = HashMap::new();
    let remap: Vec<u32> = pslg
        .points
        .iter()
        .map(|&q| {
            let next = first.len() as u32;
            *first.entry(canonical_bits(q)).or_insert(next)
        })
        .collect();
    let seg = |(a, b): (u32, u32)| Segment::new(pslg.points[a as usize], pslg.points[b as usize]);
    let name = |(a, b): (u32, u32)| (remap[a as usize], remap[b as usize]);
    let segs = &pslg.segments;
    for i in 0..segs.len() {
        for j in (i + 1)..segs.len() {
            if seg(segs[i]).properly_intersects(&seg(segs[j])) {
                return Err(PslgError::SegmentsCross {
                    a: name(segs[i]),
                    b: name(segs[j]),
                });
            }
        }
    }
    Ok(())
}

/// Holds `is_simple` to its oracle on `poly`; returns the verdict.
fn check_polygon(poly: &[Point2], what: &str) -> bool {
    let got = is_simple(poly);
    assert_eq!(got, is_simple_all_pairs(poly), "is_simple: {what}");
    got
}

/// Holds `validate` to its oracle on `pslg`; returns `true` on accept.
fn check_pslg(pslg: &Pslg, what: &str) -> bool {
    let got = pslg.validate().map(|_| ());
    assert_eq!(got, validate_all_pairs(pslg), "validate: {what}");
    got.is_ok()
}

/// Holds `no_proper_intersections` to its oracle on `rays`.
fn check_rays(rays: &[Ray], what: &str) -> bool {
    let got = no_proper_intersections(rays);
    assert_eq!(got, no_proper_intersections_all_pairs(rays), "rays: {what}");
    got
}

/// A star-shaped (hence simple) CCW polygon with `n` float vertices.
fn star(rng: &mut StdRng, n: usize) -> Vec<Point2> {
    (0..n)
        .map(|k| {
            let th = k as f64 * std::f64::consts::TAU / n as f64;
            let r = rng.gen_range(0.5..2.0);
            p(r * th.cos(), r * th.sin())
        })
        .collect()
}

/// A simple CCW comb on the integer lattice: a bottom bar, `m` unit-wide
/// teeth 9 units tall and unit gaps between them; `4m + 2` vertices.
/// Its bottom edge spans every tooth, so it stays in the sweep window.
fn comb(m: usize) -> Vec<Point2> {
    let mut v = vec![p(0.0, 0.0), p(2.0 * m as f64, 0.0)];
    for t in (0..m).rev() {
        let x = 2.0 * t as f64;
        v.extend([
            p(x + 2.0, 10.0),
            p(x + 1.0, 10.0),
            p(x + 1.0, 1.0),
            p(x, 1.0),
        ]);
    }
    v
}

/// Adversarial edits of a simple polygon: each returns a copy with one
/// planted defect (or a near miss the oracle decides).
fn mutations(rng: &mut StdRng, poly: &[Point2]) -> Vec<(&'static str, Vec<Point2>)> {
    let n = poly.len();
    let k = rng.gen_range(0..n);
    let far = (k + n / 2) % n;
    let mut out = Vec::new();
    // Bow-tie: two consecutive vertices swapped.
    let mut bow = poly.to_vec();
    bow.swap(k, (k + 1) % n);
    out.push(("bow-tie", bow));
    // A vertex moved onto the middle of a non-adjacent edge.
    let (a, b) = (poly[far], poly[(far + 1) % n]);
    let mut on_edge = poly.to_vec();
    on_edge[k] = a.midpoint(b);
    out.push(("vertex on a non-adjacent edge", on_edge));
    // A vertex moved onto a non-adjacent vertex.
    let mut onto = poly.to_vec();
    onto[k] = poly[far];
    out.push(("vertex onto a far vertex", onto));
    // A vertex repeated in place (a zero-length edge).
    let mut repeated = poly.to_vec();
    repeated.insert(k, poly[k]);
    out.push(("repeated vertex", repeated));
    // An edge that doubles back along itself (collinear overlap).
    let mut back = poly.to_vec();
    let (a, b) = (poly[k], poly[(k + 1) % n]);
    back.insert(k + 1, b.lerp(a, 0.5).lerp(b, 0.5));
    back.insert(k + 1, a.lerp(b, 0.75));
    out.push(("collinear overlap", back));
    // A vertex dragged far across the polygon (a long crossing edge).
    let mut drag = poly.to_vec();
    drag[k] = p(-drag[k].x, -drag[k].y);
    out.push(("dragged vertex", drag));
    out
}

#[test]
fn is_simple_matches_all_pairs() {
    let mut rng = StdRng::seed_from_u64(42);
    let (mut simple, mut not) = (0, 0);
    let mut tally = |ok: bool| {
        if ok {
            simple += 1
        } else {
            not += 1
        }
    };
    // Degenerate sizes, then random lattice polygons: repeated points,
    // collinear runs and touching edges everywhere.
    for n in 0..3 {
        tally(check_polygon(&vec![p(0.0, 0.0); n], "short"));
    }
    for _ in 0..400 {
        let n = rng.gen_range(3..24);
        let poly: Vec<Point2> = (0..n)
            .map(|_| p(rng.gen_range(0..6) as f64, rng.gen_range(0..6) as f64))
            .collect();
        tally(check_polygon(&poly, "lattice soup"));
    }
    // Star polygons and combs with every mutation.
    for n in [3usize, 4, 7, 30, 200, 1000] {
        for _ in 0..4 {
            let poly = star(&mut rng, n);
            tally(check_polygon(&poly, "star"));
            for (what, m) in mutations(&mut rng, &poly) {
                tally(check_polygon(&m, what));
            }
        }
    }
    for m in [1usize, 5, 60, 750] {
        let poly = comb(m);
        assert!(check_polygon(&poly, "comb"), "comb {m} is simple");
        for (what, bad) in mutations(&mut rng, &poly) {
            tally(check_polygon(&bad, what));
        }
    }
    assert!(simple > 50 && not > 50, "{simple} simple, {not} not");
}

#[test]
fn validate_matches_all_pairs() {
    let mut rng = StdRng::seed_from_u64(7);
    let (mut accepted, mut rejected) = (0, 0);
    let mut tally = |ok: bool| {
        if ok {
            accepted += 1
        } else {
            rejected += 1
        }
    };
    for seed in 0..200 {
        let case = adm_geom::generate_pslg(seed);
        tally(check_pslg(&case.pslg, "generator corpus"));
    }
    // Lattice chord soups: shared and repeated points, T-junctions,
    // collinear overlap, proper crossings.
    for n in [2usize, 5, 20, 80, 300] {
        for _ in 0..20 {
            let mut pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)];
            pts.extend(
                (0..2 * n).map(|_| p(rng.gen_range(0..12) as f64, rng.gen_range(0..12) as f64)),
            );
            let segs = (0..n as u32).map(|k| (3 + 2 * k, 4 + 2 * k)).collect();
            tally(check_pslg(&Pslg::new(pts, segs, vec![]), "chord soup"));
        }
    }
    // Polygons as closed loops, with and without their planted defects,
    // and with a second copy of the loop (every point and segment
    // repeated) or a chord across it.
    for poly in [star(&mut rng, 40), star(&mut rng, 1000), comb(750)] {
        let mut cases = mutations(&mut rng, &poly);
        cases.push(("clean", poly.clone()));
        for (what, loop_pts) in cases {
            let mut pslg = Pslg::default();
            pslg.push_loop(&loop_pts);
            tally(check_pslg(&pslg, what));
            if loop_pts.len() <= 1000 {
                let mut twice = pslg.clone();
                twice.push_loop(&loop_pts);
                tally(check_pslg(&twice, what));
            }
            let (a, b) = (
                rng.gen_range(0..loop_pts.len()),
                rng.gen_range(0..loop_pts.len()),
            );
            pslg.segments.push((a as u32, b as u32));
            tally(check_pslg(&pslg, what));
        }
    }
    assert!(
        accepted > 20 && rejected > 20,
        "{accepted} accepted, {rejected} rejected"
    );
}

fn ray(origin: Point2, dx: f64, dy: f64, h: f64) -> Ray {
    Ray {
        origin,
        dir: Vec2::new(dx, dy).normalized().expect("non-zero direction"),
        max_height: h,
        source: RaySource::Vertex(0),
    }
}

#[test]
fn no_proper_intersections_matches_all_pairs() {
    let mut rng = StdRng::seed_from_u64(3);
    let (mut clean, mut crossing) = (0, 0);
    let mut tally = |ok: bool| {
        if ok {
            clean += 1
        } else {
            crossing += 1
        }
    };
    // Fans on a lattice: several rays share each origin, and fans cross
    // each other.
    for n in [1usize, 3, 10, 40, 200] {
        for _ in 0..20 {
            let mut rays = Vec::new();
            for _ in 0..n {
                let o = p(rng.gen_range(0..8) as f64, rng.gen_range(0..8) as f64);
                for _ in 0..rng.gen_range(1..4) {
                    let (dx, dy) = (rng.gen_range(-3..4), rng.gen_range(-3..4));
                    if (dx, dy) != (0, 0) {
                        rays.push(ray(o, dx as f64, dy as f64, rng.gen_range(0.1..4.0)));
                    }
                }
            }
            tally(check_rays(&rays, "lattice fans"));
        }
    }
    // Antiparallel rays on one line: collinear overlap, never proper.
    let facing = [
        ray(p(0.0, 0.0), 1.0, 0.0, 3.0),
        ray(p(2.0, 0.0), -1.0, 0.0, 3.0),
    ];
    assert!(check_rays(&facing, "antiparallel"));
    // Emitted layers before and after resolution, on stars and combs (the
    // comb's gaps are coves whose facing rays cross).
    let mut surfaces: Vec<Vec<Point2>> = (0..8).map(|_| star(&mut rng, 60)).collect();
    surfaces.extend([comb(4), comb(40), comb(130)]);
    for s in &surfaces {
        let mut rays = emit_rays(s, 1.5, &CornerThresholds::default());
        tally(check_rays(&rays, "emitted"));
        resolve_self_intersections(&mut rays);
        tally(check_rays(&rays, "resolved"));
    }
    assert!(
        clean > 20 && crossing > 20,
        "{clean} clean, {crossing} crossing"
    );
}
