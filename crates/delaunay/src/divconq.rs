//! Guibas–Stolfi divide-and-conquer Delaunay triangulation.
//!
//! This is the workspace's stand-in for the core of Shewchuk's *Triangle*:
//! an exact-arithmetic, worst-case `O(n log n)` Delaunay triangulator. Two
//! details follow the paper's §III tuning of Triangle:
//!
//! * the input is sorted by x (lexicographically) once; callers that
//!   *maintain* sorted order across decompositions can pass
//!   `assume_sorted = true` and skip the sort entirely;
//! * the divide step uses **vertical cuts only** (split the x-sorted array
//!   at its median), which the paper selects for the many small subdomains
//!   produced by over-decomposition.
//!
//! All orientation / in-circle decisions use the exact-adaptive predicates,
//! so collinear and cocircular inputs are handled without tolerance knobs.

use crate::quadedge::EdgePool;
use adm_geom::point::Point2;
use adm_geom::predicates::{incircle, orient2d};

/// Result of a divide-and-conquer triangulation: the edge pool plus the
/// point set it refers to (deduplicated, sorted).
pub struct DcTriangulation {
    /// The quad-edge subdivision.
    pub pool: EdgePool,
    /// Points actually triangulated (sorted lexicographically, exact
    /// duplicates removed). Edge origins index into this vector.
    pub points: Vec<Point2>,
    /// For each triangulated point, the index of the point in the caller's
    /// input slice it came from (first occurrence for duplicates).
    pub input_index: Vec<u32>,
    /// A counter-clockwise convex-hull edge (entry point for hull walks);
    /// `None` when fewer than 2 distinct points exist.
    pub hull_edge: Option<u32>,
}

/// Triangulates `input`. Set `assume_sorted` when the caller guarantees
/// lexicographic `(x, y)` order — the sort is skipped (duplicates are still
/// removed). Exact duplicates are merged.
pub fn triangulate_dc(input: &[Point2], assume_sorted: bool) -> DcTriangulation {
    let (points, input_index) = prepare_input(input, assume_sorted);
    let mut pool = EdgePool::with_capacity(3 * points.len() + 8);
    let hull_edge = if points.len() >= 2 {
        let (le, _re) = delaunay_rec(&mut pool, &points, 0, points.len());
        Some(le)
    } else {
        None
    };
    DcTriangulation {
        pool,
        points,
        input_index,
        hull_edge,
    }
}

/// The triangulator's input prologue (public for the same benchmark as
/// [`delaunay_rec`]): sorts (unless `assume_sorted`) and removes exact
/// duplicates, keeping first-occurrence provenance. Returns
/// `(points, input_index)` exactly as they appear in [`DcTriangulation`].
pub fn prepare_input(input: &[Point2], assume_sorted: bool) -> (Vec<Point2>, Vec<u32>) {
    // Index sort so we can report provenance of deduplicated points.
    let mut order: Vec<u32> = (0..input.len() as u32).collect();
    if !assume_sorted {
        order.sort_by(|&a, &b| input[a as usize].lex_cmp(input[b as usize]));
    } else {
        debug_assert!(
            input
                .windows(2)
                .all(|w| w[0].lex_cmp(w[1]) != std::cmp::Ordering::Greater),
            "assume_sorted input was not sorted"
        );
    }
    let mut points = Vec::with_capacity(input.len());
    let mut input_index = Vec::with_capacity(input.len());
    for &i in &order {
        let p = input[i as usize];
        if points.last() != Some(&p) {
            points.push(p);
            input_index.push(i);
        }
    }
    (points, input_index)
}

/// Recursive kernel over `points[lo..hi]` (sorted, distinct). Returns
/// `(le, re)`: `le` is the CCW hull edge out of the leftmost vertex, `re`
/// the CW hull edge out of the rightmost vertex.
///
/// Public so the `dc_bl_heavy_leaves` benchmark can time the recursion
/// alone, on a pool and sorted points it prepared outside the timed loop.
pub fn delaunay_rec(pool: &mut EdgePool, pts: &[Point2], lo: usize, hi: usize) -> (u32, u32) {
    let n = hi - lo;
    debug_assert!(n >= 2);
    if n == 2 {
        let e = pool.make_edge(lo as u32, (lo + 1) as u32);
        return (e, pool.sym(e));
    }
    if n == 3 {
        let (i0, i1, i2) = (lo as u32, (lo + 1) as u32, (lo + 2) as u32);
        let a = pool.make_edge(i0, i1);
        let b = pool.make_edge(i1, i2);
        pool.splice(pool.sym(a), b);
        let ct = orient2d(pts[lo], pts[lo + 1], pts[lo + 2]);
        if ct > 0.0 {
            pool.connect(b, a);
            return (a, pool.sym(b));
        } else if ct < 0.0 {
            let c = pool.connect(b, a);
            return (pool.sym(c), c);
        } else {
            // Collinear: leave the open chain.
            return (a, pool.sym(b));
        }
    }

    // Vertical cut: split the x-sorted range at the median.
    let mid = lo + n / 2;
    let (ldo, ldi) = delaunay_rec(pool, pts, lo, mid);
    let (rdi, rdo) = delaunay_rec(pool, pts, mid, hi);
    merge_hulls(pool, pts, ldo, ldi, rdi, rdo)
}

/// The Guibas–Stolfi hull-merge step: stitches two x-disjoint
/// triangulated halves living in the same pool. `(ldo, ldi)` are the
/// left half's hull edges (CCW out of its leftmost vertex, CW out of
/// its rightmost), `(rdi, rdo)` the right half's; returns the combined
/// `(le, re)`.
///
/// Never inlined: folded into the recursive [`delaunay_rec`], its
/// register and stack needs would burden every call down to the 2- and
/// 3-point leaves.
#[inline(never)]
fn merge_hulls(
    pool: &mut EdgePool,
    pts: &[Point2],
    ldo: u32,
    ldi: u32,
    rdi: u32,
    rdo: u32,
) -> (u32, u32) {
    let (mut ldo, mut rdo) = (ldo, rdo);
    let (mut ldi, mut rdi) = (ldi, rdi);

    // Find the lower common tangent of the two hulls.
    loop {
        if left_of(pts, pool.org(rdi), pool, ldi) {
            ldi = pool.lnext(ldi);
        } else if right_of(pts, pool.org(ldi), pool, rdi) {
            rdi = pool.rprev(rdi);
        } else {
            break;
        }
    }

    // Create the base edge basel from rdi.org to ldi.org.
    let mut basel = pool.connect(pool.sym(rdi), ldi);
    if pool.org(ldi) == pool.org(ldo) {
        ldo = pool.sym(basel);
    }
    if pool.org(rdi) == pool.org(rdo) {
        rdo = basel;
    }

    // Merge loop: rise the bubble.
    loop {
        // `basel` is fixed for the whole iteration; hoist its endpoints so
        // the candidate loops and validity tests reuse two registers
        // instead of re-chasing pool indirections the mutating
        // `delete_edge` calls would otherwise force the compiler to
        // reload. `rightward(x)` is `right_of(x, basel)` on the hoisted
        // endpoints — identical arithmetic.
        let bd_i = pool.dest(basel);
        let bo_i = pool.org(basel);
        let bd = pts[bd_i as usize];
        let bo = pts[bo_i as usize];
        let rightward = |p: Point2| orient2d(p, bd, bo) > 0.0;
        // The incircle tests below short-circuit on *vertex-index* equality:
        // a circle test with a repeated point has a determinant of exactly
        // zero (two identical matrix rows), which the stage-A filter can
        // never certify — without the check, every ring wrap onto `basel`
        // (and the shared apex where the two hulls meet) pays the full
        // exact expansion ladder just to learn "0". Skipping is
        // sign-identical because `> 0.0` is false either way.
        // Left candidate.
        let mut lcand = pool.onext(pool.sym(basel));
        if rightward(pts[pool.dest(lcand) as usize]) {
            loop {
                let apex = pool.dest(pool.onext(lcand));
                if apex == bo_i
                    || incircle(bd, bo, pts[pool.dest(lcand) as usize], pts[apex as usize]) <= 0.0
                {
                    break;
                }
                let t = pool.onext(lcand);
                pool.delete_edge(lcand);
                lcand = t;
            }
        }
        // Right candidate.
        let mut rcand = pool.oprev(basel);
        if rightward(pts[pool.dest(rcand) as usize]) {
            loop {
                let apex = pool.dest(pool.oprev(rcand));
                if apex == bd_i
                    || incircle(bd, bo, pts[pool.dest(rcand) as usize], pts[apex as usize]) <= 0.0
                {
                    break;
                }
                let t = pool.oprev(rcand);
                pool.delete_edge(rcand);
                rcand = t;
            }
        }
        let lvalid = rightward(pts[pool.dest(lcand) as usize]);
        let rvalid = rightward(pts[pool.dest(rcand) as usize]);
        if !lvalid && !rvalid {
            break; // upper common tangent reached
        }
        // Choose which candidate to connect: the one whose destination is
        // inside the circle through the other (standard G-S selection).
        if !lvalid
            || (rvalid
                && pool.dest(lcand) != pool.dest(rcand)
                && incircle(
                    pts[pool.dest(lcand) as usize],
                    pts[pool.org(lcand) as usize],
                    pts[pool.org(rcand) as usize],
                    pts[pool.dest(rcand) as usize],
                ) > 0.0)
        {
            basel = pool.connect(rcand, pool.sym(basel));
        } else {
            basel = pool.connect(pool.sym(basel), pool.sym(lcand));
        }
        continue;
    }
    (ldo, rdo)
}

/// `x` lies strictly left of directed edge `e` (org -> dest).
#[inline]
fn left_of(pts: &[Point2], x: u32, pool: &EdgePool, e: u32) -> bool {
    orient2d(
        pts[x as usize],
        pts[pool.org(e) as usize],
        pts[pool.dest(e) as usize],
    ) > 0.0
}

/// `x` lies strictly right of directed edge `e`.
#[inline]
fn right_of(pts: &[Point2], x: u32, pool: &EdgePool, e: u32) -> bool {
    orient2d(
        pts[x as usize],
        pts[pool.dest(e) as usize],
        pts[pool.org(e) as usize],
    ) > 0.0
}

impl DcTriangulation {
    /// Extracts the (CCW) triangles of the subdivision as index triples
    /// into `self.points`.
    pub fn triangles(&self) -> Vec<[u32; 3]> {
        let pool = &self.pool;
        let mut visited = crate::bitset::BitSet::with_len(pool.slots(), false);
        // Every directed live edge lies on exactly one left face, so the
        // triangle count never exceeds a third of the live-edge count.
        let mut tris = Vec::with_capacity(pool.live_count() / 3 + 1);
        for e0 in pool.live_directed_edges() {
            if visited.get(e0 as usize) {
                continue;
            }
            // Walk the left face.
            let e1 = pool.lnext(e0);
            let e2 = pool.lnext(e1);
            if pool.lnext(e2) == e0 && e1 != e0 && e2 != e0 {
                visited.set(e0 as usize, true);
                visited.set(e1 as usize, true);
                visited.set(e2 as usize, true);
                let (a, b, c) = (pool.org(e0), pool.org(e1), pool.org(e2));
                if orient2d(
                    self.points[a as usize],
                    self.points[b as usize],
                    self.points[c as usize],
                ) > 0.0
                {
                    tris.push([a, b, c]);
                }
            }
        }
        tris
    }

    /// Vertex indices of the convex hull in CCW order (walks the outer
    /// face). Empty when fewer than 2 distinct points exist.
    pub fn hull(&self) -> Vec<u32> {
        let Some(start) = self.hull_edge else {
            return Vec::new();
        };
        let pool = &self.pool;
        // `start` is the counter-clockwise hull edge out of the leftmost
        // vertex, so the outer face lies on its right. For such an edge
        // `a -> b`, `rprev(e)` = `onext(sym(e))` turns counter-clockwise
        // about `b` from `b -> a` across the outer face, and so is the
        // next counter-clockwise hull edge `b -> c`.
        let mut out = Vec::new();
        let mut e = start;
        loop {
            out.push(pool.org(e));
            e = pool.rprev(e);
            if e == start || out.len() > pool.slots() {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_geom::predicates::{incircle, orient2d};

    fn pts_of(coords: &[(f64, f64)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    /// Exhaustively verifies the empty-circumcircle property.
    fn assert_delaunay(points: &[Point2], tris: &[[u32; 3]]) {
        for t in tris {
            let (a, b, c) = (
                points[t[0] as usize],
                points[t[1] as usize],
                points[t[2] as usize],
            );
            assert!(orient2d(a, b, c) > 0.0, "triangle not CCW: {t:?}");
            for (i, &p) in points.iter().enumerate() {
                if i as u32 == t[0] || i as u32 == t[1] || i as u32 == t[2] {
                    continue;
                }
                assert!(
                    incircle(a, b, c, p) <= 0.0,
                    "point {i} inside circumcircle of {t:?}"
                );
            }
        }
    }

    /// Euler check for triangulations of point sets: T = 2n - 2 - h where
    /// h is the number of hull vertices (assuming no interior collinear
    /// degeneracies reduce the count).
    fn euler_triangle_count(n: usize, h: usize) -> usize {
        2 * n - 2 - h
    }

    #[test]
    fn two_points() {
        let t = triangulate_dc(&pts_of(&[(0.0, 0.0), (1.0, 0.0)]), false);
        assert!(t.triangles().is_empty());
        assert_eq!(t.pool.live_count(), 2);
    }

    #[test]
    fn three_points_ccw_and_cw() {
        let t = triangulate_dc(&pts_of(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]), false);
        let tris = t.triangles();
        assert_eq!(tris.len(), 1);
        assert_delaunay(&t.points, &tris);
    }

    #[test]
    fn collinear_points_produce_no_triangles() {
        let t = triangulate_dc(
            &pts_of(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]),
            false,
        );
        assert!(t.triangles().is_empty());
        // Chain of n-1 edges.
        assert_eq!(t.pool.live_count(), 2 * 4);
    }

    #[test]
    fn square_with_center() {
        let t = triangulate_dc(
            &pts_of(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]),
            false,
        );
        let tris = t.triangles();
        assert_eq!(tris.len(), 4);
        assert_delaunay(&t.points, &tris);
    }

    #[test]
    fn cocircular_square() {
        // All four points on one circle: either diagonal is Delaunay.
        let t = triangulate_dc(
            &pts_of(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
            false,
        );
        let tris = t.triangles();
        assert_eq!(tris.len(), 2);
        // Weak Delaunay: no point strictly inside any circumcircle.
        assert_delaunay(&t.points, &tris);
    }

    #[test]
    fn duplicate_points_are_merged() {
        let t = triangulate_dc(
            &pts_of(&[(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.0, 0.0)]),
            false,
        );
        assert_eq!(t.points.len(), 3);
        assert_eq!(t.triangles().len(), 1);
        // Provenance: first occurrences.
        assert_eq!(t.input_index, vec![0, 3, 1]);
    }

    #[test]
    fn grid_is_delaunay() {
        let mut pts = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                pts.push(Point2::new(i as f64, j as f64));
            }
        }
        let t = triangulate_dc(&pts, false);
        let tris = t.triangles();
        assert_delaunay(&t.points, &tris);
        let h = t.hull().len();
        assert_eq!(h, 20);
        assert_eq!(tris.len(), euler_triangle_count(36, 20));
    }

    #[test]
    fn random_points_are_delaunay() {
        use rand::{Rng, SeedableRng};
        for seed in 0..5u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pts: Vec<Point2> = (0..120)
                .map(|_| Point2::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)))
                .collect();
            let t = triangulate_dc(&pts, false);
            let tris = t.triangles();
            assert_delaunay(&t.points, &tris);
            let h = t.hull().len();
            assert_eq!(
                tris.len(),
                euler_triangle_count(t.points.len(), h),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sorted_input_path_matches_unsorted() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut pts: Vec<Point2> = (0..200)
            .map(|_| Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let t1 = triangulate_dc(&pts, false);
        pts.sort_by(|a, b| a.lex_cmp(*b));
        let t2 = triangulate_dc(&pts, true);
        let mut tr1 = t1.triangles();
        let mut tr2 = t2.triangles();
        // Same geometry: compare canonicalized coordinate triples.
        let canon = |tris: &mut Vec<[u32; 3]>, points: &[Point2]| -> Vec<Vec<(u64, u64)>> {
            let mut v: Vec<Vec<(u64, u64)>> = tris
                .iter()
                .map(|t| {
                    let mut c: Vec<(u64, u64)> = t
                        .iter()
                        .map(|&i| {
                            let p = points[i as usize];
                            (p.x.to_bits(), p.y.to_bits())
                        })
                        .collect();
                    c.sort_unstable();
                    c
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&mut tr1, &t1.points), canon(&mut tr2, &t2.points));
    }

    #[test]
    fn hull_is_convex() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pts: Vec<Point2> = (0..80)
            .map(|_| Point2::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let t = triangulate_dc(&pts, false);
        let hull = t.hull();
        assert!(hull.len() >= 3);
        let n = hull.len();
        for i in 0..n {
            let a = t.points[hull[i] as usize];
            let b = t.points[hull[(i + 1) % n] as usize];
            let c = t.points[hull[(i + 2) % n] as usize];
            assert!(orient2d(a, b, c) >= 0.0, "hull reflex at {i}");
        }
    }

    #[test]
    fn clustered_degenerate_mix() {
        // Mix of a dense cluster, collinear run, and duplicates.
        let mut pts = pts_of(&[
            (0.0, 0.0),
            (1e-9, 0.0),
            (2e-9, 0.0),
            (0.0, 1e-9),
            (5.0, 5.0),
            (5.0, 5.0),
            (10.0, 0.0),
            (10.0, 10.0),
            (0.0, 10.0),
        ]);
        pts.push(Point2::new(5.0, 5.0 + 1e-12));
        let t = triangulate_dc(&pts, false);
        let tris = t.triangles();
        assert_delaunay(&t.points, &tris);
    }
}
