//! Recursive decomposition and independent subdomain triangulation.
//!
//! The decomposition is used as a **coarse partitioner** (paper §II.D):
//! recursion stops when a subdomain has no internal vertices, falls below a
//! vertex tolerance, or reaches a recursion level derived from the process
//! count. Each leaf is then triangulated independently (with the sorted
//! input fast path — the sort Triangle would do is already maintained) and
//! the per-leaf triangulations are merged with the Blelloch circumcenter
//! rule: a leaf keeps exactly the triangles whose circumcenter lies on its
//! side of every ancestor cut line.

use crate::subdomain::{Cut, CutAxis, Side, Subdomain};
use adm_delaunay::divconq::{triangulate_dc, DcTriangulation};
use adm_delaunay::quality::circumcenter;
use adm_geom::point::Point2;
use adm_mpirt::Pool;

/// Stopping criteria for the coarse partitioner.
#[derive(Debug, Clone, Copy)]
pub struct DecomposeParams {
    /// Stop when a subdomain has fewer vertices than this.
    pub min_vertices: usize,
    /// Stop at this recursion depth (the paper derives it from the number
    /// of processes).
    pub max_level: u32,
}

impl DecomposeParams {
    /// Parameters that produce at least `target_subdomains` leaves on
    /// reasonably balanced inputs: depth `ceil(log2(target))`.
    pub fn for_subdomain_count(target_subdomains: usize) -> Self {
        let levels = usize::BITS - target_subdomains.next_power_of_two().leading_zeros() - 1;
        DecomposeParams {
            min_vertices: 8,
            max_level: levels,
        }
    }

    /// The coarse partitioner's stop rule: `s` is triangulated as it is,
    /// not split further. Per-subdomain, so every driver that walks the
    /// decomposition tree — in any order, on any rank — finds the same
    /// leaves.
    pub fn is_leaf(&self, s: &Subdomain) -> bool {
        s.level >= self.max_level || s.len() < self.min_vertices.max(4) || s.internal_count() == 0
    }
}

/// Result of decomposing a point set.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Leaf subdomains, ready for independent triangulation.
    pub leaves: Vec<Subdomain>,
    /// All dividing paths (global vertex ids, hull order), root-first.
    pub paths: Vec<Vec<u32>>,
}

/// Decomposes `root` until every leaf satisfies a stopping criterion.
pub fn decompose(root: Subdomain, params: &DecomposeParams) -> Decomposition {
    let mut leaves = Vec::new();
    let mut paths = Vec::new();
    let mut stack = vec![root];
    while let Some(mut s) = stack.pop() {
        if params.is_leaf(&s) {
            leaves.push(s);
            continue;
        }
        let axis = s.choose_cut_axis();
        let (lo, hi, path) = s.split(axis);
        paths.push(path);
        stack.push(lo);
        stack.push(hi);
    }
    Decomposition { leaves, paths }
}

/// Triangulates one leaf independently and filters by the circumcenter
/// rule. Returns triangles as **global** vertex-id triples, in canonical
/// order (smallest id leading each CCW cycle, triples sorted).
pub fn triangulate_leaf(leaf: &Subdomain) -> Vec<[u32; 3]> {
    let pts: Vec<Point2> = leaf.x_sorted.iter().map(|v| v.pos).collect();
    // The x-sorted order is maintained across splits, so the sort inside
    // the triangulator is skipped (§III).
    let dc = triangulate_dc(&pts, true);
    filter_leaf_triangles(leaf, &dc)
}

/// [`triangulate_leaf`] under the name the benchmark ledger's traced
/// boundary-layer replica calls; `_pool` is unused.
pub fn triangulate_leaf_pooled(leaf: &Subdomain, _pool: &Pool) -> Vec<[u32; 3]> {
    triangulate_leaf(leaf)
}

/// Circumcenter-rule filter over a leaf's triangulation, emitting
/// canonically ordered global-id triples.
fn filter_leaf_triangles(leaf: &Subdomain, dc: &DcTriangulation) -> Vec<[u32; 3]> {
    let tris = dc.triangles();
    let mut out = Vec::with_capacity(tris.len());
    for t in &tris {
        // Positions via the triangulator's (deduplicated) point list.
        let (pa, pb, pc) = (
            dc.points[t[0] as usize],
            dc.points[t[1] as usize],
            dc.points[t[2] as usize],
        );
        // Canonical circumcenter: evaluate with vertices ordered by global
        // id so both leaves sharing an all-path triangle compute identical
        // bits and make the same keep/drop decision.
        let gid = |k: u32| leaf.x_sorted[dc.input_index[k as usize] as usize].id;
        let (mut ga, mut gb, mut gc) = (gid(t[0]), gid(t[1]), gid(t[2]));
        let mut ppa = pa;
        let mut ppb = pb;
        let mut ppc = pc;
        // Sort the (id, pos) triples by id with a tiny network.
        if ga > gb {
            std::mem::swap(&mut ga, &mut gb);
            std::mem::swap(&mut ppa, &mut ppb);
        }
        if gb > gc {
            std::mem::swap(&mut gb, &mut gc);
            std::mem::swap(&mut ppb, &mut ppc);
        }
        if ga > gb {
            std::mem::swap(&mut ga, &mut gb);
            std::mem::swap(&mut ppa, &mut ppb);
        }
        let Some(cc) = circumcenter(ppa, ppb, ppc) else {
            continue;
        };
        if leaf.cuts.iter().all(|cut| on_side(cc, cut)) {
            // Emit in the triangulator's (CCW) orientation; the id-sorted
            // triple was only for the canonical circumcenter.
            out.push([gid(t[0]), gid(t[1]), gid(t[2])]);
        }
    }
    // Canonical order: the quad-edge face walk emits triangles in pool
    // slot order. `assemble_bl_mesh` allocates its triangle slots in the
    // order the leaves hand them over, so rotating each CCW cycle to its
    // smallest id and sorting the triples is what fixes those slots.
    for t in &mut out {
        let lead = (0..3).min_by_key(|&k| t[k]).unwrap();
        t.rotate_left(lead);
    }
    out.sort_unstable();
    out
}

#[inline]
fn on_side(cc: Point2, cut: &Cut) -> bool {
    let coord = match cut.axis {
        CutAxis::Y => cc.x,
        CutAxis::X => cc.y,
    };
    match cut.side {
        Side::Low => coord < cut.at,
        Side::High => coord >= cut.at,
    }
}

/// Triangulates every leaf and concatenates the results, asserting that
/// no triangle is reported twice: two leaves diverge at one cut, and the
/// circumcentre filter keeps a triangle on exactly one side of it.
pub fn triangulate_all(leaves: &[Subdomain]) -> Vec<[u32; 3]> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for leaf in leaves {
        for t in triangulate_leaf(leaf) {
            let mut key = t;
            key.sort_unstable();
            assert!(seen.insert(key), "triangle {t:?} reported by two leaves");
            out.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_geom::predicates::{incircle, orient2d};

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn canon(tris: &[[u32; 3]]) -> Vec<[u32; 3]> {
        let mut v: Vec<[u32; 3]> = tris
            .iter()
            .map(|t| {
                let mut s = *t;
                s.sort_unstable();
                s
            })
            .collect();
        v.sort();
        v
    }

    /// Direct global DT, reported in global ids.
    fn direct_dt(points: &[Point2]) -> Vec<[u32; 3]> {
        let dc = triangulate_dc(points, false);
        dc.triangles()
            .iter()
            .map(|t| {
                [
                    dc.input_index[t[0] as usize],
                    dc.input_index[t[1] as usize],
                    dc.input_index[t[2] as usize],
                ]
            })
            .collect()
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| p(rng.gen_range(-10.0..10.0), rng.gen_range(-4.0..4.0)))
            .collect()
    }

    #[test]
    fn decomposition_produces_expected_leaf_count() {
        let pts = random_points(500, 1);
        let d = decompose(
            Subdomain::root(&pts),
            &DecomposeParams {
                min_vertices: 8,
                max_level: 4,
            },
        );
        assert_eq!(d.leaves.len(), 16);
        assert_eq!(d.paths.len(), 15);
    }

    #[test]
    fn merged_triangulation_equals_direct_dt_random() {
        for seed in [2u64, 3, 4] {
            let pts = random_points(300, seed);
            let d = decompose(
                Subdomain::root(&pts),
                &DecomposeParams {
                    min_vertices: 8,
                    max_level: 3,
                },
            );
            let merged = triangulate_all(&d.leaves);
            let direct = direct_dt(&pts);
            assert_eq!(
                canon(&merged),
                canon(&direct),
                "seed {seed}: merged != direct"
            );
        }
    }

    #[test]
    fn merged_triangulation_on_grid_is_valid_delaunay() {
        // Grids are maximally cocircular: the merged result may pick
        // different diagonals than the direct DT, but it must tile the
        // domain and satisfy the (weak) empty-circle property.
        let mut pts = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                pts.push(p(i as f64, j as f64));
            }
        }
        let d = decompose(
            Subdomain::root(&pts),
            &DecomposeParams {
                min_vertices: 8,
                max_level: 3,
            },
        );
        let merged = triangulate_all(&d.leaves);
        // Count: T = 2n - 2 - h with n = 144, h = 44.
        assert_eq!(merged.len(), 2 * 144 - 2 - 44);
        // Area tiling: total = 11 x 11.
        let total: f64 = merged
            .iter()
            .map(|t| {
                0.5 * (pts[t[1] as usize] - pts[t[0] as usize])
                    .cross(pts[t[2] as usize] - pts[t[0] as usize])
            })
            .sum();
        assert!((total - 121.0).abs() < 1e-9);
        // Weak Delaunay: no vertex strictly inside any circumcircle.
        for t in &merged {
            let (a, b, c) = (pts[t[0] as usize], pts[t[1] as usize], pts[t[2] as usize]);
            assert!(orient2d(a, b, c) > 0.0);
            for (i, &q) in pts.iter().enumerate() {
                if t.contains(&(i as u32)) {
                    continue;
                }
                assert!(incircle(a, b, c, q) <= 0.0, "grid merge violates Delaunay");
            }
        }
    }

    #[test]
    fn anisotropic_layer_point_cloud() {
        // Boundary-layer-like points: extreme anisotropy (spacing 1e-3
        // normal, 0.1 tangential).
        let mut pts = Vec::new();
        for i in 0..60 {
            for k in 0..12 {
                pts.push(p(i as f64 * 0.1, (k as f64).exp2() * 1e-3));
            }
        }
        let d = decompose(
            Subdomain::root(&pts),
            &DecomposeParams {
                min_vertices: 8,
                max_level: 4,
            },
        );
        let merged = triangulate_all(&d.leaves);
        let direct = direct_dt(&pts);
        assert_eq!(canon(&merged), canon(&direct));
    }

    #[test]
    fn no_internal_vertices_stops_decomposition() {
        // Tiny subdomain: after one split everything is on the path or
        // leaves are tiny; recursion must terminate without panicking.
        let pts = random_points(10, 9);
        let d = decompose(
            Subdomain::root(&pts),
            &DecomposeParams {
                min_vertices: 2,
                max_level: 30,
            },
        );
        assert!(!d.leaves.is_empty());
        let merged = triangulate_all(&d.leaves);
        let direct = direct_dt(&pts);
        assert_eq!(canon(&merged), canon(&direct));
    }

    #[test]
    fn cuts_run_parallel_to_the_shortest_bbox_edge() {
        // Wide cloud (20 x 1): the median line must be vertical (CutAxis::Y,
        // splitting x) at every level while the pieces stay wide.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let wide: Vec<Point2> = (0..400)
            .map(|_| p(rng.gen_range(0.0..20.0), rng.gen_range(0.0..1.0)))
            .collect();
        let params = DecomposeParams {
            min_vertices: 4,
            max_level: 2,
        };
        let d = decompose(Subdomain::root(&wide), &params);
        assert_eq!(d.leaves.len(), 4);
        for leaf in &d.leaves {
            assert_eq!(leaf.cuts.len(), 2);
            for cut in &leaf.cuts {
                assert_eq!(
                    cut.axis,
                    CutAxis::Y,
                    "wide cloud must be split along x (vertical median line)"
                );
            }
        }
        // Tall cloud (1 x 20): the transpose — horizontal median lines.
        let tall: Vec<Point2> = wide.iter().map(|q| p(q.y, q.x)).collect();
        let d = decompose(Subdomain::root(&tall), &params);
        for leaf in &d.leaves {
            for cut in &leaf.cuts {
                assert_eq!(
                    cut.axis,
                    CutAxis::X,
                    "tall cloud must be split along y (horizontal median line)"
                );
            }
        }
    }

    #[test]
    fn isotropic_cloud_alternates_cut_axes() {
        // On a roughly square cloud, halving one direction makes the other
        // the longest edge, so consecutive cuts must alternate — this is
        // exactly what keeps leaves from going skinny.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let pts: Vec<Point2> = (0..600)
            .map(|_| p(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let d = decompose(
            Subdomain::root(&pts),
            &DecomposeParams {
                min_vertices: 4,
                max_level: 2,
            },
        );
        assert_eq!(d.leaves.len(), 4);
        for leaf in &d.leaves {
            assert_eq!(leaf.cuts.len(), 2);
            assert_ne!(
                leaf.cuts[0].axis, leaf.cuts[1].axis,
                "consecutive cuts on a square cloud must alternate axes"
            );
        }
    }

    #[test]
    fn params_for_subdomain_count() {
        assert_eq!(DecomposeParams::for_subdomain_count(16).max_level, 4);
        assert_eq!(DecomposeParams::for_subdomain_count(128).max_level, 7);
        assert_eq!(DecomposeParams::for_subdomain_count(100).max_level, 7);
    }
}
