//! Subdomains with dual sorted vertex storage (paper §II.D and §III).
//!
//! A subdomain stores its vertices twice — x-sorted and y-sorted — in
//! contiguous `Vec`s. This gives O(1) bounding boxes (first/last of each
//! order), O(1) median location along either axis, and O(n) comparison-free
//! splitting. The *projected* coordinate (paraboloid lift flattened onto
//! the plane perpendicular to the cut axis) lives inside the `Vertex`
//! itself rather than a side array, exactly as §III argues for cache
//! locality — it is recomputed at each split because it depends on the
//! median vertex.

use adm_delaunay::bitset::BitSet;
use adm_geom::aabb::Aabb;
use adm_geom::hull::lower_hull_indices_sorted;
use adm_geom::point::{order_key, Point2};
use adm_kernel::GlobalVertexId;

/// A boundary-layer vertex inside a subdomain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vertex {
    /// Position in the plane.
    pub pos: Point2,
    /// Flattened paraboloid projection (valid only during a split).
    pub proj: f64,
    /// Global id in the caller's point array.
    pub id: u32,
    /// Marked when the vertex lies on a dividing Delaunay path.
    pub boundary: bool,
}

impl Vertex {
    /// Creates a vertex at `pos` with global id `id`.
    pub fn new(pos: Point2, id: u32) -> Self {
        Vertex {
            pos,
            proj: 0.0,
            id,
            boundary: false,
        }
    }
}

/// The axis the median *line* is parallel to. A `Y` cut axis means a
/// vertical median line: the x-range is split and the dividing path is a
/// lower hull over `(y, lift)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutAxis {
    /// Horizontal median line (splits the y-range).
    X,
    /// Vertical median line (splits the x-range).
    Y,
}

/// Which side of a cut a child subdomain occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Coordinates strictly below the cut value (plus path vertices).
    Low,
    /// Coordinates at or above the cut value (plus path vertices).
    High,
}

/// One ancestor cut: a child keeps triangles whose circumcenter falls on
/// its side of every ancestor cut line (the Blelloch merge rule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cut {
    /// Axis the median line is parallel to.
    pub axis: CutAxis,
    /// Coordinate of the median line (x for a vertical line, y for a
    /// horizontal one).
    pub at: f64,
    /// This subdomain's side.
    pub side: Side,
}

/// A decomposable subdomain.
#[derive(Debug, Clone)]
pub struct Subdomain {
    /// Vertices sorted lexicographically by `(x, y)`.
    pub x_sorted: Vec<Vertex>,
    /// Vertices sorted lexicographically by `(y, x)`.
    pub y_sorted: Vec<Vertex>,
    /// Ancestor cuts, root-first.
    pub cuts: Vec<Cut>,
    /// Recursion depth.
    pub level: u32,
}

impl Subdomain {
    /// Builds the root subdomain from a point set (duplicates merged).
    /// Vertex ids are positional indices into `points`.
    pub fn root(points: &[Point2]) -> Self {
        Self::build_root(
            points
                .iter()
                .enumerate()
                .map(|(i, &p)| Vertex::new(p, i as u32))
                .collect(),
        )
    }

    /// Builds the root subdomain where each vertex carries its arena
    /// identity (`ids[i]` for `points[i]`) instead of a positional index,
    /// so dividing-path vertices keep a stable global identity all the
    /// way through decompose → mesh → merge. `ids` must come from one
    /// arena interning of `points`, which guarantees duplicate
    /// coordinates carry equal ids and the dedup below cannot lose
    /// identity information.
    pub fn root_with_ids(points: &[Point2], ids: &[GlobalVertexId]) -> Self {
        assert_eq!(points.len(), ids.len(), "ids must parallel points");
        Self::build_root(
            points
                .iter()
                .zip(ids)
                .map(|(&p, &id)| Vertex::new(p, id.raw()))
                .collect(),
        )
    }

    fn build_root(vertices: Vec<Vertex>) -> Self {
        // Both orders sort `u64` keys whose unsigned order is
        // `f64::total_cmp`'s, with the position as the last key, so the
        // unstable sorts give exactly the orders of stable comparator
        // sorts. One key buffer serves both sorts.
        let keys = sort_keys(&vertices, |p| (order_key(p.x), order_key(p.y)), Vec::new());
        let mut x_sorted: Vec<Vertex> =
            keys.iter().map(|&(_, _, i)| vertices[i as usize]).collect();
        drop(vertices);
        // Keep the first of each run of equal positions: the lowest index
        // (or first-interned) duplicate, the same winner an arena's
        // first-occurrence interning picks.
        x_sorted.dedup_by(|a, b| a.pos == b.pos);
        let keys = sort_keys(&x_sorted, |p| (order_key(p.y), order_key(p.x)), keys);
        let y_sorted = keys.iter().map(|&(_, _, i)| x_sorted[i as usize]).collect();
        Subdomain {
            x_sorted,
            y_sorted,
            cuts: Vec::new(),
            level: 0,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.x_sorted.len()
    }

    /// `true` when the subdomain has no vertices.
    pub fn is_empty(&self) -> bool {
        self.x_sorted.is_empty()
    }

    /// Bounding box in O(1) from the sorted extremes.
    pub fn bbox(&self) -> Aabb {
        let xmin = self.x_sorted.first().map_or(0.0, |v| v.pos.x);
        let xmax = self.x_sorted.last().map_or(0.0, |v| v.pos.x);
        let ymin = self.y_sorted.first().map_or(0.0, |v| v.pos.y);
        let ymax = self.y_sorted.last().map_or(0.0, |v| v.pos.y);
        Aabb::new(Point2::new(xmin, ymin), Point2::new(xmax, ymax))
    }

    /// Number of internal (non-path) vertices.
    pub fn internal_count(&self) -> usize {
        self.x_sorted.iter().filter(|v| !v.boundary).count()
    }

    /// Chooses the cut axis: the median line runs parallel to the
    /// *shortest* bounding-box edge so the long direction is split,
    /// avoiding long skinny subdomains that are expensive for the
    /// divide-and-conquer triangulator's merge step (§II.D).
    pub fn choose_cut_axis(&self) -> CutAxis {
        let b = self.bbox();
        if b.width() >= b.height() {
            CutAxis::Y // vertical median line, split x
        } else {
            CutAxis::X
        }
    }

    /// Splits the subdomain at the median vertex along `axis`, computing
    /// the dividing Delaunay path via the flattened-paraboloid lower hull.
    /// Returns `(low, high, path)` where `path` lists the global ids of
    /// the dividing-path vertices in hull order.
    pub fn split(&mut self, axis: CutAxis) -> (Subdomain, Subdomain, Vec<u32>) {
        let n = self.len();
        assert!(n >= 2, "cannot split a subdomain with {n} vertices");
        // Median vertex in O(1) from the primary-axis-sorted order.
        let (primary, hull_order): (&mut Vec<Vertex>, &mut Vec<Vertex>) = match axis {
            CutAxis::Y => (&mut self.x_sorted, &mut self.y_sorted),
            CutAxis::X => (&mut self.y_sorted, &mut self.x_sorted),
        };
        let median = primary[n / 2].pos;
        let cut_at = match axis {
            CutAxis::Y => median.x,
            CutAxis::X => median.y,
        };

        // Project onto the paraboloid centered at the median vertex and
        // flatten: the lift is stored in the vertices themselves (§III).
        for v in hull_order.iter_mut() {
            let d = v.pos - median;
            v.proj = d.norm_sq();
        }
        for v in primary.iter_mut() {
            let d = v.pos - median;
            v.proj = d.norm_sq();
        }

        // Hull input: (along-line coordinate, lift), already sorted by the
        // along-line coordinate; equal-coordinate runs are ordered by the
        // secondary axis, not the lift, so fix those runs locally. The runs
        // group with `==`, under which -0.0 equals 0.0, but the hull checks
        // its order with `total_cmp`, which puts -0.0 first: `+ 0.0` turns
        // -0.0 into 0.0 (and changes no other value), so both agree.
        let lifted = |v: &Vertex| match axis {
            CutAxis::Y => Point2::new(v.pos.y + 0.0, v.proj),
            CutAxis::X => Point2::new(v.pos.x + 0.0, v.proj),
        };
        let mut flat: Vec<Point2> = hull_order.iter().map(lifted).collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut i = 0;
        while i < n {
            let mut j = i + 1;
            while j < n && flat[j].x == flat[i].x {
                j += 1;
            }
            if j - i > 1 {
                order[i..j].sort_by(|&a, &b| flat[a as usize].y.total_cmp(&flat[b as usize].y));
                for k in i..j {
                    flat[k] = lifted(&hull_order[order[k] as usize]);
                }
            }
            i = j;
        }
        let hull_idx = lower_hull_indices_sorted(&flat);
        let path: Vec<u32> = hull_idx
            .iter()
            .map(|&k| hull_order[order[k] as usize].id)
            .collect();

        // Path membership is by id, so every vertex carrying a path id is
        // marked in both orders (signed-zero twins can share an arena id).
        let id_end = primary.iter().map(|v| v.id as usize + 1).max().unwrap_or(0);
        let mut on_path = BitSet::with_len(id_end, false);
        for &id in &path {
            on_path.set(id as usize, true);
        }
        for v in primary.iter_mut().chain(hull_order.iter_mut()) {
            if on_path.get(v.id as usize) {
                v.boundary = true;
            }
        }

        // Partition both sorted orders in one pass each; path vertices go
        // to both children. Equal-to-cut coordinates go High, matching the
        // primary-axis "split at the median index" rule.
        let coord = |v: &Vertex| match axis {
            CutAxis::Y => v.pos.x,
            CutAxis::X => v.pos.y,
        };
        let distribute = |src: &[Vertex]| -> (Vec<Vertex>, Vec<Vertex>) {
            let mut low = Vec::with_capacity(src.len() / 2 + 8);
            let mut high = Vec::with_capacity(src.len() / 2 + 8);
            for v in src {
                // Only a marked vertex can be on this path.
                let both = v.boundary && on_path.get(v.id as usize);
                if coord(v) < cut_at {
                    low.push(*v);
                    if both {
                        high.push(*v);
                    }
                } else {
                    high.push(*v);
                    if both {
                        low.push(*v);
                    }
                }
            }
            (low, high)
        };
        let (lx, hx) = distribute(&self.x_sorted);
        let (ly, hy) = distribute(&self.y_sorted);

        let mut lcuts = self.cuts.clone();
        lcuts.push(Cut {
            axis,
            at: cut_at,
            side: Side::Low,
        });
        let mut hcuts = self.cuts.clone();
        hcuts.push(Cut {
            axis,
            at: cut_at,
            side: Side::High,
        });
        let low = Subdomain {
            x_sorted: lx,
            y_sorted: ly,
            cuts: lcuts,
            level: self.level + 1,
        };
        let high = Subdomain {
            x_sorted: hx,
            y_sorted: hy,
            cuts: hcuts,
            level: self.level + 1,
        };
        (low, high, path)
    }

    /// Estimated triangulation cost (used by the load balancer): the
    /// expected triangle count `2n`.
    pub fn cost(&self) -> u64 {
        2 * self.len() as u64
    }
}

/// A root-order sort key: two `u64`s compared as a tuple, then the
/// vertex's position.
type SortKey = (u64, u64, u32);

/// The keys of `v` under `key(pos)`, sorted, in `buf`'s storage. The
/// position is the last key, so the unstable sort gives exactly the order
/// a stable sort on `key` would.
fn sort_keys(
    v: &[Vertex],
    key: impl Fn(Point2) -> (u64, u64),
    mut buf: Vec<SortKey>,
) -> Vec<SortKey> {
    buf.clear();
    buf.extend(v.iter().enumerate().map(|(i, w)| {
        let (k1, k2) = key(w.pos);
        (k1, k2, i as u32)
    }));
    buf.sort_unstable();
    buf
}

/// One node of the binary merge-reduction schedule over a path-sorted
/// task list: an in-order binary tree whose internal nodes are exactly
/// the join points of the decomposition tree (sibling subtrees under
/// their shared path prefix), re-balanced binarily where a tree level
/// has more than two children (the root's quadrant/near-body seeds).
///
/// Because the covered ranges are contiguous and in order, *any*
/// reduction over this tree with an associative combine yields the same
/// result as the sequential left fold — the tree only decides which
/// merges may run concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionNode {
    /// First task index covered (inclusive).
    pub lo: usize,
    /// One past the last task index covered.
    pub hi: usize,
    /// `None` for a leaf (a single task's mesh).
    pub children: Option<(Box<ReductionNode>, Box<ReductionNode>)>,
}

impl ReductionNode {
    /// Number of internal (merge-performing) nodes.
    pub fn internal_count(&self) -> usize {
        match &self.children {
            None => 0,
            Some((l, r)) => 1 + l.internal_count() + r.internal_count(),
        }
    }

    /// Tree depth in merge steps (0 for a leaf): the critical-path
    /// length of the reduction.
    pub fn depth(&self) -> usize {
        match &self.children {
            None => 0,
            Some((l, r)) => 1 + l.depth().max(r.depth()),
        }
    }
}

/// Builds the reduction schedule for a lexicographically sorted list of
/// task-tree paths (the order the sequential merge consumes them in).
///
/// # Panics
/// Panics if `paths` is empty or not strictly ascending (the recursion
/// below ends only on distinct paths).
pub fn reduction_plan(paths: &[&[u8]]) -> ReductionNode {
    assert!(!paths.is_empty(), "reduction plan over no tasks");
    assert!(
        paths.windows(2).all(|w| w[0] < w[1]),
        "paths must be sorted and distinct"
    );
    plan_range(paths, 0, paths.len(), 0)
}

fn plan_range(paths: &[&[u8]], lo: usize, hi: usize, depth: usize) -> ReductionNode {
    if hi - lo == 1 {
        return ReductionNode {
            lo,
            hi,
            children: None,
        };
    }
    // Contiguous runs sharing the same path byte at this depth (a path
    // ending here is its own run — it sorts first among its subtree).
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut start = lo;
    for i in lo + 1..hi {
        if paths[i].get(depth) != paths[start].get(depth) {
            runs.push((start, i));
            start = i;
        }
    }
    runs.push((start, hi));
    if runs.len() == 1 {
        // Identical prefixes can only repeat so long as paths stay
        // distinct, so this recursion terminates.
        return plan_range(paths, lo, hi, depth + 1);
    }
    plan_runs(paths, &runs, depth)
}

/// Balanced in-order binary combination of >= 2 sibling runs.
fn plan_runs(paths: &[&[u8]], runs: &[(usize, usize)], depth: usize) -> ReductionNode {
    if runs.len() == 1 {
        let (lo, hi) = runs[0];
        return plan_range(paths, lo, hi, depth + 1);
    }
    let mid = runs.len() / 2;
    let left = plan_runs(paths, &runs[..mid], depth);
    let right = plan_runs(paths, &runs[mid..], depth);
    ReductionNode {
        lo: left.lo,
        hi: right.hi,
        children: Some((Box::new(left), Box::new(right))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn grid(nx: usize, ny: usize) -> Vec<Point2> {
        let mut v = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                v.push(p(i as f64, j as f64 * 0.5));
            }
        }
        v
    }

    #[test]
    fn root_sorted_and_deduped() {
        let pts = vec![p(2.0, 0.0), p(0.0, 1.0), p(2.0, 0.0), p(1.0, -1.0)];
        let s = Subdomain::root(&pts);
        assert_eq!(s.len(), 3);
        assert!(s
            .x_sorted
            .windows(2)
            .all(|w| w[0].pos.lex_cmp(w[1].pos).is_lt()));
        assert!(s
            .y_sorted
            .windows(2)
            .all(|w| (w[0].pos.y, w[0].pos.x) <= (w[1].pos.y, w[1].pos.x)));
    }

    #[test]
    fn root_with_ids_carries_arena_identity() {
        let pts = vec![p(2.0, 0.0), p(0.0, 1.0), p(2.0, 0.0), p(1.0, -1.0)];
        // Arena-style ids: the duplicate maps to the first occurrence.
        let ids = [7u32, 3, 7, 9].map(GlobalVertexId);
        let mut s = Subdomain::root_with_ids(&pts, &ids);
        assert_eq!(s.len(), 3);
        let mut got: Vec<u32> = s.x_sorted.iter().map(|v| v.id).collect();
        got.sort_unstable();
        assert_eq!(got, vec![3, 7, 9]);
        // Splitting marks exactly the path vertices as boundary.
        let big = Subdomain::root_with_ids(
            &grid(8, 8),
            &(100..164).map(GlobalVertexId).collect::<Vec<_>>(),
        );
        let mut big = big;
        let (_, _, path) = big.split(CutAxis::Y);
        let mut from_path = path.clone();
        from_path.sort_unstable();
        let boundary = big.x_sorted.iter().filter(|v| v.boundary).map(|v| v.id);
        let mut marked: Vec<u32> = boundary.collect();
        marked.sort_unstable();
        assert_eq!(marked, from_path);
        assert!(from_path.iter().all(|&id| (100..164).contains(&id)));
        let _ = s.split(CutAxis::X);
    }

    #[test]
    fn bbox_is_constant_time_and_correct() {
        let s = Subdomain::root(&grid(5, 3));
        let b = s.bbox();
        assert_eq!(b.min, p(0.0, 0.0));
        assert_eq!(b.max, p(4.0, 1.0));
    }

    #[test]
    fn cut_axis_follows_shortest_bbox_edge() {
        // Wide domain: vertical median line.
        let s = Subdomain::root(&grid(20, 3));
        assert_eq!(s.choose_cut_axis(), CutAxis::Y);
        let t = Subdomain::root(&grid(3, 40));
        assert_eq!(t.choose_cut_axis(), CutAxis::X);
    }

    #[test]
    fn split_partitions_and_keeps_orders() {
        let mut s = Subdomain::root(&grid(10, 4));
        let n0 = s.len();
        let (lo, hi, path) = s.split(CutAxis::Y);
        assert!(!path.is_empty());
        // Every original vertex appears in exactly one child (path
        // vertices in both).
        assert_eq!(lo.len() + hi.len(), n0 + path.len());
        // Sorted orders preserved in both children.
        for c in [&lo, &hi] {
            assert!(c
                .x_sorted
                .windows(2)
                .all(|w| w[0].pos.lex_cmp(w[1].pos).is_le()));
            assert!(c
                .y_sorted
                .windows(2)
                .all(|w| (w[0].pos.y, w[0].pos.x) <= (w[1].pos.y, w[1].pos.x)));
            // x/y arrays hold the same vertex sets.
            let mut a: Vec<u32> = c.x_sorted.iter().map(|v| v.id).collect();
            let mut b: Vec<u32> = c.y_sorted.iter().map(|v| v.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        // Path vertices are marked boundary in both children.
        for c in [&lo, &hi] {
            for v in &c.x_sorted {
                if path.contains(&v.id) {
                    assert!(v.boundary);
                }
            }
        }
        // Sides are consistent with the cut.
        let cut = lo.cuts.last().unwrap();
        for v in &lo.x_sorted {
            assert!(v.pos.x < cut.at || path.contains(&v.id));
        }
        for v in &hi.x_sorted {
            assert!(v.pos.x >= cut.at || path.contains(&v.id));
        }
    }

    #[test]
    fn signed_zero_twins_on_the_cut_line_keep_the_hull_input_sorted() {
        // (0, 1) arrives twice, once as x = -0.0, which sorts first and
        // survives the dedup, so the x = 0 column mixes both zero signs.
        // Its lifts put (0, 2) ahead of (-0.0, 1): before the zero sign
        // was normalised, the hull's debug sortedness check fired.
        let pts = [
            p(-1.0, 2.0),
            p(0.0, 1.0),
            p(-0.0, 1.0),
            p(0.0, 2.0),
            p(0.0, 3.0),
            p(1.0, 2.0),
            p(0.5, 0.0),
        ];
        let mut s = Subdomain::root(&pts);
        assert_eq!(s.len(), pts.len() - 1, "the twins dedup");
        let (lo, hi, path) = s.split(CutAxis::X);
        assert!(!path.is_empty());
        assert_eq!(lo.len() + hi.len(), s.len() + path.len());
    }

    /// `build_root` as it was before its keyed sorts: stable comparator
    /// sorts, the oracle the keyed sorts are held to.
    fn build_root_by_comparator(mut x_sorted: Vec<Vertex>) -> Subdomain {
        x_sorted.sort_by(|a, b| a.pos.lex_cmp(b.pos));
        x_sorted.dedup_by(|a, b| a.pos == b.pos);
        let mut y_sorted = x_sorted.clone();
        y_sorted.sort_by(|a, b| {
            a.pos
                .y
                .total_cmp(&b.pos.y)
                .then_with(|| a.pos.x.total_cmp(&b.pos.x))
        });
        Subdomain {
            x_sorted,
            y_sorted,
            cuts: Vec::new(),
            level: 0,
        }
    }

    /// `split` as it was before its id bitset: path membership through a
    /// SipHash set, and a copy of every equal-coordinate run. The oracle
    /// the hash-free split is held to.
    fn split_siphash(s: &mut Subdomain, axis: CutAxis) -> (Subdomain, Subdomain, Vec<u32>) {
        let n = s.len();
        let (primary, hull_order): (&mut Vec<Vertex>, &mut Vec<Vertex>) = match axis {
            CutAxis::Y => (&mut s.x_sorted, &mut s.y_sorted),
            CutAxis::X => (&mut s.y_sorted, &mut s.x_sorted),
        };
        let median = primary[n / 2].pos;
        let cut_at = match axis {
            CutAxis::Y => median.x,
            CutAxis::X => median.y,
        };
        for v in hull_order.iter_mut() {
            v.proj = (v.pos - median).norm_sq();
        }
        for v in primary.iter_mut() {
            v.proj = (v.pos - median).norm_sq();
        }
        let mut flat: Vec<Point2> = hull_order
            .iter()
            .map(|v| match axis {
                CutAxis::Y => Point2::new(v.pos.y + 0.0, v.proj),
                CutAxis::X => Point2::new(v.pos.x + 0.0, v.proj),
            })
            .collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut i = 0;
        while i < n {
            let mut j = i + 1;
            while j < n && flat[j].x == flat[i].x {
                j += 1;
            }
            if j - i > 1 {
                order[i..j].sort_by(|&a, &b| flat[a as usize].y.total_cmp(&flat[b as usize].y));
                let snap: Vec<Point2> = order[i..j].iter().map(|&k| flat[k as usize]).collect();
                flat[i..j].copy_from_slice(&snap);
            }
            i = j;
        }
        let hull_idx = lower_hull_indices_sorted(&flat);
        let path: Vec<u32> = hull_idx
            .iter()
            .map(|&k| hull_order[order[k] as usize].id)
            .collect();
        let path_set: std::collections::HashSet<u32> = path.iter().copied().collect();
        for v in primary.iter_mut() {
            if path_set.contains(&v.id) {
                v.boundary = true;
            }
        }
        for v in hull_order.iter_mut() {
            if path_set.contains(&v.id) {
                v.boundary = true;
            }
        }
        let coord = |v: &Vertex| match axis {
            CutAxis::Y => v.pos.x,
            CutAxis::X => v.pos.y,
        };
        let distribute = |src: &[Vertex]| -> (Vec<Vertex>, Vec<Vertex>) {
            let (mut low, mut high) = (Vec::new(), Vec::new());
            for v in src {
                let on_path = path_set.contains(&v.id);
                if coord(v) < cut_at {
                    low.push(*v);
                    if on_path {
                        high.push(*v);
                    }
                } else {
                    high.push(*v);
                    if on_path {
                        low.push(*v);
                    }
                }
            }
            (low, high)
        };
        let (lx, hx) = distribute(&s.x_sorted);
        let (ly, hy) = distribute(&s.y_sorted);
        let child = |x_sorted, y_sorted, side| {
            let mut cuts = s.cuts.clone();
            cuts.push(Cut {
                axis,
                at: cut_at,
                side,
            });
            Subdomain {
                x_sorted,
                y_sorted,
                cuts,
                level: s.level + 1,
            }
        };
        (child(lx, ly, Side::Low), child(hx, hy, Side::High), path)
    }

    /// Every field of every vertex, bit for bit, in order.
    fn vertex_bits(vs: &[Vertex]) -> Vec<(u64, u64, u64, u32, bool)> {
        vs.iter()
            .map(|v| {
                let (x, y, proj) = (v.pos.x.to_bits(), v.pos.y.to_bits(), v.proj.to_bits());
                (x, y, proj, v.id, v.boundary)
            })
            .collect()
    }

    fn assert_same_subdomain(got: &Subdomain, want: &Subdomain) {
        assert_eq!(vertex_bits(&got.x_sorted), vertex_bits(&want.x_sorted));
        assert_eq!(vertex_bits(&got.y_sorted), vertex_bits(&want.y_sorted));
        assert_eq!(got.level, want.level);
        let cut_bits = |s: &Subdomain| -> Vec<_> {
            s.cuts
                .iter()
                .map(|c| (c.axis, c.at.to_bits(), c.side))
                .collect()
        };
        assert_eq!(cut_bits(got), cut_bits(want));
    }

    /// Holds the keyed root orders to the comparator sorts, then walks the
    /// whole decomposition under `params`, holding every split (both
    /// children, the path and the parent's marks) to the SipHash split.
    /// Returns the number of splits compared.
    fn assert_matches_oracles(vertices: Vec<Vertex>, params: &crate::DecomposeParams) -> usize {
        let root = Subdomain::build_root(vertices.clone());
        assert_same_subdomain(&root, &build_root_by_comparator(vertices));
        let mut splits = 0;
        let mut stack = vec![root];
        while let Some(mut s) = stack.pop() {
            if params.is_leaf(&s) {
                continue;
            }
            let axis = s.choose_cut_axis();
            let mut oracle = s.clone();
            let (lo, hi, path) = s.split(axis);
            let (want_lo, want_hi, want_path) = split_siphash(&mut oracle, axis);
            assert_eq!(path, want_path);
            assert_same_subdomain(&s, &oracle);
            assert_same_subdomain(&lo, &want_lo);
            assert_same_subdomain(&hi, &want_hi);
            splits += 1;
            stack.push(lo);
            stack.push(hi);
        }
        splits
    }

    fn positional(points: &[Point2]) -> Vec<Vertex> {
        (0..).zip(points).map(|(i, &p)| Vertex::new(p, i)).collect()
    }

    /// Splits down to single-digit leaves.
    const DEEP: crate::DecomposeParams = crate::DecomposeParams {
        min_vertices: 4,
        max_level: 12,
    };

    #[test]
    fn keyed_orders_and_hash_free_splits_match_the_oracles() {
        // The signed-zero twins below, a grid, and a grid repeated with
        // distinct ids for the duplicates, in scrambled order and with
        // -0.0 for every zero.
        let twins = [
            p(-1.0, 2.0),
            p(0.0, 1.0),
            p(-0.0, 1.0),
            p(0.0, 2.0),
            p(0.0, 3.0),
            p(1.0, 2.0),
            p(0.5, 0.0),
        ];
        assert!(assert_matches_oracles(positional(&twins), &DEEP) > 0);
        assert!(assert_matches_oracles(positional(&grid(10, 4)), &DEEP) > 0);
        let mut dups = grid(8, 8);
        dups.extend(grid(8, 8).iter().rev().map(|q| p(-q.x, -q.y)));
        dups.extend(grid(8, 8).iter().step_by(3));
        assert!(assert_matches_oracles(positional(&dups), &DEEP) > 0);
        // Arena ids: the -0.0 twin shares its +0.0 twin's id.
        let ids: Vec<u32> = twins
            .iter()
            .map(|q| if *q == p(0.0, 1.0) { 1 } else { 9 })
            .collect();
        let twin_ids: Vec<Vertex> = twins
            .iter()
            .zip(ids)
            .map(|(&q, i)| Vertex::new(q, i))
            .collect();
        assert_matches_oracles(twin_ids, &DEEP);
    }

    /// The boundary-layer cloud of the `bl_heavy` benchmark workload (the
    /// three-element case at 1,200 points per side under a `1e-5`, `1.08`
    /// geometric layer), with its arena ids.
    fn bl_heavy_cloud() -> Vec<Vertex> {
        use adm_blayer::{build_multielement_layers, BlParams, Geometric, GrowthSpec};
        let pslg = adm_airfoil::three_element_highlift(&adm_airfoil::HighLiftParams {
            n_per_side: 1200,
            farfield_chords: 30.0,
        });
        let surfaces: Vec<Vec<Point2>> = pslg.loops.iter().map(|l| l.points.clone()).collect();
        let params = BlParams {
            height: 0.05 * pslg.reference_chord(),
            ..Default::default()
        };
        let growth = GrowthSpec::from(Geometric::new(1e-5, 1.08));
        let layers = build_multielement_layers(&surfaces, &growth, &params);
        let cloud: Vec<Point2> = layers
            .iter()
            .flat_map(|l| l.all_points())
            .copied()
            .collect();
        let ids = adm_kernel::MeshArena::with_capacity(cloud.len()).intern_all(&cloud);
        cloud
            .iter()
            .zip(ids)
            .map(|(&q, id)| Vertex::new(q, id.raw()))
            .collect()
    }

    #[test]
    fn bl_heavy_root_and_every_split_match_the_oracles() {
        let cloud = bl_heavy_cloud();
        assert!(cloud.len() > 100_000, "{} points", cloud.len());
        let splits =
            assert_matches_oracles(cloud, &crate::DecomposeParams::for_subdomain_count(64));
        assert_eq!(splits, 63);
    }

    #[test]
    fn path_endpoints_are_extremes() {
        // The dividing path must run from the minimum to the maximum of
        // the along-line coordinate (it separates the two sides fully).
        let mut s = Subdomain::root(&grid(8, 8));
        let (_, _, path) = s.split(CutAxis::Y);
        let pos_of = |id: u32| s.x_sorted.iter().find(|v| v.id == id).map(|v| v.pos);
        let first = pos_of(path[0]).unwrap();
        let last = pos_of(*path.last().unwrap()).unwrap();
        let ys: Vec<f64> = s.x_sorted.iter().map(|v| v.pos.y).collect();
        let ymin = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let ymax = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(first.y, ymin);
        assert_eq!(last.y, ymax);
    }

    #[test]
    fn cost_scales_with_size() {
        let s = Subdomain::root(&grid(10, 10));
        assert_eq!(s.cost(), 200);
    }

    /// In-order leaves of a reduction plan must be 0..n exactly once.
    fn collect_leaves(node: &ReductionNode, out: &mut Vec<usize>) {
        match &node.children {
            None => {
                assert_eq!(node.lo + 1, node.hi);
                out.push(node.lo);
            }
            Some((l, r)) => {
                assert_eq!((node.lo, node.hi), (l.lo, r.hi));
                assert_eq!(l.hi, r.lo, "children must be contiguous");
                collect_leaves(l, out);
                collect_leaves(r, out);
            }
        }
    }

    #[test]
    fn reduction_plan_covers_pipeline_shaped_paths() {
        // The pipeline's merge list: BL mesh at [0], four quadrant
        // subtrees, the near-body task — with binary splits below.
        let paths: Vec<Vec<u8>> = vec![
            vec![0],
            vec![1, 0, 0],
            vec![1, 0, 1],
            vec![1, 1],
            vec![2],
            vec![3, 0],
            vec![3, 1, 0],
            vec![3, 1, 1],
            vec![4],
            vec![5],
        ];
        let refs: Vec<&[u8]> = paths.iter().map(|p| p.as_slice()).collect();
        let plan = reduction_plan(&refs);
        let mut leaves = Vec::new();
        collect_leaves(&plan, &mut leaves);
        assert_eq!(leaves, (0..paths.len()).collect::<Vec<_>>());
        assert_eq!(plan.internal_count(), paths.len() - 1);
        // Balanced over the 6 top-level seeds: far shallower than the
        // length-9 chain of the sequential fold.
        assert!(plan.depth() <= 5, "depth {} too deep", plan.depth());
    }

    #[test]
    fn reduction_plan_single_task_is_a_leaf() {
        let plan = reduction_plan(&[&[0u8][..]]);
        assert_eq!(plan.internal_count(), 0);
        assert_eq!((plan.lo, plan.hi), (0, 1));
    }

    #[test]
    fn reduction_plan_rejects_unsorted_paths() {
        // A repeated path too: the recursion would never reach its end.
        for second in [1u8, 2] {
            let plan = std::panic::catch_unwind(|| reduction_plan(&[&[2u8][..], &[second][..]]));
            let msg = *plan.expect_err("must panic").downcast::<&str>().unwrap();
            assert!(msg.contains("sorted and distinct"), "{msg}");
        }
    }
}
