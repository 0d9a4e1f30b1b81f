//! Anisotropic metric tensors and discrete metric fields.
//!
//! The adaptation loop (solve → estimate → remesh) communicates its
//! sizing demand as a *metric*: a 2×2 symmetric positive-definite tensor
//! `M` per vertex whose unit ball is the ideal element shape — edge
//! lengths are measured as `sqrt(eᵀ M e)` and an adapted mesh makes every
//! edge unit length in its local metric. [`Metric2`] is one tensor with
//! the closed-form symmetric eigendecomposition the estimator needs to
//! clamp Hessian eigenvalues; [`MetricField`] is the per-vertex discrete
//! field with the log-Euclidean interpolation rule (interpolate
//! `log(M)` entrywise, then exponentiate) that keeps interpolated
//! tensors SPD and swap-symmetric.
//!
//! Everything here is deterministic: a query keeps the nearest samples
//! of a region fixed by grid-cell counts, ties break on vertex index, and
//! [`MetricField::canonical_bytes`] gives a platform-independent byte
//! encoding (-0.0 normalized to +0.0, little-endian IEEE bits) so a
//! field can be content-addressed by downstream hashing.

use crate::aabb::Aabb;
use crate::point::{canonical_f64, Point2};
use std::cmp::Ordering;

/// A 2×2 symmetric positive-definite tensor `[[a, b], [b, d]]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric2 {
    /// Top-left entry.
    pub a: f64,
    /// Off-diagonal entry (symmetric).
    pub b: f64,
    /// Bottom-right entry.
    pub d: f64,
}

impl Metric2 {
    /// The isotropic metric prescribing edge length `h` in every
    /// direction: `M = I / h²`.
    #[cfg(test)]
    fn isotropic(h: f64) -> Self {
        assert!(h > 0.0 && h.is_finite(), "isotropic metric needs h > 0");
        let l = 1.0 / (h * h);
        Metric2 { a: l, b: 0.0, d: l }
    }

    /// Eigendecomposition of the symmetric tensor: returns
    /// `(l1, l2, (c, s))` with `l1 >= l2` and `(c, s)` the unit
    /// eigenvector of `l1`. Closed-form and branch-stable: the
    /// eigenvector is built from whichever column of `M - l2·I` has the
    /// larger norm, so nearly-isotropic tensors degrade to the axis
    /// (1, 0) instead of a 0/0.
    pub fn eigen(&self) -> (f64, f64, (f64, f64)) {
        let half_tr = 0.5 * (self.a + self.d);
        let half_diff = 0.5 * (self.a - self.d);
        let disc = (half_diff * half_diff + self.b * self.b).sqrt();
        let l1 = half_tr + disc;
        let l2 = half_tr - disc;
        // (M - l2 I) v = 0 for the l2-eigenvector; its columns span the
        // l1-eigendirection.
        let (vx, vy) = if half_diff >= 0.0 {
            (half_diff + disc, self.b)
        } else {
            (self.b, disc - half_diff)
        };
        let n = (vx * vx + vy * vy).sqrt();
        let dir = if n > 0.0 {
            (vx / n, vy / n)
        } else {
            (1.0, 0.0)
        };
        (l1, l2, dir)
    }

    /// Rebuilds the tensor `R diag(l1, l2) Rᵀ` from eigenvalues and the
    /// unit eigenvector `(c, s)` of `l1`.
    pub fn from_eigen(l1: f64, l2: f64, (c, s): (f64, f64)) -> Self {
        Metric2 {
            a: c * c * l1 + s * s * l2,
            b: c * s * (l1 - l2),
            d: s * s * l1 + c * c * l2,
        }
    }

    /// Builds the metric from a (possibly indefinite) recovered Hessian:
    /// take absolute eigenvalues, scale by the interpolation-error
    /// budget `eps`, and clamp to the edge-length window
    /// `[h_min, h_max]` (i.e. eigenvalues into `[1/h_max², 1/h_min²]`).
    /// The result is SPD by construction for every finite input.
    pub fn from_hessian(hxx: f64, hxy: f64, hyy: f64, eps: f64, h_min: f64, h_max: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        assert!(
            0.0 < h_min && h_min <= h_max && h_max.is_finite(),
            "need 0 < h_min <= h_max"
        );
        let h = Metric2 {
            a: hxx,
            b: hxy,
            d: hyy,
        };
        let (l1, l2, dir) = h.eigen();
        let lo = 1.0 / (h_max * h_max);
        let hi = 1.0 / (h_min * h_min);
        let clamp = |l: f64| {
            let v = l.abs() / eps;
            if v.is_nan() {
                lo
            } else {
                v.clamp(lo, hi)
            }
        };
        Metric2::from_eigen(clamp(l1), clamp(l2), dir)
    }

    /// Matrix logarithm of the SPD tensor (a symmetric matrix, returned
    /// as its `(a, b, d)` entries).
    pub fn log(&self) -> (f64, f64, f64) {
        let (l1, l2, dir) = self.eigen();
        debug_assert!(l1 > 0.0 && l2 > 0.0, "log of a non-SPD metric");
        let m = Metric2::from_eigen(l1.ln(), l2.ln(), dir);
        (m.a, m.b, m.d)
    }

    /// Matrix exponential of a symmetric matrix `(a, b, d)`; the result
    /// is SPD.
    pub fn exp_sym(a: f64, b: f64, d: f64) -> Self {
        let m = Metric2 { a, b, d };
        let (l1, l2, dir) = m.eigen();
        Metric2::from_eigen(l1.exp(), l2.exp(), dir)
    }

    /// The edge length the metric demands along its most restrictive
    /// eigendirection: `1/sqrt(λ_max)`. This is the conservative scalar
    /// `h` an isotropic refiner should consume.
    pub fn h_min_dir(&self) -> f64 {
        let (l1, _, _) = self.eigen();
        1.0 / l1.sqrt()
    }

    /// `true` when the tensor is finite, symmetric by construction, and
    /// positive-definite (`a > 0`, `det > 0`).
    pub fn is_spd(&self) -> bool {
        self.a.is_finite()
            && self.b.is_finite()
            && self.d.is_finite()
            && self.a > 0.0
            && self.a * self.d - self.b * self.b > 0.0
    }

    /// Log-Euclidean weighted mean: `exp(Σ wᵢ log(Mᵢ) / Σ wᵢ)`. Weights
    /// must be non-negative with a positive sum. SPD in, SPD out.
    #[cfg(test)]
    fn interpolate_log(items: &[(f64, Metric2)]) -> Metric2 {
        blend_logs(items.iter().map(|&(w, m)| (w, m.log())))
    }
}

/// `exp(Σ wᵢ Lᵢ / Σ wᵢ)` over weighted log tensors `(wᵢ, Lᵢ)`,
/// accumulated in item order: the one definition of the log-Euclidean
/// blend's arithmetic.
fn blend_logs(items: impl IntoIterator<Item = (f64, (f64, f64, f64))>) -> Metric2 {
    let mut wsum = 0.0;
    let (mut a, mut b, mut d) = (0.0, 0.0, 0.0);
    for (w, (la, lb, ld)) in items {
        debug_assert!(w >= 0.0);
        a += w * la;
        b += w * lb;
        d += w * ld;
        wsum += w;
    }
    assert!(wsum > 0.0, "a metric blend needs a positive weight sum");
    Metric2::exp_sym(a / wsum, b / wsum, d / wsum)
}

/// Header of the canonical [`MetricField`] encoding (versioned so a
/// future layout change cannot collide with old digests).
pub const METRIC_FIELD_MAGIC: &[u8] = b"ADM-METRIC-v1\n";

/// A discrete per-vertex metric field with deterministic log-Euclidean
/// interpolation between sample points.
///
/// A query blends the `k` nearest samples of its *region* (ties broken
/// by vertex index) with inverse-distance-squared weights in log space.
/// The region is a square of cells of a uniform grid over the sample
/// bounding box, fixed by the grid's per-cell counts alone; a 2-d tree
/// over the samples finds the `k` inside it. A query landing exactly on
/// a sample returns that sample's tensor bit-for-bit, so the field
/// interpolates its data.
pub struct MetricField {
    pts: Vec<Point2>,
    metrics: Vec<Metric2>,
    /// `Metric2::log` of every sample: the blend's operands.
    logs: Vec<(f64, f64, f64)>,
    bbox: Aabb,
    nx: u32,
    ny: u32,
    /// Prefix sums of the per-cell sample counts, row-major: cells
    /// `c0..c1` of one row hold `cell_start[c1] - cell_start[c0]`.
    cell_start: Vec<u32>,
    /// The 2-d tree; node 0 is the root.
    tree: Vec<KdNode>,
    /// The samples in tree order: every node owns one contiguous run.
    slots: Vec<Slot>,
    /// Squared snap tolerance: queries within this distance² of a
    /// sample return the sample exactly.
    snap_sq: f64,
}

/// Number of nearest samples blended per query.
const KNN: usize = 6;

/// A tree node with more samples than this is split.
const LEAF: usize = 8;

/// One sample as the tree stores it.
#[derive(Clone, Copy)]
struct Slot {
    p: Point2,
    /// Its grid cell, from [`grid_cell`].
    cell: [i32; 2],
    index: u32,
}

/// A node of the 2-d tree: the bounding box and the cell range of the
/// samples in `slots[start..end]`.
#[derive(Clone, Copy)]
struct KdNode {
    bbox: Aabb,
    cell_lo: [i32; 2],
    cell_hi: [i32; 2],
    start: u32,
    end: u32,
    /// The first child; the second is `kids + 1`. 0 marks a leaf.
    kids: u32,
}

impl KdNode {
    fn spanning(run: &[Slot], start: usize) -> Self {
        let mut node = KdNode {
            bbox: Aabb::empty(),
            cell_lo: [i32::MAX; 2],
            cell_hi: [i32::MIN; 2],
            start: start as u32,
            end: (start + run.len()) as u32,
            kids: 0,
        };
        for s in run {
            node.bbox.expand(s.p);
            for a in 0..2 {
                node.cell_lo[a] = node.cell_lo[a].min(s.cell[a]);
                node.cell_hi[a] = node.cell_hi[a].max(s.cell[a]);
            }
        }
        node
    }

    /// A lower bound on `p.distance_sq(s.p)` for every sample `s` of the
    /// node. Rounding is monotone, so the bound's own rounding keeps it
    /// below each sample's rounded distance². A NaN coordinate gives 0.
    fn gap_sq(&self, p: Point2) -> f64 {
        let gap = |v: f64, lo: f64, hi: f64| {
            if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            }
        };
        let dx = gap(p.x, self.bbox.min.x, self.bbox.max.x);
        let dy = gap(p.y, self.bbox.min.y, self.bbox.max.y);
        dx * dx + dy * dy
    }
}

/// Splits `run` (the slots of node `at`, starting at slot `start`) at
/// the median of its box's wider extent, recursively, until every leaf
/// holds at most [`LEAF`] samples. The two children of a node are
/// adjacent in `tree`.
fn build_tree(tree: &mut Vec<KdNode>, run: &mut [Slot], start: usize, at: usize) {
    let node = KdNode::spanning(run, start);
    tree[at] = node;
    if run.len() <= LEAF {
        return;
    }
    let wide_x = node.bbox.width() >= node.bbox.height();
    let coord = |s: &Slot| if wide_x { s.p.x } else { s.p.y };
    let mid = run.len() / 2;
    run.select_nth_unstable_by(mid, |s, t| {
        coord(s).total_cmp(&coord(t)).then(s.index.cmp(&t.index))
    });
    let kids = tree.len();
    tree.extend([node; 2]);
    tree[at].kids = kids as u32;
    let (lo, hi) = run.split_at_mut(mid);
    build_tree(tree, lo, start, kids);
    build_tree(tree, hi, start + mid, kids + 1);
}

/// The grid cell of `p`: a uniform `nx × ny` grid over `bbox`, clamped
/// so that points outside the box land in a border cell.
fn grid_cell(bbox: &Aabb, nx: u32, ny: u32, p: Point2) -> [i32; 2] {
    let w = (bbox.max.x - bbox.min.x).max(f64::MIN_POSITIVE);
    let h = (bbox.max.y - bbox.min.y).max(f64::MIN_POSITIVE);
    let cx = (((p.x - bbox.min.x) / w) * nx as f64) as i64;
    let cy = (((p.y - bbox.min.y) / h) * ny as f64) as i64;
    [
        cx.clamp(0, nx as i64 - 1) as i32,
        cy.clamp(0, ny as i64 - 1) as i32,
    ]
}

/// The `k` smallest `(d², index)` keys offered so far, ascending under
/// the strict total order `d².total_cmp(..).then(index)`. Which keys it
/// ends with does not depend on the order they are offered in.
struct Nearest {
    best: [(f64, u32); KNN],
    kept: usize,
    k: usize,
}

impl Nearest {
    fn new(k: usize) -> Self {
        Nearest {
            best: [(f64::INFINITY, u32::MAX); KNN],
            kept: 0,
            k,
        }
    }

    fn offer(&mut self, key: (f64, u32)) {
        let less = |a: (f64, u32), b: (f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt();
        let k = self.k;
        let mut j = if self.kept < k {
            self.kept += 1;
            self.kept - 1
        } else if less(key, self.best[k - 1]) {
            k - 1
        } else {
            return;
        };
        while j > 0 && less(key, self.best[j - 1]) {
            self.best[j] = self.best[j - 1];
            j -= 1;
        }
        self.best[j] = key;
    }

    /// The d² a node's samples must be able to reach to matter: the
    /// `k`-th key's, or +inf while fewer than `k` are kept. A sample at
    /// exactly this d² can still enter on a smaller index.
    fn reach(&self) -> f64 {
        if self.kept < self.k {
            f64::INFINITY
        } else {
            self.best[self.k - 1].0
        }
    }

    fn keys(&self) -> &[(f64, u32)] {
        &self.best[..self.kept]
    }
}

/// The cells within Chebyshev distance `r` of a query's cell.
struct Square {
    lo: [i32; 2],
    hi: [i32; 2],
}

impl Square {
    fn holds(&self, cell: [i32; 2]) -> bool {
        (0..2).all(|a| self.lo[a] <= cell[a] && cell[a] <= self.hi[a])
    }

    fn meets(&self, node: &KdNode) -> bool {
        (0..2).all(|a| self.lo[a] <= node.cell_hi[a] && node.cell_lo[a] <= self.hi[a])
    }
}

impl MetricField {
    /// Builds a field from parallel sample/tensor arrays. Every tensor
    /// must be SPD and every point finite; at least one sample is
    /// required (a sizing query must always have an answer).
    pub fn new(pts: Vec<Point2>, metrics: Vec<Metric2>) -> Self {
        assert_eq!(pts.len(), metrics.len(), "points/metrics length mismatch");
        assert!(!pts.is_empty(), "a metric field needs at least one sample");
        for (i, (p, m)) in pts.iter().zip(&metrics).enumerate() {
            assert!(p.is_finite(), "non-finite sample point {i}");
            assert!(m.is_spd(), "non-SPD metric at sample {i}: {m:?}");
        }
        let mut bbox = Aabb::empty();
        for &p in &pts {
            bbox.expand(p);
        }
        let n = pts.len();
        let side = ((n as f64 / 4.0).sqrt().ceil() as u32).clamp(1, 256);
        let (nx, ny) = (side, side);
        let mut slots: Vec<Slot> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| Slot {
                p,
                cell: grid_cell(&bbox, nx, ny, p),
                index: i as u32,
            })
            .collect();
        let ncells = (nx * ny) as usize;
        let mut counts = vec![0u32; ncells + 1];
        for s in &slots {
            counts[s.cell[1] as usize * nx as usize + s.cell[0] as usize + 1] += 1;
        }
        for c in 1..=ncells {
            counts[c] += counts[c - 1];
        }
        let mut tree = vec![KdNode::spanning(&[], 0)];
        build_tree(&mut tree, &mut slots, 0, 0);
        debug_assert!(tree.iter().all(|node| {
            let run = &slots[node.start as usize..node.end as usize];
            run.iter().all(|s| {
                node.bbox.contains(s.p)
                    && (0..2).all(|a| node.cell_lo[a] <= s.cell[a] && s.cell[a] <= node.cell_hi[a])
            })
        }));
        let diag = bbox.min.distance(bbox.max).max(f64::MIN_POSITIVE);
        MetricField {
            logs: metrics.iter().map(Metric2::log).collect(),
            pts,
            metrics,
            bbox,
            nx,
            ny,
            cell_start: counts,
            tree,
            slots,
            snap_sq: (1e-12 * diag) * (1e-12 * diag),
        }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// `true` when the field has no samples (never, by construction —
    /// kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// The sample points.
    pub fn points(&self) -> &[Point2] {
        &self.pts
    }

    /// The sample tensors (parallel to [`Self::points`]).
    pub fn metrics(&self) -> &[Metric2] {
        &self.metrics
    }

    fn cell_coords(&self, p: Point2) -> [i32; 2] {
        grid_cell(&self.bbox, self.nx, self.ny, p)
    }

    /// The region of a query in cell `c`: every cell within Chebyshev
    /// distance `R + 1` of `c`, where `R` is the first ring around `c`
    /// at which the cumulative sample count reaches `k` (a nearer sample
    /// can sit one ring beyond the ring that first satisfied the count).
    /// It reads only the per-cell counts. The square clipped to the grid
    /// is rows of contiguous cells, so each ring's total is a sum of row
    /// differences of `cell_start`.
    fn region(&self, [cx, cy]: [i32; 2], k: usize) -> Square {
        let (nx, ny) = (self.nx as i32, self.ny as i32);
        let within = |r: i32| {
            let (x0, x1) = ((cx - r).max(0), (cx + r).min(nx - 1));
            ((cy - r).max(0)..=(cy + r).min(ny - 1))
                .map(|y| {
                    let row = (y * nx) as usize;
                    (self.cell_start[row + x1 as usize + 1] - self.cell_start[row + x0 as usize])
                        as usize
                })
                .sum::<usize>()
        };
        // Ring max(nx, ny) - 1 covers the grid, which holds n >= k.
        let r = (0..nx.max(ny))
            .find(|&r| within(r) >= k)
            .expect("the grid holds every sample")
            + 1;
        Square {
            lo: [cx - r, cy - r],
            hi: [cx + r, cy + r],
        }
    }

    /// Offers `nearest` every sample of `node`'s subtree whose cell lies
    /// in `region`, skipping subtrees that cannot hold one: the cell
    /// range misses the region, or every sample is strictly farther than
    /// the current `k`-th key. Nearer child first.
    fn search(&self, node: usize, p: Point2, region: &Square, nearest: &mut Nearest) {
        let n = &self.tree[node];
        if n.kids == 0 {
            for s in &self.slots[n.start as usize..n.end as usize] {
                if region.holds(s.cell) {
                    nearest.offer((p.distance_sq(s.p), s.index));
                }
            }
            return;
        }
        let (a, b) = (n.kids as usize, n.kids as usize + 1);
        let (ga, gb) = (self.tree[a].gap_sq(p), self.tree[b].gap_sq(p));
        let order = if gb < ga {
            [(b, gb), (a, ga)]
        } else {
            [(a, ga), (b, gb)]
        };
        for (child, gap) in order {
            // Strictly farther only: a sample at the k-th key's d² still
            // enters on a smaller index, and a NaN bound never prunes.
            let farther = gap.partial_cmp(&nearest.reach()) == Some(Ordering::Greater);
            if region.meets(&self.tree[child]) && !farther {
                self.search(child, p, region, nearest);
            }
        }
    }

    /// The `k = min(6, n)` smallest `(d², index)` keys among the samples
    /// of `p`'s region, ascending.
    fn nearest(&self, p: Point2) -> Nearest {
        let k = KNN.min(self.pts.len());
        let region = self.region(self.cell_coords(p), k);
        let mut nearest = Nearest::new(k);
        self.search(0, p, &region, &mut nearest);
        nearest
    }

    /// Interpolated tensor at `p`: log-Euclidean inverse-distance blend
    /// of the `KNN` (6) nearest samples of `p`'s region. Deterministic —
    /// ties break on the sample index, and the kept keys are the `k`
    /// smallest of the region under that strict total order, whatever
    /// order the tree visits them in. Allocation-free.
    pub fn metric_at(&self, p: Point2) -> Metric2 {
        let nearest = self.nearest(p);
        let keys = nearest.keys();
        let (d0, first) = keys[0];
        if d0 <= self.snap_sq {
            return self.metrics[first as usize];
        }
        blend_logs(
            keys.iter()
                .map(|&(d2, i)| (1.0 / d2, self.logs[i as usize])),
        )
    }

    /// Scalar sizing view: the conservative edge length
    /// `1/sqrt(λ_max)` of the interpolated tensor at `p`.
    pub fn h_at(&self, p: Point2) -> f64 {
        self.metric_at(p).h_min_dir()
    }

    /// Canonical, platform-independent byte encoding: magic header,
    /// little-endian sample count, then per sample the canonicalized
    /// IEEE bits of `x, y, a, b, d` (-0.0 → +0.0). Two fields with the
    /// same samples encode identically; hashing these bytes gives a
    /// content address for the adaptation cycle that produced the field.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(METRIC_FIELD_MAGIC.len() + 8 + 40 * self.pts.len());
        out.extend_from_slice(METRIC_FIELD_MAGIC);
        out.extend_from_slice(&(self.pts.len() as u64).to_le_bytes());
        for (p, m) in self.pts.iter().zip(&self.metrics) {
            for v in [p.x, p.y, m.a, m.b, m.d] {
                out.extend_from_slice(&canonical_f64(v).to_bits().to_le_bytes());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn isotropic_roundtrip() {
        let m = Metric2::isotropic(0.25);
        assert!(m.is_spd());
        assert!((m.h_min_dir() - 0.25).abs() < 1e-14);
        assert!((1.0 / m.eigen().1.sqrt() - 0.25).abs() < 1e-14);
        let (l1, l2, _) = m.eigen();
        assert!((l1 - 16.0).abs() < 1e-12);
        assert!((l2 - 16.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_reconstructs_anisotropic_tensor() {
        // Eigenvalues 100 and 4, eigenvector at 30 degrees.
        let (c, s) = (30f64.to_radians().cos(), 30f64.to_radians().sin());
        let m = Metric2::from_eigen(100.0, 4.0, (c, s));
        let (l1, l2, (ec, es)) = m.eigen();
        assert!((l1 - 100.0).abs() < 1e-10);
        assert!((l2 - 4.0).abs() < 1e-10);
        // Eigenvector defined up to sign.
        let dot = (ec * c + es * s).abs();
        assert!((dot - 1.0).abs() < 1e-12, "eigvec off: {ec} {es}");
        assert!((m.h_min_dir() - 0.1).abs() < 1e-12);
        assert!((1.0 / m.eigen().1.sqrt() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_hessian_clamps_to_window() {
        // Indefinite Hessian with a huge and a tiny eigenvalue.
        let m = Metric2::from_hessian(1e9, 0.0, -1e-9, 1.0, 0.01, 10.0);
        assert!(m.is_spd());
        let (l1, l2, _) = m.eigen();
        assert!((l1 - 1.0 / (0.01 * 0.01)).abs() < 1e-6);
        assert!((l2 - 1.0 / (10.0 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn log_exp_roundtrip() {
        let m = Metric2::from_eigen(50.0, 2.0, (0.6, 0.8));
        let (a, b, d) = m.log();
        let back = Metric2::exp_sym(a, b, d);
        assert!((back.a - m.a).abs() < 1e-9 * m.a.abs());
        assert!((back.b - m.b).abs() < 1e-9 * m.a.abs());
        assert!((back.d - m.d).abs() < 1e-9 * m.a.abs());
    }

    #[test]
    fn interpolation_of_equal_tensors_is_identity() {
        let m = Metric2::from_eigen(9.0, 1.0, (1.0, 0.0));
        let out = Metric2::interpolate_log(&[(0.3, m), (0.7, m)]);
        assert!((out.a - m.a).abs() < 1e-12);
        assert!((out.b - m.b).abs() < 1e-12);
        assert!((out.d - m.d).abs() < 1e-12);
    }

    #[test]
    fn interpolation_stays_spd_between_extremes() {
        let m1 = Metric2::isotropic(1e-3);
        let m2 = Metric2::from_eigen(1.0, 1e-4, (0.0, 1.0));
        for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let out = Metric2::interpolate_log(&[(1.0 - t, m1), (t, m2)]);
            assert!(out.is_spd(), "not SPD at t={t}: {out:?}");
        }
    }

    #[test]
    fn field_returns_samples_exactly() {
        let pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0), p(1.0, 1.0)];
        let ms = vec![
            Metric2::isotropic(0.1),
            Metric2::isotropic(0.2),
            Metric2::isotropic(0.4),
            Metric2::from_eigen(25.0, 4.0, (0.8, 0.6)),
        ];
        let f = MetricField::new(pts.clone(), ms.clone());
        for (q, m) in pts.iter().zip(&ms) {
            let got = f.metric_at(*q);
            assert_eq!(got.a.to_bits(), m.a.to_bits());
            assert_eq!(got.b.to_bits(), m.b.to_bits());
            assert_eq!(got.d.to_bits(), m.d.to_bits());
        }
    }

    #[test]
    fn field_interpolates_between_samples() {
        let f = MetricField::new(
            vec![p(0.0, 0.0), p(1.0, 0.0)],
            vec![Metric2::isotropic(0.1), Metric2::isotropic(0.4)],
        );
        let h = f.h_at(p(0.5, 0.0));
        // Log-Euclidean IDW with equal weights: geometric mean of h.
        assert!(h > 0.1 && h < 0.4, "h = {h}");
        assert!((h - 0.2).abs() < 0.05, "h = {h}");
        // Far outside the hull the blend stays within the sample range.
        let far = f.h_at(p(100.0, 0.0));
        assert!((0.1 - 1e-12..=0.4 + 1e-12).contains(&far), "far = {far}");
    }

    #[test]
    fn field_queries_are_deterministic() {
        let n = 200;
        let pts: Vec<Point2> = (0..n)
            .map(|i| {
                let x = (i as f64 * 0.61803398875).fract();
                let y = (i as f64 * 0.38196601125).fract();
                p(x * 4.0, y * 3.0)
            })
            .collect();
        let ms: Vec<Metric2> = (0..n)
            .map(|i| Metric2::isotropic(0.05 + 0.001 * (i % 17) as f64))
            .collect();
        let f1 = MetricField::new(pts.clone(), ms.clone());
        let f2 = MetricField::new(pts, ms);
        for i in 0..50 {
            let q = p(0.13 * i as f64 - 1.0, 0.07 * i as f64 - 0.5);
            let (m1, m2) = (f1.metric_at(q), f2.metric_at(q));
            assert_eq!(m1.a.to_bits(), m2.a.to_bits());
            assert_eq!(m1.b.to_bits(), m2.b.to_bits());
            assert_eq!(m1.d.to_bits(), m2.d.to_bits());
        }
    }

    /// `metric_at`'s bit-equality oracle, the ring-walk query. It
    /// buckets the samples by `cell_coords` on its own, gathers every
    /// sample of Chebyshev rings of cells around the query's cell into a
    /// `Vec` until the count reaches `k`, then one ring more, sorts by
    /// `(d², index)` and keeps `k`.
    struct RingWalk<'a> {
        f: &'a MetricField,
        cell_start: Vec<u32>,
        cell_items: Vec<u32>,
    }

    impl<'a> RingWalk<'a> {
        fn new(f: &'a MetricField) -> Self {
            let cells: Vec<usize> = f
                .pts
                .iter()
                .map(|&q| {
                    let [x, y] = f.cell_coords(q);
                    y as usize * f.nx as usize + x as usize
                })
                .collect();
            let mut cell_start = vec![0u32; (f.nx * f.ny) as usize + 1];
            for &c in &cells {
                cell_start[c + 1] += 1;
            }
            for c in 1..cell_start.len() {
                cell_start[c] += cell_start[c - 1];
            }
            let mut cursor = cell_start.clone();
            let mut cell_items = vec![0u32; cells.len()];
            for (i, &c) in cells.iter().enumerate() {
                cell_items[cursor[c] as usize] = i as u32;
                cursor[c] += 1;
            }
            RingWalk {
                f,
                cell_start,
                cell_items,
            }
        }

        fn candidates(&self, p: Point2, k: usize) -> Vec<u32> {
            let f = self.f;
            let [cx, cy] = f.cell_coords(p).map(i64::from);
            let rmax = f.nx.max(f.ny) as i64;
            let mut out: Vec<u32> = Vec::with_capacity(k * 2);
            let push_cell = |out: &mut Vec<u32>, x: i64, y: i64| {
                if x < 0 || y < 0 || x >= f.nx as i64 || y >= f.ny as i64 {
                    return;
                }
                let c = (y * f.nx as i64 + x) as usize;
                let (s, e) = (self.cell_start[c] as usize, self.cell_start[c + 1] as usize);
                out.extend_from_slice(&self.cell_items[s..e]);
            };
            let mut satisfied_at: Option<i64> = None;
            for r in 0..=rmax {
                if r == 0 {
                    push_cell(&mut out, cx, cy);
                } else {
                    for x in (cx - r)..=(cx + r) {
                        push_cell(&mut out, x, cy - r);
                        push_cell(&mut out, x, cy + r);
                    }
                    for y in (cy - r + 1)..(cy + r) {
                        push_cell(&mut out, cx - r, y);
                        push_cell(&mut out, cx + r, y);
                    }
                }
                match satisfied_at {
                    Some(r0) if r > r0 => break,
                    None if out.len() >= k => satisfied_at = Some(r),
                    _ => {}
                }
            }
            out
        }

        /// The `k` smallest ring candidates by `(d², index)`, ascending.
        fn sorted(&self, p: Point2) -> Vec<u32> {
            let f = self.f;
            let k = KNN.min(f.len());
            let mut cand = self.candidates(p, k);
            cand.sort_by(|&i, &j| {
                let di = p.distance_sq(f.pts[i as usize]);
                let dj = p.distance_sq(f.pts[j as usize]);
                di.total_cmp(&dj).then(i.cmp(&j))
            });
            cand.truncate(k);
            cand
        }

        fn metric_at_sorted(&self, p: Point2) -> Metric2 {
            let f = self.f;
            let cand = self.sorted(p);
            let nearest = cand[0] as usize;
            if p.distance_sq(f.pts[nearest]) <= f.snap_sq {
                return f.metrics[nearest];
            }
            let items: Vec<(f64, Metric2)> = cand
                .iter()
                .map(|&i| {
                    let d2 = p.distance_sq(f.pts[i as usize]);
                    (1.0 / d2, f.metrics[i as usize])
                })
                .collect();
            Metric2::interpolate_log(&items)
        }
    }

    /// splitmix64 step: a seeded, dependency-free stream of `u64`s.
    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(s: &mut u64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (splitmix(s) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in the square `[lo, hi)²`.
    fn in_square(s: &mut u64, lo: f64, hi: f64) -> Point2 {
        p(uniform(s, lo, hi), uniform(s, lo, hi))
    }

    /// A field over `pts` with seeded anisotropic SPD tensors.
    fn seeded_field(s: &mut u64, pts: &[Point2]) -> MetricField {
        let ms = pts
            .iter()
            .map(|_| {
                let t = uniform(s, 0.0, std::f64::consts::PI);
                let l2 = uniform(s, 0.5, 4.0);
                Metric2::from_eigen(l2 * uniform(s, 1.0, 100.0), l2, (t.cos(), t.sin()))
            })
            .collect();
        MetricField::new(pts.to_vec(), ms)
    }

    /// The tree query keeps the oracle's samples in the oracle's order,
    /// and, for a finite query, blends them to the same bits.
    fn assert_same_bits(o: &RingWalk, q: Point2) {
        let keys = |cand: &[u32]| -> Vec<(u64, u32)> {
            cand.iter()
                .map(|&i| (q.distance_sq(o.f.pts[i as usize]).to_bits(), i))
                .collect()
        };
        let got: Vec<u32> = o.f.nearest(q).keys().iter().map(|&(_, i)| i).collect();
        assert_eq!(keys(&got), keys(&o.sorted(q)), "kept samples at {q:?}");
        if !q.is_finite() {
            // The blend's weights are 0 or NaN: both queries refuse.
            let refuses = |f: &dyn Fn() -> Metric2| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
            };
            assert!(refuses(&|| o.f.metric_at(q)), "metric_at({q:?}) answered");
            assert!(
                refuses(&|| o.metric_at_sorted(q)),
                "oracle at {q:?} answered"
            );
            return;
        }
        let (got, want) = (o.f.metric_at(q), o.metric_at_sorted(q));
        assert_eq!(got.a.to_bits(), want.a.to_bits(), "a at {q:?}");
        assert_eq!(got.b.to_bits(), want.b.to_bits(), "b at {q:?}");
        assert_eq!(got.d.to_bits(), want.d.to_bits(), "d at {q:?}");
    }

    #[test]
    fn tree_matches_ring_walk_on_the_recovered_naca16_field() {
        // The field the adaptation loop's second cycle asks: recovered
        // from the cycle-0 naca16 mesh, queried at every centroid and
        // circumcentre of that mesh (refinement's query points).
        use adm_core::{adapt, AdaptOptions, MeshConfig};
        use adm_solver::{hessian_metric, solve_potential_flow, FlowConditions, MetricParams};
        let mut config = MeshConfig::naca0012(16);
        config.sizing_max_area = 6.0;
        config.bl_subdomains = 4;
        config.inviscid_subdomains = 4;
        config.merge_threads = 0;
        let opts = AdaptOptions {
            cycles: 1,
            ..Default::default()
        };
        let mesh = adapt(&config, &opts).mesh;
        let flow = solve_potential_flow(&mesh, &FlowConditions::default());
        let recovered = hessian_metric(&mesh, &flow.psi, &MetricParams::default());
        let f = MetricField::new(
            recovered.points().iter().map(|q| p(q.x, q.y)).collect(),
            recovered
                .metrics()
                .iter()
                .map(|m| Metric2 {
                    a: m.a,
                    b: m.b,
                    d: m.d,
                })
                .collect(),
        );
        assert!(f.len() > 2_000, "{} samples", f.len());
        let o = RingWalk::new(&f);
        let mut triangles = 0;
        for t in mesh.live_triangles() {
            let [a, b, c] = mesh.tri(t as usize).map(|v| mesh.vertex(v as usize));
            assert_same_bits(&o, p((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0));
            if let Some(cc) = adm_delaunay::quality::circumcenter(a, b, c) {
                assert_same_bits(&o, p(cc.x, cc.y));
            }
            triangles += 1;
        }
        assert!(triangles > 5_000, "{triangles} triangles");
    }

    #[test]
    fn tree_matches_ring_walk_on_a_boundary_layer_field() {
        // Layers grown off the curve y = 0.2 sin(x), x in [0, 8]: first
        // spacing 1e-5, growth 1.25 up to 0.1, a 10^4:1 density contrast
        // between the wall and the outermost layer, plus a sparse far
        // field. The wall layers are far thinner than a cell.
        let mut s = 41;
        let curve = |x: f64| p(x, 0.2 * x.sin());
        let mut pts = Vec::new();
        for i in 0..=200 {
            let x = 8.0 * i as f64 / 200.0;
            let (mut h, mut off) = (1e-5, 0.0);
            while h <= 0.1 {
                let c = curve(x);
                pts.push(p(c.x, c.y + off));
                off += h;
                h *= 1.25;
            }
        }
        let wall = pts.len();
        while pts.len() < wall + 200 {
            pts.push(p(uniform(&mut s, -2.0, 10.0), uniform(&mut s, -3.0, 3.0)));
        }
        let f = seeded_field(&mut s, &pts);
        let o = RingWalk::new(&f);
        for i in 0..4_000 {
            let q = match i % 4 {
                // Inside the layers, where the density contrast is.
                0 | 1 => {
                    let c = curve(uniform(&mut s, 0.0, 8.0));
                    p(c.x, c.y + 10f64.powf(uniform(&mut s, -6.0, -0.5)))
                }
                2 => pts[(splitmix(&mut s) % wall as u64) as usize],
                _ => p(uniform(&mut s, -3.0, 11.0), uniform(&mut s, -4.0, 4.0)),
            };
            assert_same_bits(&o, q);
        }
    }

    #[test]
    fn tree_matches_ring_walk_on_a_clustered_field() {
        // 95% of the samples in a box 1/50 of the bbox on a side: the
        // recovered-metric shape, where a few cells hold most samples.
        // The box straddles the grid lines at 0.5, so a query's own cell
        // can hold its k candidates while nearer ones sit one ring out.
        let mut s = 25;
        let (n, lo, hi) = (1_000, 0.49, 0.51);
        let mut pts = vec![p(0.0, 0.0), p(1.0, 1.0)];
        while pts.len() < n * 5 / 100 {
            pts.push(in_square(&mut s, 0.0, 1.0));
        }
        while pts.len() < n {
            pts.push(in_square(&mut s, lo, hi));
        }
        let f = seeded_field(&mut s, &pts);
        let o = RingWalk::new(&f);
        for i in 0..10_000 {
            let q = if i % 2 == 0 {
                in_square(&mut s, lo, hi)
            } else {
                in_square(&mut s, -0.5, 1.5)
            };
            assert_same_bits(&o, q);
        }
    }

    #[test]
    fn tree_matches_ring_walk_on_cell_boundaries() {
        // A 16 x 16 grid of unit cells over [0, 16]²: samples on the
        // grid lines and at their corners, and samples a rounding step
        // to either side of a line, queried on the lines too.
        let mut s = 5;
        let mut pts = vec![p(0.0, 0.0), p(16.0, 16.0)];
        for k in 0..1_000 {
            let (i, j) = ((k * 7 % 17) as f64, (k * 11 % 17) as f64);
            let eps = [0.0, 1e-15, -1e-15][k % 3];
            pts.push(match k % 4 {
                0 => p(i, j),
                1 => p(i + eps, uniform(&mut s, 0.0, 16.0)),
                2 => p(uniform(&mut s, 0.0, 16.0), j + eps),
                _ => p(i + 0.1 * (k % 10) as f64, j - eps),
            });
        }
        let f = seeded_field(&mut s, &pts);
        assert_eq!((f.nx, f.ny), (16, 16));
        let o = RingWalk::new(&f);
        for k in 0..3_000 {
            let (i, j) = ((k % 17) as f64, (k / 17 % 17) as f64);
            let q = match k % 3 {
                0 => p(i, j),
                1 => p(i, uniform(&mut s, 0.0, 16.0)),
                _ => p(i + 0.5, j + 0.5),
            };
            assert_same_bits(&o, q);
        }
        for &q in &pts {
            assert_same_bits(&o, q);
        }
    }

    #[test]
    fn equal_distances_across_a_tree_split_go_to_the_smaller_index() {
        // Eight samples on each side of the split x = 0, one position
        // per side, so the query at the origin ties all 16 at d² = 1 and
        // each child's box bound equals the k-th key once the nearer
        // child is done. Whichever side holds the smallest indices, the
        // other child must still be searched.
        for left_first in [true, false] {
            let pts: Vec<Point2> = (0..16)
                .map(|i| {
                    let left = (i % 2 == 0) == left_first;
                    p(if left { -1.0 } else { 1.0 }, 0.0)
                })
                .collect();
            let mut s = 3;
            let f = seeded_field(&mut s, &pts);
            assert!(f.tree.len() > 1, "the tree never split");
            let o = RingWalk::new(&f);
            for q in [
                p(0.0, 0.0),
                p(0.0, 1.0),
                p(0.0, -2.5),
                p(-1.0, 0.0),
                p(1.0, 0.0),
            ] {
                assert_same_bits(&o, q);
            }
        }
        // The same in 2-d: four mirrored copies of a random cloud, so
        // that every query on an axis ties samples across a split.
        let mut s = 19;
        let mut pts = Vec::new();
        for _ in 0..100 {
            let q = in_square(&mut s, 0.0, 1.0);
            pts.extend([p(q.x, q.y), p(-q.x, q.y), p(q.x, -q.y), p(-q.x, -q.y)]);
        }
        let f = seeded_field(&mut s, &pts);
        let o = RingWalk::new(&f);
        for i in 0..2_000 {
            let t = uniform(&mut s, -1.2, 1.2);
            let q = [p(0.0, t), p(t, 0.0), p(0.0, 0.0)][i % 3];
            assert_same_bits(&o, q);
        }
    }

    #[test]
    fn tree_matches_ring_walk_on_samples_duplicates_and_tiny_fields() {
        let mut s = 7;
        // Exact-sample queries take the snap path.
        let pts: Vec<Point2> = (0..300).map(|_| in_square(&mut s, -2.0, 3.0)).collect();
        let f = seeded_field(&mut s, &pts);
        let o = RingWalk::new(&f);
        for &q in &pts {
            assert_same_bits(&o, q);
        }
        // Duplicate sample points: equal distances, the index decides.
        let dup: Vec<Point2> = (0..120)
            .map(|k| p((k / 3 % 5) as f64, (k / 15 % 3) as f64))
            .collect();
        let f = seeded_field(&mut s, &dup);
        let o = RingWalk::new(&f);
        for i in 0..500 {
            let q = if i % 3 == 0 {
                p((i % 5) as f64 + 0.5, (i % 3) as f64)
            } else {
                in_square(&mut s, -1.0, 6.0)
            };
            assert_same_bits(&o, q);
        }
        // Fewer samples than KNN, exactly KNN, and one more.
        for n in 1..=KNN + 1 {
            let pts: Vec<Point2> = (0..n).map(|_| in_square(&mut s, 0.0, 1.0)).collect();
            let f = seeded_field(&mut s, &pts);
            let o = RingWalk::new(&f);
            for &q in &pts {
                assert_same_bits(&o, q);
            }
            for _ in 0..200 {
                assert_same_bits(&o, in_square(&mut s, -1.0, 2.0));
            }
        }
    }

    #[test]
    fn tree_matches_ring_walk_on_degenerate_boxes_and_far_queries() {
        let mut s = 11;
        // Zero-width bbox (every sample on the line x = 1), then a
        // zero-area one (every sample at one point).
        let line: Vec<Point2> = (0..200).map(|k| p(1.0, 0.025 * k as f64)).collect();
        for pts in [line, vec![p(2.0, -3.0); 20]] {
            let f = seeded_field(&mut s, &pts);
            let o = RingWalk::new(&f);
            for &q in &pts {
                assert_same_bits(&o, q);
            }
            for _ in 0..500 {
                assert_same_bits(&o, in_square(&mut s, -4.0, 9.0));
            }
        }
        // Queries far outside the bbox clamp to a border cell.
        let pts: Vec<Point2> = (0..500).map(|_| in_square(&mut s, 0.0, 1.0)).collect();
        let f = seeded_field(&mut s, &pts);
        let o = RingWalk::new(&f);
        for _ in 0..500 {
            let r = 10f64.powf(uniform(&mut s, 1.0, 12.0));
            let t = uniform(&mut s, 0.0, std::f64::consts::TAU);
            assert_same_bits(&o, p(r * t.cos(), r * t.sin()));
        }
        // Non-finite queries keep the same samples, and neither query
        // blends them.
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for q in [
            p(nan, 0.5),
            p(0.5, nan),
            p(nan, nan),
            p(inf, 0.5),
            p(-inf, inf),
            p(0.5, -inf),
        ] {
            assert_same_bits(&o, q);
        }
    }

    #[test]
    fn canonical_bytes_normalize_negative_zero() {
        let f1 = MetricField::new(vec![p(0.0, 0.0)], vec![Metric2::isotropic(1.0)]);
        let f2 = MetricField::new(vec![p(-0.0, 0.0)], vec![Metric2::isotropic(1.0)]);
        assert_eq!(f1.canonical_bytes(), f2.canonical_bytes());
        assert!(f1.canonical_bytes().starts_with(METRIC_FIELD_MAGIC));
        // Different data, different bytes.
        let f3 = MetricField::new(vec![p(0.0, 0.0)], vec![Metric2::isotropic(2.0)]);
        assert_ne!(f1.canonical_bytes(), f3.canonical_bytes());
    }
}
