//! Zienkiewicz–Zhu recovery and Hessian-based metric construction.
//!
//! The feedback half of the adaptation loop: from a P1 solution (e.g.
//! the stream function of [`crate::solve_potential_flow`]) recover a
//! smoothed per-vertex gradient, apply the recovery twice for a
//! per-vertex Hessian, and turn the clamped absolute Hessian into the
//! anisotropic [`MetricField`] the next meshing cycle consumes as its
//! sizing. The recovered-minus-raw gradient gap is also the classic ZZ
//! a-posteriori error indicator ([`zz_error`]), whose equidistribution
//! across elements is the loop's convergence signal.
//!
//! Every routine iterates live triangles and vertices in index order and
//! accumulates per-vertex sums in one fixed pass, so the outputs are
//! bitwise deterministic for a given mesh — a requirement, since the
//! metric digests feed the pipeline's serial-vs-parallel oracle.

use adm_delaunay::mesh::Mesh;
use adm_geom::metric::{Metric2, MetricField};
use adm_geom::point::Vec2;

/// P1 gradient and area of one live triangle; `None` for degenerate
/// (zero or negative doubled area) triangles.
fn tri_gradient(mesh: &Mesh, u: &[f64], t: u32) -> Option<(f64, Vec2)> {
    let tri = mesh.tri(t as usize);
    let (a, b, c) = (
        mesh.vertex(tri[0] as usize),
        mesh.vertex(tri[1] as usize),
        mesh.vertex(tri[2] as usize),
    );
    let area2 = (b - a).cross(c - a);
    if area2 <= 0.0 {
        return None;
    }
    let (fa, fb, fc) = (u[tri[0] as usize], u[tri[1] as usize], u[tri[2] as usize]);
    let g = Vec2::new(
        (fa * (b.y - c.y) + fb * (c.y - a.y) + fc * (a.y - b.y)) / area2,
        (fa * (c.x - b.x) + fb * (a.x - c.x) + fc * (b.x - a.x)) / area2,
    );
    Some((0.5 * area2, g))
}

/// ZZ gradient recovery: per-vertex area-weighted average of the P1
/// gradients of the incident live triangles. Vertices touching no live
/// triangle recover the zero vector.
pub fn recover_gradient(mesh: &Mesh, u: &[f64]) -> Vec<Vec2> {
    let nv = mesh.num_vertices();
    assert_eq!(u.len(), nv, "field length must match vertex count");
    let mut acc = vec![Vec2::ZERO; nv];
    let mut w = vec![0.0f64; nv];
    for t in mesh.live_triangles() {
        let Some((area, g)) = tri_gradient(mesh, u, t) else {
            continue;
        };
        for &v in &mesh.tri(t as usize) {
            acc[v as usize] += g * area;
            w[v as usize] += area;
        }
    }
    for (a, &wi) in acc.iter_mut().zip(&w) {
        if wi > 0.0 {
            *a = *a * (1.0 / wi);
        }
    }
    acc
}

/// Recovered per-vertex Hessian `(h_xx, h_xy, h_yy)`: gradient recovery
/// applied to each component of the recovered gradient, off-diagonal
/// symmetrized. Second-order recovery on patches, first-order near
/// boundaries — exactly what a metric needs (magnitudes, not digits).
pub fn recover_hessian(mesh: &Mesh, u: &[f64]) -> Vec<[f64; 3]> {
    let g = recover_gradient(mesh, u);
    let gx: Vec<f64> = g.iter().map(|v| v.x).collect();
    let gy: Vec<f64> = g.iter().map(|v| v.y).collect();
    let hx = recover_gradient(mesh, &gx);
    let hy = recover_gradient(mesh, &gy);
    hx.iter()
        .zip(&hy)
        .map(|(rx, ry)| [rx.x, 0.5 * (rx.y + ry.x), ry.y])
        .collect()
}

/// The ZZ a-posteriori error estimate of one solve.
pub struct ErrorEstimate {
    /// `(triangle, eta_T)` for every live triangle, in id order.
    pub per_triangle: Vec<(u32, f64)>,
    /// Global estimate `sqrt(sum eta_T^2)`.
    pub total: f64,
    /// Mean element indicator.
    pub mean: f64,
    /// Largest element indicator.
    pub max: f64,
    /// Number of vertices referenced by live triangles (the solve's
    /// degree-of-freedom count before boundary elimination).
    pub dofs: usize,
}

impl ErrorEstimate {
    /// Equidistribution ratio `max / mean` (1.0 = perfectly
    /// equidistributed error; the adaptation loop drives this down).
    pub fn equidistribution(&self) -> f64 {
        if self.mean > 0.0 {
            self.max / self.mean
        } else {
            1.0
        }
    }

    /// Error per degree of freedom invested, the figure of merit of the
    /// Figure-16-style comparison: `total * sqrt(dofs)` is constant for
    /// an optimally graded mesh family (P1, energy norm, 2-D), so lower
    /// is strictly better mesh economy.
    pub fn error_per_dof(&self) -> f64 {
        self.total * (self.dofs as f64).sqrt()
    }
}

/// Zienkiewicz–Zhu error indicator: per element,
/// `eta_T^2 = area_T * |G*(T) - grad u_h|_T|^2` with `G*(T)` the mean of
/// the three recovered vertex gradients.
pub fn zz_error(mesh: &Mesh, u: &[f64]) -> ErrorEstimate {
    let g = recover_gradient(mesh, u);
    let mut per_triangle = Vec::new();
    let mut sum_sq = 0.0;
    let mut max = 0.0f64;
    let mut used = vec![false; mesh.num_vertices()];
    for t in mesh.live_triangles() {
        let Some((area, grad)) = tri_gradient(mesh, u, t) else {
            continue;
        };
        let tri = mesh.tri(t as usize);
        let mut star = Vec2::ZERO;
        for &v in &tri {
            star += g[v as usize];
            used[v as usize] = true;
        }
        star = star * (1.0 / 3.0);
        let diff = star - grad;
        let eta = (area * diff.norm_sq()).sqrt();
        sum_sq += eta * eta;
        max = max.max(eta);
        per_triangle.push((t, eta));
    }
    let n = per_triangle.len().max(1);
    let total = sum_sq.sqrt();
    let mean = per_triangle.iter().map(|&(_, e)| e).sum::<f64>() / n as f64;
    ErrorEstimate {
        per_triangle,
        total,
        mean,
        max,
        dofs: used.iter().filter(|&&b| b).count(),
    }
}

/// Controls for [`hessian_metric`].
#[derive(Debug, Clone, Copy)]
pub struct MetricParams {
    /// Interpolation-error budget: metric eigenvalues are
    /// `|lambda_H| / eps`. `None` picks the budget that halves the
    /// median per-vertex interpolation error of the current mesh — a
    /// self-scaling choice that roughly doubles resolution where the
    /// solution curves and coarsens where it does not.
    pub eps: Option<f64>,
    /// Smallest edge length the metric may demand.
    pub h_min: f64,
    /// Largest edge length the metric may demand.
    pub h_max: f64,
}

impl Default for MetricParams {
    fn default() -> Self {
        MetricParams {
            eps: None,
            h_min: 1e-6,
            h_max: 1e6,
        }
    }
}

/// Mean incident (live) edge length per vertex; 0.0 for unused vertices.
pub fn local_edge_length(mesh: &Mesh) -> Vec<f64> {
    let nv = mesh.num_vertices();
    let mut sum = vec![0.0f64; nv];
    let mut cnt = vec![0u32; nv];
    for t in mesh.live_triangles() {
        let tri = mesh.tri(t as usize);
        for i in 0..3 {
            let (a, b) = (tri[i], tri[(i + 1) % 3]);
            let d = mesh.vertex(a as usize).distance(mesh.vertex(b as usize));
            sum[a as usize] += d;
            cnt[a as usize] += 1;
            sum[b as usize] += d;
            cnt[b as usize] += 1;
        }
    }
    sum.iter()
        .zip(&cnt)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect()
}

/// The self-scaling interpolation budget: half the median per-vertex
/// interpolation error `lambda_max(|H_v|) * h_v^2` over used vertices.
fn auto_eps_from(mesh: &Mesh, hess: &[[f64; 3]], used: &[bool]) -> f64 {
    let h_local = local_edge_length(mesh);
    let mut errs: Vec<f64> = Vec::new();
    for (v, h) in hess.iter().enumerate() {
        if !used[v] {
            continue;
        }
        let m = Metric2 {
            a: h[0],
            b: h[1],
            d: h[2],
        };
        let (l1, l2, _) = m.eigen();
        let lam = l1.abs().max(l2.abs());
        let e = lam * h_local[v] * h_local[v];
        if e.is_finite() && e > 0.0 {
            errs.push(e);
        }
    }
    if errs.is_empty() {
        return 1.0;
    }
    errs.sort_by(|a, b| a.total_cmp(b));
    0.5 * errs[errs.len() / 2]
}

/// The budget [`hessian_metric`] would pick for `eps: None` on this
/// mesh/solution pair. Exposed so an adaptation loop can resolve the
/// budget **once** (on its first mesh) and hold it fixed: re-picking it
/// per cycle re-halves the median error forever and never converges,
/// while a frozen budget turns the loop into a fixed-point iteration —
/// once the mesh satisfies `|H| h^2 <= eps` everywhere, later cycles
/// reproduce it instead of refining further.
pub fn auto_interpolation_eps(mesh: &Mesh, u: &[f64]) -> f64 {
    let hess = recover_hessian(mesh, u);
    let mut used = vec![false; mesh.num_vertices()];
    for t in mesh.live_triangles() {
        for &v in &mesh.tri(t as usize) {
            used[v as usize] = true;
        }
    }
    let eps = auto_eps_from(mesh, &hess, &used);
    if eps.is_finite() && eps > 0.0 {
        eps
    } else {
        1.0
    }
}

/// Builds the anisotropic metric field from the recovered Hessian of
/// `u`: per used vertex, `M = R diag(clamp(|lambda_i|/eps)) R^T` with
/// eigenvalues clamped into `[1/h_max^2, 1/h_min^2]`. Only vertices
/// referenced by live triangles become samples, so carved or orphaned
/// vertices never pollute the field's nearest-neighbor interpolation.
pub fn hessian_metric(mesh: &Mesh, u: &[f64], params: &MetricParams) -> MetricField {
    let hess = recover_hessian(mesh, u);
    let mut used = vec![false; mesh.num_vertices()];
    for t in mesh.live_triangles() {
        for &v in &mesh.tri(t as usize) {
            used[v as usize] = true;
        }
    }
    let eps = params
        .eps
        .unwrap_or_else(|| auto_eps_from(mesh, &hess, &used));
    let eps = if eps.is_finite() && eps > 0.0 {
        eps
    } else {
        1.0
    };
    let mut pts = Vec::new();
    let mut metrics = Vec::new();
    for (v, h) in hess.iter().enumerate() {
        if !used[v] {
            continue;
        }
        pts.push(mesh.vertex(v));
        metrics.push(Metric2::from_hessian(
            h[0],
            h[1],
            h[2],
            eps,
            params.h_min,
            params.h_max,
        ));
    }
    MetricField::new(pts, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_delaunay::mesh::Mesh;
    use adm_geom::point::Point2;

    /// Structured n x n unit-square grid split into 2n^2 CCW triangles.
    pub(crate) fn grid_mesh(n: usize) -> Mesh {
        let mut pts = Vec::with_capacity((n + 1) * (n + 1));
        for j in 0..=n {
            for i in 0..=n {
                pts.push(Point2::new(i as f64 / n as f64, j as f64 / n as f64));
            }
        }
        let at = |i: usize, j: usize| (j * (n + 1) + i) as u32;
        let mut tris = Vec::with_capacity(2 * n * n);
        for j in 0..n {
            for i in 0..n {
                tris.push([at(i, j), at(i + 1, j), at(i + 1, j + 1)]);
                tris.push([at(i, j), at(i + 1, j + 1), at(i, j + 1)]);
            }
        }
        Mesh::from_triangles(pts, tris)
    }

    fn field(mesh: &Mesh, f: impl Fn(Point2) -> f64) -> Vec<f64> {
        (0..mesh.num_vertices())
            .map(|v| f(mesh.vertex(v)))
            .collect()
    }

    #[test]
    fn linear_field_recovers_exact_gradient() {
        let mesh = grid_mesh(8);
        let u = field(&mesh, |p| 3.0 * p.x - 2.0 * p.y + 1.0);
        let g = recover_gradient(&mesh, &u);
        for (v, gv) in g.iter().enumerate() {
            if mesh.star(v as u32).next().is_none() {
                continue;
            }
            assert!((gv.x - 3.0).abs() < 1e-10, "gx at {v}: {}", gv.x);
            assert!((gv.y + 2.0).abs() < 1e-10, "gy at {v}: {}", gv.y);
        }
        // The ZZ estimate of an exactly-representable field vanishes.
        let est = zz_error(&mesh, &u);
        assert!(est.total < 1e-10, "total {}", est.total);
    }

    #[test]
    fn quadratic_field_recovers_hessian_magnitude() {
        let mesh = grid_mesh(16);
        let u = field(&mesh, |p| p.x * p.x + 0.5 * p.y * p.y);
        let h = recover_hessian(&mesh, &u);
        // Check interior vertices only (boundary patches are one-sided).
        for (v, hv) in h.iter().enumerate() {
            let p = mesh.vertex(v);
            if p.x < 0.2 || p.x > 0.8 || p.y < 0.2 || p.y > 0.8 {
                continue;
            }
            assert!((hv[0] - 2.0).abs() < 0.2, "hxx at {v}: {}", hv[0]);
            assert!(hv[1].abs() < 0.2, "hxy at {v}: {}", hv[1]);
            assert!((hv[2] - 1.0).abs() < 0.2, "hyy at {v}: {}", hv[2]);
        }
    }

    #[test]
    fn zz_error_decreases_under_refinement() {
        let u8_ = |m: &Mesh| field(m, |p| (3.0 * p.x).sin() * (2.0 * p.y).cos());
        let coarse = grid_mesh(8);
        let fine = grid_mesh(16);
        let e_coarse = zz_error(&coarse, &u8_(&coarse));
        let e_fine = zz_error(&fine, &u8_(&fine));
        assert!(
            e_fine.total < e_coarse.total / 1.5,
            "coarse {} fine {}",
            e_coarse.total,
            e_fine.total
        );
        assert!(e_fine.dofs > e_coarse.dofs);
        assert!(e_coarse.equidistribution() >= 1.0);
    }

    #[test]
    fn hessian_metric_is_spd_and_windowed() {
        let mesh = grid_mesh(12);
        let u = field(&mesh, |p| (4.0 * p.x).exp() * (3.0 * p.y).sin());
        let params = MetricParams {
            eps: Some(0.01),
            h_min: 0.02,
            h_max: 2.0,
        };
        let f = hessian_metric(&mesh, &u, &params);
        assert_eq!(f.len(), mesh.num_vertices());
        for m in f.metrics() {
            assert!(m.is_spd());
            let h_lo = m.h_min_dir();
            let h_hi = 1.0 / m.eigen().1.sqrt();
            assert!(h_lo >= params.h_min - 1e-12 && h_hi <= params.h_max + 1e-9);
        }
    }

    #[test]
    fn auto_eps_refines_where_curvature_concentrates() {
        let mesh = grid_mesh(20);
        // Curvature concentrated near x = 0: h demanded there must be
        // smaller than in the flat far half.
        let u = field(&mesh, |p| (-20.0 * p.x).exp());
        let f = hessian_metric(&mesh, &u, &MetricParams::default());
        let h_near = f.h_at(Point2::new(0.05, 0.5));
        let h_far = f.h_at(Point2::new(0.95, 0.5));
        assert!(
            h_near < 0.5 * h_far,
            "near {h_near} not finer than far {h_far}"
        );
    }
}
