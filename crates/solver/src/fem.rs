//! Linear (P1) finite elements on triangle meshes.
//!
//! The reproduction's flow-solver substitute: assembles the Laplace
//! operator (with optional constant convection) on the meshes our
//! generator produces and solves with iterative methods whose iteration
//! counts depend on mesh resolution — the mechanism behind the paper's
//! Figure 16 comparison (anisotropic mesh: fewer elements, faster
//! convergence to the same tolerance).

use crate::sparse::Csr;
use adm_delaunay::mesh::Mesh;
use adm_geom::point::{Point2, Vec2};
use std::collections::HashMap;

/// A Dirichlet boundary condition: fixed value per vertex.
#[derive(Debug, Clone, Default)]
pub struct Dirichlet {
    /// vertex -> prescribed value
    pub values: HashMap<u32, f64>,
}

impl Dirichlet {
    /// Fixes vertex `v` to `value`.
    pub fn fix(&mut self, v: u32, value: f64) {
        self.values.insert(v, value);
    }

    /// `true` when `v` is constrained.
    pub fn is_fixed(&self, v: u32) -> bool {
        self.values.contains_key(&v)
    }
}

/// An assembled reduced linear system `A u = b` over the free vertices.
pub struct FemSystem {
    /// Stiffness matrix over free dofs.
    pub matrix: Csr,
    /// Right-hand side.
    pub rhs: Vec<f64>,
    /// free dof index -> mesh vertex.
    pub free_to_vertex: Vec<u32>,
    /// mesh vertex -> free dof index (or `u32::MAX` when fixed).
    pub vertex_to_free: Vec<u32>,
}

/// Assembles `-div(grad u) + conv . grad u = f` with P1 elements and the
/// given Dirichlet data. `f` is evaluated at vertices (lumped load).
pub fn assemble(mesh: &Mesh, conv: Vec2, f: impl Fn(Point2) -> f64, bc: &Dirichlet) -> FemSystem {
    let nv = mesh.num_vertices();
    let mut vertex_to_free = vec![u32::MAX; nv];
    let mut free_to_vertex = Vec::new();
    // Only vertices used by live triangles become dofs.
    let mut used = vec![false; nv];
    for t in mesh.live_triangles() {
        for &v in &mesh.tri(t as usize) {
            used[v as usize] = true;
        }
    }
    for v in 0..nv as u32 {
        if used[v as usize] && !bc.is_fixed(v) {
            vertex_to_free[v as usize] = free_to_vertex.len() as u32;
            free_to_vertex.push(v);
        }
    }
    let nfree = free_to_vertex.len();
    let mut triplets: Vec<(u32, u32, f64)> = Vec::new();
    let mut rhs = vec![0.0; nfree];

    for t in mesh.live_triangles() {
        let tri = mesh.tri(t as usize);
        let p: [Point2; 3] = [
            mesh.vertex(tri[0] as usize),
            mesh.vertex(tri[1] as usize),
            mesh.vertex(tri[2] as usize),
        ];
        let area2 = (p[1] - p[0]).cross(p[2] - p[0]);
        if area2 <= 0.0 {
            continue;
        }
        let area = 0.5 * area2;
        // Barycentric gradients: grad(lambda_i) = perp(edge opposite i)/2A
        // with orientation giving the inward-facing normal.
        let grads: [Vec2; 3] = [
            edge_grad(p[1], p[2], area2),
            edge_grad(p[2], p[0], area2),
            edge_grad(p[0], p[1], area2),
        ];
        for i in 0..3 {
            let vi = tri[i];
            let fi = vertex_to_free[vi as usize];
            // Lumped load.
            if fi != u32::MAX {
                rhs[fi as usize] += f(p[i]) * area / 3.0;
            }
            for j in 0..3 {
                let vj = tri[j];
                // Stiffness + convection (row i, col j):
                // K_ij = A * grad_i . grad_j  +  A/3 * conv . grad_j
                let k = area * grads[i].dot(grads[j]) + area / 3.0 * conv.dot(grads[j]);
                let fj = vertex_to_free[vj as usize];
                if fi != u32::MAX && fj != u32::MAX {
                    triplets.push((fi, fj, k));
                } else if fi != u32::MAX {
                    // Move the known value to the RHS.
                    let g = bc.values[&vj];
                    rhs[fi as usize] -= k * g;
                }
            }
        }
    }
    FemSystem {
        matrix: Csr::from_triplets(nfree, nfree, &triplets),
        rhs,
        free_to_vertex,
        vertex_to_free,
    }
}

/// Gradient of the barycentric coordinate opposite the edge `a -> b`.
#[inline]
fn edge_grad(a: Point2, b: Point2, area2: f64) -> Vec2 {
    // grad lambda = rot90(b - a) / (2A), with the sign that points toward
    // the opposite vertex for a CCW triangle.
    Vec2::new(a.y - b.y, b.x - a.x) * (1.0 / area2)
}

impl FemSystem {
    /// Expands a reduced solution to a full per-vertex field, filling in
    /// the Dirichlet values.
    pub fn expand(&self, u_free: &[f64], bc: &Dirichlet, nv: usize) -> Vec<f64> {
        let mut full = vec![0.0; nv];
        for (k, &v) in self.free_to_vertex.iter().enumerate() {
            full[v as usize] = u_free[k];
        }
        for (&v, &g) in &bc.values {
            if (v as usize) < nv {
                full[v as usize] = g;
            }
        }
        full
    }
}

/// Marks every boundary vertex (vertices on NIL-neighbor edges) with a
/// value computed from its position — the usual way to impose far-field
/// conditions.
pub fn dirichlet_on_boundary(mesh: &Mesh, value: impl Fn(Point2) -> f64) -> Dirichlet {
    let mut bc = Dirichlet::default();
    for t in mesh.live_triangles() {
        for i in 0..3u8 {
            if mesh.neighbor(t as usize, i as usize) == adm_delaunay::mesh::NIL {
                let (a, b) = mesh.edge_vertices(t, i);
                for v in [a, b] {
                    bc.fix(v, value(mesh.vertex(v as usize)));
                }
            }
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{cg, CgOptions};
    use adm_delaunay::cdt::{carve, constrained_delaunay};
    use adm_delaunay::refine::{refine, RefineParams};

    fn unit_square_mesh(max_area: f64) -> Mesh {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        let segs = [(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        let (mut mesh, _) = constrained_delaunay(&pts, &segs, false).unwrap();
        carve(&mut mesh, &[]);
        refine(
            &mut mesh,
            None,
            &RefineParams {
                max_area: Some(max_area),
                ..Default::default()
            },
        );
        mesh
    }

    #[test]
    fn laplace_with_linear_solution_is_exact() {
        // u = 2x + 3y is harmonic: P1 FEM reproduces it exactly.
        let mesh = unit_square_mesh(0.02);
        let exact = |p: Point2| 2.0 * p.x + 3.0 * p.y;
        let bc = dirichlet_on_boundary(&mesh, exact);
        let sys = assemble(&mesh, Vec2::ZERO, |_| 0.0, &bc);
        let (u, _res) = cg(&sys.matrix, &sys.rhs, &CgOptions::default());
        let full = sys.expand(&u, &bc, mesh.num_vertices());
        for t in mesh.live_triangles() {
            for &v in &mesh.tri(t as usize) {
                let p = mesh.vertex(v as usize);
                assert!(
                    (full[v as usize] - exact(p)).abs() < 1e-8,
                    "vertex {v}: {} vs {}",
                    full[v as usize],
                    exact(p)
                );
            }
        }
    }

    #[test]
    fn poisson_manufactured_solution_converges() {
        // -lap(u) = 2 pi^2 sin(pi x) sin(pi y), u = sin(pi x) sin(pi y).
        use std::f64::consts::PI;
        let exact = |p: Point2| (PI * p.x).sin() * (PI * p.y).sin();
        let rhs = move |p: Point2| 2.0 * PI * PI * (PI * p.x).sin() * (PI * p.y).sin();
        let mut errs = Vec::new();
        for max_area in [0.02, 0.005] {
            let mesh = unit_square_mesh(max_area);
            let bc = dirichlet_on_boundary(&mesh, |_| 0.0);
            let sys = assemble(&mesh, Vec2::ZERO, rhs, &bc);
            let (u, _res) = cg(&sys.matrix, &sys.rhs, &CgOptions::default());
            let full = sys.expand(&u, &bc, mesh.num_vertices());
            let mut max_err = 0.0f64;
            for (v, &val) in full.iter().enumerate() {
                let p = mesh.vertex(v);
                max_err = max_err.max((val - exact(p)).abs());
            }
            errs.push(max_err);
        }
        // Refinement by 4x in area (2x in h) should reduce the error by
        // roughly 4x (second order); accept 2.5x.
        assert!(errs[1] < errs[0] / 2.5, "errors {errs:?}");
    }

    #[test]
    fn stiffness_matrix_is_symmetric_without_convection() {
        let mesh = unit_square_mesh(0.05);
        let bc = dirichlet_on_boundary(&mesh, |_| 0.0);
        let sys = assemble(&mesh, Vec2::ZERO, |_| 1.0, &bc);
        let a = &sys.matrix;
        for r in 0..a.nrows() {
            for k in a.row_ptr[r]..a.row_ptr[r + 1] {
                let c = a.cols[k] as usize;
                assert!(
                    (a.vals[k] - a.get(c, r)).abs() < 1e-12,
                    "asymmetry at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn interior_row_sums_vanish() {
        // Laplace stiffness rows sum to zero over all dofs (constant in
        // the kernel) — check rows of vertices with no fixed neighbors.
        let mesh = unit_square_mesh(0.01);
        let bc = dirichlet_on_boundary(&mesh, |_| 0.0);
        let sys = assemble(&mesh, Vec2::ZERO, |_| 0.0, &bc);
        let fixed: std::collections::HashSet<u32> = bc.values.keys().copied().collect();
        'row: for (k, &v) in sys.free_to_vertex.iter().enumerate() {
            // Skip rows whose stencil touches the boundary.
            for t in mesh.star(v) {
                for &w in &mesh.tri(t as usize) {
                    if fixed.contains(&w) {
                        continue 'row;
                    }
                }
            }
            let a = &sys.matrix;
            let sum: f64 = (a.row_ptr[k]..a.row_ptr[k + 1]).map(|i| a.vals[i]).sum();
            assert!(sum.abs() < 1e-12, "row {k} sums to {sum}");
        }
    }
}
