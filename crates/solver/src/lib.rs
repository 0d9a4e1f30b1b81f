//! # adm-solver — finite-element flow-solver substitute
//!
//! Stand-in for FUN3D in the paper's evaluation (Figures 14–16): P1
//! finite elements on the generator's meshes, CSR sparse algebra,
//! conjugate-gradient / Jacobi iteration with residual histories (the
//! Figure 16 convergence study), and a potential-flow solve producing
//! pressure/Mach fields with the qualitative features of Figures 14/15.

pub mod estimate;
pub mod fem;
pub mod potential;
pub mod solve;
pub mod sparse;

pub use estimate::{
    auto_interpolation_eps, hessian_metric, local_edge_length, recover_gradient, recover_hessian,
    zz_error, ErrorEstimate, MetricParams,
};
pub use fem::{assemble, dirichlet_on_boundary, Dirichlet, FemSystem};
pub use potential::{solve_potential_flow, write_field_svg, FlowConditions, FlowSolution};
pub use solve::{cg, CgOptions};
pub use sparse::Csr;
