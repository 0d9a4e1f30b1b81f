//! # adm-partition — projection-based parallel domain decomposition
//!
//! The parallel triangulation of the anisotropic boundary layer point
//! cloud (paper §II.D): subdomains with dual sorted contiguous storage,
//! median cuts along the shortest bounding-box edge, dividing Delaunay
//! paths from the flattened-paraboloid lower convex hull (Blelloch /
//! Kadow), recursive coarse partitioning, independent per-leaf
//! triangulation with the maintained-sort fast path, and the circumcenter
//! merge rule that reassembles the exact global Delaunay triangulation.

pub mod decompose;
pub mod subdomain;

pub use decompose::{
    decompose, triangulate_all, triangulate_leaf, triangulate_leaf_pooled, DecomposeParams,
    Decomposition,
};
pub use subdomain::{reduction_plan, Cut, CutAxis, ReductionNode, Side, Subdomain, Vertex};
