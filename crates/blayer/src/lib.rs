//! # adm-blayer — pseudo-structured anisotropic boundary layers
//!
//! Extrusion-based advancing-front boundary-layer generation (paper §II.A
//! to §II.C): growth functions, outward surface normals, ray emission with
//! large-angle refinement and trailing-edge cusp fans, hierarchical
//! intersection resolution (AABB → alternating digital tree → exact
//! tests), and growth-function point insertion with the isotropy stopping
//! rule that hands over to the unstructured inviscid region.

pub mod growth;
pub mod insert;
pub mod intersect;
pub mod normals;
pub mod rays;
pub mod region;

pub use growth::{Geometric, GrowthSpec};
pub use insert::{insert_points, layer_stats, InsertParams, LayerPoints, LayerStats};
pub use intersect::{
    no_proper_intersections, outer_border_segments, resolve_against_element,
    resolve_self_intersections,
};
pub use normals::{edge_outward_normal, loop_normals, CornerThresholds, VertexNormal};
pub use rays::{emit_rays, max_consecutive_angle, Ray, RaySource};
pub use region::{
    build_boundary_layer, build_multielement_layers, layers_disjoint, BlParams, BoundaryLayer,
};
