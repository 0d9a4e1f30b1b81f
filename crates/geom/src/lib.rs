//! # adm-geom — computational-geometry substrate
//!
//! Foundation crate of the `adm2d` workspace (ICPP 2016 anisotropic
//! Delaunay reproduction): exact-adaptive predicates, segments, bounding
//! boxes with Cohen–Sutherland clipping, the alternating digital tree used
//! to prune boundary-layer ray intersections, and monotone-chain convex
//! hulls that drive the projection-based parallel triangulation.
//!
//! Everything is `f64`, allocation-light, and exact where topology depends
//! on it: `orient2d`/`incircle` fall back to floating-point expansion
//! arithmetic, so all downstream Delaunay decisions are made on exact
//! signs.

pub mod aabb;
pub mod adt;
pub mod expansion;
pub mod hull;
pub mod metric;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod pslg;
pub mod pslg_gen;
pub mod segment;

pub use aabb::Aabb;
pub use adt::{extent_key, Adt, Point4};
pub use hull::lower_hull_indices_sorted;
pub use metric::{Metric2, MetricField};
pub use point::{Point2, Vec2};
pub use predicates::{
    incircle, incircle_batch, incircle_one, orient2d, orient2d_batch, orient2d_one,
};
pub use pslg::{Pslg, PslgError, RepairReport, ValidPslg};
pub use pslg_gen::{generate_pslg, GeneratedPslg};
pub use segment::{SegIntersection, Segment};
