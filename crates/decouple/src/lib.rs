//! # adm-decouple — graded Delaunay decoupling of the inviscid region
//!
//! Implements the paper's §II.E: sizing fields shared by decoupling and
//! refinement, the equation-(1) `k`-value border marching whose segments
//! are never split by Ruppert refinement, the initial four-quadrant
//! pinwheel between the near-body box and the far field (Figure 9), and
//! the recursive interior-only '+' decoupling that needs no inter-process
//! communication (Figure 10).

pub mod march;
pub mod quadrant;
pub mod region;
pub mod sizing;

pub use march::{chain_respects_bounds, march_path};
pub use quadrant::{initial_quadrants, InitialDecoupling};
pub use region::{decouple_by_threshold, splittable, Region};
pub use sizing::{k_value, GradedSizing, SizingFn, UniformH, EQUILATERAL};
