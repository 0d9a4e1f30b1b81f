//! # adm-delaunay — Delaunay triangulation, CDT, and Ruppert refinement
//!
//! The workspace's from-scratch substitute for Shewchuk's *Triangle*
//! (the paper's sequential meshing engine):
//!
//! * [`divconq`] — Guibas–Stolfi divide-and-conquer Delaunay kernel with
//!   vertical cuts and a pre-sorted input fast path (paper §III);
//! * [`mesh`] — adjacency-carrying triangle mesh with exact point location
//!   and Bowyer–Watson cavity insertion;
//! * [`cdt`] — constraint segment insertion and Triangle-style carving of
//!   concavities/holes;
//! * [`mod@refine`] — Ruppert refinement with the `sqrt(2)` quality bound and
//!   sizing-function area bounds (paper §II.E);
//! * [`quality`] / [`io`] / [`poly`] — metrics, Triangle-format I/O +
//!   SVG, and `.poly` PSLG files.
//!
//! Triangle's `-p -q -a` is the three calls [`constrained_delaunay`] →
//! [`carve`] → [`refine()`], with [`RefineParams`] as the only options
//! struct and a [`refine::AreaFn`] closure as the area bound.

pub mod bitset;
pub mod cdt;
pub mod divconq;
pub mod io;
pub mod mesh;
pub mod poly;
pub mod quadedge;
pub mod quality;
pub mod refine;

pub use cdt::{carve, constrained_delaunay, insert_constraint, CdtError};
pub use divconq::{delaunay_rec, prepare_input, triangulate_dc, DcTriangulation};
pub use mesh::{Location, Mesh, NonManifoldEdge, NIL};
pub use poly::{read_poly, write_poly, PolyFile};
pub use quality::{circumcenter, mesh_quality, tri_quality, MeshQuality, TriQuality};
pub use refine::{refine, RefineParams, RefineStats};
