//! # adm-kernel — the unified arena mesh kernel
//!
//! The paper's decoupling invariant guarantees that independently meshed
//! subdomains share *bitwise-identical* interface points. This crate turns
//! that guarantee into an explicit identity: every point that can ever be
//! shared across a layer boundary is interned **once** into a
//! [`MeshArena`] and from then on travels as a [`GlobalVertexId`] — a
//! stable integer minted at decomposition time — instead of a bare
//! coordinate pair that each consumer re-hashes.
//!
//! Layering (enforced by `ci/check_layering.py`):
//!
//! ```text
//! adm-geom ──► adm-kernel ──► engines (delaunay, blayer, partition,
//!                 │            decouple, mpirt)
//!                 └──────────► pipeline (adm-core)
//! ```
//!
//! The kernel sits between the geometric primitives and the triangulation
//! engines: engines stamp the meshes they produce with the ids of their
//! input points, and the pipeline's merger splices stamped meshes together
//! by id — touching only O(interface) vertices instead of re-hashing the
//! coordinate bits of every vertex of every subdomain.

pub mod arena;

pub use adm_geom::point::{canonical_bits, canonical_point};
pub use arena::{GlobalVertexId, MeshArena};
