//! # adm-core — the push-button parallel anisotropic mesh generator
//!
//! End-to-end reproduction of the paper's pipeline: anisotropic boundary
//! layers (adm-blayer) → projection-based parallel triangulation
//! (adm-partition) → graded Delaunay decoupling and independent Ruppert
//! refinement of the inviscid region (adm-decouple + adm-delaunay) →
//! merged, conforming global mesh. The subdomain work is one task tree
//! ([`pipeline`]) run inline or on adm-mpirt ranks; per-task costs are
//! traced so the scaling study (adm-simnet) replays the real workload.

pub mod adapt;
mod blmesh;
pub mod config;
pub mod hash;
pub mod inviscid;
pub mod merge;
pub mod pipeline;
pub mod pslg_pipeline;
pub mod shard;
pub mod sizing;
pub mod tasklog;

pub use adapt::{
    adapt, adapt_with_runner, mesh_digest_hex, metric_digest_hex, AdaptOptions, AdaptResult,
    CycleReport,
};
pub use adm_mpirt::Executor;
pub use config::{default_merge_threads, MeshConfig};
pub use hash::{sha256_hex, Sha256};
pub use inviscid::{build_sizing, refine_nearbody, refine_region};
pub use merge::{check_conformity, merge_tree_spliced, Conformity, MeshMerger};
pub use pipeline::{
    build_prelude, generate, generate_on, generate_parallel, generate_staged_with_pool,
    generate_undecomposed, GeomPrelude, PipelineResult, PipelineStats,
};
pub use pslg_pipeline::{mesh_pslg, mesh_pslg_on, PslgMeshError, PslgMeshResult};
pub use shard::{
    atomic_write, read_manifest, reconstruct, verify_shards, write_manifest, write_shard_set,
    ConsistencyReport, ShardManifest, ShardMeta, MANIFEST_NAME,
};
pub use sizing::{
    AnchorSet, ComposedSizing, GradationLimited, GradedSizing, MetricSizing, SizingFn, UniformH,
};
pub use tasklog::{TaskKind, TaskLog, TaskRecord};
