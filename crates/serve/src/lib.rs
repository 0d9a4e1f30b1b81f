//! Mesh generation as a service.
//!
//! `adm-serve` turns the pipeline into a long-lived job server
//! (`admeshd`): concurrent clients submit geometry + config in the
//! canonical ASCII wire form, and the server answers from a
//! content-addressed cache — a memory LRU over encoded responses in
//! front of digest-verified shard sets on disk — meshing only what it
//! has never meshed before. Identical in-flight requests coalesce into
//! one job (single-flight), admission is bounded with typed
//! backpressure instead of unbounded buffering, and all jobs share one
//! worker [`Pool`](adm_mpirt::Pool) sized to the machine. Everything
//! is observable through the `adm-trace` registry (`serve.*` counters
//! and histograms, [`Track::SERVER_FRONT`](adm_trace::Track) /
//! `Track::server(w)` lanes) and provable under load with the seeded
//! replay/chaos driver in [`replay`](mod@replay).
//!
//! No async runtime and no third-party dependencies: std networking,
//! std threads, and the crates below this one.

pub mod cache;
pub mod net;
pub mod replay;
pub mod request;
pub mod server;
pub mod wire;

pub use cache::{DiskCache, DiskLoad, MemCache, Response};
pub use net::{serve, stats_json, Client, NetOptions};
pub use replay::{catalog, chaos_run, replay, workload, ChaosOutcome, ReplayStats, Rng};
pub use request::{
    cache_key, canonical_request, cost_estimate, parse_request, RequestError, REQUEST_MAGIC,
};
pub use server::{ServeError, Server, ServerConfig, Ticket};
pub use wire::{Command, WireResponse, MAX_REQUEST_BYTES, PROTO};
