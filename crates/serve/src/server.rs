//! The mesh job server: bounded admission, single-flight dedup, a
//! shared worker pool, and the two-level response cache.
//!
//! Request lifecycle (see DESIGN.md "Serving layer"):
//!
//! 1. **Canonicalize** — the request is rendered to canonical bytes
//!    and content-addressed (`serve.requests`). Uncacheable requests
//!    fail typed here (`serve.errors`).
//! 2. **Admit** — under the state lock (one short `serve.request`
//!    span on [`Track::SERVER_FRONT`] per request): memory-cache hit
//!    (`serve.hits_mem`) returns immediately; a key already in flight
//!    attaches the caller as a waiter (`serve.coalesced`) without new
//!    work; otherwise the job enters the bounded priority queue
//!    (`serve.sched`) — or, at capacity, is rejected with a typed
//!    [`ServeError::Busy`] (`serve.rejected`). Admission never
//!    allocates proportionally to load beyond the queue bound.
//! 3. **Execute** — a worker (lane [`Track::server`]) pops the
//!    cheapest job of the best class, probes the disk cache
//!    (`serve.cache_load` span, `serve.hits_disk` / `serve.cache_bad`)
//!    and otherwise meshes (`serve.mesh_job` span, `serve.mesh_jobs`)
//!    on the server's one shared [`Pool`], persisting shards as a side
//!    effect of the pipeline itself.
//! 4. **Complete** — the encoded response lands in the memory LRU and
//!    every waiter (including disconnected ones' cache entry) gets the
//!    same `Arc`, hence byte- and digest-identical meshes.
//!
//! With `workers == 0` the server runs in *manual pump* mode: nothing
//! executes until [`Server::pump_one`], so tests can interleave
//! submissions, disconnects, and executions deterministically on one
//! thread (the `SimTransport` virtual-time style — with a
//! [`TestClock`](adm_trace::TestClock)-backed tracer the whole trace
//! fingerprint is a pure function of the submission script).

use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use adm_core::config::MeshConfig;
use adm_core::pipeline::generate_staged_with_pool;
use adm_mpirt::Pool;
use adm_trace::{Tracer, Track};

use crate::cache::{DiskCache, DiskLoad, MemCache, Response};
use crate::request::{canonical_request, cost_estimate, RequestError};

/// Server construction parameters.
pub struct ServerConfig {
    /// Executor threads. `0` = manual pump mode (deterministic tests).
    pub workers: usize,
    /// Width of the one shared mesh [`Pool`] every job's tasks and merge
    /// fork on (0 = inline). Sized to the machine once, not per job.
    pub pool_threads: usize,
    /// Admission queue bound: queued-but-unstarted jobs beyond this
    /// are rejected with [`ServeError::Busy`].
    pub queue_cap: usize,
    /// Memory-LRU budget in bytes of encoded responses.
    pub mem_cache_bytes: usize,
    /// Disk cache root (shard sets, one directory per key). `None`
    /// disables the disk level.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            pool_threads: 0,
            queue_cap: 64,
            mem_cache_bytes: 64 << 20,
            cache_dir: None,
        }
    }
}

/// Typed request failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request could not be canonicalized.
    BadRequest(String),
    /// Admission queue at capacity — retry later (the 429 of this
    /// protocol). Rejection is how the server stays bounded: it never
    /// buffers unbounded work.
    Busy {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The configured bound.
        cap: usize,
    },
    /// The mesh job panicked or the server shut down mid-flight.
    JobFailed(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(w) => write!(f, "bad request: {w}"),
            ServeError::Busy { depth, cap } => {
                write!(f, "busy: admission queue full ({depth}/{cap})")
            }
            ServeError::JobFailed(w) => write!(f, "job failed: {w}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RequestError> for ServeError {
    fn from(e: RequestError) -> Self {
        ServeError::BadRequest(e.to_string())
    }
}

/// One in-flight mesh job; all duplicate requests for its key share it.
struct InFlight {
    done: Mutex<Option<Result<Arc<Response>, String>>>,
    cv: Condvar,
}

struct QueuedJob {
    key: String,
    config: MeshConfig,
    inflight: Arc<InFlight>,
    class: u8,
    cost: u64,
    seq: u64,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so pop() yields the best
        // class, then the cheapest estimate, then FIFO.
        (other.class, other.cost, other.seq).cmp(&(self.class, self.cost, self.seq))
    }
}

struct State {
    mem: MemCache,
    queue: BinaryHeap<QueuedJob>,
    inflight: HashMap<String, Arc<InFlight>>,
}

struct Shared {
    tracer: Tracer,
    pool: Pool,
    disk: Option<DiskCache>,
    queue_cap: usize,
    state: Mutex<State>,
    work_cv: Condvar,
    seq: AtomicU64,
    shutdown: AtomicBool,
}

/// The mesh job server. Cheap to clone a handle via `Arc<Server>`.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A submitted request. Resolve it with [`Ticket::wait`] (blocking) or
/// [`Ticket::try_take`] (manual pump mode). Dropping an unresolved
/// ticket models a client disconnect: the job still runs (its result
/// is cached for the next asker) but nobody blocks on it.
pub struct Ticket {
    shared: Arc<Shared>,
    inner: TicketInner,
    t_submit: Duration,
    resolved: bool,
}

enum TicketInner {
    Ready(Arc<Response>),
    Pending(Arc<InFlight>),
}

impl Ticket {
    /// Blocks until the response is available. Do not call in manual
    /// pump mode from the pumping thread — use [`Ticket::try_take`].
    pub fn wait(mut self) -> Result<Arc<Response>, ServeError> {
        self.resolved = true;
        match &self.inner {
            TicketInner::Ready(resp) => {
                let resp = resp.clone();
                self.observe_latency();
                Ok(resp)
            }
            TicketInner::Pending(inf) => {
                let mut done = inf.done.lock().unwrap();
                while done.is_none() {
                    done = inf.cv.wait(done).unwrap();
                }
                let result = done.as_ref().unwrap().clone();
                drop(done);
                self.observe_latency();
                result.map_err(ServeError::JobFailed)
            }
        }
    }

    /// Non-blocking poll: `None` while the job is still pending.
    pub fn try_take(&mut self) -> Option<Result<Arc<Response>, ServeError>> {
        let result = match &self.inner {
            TicketInner::Ready(resp) => Ok(resp.clone()),
            TicketInner::Pending(inf) => {
                let done = inf.done.lock().unwrap();
                done.as_ref()?.clone().map_err(ServeError::JobFailed)
            }
        };
        if !self.resolved {
            self.resolved = true;
            self.observe_latency();
        }
        Some(result)
    }

    fn observe_latency(&self) {
        let dt = self.shared.tracer.now().saturating_sub(self.t_submit);
        self.shared
            .tracer
            .observe("serve.latency_us", dt.as_micros() as u64);
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.resolved {
            // Client went away before taking the response.
            self.shared.tracer.count("serve.disconnects", 1);
        }
    }
}

impl Server {
    /// Builds a server (spawning `config.workers` executor threads).
    pub fn new(config: ServerConfig) -> std::io::Result<Server> {
        Server::with_tracer(config, Tracer::wall())
    }

    /// Builds a server recording onto a caller-supplied tracer (use a
    /// `TestClock`-backed tracer for deterministic fingerprints).
    pub fn with_tracer(config: ServerConfig, tracer: Tracer) -> std::io::Result<Server> {
        let disk = match &config.cache_dir {
            Some(dir) => Some(DiskCache::new(dir)?),
            None => None,
        };
        tracer.name_track(Track::SERVER_FRONT, "serve admission");
        let shared = Arc::new(Shared {
            tracer,
            pool: Pool::new(config.pool_threads),
            disk,
            queue_cap: config.queue_cap,
            state: Mutex::new(State {
                mem: MemCache::new(config.mem_cache_bytes),
                queue: BinaryHeap::new(),
                inflight: HashMap::new(),
            }),
            work_cv: Condvar::new(),
            seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers.max(1) {
            shared
                .tracer
                .name_track(Track::server(w), &format!("serve worker {w}"));
        }
        for w in 0..config.workers {
            let shared = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("admeshd-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))?,
            );
        }
        Ok(Server {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// The server's trace recorder (counters, spans, histograms).
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Current queued-but-unstarted job count.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Resident bytes in the memory cache.
    pub fn mem_cache_bytes(&self) -> usize {
        self.shared.state.lock().unwrap().mem.bytes()
    }

    /// Submits a request and blocks for the response. Priority class 0.
    pub fn submit(&self, config: &MeshConfig) -> Result<Arc<Response>, ServeError> {
        self.submit_nowait(config, 0)?.wait()
    }

    /// Submits a request without blocking. `class` is the priority
    /// class (0 = most urgent); within a class the queue runs
    /// shortest-estimated-job-first on [`cost_estimate`].
    pub fn submit_nowait(&self, config: &MeshConfig, class: u8) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let tracer = &shared.tracer;
        tracer.count("serve.requests", 1);
        let canonical = match canonical_request(config) {
            Ok(c) => c,
            Err(e) => {
                tracer.count("serve.errors", 1);
                return Err(e.into());
            }
        };
        let key = adm_core::hash::sha256_hex(canonical.as_bytes());
        let cost = cost_estimate(config);
        let t_submit = tracer.now();

        let mut state = shared.state.lock().unwrap();
        // Admission spans are serialized by the state lock, so the
        // front lane stays well-nested even with many client threads.
        let span = tracer.span(Track::SERVER_FRONT, "serve.request");
        let outcome = if let Some(resp) = state.mem.get(&key) {
            tracer.count("serve.hits_mem", 1);
            Ok(TicketInner::Ready(resp))
        } else if let Some(inf) = state.inflight.get(&key) {
            tracer.count("serve.coalesced", 1);
            Ok(TicketInner::Pending(inf.clone()))
        } else if state.queue.len() >= shared.queue_cap {
            tracer.count("serve.rejected", 1);
            Err(ServeError::Busy {
                depth: state.queue.len(),
                cap: shared.queue_cap,
            })
        } else {
            let inf = Arc::new(InFlight {
                done: Mutex::new(None),
                cv: Condvar::new(),
            });
            state.inflight.insert(key.clone(), inf.clone());
            let mut job_config = config.clone();
            // Execution knobs are the server's to set: persistence
            // goes to the disk cache's entry directory, and the whole
            // job (task tree, leaf triangulations, merge) forks on the
            // shared pool, so the request's merge_threads is never read.
            job_config.shard_out = shared.disk.as_ref().map(|d| d.entry_dir(&key));
            state.queue.push(QueuedJob {
                key,
                config: job_config,
                inflight: inf.clone(),
                class,
                cost,
                seq: shared.seq.fetch_add(1, Ordering::Relaxed),
            });
            tracer.count("serve.sched", 1);
            tracer.observe("serve.queue_depth", state.queue.len() as u64);
            shared.work_cv.notify_one();
            Ok(TicketInner::Pending(inf))
        };
        span.close();
        drop(state);
        outcome.map(|inner| Ticket {
            shared: shared.clone(),
            inner,
            t_submit,
            resolved: false,
        })
    }

    /// Manual pump: executes the best queued job inline on the calling
    /// thread (worker lane 0). Returns `false` when the queue is
    /// empty. Only meaningful with `workers == 0`.
    pub fn pump_one(&self) -> bool {
        let job = self.shared.state.lock().unwrap().queue.pop();
        match job {
            Some(job) => {
                run_job(&self.shared, 0, job);
                true
            }
            None => false,
        }
    }

    /// Signals workers to exit after their current job and joins them.
    /// Queued-but-unstarted jobs fail with [`ServeError::JobFailed`].
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // Fail whatever never started so blocked waiters unblock.
        let mut state = self.shared.state.lock().unwrap();
        let leftovers: Vec<QueuedJob> = state.queue.drain().collect();
        for job in leftovers {
            state.inflight.remove(&job.key);
            complete(&job.inflight, Err("server shut down".to_string()));
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, w: usize) {
    let mut state = shared.state.lock().unwrap();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match state.queue.pop() {
            Some(job) => {
                drop(state);
                run_job(shared, w, job);
                state = shared.state.lock().unwrap();
            }
            None => {
                state = shared.work_cv.wait(state).unwrap();
            }
        }
    }
}

fn complete(inf: &InFlight, result: Result<Arc<Response>, String>) {
    let mut done = inf.done.lock().unwrap();
    *done = Some(result);
    inf.cv.notify_all();
}

fn run_job(shared: &Arc<Shared>, w: usize, job: QueuedJob) {
    let tracer = &shared.tracer;
    let lane = Track::server(w);

    // Disk level first: a verified shard-set reconstruction is
    // canonically identical to meshing from scratch, at a fraction of
    // the cost. Single-flight means nobody else is writing this key.
    if let Some(disk) = &shared.disk {
        if disk.contains(&job.key) {
            let span = tracer.span(lane, "serve.cache_load");
            let loaded = disk.load(&job.key);
            span.close();
            match loaded {
                DiskLoad::Hit(mesh) => {
                    tracer.count("serve.hits_disk", 1);
                    finish(
                        shared,
                        &job,
                        Ok(Arc::new(Response::from_mesh(&job.key, &mesh))),
                    );
                    return;
                }
                DiskLoad::Corrupt => {
                    tracer.count("serve.cache_bad", 1);
                }
                DiskLoad::Miss => {}
            }
        }
    }

    let span = tracer.span(lane, "serve.mesh_job");
    tracer.count("serve.mesh_jobs", 1);
    let steals_before = shared.pool.steals();
    let config = job.config.clone();
    let pool = &shared.pool;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        generate_staged_with_pool(&config, None, pool)
    }));
    // Steal deltas from concurrently running jobs can interleave; the
    // histogram is a load indicator, not an exact per-job attribution.
    tracer.observe(
        "serve.merge_steals",
        shared.pool.steals().saturating_sub(steals_before),
    );
    span.close();

    match result {
        Ok(produced) => {
            tracer.count("serve.mesh_triangles", produced.mesh.num_triangles() as u64);
            finish(
                shared,
                &job,
                Ok(Arc::new(Response::from_mesh(&job.key, &produced.mesh))),
            );
        }
        Err(panic) => {
            tracer.count("serve.job_failures", 1);
            let why = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "mesh job panicked".to_string());
            finish(shared, &job, Err(why));
        }
    }
}

fn finish(shared: &Arc<Shared>, job: &QueuedJob, result: Result<Arc<Response>, String>) {
    let mut state = shared.state.lock().unwrap();
    if let Ok(resp) = &result {
        state.mem.put(resp.clone());
    }
    state.inflight.remove(&job.key);
    drop(state);
    complete(&job.inflight, result);
    shared.tracer.count("serve.completed", 1);
}
