//! Dependency-free work-stealing pool for fork/join trees.
//!
//! The task tree ([`crate::Executor::Pool`]), the forked
//! divide-and-conquer triangulator and the merge phase all decompose
//! into strictly nested fork/join pairs, so the only
//! scheduling primitive this pool exposes is [`Pool::join`]: run two
//! closures, potentially in parallel, and return both results. Jobs
//! live on per-worker condvar-signalled deques (std threads only — no
//! rayon, matching the mesher/communicator thread discipline of the
//! rest of this crate): a worker pops its own lane LIFO and steals the
//! oldest job from a sibling lane when its own is empty. A thread
//! blocked in `join` *helps* — it first tries to reclaim the job it
//! just forked, then steals unrelated work — so the pool never
//! deadlocks on nested joins and the calling thread is never idle
//! while work remains. What it steals may be a whole subdomain task, run
//! to completion inside the waiting join.
//!
//! `Pool::new(0)` builds an **inline** pool: `join(a, b)` degenerates
//! to `(a(), b())` on the calling thread with no worker threads, no
//! queues and no nondeterminism. Runs on the virtual-time
//! `SimTransport` pass this mode to the pipeline: wall-clock workers
//! would race the simulated schedule, and only an inline pool keeps
//! trace fingerprints replay-identical.
//!
//! Determinism contract: the *results* of a `join` tree are always
//! deterministic (each forked closure writes a dedicated slot); only
//! the schedule varies. Callers that need deterministic *side-effect
//! order* (e.g. trace fingerprints) must use an inline pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

const PENDING: u8 = 0;
const RUNNING: u8 = 1;
const DONE: u8 = 2;

type BoxedJob = Box<dyn FnOnce() + Send + 'static>;
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One forked half of a `join`, shared between the forking thread and
/// whichever thread claims it. The closure is taken exactly once under
/// a `PENDING -> RUNNING` CAS; stale queue entries (the forker
/// reclaimed its own job without popping it) fail that CAS and are
/// dropped harmlessly.
struct JobCore {
    state: AtomicU8,
    func: Mutex<Option<BoxedJob>>,
    panic: Mutex<Option<PanicPayload>>,
    submit_lane: usize,
}

struct Shared {
    /// Lanes `0..threads` belong to the workers; lane `threads` is the
    /// external lane used by non-worker threads (the pipeline thread,
    /// transport rank threads) that call `join`.
    lanes: Vec<Mutex<VecDeque<Arc<JobCore>>>>,
    /// Generation counter bumped on every push and every completion;
    /// waiters park on `signal` and re-check their condition.
    gate: Mutex<u64>,
    signal: Condvar,
    shutdown: AtomicBool,
    steals: AtomicU64,
}

std::thread_local! {
    /// `(pool, lane)` of the current thread if it is a worker: its pool's
    /// `Shared` (kept alive by the worker; compared, never dereferenced)
    /// and its lane there. Only ever set by worker threads, which belong
    /// to exactly one pool for their whole lifetime.
    static CURRENT_LANE: std::cell::Cell<Option<(*const Shared, usize)>> = const { std::cell::Cell::new(None) };
}

/// Work-stealing fork/join pool. See the module docs for the
/// scheduling and determinism contract.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Build a pool with `threads` worker threads. `threads == 0`
    /// yields the inline deterministic pool.
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared {
            lanes: (0..threads.saturating_add(1).max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            gate: Mutex::new(0),
            signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("adm-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Number of worker threads (0 for the inline pool).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs executed by a thread other than the one that forked them.
    /// Monotonic over the pool's lifetime; callers that report per-job
    /// numbers (e.g. the pipeline's `merge.steals` counter, the mesh
    /// server's `serve.merge_steals` histogram) must snapshot before and
    /// after the job and publish the delta.
    pub fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Entries currently sitting in the lane deques, stale or live.
    /// After every outstanding `join` on this pool has returned, this is
    /// zero: claimed entries are popped, and inline-reclaimed entries are
    /// removed eagerly. A non-zero value at quiescence is a leak.
    #[cfg(test)]
    fn queued_entries(&self) -> usize {
        self.shared
            .lanes
            .iter()
            .map(|l| l.lock().unwrap().len())
            .sum()
    }

    /// Allocated capacity of each lane's deque, in submit-lane order with
    /// the external lane last. Capacity tracks the high-water mark of
    /// simultaneously queued jobs (bounded by join-tree depth), never the
    /// job *count* — reusing one pool across many sequential jobs must
    /// not grow it.
    #[cfg(test)]
    fn lane_capacities(&self) -> Vec<usize> {
        self.shared
            .lanes
            .iter()
            .map(|l| l.lock().unwrap().capacity())
            .collect()
    }

    /// Lane index of the current thread within this pool's lane space:
    /// a worker's own lane (`< threads()`), or the shared external lane
    /// (`threads()`) for every other thread — workers of another pool
    /// included. Useful for labelling per-worker trace tracks.
    pub fn current_lane(&self) -> usize {
        match CURRENT_LANE.get() {
            Some((pool, lane)) if pool == Arc::as_ptr(&self.shared) => lane,
            _ => self.shared.lanes.len() - 1,
        }
    }

    /// Run `a` and `b`, potentially in parallel, and return both
    /// results. `b` is forked onto the pool; the calling thread runs
    /// `a`, then reclaims `b` if it was not stolen, or helps with
    /// other queued jobs while waiting. Panics in either closure are
    /// propagated after *both* have finished, so borrowed state is
    /// never observed mid-unwind.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if self.workers.is_empty() {
            return (a(), b());
        }

        let mut rb: Option<RB> = None;
        let job = {
            let slot: &mut Option<RB> = &mut rb;
            let closure: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                *slot = Some(b());
            });
            // SAFETY: `join` does not return (or unwind past this
            // frame) until the job is DONE, so the borrow of `rb` and
            // of `b`'s captures outlives every possible execution of
            // the closure. Only the lifetime is erased.
            let closure: BoxedJob =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, BoxedJob>(closure) };
            let lane = self.current_lane();
            Arc::new(JobCore {
                state: AtomicU8::new(PENDING),
                func: Mutex::new(Some(closure)),
                panic: Mutex::new(None),
                submit_lane: lane,
            })
        };
        self.shared.lanes[job.submit_lane]
            .lock()
            .unwrap()
            .push_back(Arc::clone(&job));
        bump(&self.shared);

        let ra = catch_unwind(AssertUnwindSafe(a));

        // Wait for b: reclaim it inline if still pending, otherwise
        // help with unrelated work until its runner finishes.
        let my_lane = self.current_lane();
        loop {
            match job.state.load(Ordering::Acquire) {
                DONE => break,
                _ => {
                    if job
                        .state
                        .compare_exchange(PENDING, RUNNING, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        // Reclaimed inline: the queued entry is now stale.
                        // Remove it eagerly — on a long-lived pool that
                        // serves many sequential jobs (the mesh server's
                        // shared pool), leaving stale entries to be lazily
                        // dropped by the next scan would let the submit
                        // lane's deque grow between scans.
                        {
                            let mut q = self.shared.lanes[job.submit_lane].lock().unwrap();
                            if let Some(pos) = q.iter().position(|j| Arc::ptr_eq(j, &job)) {
                                q.remove(pos);
                            }
                        }
                        run_claimed(&self.shared, &job);
                        break;
                    }
                    if let Some((stolen, src)) = claim_job(&self.shared, my_lane) {
                        if src != my_lane {
                            self.shared.steals.fetch_add(1, Ordering::Relaxed);
                        }
                        run_claimed(&self.shared, &stolen);
                        continue;
                    }
                    let gate = self.shared.gate.lock().unwrap();
                    if job.state.load(Ordering::Acquire) != DONE {
                        drop(
                            self.shared
                                .signal
                                .wait_timeout(gate, Duration::from_millis(1))
                                .unwrap(),
                        );
                    }
                }
            }
        }

        let panicked = job.panic.lock().unwrap().take();
        match (ra, panicked) {
            (Ok(ra), None) => (ra, rb.take().expect("forked job completed without result")),
            (Err(p), _) | (Ok(_), Some(p)) => resume_unwind(p),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        bump(&self.shared);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn bump(shared: &Shared) {
    let mut gen = shared.gate.lock().unwrap();
    *gen += 1;
    drop(gen);
    shared.signal.notify_all();
}

/// Pop and claim one PENDING job: own lane back (LIFO), then sibling
/// lanes front (FIFO steal). Returns the job and its source lane.
fn claim_job(shared: &Shared, me: usize) -> Option<(Arc<JobCore>, usize)> {
    let n = shared.lanes.len();
    for k in 0..n {
        let lane = (me + k) % n;
        let mut q = shared.lanes[lane].lock().unwrap();
        while let Some(job) = if lane == me {
            q.pop_back()
        } else {
            q.pop_front()
        } {
            if job
                .state
                .compare_exchange(PENDING, RUNNING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some((job, lane));
            }
            // Stale entry: already reclaimed inline by its forker.
        }
    }
    None
}

/// Run a job whose state CAS has already succeeded.
fn run_claimed(shared: &Shared, job: &JobCore) {
    let func = job
        .func
        .lock()
        .unwrap()
        .take()
        .expect("claimed job has no closure");
    if let Err(p) = catch_unwind(AssertUnwindSafe(func)) {
        *job.panic.lock().unwrap() = Some(p);
    }
    job.state.store(DONE, Ordering::Release);
    bump(shared);
}

fn worker_loop(shared: &Shared, me: usize) {
    CURRENT_LANE.set(Some((shared, me)));
    loop {
        if let Some((job, src)) = claim_job(shared, me) {
            if src != me {
                shared.steals.fetch_add(1, Ordering::Relaxed);
            }
            run_claimed(shared, &job);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let gate = shared.gate.lock().unwrap();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        drop(
            shared
                .signal
                .wait_timeout(gate, Duration::from_millis(50))
                .unwrap(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_sum(pool: &Pool, lo: u64, hi: u64) -> u64 {
        if hi - lo <= 8 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (l, r) = pool.join(|| tree_sum(pool, lo, mid), || tree_sum(pool, mid, hi));
        l + r
    }

    #[test]
    fn inline_pool_joins_sequentially() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 0);
        let (a, b) = pool.join(|| 2 + 2, || "b");
        assert_eq!((a, b), (4, "b"));
        assert_eq!(tree_sum(&pool, 0, 1000), 499_500);
        assert_eq!(pool.steals(), 0);
    }

    #[test]
    fn threaded_pool_matches_inline_result() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            assert_eq!(pool.threads(), threads);
            assert_eq!(tree_sum(&pool, 0, 10_000), 49_995_000);
        }
    }

    #[test]
    fn a_worker_of_one_pool_joins_on_another_pool() {
        // A worker's lane index means nothing to a pool it is not part of.
        fn sum(outer: &Pool, inner: &Pool, lo: u64, hi: u64) -> u64 {
            let mid = lo + (hi - lo) / 2;
            let (l, r) = match hi - lo {
                1 => inner.join(|| lo, || lo * lo),
                _ => outer.join(|| sum(outer, inner, lo, mid), || sum(outer, inner, mid, hi)),
            };
            l + r
        }
        let want: u64 = (0..256).map(|i| i + i * i).sum();
        assert_eq!(sum(&Pool::new(4), &Pool::new(1), 0, 256), want);
    }

    #[test]
    fn join_returns_borrowed_results() {
        let pool = Pool::new(2);
        let data: Vec<u64> = (0..128).collect();
        let (l, r) = pool.join(
            || data[..64].iter().sum::<u64>(),
            || data[64..].iter().sum::<u64>(),
        );
        assert_eq!(l + r, data.iter().sum::<u64>());
    }

    #[test]
    fn concurrent_external_callers_are_supported() {
        let pool = Arc::new(Pool::new(2));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || tree_sum(&pool, t * 1000, (t + 1) * 1000))
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0u64..4000).sum());
    }

    #[test]
    fn pool_reuse_across_many_jobs_leaks_no_queue_state() {
        // The server shares one pool across every mesh job; a thousand
        // sequential join trees must leave the deques empty at each
        // quiescent point and never grow their allocated capacity with
        // the job count (capacity tracks join-tree depth, not history).
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let mut high_water = 0usize;
            for job in 0..1000u64 {
                assert_eq!(tree_sum(&pool, job, job + 200), (job..job + 200).sum());
                assert_eq!(
                    pool.queued_entries(),
                    0,
                    "stale queue entries after job {job} ({threads} threads)"
                );
                let cap: usize = pool.lane_capacities().iter().sum();
                if job == 0 {
                    high_water = cap;
                }
                // Allow the first few jobs to establish the high-water
                // mark (steals can deepen a lane), then demand a plateau.
                if job < 10 {
                    high_water = high_water.max(cap);
                } else {
                    // A rare deep steal cascade may still nudge a lane, so
                    // allow a fixed headroom above the early high-water
                    // mark — what must never happen is capacity tracking
                    // the job count (a leak would add ~1 entry per job).
                    assert!(
                        cap <= high_water.max(256),
                        "lane capacity grew with job count: {cap} > {high_water} \
                         at job {job} ({threads} threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn steals_are_monotonic_and_per_job_deltas_sum() {
        // `steals()` is cumulative by contract; per-job reporting is a
        // before/after delta. The deltas of consecutive jobs partition
        // the cumulative counter — no steal is ever double-reported.
        let pool = Pool::new(2);
        let mut last = pool.steals();
        let mut delta_sum = 0u64;
        for job in 0..50u64 {
            let before = pool.steals();
            assert!(before >= last, "steal counter went backwards");
            tree_sum(&pool, 0, 2000 + job);
            let after = pool.steals();
            assert!(after >= before);
            delta_sum += after - before;
            last = after;
        }
        assert_eq!(delta_sum, pool.steals(), "deltas must partition the total");
    }

    #[test]
    fn forked_panic_propagates_after_both_halves_finish() {
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || -> u32 { panic!("forked half failed") })
        }));
        assert!(caught.is_err());
        // The pool stays usable after a propagated panic.
        assert_eq!(tree_sum(&pool, 0, 100), 4950);
    }
}
