//! Dynamic load balancing (paper §II.F and §III).
//!
//! Each rank runs **two threads**: a *mesher* that drains a priority queue
//! of subdomains (largest estimated cost first — small subdomains are kept
//! back for aggressive balancing near termination) and a *communicator*
//! that (a) periodically publishes the rank's remaining work estimate to
//! the RMA window, (b) requests work from the most-loaded rank when the
//! local estimate falls below a threshold, and (c) serves incoming work
//! requests from its own queue. Termination is detected through a global
//! completed-items counter accumulated on the window.
//!
//! ## Fault tolerance
//!
//! The wire protocol survives the full fault model of
//! [`crate::simfault::SimTransport`] — delayed, reordered, duplicated, and
//! (fair-lossy) dropped messages, stalled communicators, stale RMA
//! estimates — without losing or double-processing work:
//!
//! - every request carries a **`req_id`**; donors remember their answer
//!   per id, so a retried or duplicated request elicits the *same* reply
//!   instead of a second donation;
//! - every donation carries a **`transfer_id`**; receivers track seen ids
//!   and discard (but re-acknowledge) duplicates, making transfer delivery
//!   idempotent;
//! - donors keep each donated item **in flight** (a clone) and resend it
//!   with capped exponential backoff until acknowledged — a dropped
//!   transfer is retried, never lost;
//! - requesters time out and retry with backoff, eventually re-targeting
//!   a different victim; all timeouts are measured on the transport clock
//!   ([`crate::comm::Comm::now`]), so the same logic runs under virtual
//!   time.
//!
//! Idle threads never busy-sleep: both loops park in
//! [`crate::comm::Comm::pause`], which wakes early on incoming traffic or
//! an explicit [`crate::comm::Comm::wake`].

use crate::comm::{Comm, Src};
use crate::transport::Lane;
use crate::window::Window;
use adm_trace::{Tracer, Track};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A transferable unit of meshing work. `Clone` is required so donors can
/// keep an in-flight copy for retransmission (and so the fault injector
/// may duplicate protocol messages in tests).
pub trait WorkItem: Send + Clone + 'static {
    /// Estimated processing cost (e.g. expected triangle count).
    fn cost(&self) -> u64;
}

/// Priority-queue entry ordered by cost (largest first).
struct QueueItem<W> {
    cost: u64,
    seq: u64,
    item: W,
}

impl<W> PartialEq for QueueItem<W> {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.seq == other.seq
    }
}
impl<W> Eq for QueueItem<W> {}
impl<W> PartialOrd for QueueItem<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for QueueItem<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost
            .cmp(&other.cost)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The shared work queue of one rank. It carries a created-items counter
/// on the RMA window so distributed termination detection ("all created
/// items completed") works while tasks spawn follow-up tasks on any rank.
pub struct WorkQueue<W> {
    heap: Mutex<(BinaryHeap<QueueItem<W>>, u64)>,
    counter: (Window, usize),
}

impl<W: WorkItem> WorkQueue<W> {
    /// Creates a queue holding `items`, whose pushes (and these initial
    /// items) bump the created-items counter at `window[slot]` that
    /// [`run_balanced`] terminates on.
    pub fn with_counter(items: Vec<W>, window: Window, slot: usize) -> Self {
        window.fetch_add(slot, items.len() as u64);
        let mut heap = BinaryHeap::with_capacity(items.len());
        for (seq, item) in items.into_iter().enumerate() {
            heap.push(QueueItem {
                cost: item.cost(),
                seq: seq as u64,
                item,
            });
        }
        WorkQueue {
            heap: Mutex::new((heap, 1 << 32)),
            counter: (window, slot),
        }
    }

    /// Pushes an item, bumping the created counter.
    pub fn push(&self, item: W) {
        self.counter.0.fetch_add(self.counter.1, 1);
        self.push_transferred(item);
    }

    /// Pushes without counting: for items *transferred* between ranks
    /// (they were already counted where they were created).
    fn push_transferred(&self, item: W) {
        let mut g = self.heap.lock().unwrap();
        let seq = g.1;
        g.1 += 1;
        g.0.push(QueueItem {
            cost: item.cost(),
            seq,
            item,
        });
    }

    /// Pops the most expensive item.
    pub fn pop(&self) -> Option<W> {
        self.heap.lock().unwrap().0.pop().map(|q| q.item)
    }

    /// Total remaining cost.
    pub fn load(&self) -> u64 {
        self.heap.lock().unwrap().0.iter().map(|q| q.cost).sum()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.lock().unwrap().0.len()
    }

    /// `true` when no work is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Base timeout before a work request is retried (doubles per retry).
const REQUEST_TIMEOUT: Duration = Duration::from_millis(5);
/// Retries before an unanswered request is abandoned (a later pass may
/// target a different victim).
const MAX_REQUEST_RETRIES: u32 = 8;
/// Base timeout before an unacknowledged donation is resent (doubles per
/// resend, capped; resends continue until acknowledged).
const RESEND_TIMEOUT: Duration = Duration::from_millis(5);

/// Balancer tuning.
#[derive(Debug, Clone, Copy)]
pub struct BalancerConfig {
    /// Request work when the local load estimate falls below this.
    pub threshold: u64,
    /// Communicator polling interval.
    pub poll: Duration,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            threshold: 64,
            poll: Duration::from_micros(200),
        }
    }
}

/// Per-rank balancing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Items this rank processed.
    pub processed: usize,
    /// Work requests sent (excluding retries).
    pub requests_sent: usize,
    /// Items received from other ranks (first deliveries only).
    pub items_received: usize,
    /// Items donated to other ranks (first sends only).
    pub items_donated: usize,
    /// Requests denied by this rank (insufficient work to share).
    pub denies: usize,
    /// Timed-out work requests that were retransmitted.
    pub request_retries: usize,
    /// Unacknowledged donations that were retransmitted.
    pub work_resends: usize,
    /// Duplicate transfers discarded by the dedup filter.
    pub dup_transfers_discarded: usize,
    /// Duplicate requests answered idempotently from the answer cache.
    pub dup_requests_served: usize,
}

/// Communicator-to-communicator protocol. All variants travel as
/// *cloneable* payloads, opting in to drop/duplication fault injection —
/// request ids, transfer ids and acks are what make that safe.
#[derive(Clone)]
enum Msg<W> {
    /// Please send me work. `req_id` makes donor answers idempotent.
    Request { req_id: u64 },
    /// Here is a work item (the answer to `req_id`). `transfer_id` keys
    /// receiver-side dedup and the donor's retransmission table.
    Work {
        transfer_id: u64,
        req_id: u64,
        item: W,
    },
    /// I have nothing to spare (the answer to `req_id`).
    Deny { req_id: u64 },
    /// Transfer received; the donor may drop its in-flight copy.
    Ack { transfer_id: u64 },
}

const LB_TAG: u64 = 0x4C42; // "LB"

/// How the communicators decide all work in the system is finished:
/// every created item is done, with the completed-items counter at slot
/// `size` and the created-items counter at `size + 1` (items may spawn
/// more items on any rank). Only read after [`run_balanced`]'s initial
/// barrier, when every rank's seed items are counted — so a run with no
/// items at all is done at once.
fn all_work_done(window: &Window, size: usize) -> bool {
    // Read `created` first: a stale-low `created` with a fresh-high `done`
    // could otherwise fake completion.
    let created = window.get(size + 1);
    let done = window.get(size);
    done >= created
}

/// An unanswered outbound work request.
struct PendingRequest {
    req_id: u64,
    victim: usize,
    sent_at: Duration,
    /// First transmission time, for the steal round-trip histogram
    /// (`sent_at` moves forward on every retry).
    first_sent: Duration,
    attempts: u32,
}

/// A donated item awaiting acknowledgment.
struct InFlight<W> {
    dest: usize,
    req_id: u64,
    item: W,
    last_sent: Duration,
    attempts: u32,
}

/// What this donor answered a given `req_id` with.
enum Answer {
    Work(u64),
    Deny,
}

fn backoff(base: Duration, attempts: u32) -> Duration {
    base * (1u32 << attempts.min(6))
}

/// The communicator-thread body.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn communicator_loop<W: WorkItem>(
    comm: &Comm,
    queue: &WorkQueue<W>,
    window: &Window,
    cfg: &BalancerConfig,
    busy: &AtomicBool,
    shutdown: &AtomicBool,
    stats: &Mutex<RankStats>,
    trace: Option<&Tracer>,
) {
    let rank = comm.rank();
    let size = comm.size();
    // Registry mirror of the RankStats counters, plus the queue-depth and
    // steal-round-trip histograms. All timestamps come from the transport
    // clock, so under simulation these are deterministic per seed.
    let bump = |name: &'static str| {
        if let Some(t) = trace {
            t.count(name, 1);
        }
    };

    let mut outstanding: Option<PendingRequest> = None;
    let mut next_req_seq: u64 = 0;
    let mut next_tid_seq: u64 = 0;
    // Donor-side state: answer cache for idempotent requests and the
    // retransmission table of unacknowledged donations. Bounded by the
    // number of requests a run generates.
    let mut answered: BTreeMap<u64, Answer> = BTreeMap::new();
    let mut in_flight: BTreeMap<u64, InFlight<W>> = BTreeMap::new();
    // Requester-side dedup of received transfers.
    let mut seen_transfers: BTreeSet<u64> = BTreeSet::new();

    let donate = |src: usize,
                  req_id: u64,
                  in_flight: &mut BTreeMap<u64, InFlight<W>>,
                  answered: &mut BTreeMap<u64, Answer>,
                  next_tid_seq: &mut u64| {
        // Donate the largest queued item; keep one in reserve only when
        // the mesher is idle (its in-flight task is the reserve otherwise).
        let reserve = if busy.load(Ordering::Acquire) { 1 } else { 2 };
        let item = if queue.len() >= reserve {
            queue.pop()
        } else {
            None
        };
        match item {
            Some(item) => {
                let transfer_id = ((rank as u64) << 40) | *next_tid_seq;
                *next_tid_seq += 1;
                comm.send_cloneable(
                    src,
                    LB_TAG,
                    Msg::Work {
                        transfer_id,
                        req_id,
                        item: item.clone(),
                    },
                );
                in_flight.insert(
                    transfer_id,
                    InFlight {
                        dest: src,
                        req_id,
                        item,
                        last_sent: comm.now(),
                        attempts: 1,
                    },
                );
                answered.insert(req_id, Answer::Work(transfer_id));
                stats.lock().unwrap().items_donated += 1;
                bump("lb.items_donated");
            }
            None => {
                answered.insert(req_id, Answer::Deny);
                comm.send_cloneable(src, LB_TAG, Msg::<W>::Deny { req_id });
                stats.lock().unwrap().denies += 1;
                bump("lb.denies");
            }
        }
    };

    loop {
        // Publish the current work estimate (MPI_Put).
        window.put(rank, queue.load());
        if let Some(t) = trace {
            t.observe("lb.queue_depth", queue.len() as u64);
        }

        // Serve or consume protocol messages.
        while let Some((src, msg)) = comm.try_recv::<Msg<W>>(Src::Any, LB_TAG) {
            match msg {
                Msg::Request { req_id } => match answered.get(&req_id) {
                    Some(Answer::Work(tid)) => {
                        // Duplicate/retried request we already answered
                        // with work: resend that same donation
                        // (idempotent), or deny if it was since
                        // acknowledged (the requester has it).
                        let tid = *tid;
                        if let Some(f) = in_flight.get_mut(&tid) {
                            comm.send_cloneable(
                                src,
                                LB_TAG,
                                Msg::Work {
                                    transfer_id: tid,
                                    req_id,
                                    item: f.item.clone(),
                                },
                            );
                            f.last_sent = comm.now();
                            f.attempts += 1;
                            stats.lock().unwrap().work_resends += 1;
                            bump("lb.work_resends");
                        } else {
                            comm.send_cloneable(src, LB_TAG, Msg::<W>::Deny { req_id });
                        }
                        stats.lock().unwrap().dup_requests_served += 1;
                        bump("lb.dup_requests_served");
                    }
                    Some(Answer::Deny) => {
                        comm.send_cloneable(src, LB_TAG, Msg::<W>::Deny { req_id });
                        stats.lock().unwrap().dup_requests_served += 1;
                        bump("lb.dup_requests_served");
                    }
                    None => {
                        donate(
                            src,
                            req_id,
                            &mut in_flight,
                            &mut answered,
                            &mut next_tid_seq,
                        );
                    }
                },
                Msg::Work {
                    transfer_id,
                    req_id,
                    item,
                } => {
                    // Always (re-)acknowledge: the donor stops resending
                    // only once an ack gets through.
                    comm.send_cloneable(src, LB_TAG, Msg::<W>::Ack { transfer_id });
                    if seen_transfers.contains(&transfer_id) {
                        stats.lock().unwrap().dup_transfers_discarded += 1;
                        bump("lb.dup_transfers_discarded");
                    } else {
                        seen_transfers.insert(transfer_id);
                        queue.push_transferred(item);
                        comm.wake(); // the mesher may be parked empty
                        stats.lock().unwrap().items_received += 1;
                        bump("lb.items_received");
                    }
                    if let Some(p) = outstanding.as_ref().filter(|p| p.req_id == req_id) {
                        // Steal round trip: first request transmission to
                        // first matching work delivery.
                        if let Some(t) = trace {
                            let rtt = comm.now().saturating_sub(p.first_sent);
                            t.observe("lb.steal_rtt_ns", rtt.as_nanos() as u64);
                        }
                        outstanding = None;
                    }
                }
                Msg::Deny { req_id } => {
                    if outstanding.as_ref().is_some_and(|p| p.req_id == req_id) {
                        outstanding = None;
                    }
                }
                Msg::Ack { transfer_id } => {
                    // First donation was counted at first send; the ack
                    // just retires the retransmission entry.
                    in_flight.remove(&transfer_id);
                }
            }
        }

        // Global termination check.
        if all_work_done(window, size) {
            shutdown.store(true, Ordering::Release);
            comm.wake(); // unpark the mesher so it observes shutdown
            return;
        }

        let now = comm.now();

        // Retry a timed-out request.
        let mut give_up = false;
        if let Some(p) = &mut outstanding {
            if now.saturating_sub(p.sent_at) > backoff(REQUEST_TIMEOUT, p.attempts - 1) {
                if p.attempts > MAX_REQUEST_RETRIES {
                    give_up = true;
                } else {
                    comm.send_cloneable(p.victim, LB_TAG, Msg::<W>::Request { req_id: p.req_id });
                    p.sent_at = now;
                    p.attempts += 1;
                    stats.lock().unwrap().request_retries += 1;
                    bump("lb.request_retries");
                }
            }
        }
        if give_up {
            // Abandon this victim; the next pass below may pick a different
            // one. If the old request still produces work it will be
            // accepted (and deduplicated) regardless.
            outstanding = None;
        }

        // Resend unacknowledged donations with capped backoff. These retry
        // forever: the fair-lossy link guarantees delivery, and giving up
        // would lose the item.
        for (tid, f) in in_flight.iter_mut() {
            if now.saturating_sub(f.last_sent) > backoff(RESEND_TIMEOUT, f.attempts - 1) {
                comm.send_cloneable(
                    f.dest,
                    LB_TAG,
                    Msg::Work {
                        transfer_id: *tid,
                        req_id: f.req_id,
                        item: f.item.clone(),
                    },
                );
                f.last_sent = now;
                f.attempts += 1;
                stats.lock().unwrap().work_resends += 1;
                bump("lb.work_resends");
            }
        }

        // Request work before the mesher runs dry (paper: "the
        // communicator thread requests additional work before the mesher
        // thread runs out of work").
        if outstanding.is_none() && queue.load() < cfg.threshold {
            if let Some(victim) = window.argmax_excluding(rank, size) {
                let req_id = ((rank as u64) << 40) | next_req_seq;
                next_req_seq += 1;
                comm.send_cloneable(victim, LB_TAG, Msg::<W>::Request { req_id });
                outstanding = Some(PendingRequest {
                    req_id,
                    victim,
                    sent_at: now,
                    first_sent: now,
                    attempts: 1,
                });
                stats.lock().unwrap().requests_sent += 1;
                bump("lb.requests_sent");
            }
        }

        // Park until the next poll tick, woken early by traffic.
        comm.pause(cfg.poll);
    }
}

/// Runs the two-thread balanced processing loop on one rank. `process` is
/// the mesher body; it may push follow-up work into the queue it is given,
/// so the total number of items is unknown upfront (the paper's recursive
/// decomposition/decoupling, where "subdomains are repeatedly decoupled
/// and sent to other processes").
///
/// `window` must have `size + 2` slots: per-rank load estimates, then the
/// completed-items counter at `size`, then the created-items counter at
/// `size + 1`, which is where the queue's [`WorkQueue::with_counter`] must
/// point. Termination: `completed == created`, checked only after an
/// initial barrier so every rank's seed items are counted.
///
/// With a trace recorder, each processed item gets an `lb.task` span on
/// the rank's mesher lane, and the communicator mirrors its protocol
/// counters (requests, retries, resends, dedup) plus queue-depth and
/// steal-round-trip histograms into the registry. All stamps come from
/// the transport clock, so traces recorded under the simulated transport
/// are replay-identical per seed.
pub fn run_balanced<W, F, R>(
    comm: &Comm,
    queue: Arc<WorkQueue<W>>,
    window: Window,
    cfg: BalancerConfig,
    trace: Option<Tracer>,
    mut process: F,
) -> (Vec<R>, RankStats)
where
    W: WorkItem,
    F: FnMut(W, &WorkQueue<W>) -> R,
    R: Send,
{
    let rank = comm.rank();
    let size = comm.size();
    assert!(window.len() >= size + 2, "the window needs size+2 slots");
    // All seed items must be registered before anyone can observe
    // completed == created.
    comm.barrier();
    let done_slot = size;
    let shutdown = AtomicBool::new(false);
    let busy = AtomicBool::new(false);
    let stats = Mutex::new(RankStats::default());
    if let Some(t) = &trace {
        t.name_track(Track::rank(rank), &format!("rank {rank} mesher"));
        t.name_track(Track::helper(rank), &format!("rank {rank} communicator"));
    }

    let mut results = Vec::new();
    std::thread::scope(|scope| {
        // Communicator thread (the rank's Helper lane). Registration is
        // handshaked through the transport so simulated schedules stay
        // deterministic; on panic the transport is poisoned so peers
        // unwind instead of hanging.
        let transport = comm.transport().clone();
        let (comm_r, queue_r, window_r, cfg_r) = (comm, &queue, &window, &cfg);
        let (busy_r, shutdown_r, stats_r, trace_r) = (&busy, &shutdown, &stats, &trace);
        let communicator = scope.spawn(move || {
            transport.thread_start(rank, Lane::Helper);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let comm_span = trace_r
                    .as_ref()
                    .map(|t| t.span(Track::helper(rank), "communicator"));
                communicator_loop(
                    comm_r,
                    queue_r,
                    window_r,
                    cfg_r,
                    busy_r,
                    shutdown_r,
                    stats_r,
                    trace_r.as_ref(),
                );
                drop(comm_span);
            }));
            match out {
                Ok(()) => transport.thread_exit(rank, Lane::Helper),
                Err(p) => {
                    transport.abort();
                    std::panic::resume_unwind(p);
                }
            }
        });
        comm.transport().await_thread(rank, Lane::Helper);

        // Mesher loop (this thread).
        loop {
            if let Some(item) = queue.pop() {
                busy.store(true, Ordering::Release);
                let span = trace.as_ref().map(|t| t.span(Track::rank(rank), "lb.task"));
                results.push(process(item, &queue));
                if let Some(span) = span {
                    span.close();
                }
                busy.store(false, Ordering::Release);
                stats.lock().unwrap().processed += 1;
                window.fetch_add(done_slot, 1);
            } else {
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                // Park until the communicator queues transferred work,
                // signals shutdown, or traffic arrives for this rank.
                comm.pause(cfg.poll);
            }
        }
        // A raw join on a still-running communicator would block
        // *outside* the transport — under simulation that wedges the
        // cooperative schedule (the join holds the token the
        // communicator needs), and polling `is_finished` ties the
        // replayable schedule to real thread-exit timing. Wait through
        // the transport instead; the raw join then returns promptly.
        comm.transport().join_thread(rank, Lane::Helper);
        communicator.join().expect("communicator panicked");
    });
    // Keep this rank's endpoint alive until every communicator has exited:
    // a peer that observed the completion counter a poll-interval later
    // than us may still have a work request in flight to this rank.
    comm.barrier();
    let s = *stats.lock().unwrap();
    (results, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;

    #[derive(Debug, Clone)]
    struct Job {
        id: usize,
        work: u64,
    }
    impl WorkItem for Job {
        fn cost(&self) -> u64 {
            self.work
        }
    }

    fn spin(units: u64) {
        // Wall-clock work that the optimizer cannot remove, so steals have
        // time to happen regardless of build profile.
        std::thread::sleep(Duration::from_micros(units * 30));
    }

    #[test]
    fn priority_queue_pops_largest_first() {
        let jobs = vec![
            Job { id: 0, work: 5 },
            Job { id: 1, work: 50 },
            Job { id: 2, work: 20 },
        ];
        let q = WorkQueue::with_counter(jobs, Window::new(1), 0);
        assert_eq!(q.load(), 75);
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
        assert_eq!(q.pop().unwrap().id, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_among_equal_costs() {
        let jobs = (0..3).map(|id| Job { id, work: 10 }).collect();
        let q = WorkQueue::with_counter(jobs, Window::new(1), 0);
        assert_eq!(q.pop().unwrap().id, 0);
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
    }

    #[test]
    fn skewed_work_is_balanced_across_ranks() {
        const RANKS: usize = 4;
        const ITEMS: usize = 40;
        let window = Window::new(RANKS + 2);
        let results = run(RANKS, |comm| {
            // All work starts on rank 0.
            let initial: Vec<Job> = if comm.rank() == 0 {
                (0..ITEMS).map(|id| Job { id, work: 20 }).collect()
            } else {
                Vec::new()
            };
            let queue = Arc::new(WorkQueue::with_counter(initial, window.clone(), RANKS + 1));
            let (processed, stats) = run_balanced(
                &comm,
                queue,
                window.clone(),
                BalancerConfig {
                    threshold: 100,
                    poll: Duration::from_micros(100),
                },
                None,
                |job, _q| {
                    spin(job.work);
                    job.id
                },
            );
            (processed, stats)
        });
        // Every item processed exactly once.
        let mut all: Vec<usize> = results.iter().flat_map(|(ids, _)| ids.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
        // Stealing actually happened.
        let received: usize = results.iter().map(|(_, s)| s.items_received).sum();
        assert!(received > 0, "no work was stolen");
        let donated: usize = results.iter().map(|(_, s)| s.items_donated).sum();
        assert_eq!(received, donated);
    }

    #[test]
    fn dynamically_created_work_is_processed() {
        const RANKS: usize = 2;
        // 4 seed items, each spawning 3 children: 16 total.
        let window = Window::new(RANKS + 2);
        let results = run(RANKS, |comm| {
            let initial: Vec<Job> = if comm.rank() == 0 {
                (0..4).map(|id| Job { id, work: 10 }).collect()
            } else {
                Vec::new()
            };
            let queue = Arc::new(WorkQueue::with_counter(initial, window.clone(), RANKS + 1));
            let (processed, _stats) = run_balanced(
                &comm,
                queue,
                window.clone(),
                BalancerConfig::default(),
                None,
                |job, q| {
                    spin(job.work);
                    if job.id < 4 {
                        for k in 0..3 {
                            q.push(Job {
                                id: 4 + job.id * 3 + k,
                                work: 5,
                            });
                        }
                    }
                    job.id
                },
            );
            processed
        });
        let mut all: Vec<usize> = results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn single_rank_degenerates_to_sequential() {
        let window = Window::new(3);
        let results = run(1, |comm| {
            let jobs = (0..10).map(|id| Job { id, work: 1 }).collect();
            let queue = Arc::new(WorkQueue::with_counter(jobs, window.clone(), 2));
            let cfg = BalancerConfig::default();
            run_balanced(&comm, queue, window.clone(), cfg, None, |job, _| job.id).0
        });
        assert_eq!(results[0].len(), 10);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let base = Duration::from_millis(1);
        assert_eq!(backoff(base, 0), base);
        assert_eq!(backoff(base, 1), base * 2);
        assert_eq!(backoff(base, 3), base * 8);
        assert_eq!(backoff(base, 6), base * 64);
        // Capped: further attempts keep the ceiling.
        assert_eq!(backoff(base, 7), base * 64);
        assert_eq!(backoff(base, 40), base * 64);
    }
}
