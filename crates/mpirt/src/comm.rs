//! Rank abstraction and point-to-point messaging.
//!
//! `adm-mpirt` models the paper's MPI layer on a single machine: each
//! *rank* is an OS thread with private data, and all communication goes
//! through explicit messages (or the RMA window in [`crate::window`]) —
//! no shared mutable state leaks between ranks, preserving the
//! distributed-memory programming model of the original implementation
//! (MPICH v3.0, paper §III). The wire itself is a pluggable
//! [`Transport`]: real threads in production, a seeded discrete-event
//! simulation under test.

use crate::transport::{Lane, Payload, RawMsg, ThreadedTransport, Transport};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Per-rank communicator handle (the `MPI_COMM_WORLD` view of one rank).
pub struct Comm {
    rank: usize,
    size: usize,
    transport: Arc<dyn Transport>,
    /// Messages received but not yet matched by a `recv` call.
    /// A `Mutex` (uncontended: only this rank touches it) keeps `Comm`
    /// `Sync`, so the mesher and communicator threads can share one handle.
    pending: std::sync::Mutex<VecDeque<RawMsg>>,
}

/// Builds the per-rank communicator handles over any transport.
pub fn comms_for(transport: Arc<dyn Transport>) -> Vec<Comm> {
    let size = transport.size();
    (0..size)
        .map(|rank| Comm {
            rank,
            size,
            transport: transport.clone(),
            pending: std::sync::Mutex::new(VecDeque::new()),
        })
        .collect()
}

/// Source selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Any source (`MPI_ANY_SOURCE`).
    Any,
    /// A specific rank.
    Rank(usize),
}

impl Comm {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The underlying transport.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Transport clock (wall time in production, virtual time under
    /// simulation). Protocol timeouts must use this, never `Instant`.
    pub fn now(&self) -> Duration {
        self.transport.now()
    }

    /// Sends `value` to `dest` with `tag` (non-blocking, buffered).
    pub fn send<T: Send + 'static>(&self, dest: usize, tag: u64, value: T) {
        self.transport
            .send(self.rank, dest, tag, Payload::opaque(value));
    }

    /// Like [`Comm::send`], for payloads the fault-injecting transport is
    /// allowed to duplicate in flight. Protocols that dedup on receipt
    /// (the load balancer) send through this.
    pub fn send_cloneable<T: Clone + Send + 'static>(&self, dest: usize, tag: u64, value: T) {
        self.transport
            .send(self.rank, dest, tag, Payload::cloneable(value));
    }

    /// Blocking receive matching `(src, tag)` and payload type `T`.
    /// Non-matching messages are buffered for later receives (MPI matching
    /// semantics). Panics if a matching envelope has the wrong type.
    pub fn recv<T: Send + 'static>(&self, src: Src, tag: u64) -> (usize, T) {
        // Scan the pending buffer first.
        {
            let mut pending = self.pending.lock().unwrap();
            if let Some(pos) = pending
                .iter()
                .position(|e| e.tag == tag && src_matches(src, e.src))
            {
                let e = pending.remove(pos).unwrap();
                return unwrap_payload(e);
            }
        }
        loop {
            let e = self.transport.recv_next(self.rank);
            if e.tag == tag && src_matches(src, e.src) {
                return unwrap_payload(e);
            }
            self.pending.lock().unwrap().push_back(e);
        }
    }

    /// Non-blocking receive; returns `None` when no matching message is
    /// available right now.
    pub fn try_recv<T: Send + 'static>(&self, src: Src, tag: u64) -> Option<(usize, T)> {
        {
            let mut pending = self.pending.lock().unwrap();
            if let Some(pos) = pending
                .iter()
                .position(|e| e.tag == tag && src_matches(src, e.src))
            {
                let e = pending.remove(pos).unwrap();
                return Some(unwrap_payload(e));
            }
        }
        while let Some(e) = self.transport.try_poll(self.rank) {
            if e.tag == tag && src_matches(src, e.src) {
                return Some(unwrap_payload(e));
            }
            self.pending.lock().unwrap().push_back(e);
        }
        None
    }

    /// Idles for up to `dur`; wakes early on incoming traffic or
    /// [`Comm::wake`]. The sanctioned replacement for sleep-polling.
    pub fn pause(&self, dur: Duration) {
        self.transport.pause(self.rank, dur);
    }

    /// Wakes this rank's paused threads (e.g. the mesher waiting for the
    /// communicator to queue transferred work).
    pub fn wake(&self) {
        self.transport.notify(self.rank);
    }

    /// Accounts `dur` of local compute against the transport clock: free
    /// in production (the work itself already took the time), but
    /// advances virtual time under simulation so load metrics and
    /// protocol timeouts see realistic task durations. `dur` must be a
    /// deterministic function of the work, never a measured elapsed time.
    pub fn advance(&self, dur: Duration) {
        self.transport.advance(self.rank, dur);
    }

    /// Synchronizes all ranks.
    pub fn barrier(&self) {
        self.transport.barrier(self.rank);
    }
}

#[inline]
fn src_matches(sel: Src, actual: usize) -> bool {
    match sel {
        Src::Any => true,
        Src::Rank(r) => r == actual,
    }
}

fn unwrap_payload<T: 'static>(e: RawMsg) -> (usize, T) {
    let src = e.src;
    match e.payload.downcast::<T>() {
        Ok(v) => (src, *v),
        Err(_) => panic!(
            "type mismatch for message from rank {src} tag: expected {}",
            std::any::type_name::<T>()
        ),
    }
}

/// Spawns `size` ranks running `body` and returns their results in rank
/// order. This is the `mpiexec` of the runtime.
pub fn run<R, F>(size: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(Comm) -> R + Sync,
{
    run_with(Arc::new(ThreadedTransport::new(size)), body)
}

/// [`run`] over an explicit transport (the entry point for fault-injected
/// simulation runs).
pub fn run_with<R, F>(transport: Arc<dyn Transport>, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(Comm) -> R + Sync,
{
    let comms = comms_for(transport.clone());
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                let body = &body;
                let transport = transport.clone();
                scope.spawn(move || {
                    transport.thread_start(rank, Lane::Main);
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(comm)));
                    match out {
                        Ok(v) => {
                            transport.thread_exit(rank, Lane::Main);
                            v
                        }
                        Err(p) => {
                            // Poison the transport so peers blocked on this
                            // rank unwind instead of hanging the test run.
                            transport.abort();
                            std::panic::resume_unwind(p);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results = run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, comm.rank() as u64);
            let (src, v) = comm.recv::<u64>(Src::Rank(prev), 7);
            (src, v)
        });
        for (rank, (src, v)) in results.iter().enumerate() {
            let prev = (rank + 3) % 4;
            assert_eq!(*src, prev);
            assert_eq!(*v as usize, prev);
        }
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        let results = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, "first".to_string());
                comm.send(1, 2, "second".to_string());
                String::new()
            } else {
                // Receive tag 2 first: tag-1 message must be buffered.
                let (_, b) = comm.recv::<String>(Src::Rank(0), 2);
                let (_, a) = comm.recv::<String>(Src::Rank(0), 1);
                format!("{b}/{a}")
            }
        });
        assert_eq!(results[1], "second/first");
    }

    #[test]
    fn any_source_receive() {
        let results = run(3, |comm| {
            if comm.rank() == 0 {
                let mut got = Vec::new();
                for _ in 0..2 {
                    let (src, v) = comm.recv::<usize>(Src::Any, 5);
                    got.push((src, v));
                }
                got.sort_unstable();
                got
            } else {
                comm.send(0, 5, comm.rank() * 10);
                vec![]
            }
        });
        assert_eq!(results[0], vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn try_recv_nonblocking() {
        let results = run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier(); // rank 1 polls before anything is sent
                comm.send(1, 9, 42u32);
                comm.barrier();
                0
            } else {
                let early = comm.try_recv::<u32>(Src::Any, 9);
                assert!(early.is_none());
                comm.barrier();
                comm.barrier();
                // Message is now in flight or delivered.
                let (_, v) = comm.recv::<u32>(Src::Any, 9);
                v
            }
        });
        assert_eq!(results[1], 42);
    }

    #[test]
    fn typed_payloads_roundtrip() {
        #[derive(Debug, PartialEq, Clone)]
        struct Sub {
            pts: Vec<(f64, f64)>,
            level: u32,
        }
        let results = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(
                    1,
                    3,
                    Sub {
                        pts: vec![(1.0, 2.0), (3.0, 4.0)],
                        level: 7,
                    },
                );
                None
            } else {
                Some(comm.recv::<Sub>(Src::Rank(0), 3).1)
            }
        });
        let got = results[1].clone().unwrap();
        assert_eq!(got.level, 7);
        assert_eq!(got.pts.len(), 2);
    }
}
