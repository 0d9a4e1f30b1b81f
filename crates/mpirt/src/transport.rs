//! The transport abstraction under [`crate::comm::Comm`].
//!
//! The runtime's message plumbing is a swappable layer: the production
//! [`ThreadedTransport`] moves envelopes between OS threads with condvar
//! wakeups (no busy polling), while [`crate::simfault::SimTransport`]
//! replaces real time with a seeded discrete-event schedule and injects
//! message faults. Everything a rank does that can *block* or *order*
//! events — sends, receives, barrier, poll pauses, RMA window traffic —
//! goes through this trait, which is what makes a run replayable from a
//! seed.

use crate::window::Window;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which thread of a rank is talking to the transport. Every rank has a
/// `Main` lane (the mesher / user body); the load balancer adds one
/// `Helper` lane (the communicator thread). The simulator schedules by
/// `(rank, lane)`, so lane identity must be stable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// The rank's body thread (mesher).
    Main,
    /// The communicator thread.
    Helper,
}

/// An untyped message as carried by a transport.
pub struct RawMsg {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: u64,
    /// The boxed value.
    pub payload: Box<dyn Any + Send>,
}

type Cloner = Arc<dyn Fn(&(dyn Any + Send)) -> Box<dyn Any + Send> + Send + Sync>;

/// A message payload handed to [`Transport::send`]. Payloads built with
/// [`Payload::cloneable`] carry a deep-copy hook, which is what lets the
/// fault injector *duplicate* them; opaque payloads are exempt from
/// duplication (but not from delay or reordering).
pub struct Payload {
    value: Box<dyn Any + Send>,
    cloner: Option<Cloner>,
}

impl Payload {
    /// Wraps a value that cannot be copied in flight.
    pub fn opaque<T: Send + 'static>(value: T) -> Self {
        Payload {
            value: Box::new(value),
            cloner: None,
        }
    }

    /// Wraps a value the transport may duplicate (fault injection).
    pub fn cloneable<T: Clone + Send + 'static>(value: T) -> Self {
        Payload {
            value: Box::new(value),
            cloner: Some(Arc::new(|any: &(dyn Any + Send)| {
                let v: &T = any.downcast_ref::<T>().expect("cloner type invariant");
                Box::new(v.clone())
            })),
        }
    }

    /// `true` when the payload may be duplicated (and, by the fault
    /// model's contract, dropped: only retry-protocol messages opt in).
    pub fn is_cloneable(&self) -> bool {
        self.cloner.is_some()
    }

    /// Deep-copies the payload when it was built with `cloneable`.
    pub fn try_clone(&self) -> Option<Payload> {
        self.cloner.as_ref().map(|c| Payload {
            value: c(self.value.as_ref()),
            cloner: Some(c.clone()),
        })
    }

    /// Unwraps the boxed value.
    pub fn into_value(self) -> Box<dyn Any + Send> {
        self.value
    }
}

/// A pluggable communication fabric for `size` ranks.
///
/// All methods take the calling rank explicitly; the simulator
/// additionally identifies the calling *thread* (lane) to schedule it.
pub trait Transport: Send + Sync {
    /// Number of ranks.
    fn size(&self) -> usize;

    /// Monotonic clock: wall time on the real transport, virtual time in
    /// simulation. Protocol timeouts must be measured with this.
    fn now(&self) -> Duration;

    /// Queues `payload` from `src` to `dest` (non-blocking, buffered).
    fn send(&self, src: usize, dest: usize, tag: u64, payload: Payload);

    /// Next undelivered envelope for `rank`, if any (non-blocking).
    fn try_poll(&self, rank: usize) -> Option<RawMsg>;

    /// Blocks until an envelope for `rank` arrives.
    fn recv_next(&self, rank: usize) -> RawMsg;

    /// Sleeps up to `dur`; may return early when a message arrives for
    /// `rank` or [`Transport::notify`] is called. This is the *only*
    /// sanctioned way for runtime loops to idle.
    fn pause(&self, rank: usize, dur: Duration);

    /// Accounts `dur` of local compute against the transport clock.
    /// A no-op in real time (the work itself already took it); the
    /// simulator advances virtual time — uninterruptibly, unlike
    /// [`Transport::pause`] — so load metrics and protocol timeouts see
    /// realistic task durations. `dur` must be a deterministic function
    /// of the work (never a measured elapsed time), or replay breaks.
    fn advance(&self, _rank: usize, _dur: Duration) {}

    /// Wakes any thread of `rank` blocked in [`Transport::pause`].
    fn notify(&self, rank: usize);

    /// Synchronizes all ranks (one call per rank).
    fn barrier(&self, rank: usize);

    /// Allocates an RMA window wired to this transport's fault model.
    fn window(&self, len: usize) -> Window;

    /// Announces the calling OS thread as `(rank, lane)`. The simulator
    /// blocks here until the thread is granted the schedule token.
    fn thread_start(&self, _rank: usize, _lane: Lane) {}

    /// Retires the calling thread from scheduling. Must be the thread's
    /// last transport call.
    fn thread_exit(&self, _rank: usize, _lane: Lane) {}

    /// Blocks (without yielding the schedule token) until `(rank, lane)`
    /// has registered — the spawn handshake that keeps thread creation
    /// deterministic under simulation.
    fn await_thread(&self, _rank: usize, _lane: Lane) {}

    /// Blocks until `(rank, lane)` has retired via
    /// [`Transport::thread_exit`], yielding the schedule token while
    /// waiting. Must precede any raw `JoinHandle::join` on a registered
    /// thread: a raw join blocks *outside* the transport, wedging the
    /// simulated schedule, and polling `is_finished` would tie the
    /// replayable schedule to real thread-exit timing. A no-op on the
    /// real transport, where the raw join alone is safe.
    fn join_thread(&self, _rank: usize, _lane: Lane) {}

    /// Marks the run as failed so peers blocked in the transport unwind
    /// instead of hanging. Called on the panic path.
    fn abort(&self) {}
}

/// [`adm_trace::Clock`] backed by [`Transport::now`]: wall time on the
/// threaded transport, the cooperative scheduler's virtual time under
/// simulation. Traces stamped through this clock are replay-stable —
/// the same simulation seed reproduces them byte-for-byte.
pub struct TransportClock(Arc<dyn Transport>);

impl TransportClock {
    /// Wraps a transport as a trace clock.
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        TransportClock(transport)
    }
}

impl adm_trace::Clock for TransportClock {
    fn now(&self) -> Duration {
        self.0.now()
    }
}

/// One rank's mailbox on the threaded transport. The condvar covers both
/// message arrival and explicit [`Transport::notify`] wakeups, so idle
/// loops park instead of spinning.
struct Endpoint {
    /// (queue, wake epoch): the epoch advances on every send/notify so a
    /// pause that raced a wakeup still observes it.
    inbox: Mutex<(VecDeque<RawMsg>, u64)>,
    signal: Condvar,
}

/// The production transport: one mailbox per rank, real time, reliable
/// in-order delivery.
pub struct ThreadedTransport {
    endpoints: Vec<Endpoint>,
    barrier: std::sync::Barrier,
    origin: Instant,
}

impl ThreadedTransport {
    /// Creates a fabric for `size` ranks.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1);
        ThreadedTransport {
            endpoints: (0..size)
                .map(|_| Endpoint {
                    inbox: Mutex::new((VecDeque::new(), 0)),
                    signal: Condvar::new(),
                })
                .collect(),
            barrier: std::sync::Barrier::new(size),
            origin: Instant::now(),
        }
    }
}

impl Transport for ThreadedTransport {
    fn size(&self) -> usize {
        self.endpoints.len()
    }

    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn send(&self, src: usize, dest: usize, tag: u64, payload: Payload) {
        let ep = &self.endpoints[dest];
        let mut g = ep.inbox.lock().unwrap();
        g.0.push_back(RawMsg {
            src,
            tag,
            payload: payload.into_value(),
        });
        g.1 += 1;
        drop(g);
        ep.signal.notify_all();
    }

    fn try_poll(&self, rank: usize) -> Option<RawMsg> {
        self.endpoints[rank].inbox.lock().unwrap().0.pop_front()
    }

    fn recv_next(&self, rank: usize) -> RawMsg {
        let ep = &self.endpoints[rank];
        let mut g = ep.inbox.lock().unwrap();
        loop {
            if let Some(m) = g.0.pop_front() {
                return m;
            }
            g = ep.signal.wait(g).unwrap();
        }
    }

    fn pause(&self, rank: usize, dur: Duration) {
        let ep = &self.endpoints[rank];
        let deadline = Instant::now() + dur;
        let mut g = ep.inbox.lock().unwrap();
        let epoch = g.1;
        // Park until woken (new message / notify) or the interval elapses;
        // an epoch advance between snapshot and wait is caught by the
        // pre-wait check, so no wakeup is lost.
        while g.1 == epoch && g.0.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, timeout) = ep.signal.wait_timeout(g, deadline - now).unwrap();
            g = guard;
            if timeout.timed_out() {
                return;
            }
        }
    }

    fn notify(&self, rank: usize) {
        let ep = &self.endpoints[rank];
        let mut g = ep.inbox.lock().unwrap();
        g.1 += 1;
        drop(g);
        ep.signal.notify_all();
    }

    fn barrier(&self, _rank: usize) {
        self.barrier.wait();
    }

    fn window(&self, len: usize) -> Window {
        Window::new(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_poll_roundtrip() {
        let t = ThreadedTransport::new(2);
        t.send(0, 1, 7, Payload::opaque(41u32));
        let m = t.try_poll(1).expect("message queued");
        assert_eq!(m.src, 0);
        assert_eq!(m.tag, 7);
        assert_eq!(*m.payload.downcast::<u32>().unwrap(), 41);
        assert!(t.try_poll(1).is_none());
    }

    #[test]
    fn pause_wakes_on_send() {
        let t = Arc::new(ThreadedTransport::new(2));
        let t2 = t.clone();
        let start = Instant::now();
        let h = std::thread::spawn(move || {
            // Long pause, woken early by traffic.
            t2.pause(1, Duration::from_secs(5));
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        t.send(0, 1, 1, Payload::opaque(()));
        let waited = h.join().unwrap();
        assert!(waited < Duration::from_secs(2), "pause did not wake early");
    }

    #[test]
    fn pause_times_out_without_traffic() {
        let t = ThreadedTransport::new(1);
        let start = Instant::now();
        t.pause(0, Duration::from_millis(10));
        assert!(start.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn cloneable_payload_duplicates() {
        let p = Payload::cloneable(vec![1u8, 2, 3]);
        let q = p.try_clone().expect("cloneable");
        assert_eq!(
            *q.into_value().downcast::<Vec<u8>>().unwrap(),
            vec![1u8, 2, 3]
        );
        // The original is still intact.
        assert_eq!(
            *p.into_value().downcast::<Vec<u8>>().unwrap(),
            vec![1u8, 2, 3]
        );
        assert!(Payload::opaque(5u8).try_clone().is_none());
    }
}
