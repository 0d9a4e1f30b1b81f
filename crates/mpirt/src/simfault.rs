//! Deterministic fault-injecting transport (the chaos-test engine).
//!
//! [`SimTransport`] replaces the threaded fabric with a seeded
//! discrete-event simulation: OS threads still execute the real runtime
//! code, but exactly **one** thread runs at a time (a cooperative
//! scheduling token), every blocking transport call is a yield point, and
//! the clock is *virtual* — it advances only when every thread is blocked,
//! jumping straight to the next message delivery or pause deadline. All
//! scheduling choices and fault decisions come from one [`DetRng`] stream
//! seeded by [`FaultPlan::seed`], so a seed fully determines the
//! interleaving, the message faults, and therefore the entire run: replay
//! a failing seed and the identical event trace unfolds (checked via
//! [`SimTransport::fingerprint`]).
//!
//! The fault model, per message and per seed:
//! - **latency + jitter**, with a *heavy-delay* probability that stretches
//!   individual messages enough to reorder them behind later sends;
//! - **drop** and **duplication** — applied only to payloads sent with
//!   [`crate::comm::Comm::send_cloneable`], i.e. messages a retry/dedup
//!   protocol has explicitly opted in; drops per (src, dest, tag) channel
//!   are capped at [`FaultPlan::max_consecutive_drops`] in a row (a
//!   *fair-lossy* link), which is what makes retry protocols live;
//! - **communicator stall**: one rank's pauses and sends are stretched by
//!   a factor inside a virtual-time window;
//! - **stale RMA estimates**: victim-selection reads of the work-estimate
//!   window may observe historical values (see [`WindowHook`]), while
//!   termination counters stay exact.
//!
//! Failure detection is part of the transport: if no thread is runnable
//! and no event is pending, the run is declared a **deadlock**; if virtual
//! time exceeds [`FaultPlan::max_virtual_ns`], a **livelock / lost work**
//! (e.g. a dropped transfer nobody retries). Either poisons the
//! simulation, and every blocked thread panics with the reason instead of
//! hanging the test suite.

use crate::transport::{Lane, Payload, RawMsg, Transport};
use crate::window::{Window, WindowHook};
use adm_simnet::{DetRng, EventQueue};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Stall window for one rank (victim chosen as `victim_salt % size` so a
/// plan is independent of the rank count it is applied to).
#[derive(Debug, Clone, Copy)]
pub struct StallPlan {
    /// Selects the stalled rank: `victim_salt % size`.
    pub victim_salt: u64,
    /// Virtual time (ns) the stall begins.
    pub from_ns: u64,
    /// Virtual time (ns) the stall ends.
    pub until_ns: u64,
    /// Multiplier applied to the victim's pauses and send latencies.
    pub factor: u64,
}

/// Seeded description of a simulated run: scheduling seed plus fault
/// probabilities. Everything is public so tests can craft exact regimes;
/// [`FaultPlan::default`] (fault-free) and [`FaultPlan::chaos`] cover the
/// common ones.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the single RNG stream driving scheduling and faults.
    pub seed: u64,
    /// Base message latency (virtual ns).
    pub min_latency_ns: u64,
    /// Uniform extra latency in `[0, jitter_ns]`.
    pub jitter_ns: u64,
    /// Probability a message is *heavily* delayed (reordering).
    pub heavy_delay_p: f64,
    /// Latency multiplier for heavily delayed messages.
    pub heavy_factor: u64,
    /// Drop probability (cloneable payloads only).
    pub drop_p: f64,
    /// Fair-lossy cap: at most this many drops in a row per channel.
    pub max_consecutive_drops: u32,
    /// Duplication probability (cloneable payloads only).
    pub dup_p: f64,
    /// Optional communicator stall.
    pub stall: Option<StallPlan>,
    /// Probability a work-estimate slot read returns a stale value.
    pub stale_p: f64,
    /// Virtual-time budget; exceeding it poisons the run as a livelock.
    pub max_virtual_ns: u64,
}

/// The fault-free plan (seed 0): deterministic scheduling and small
/// latencies, but no drops, duplicates, stalls, or stale reads. Fault
/// programs are this plan with some fields overridden.
impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            min_latency_ns: 1_000,
            jitter_ns: 4_000,
            heavy_delay_p: 0.0,
            heavy_factor: 1,
            drop_p: 0.0,
            max_consecutive_drops: 0,
            dup_p: 0.0,
            stall: None,
            stale_p: 0.0,
            max_virtual_ns: 60_000_000_000,
        }
    }
}

impl FaultPlan {
    /// An adversarial plan whose entire regime (which faults are active
    /// and how hard) is derived from `seed`, so sweeping seeds explores
    /// qualitatively different failure modes, not just different dice.
    pub fn chaos(seed: u64) -> Self {
        let mut r = DetRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A0_5FA1);
        FaultPlan {
            seed,
            min_latency_ns: 500 + r.range(0, 5_000),
            jitter_ns: r.range(1_000, 60_000),
            heavy_delay_p: 0.15 * r.unit(),
            heavy_factor: 10 + r.range(0, 90),
            drop_p: if r.chance(0.7) {
                0.03 + 0.27 * r.unit()
            } else {
                0.0
            },
            max_consecutive_drops: 2 + r.range(0, 3) as u32,
            dup_p: if r.chance(0.5) {
                0.02 + 0.18 * r.unit()
            } else {
                0.0
            },
            stall: if r.chance(0.4) {
                Some(StallPlan {
                    victim_salt: r.next_u64(),
                    from_ns: r.range(0, 50_000_000),
                    until_ns: 100_000_000 + r.range(0, 400_000_000),
                    factor: 5 + r.range(0, 45),
                })
            } else {
                None
            },
            stale_p: if r.chance(0.6) {
                0.1 + 0.4 * r.unit()
            } else {
                0.0
            },
            max_virtual_ns: 10_000_000_000,
        }
    }
}

/// Where a registered thread currently stands with the scheduler.
#[derive(Debug, Clone, Copy)]
enum ThreadState {
    /// Eligible for the token.
    Runnable,
    /// Blocked in `recv_next` on an empty mailbox.
    Recv,
    /// Idling until `deadline` (or earlier traffic/notify).
    Pause { deadline: u64 },
    /// Modeled local compute until `deadline`: unlike `Pause`, traffic
    /// and notify do *not* cut it short.
    Compute { deadline: u64 },
    /// Waiting for `target` to retire via `thread_exit`.
    Join { target: (usize, Lane) },
    /// Waiting at the barrier generation `gen`.
    Barrier { gen: u64 },
}

struct Deliver {
    dest: usize,
    msg: RawMsg,
}

struct State {
    now: u64,
    rng: DetRng,
    events: EventQueue<u64, Deliver>,
    threads: BTreeMap<(usize, Lane), ThreadState>,
    /// Every `(rank, lane)` that ever registered (insert-only), for the
    /// `await_thread` handshake.
    registered: BTreeSet<(usize, Lane)>,
    running: Option<(usize, Lane)>,
    /// The start gate: no token is granted until all `size` Main lanes
    /// registered, so the first scheduling decision sees a complete,
    /// deterministic candidate set.
    gate_open: bool,
    started_mains: usize,
    mailboxes: Vec<VecDeque<RawMsg>>,
    barrier_gen: u64,
    barrier_arrived: usize,
    /// Consecutive-drop counters per (src, dest, tag) channel.
    chan_drops: BTreeMap<(usize, usize, u64), u32>,
    poisoned: Option<String>,
    trace_hash: u64,
    trace_len: u64,
}

// Trace event codes (FNV-mixed into the fingerprint).
const TR_SCHED: u64 = 1;
const TR_SEND: u64 = 2;
const TR_DROP: u64 = 3;
const TR_DUP: u64 = 4;
const TR_DELIVER: u64 = 5;
const TR_RECV: u64 = 6;
const TR_BARRIER: u64 = 7;
const TR_START: u64 = 8;
const TR_EXIT: u64 = 9;

fn lane_code(l: Lane) -> u64 {
    match l {
        Lane::Main => 0,
        Lane::Helper => 1,
    }
}

struct Core {
    id: usize,
    size: usize,
    plan: FaultPlan,
    stall_rank: Option<usize>,
    state: Mutex<State>,
    cv: Condvar,
}

static NEXT_SIM_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// (sim id, rank, lane) of the simulation this OS thread registered
    /// with, if any. The id disambiguates concurrent simulations in one
    /// test process.
    static SIM_IDENT: Cell<Option<(usize, usize, Lane)>> = const { Cell::new(None) };
}

impl Core {
    /// Locks ignoring mutex poisoning: a panicking thread (sim poison)
    /// must not cascade into `PoisonError` panics elsewhere.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn ident(&self) -> Option<(usize, Lane)> {
        SIM_IDENT
            .with(|c| c.get())
            .and_then(|(id, r, l)| (id == self.id).then_some((r, l)))
    }

    fn trace(st: &mut State, words: &[u64]) {
        // FNV-1a over the event words.
        let mut h = st.trace_hash;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01B3);
            }
        }
        st.trace_hash = h;
        st.trace_len += 1;
    }

    fn check_poison(st: &State) {
        if let Some(r) = &st.poisoned {
            panic!("sim aborted: {r}");
        }
    }

    fn poison(&self, st: &mut State, reason: String) {
        if st.poisoned.is_none() {
            st.poisoned = Some(reason);
        }
        self.cv.notify_all();
    }

    fn is_stalled(&self, rank: usize, now: u64) -> Option<u64> {
        let s = self.plan.stall?;
        (self.stall_rank == Some(rank) && s.from_ns <= now && now < s.until_ns)
            .then_some(s.factor.max(1))
    }

    /// Grants the token to the next runnable thread, advancing virtual
    /// time when nothing is runnable. Poisons the sim on deadlock or
    /// virtual-budget exhaustion. The caller must already have recorded
    /// its own new state (Runnable to stay a candidate, or a blocked
    /// variant).
    fn reschedule(&self, st: &mut State) {
        st.running = None;
        loop {
            if st.poisoned.is_some() {
                return;
            }
            let runnable: Vec<(usize, Lane)> = st
                .threads
                .iter()
                .filter(|(_, s)| matches!(s, ThreadState::Runnable))
                .map(|(k, _)| *k)
                .collect();
            if !runnable.is_empty() {
                let idx = if runnable.len() == 1 {
                    0
                } else {
                    st.rng.range(0, runnable.len() as u64) as usize
                };
                let chosen = runnable[idx];
                st.running = Some(chosen);
                let now = st.now;
                Self::trace(st, &[TR_SCHED, chosen.0 as u64, lane_code(chosen.1), now]);
                self.cv.notify_all();
                return;
            }
            if st.threads.is_empty() {
                // Run complete: every thread exited.
                return;
            }
            if !self.advance_time(st) {
                let dump: Vec<String> = st
                    .threads
                    .iter()
                    .map(|((r, l), s)| format!("r{r}/{l:?}:{s:?}"))
                    .collect();
                self.poison(
                    st,
                    format!(
                        "deadlock at t={}ns: no runnable thread, no pending event; threads: [{}]",
                        st.now,
                        dump.join(", ")
                    ),
                );
                return;
            }
            if st.now > self.plan.max_virtual_ns {
                self.poison(
                    st,
                    format!(
                        "virtual-time budget exceeded ({} ns > {} ns): livelock or lost work",
                        st.now, self.plan.max_virtual_ns
                    ),
                );
                return;
            }
        }
    }

    /// Jumps the clock to the next delivery or pause deadline and applies
    /// everything due. Returns `false` when there is nothing to wait for.
    fn advance_time(&self, st: &mut State) -> bool {
        let t_ev = st.events.peek_time();
        let t_pause = st
            .threads
            .values()
            .filter_map(|s| match s {
                ThreadState::Pause { deadline } | ThreadState::Compute { deadline } => {
                    Some(*deadline)
                }
                _ => None,
            })
            .min();
        let target = match (t_ev, t_pause) {
            (None, None) => return false,
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (Some(a), Some(b)) => a.min(b),
        };
        st.now = st.now.max(target);
        while st.events.peek_time().is_some_and(|t| t <= st.now) {
            let (_, d) = st.events.pop().expect("peeked event");
            Self::deliver(st, d);
        }
        for s in st.threads.values_mut() {
            if let ThreadState::Pause { deadline } | ThreadState::Compute { deadline } = s {
                if *deadline <= st.now {
                    *s = ThreadState::Runnable;
                }
            }
        }
        true
    }

    /// Puts a message in its destination mailbox and wakes that rank's
    /// receive- or pause-blocked threads.
    fn deliver(st: &mut State, d: Deliver) {
        let now = st.now;
        Self::trace(
            st,
            &[TR_DELIVER, d.dest as u64, d.msg.src as u64, d.msg.tag, now],
        );
        st.mailboxes[d.dest].push_back(d.msg);
        for ((r, _), s) in st.threads.iter_mut() {
            if *r == d.dest && matches!(s, ThreadState::Recv | ThreadState::Pause { .. }) {
                *s = ThreadState::Runnable;
            }
        }
    }

    /// Blocks the calling OS thread until it holds the schedule token.
    fn wait_token(&self, mut st: MutexGuard<'_, State>, me: (usize, Lane)) {
        loop {
            Self::check_poison(&st);
            if st.running == Some(me) {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A scheduling yield point: give every runnable thread a chance to be
    /// scheduled before the caller proceeds. No-op for unregistered
    /// threads (e.g. the test main thread touching a window).
    fn yield_now(&self) {
        let Some(me) = self.ident() else { return };
        let mut st = self.lock();
        Self::check_poison(&st);
        self.reschedule(&mut st);
        self.wait_token(st, me);
    }
}

/// The seeded fault-injecting transport. Create one per simulated run and
/// hand it to [`crate::comm::run_with`]; inspect
/// [`SimTransport::fingerprint`] afterwards to compare event traces
/// across replays.
#[derive(Clone)]
pub struct SimTransport {
    core: Arc<Core>,
}

impl SimTransport {
    /// Creates a fabric for `size` ranks governed by `plan`.
    pub fn new(size: usize, plan: FaultPlan) -> Self {
        assert!(size >= 1);
        let stall_rank = plan.stall.map(|s| (s.victim_salt % size as u64) as usize);
        let rng = DetRng::new(plan.seed);
        SimTransport {
            core: Arc::new(Core {
                id: NEXT_SIM_ID.fetch_add(1, Ordering::Relaxed),
                size,
                plan,
                stall_rank,
                state: Mutex::new(State {
                    now: 0,
                    rng,
                    events: EventQueue::new(),
                    threads: BTreeMap::new(),
                    registered: BTreeSet::new(),
                    running: None,
                    gate_open: false,
                    started_mains: 0,
                    mailboxes: (0..size).map(|_| VecDeque::new()).collect(),
                    barrier_gen: 0,
                    barrier_arrived: 0,
                    chan_drops: BTreeMap::new(),
                    poisoned: None,
                    trace_hash: 0xCBF2_9CE4_8422_2325, // FNV offset basis
                    trace_len: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// (hash, event count) of everything that happened so far — two runs
    /// of the same seed must report identical fingerprints.
    pub fn fingerprint(&self) -> (u64, u64) {
        let st = self.core.lock();
        (st.trace_hash, st.trace_len)
    }

    /// Current virtual time in nanoseconds.
    #[cfg(test)]
    fn virtual_now_ns(&self) -> u64 {
        self.core.lock().now
    }
}

impl Transport for SimTransport {
    fn size(&self) -> usize {
        self.core.size
    }

    fn now(&self) -> Duration {
        Duration::from_nanos(self.core.lock().now)
    }

    fn send(&self, src: usize, dest: usize, tag: u64, payload: Payload) {
        let core = &self.core;
        let me = core.ident();
        let mut st = core.lock();
        Core::check_poison(&st);
        let plan = &core.plan;
        let faultable = payload.is_cloneable();

        // Drop? Only protocol (cloneable) messages, and never more than
        // max_consecutive_drops in a row on one channel (fair-lossy link).
        let mut dropped = false;
        if faultable && plan.drop_p > 0.0 {
            let key = (src, dest, tag);
            let count = *st.chan_drops.entry(key).or_insert(0);
            let cap_ok = count < plan.max_consecutive_drops;
            if cap_ok && st.rng.chance(plan.drop_p) {
                st.chan_drops.insert(key, count + 1);
                dropped = true;
                let now = st.now;
                Core::trace(&mut st, &[TR_DROP, src as u64, dest as u64, tag, now]);
            } else {
                st.chan_drops.insert(key, 0);
            }
        }

        if !dropped {
            let mut latency = plan.min_latency_ns + st.rng.range(0, plan.jitter_ns + 1);
            if st.rng.chance(plan.heavy_delay_p) {
                latency = latency.saturating_mul(plan.heavy_factor.max(1));
            }
            if let Some(f) = core.is_stalled(src, st.now) {
                latency = latency.saturating_mul(f);
            }
            let deliver_at = st.now + latency.max(1);

            // Duplicate? Schedule an independent second delivery.
            if faultable && st.rng.chance(plan.dup_p) {
                if let Some(copy) = payload.try_clone() {
                    let extra = plan.min_latency_ns + st.rng.range(0, plan.jitter_ns + 1);
                    let dup_at = st.now + extra.max(1);
                    Core::trace(&mut st, &[TR_DUP, src as u64, dest as u64, tag, dup_at]);
                    st.events.push(
                        dup_at,
                        Deliver {
                            dest,
                            msg: RawMsg {
                                src,
                                tag,
                                payload: copy.into_value(),
                            },
                        },
                    );
                }
            }

            Core::trace(
                &mut st,
                &[TR_SEND, src as u64, dest as u64, tag, deliver_at],
            );
            st.events.push(
                deliver_at,
                Deliver {
                    dest,
                    msg: RawMsg {
                        src,
                        tag,
                        payload: payload.into_value(),
                    },
                },
            );
        }

        if let Some(me) = me {
            core.reschedule(&mut st);
            core.wait_token(st, me);
        }
    }

    fn try_poll(&self, rank: usize) -> Option<RawMsg> {
        self.core.yield_now();
        let mut st = self.core.lock();
        Core::check_poison(&st);
        let m = st.mailboxes[rank].pop_front();
        if let Some(msg) = &m {
            let words = [TR_RECV, rank as u64, msg.src as u64, msg.tag, st.now];
            Core::trace(&mut st, &words);
        }
        m
    }

    fn recv_next(&self, rank: usize) -> RawMsg {
        let core = &self.core;
        let me = core
            .ident()
            .expect("recv_next on SimTransport from an unregistered thread");
        let mut st = core.lock();
        loop {
            Core::check_poison(&st);
            if let Some(msg) = st.mailboxes[rank].pop_front() {
                let words = [TR_RECV, rank as u64, msg.src as u64, msg.tag, st.now];
                Core::trace(&mut st, &words);
                return msg;
            }
            *st.threads.get_mut(&me).expect("registered thread") = ThreadState::Recv;
            core.reschedule(&mut st);
            loop {
                Core::check_poison(&st);
                if st.running == Some(me) {
                    break;
                }
                st = core.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    fn pause(&self, rank: usize, dur: Duration) {
        let core = &self.core;
        let me = core
            .ident()
            .expect("pause on SimTransport from an unregistered thread");
        let mut st = core.lock();
        Core::check_poison(&st);
        let mut d = (dur.as_nanos() as u64).max(1);
        if let Some(f) = core.is_stalled(rank, st.now) {
            d = d.saturating_mul(f);
        }
        let deadline = st.now + d;
        *st.threads.get_mut(&me).expect("registered thread") = ThreadState::Pause { deadline };
        core.reschedule(&mut st);
        core.wait_token(st, me);
    }

    fn advance(&self, rank: usize, dur: Duration) {
        let core = &self.core;
        let Some(me) = core.ident() else { return };
        let mut st = core.lock();
        Core::check_poison(&st);
        let mut d = (dur.as_nanos() as u64).max(1);
        // A stalled rank computes slowly too (a slow node, not just a
        // slow link).
        if let Some(f) = core.is_stalled(rank, st.now) {
            d = d.saturating_mul(f);
        }
        let deadline = st.now + d;
        *st.threads.get_mut(&me).expect("registered thread") = ThreadState::Compute { deadline };
        core.reschedule(&mut st);
        core.wait_token(st, me);
    }

    fn notify(&self, rank: usize) {
        let core = &self.core;
        let me = core.ident();
        let mut st = core.lock();
        Core::check_poison(&st);
        for ((r, _), s) in st.threads.iter_mut() {
            if *r == rank && matches!(s, ThreadState::Pause { .. }) {
                *s = ThreadState::Runnable;
            }
        }
        if let Some(me) = me {
            core.reschedule(&mut st);
            core.wait_token(st, me);
        }
    }

    fn barrier(&self, rank: usize) {
        let core = &self.core;
        let me = core
            .ident()
            .expect("barrier on SimTransport from an unregistered thread");
        let mut st = core.lock();
        Core::check_poison(&st);
        let gen = st.barrier_gen;
        st.barrier_arrived += 1;
        let now = st.now;
        Core::trace(&mut st, &[TR_BARRIER, rank as u64, gen, now]);
        if st.barrier_arrived == core.size {
            // Last arrival releases everyone (including itself) and lets
            // the scheduler pick who proceeds first.
            st.barrier_arrived = 0;
            st.barrier_gen += 1;
            for s in st.threads.values_mut() {
                if matches!(s, ThreadState::Barrier { gen: g } if *g == gen) {
                    *s = ThreadState::Runnable;
                }
            }
        } else {
            *st.threads.get_mut(&me).expect("registered thread") = ThreadState::Barrier { gen };
        }
        core.reschedule(&mut st);
        core.wait_token(st, me);
    }

    fn window(&self, len: usize) -> Window {
        Window::with_hook(
            len,
            Arc::new(SimHook {
                core: self.core.clone(),
                hist: Mutex::new((0..len).map(|_| VecDeque::new()).collect()),
            }),
        )
    }

    fn thread_start(&self, rank: usize, lane: Lane) {
        let core = &self.core;
        SIM_IDENT.with(|c| c.set(Some((core.id, rank, lane))));
        let me = (rank, lane);
        let mut st = core.lock();
        Core::check_poison(&st);
        st.threads.insert(me, ThreadState::Runnable);
        st.registered.insert(me);
        if lane == Lane::Main {
            st.started_mains += 1;
        }
        let now = st.now;
        // Before the gate opens the Main lanes arrive in whatever order
        // the OS ran their threads, so they are hashed in rank order once
        // all are here. A Helper's Main holds the token while it waits in
        // `await_thread`, which already orders that registration.
        if st.gate_open || lane != Lane::Main {
            Core::trace(&mut st, &[TR_START, rank as u64, lane_code(lane), now]);
        }
        core.cv.notify_all(); // wake await_thread / gate watchers
        if !st.gate_open && st.started_mains == core.size {
            st.gate_open = true;
            for r in 0..core.size {
                Core::trace(&mut st, &[TR_START, r as u64, lane_code(Lane::Main), now]);
            }
            core.reschedule(&mut st);
        }
        core.wait_token(st, me);
    }

    fn thread_exit(&self, rank: usize, lane: Lane) {
        let core = &self.core;
        let me = (rank, lane);
        let mut st = core.lock();
        st.threads.remove(&me);
        for s in st.threads.values_mut() {
            if matches!(s, ThreadState::Join { target } if *target == me) {
                *s = ThreadState::Runnable;
            }
        }
        let now = st.now;
        Core::trace(&mut st, &[TR_EXIT, rank as u64, lane_code(lane), now]);
        if st.running == Some(me) {
            core.reschedule(&mut st);
        }
        core.cv.notify_all();
        drop(st);
        SIM_IDENT.with(|c| c.set(None));
    }

    fn await_thread(&self, rank: usize, lane: Lane) {
        let core = &self.core;
        let mut st = core.lock();
        // The caller keeps the schedule token: registration does not need
        // it, so this cannot deadlock — it only orders the handshake.
        loop {
            Core::check_poison(&st);
            if st.registered.contains(&(rank, lane)) {
                return;
            }
            st = core.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn join_thread(&self, rank: usize, lane: Lane) {
        let core = &self.core;
        let target = (rank, lane);
        let me = core.ident();
        let mut st = core.lock();
        loop {
            Core::check_poison(&st);
            if st.registered.contains(&target) && !st.threads.contains_key(&target) {
                return; // target retired; caller keeps the token
            }
            match me {
                Some(me) => {
                    *st.threads.get_mut(&me).expect("registered thread") =
                        ThreadState::Join { target };
                    core.reschedule(&mut st);
                    loop {
                        Core::check_poison(&st);
                        if st.running == Some(me) {
                            break;
                        }
                        st = core.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                }
                // An unregistered caller (driver thread) is outside the
                // schedule; a plain condvar wait cannot perturb it.
                None => st = core.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }

    fn abort(&self) {
        let core = &self.core;
        let mut st = core.lock();
        core.poison(&mut st, "a simulated thread panicked".to_string());
    }
}

/// The RMA fault hook: yields on every window op and serves stale
/// estimates from recorded put history.
struct SimHook {
    core: Arc<Core>,
    /// Per-slot history of the last few `(virtual time, value)` puts.
    hist: Mutex<Vec<VecDeque<(u64, u64)>>>,
}

const HOOK_HISTORY: usize = 8;

impl WindowHook for SimHook {
    fn on_op(&self) {
        self.core.yield_now();
    }

    fn on_put(&self, offset: usize, value: u64) {
        let now = self.core.lock().now;
        let mut h = self.hist.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(q) = h.get_mut(offset) {
            q.push_back((now, value));
            if q.len() > HOOK_HISTORY {
                q.pop_front();
            }
        }
    }

    fn estimates(&self, current: &[u64]) -> Option<Vec<u64>> {
        let core = &self.core;
        if core.plan.stale_p <= 0.0 || core.ident().is_none() {
            return None;
        }
        let mut st = core.lock();
        Core::check_poison(&st);
        let h = self.hist.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = current.to_vec();
        let mut changed = false;
        for (i, slot) in out.iter_mut().enumerate() {
            if st.rng.chance(core.plan.stale_p) {
                if let Some(q) = h.get(i) {
                    if !q.is_empty() {
                        let k = st.rng.range(0, q.len() as u64) as usize;
                        *slot = q[k].1;
                        changed = true;
                    }
                }
            }
        }
        changed.then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{run_with, Src};

    fn sim(size: usize, plan: FaultPlan) -> Arc<SimTransport> {
        Arc::new(SimTransport::new(size, plan))
    }

    fn reliable(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn reliable_ring_pass_completes() {
        let t = sim(4, reliable(1));
        let results = run_with(t.clone(), |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, comm.rank() as u64);
            comm.recv::<u64>(Src::Rank(prev), 7).1
        });
        for (rank, v) in results.iter().enumerate() {
            assert_eq!(*v as usize, (rank + 3) % 4);
        }
        assert!(t.virtual_now_ns() > 0, "virtual time advanced");
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let body = |comm: crate::comm::Comm| {
            // Opaque sends: exempt from drop/dup, but still subject to the
            // seeded scheduling, latency, and reordering being traced.
            for peer in 0..comm.size() {
                if peer != comm.rank() {
                    comm.send(peer, 1, comm.rank() as u64);
                }
            }
            let mut sum = 0u64;
            for _ in 0..comm.size() - 1 {
                sum += comm.recv::<u64>(Src::Any, 1).1;
            }
            comm.barrier();
            sum
        };
        let t1 = sim(3, FaultPlan::chaos(42));
        let r1 = run_with(t1.clone(), body);
        let t2 = sim(3, FaultPlan::chaos(42));
        let r2 = run_with(t2.clone(), body);
        assert_eq!(r1, r2, "same seed must produce identical results");
        assert_eq!(
            t1.fingerprint(),
            t2.fingerprint(),
            "same seed must replay the identical event trace"
        );
        let t3 = sim(3, FaultPlan::chaos(43));
        run_with(t3.clone(), body);
        assert_ne!(t1.fingerprint(), t3.fingerprint());
    }

    #[test]
    fn pause_consumes_virtual_time() {
        let t = sim(1, reliable(5));
        run_with(t.clone(), |comm| {
            comm.pause(Duration::from_millis(3));
        });
        assert!(t.virtual_now_ns() >= 3_000_000);
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let t = sim(2, reliable(9));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with(t, |comm| {
                if comm.rank() == 0 {
                    // Rank 0 waits for a message nobody sends.
                    comm.recv::<u64>(Src::Any, 99);
                }
            })
        }));
        let err = out.expect_err("deadlock must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "rank panicked".into());
        assert!(
            msg.contains("deadlock") || msg.contains("rank panicked"),
            "unexpected panic: {msg}"
        );
    }

    #[test]
    fn virtual_budget_catches_livelock() {
        let mut plan = reliable(3);
        plan.max_virtual_ns = 2_000_000; // 2ms budget
        let t = sim(1, plan);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with(t, |comm| loop {
                comm.pause(Duration::from_millis(1));
            })
        }));
        assert!(out.is_err(), "budget exhaustion must panic");
    }

    #[test]
    fn dropped_messages_respect_fair_lossy_cap() {
        let mut plan = reliable(77);
        plan.drop_p = 1.0; // drop everything the cap allows
        plan.max_consecutive_drops = 3;
        let t = sim(2, plan);
        let results = run_with(t, |comm| {
            if comm.rank() == 0 {
                // 8 sends on one channel: with p=1 and cap 3, exactly every
                // 4th message gets through.
                for i in 0..8u64 {
                    comm.send_cloneable(1, 5, i);
                }
                comm.barrier();
                0
            } else {
                let a = comm.recv::<u64>(Src::Rank(0), 5).1;
                let b = comm.recv::<u64>(Src::Rank(0), 5).1;
                comm.barrier();
                a.min(b) * 100 + a.max(b)
            }
        });
        // Messages 3 and 7 (0-indexed) survive; jitter may reorder them.
        assert_eq!(results[1], 307);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut plan = reliable(11);
        plan.dup_p = 1.0;
        let t = sim(2, plan);
        let results = run_with(t, |comm| {
            if comm.rank() == 0 {
                comm.send_cloneable(1, 2, 5u64);
                comm.barrier();
                0
            } else {
                let a = comm.recv::<u64>(Src::Rank(0), 2).1;
                let b = comm.recv::<u64>(Src::Rank(0), 2).1;
                comm.barrier();
                a + b
            }
        });
        assert_eq!(results[1], 10, "duplicated message arrives twice");
    }

    #[test]
    fn opaque_payloads_are_never_dropped_or_duplicated() {
        let mut plan = reliable(13);
        plan.drop_p = 1.0;
        plan.dup_p = 1.0;
        plan.max_consecutive_drops = 100;
        let t = sim(2, plan);
        let results = run_with(t, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, 9u64); // opaque: must arrive exactly once
                comm.barrier();
                0
            } else {
                let v = comm.recv::<u64>(Src::Rank(0), 3).1;
                assert!(comm.try_recv::<u64>(Src::Any, 3).is_none());
                comm.barrier();
                v
            }
        });
        assert_eq!(results[1], 9);
    }

    #[test]
    fn window_hook_serves_stale_estimates() {
        let mut plan = reliable(21);
        plan.stale_p = 1.0; // every estimate read is stale when history exists
        let t = sim(1, plan);
        let w = t.window(2);
        let w2 = w.clone();
        let saw_stale = run_with(t, move |comm| {
            w2.put(0, 10);
            w2.put(0, 20);
            w2.put(0, 30);
            comm.pause(Duration::from_micros(10));
            // With stale_p = 1 the read resolves to *some* recorded value,
            // possibly an old one.
            let v = w2.get_all()[0];
            assert!([10, 20, 30].contains(&v), "stale value from history: {v}");
            v != 30
        });
        // Exact staleness draw depends on the seeded history pick; either
        // way single-slot counter reads stay exact:
        assert_eq!(w.get(0), 30);
        let _ = saw_stale;
    }
}
