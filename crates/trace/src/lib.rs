//! # adm-trace — deterministic tracing and metrics
//!
//! Structured observability for the meshing pipeline: hierarchical spans
//! with RAII enter/exit guards, a metrics registry (counters plus
//! log₂-bucketed histograms), and a pluggable [`Clock`] so the same
//! instrumentation is stamped with wall time under the threaded runtime
//! and with the cooperative scheduler's *virtual* time under the seeded
//! fault simulator. Under virtual time a whole trace is replay-stable
//! and assertable by its FNV [fingerprint](Tracer::fingerprint) — the
//! chaos suite's sharpest oracle after the mesh digest itself.
//!
//! The crate is dependency-free by design (see `Cargo.toml`): anything
//! in the workspace may instrument itself without creating a cycle, and
//! exported traces (see [`chrome`]) are byte-deterministic functions of
//! the recorded events.
//!
//! ## Span model
//!
//! A span is an interval on a [`Track`] — one `(pid, tid)` lane in the
//! Chrome trace-event sense, conventionally one lane per rank and
//! thread. Spans on a track form a stack: [`Tracer::span`] opens a span
//! whose parent is the innermost still-open span on the same track, and
//! dropping (or [closing](SpanGuard::close)) the guard seals it. Guards
//! follow normal Rust scoping, so traces are balanced by construction.

mod clock;

pub mod chrome;
pub mod json;

pub use clock::{Clock, TestClock, WallClock};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// FNV-1a offset basis (same constants as the transport fingerprint).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// Sentinel `end_ns` of a still-open span.
const OPEN: u64 = u64::MAX;

/// Hashes one word into a rolling FNV-1a state.
fn fnv_word(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of a string (used to fold names into the fingerprint).
fn fnv_str(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in s.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One trace lane: `pid` renders as a process row in `about:tracing`,
/// `tid` as a thread row inside it. Conventions used by the pipeline:
/// [`Track::ROOT`] for serial driver work, [`Track::rank`] for a rank's
/// mesher thread, [`Track::helper`] for its communicator thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    /// Process lane (rank + 1 for rank lanes; 0 for the driver).
    pub pid: u32,
    /// Thread lane within the process.
    pub tid: u32,
}

impl Track {
    /// The serial driver lane.
    pub const ROOT: Track = Track { pid: 0, tid: 0 };

    /// The mesher lane of rank `r`.
    pub fn rank(r: usize) -> Track {
        Track {
            pid: r as u32 + 1,
            tid: 0,
        }
    }

    /// The communicator lane of rank `r`.
    pub fn helper(r: usize) -> Track {
        Track {
            pid: r as u32 + 1,
            tid: 1,
        }
    }

    /// The lane of worker-pool lane `w` (the pool's external lane maps
    /// to its own `w`). Lives in the driver process row, offset past
    /// the serial driver lane so a worker's `task.*` and `merge.node`
    /// spans render beneath the root's phase spans.
    pub fn pool_worker(w: usize) -> Track {
        Track {
            pid: 0,
            tid: w as u32 + 1,
        }
    }

    /// The shard-writer lane of writer `w` — distributed-output file
    /// writes (`shard.write` spans). Lives in the driver process row,
    /// offset well past the merge-pool lanes.
    pub fn shard_writer(w: usize) -> Track {
        Track {
            pid: 0,
            tid: w as u32 + 64,
        }
    }

    /// The job-server admission lane: per-request `serve.request` spans
    /// recorded by whichever connection/submitter thread admitted the
    /// request. Lives in the driver process row past the shard lanes.
    pub const SERVER_FRONT: Track = Track { pid: 0, tid: 128 };

    /// The mesh-executor lane of job-server worker `w` (`serve.mesh_job`
    /// and `serve.cache_load` spans). One lane per worker, past the
    /// admission lane.
    pub fn server(w: usize) -> Track {
        Track {
            pid: 0,
            tid: w as u32 + 129,
        }
    }
}

/// One recorded span. `end_ns == u64::MAX` while still open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span label (aggregation key for [`Tracer::phase_totals`]).
    pub name: Cow<'static, str>,
    /// Lane the span lives on.
    pub track: Track,
    /// Start timestamp (clock nanoseconds).
    pub start_ns: u64,
    /// End timestamp; `u64::MAX` until closed.
    pub end_ns: u64,
    /// Nesting depth on its track (0 = top level).
    pub depth: u32,
    /// Index of the enclosing span in the snapshot, if any.
    pub parent: Option<usize>,
    /// Numeric attachments recorded at close.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Whether the span has been closed.
    pub fn closed(&self) -> bool {
        self.end_ns != OPEN
    }

    /// Span duration; zero while open.
    pub fn duration(&self) -> Duration {
        if self.closed() {
            Duration::from_nanos(self.end_ns - self.start_ns)
        } else {
            Duration::ZERO
        }
    }
}

/// A log₂-bucketed histogram: bucket 0 counts zeros, bucket `k ≥ 1`
/// counts values with bit length `k` (i.e. `2^(k-1) ..= 2^k - 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Log₂ buckets (65: zeros + one per bit length).
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket(v)] += 1;
    }

    /// Bucket index for a value.
    pub fn bucket(v: u64) -> usize {
        64 - v.leading_zeros() as usize
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// An immutable copy of everything a tracer recorded.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// All spans in open order.
    pub spans: Vec<Span>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<Cow<'static, str>, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<Cow<'static, str>, Histogram>,
    /// Human-readable lane names.
    pub track_names: BTreeMap<Track, String>,
}

/// Aggregate of all closed spans sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotal {
    /// Span name.
    pub name: String,
    /// Number of closed spans with this name.
    pub count: u64,
    /// Summed duration in seconds.
    pub total_s: f64,
}

/// The `trace_phases` row of a bench report.
impl From<&PhaseTotal> for json::Value {
    fn from(p: &PhaseTotal) -> json::Value {
        json::obj! { "name": p.name.as_str(), "count": p.count, "total_s": p.total_s }
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Per-track stack of open span indices.
    open: BTreeMap<Track, Vec<usize>>,
    counters: BTreeMap<Cow<'static, str>, u64>,
    histograms: BTreeMap<Cow<'static, str>, Histogram>,
    track_names: BTreeMap<Track, String>,
    /// Rolling FNV-1a over every recorded operation, and the op count.
    hash: u64,
    ops: u64,
}

impl State {
    fn mix(&mut self, words: &[u64]) {
        for &w in words {
            self.hash = fnv_word(self.hash, w);
        }
        self.ops += 1;
    }
}

struct Inner {
    clock: Arc<dyn Clock>,
    state: Mutex<State>,
}

/// The shared trace recorder. Cheap to clone (an `Arc` handle); safe to
/// use from any thread. Under the simulated transport all operations are
/// serialized by the cooperative scheduler, so the recorded order — and
/// with it the [fingerprint](Tracer::fingerprint) and the exported JSON
/// bytes — is a pure function of the seed.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock().unwrap();
        f.debug_struct("Tracer")
            .field("spans", &st.spans.len())
            .field("counters", &st.counters.len())
            .field("ops", &st.ops)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::wall()
    }
}

impl Tracer {
    /// A tracer stamping with the given clock.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Tracer {
            inner: Arc::new(Inner {
                clock,
                state: Mutex::new(State {
                    hash: FNV_OFFSET,
                    ..State::default()
                }),
            }),
        }
    }

    /// A tracer on host wall time.
    pub fn wall() -> Self {
        Self::new(Arc::new(WallClock::new()))
    }

    /// The tracer's time source.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.inner.clock.clone()
    }

    /// Current time on the tracer's clock.
    pub fn now(&self) -> Duration {
        self.inner.clock.now()
    }

    /// Names a lane for trace viewers.
    pub fn name_track(&self, track: Track, name: &str) {
        let mut st = self.inner.state.lock().unwrap();
        st.mix(&[5, u64::from(track.pid), u64::from(track.tid), fnv_str(name)]);
        st.track_names.insert(track, name.to_string());
    }

    /// Opens a span on `track`; the returned guard seals it on drop. The
    /// parent is the innermost span still open on the same track.
    #[must_use = "dropping the guard immediately records an empty span"]
    pub fn span(&self, track: Track, name: impl Into<Cow<'static, str>>) -> SpanGuard {
        // Read the clock before taking the state lock: transport-backed
        // clocks lock their own core, and nesting that inside ours would
        // pin a lock order for every caller.
        let start_ns = self.inner.clock.now().as_nanos() as u64;
        let name = name.into();
        let mut st = self.inner.state.lock().unwrap();
        let idx = st.spans.len();
        let stack = st.open.entry(track).or_default();
        let depth = stack.len() as u32;
        let parent = stack.last().copied();
        stack.push(idx);
        st.mix(&[
            1,
            u64::from(track.pid),
            u64::from(track.tid),
            fnv_str(&name),
            start_ns,
            u64::from(depth),
        ]);
        st.spans.push(Span {
            name,
            track,
            start_ns,
            end_ns: OPEN,
            depth,
            parent,
            args: Vec::new(),
        });
        SpanGuard {
            tracer: self.clone(),
            idx,
            track,
            closed: false,
        }
    }

    fn close_span(&self, idx: usize, track: Track, args: &[(&'static str, u64)]) -> (u64, u64) {
        let end_ns = self.inner.clock.now().as_nanos() as u64;
        let mut st = self.inner.state.lock().unwrap();
        if let Some(stack) = st.open.get_mut(&track) {
            if let Some(pos) = stack.iter().rposition(|&i| i == idx) {
                stack.remove(pos);
            }
        }
        st.mix(&[2, idx as u64, end_ns]);
        for &(k, v) in args {
            st.mix(&[6, fnv_str(k), v]);
        }
        let span = &mut st.spans[idx];
        span.end_ns = end_ns;
        span.args.extend_from_slice(args);
        (span.start_ns, end_ns)
    }

    /// Adds `delta` to the named counter.
    pub fn count(&self, name: impl Into<Cow<'static, str>>, delta: u64) {
        let name = name.into();
        let key = fnv_str(&name);
        let mut st = self.inner.state.lock().unwrap();
        let c = st.counters.entry(name).or_insert(0);
        *c += delta;
        let v = *c;
        st.mix(&[3, key, delta, v]);
    }

    /// Sets the named counter to an absolute value (for mirroring
    /// externally accumulated atomics into the registry).
    pub fn set_count(&self, name: impl Into<Cow<'static, str>>, value: u64) {
        let name = name.into();
        let key = fnv_str(&name);
        let mut st = self.inner.state.lock().unwrap();
        st.counters.insert(name, value);
        st.mix(&[3, key, value, value]);
    }

    /// Records one observation into the named log₂ histogram.
    pub fn observe(&self, name: impl Into<Cow<'static, str>>, value: u64) {
        let name = name.into();
        let key = fnv_str(&name);
        let mut st = self.inner.state.lock().unwrap();
        st.histograms.entry(name).or_default().record(value);
        st.mix(&[4, key, value]);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let st = self.inner.state.lock().unwrap();
        st.counters.get(name).copied().unwrap_or(0)
    }

    /// `(hash, ops)` FNV-1a fingerprint over every recorded operation in
    /// order. Two tracers that saw the same operations in the same order
    /// — e.g. two replays of one simulation seed — have equal
    /// fingerprints; the op count disambiguates truncations.
    pub fn fingerprint(&self) -> (u64, u64) {
        let st = self.inner.state.lock().unwrap();
        (st.hash, st.ops)
    }

    /// Copies out everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        let st = self.inner.state.lock().unwrap();
        TraceSnapshot {
            spans: st.spans.clone(),
            counters: st.counters.clone(),
            histograms: st.histograms.clone(),
            track_names: st.track_names.clone(),
        }
    }

    /// Aggregates closed spans by name, largest total first (name as the
    /// tiebreak, so the order is deterministic).
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        let st = self.inner.state.lock().unwrap();
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in st.spans.iter().filter(|s| s.closed()) {
            let e = by_name.entry(&s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
        }
        let mut out: Vec<PhaseTotal> = by_name
            .into_iter()
            .map(|(name, (count, ns))| PhaseTotal {
                name: name.to_string(),
                count,
                total_s: ns as f64 / 1e9,
            })
            .collect();
        out.sort_by(|a, b| b.total_s.total_cmp(&a.total_s).then(a.name.cmp(&b.name)));
        out
    }
}

/// RAII guard for an open span: dropping it stamps the end time. Use
/// [`close_with`](SpanGuard::close_with) to attach numeric args.
pub struct SpanGuard {
    tracer: Tracer,
    idx: usize,
    track: Track,
    closed: bool,
}

impl SpanGuard {
    /// Closes the span now, returning `(start, end)` on the clock.
    pub fn close(self) -> (Duration, Duration) {
        self.close_with(&[])
    }

    /// Closes the span with numeric attachments.
    pub fn close_with(mut self, args: &[(&'static str, u64)]) -> (Duration, Duration) {
        self.closed = true;
        let (s, e) = self.tracer.close_span(self.idx, self.track, args);
        (Duration::from_nanos(s), Duration::from_nanos(e))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.closed {
            self.tracer.close_span(self.idx, self.track, &[]);
        }
    }
}

/// Structural validation of a finished trace: every span closed, stamps
/// monotonic, parents on the same track enclosing their children. The
/// proptest suite drives this over arbitrary cross-track interleavings;
/// the CI trace-artifact check is its JSON-side twin.
pub fn check_well_formed(snap: &TraceSnapshot) -> Result<(), String> {
    for (i, s) in snap.spans.iter().enumerate() {
        if !s.closed() {
            return Err(format!("span {i} ({}) never closed", s.name));
        }
        if s.end_ns < s.start_ns {
            return Err(format!(
                "span {i} ({}) ends before it starts: {} < {}",
                s.name, s.end_ns, s.start_ns
            ));
        }
        if let Some(p) = s.parent {
            if p >= i {
                return Err(format!("span {i} parent {p} is not an earlier span"));
            }
            let parent = &snap.spans[p];
            if parent.track != s.track {
                return Err(format!("span {i} parented across tracks"));
            }
            if parent.depth + 1 != s.depth {
                return Err(format!(
                    "span {i} depth {} under parent depth {}",
                    s.depth, parent.depth
                ));
            }
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                    s.name, s.start_ns, s.end_ns, p, parent.name, parent.start_ns, parent.end_ns
                ));
            }
        } else if s.depth != 0 {
            return Err(format!("span {i} has depth {} but no parent", s.depth));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_tracer() -> (Tracer, Arc<TestClock>) {
        let clock = Arc::new(TestClock::new());
        (Tracer::new(clock.clone()), clock)
    }

    #[test]
    fn nested_spans_are_parented_and_stamped() {
        let (t, clock) = test_tracer();
        let outer = t.span(Track::ROOT, "outer");
        clock.advance(Duration::from_nanos(10));
        {
            let _inner = t.span(Track::ROOT, "inner");
            clock.advance(Duration::from_nanos(5));
        }
        clock.advance(Duration::from_nanos(10));
        outer.close();

        let snap = t.snapshot();
        check_well_formed(&snap).unwrap();
        assert_eq!(snap.spans.len(), 2);
        let (outer, inner) = (&snap.spans[0], &snap.spans[1]);
        assert_eq!(outer.name, "outer");
        assert_eq!((outer.start_ns, outer.end_ns), (0, 25));
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.depth, 1);
        assert_eq!((inner.start_ns, inner.end_ns), (10, 15));
    }

    #[test]
    fn sibling_tracks_do_not_parent_each_other() {
        let (t, clock) = test_tracer();
        let a = t.span(Track::rank(0), "a");
        clock.advance(Duration::from_nanos(1));
        let b = t.span(Track::rank(1), "b");
        clock.advance(Duration::from_nanos(1));
        a.close();
        b.close();
        let snap = t.snapshot();
        check_well_formed(&snap).unwrap();
        assert!(snap.spans.iter().all(|s| s.parent.is_none()));
    }

    #[test]
    fn close_with_attaches_args_and_returns_interval() {
        let (t, clock) = test_tracer();
        let g = t.span(Track::ROOT, "task");
        clock.advance(Duration::from_nanos(42));
        let (s, e) = g.close_with(&[("triangles", 7)]);
        assert_eq!((s.as_nanos(), e.as_nanos()), (0, 42));
        let snap = t.snapshot();
        assert_eq!(snap.spans[0].args, vec![("triangles", 7)]);
    }

    #[test]
    fn counters_accumulate_and_histograms_bucket() {
        let (t, _) = test_tracer();
        t.count("lb.requests", 2);
        t.count("lb.requests", 3);
        assert_eq!(t.counter("lb.requests"), 5);
        t.set_count("geom.orient.exact", 9);
        assert_eq!(t.counter("geom.orient.exact"), 9);

        t.observe("rtt", 0);
        t.observe("rtt", 1);
        t.observe("rtt", 5);
        t.observe("rtt", 1024);
        let snap = t.snapshot();
        let h = &snap.histograms["rtt"];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1030);
        assert_eq!((h.min, h.max), (0, 1024));
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[3], 1); // 4..8
        assert_eq!(h.buckets[11], 1); // 1024..2048
        assert!((h.mean() - 257.5).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_replayable() {
        let run = |names: &[&'static str]| {
            let (t, clock) = test_tracer();
            for n in names {
                let g = t.span(Track::ROOT, *n);
                clock.advance(Duration::from_nanos(3));
                g.close();
                t.count(*n, 1);
            }
            t.fingerprint()
        };
        assert_eq!(run(&["a", "b"]), run(&["a", "b"]));
        assert_ne!(run(&["a", "b"]), run(&["b", "a"]));
    }

    #[test]
    fn phase_totals_aggregate_by_name() {
        let (t, clock) = test_tracer();
        for _ in 0..3 {
            let g = t.span(Track::ROOT, "refine");
            clock.advance(Duration::from_nanos(100));
            g.close();
        }
        let g = t.span(Track::ROOT, "merge");
        clock.advance(Duration::from_nanos(1000));
        g.close();
        let totals = t.phase_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].name, "merge");
        assert_eq!(totals[1].name, "refine");
        assert_eq!(totals[1].count, 3);
        assert!((totals[1].total_s - 300e-9).abs() < 1e-15);
    }

    #[test]
    fn unclosed_span_is_flagged() {
        let (t, _) = test_tracer();
        let g = t.span(Track::ROOT, "open");
        let snap = t.snapshot();
        assert!(check_well_formed(&snap).is_err());
        g.close();
        assert!(check_well_formed(&t.snapshot()).is_ok());
    }
}
