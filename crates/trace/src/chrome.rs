//! Chrome trace-event JSON export.
//!
//! Serializes a [`TraceSnapshot`] into the Trace Event Format consumed
//! by `about:tracing` and Perfetto: one complete (`"ph": "X"`) event per
//! closed span, `pid`/`tid` taken from the span's [`crate::Track`] (one
//! process row per rank), timestamps in microseconds at nanosecond
//! resolution. Lane names travel as `"M"` metadata events; counters and
//! histogram summaries ride in the top-level `otherData` object.
//!
//! Every event is an [`adm_trace::json`](crate::json) value written
//! compact on a line of its own, so the export is fully deterministic:
//! given the same snapshot it produces the same bytes, which is what lets
//! the chaos suite assert byte-identical traces per simulation seed.

use crate::json::{obj, Value};
use crate::TraceSnapshot;
use std::io;

/// Nanoseconds as microseconds, the trace format's native unit (exact to
/// the nanosecond for any run shorter than 10^15 ns).
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Renders the snapshot as a Chrome trace-event JSON document.
pub fn to_chrome_json(snap: &TraceSnapshot) -> String {
    let lanes = snap.track_names.iter().map(|(track, name)| {
        obj! {
            "ph": "M",
            "name": "thread_name",
            "pid": track.pid,
            "tid": track.tid,
            "args": obj! { "name": name.as_str() },
        }
    });
    let spans = snap.spans.iter().filter(|s| s.closed()).map(|span| {
        obj! {
            "ph": "X",
            "name": span.name.as_ref(),
            "cat": "adm",
            "pid": span.track.pid,
            "tid": span.track.tid,
            "ts": us(span.start_ns),
            "dur": us(span.end_ns - span.start_ns),
            "args": Value::obj(span.args.iter().copied()),
        }
    });
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [");
    for (i, event) in lanes.chain(spans).enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&event.to_string());
    }
    let histograms = snap.histograms.iter().map(|(name, h)| {
        let summary = obj! {
            "count": h.count,
            "sum": h.sum,
            "min": if h.count == 0 { 0 } else { h.min },
            "max": h.max,
        };
        (name.as_ref(), summary)
    });
    let other = obj! {
        "counters": Value::obj(snap.counters.iter().map(|(name, v)| (name.as_ref(), *v))),
        "histograms": Value::obj(histograms),
    };
    out.push_str("\n],\n\"otherData\": ");
    out.push_str(&other.to_string_pretty());
    out.push_str("\n}\n");
    out
}

/// Writes the snapshot as Chrome trace JSON to `w`.
pub fn write_chrome_trace<W: io::Write>(mut w: W, snap: &TraceSnapshot) -> io::Result<()> {
    w.write_all(to_chrome_json(snap).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, TestClock, Tracer, Track};
    use std::sync::Arc;
    use std::time::Duration;

    /// The one structural test: the export parses back, through `Value`,
    /// to exactly the recorded lanes, spans (escaped names, `ts`/`dur` in
    /// microseconds), counters and histogram summaries.
    #[test]
    fn export_parses_back_to_the_recorded_events() {
        let clock = Arc::new(TestClock::new());
        let t = Tracer::new(clock.clone());
        let Track { pid, tid } = Track::rank(0);
        t.name_track(Track::rank(0), "rank 0 \"mesher\"");
        let g = t.span(Track::rank(0), "quo\"te\\path");
        clock.advance(Duration::from_nanos(3_001));
        g.close_with(&[("triangles", 12)]);
        t.count("tasks", 1);
        t.observe("rtt_ns", 1500);

        let lane = obj! { "name": "rank 0 \"mesher\"" };
        let expected = obj! {
            "displayTimeUnit": "ms",
            "traceEvents": vec![
                obj! { "ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "args": lane },
                obj! {
                    "ph": "X", "name": "quo\"te\\path", "cat": "adm", "pid": pid, "tid": tid,
                    "ts": 0.0, "dur": 3.001, "args": obj! { "triangles": 12u64 },
                },
            ],
            "otherData": obj! {
                "counters": obj! { "tasks": 1u64 },
                "histograms": obj! {
                    "rtt_ns": obj! { "count": 1u64, "sum": 1500u64, "min": 1500u64, "max": 1500u64 },
                },
            },
        };
        assert_eq!(json::parse(&to_chrome_json(&t.snapshot())), Ok(expected));
    }

    #[test]
    fn export_is_deterministic() {
        let mk = || {
            let clock = Arc::new(TestClock::new());
            let t = Tracer::new(clock.clone());
            for name in ["a", "b"] {
                let g = t.span(Track::ROOT, name);
                clock.advance(Duration::from_nanos(1234));
                g.close();
            }
            to_chrome_json(&t.snapshot())
        };
        assert_eq!(mk(), mk());
    }
}
