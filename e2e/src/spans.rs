//! Span arithmetic over an `adm_trace` snapshot: totals by name,
//! self-time (a span minus the part its children cover) and the
//! coverage check that keeps unattributed time from hiding inside a
//! parent.

use adm_trace::Span;
use std::collections::BTreeMap;

/// Nanoseconds of `parent`'s interval covered by the union of its
/// direct children (clipped to the parent; overlapping children count
/// once).
pub fn covered_ns(spans: &[Span], parent: usize) -> u64 {
    let p = &spans[parent];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(parent))
        .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut total = 0;
    let mut reach = p.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self-time of span `i`: its duration minus what its children cover.
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    (spans[i].end_ns - spans[i].start_ns) - covered_ns(spans, i)
}

/// The least-covered parent: `(covered share, span name)` over every
/// span that has at least one child. `None` when no span has children.
pub fn coverage_min(spans: &[Span]) -> Option<(f64, String)> {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    (0..spans.len())
        .filter(|&i| has_child[i] && spans[i].end_ns > spans[i].start_ns)
        .map(|i| {
            let dur = (spans[i].end_ns - spans[i].start_ns) as f64;
            (covered_ns(spans, i) as f64 / dur, spans[i].name.to_string())
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
}

/// Durations in seconds of every span called `name`, in recording order.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect()
}

/// Summed seconds of every span called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    // `+ 0.0`: an empty float sum is -0.0, which would print as "-0".
    durations_s(spans, name).iter().sum::<f64>() + 0.0
}

/// `(name, self seconds, total seconds, count)` per span name, largest
/// self-time first: where the time actually went, children excluded.
pub fn self_by_name(spans: &[Span]) -> Vec<(String, f64, f64, usize)> {
    let mut rows: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let row = rows.entry(&s.name).or_default();
        row.0 += self_ns(spans, i) as f64 * 1e-9;
        row.1 += (s.end_ns - s.start_ns) as f64 * 1e-9;
        row.2 += 1;
    }
    let mut out: Vec<_> = rows
        .into_iter()
        .map(|(name, (own, total, n))| (name.to_string(), own, total, n))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_trace::Track;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            track: Track::ROOT,
            start_ns: start,
            end_ns: end,
            depth: parent.map_or(0, |_| 1),
            parent,
            args: vec![],
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 10, 20, Some(1)),
        ];
        assert_eq!(covered_ns(&spans, 0), 80);
        assert_eq!(self_ns(&spans, 0), 20);
        // Grandchildren belong to their own parent, not to the root.
        assert_eq!(self_ns(&spans, 1), 30);
        assert_eq!(self_ns(&spans, 3), 10);
        let table = self_by_name(&spans);
        assert_eq!(
            (table[0].0.as_str(), table[1].0.as_str()),
            ("b", "a"),
            "largest self-time first"
        );
        assert!((table[1].1 - 30e-9).abs() < 1e-18 && table[1].3 == 1);
        assert!((table.iter().map(|r| r.1).sum::<f64>() - 100e-9).abs() < 1e-18);
    }

    #[test]
    fn overlapping_and_escaping_children_count_once_and_clipped() {
        let spans = vec![
            span("op", 10, 110, None),
            span("a", 0, 60, Some(0)),    // starts before the parent
            span("b", 40, 80, Some(0)),   // overlaps a
            span("c", 100, 200, Some(0)), // ends after the parent
        ];
        // [10,60) ∪ [40,80) ∪ [100,110) = 70 + 10
        assert_eq!(covered_ns(&spans, 0), 80);
    }

    #[test]
    fn coverage_check_finds_a_synthetic_gap() {
        // A merge phase whose children explain 0.41 s of 1.15 s.
        let spans = vec![
            span("op", 0, 2_000, None),
            span("refine", 0, 800, Some(0)),
            span("merge", 800, 1_950, Some(0)),
            span("merge.node", 800, 1_210, Some(2)),
        ];
        let (share, name) = coverage_min(&spans).unwrap();
        assert_eq!(name, "merge");
        assert!((share - 410.0 / 1150.0).abs() < 1e-12);
        assert!(share < 0.95);
        // The root itself is 97.5% covered and would pass on its own.
        assert!(covered_ns(&spans, 0) as f64 / 2_000.0 >= 0.95);
        // Leaves are not parents.
        assert!(coverage_min(&spans[..1]).is_none());
    }

    #[test]
    fn totals_by_name() {
        let spans = vec![
            span("r", 0, 1_000_000_000, None),
            span("r", 0, 500_000_000, None),
        ];
        assert_eq!(durations_s(&spans, "r"), vec![1.0, 0.5]);
        assert_eq!(total_s(&spans, "r"), 1.5);
        assert_eq!(total_s(&spans, "missing"), 0.0);
    }
}
