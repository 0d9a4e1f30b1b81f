//! `e2e --compare A.json B.json`: applies the bounds of `BENCHMARK.json`
//! to two reports of `e2e --all`, one row per (end-to-end metric,
//! workload).

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};

/// What one row concludes about B relative to A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// The run-to-run spread is wider than the bound and B does not beat
    /// A in every run: the row resolves neither way.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Regression,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Share of A's median by which B's median is worse (negative = better).
pub fn worse_by(a: &[f64], b: &[f64], better: &str) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let delta = if better == "higher" { ma - mb } else { mb - ma };
    delta / ma.abs().max(f64::MIN_POSITIVE)
}

/// Judges B's runs against A's for one metric.
pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| if better == "higher" { x > y } else { x < y };
    let b_sweeps = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    if spread(a).max(spread(b)) > bound {
        if b_sweeps {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by(a, b, better) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds(benchmark: &Value) -> Vec<(String, String, f64)> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("better")
                    .and_then(Value::as_str)
                    .expect("better")
                    .to_string(),
                m.get("bound").and_then(Value::as_f64).expect("bound"),
            )
        })
        .collect()
}

fn runs(report: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let xs: Vec<f64> = report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("runs")?
        .as_arr()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    (!xs.is_empty()).then_some(xs)
}

/// Renders the comparison table; the flag is `true` when any row is a
/// regression (or B failed an op), which is what the exit code reports.
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Value::as_obj)
        .map(|ws| ws.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    out.push_str(&format!(
        "{:<12} {:<12} {:>12} {:>24} {:>12} {:>24} {:>26} {:>7}  verdict\n",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "B/A (base A)",
        "bound"
    ));
    for w in workloads {
        for (metric, better, bound) in bounds(benchmark) {
            let (Some(ra), Some(rb)) = (runs(a, w, &metric), runs(b, w, &metric)) else {
                out.push_str(&format!("{w:<12} {metric:<12} missing from one report\n"));
                regressed = true;
                continue;
            };
            let verdict = judge(&ra, &rb, &better, bound);
            regressed |= verdict == Verdict::Regression;
            let (ma, mb) = (median(&ra), median(&rb));
            let ((a1, a3), (b1, b3)) = (quartiles(&ra), quartiles(&rb));
            out.push_str(&format!(
                "{w:<12} {metric:<12} {ma:>12.6} {:>24} {mb:>12.6} {:>24} {:>26} {:>6.0}%  {}\n",
                format!("[{a1:.6}, {a3:.6}]"),
                format!("[{b1:.6}, {b3:.6}]"),
                format!("{:.4} (base {ma:.6})", mb / ma),
                100.0 * bound,
                verdict.label()
            ));
        }
        // fail_ratio is absolute: no failed op is tolerated.
        let failed = |r: &Value| {
            r.get("workloads")
                .and_then(|ws| ws.get(w))
                .and_then(|x| x.get("failed"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        let (fa, fb) = (failed(a), failed(b));
        let bad = fb != 0.0;
        regressed |= bad;
        out.push_str(&format!(
            "{w:<12} {:<12} {fa:>12} {:>24} {fb:>12} {:>24} {:>26} {:>7}  {}\n",
            "failed",
            "",
            "",
            "",
            "0",
            if bad { "REGRESSION" } else { "ok" }
        ));
    }
    (out, regressed)
}

/// Loads a report written by `e2e --all`.
pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_comparison_follows_the_metric_direction() {
        let a = [1.00, 1.01, 0.99, 1.00];
        // 3% slower under a 5% bound: fine. 8% slower: regression.
        assert_eq!(
            judge(&a, &[1.03, 1.03, 1.02, 1.04], "lower", 0.05),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[1.08, 1.08, 1.07, 1.09], "lower", 0.05),
            Verdict::Regression
        );
        // Faster is never a regression.
        assert_eq!(judge(&a, &[0.5, 0.5, 0.5, 0.5], "lower", 0.05), Verdict::Ok);
        // For a throughput the same numbers read the other way round.
        assert_eq!(
            judge(&a, &[0.92, 0.92, 0.93, 0.91], "higher", 0.05),
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &[1.08, 1.08, 1.07, 1.09], "higher", 0.05),
            Verdict::Ok
        );
        assert!((worse_by(&[2.0], &[2.2], "lower") - 0.1).abs() < 1e-12);
        assert!((worse_by(&[2.0], &[2.2], "higher") + 0.1).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_sweeps_a() {
        // A's quartile spread is far above the 5% bound.
        let a = [1.0, 1.3, 0.8, 1.2, 0.9];
        // B overlaps A: no conclusion, even though its median is worse.
        assert_eq!(
            judge(&a, &[1.2, 1.25, 1.1, 1.3, 1.0], "lower", 0.05),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: resolved in B's favour.
        assert_eq!(
            judge(&a, &[0.7, 0.75, 0.6, 0.7, 0.65], "lower", 0.05),
            Verdict::Ok
        );
        // A noisy B against a steady A is unresolved too.
        assert_eq!(
            judge(&[1.0, 1.0, 1.0, 1.0], &[1.0, 1.4, 0.7, 1.2], "lower", 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn table_flags_regressions_and_failed_ops() {
        let report = |op: f64, failed: f64| {
            json::parse(&format!(
                r#"{{"workloads":{{"w":{{"failed":{failed},"end_to_end":{{"op_s_p50":{{"runs":[{op},{op}]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let bench = json::parse(
            r#"{"end_to_end":[{"name":"op_s_p50","unit":"s","better":"lower","bound":0.05}]}"#,
        )
        .unwrap();
        let (table, bad) = compare(&report(1.0, 0.0), &report(1.01, 0.0), &bench);
        assert!(!bad, "{table}");
        assert!(table.contains("1.0100 (base 1.000000)"));
        let (table, bad) = compare(&report(1.0, 0.0), &report(1.2, 0.0), &bench);
        assert!(bad && table.contains("REGRESSION"));
        let (_, bad) = compare(&report(1.0, 0.0), &report(1.0, 1.0), &bench);
        assert!(bad, "a failed op is a regression at any speed");
    }
}
