//! The pretty rendering of a nested report sample, byte for byte as the
//! vendored derive-and-render stub printed it (captured at the last commit
//! that had it) before `adm_trace::json` replaced it: the committed
//! `bench_results/*.json` and fresh reports must keep one shape.

use adm_bench::Series;
use adm_trace::json::{obj, Value};
use adm_trace::PhaseTotal;

const GOLDEN: &str = r#"{
  "label": "tab\there",
  "ranks": 2,
  "floats": [
    1.0,
    0.1,
    0.0000001,
    null
  ],
  "speedup": {
    "name": "speed\"up\"",
    "points": [
      [
        1.0,
        1.0
      ],
      [
        2.0,
        1.9
      ]
    ]
  },
  "trace_phases": [
    {
      "name": "task.inviscid_refine",
      "count": 640,
      "total_s": 1.25
    },
    {
      "name": "phase.merge",
      "count": 1,
      "total_s": 0.30000000000000004
    }
  ],
  "empty": [],
  "big": 18446744073709551615,
  "ok": true
}"#;

#[test]
fn report_sample_renders_as_before() {
    let mut speedup = Series::new("speed\"up\"");
    speedup.push(1.0, 1.0);
    speedup.push(2.0, 1.9);
    let phases = [
        PhaseTotal {
            name: "task.inviscid_refine".into(),
            count: 640,
            total_s: 1.25,
        },
        PhaseTotal {
            name: "phase.merge".into(),
            count: 1,
            total_s: 0.1 + 0.2,
        },
    ];
    let report = obj! {
        "label": "tab\there",
        "ranks": 2usize,
        "floats": vec![1.0, 0.1, 1e-7, f64::NAN],
        "speedup": &speedup,
        "trace_phases": Value::arr(&phases),
        "empty": Vec::<u64>::new(),
        "big": u64::MAX,
        "ok": true,
    };
    assert_eq!(report.to_string_pretty(), GOLDEN);
}

/// The committed reports were written by the writer this module replaced:
/// parsing one and printing it again must give the file back byte for
/// byte (key order, indentation, float and integer rendering).
#[test]
fn committed_reports_reprint_byte_for_byte() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results");
    for name in [
        "fig11_12_scaling.json",
        "fig11_12_scaling_sharded.json",
        "fig16_adapt.json",
        "serve_throughput.json",
    ] {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        let doc = adm_trace::json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(doc.to_string_pretty() + "\n", text, "{name}");
    }
}
