//! Machine-readable experiment outputs.

use adm_trace::json::{obj, Value};
use adm_trace::Tracer;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A labeled series of (x, y) samples.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label (e.g. "speedup").
    pub name: String,
    /// Sample points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a named empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

impl From<&Series> for Value {
    fn from(s: &Series) -> Value {
        obj! { "name": s.name.as_str(), "points": Value::arr(s.points.iter().copied()) }
    }
}

/// Writes a report, pretty-printed, into `bench_results/<name>.json`
/// (creating the directory next to the workspace root).
pub fn write_json(name: &str, value: &Value) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("bench_results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    f.write_all(value.to_string_pretty().as_bytes())?;
    f.write_all(b"\n")?;
    f.flush()?;
    Ok(path)
}

/// Writes a text artifact (e.g. an SVG) into `bench_results/`.
pub fn write_artifact(name: &str, contents: &[u8]) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("bench_results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Parses `--trace-out <path>` (or `--trace-out=<path>`) from this
/// process's arguments. Every bench binary honors it.
pub fn trace_out_arg() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--trace-out=") {
            return Some(PathBuf::from(v));
        }
        if a == "--trace-out" {
            return args.get(i + 1).map(PathBuf::from);
        }
    }
    None
}

/// Writes a trace snapshot as Chrome trace-event JSON (load in
/// `about:tracing` or Perfetto) to `path`.
pub fn write_snapshot_trace(path: &Path, snap: &adm_trace::TraceSnapshot) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let f = std::io::BufWriter::new(std::fs::File::create(path)?);
    adm_trace::chrome::write_chrome_trace(f, snap)
}

/// Honors a `--trace-out` argument if present: exports `tracer` there and
/// reports the path on stderr. Returns the path written, if any.
pub fn maybe_write_trace(tracer: &Tracer) -> std::io::Result<Option<PathBuf>> {
    maybe_write_snapshot_trace(&tracer.snapshot())
}

/// Snapshot-level version of [`maybe_write_trace`], for traces assembled
/// by hand (e.g. from simulated schedules).
pub fn maybe_write_snapshot_trace(
    snap: &adm_trace::TraceSnapshot,
) -> std::io::Result<Option<PathBuf>> {
    let Some(path) = trace_out_arg() else {
        return Ok(None);
    };
    write_snapshot_trace(&path, snap)?;
    eprintln!("[trace] wrote {}", path.display());
    Ok(Some(path))
}
