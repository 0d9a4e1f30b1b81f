//! `e2e` — the end-to-end measurement ledger of `adm2d`.
//!
//! Seven named workloads, each measured two ways: a **timed** run with
//! tracing off (end-to-end metrics: set-up, median op time, throughput,
//! peak RSS, failures) and a **traced** pass (per-layer metrics from
//! spans recorded around the layers' public functions, accepted only if
//! it reproduces the timed op's sha256 digest). See `README.md` next to
//! this package for the glossary and the interaction table.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! e2e --all [--smoke] [--seed <n>] [--runs <k>] --out <file>     all seven, one report
//! e2e --compare <A.json> <B.json>                                bounds of BENCHMARK.json
//! e2e --pin <expected.json>                                      regenerate the oracles
//! ```

mod compare;
mod inputs;
mod json;
mod library;
mod metrics;
mod probes;
mod replica;
mod serve;
mod spans;
mod stats;
mod traced;
mod verify;

use inputs::{Budget, Workload};
use json::{num, nums, obj, text, Value};
use library::Timed;
use metrics::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `--flag value` pairs and bare flags of the command line.
struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }
}

/// The end-to-end metrics of one timed run, in glossary order.
fn end_to_end(w: Workload, t: &Timed) -> Vec<(&'static str, f64)> {
    let p50 = stats::median(&t.op_s);
    let ok = t.op_s.len() as f64;
    let mtri = t.triangles as f64 / 1e6;
    // A library op *is* one mesh, so its rate is triangles per median op;
    // a serve loop delivers meshes from concurrent clients, so its rate is
    // triangles delivered per second of wall.
    let mtri_per_s = if w.is_serve() {
        mtri / t.wall_s
    } else {
        mtri / ok / p50
    };
    let values = [t.setup_s, p50, mtri_per_s, ok / t.wall_s, t.peak_rss_mb];
    END_TO_END.iter().map(|m| m.name).zip(values).collect()
}

fn metric_object(rows: impl Iterator<Item = (&'static str, f64, &'static str)>) -> Value {
    Value::Obj(
        rows.map(|(name, value, unit)| {
            (
                name.to_string(),
                obj(vec![("value", num(value)), ("unit", text(unit))]),
            )
        })
        .collect(),
    )
}

/// The one-line result the benchmark contract asks for.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics),
    ])
    .to_line()
}

fn budget_name(b: Budget) -> String {
    match b {
        Budget::Seconds(s) => format!("{s} s"),
        Budget::Full => "full".into(),
        Budget::Smoke => "smoke".into(),
    }
}

/// One run of one workload: prints every metric by name and unit, a
/// `DETAIL` line with the samples, and the result line last.
fn run_one(w: Workload, seed: u64, budget: Budget, trace: bool, chrome: Option<&str>) -> ExitCode {
    eprintln!(
        "[e2e] {} seed {seed} budget {} trace {} (merge_threads {}, nproc {})",
        w.name(),
        budget_name(budget),
        u8::from(trace),
        inputs::merge_threads(),
        nproc()
    );
    if trace {
        let t = traced::run(w, seed, budget);
        for e in &t.errors {
            eprintln!("[e2e] FAILED: {e}");
        }
        for (name, value, unit) in t.layers.rows() {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        if let Some(snap) = &t.snapshot {
            eprintln!("[e2e] self-time by span (s self / s total / count):");
            for (name, own, total, n) in spans::self_by_name(&snap.spans).into_iter().take(12) {
                eprintln!("[e2e]   {name:<24} {own:>10.4} {total:>10.4} {n:>6}");
            }
        }
        if let (Some(path), Some(snap)) = (chrome, &t.snapshot) {
            let f =
                std::io::BufWriter::new(std::fs::File::create(path).expect("create trace file"));
            adm_trace::chrome::write_chrome_trace(f, snap).expect("write trace file");
            eprintln!("[e2e] wrote {path}");
        }
        println!(
            "{}",
            result_line(
                t.failed == 0,
                t.attempted,
                t.failed,
                metric_object(t.layers.rows())
            )
        );
        return ExitCode::SUCCESS;
    }

    let t = if w.is_serve() {
        serve::run(w, seed, budget)
    } else {
        library::run(w, seed, budget)
    };
    for e in &t.errors {
        eprintln!("[e2e] FAILED: {e}");
    }
    if t.op_s.is_empty() {
        eprintln!("[e2e] no op succeeded; nothing to report");
        return ExitCode::from(2);
    }
    let metrics = end_to_end(w, &t);
    for ((name, value), m) in metrics.iter().zip(END_TO_END) {
        println!("{name:<28} {value:>16.6} {}", m.unit);
    }
    let (q1, q3) = stats::quartiles(&t.op_s);
    let tail = stats::highest_supported_percentile(t.op_s.len());
    println!(
        "op_s: n {} q1 {q1:.6} q3 {q3:.6} max {:.6}{}",
        t.op_s.len(),
        t.op_s.iter().copied().fold(0.0, f64::max),
        tail.map_or(String::new(), |p| format!(
            " p{p} {:.6}",
            stats::percentile(&t.op_s, p)
        ))
    );
    // Samples for the report writer; capped so a 60 000-request run does
    // not print a megabyte.
    let stride = t.op_s.len().div_ceil(512).max(1);
    let detail = obj(vec![
        ("n", num(t.op_s.len() as f64)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("tail_percentile", tail.map_or(Value::Null, num)),
        (
            "tail",
            tail.map_or(Value::Null, |p| num(stats::percentile(&t.op_s, p))),
        ),
        (
            "samples",
            nums(&t.op_s.iter().copied().step_by(stride).collect::<Vec<_>>()),
        ),
        (
            "digests",
            Value::Arr(t.digests.iter().take(4).map(|d| text(d.clone())).collect()),
        ),
    ]);
    println!("DETAIL {}", detail.to_line());
    let rows = metrics
        .iter()
        .zip(END_TO_END)
        .map(|((name, value), m)| (*name, *value, m.unit));
    println!(
        "{}",
        result_line(
            t.errors.is_empty(),
            t.attempted,
            t.failed,
            metric_object(rows)
        )
    );
    ExitCode::SUCCESS
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a tool's output, or "unknown" where the tool or the
/// repository is not there (the benchmark also runs from plain checkouts).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `HEAD`, marked when the working tree differs from it.
fn git_commit() -> String {
    let head = tool_line("git", &["rev-parse", "HEAD"]);
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .stderr(std::process::Stdio::null())
        .output()
        .is_ok_and(|o| o.status.success() && !o.stdout.is_empty());
    if dirty {
        format!("{head}+dirty")
    } else {
        head
    }
}

/// What a child run printed: its result line, and the `DETAIL` line if any.
struct ChildOutput {
    result: Value,
    detail: Option<Value>,
}

/// Re-executes this binary for one run, so that every workload's peak RSS
/// is its own.
fn child(
    w: Workload,
    seed: u64,
    budget: Budget,
    trace: bool,
    chrome: Option<&str>,
) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    cmd.args(["--budget", &budget_name(budget)]);
    if let Some(path) = chrome {
        cmd.args(["--chrome", path]);
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("DETAIL "))
        .map(json::parse)
        .transpose()?;
    Ok(ChildOutput {
        result: json::parse(last)?,
        detail,
    })
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

fn summary(unit: &str, better: &str, runs: &[f64]) -> Vec<(&'static str, Value)> {
    let (q1, q3) = stats::quartiles(runs);
    vec![
        ("unit", text(unit)),
        ("better", text(better)),
        ("median", num(stats::median(runs))),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("runs", nums(runs)),
    ]
}

/// `--all`: every workload in its own child process, timed then traced,
/// `runs` times; prints every metric and writes one JSON report.
fn run_all(seed: u64, budget: Budget, runs: usize, out_path: &str) -> Result<bool, String> {
    let mut all_ok = true;
    let mut workloads: Vec<(String, Value)> = Vec::new();
    let mut medians: Vec<(Workload, Vec<(String, f64)>)> = Vec::new();
    // Why each workload is here, from `BENCHMARK.json` (a unit test holds
    // its workload list to `Workload::ALL`).
    let benchmark = json::parse(BENCHMARK_JSON)?;
    let whys = benchmark
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json lists no workloads")?;
    for (w, entry) in Workload::ALL.into_iter().zip(whys) {
        let why = entry.get("why").and_then(Value::as_str).unwrap_or("");
        let mut e2e_runs: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut layer_runs: Vec<Vec<f64>> = vec![Vec::new(); PER_LAYER.len()];
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        let mut detail = None;
        for run in 0..runs {
            let chrome = format!("{out_path}.{}.trace.json", w.name());
            let timed = child(w, seed, budget, false, None)?;
            let traced = child(w, seed, budget, true, (run + 1 == runs).then_some(&chrome))?;
            for (i, m) in END_TO_END.iter().enumerate() {
                e2e_runs[i].push(metric_value(&timed.result, m.name));
            }
            for (i, m) in PER_LAYER.iter().enumerate() {
                layer_runs[i].push(metric_value(&traced.result, m.name));
            }
            for r in [&timed.result, &traced.result] {
                attempted += r.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
                failed += r.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
                correct &= r.get("correct") == Some(&Value::Bool(true));
            }
            detail = timed.detail;
        }
        all_ok &= correct && failed == 0.0;

        println!("\n== {} — {why}", w.name());
        println!(
            "   attempted {attempted}  failed {failed}  fail_ratio {}",
            failed / attempted.max(1.0)
        );
        let mut e2e = Vec::new();
        for (m, xs) in END_TO_END.iter().zip(&e2e_runs) {
            let (q1, q3) = stats::quartiles(xs);
            println!(
                "   {:<28} {:>16.6} {:<8} [q1 {q1:.6}, q3 {q3:.6}] over {} run(s)",
                m.name,
                stats::median(xs),
                m.unit,
                xs.len()
            );
            e2e.push((m.name.to_string(), obj(summary(m.unit, m.better, xs))));
        }
        let mut layers = Vec::new();
        let mut layer_medians = Vec::new();
        for (m, xs) in PER_LAYER.iter().zip(&layer_runs) {
            let med = stats::median(xs);
            if med != 0.0 {
                println!(
                    "     {:<26} {med:>16.6} {:<8} ({})",
                    m.name, m.unit, m.layer
                );
            }
            layer_medians.push((m.name.to_string(), med));
            let mut fields = summary(m.unit, m.better, xs);
            fields.push(("layer", text(m.layer)));
            fields.push(("moves", text(m.moves)));
            layers.push((m.name.to_string(), obj(fields)));
        }
        layer_medians.push(("op_s_p50".into(), stats::median(&e2e_runs[1])));
        medians.push((w, layer_medians));
        workloads.push((
            w.name().to_string(),
            obj(vec![
                ("why", text(why)),
                (
                    "reps",
                    w.reps(budget).map_or(Value::Null, |n| num(n as f64)),
                ),
                ("attempted", num(attempted)),
                ("failed", num(failed)),
                ("fail_ratio", num(failed / attempted.max(1.0))),
                ("correct", Value::Bool(correct)),
                ("end_to_end", Value::Obj(e2e)),
                ("op_s", detail.unwrap_or(Value::Null)),
                ("per_layer", Value::Obj(layers)),
            ]),
        ));
    }

    // Cross-workload facts: the four things ROADMAP item 1 says nobody
    // could state, each derived from the measured medians above.
    let get = |w: Workload, name: &str| -> f64 {
        medians
            .iter()
            .find(|(x, _)| *x == w)
            .and_then(|(_, ms)| ms.iter().find(|(n, _)| n == name))
            .map_or(f64::NAN, |(_, v)| *v)
    };
    let miss = |name: &str| get(Workload::ServeMiss, name);
    let encode_hash_s = miss("io.ascii_canonical_s")
        + miss("io.response_bytes") / 1e6 / miss("hash.sha256_mb_per_s");
    let efficiency =
        get(Workload::Inviscid1m, "op_s_p50") / (2.0 * get(Workload::Ranks2_1m, "op_s_p50"));
    // Share of the traced inviscid_1m op the named layer metrics explain.
    let inv = |name: &str| get(Workload::Inviscid1m, name);
    let attributed_s: f64 = [
        "refine.regions_s",
        "refine.nearbody_s",
        "merge.propagate_s",
        "merge.tree_s",
        "merge.finish_s",
        "merge.conformity_s",
        "blmesh.total_s",
        "decouple.split_s",
        "sizing.build_s",
    ]
    .into_iter()
    .map(inv)
    .sum();
    let traced_op_s = inv("pipeline.wall_w2_s") * (1.0 + inv("bench.traced_overhead_frac"));
    let facts = obj(vec![
        (
            "inviscid_1m.attributed_share",
            num(attributed_s / traced_op_s),
        ),
        (
            "serve_miss.submit_miss_s",
            num(miss("server.submit_miss_s")),
        ),
        ("serve_miss.encode_plus_hash_s", num(encode_hash_s)),
        (
            "serve_miss.encode_plus_hash_share",
            num(encode_hash_s / miss("server.submit_miss_s")),
        ),
        (
            "inviscid_1m.pipeline.wall_w0_s",
            num(get(Workload::Inviscid1m, "pipeline.wall_w0_s")),
        ),
        (
            "inviscid_1m.pipeline.wall_w2_s",
            num(get(Workload::Inviscid1m, "pipeline.wall_w2_s")),
        ),
        (
            "bl_heavy.pipeline.wall_w0_s",
            num(get(Workload::BlHeavy, "pipeline.wall_w0_s")),
        ),
        (
            "bl_heavy.pipeline.wall_w2_s",
            num(get(Workload::BlHeavy, "pipeline.wall_w2_s")),
        ),
        (
            "mpirt.r1_over_serial",
            num(get(Workload::Ranks2_1m, "mpirt.r1_over_serial")),
        ),
        ("mpirt.parallel_efficiency", num(efficiency)),
        (
            "simnet.pred_p2_s",
            num(get(Workload::Ranks2_1m, "simnet.pred_p2_s")),
        ),
        (
            "simnet.pred_err_p2",
            num(get(Workload::Ranks2_1m, "simnet.pred_err_p2")),
        ),
    ]);
    println!("\n== facts");
    for (k, v) in facts.as_obj().expect("object") {
        println!("   {k:<40} {:.6}", v.as_f64().unwrap_or(f64::NAN));
    }

    let reps = Value::Obj(
        Workload::ALL
            .iter()
            .map(|w| {
                (
                    w.name().to_string(),
                    w.reps(budget).map_or(Value::Null, |n| num(n as f64)),
                )
            })
            .collect(),
    );
    let report = obj(vec![
        (
            "header",
            obj(vec![
                ("benchmark", text("adm-e2e")),
                ("git_commit", text(git_commit())),
                ("rustc", text(tool_line("rustc", &["-V"]))),
                ("nproc", num(nproc() as f64)),
                ("merge_threads", num(inputs::merge_threads() as f64)),
                ("seed", num(seed as f64)),
                ("budget", text(budget_name(budget))),
                ("runs", num(runs as f64)),
                ("reps", reps),
            ]),
        ),
        ("workloads", Value::Obj(workloads)),
        ("facts", facts),
    ]);
    std::fs::write(out_path, report.to_pretty()).map_err(|e| format!("{out_path}: {e}"))?;
    println!("\nwrote {out_path}");
    Ok(all_ok)
}

/// `--pin`: runs every library workload once on each rung of the geometry
/// ladder and writes the fingerprints `expected.json` holds.
fn pin(path: &str) -> Result<(), String> {
    let mut doc = Vec::new();
    for w in Workload::ALL.into_iter().filter(|w| !w.is_serve()) {
        if w == Workload::Ranks2_1m {
            continue; // shares inviscid_1m's entries by definition
        }
        let mut rungs = Vec::new();
        for seed in 1..=7 {
            let (mut op, warm) = library::prepare(w, seed);
            let fp = warm.unwrap_or_else(&mut op).full();
            eprintln!("[pin] {} rung {}: {:?}", w.name(), inputs::rung(seed), fp);
            rungs.push((inputs::rung(seed).to_string(), verify::expected_entry(&fp)));
        }
        doc.push((w.name().to_string(), Value::Obj(rungs)));
    }
    std::fs::write(path, Value::Obj(doc).to_pretty()).map_err(|e| format!("{path}: {e}"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  e2e --all [--smoke] [--seed <n>] [--runs <k>] --out <file>\n  e2e --compare <A.json> <B.json>\n  e2e --pin <expected.json>\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("e2e refuses to measure a debug build; run it with --release");
        return ExitCode::from(2);
    }
    // The pool width is pinned by `inputs::merge_threads`; an inherited
    // override would silently change what the server-side defaults mean.
    std::env::remove_var("ADM_MERGE_THREADS");
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            usage()
        }
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    if let Some(a) = args.value("--compare") {
        let b = args
            .0
            .iter()
            .skip_while(|x| *x != a)
            .nth(1)
            .ok_or("--compare needs two reports")?;
        let benchmark = json::parse(BENCHMARK_JSON)?;
        let (table, regressed) =
            compare::compare(&compare::load(a)?, &compare::load(b)?, &benchmark);
        print!("{table}");
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    if let Some(path) = args.value("--pin") {
        pin(path)?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.has("--all") {
        let out = args.value("--out").ok_or("--all needs --out <file>")?;
        let budget = if args.has("--smoke") {
            Budget::Smoke
        } else {
            Budget::Full
        };
        let runs: usize = args.parsed("--runs")?.unwrap_or(1).max(1);
        let ok = run_all(seed, budget, runs, out)?;
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let name = args.value("--workload").ok_or("no mode given")?;
    let w = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let budget = match (args.parsed::<f64>("--seconds")?, args.value("--budget")) {
        (Some(s), _) if s > 0.0 => Budget::Seconds(s),
        (Some(_), _) => return Err("--seconds must be positive".into()),
        (None, Some("full")) => Budget::Full,
        (None, Some("smoke")) => Budget::Smoke,
        (None, _) => return Err("--workload needs --seconds <s>".into()),
    };
    let trace = match args.value("--trace") {
        Some("1") => true,
        Some("0") | None => false,
        Some(t) => return Err(format!("--trace takes 0 or 1, not {t:?}")),
    };
    Ok(run_one(w, seed, budget, trace, args.value("--chrome")))
}
