//! Serving-layer throughput/latency benchmark.
//!
//! Runs the replay driver against an in-process job server in three
//! phases over the same seeded mixed workload (NACA / high-lift /
//! general PSLG):
//!
//! * **cold** — empty caches: every distinct shape meshes once;
//! * **warm** — the identical request stream again: all memory hits;
//! * **dup** — the stream fired from many client threads at a
//!   single-worker server, so identical requests pile up in flight and
//!   coalesce.
//!
//! The committed claim (gated by `ci/check_bench_regression.py
//! --serve`): warm throughput ≥ 10× cold on a repeated workload, warm
//! hit rate ≥ 90%, and every response digest for a key identical
//! across all phases. Queue-depth and latency histograms come from the
//! server's own `serve.*` trace registry.
//!
//! Usage: serve_throughput [--requests N] [--distinct N] [--seed N]
//!                         [--threads N] [--quick]

use adm_bench::write_json;
use adm_serve::{replay, workload, Server, ServerConfig};
use adm_trace::json::{obj, Value};
use adm_trace::Histogram;

fn hist_report(h: Option<&Histogram>) -> Value {
    obj! {
        // log2 bucket counts, bucket i covers [2^(i-1), 2^i).
        "buckets": h.map_or(Vec::new(), |h| h.buckets.to_vec()),
        "count": h.map_or(0, |h| h.count),
        "mean": h.map_or(0.0, Histogram::mean),
    }
}

fn rps(stats: &adm_serve::ReplayStats, wall_s: f64) -> f64 {
    stats.ok as f64 / wall_s.max(1e-9)
}

fn phase(stats: &adm_serve::ReplayStats, wall_s: f64) -> Value {
    obj! {
        "requests": stats.total,
        "ok": stats.ok,
        "busy": stats.busy,
        "wall_s": wall_s,
        "rps": rps(stats, wall_s),
        "p50_us": stats.latency_quantile(0.50),
        "p90_us": stats.latency_quantile(0.90),
        "p99_us": stats.latency_quantile(0.99),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // 800 requests over the full 8-shape catalog: the cold pass is
    // dominated by the 8 mesh jobs (the caches' value shows as the
    // warm/cold ratio), while still replaying enough repeats for the
    // hit-rate and queue-depth numbers to mean something.
    let mut requests = 800usize;
    let mut distinct = 8usize;
    let mut seed = 11u64;
    let mut threads = 8usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--requests" => {
                i += 1;
                requests = args[i].parse().expect("--requests N");
            }
            "--distinct" => {
                i += 1;
                distinct = args[i].parse().expect("--distinct N");
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed N");
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads N");
            }
            "--quick" => {
                requests = 200;
                distinct = 6;
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    let hw = std::thread::available_parallelism().map_or(2, |n| n.get());
    let server = Server::new(ServerConfig {
        workers: (hw / 2).clamp(1, 4),
        pool_threads: (hw / 2).clamp(1, 4),
        queue_cap: 4096,
        mem_cache_bytes: 1 << 30,
        cache_dir: None,
    })
    .expect("server boot");
    let reqs = workload(seed, requests, distinct);

    eprintln!("cold: {requests} requests, {distinct} distinct shapes…");
    let t0 = std::time::Instant::now();
    let cold = replay(&server, &reqs, threads);
    let cold_s = t0.elapsed().as_secs_f64();
    assert_eq!(cold.ok + cold.busy + cold.failed, requests);

    eprintln!("warm: same stream again…");
    let mesh_jobs_before_warm = server.tracer().counter("serve.mesh_jobs");
    let requests_before_warm = server.tracer().counter("serve.requests");
    let t1 = std::time::Instant::now();
    let warm = replay(&server, &reqs, threads);
    let warm_s = t1.elapsed().as_secs_f64();
    let warm_hits = server.tracer().counter("serve.hits_mem")
        + server.tracer().counter("serve.hits_disk")
        + server.tracer().counter("serve.coalesced");
    let warm_requests = server.tracer().counter("serve.requests") - requests_before_warm;
    // Hits accumulated in the cold phase too; the warm-phase rate uses
    // the fact that warm adds no mesh jobs.
    let warm_new_jobs = server.tracer().counter("serve.mesh_jobs") - mesh_jobs_before_warm;
    let warm_hit_rate =
        (warm_requests.saturating_sub(warm_new_jobs)) as f64 / warm_requests.max(1) as f64;
    let _ = warm_hits;

    eprintln!("dup: single-worker pile-up…");
    let dup_server = Server::new(ServerConfig {
        workers: 1,
        pool_threads: 1,
        queue_cap: 4096,
        mem_cache_bytes: 1 << 30,
        cache_dir: None,
    })
    .expect("server boot");
    let t2 = std::time::Instant::now();
    let dup = replay(&dup_server, &reqs, threads.max(4));
    let dup_s = t2.elapsed().as_secs_f64();
    let dup_coalesced = dup_server.tracer().counter("serve.coalesced");

    let digests_consistent = cold.digests == warm.digests
        && dup
            .digests
            .iter()
            .all(|(k, d)| cold.digests.get(k).is_none_or(|c| c == d));

    let snap = server.tracer().snapshot();
    let (cold_rps, warm_rps) = (rps(&cold, cold_s), rps(&warm, warm_s));
    let mesh_jobs =
        server.tracer().counter("serve.mesh_jobs") + dup_server.tracer().counter("serve.mesh_jobs");
    let report = obj! {
        "requests": requests,
        "distinct": distinct,
        "seed": seed,
        "dup_threads": threads.max(4),
        "cold": phase(&cold, cold_s),
        "warm": phase(&warm, warm_s),
        "dup": phase(&dup, dup_s),
        // warm.rps / cold.rps — the cache's whole value proposition.
        "warm_over_cold": warm_rps / cold_rps,
        // Server-side hit rate over the warm phase (hits / requests).
        "warm_hit_rate": warm_hit_rate,
        // Coalesced duplicates during the dup phase.
        "dup_coalesced": dup_coalesced,
        // Mesh jobs over all three phases (== distinct if caching works).
        "mesh_jobs": mesh_jobs,
        // Queue-depth histogram (log2 buckets) over the whole run.
        "queue_depth_hist": hist_report(snap.histograms.get("serve.queue_depth")),
        // Serve-side latency histogram in microseconds (log2 buckets).
        "latency_us_hist": hist_report(snap.histograms.get("serve.latency_us")),
        // All per-key digests agreed across phases.
        "digests_consistent": digests_consistent,
    };

    server.shutdown();
    dup_server.shutdown();

    let path = write_json("serve_throughput", &report).expect("write report");
    eprintln!(
        "cold {:.1} req/s | warm {:.1} req/s ({:.0}x) | warm hit rate {:.1}% | dup coalesced {} | {} mesh jobs",
        cold_rps,
        warm_rps,
        warm_rps / cold_rps,
        warm_hit_rate * 100.0,
        dup_coalesced,
        mesh_jobs
    );
    eprintln!("wrote {}", path.display());
}
