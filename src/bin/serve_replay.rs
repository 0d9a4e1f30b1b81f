//! `serve-replay` — load-replay and chaos client for `admeshd`.
//!
//! Fires a seeded mixed workload (NACA / high-lift / general PSLG) at
//! a running server over `ADMSERVE/1`, measures throughput and latency
//! percentiles, and cross-checks the content-addressed contract: every
//! response for the same key must carry the same sha256 digest. Chaos
//! mode adds slow clients (dribbled request bytes), mid-request
//! disconnects, and duplicate submissions — all drawn from the seed.
//!
//! ```sh
//! serve-replay --connect 127.0.0.1:7777 --requests 500 --seed 7
//! serve-replay --connect 127.0.0.1:7777 --requests 200 --chaos --threads 8
//! serve-replay --connect 127.0.0.1:7777 --assert-hit-rate 0.9 --json
//! serve-replay --connect 127.0.0.1:7777 --shutdown
//! ```

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use adm2d::serve::{canonical_request, workload, Client, Rng, WireResponse, PROTO};
use adm2d::trace::json::{self, obj, Value};

const USAGE: &str = "\
serve-replay — workload replay and chaos client for admeshd

USAGE:
    serve-replay --connect <ADDR> [OPTIONS]

OPTIONS:
    --connect <ADDR>         server address, e.g. 127.0.0.1:7777  (required)
    --requests <N>           requests to fire               [default: 200]
    --distinct <N>           distinct request shapes (<= 8) [default: 4]
    --seed <N>               workload / chaos seed          [default: 1]
    --threads <N>            client threads                 [default: 4]
    --chaos                  enable slow clients, mid-request disconnects,
                             and duplicate submissions (seeded)
    --assert-hit-rate <F>    exit nonzero unless the server-side cache hit
                             rate over this run is >= F (0..=1)
    --assert-p99-ms <N>      exit nonzero unless client-observed p99 <= N ms
    --json                   print the run report as JSON
    --shutdown               send SHUTDOWN after the run (or alone)
    --help                   show this help
";

struct Args {
    connect: Option<String>,
    requests: usize,
    distinct: usize,
    seed: u64,
    threads: usize,
    chaos: bool,
    assert_hit_rate: Option<f64>,
    assert_p99_ms: Option<u64>,
    json: bool,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        connect: None,
        requests: 200,
        distinct: 4,
        seed: 1,
        threads: 4,
        chaos: false,
        assert_hit_rate: None,
        assert_p99_ms: None,
        json: false,
        shutdown: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |s: String, flag: &str| -> Result<u64, String> {
        s.parse().map_err(|_| format!("{flag} needs a number"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--help" | "-h" => return Err("help".to_string()),
            "--connect" => args.connect = Some(value(&argv, &mut i, flag)?),
            "--requests" => args.requests = num(value(&argv, &mut i, flag)?, flag)? as usize,
            "--distinct" => args.distinct = num(value(&argv, &mut i, flag)?, flag)? as usize,
            "--seed" => args.seed = num(value(&argv, &mut i, flag)?, flag)?,
            "--threads" => args.threads = (num(value(&argv, &mut i, flag)?, flag)? as usize).max(1),
            "--chaos" => args.chaos = true,
            "--assert-hit-rate" => {
                args.assert_hit_rate = Some(
                    value(&argv, &mut i, flag)?
                        .parse()
                        .map_err(|_| format!("{flag} needs a fraction"))?,
                );
            }
            "--assert-p99-ms" => {
                args.assert_p99_ms = Some(num(value(&argv, &mut i, flag)?, flag)?);
            }
            "--json" => args.json = true,
            "--shutdown" => args.shutdown = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if args.connect.is_none() {
        return Err("--connect is required".to_string());
    }
    Ok(args)
}

#[derive(Default)]
struct Tally {
    ok: usize,
    busy: usize,
    errs: usize,
    disconnected: usize,
    latencies_us: Vec<u64>,
    digests: BTreeMap<String, String>,
    mismatches: usize,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Sends one request the slow way: the command line, then the payload
/// dribbled in small chunks. Exercises the server's read-timeout and
/// partial-read paths without ever being *so* slow that it trips them.
fn slow_mesh(addr: SocketAddr, payload: &str, rng: &mut Rng) -> std::io::Result<WireResponse> {
    let mut stream = TcpStream::connect(addr)?;
    // Defeat Nagle so each dribbled chunk really hits the wire alone.
    stream.set_nodelay(true)?;
    writeln!(stream, "{PROTO} MESH 1 {}", payload.len())?;
    let bytes = payload.as_bytes();
    let mut at = 0;
    while at < bytes.len() {
        let chunk = (rng.below(512) + 64).min(bytes.len() - at);
        stream.write_all(&bytes[at..at + chunk])?;
        stream.flush()?;
        at += chunk;
        std::thread::sleep(Duration::from_millis(rng.below(4) as u64));
    }
    let mut r = std::io::BufReader::new(stream);
    adm2d::serve::wire::read_response(&mut r)
}

/// Connects, sends the command line and half the payload, and hangs
/// up. The server must shrug (abort the connection) without admitting
/// a half request.
fn disconnect_mid_request(addr: SocketAddr, payload: &str) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    writeln!(stream, "{PROTO} MESH 1 {}", payload.len())?;
    let half = payload.len() / 2;
    stream.write_all(&payload.as_bytes()[..half])?;
    stream.flush()?;
    drop(stream); // RST/EOF mid-payload
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e == "help" {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let addr: SocketAddr = match args.connect.as_deref().unwrap().parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: bad --connect address: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Fail fast if the server is not up — this also makes
    // `--requests 0` a usable readiness probe for CI boot loops.
    if let Err(e) = Client::connect(addr).and_then(|mut c| c.ping()) {
        eprintln!("error: server not reachable at {addr}: {e}");
        return ExitCode::FAILURE;
    }

    let reqs = workload(args.seed, args.requests, args.distinct.clamp(1, 8));
    let payloads: Vec<String> = reqs
        .iter()
        .map(|c| canonical_request(c).expect("workload configs are cacheable"))
        .collect();

    let tally = Mutex::new(Tally::default());
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..args.threads {
            let payloads = &payloads;
            let tally = &tally;
            let next = &next;
            let mut rng = Rng::new(args.seed ^ (t as u64).wrapping_mul(0x9e37));
            scope.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("error: connect: {e}");
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= payloads.len() {
                        return;
                    }
                    // Chaos: some requests go through hostile clients.
                    if args.chaos {
                        match rng.below(10) {
                            0 => {
                                // slow dribbling client on its own conn
                                let q0 = Instant::now();
                                let out = slow_mesh(addr, &payloads[i], &mut rng);
                                record(tally, out, q0.elapsed());
                                continue;
                            }
                            1 => {
                                let _ = disconnect_mid_request(addr, &payloads[i]);
                                tally.lock().unwrap().disconnected += 1;
                                continue;
                            }
                            2 => {
                                // duplicate submission back-to-back
                                let q0 = Instant::now();
                                let out = client.mesh_raw(0, &payloads[i]);
                                record(tally, out, q0.elapsed());
                                let q1 = Instant::now();
                                let out = client.mesh_raw(0, &payloads[i]);
                                record(tally, out, q1.elapsed());
                                continue;
                            }
                            _ => {}
                        }
                    }
                    let q0 = Instant::now();
                    let out = client.mesh_raw((i % 2) as u8, &payloads[i]);
                    record(tally, out, q0.elapsed());
                }
            });
        }
    });
    let wall = t0.elapsed();

    let mut tally = tally.into_inner().unwrap();
    tally.latencies_us.sort_unstable();
    let p50 = quantile(&tally.latencies_us, 0.50);
    let p90 = quantile(&tally.latencies_us, 0.90);
    let p99 = quantile(&tally.latencies_us, 0.99);
    let rps = tally.ok as f64 / wall.as_secs_f64().max(1e-9);

    // Server-side hit rate over this run, from STATS deltas… the
    // replay owns the whole server lifetime in CI, so totals suffice.
    let hit_rate = match Client::connect(addr).and_then(|mut c| c.stats()) {
        Ok(stats) => hit_rate_from_stats(&stats),
        Err(_) => None,
    };

    if args.shutdown {
        match Client::connect(addr).and_then(|mut c| c.shutdown()) {
            Ok(()) => {}
            Err(e) => eprintln!("warning: shutdown: {e}"),
        }
    }

    if args.json {
        let report = obj! {
            "requests": args.requests,
            "ok": tally.ok,
            "busy": tally.busy,
            "errors": tally.errs,
            "disconnected": tally.disconnected,
            "mismatches": tally.mismatches,
            "wall_s": wall.as_secs_f64(),
            "rps": rps,
            "p50_us": p50,
            "p90_us": p90,
            "p99_us": p99,
            "hit_rate": hit_rate,
        };
        println!("{report}");
    } else {
        println!(
            "replayed {} requests in {:.3}s: {} ok ({:.1} req/s), {} busy, {} errors, {} chaos-disconnects",
            args.requests,
            wall.as_secs_f64(),
            tally.ok,
            rps,
            tally.busy,
            tally.errs,
            tally.disconnected
        );
        println!("latency p50 {p50}us  p90 {p90}us  p99 {p99}us");
        if let Some(h) = hit_rate {
            println!("server cache hit rate {:.1}%", h * 100.0);
        }
    }

    if tally.mismatches > 0 {
        eprintln!("error: {} digest mismatches", tally.mismatches);
        return ExitCode::FAILURE;
    }
    if let Some(want) = args.assert_hit_rate {
        match hit_rate {
            Some(h) if h >= want => {}
            Some(h) => {
                eprintln!("error: hit rate {h:.4} < required {want:.4}");
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("error: --assert-hit-rate set but stats unavailable");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(cap_ms) = args.assert_p99_ms {
        if p99 > cap_ms * 1000 {
            eprintln!("error: p99 {}us exceeds {}ms", p99, cap_ms);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn record(tally: &Mutex<Tally>, out: std::io::Result<WireResponse>, dt: Duration) {
    let mut t = tally.lock().unwrap();
    match out {
        Ok(WireResponse::Ok { key, digest, .. }) => {
            t.ok += 1;
            t.latencies_us.push(dt.as_micros() as u64);
            match t.digests.get(&key) {
                Some(prev) if *prev != digest => t.mismatches += 1,
                Some(_) => {}
                None => {
                    t.digests.insert(key, digest);
                }
            }
        }
        Ok(WireResponse::Busy { .. }) => t.busy += 1,
        Ok(WireResponse::Err(_)) | Err(_) => t.errs += 1,
    }
}

/// Reads the `serve.*` counters of a `STATS` document and computes the
/// cache hit rate (mem + disk + coalesced over all answered work).
fn hit_rate_from_stats(stats: &str) -> Option<f64> {
    let doc = json::parse(stats).ok()?;
    let counters = doc.get("counters")?;
    let counter = |name: &str| counters.get(name).and_then(Value::as_u64).unwrap_or(0);
    let hits = counter("serve.hits_mem") + counter("serve.hits_disk") + counter("serve.coalesced");
    let total = hits + counter("serve.mesh_jobs");
    if total == 0 {
        return None;
    }
    Some(hits as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_does_not_depend_on_how_stats_is_spaced() {
        let stats = obj! {
            "counters": obj! {
                "serve.coalesced": 1u64,
                "serve.hits_disk": 2u64,
                "serve.hits_mem": 3u64,
                "serve.mesh_jobs": 2u64,
            },
            "queue_depth": 0u64,
            "mem_cache_bytes": 4096u64,
        };
        assert_eq!(hit_rate_from_stats(&stats.to_string()), Some(0.75));
        assert_eq!(hit_rate_from_stats(&stats.to_string_pretty()), Some(0.75));
        assert_eq!(hit_rate_from_stats("{\"counters\":{}}"), None);
        assert_eq!(hit_rate_from_stats("{\"counters\":"), None);
    }
}
