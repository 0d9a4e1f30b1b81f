//! `admeshd` — the mesh-generation job server.
//!
//! Boots an `ADMSERVE/1` TCP endpoint over the job server: bounded
//! admission, single-flight dedup, a shared worker pool, and the
//! two-level content-addressed cache (memory LRU + shard sets on
//! disk). Runs until a client sends `SHUTDOWN`, then optionally
//! exports the server's Chrome trace.
//!
//! ```sh
//! admeshd --port 7777 --workers 4 --cache-dir /var/tmp/admcache
//! admeshd --port 0 --queue-cap 128 --trace-out serve_trace.json
//! ```

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use adm2d::serve::{serve, NetOptions, Server, ServerConfig};
use adm2d::trace::chrome::write_chrome_trace;

const USAGE: &str = "\
admeshd — mesh-generation job server (ADMSERVE/1 over TCP)

USAGE:
    admeshd [OPTIONS]

OPTIONS:
    --host <ADDR>          bind address                   [default: 127.0.0.1]
    --port <N>             bind port (0 = ephemeral)      [default: 7777]
    --workers <N>          mesh executor threads          [default: 2]
    --pool-threads <N>     pool all jobs' tasks fork on   [default: workers]
    --queue-cap <N>        admission queue bound; excess
                           requests get a typed BUSY      [default: 64]
    --mem-cache-mb <N>     memory LRU budget in MiB       [default: 256]
    --cache-dir <DIR>      disk cache root (shard sets); omit to disable
    --max-conns <N>        concurrent connection cap      [default: 64]
    --read-timeout-s <N>   per-connection read timeout    [default: 30]
    --trace-out <PATH>     write a Chrome trace-event JSON on shutdown
    --help                 show this help

The server prints `listening on <addr>` once ready. Stop it with the
SHUTDOWN command (`serve-replay --shutdown` or any protocol client).
";

struct Args {
    host: String,
    port: u16,
    workers: usize,
    pool_threads: Option<usize>,
    queue_cap: usize,
    mem_cache_mb: usize,
    cache_dir: Option<String>,
    max_conns: usize,
    read_timeout_s: u64,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        host: "127.0.0.1".to_string(),
        port: 7777,
        workers: 2,
        pool_threads: None,
        queue_cap: 64,
        mem_cache_mb: 256,
        cache_dir: None,
        max_conns: 64,
        read_timeout_s: 30,
        trace_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--help" | "-h" => return Err("help".to_string()),
            "--host" => args.host = value(&argv, &mut i, flag)?,
            "--port" => {
                args.port = value(&argv, &mut i, flag)?
                    .parse()
                    .map_err(|_| "--port needs a number".to_string())?;
            }
            "--workers" => {
                args.workers = value(&argv, &mut i, flag)?
                    .parse()
                    .map_err(|_| "--workers needs a number".to_string())?;
            }
            "--pool-threads" => {
                args.pool_threads = Some(
                    value(&argv, &mut i, flag)?
                        .parse()
                        .map_err(|_| "--pool-threads needs a number".to_string())?,
                );
            }
            "--queue-cap" => {
                args.queue_cap = value(&argv, &mut i, flag)?
                    .parse()
                    .map_err(|_| "--queue-cap needs a number".to_string())?;
            }
            "--mem-cache-mb" => {
                args.mem_cache_mb = value(&argv, &mut i, flag)?
                    .parse()
                    .map_err(|_| "--mem-cache-mb needs a number".to_string())?;
            }
            "--cache-dir" => args.cache_dir = Some(value(&argv, &mut i, flag)?),
            "--max-conns" => {
                args.max_conns = value(&argv, &mut i, flag)?
                    .parse()
                    .map_err(|_| "--max-conns needs a number".to_string())?;
            }
            "--read-timeout-s" => {
                args.read_timeout_s = value(&argv, &mut i, flag)?
                    .parse()
                    .map_err(|_| "--read-timeout-s needs a number".to_string())?;
            }
            "--trace-out" => args.trace_out = Some(value(&argv, &mut i, flag)?),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if args.workers == 0 {
        return Err("--workers must be >= 1 for a network server".to_string());
    }
    Ok(args)
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

    let server = match Server::new(ServerConfig {
        workers: args.workers,
        pool_threads: args.pool_threads.unwrap_or(args.workers),
        queue_cap: args.queue_cap,
        mem_cache_bytes: args.mem_cache_mb << 20,
        cache_dir: args.cache_dir.clone().map(Into::into),
    }) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("error: failed to start server: {e}");
            return ExitCode::FAILURE;
        }
    };

    let listener = match TcpListener::bind((args.host.as_str(), args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}:{}: {e}", args.host, args.port);
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    let opts = NetOptions {
        max_conns: args.max_conns,
        read_timeout: (args.read_timeout_s > 0).then(|| Duration::from_secs(args.read_timeout_s)),
    };
    if let Err(e) = serve(listener, server.clone(), opts) {
        eprintln!("error: serve loop failed: {e}");
        return ExitCode::FAILURE;
    }
    server.shutdown();

    if let Some(path) = &args.trace_out {
        let snap = server.tracer().snapshot();
        match std::fs::File::create(path) {
            Ok(f) => {
                if let Err(e) = write_chrome_trace(std::io::BufWriter::new(f), &snap) {
                    eprintln!("error: writing trace {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("trace written to {path}");
            }
            Err(e) => {
                eprintln!("error: creating {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
