//! The two serve workloads: closed-loop TCP clients against an
//! in-process `adm_serve::serve` on a loopback port.
//!
//! Both loops are closed because the real callers — scripts and the
//! adaptation driver — wait for each reply before sending the next
//! request. `serve_miss` is one client sending pairwise-distinct
//! requests (every one a miss: the write side of both cache levels);
//! `serve_hot` is two clients drawing from sixteen pre-warmed keys (all
//! memory-LRU hits: the read side).

use crate::inputs::{self, Budget, Workload, HOT_KEYS};
use crate::library::{median_setup_s, timed, Timed};
use crate::verify::peak_rss_mb;
use adm_core::{sha256_hex, MeshConfig};
use adm_serve::{canonical_request, serve, Client, NetOptions, Server, ServerConfig, WireResponse};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

const SCRATCH_ROOT: &str = ".e2e_tmp";

/// Scratch space for disk caches and shard sets: a directory of the
/// checkout the benchmark runs in, removed by [`remove_scratch`].
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(SCRATCH_ROOT).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Removes a [`scratch_dir`], and the scratch root once it is empty.
pub fn remove_scratch(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(SCRATCH_ROOT);
}

/// A booted server: job server, accept loop on `127.0.0.1:0`, and the
/// disk-cache directory if the disk level is on.
pub struct Rig {
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    accept: Option<JoinHandle<std::io::Result<()>>>,
    dir: Option<PathBuf>,
}

impl Rig {
    /// `workers 1`, `pool_threads 0`: one mesh job at a time on the
    /// worker's own thread, leaving the second core to the client.
    pub fn boot(tag: &str, disk: bool) -> Rig {
        let dir = disk.then(|| scratch_dir(tag));
        let server = Arc::new(
            Server::new(ServerConfig {
                workers: 1,
                pool_threads: 0,
                cache_dir: dir.clone(),
                ..Default::default()
            })
            .expect("server boots"),
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let accept = {
            let server = server.clone();
            std::thread::spawn(move || serve(listener, server, NetOptions::default()))
        };
        Rig {
            server,
            addr,
            accept: Some(accept),
            dir,
        }
    }

    pub fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect to the rig")
    }

    /// Stops the accept loop and the workers, waits for both, removes
    /// the cache directory.
    pub fn stop(mut self) {
        self.client().shutdown().expect("SHUTDOWN acknowledged");
        if let Some(h) = self.accept.take() {
            h.join()
                .expect("accept loop joins")
                .expect("accept loop ends cleanly");
        }
        self.server.shutdown();
        if let Some(dir) = self.dir.take() {
            remove_scratch(&dir);
        }
    }
}

/// Triangle count of a canonical-ASCII payload: the `.ele` header that
/// follows the `<nv> 2 0 0` header and its `nv` vertex lines.
pub fn payload_triangles(bytes: &[u8]) -> Option<u64> {
    let mut lines = bytes.split(|&b| b == b'\n');
    let first = std::str::from_utf8(lines.next()?).ok()?;
    let nv: usize = first.split(' ').next()?.parse().ok()?;
    let ele = std::str::from_utf8(lines.nth(nv)?).ok()?;
    ele.split(' ').next()?.parse().ok()
}

/// One request of a closed loop: its wall time and what came back.
struct Reply {
    dt: f64,
    key: String,
    digest: String,
    bytes: Vec<u8>,
}

fn request(client: &mut Client, payload: &str) -> Result<Reply, String> {
    let t = Instant::now();
    let resp = client.mesh_raw(0, payload);
    let dt = t.elapsed().as_secs_f64();
    match resp {
        Ok(WireResponse::Ok { key, digest, bytes }) => Ok(Reply {
            dt,
            key,
            digest,
            bytes,
        }),
        Ok(WireResponse::Busy { depth, cap }) => Err(format!("BUSY {depth}/{cap}")),
        Ok(WireResponse::Err(e)) => Err(format!("ERR {e}")),
        Err(e) => Err(format!("io: {e}")),
    }
}

fn encode(config: &MeshConfig) -> String {
    canonical_request(config).expect("benchmark requests are cacheable")
}

/// `serve_miss`: one client, every request a new key. `inspect` sees the
/// rig after the loop and before it stops (the traced pass reads `STATS`
/// and pings through it).
pub fn run_miss(seed: u64, budget: Budget, inspect: impl FnOnce(&Rig)) -> Timed {
    let mut out = Timed::default();
    // Set-up: boot (server, accept loop, empty disk cache), connect, one
    // warm-up request.
    let setup = || {
        let rig = Rig::boot("serve_miss", true);
        let mut client = rig.client();
        let warm = request(&mut client, &encode(&inputs::miss_warmup(seed)));
        (rig, client, warm.map(drop))
    };
    let ((rig, mut client, warm), first_setup_s) = timed(setup);
    if let Err(e) = warm {
        out.attempted += 1;
        out.fail(format!("warm-up: {e}"));
    }

    let reps = Workload::ServeMiss.reps(budget);
    for i in 0.. {
        let more = match (reps, budget) {
            (Some(n), _) => i < n,
            (None, Budget::Seconds(s)) => out.wall_s < s || i < 2,
            (None, _) => unreachable!("fixed budgets have rep counts"),
        };
        if !more {
            break;
        }
        let payload = encode(&inputs::miss_request(seed, i));
        out.attempted += 1;
        let reply = request(&mut client, &payload);
        // Checks run with the clock stopped, and the 7 MB payload is
        // dropped before the next request so the high-water mark holds
        // one response, not all of them.
        match reply {
            Err(e) => out.fail(format!("request {i}: {e}")),
            Ok(r) => {
                out.wall_s += r.dt;
                let tris = payload_triangles(&r.bytes);
                if r.key != sha256_hex(payload.as_bytes()) {
                    out.fail(format!(
                        "request {i}: key is not the request's content address"
                    ));
                } else if r.digest != sha256_hex(&r.bytes) {
                    out.fail(format!(
                        "request {i}: digest header does not match the payload"
                    ));
                } else if let Some(n) = tris.filter(|&n| n > 0) {
                    out.op_s.push(r.dt);
                    out.triangles += n;
                    out.bytes += r.bytes.len() as u64;
                    out.digests.push(r.digest);
                } else {
                    out.fail(format!("request {i}: payload has no triangle section"));
                }
            }
        }
    }
    out.peak_rss_mb = peak_rss_mb();
    drop(client);
    inspect(&rig);
    rig.stop();
    out.setup_s = median_setup_s(first_setup_s, setup, |(rig, client, _)| {
        drop(client);
        rig.stop();
    });
    out
}

/// Pre-encoded payloads of the sixteen hot keys.
pub fn hot_payloads(seed: u64) -> Vec<String> {
    (0..HOT_KEYS)
        .map(|k| encode(&inputs::hot_request(seed, k)))
        .collect()
}

/// What one `serve_hot` client saw.
struct ClientLog {
    latencies: Vec<f64>,
    /// OK responses per key.
    hits: Vec<u64>,
    /// First response per key: `(digest header, payload)`.
    first: Vec<Option<(String, Vec<u8>)>>,
    errors: Vec<String>,
}

fn hot_client(
    addr: SocketAddr,
    payloads: &[String],
    seed: u64,
    client_id: usize,
    quota: Option<usize>,
    seconds: f64,
    start: &Barrier,
) -> ClientLog {
    let mut client = Client::connect(addr).expect("connect to the rig");
    let mut draws = inputs::hot_draws(seed, client_id);
    let mut log = ClientLog {
        latencies: Vec::new(),
        hits: vec![0; HOT_KEYS],
        first: (0..HOT_KEYS).map(|_| None).collect(),
        errors: Vec::new(),
    };
    start.wait();
    let t0 = Instant::now();
    let mut sent = 0usize;
    loop {
        let more = match quota {
            Some(n) => sent < n,
            None => t0.elapsed().as_secs_f64() < seconds,
        };
        if !more {
            break;
        }
        sent += 1;
        let k = draws.range(0, HOT_KEYS as u64) as usize;
        match request(&mut client, &payloads[k]) {
            Err(e) => log.errors.push(format!("client {client_id} key {k}: {e}")),
            Ok(r) => match &log.first[k] {
                Some((digest, _)) if *digest != r.digest => log.errors.push(format!(
                    "client {client_id} key {k}: digest changed between responses"
                )),
                Some(_) => {
                    log.latencies.push(r.dt);
                    log.hits[k] += 1;
                }
                None => {
                    log.latencies.push(r.dt);
                    log.hits[k] += 1;
                    log.first[k] = Some((r.digest, r.bytes));
                }
            },
        }
    }
    log
}

/// `serve_hot`: two clients over sixteen pre-warmed keys.
pub fn run_hot(seed: u64, budget: Budget, inspect: impl FnOnce(&Rig)) -> Timed {
    const CLIENTS: usize = 2;
    let mut out = Timed::default();
    // Set-up: boot, encode the sixteen payloads, pre-warm every key.
    let setup = || {
        let rig = Rig::boot("serve_hot", false);
        let payloads = hot_payloads(seed);
        let mut client = rig.client();
        let warm: Vec<Result<String, String>> = payloads
            .iter()
            .map(|p| request(&mut client, p).map(|r| r.digest))
            .collect();
        (rig, payloads, warm)
    };
    let ((rig, payloads, warm), first_setup_s) = timed(setup);
    for (k, digest) in warm.into_iter().enumerate() {
        if let Err(e) = &digest {
            out.attempted += 1;
            out.fail(format!("pre-warm key {k}: {e}"));
        }
        out.digests.push(digest.unwrap_or_default());
    }

    let quota = Workload::ServeHot.reps(budget).map(|n| n / CLIENTS);
    let seconds = match budget {
        Budget::Seconds(s) => s,
        _ => f64::INFINITY,
    };
    let start = Barrier::new(CLIENTS + 1);
    let (logs, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (payloads, start) = (&payloads, &start);
                let addr = rig.addr;
                scope.spawn(move || hot_client(addr, payloads, seed, c, quota, seconds, start))
            })
            .collect();
        start.wait();
        let t = Instant::now();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread joins"))
            .collect();
        (logs, t.elapsed().as_secs_f64())
    });
    out.wall_s = wall_s;
    out.peak_rss_mb = peak_rss_mb();

    // After timing: one payload per key per client is re-hashed and its
    // key and triangle count read; every other response was checked
    // against that first one by digest header as it arrived.
    for (c, log) in logs.into_iter().enumerate() {
        out.attempted += (log.latencies.len() + log.errors.len()) as u64;
        out.failed += log.errors.len() as u64;
        out.errors.extend(log.errors);
        let mut bad_keys = 0u64;
        for (k, first) in log.first.iter().enumerate() {
            let Some((digest, bytes)) = first else {
                continue;
            };
            let tris = payload_triangles(bytes).unwrap_or(0);
            if *digest != sha256_hex(bytes) || *digest != out.digests[k] || tris == 0 {
                out.errors.push(format!(
                    "client {c} key {k}: payload does not hash to its digest"
                ));
                bad_keys += log.hits[k];
            } else {
                out.triangles += tris * log.hits[k];
                out.bytes += bytes.len() as u64 * log.hits[k];
            }
        }
        out.failed += bad_keys;
        out.op_s.extend(log.latencies);
    }
    // A rejected key's latencies cannot be told apart any more; the run
    // is marked incorrect through `errors`, which is what gates.
    out.op_s.truncate(out.ok() as usize);
    inspect(&rig);
    rig.stop();
    out.setup_s = median_setup_s(first_setup_s, setup, |(rig, _, _)| rig.stop());
    out
}

pub fn run(w: Workload, seed: u64, budget: Budget) -> Timed {
    match w {
        Workload::ServeMiss => run_miss(seed, budget, |_| {}),
        Workload::ServeHot => run_hot(seed, budget, |_| {}),
        _ => unreachable!("library workloads live in library.rs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_count_is_read_from_the_ele_header() {
        let payload = b"3 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n1 3 0\n0 0 1 2\n";
        assert_eq!(payload_triangles(payload), Some(1));
        assert_eq!(payload_triangles(b"3 2 0 0\n0 0.0 0.0\n"), None);
        assert_eq!(payload_triangles(b""), None);
    }
}
