//! Job-server integration tests: single-flight coalescing, cache
//! economics (warm ≥ 10× cold), bounded admission, disk persistence,
//! corruption handling, chaos determinism, and the TCP front end.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use adm_core::config::MeshConfig;
use adm_core::shard::{read_manifest, MANIFEST_NAME};
use adm_serve::{
    cache_key, catalog, chaos_run, replay, workload, ServeError, Server, ServerConfig, WireResponse,
};
use adm_trace::json::{obj, Value};
use adm_trace::{TestClock, Tracer};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("adm-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A manually pumped server whose disk cache lives under `dir`.
fn disk_server(dir: &Path) -> Server {
    Server::with_tracer(
        ServerConfig {
            workers: 0,
            pool_threads: 0,
            queue_cap: 8,
            mem_cache_bytes: 64 << 20,
            cache_dir: Some(dir.to_path_buf()),
        },
        Tracer::new(Arc::new(TestClock::new())),
    )
    .unwrap()
}

fn pump_server(tracer: Tracer) -> Server {
    Server::with_tracer(
        ServerConfig {
            workers: 0,
            pool_threads: 0,
            queue_cap: 64,
            mem_cache_bytes: 64 << 20,
            cache_dir: None,
        },
        tracer,
    )
    .unwrap()
}

/// Satellite 3: N identical in-flight requests coalesce into one mesh
/// job and every waiter gets byte-identical (same sha256) responses —
/// proven under a deterministic manual-pump interleaving.
#[test]
fn duplicate_in_flight_requests_coalesce() {
    let clock = Arc::new(TestClock::new());
    let server = pump_server(Tracer::new(clock));
    let config = MeshConfig::naca0012(16);

    let mut tickets: Vec<_> = (0..5)
        .map(|i| server.submit_nowait(&config, i as u8 % 2).unwrap())
        .collect();
    // Nothing has run yet; all five are pending on ONE in-flight job.
    assert_eq!(server.queue_depth(), 1);
    for t in &mut tickets {
        assert!(t.try_take().is_none());
    }

    assert!(server.pump_one());
    assert!(!server.pump_one(), "only one job should have been queued");

    let digests: Vec<String> = tickets
        .iter_mut()
        .map(|t| t.try_take().expect("resolved").unwrap().digest.clone())
        .collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(digests[0].len(), 64);

    let tr = server.tracer();
    assert_eq!(tr.counter("serve.requests"), 5);
    assert_eq!(tr.counter("serve.mesh_jobs"), 1);
    assert_eq!(tr.counter("serve.coalesced"), 4);
    assert_eq!(tr.counter("serve.sched"), 1);
    assert_eq!(tr.counter("serve.hits_mem"), 0);

    // A submission after completion is a memory hit, still the same
    // bytes.
    let resp = server.submit(&config).unwrap();
    assert_eq!(resp.digest, digests[0]);
    assert_eq!(tr.counter("serve.hits_mem"), 1);
}

/// Acceptance: warm-cache throughput ≥ 10× cold on a repeated
/// workload. Cold runs mesh; warm runs are hash lookups, so the margin
/// is orders of magnitude — 10× is the enforced floor.
#[test]
fn warm_cache_is_10x_faster_than_cold() {
    let server = Server::new(ServerConfig {
        workers: 1,
        pool_threads: 0,
        queue_cap: 256,
        mem_cache_bytes: 256 << 20,
        cache_dir: None,
    })
    .unwrap();
    let reqs = workload(7, 40, 4);

    let t0 = Instant::now();
    let cold = replay(&server, &reqs, 1);
    let cold_dt = t0.elapsed();
    assert_eq!(cold.ok, reqs.len());
    assert_eq!(server.tracer().counter("serve.mesh_jobs"), 4);

    let t1 = Instant::now();
    let warm = replay(&server, &reqs, 1);
    let warm_dt = t1.elapsed();
    assert_eq!(warm.ok, reqs.len());
    // No new mesh jobs on the second pass…
    assert_eq!(server.tracer().counter("serve.mesh_jobs"), 4);
    // …and identical digests.
    assert_eq!(cold.digests, warm.digests);

    assert!(
        cold_dt >= warm_dt * 10,
        "cold {cold_dt:?} should be >= 10x warm {warm_dt:?}"
    );
    server.shutdown();
}

/// Two executor threads sharing a wide pool run each other's subdomain
/// tasks; the responses are still the ones a width-0 server gives.
#[test]
fn jobs_sharing_a_wide_pool_return_the_width_0_digests() {
    let configs = [MeshConfig::naca0012(16), MeshConfig::naca0012(20)];
    let digests = |pool_threads: usize| -> Vec<String> {
        let server = Server::new(ServerConfig {
            workers: 2,
            pool_threads,
            ..ServerConfig::default()
        })
        .unwrap();
        let tickets: Vec<_> = configs
            .iter()
            .map(|c| server.submit_nowait(c, 0).unwrap())
            .collect();
        let digests = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().digest.clone());
        let digests = digests.collect();
        server.shutdown();
        digests
    };
    let wide = digests(2);
    assert_ne!(wide[0], wide[1], "the requests must be distinct");
    assert_eq!(wide, digests(0));
}

/// Acceptance: the admission queue rejects with a typed Busy instead
/// of growing without bound.
#[test]
fn bounded_queue_rejects_overload() {
    let server = pump_server(Tracer::new(Arc::new(TestClock::new())));
    // queue_cap from pump_server is 64; fill it with distinct keys.
    let mut tickets = Vec::new();
    let mut configs = Vec::new();
    let mut n = 12;
    while tickets.len() < 64 {
        let c = MeshConfig::naca0012(n);
        n += 1;
        tickets.push(server.submit_nowait(&c, 0).unwrap());
        configs.push(c);
    }
    assert_eq!(server.queue_depth(), 64);

    let overflow = MeshConfig::naca0012(n);
    match server.submit_nowait(&overflow, 0) {
        Err(ServeError::Busy { depth, cap }) => {
            assert_eq!(depth, 64);
            assert_eq!(cap, 64);
        }
        other => panic!("expected Busy, got {:?}", other.err()),
    }
    assert_eq!(server.tracer().counter("serve.rejected"), 1);

    // Duplicates of queued work still coalesce even at capacity: they
    // add no queue entries, so they are not rejected.
    let mut dup = server.submit_nowait(&configs[0], 0).unwrap();
    assert_eq!(server.queue_depth(), 64);
    assert_eq!(server.tracer().counter("serve.coalesced"), 1);

    // Draining one job frees one slot.
    assert!(server.pump_one());
    assert!(dup.try_take().is_some());
    assert!(server.submit_nowait(&overflow, 0).is_ok());
    while server.pump_one() {}
}

/// Priority order: pump executes best class first, then cheapest
/// estimate, then FIFO.
#[test]
fn queue_orders_by_class_then_cost() {
    let server = pump_server(Tracer::new(Arc::new(TestClock::new())));
    let big_batch = MeshConfig::three_element(20); // class 1, expensive
    let small_batch = MeshConfig::naca0012(16); // class 1, cheap
    let urgent = MeshConfig::naca0012(20); // class 0
    let mut t_big = server.submit_nowait(&big_batch, 1).unwrap();
    let mut t_small = server.submit_nowait(&small_batch, 1).unwrap();
    let mut t_urgent = server.submit_nowait(&urgent, 0).unwrap();

    server.pump_one();
    assert!(t_urgent.try_take().is_some(), "class 0 runs first");
    server.pump_one();
    assert!(t_small.try_take().is_some(), "then the cheaper class-1 job");
    server.pump_one();
    assert!(t_big.try_take().is_some());
}

/// A client that disconnects mid-flight neither blocks the job nor
/// loses the result: the mesh completes into the cache for the next
/// asker.
#[test]
fn disconnect_mid_request_still_fills_the_cache() {
    let server = pump_server(Tracer::new(Arc::new(TestClock::new())));
    let config = MeshConfig::naca0012(18);

    let ticket = server.submit_nowait(&config, 0).unwrap();
    drop(ticket); // client went away before the job ran
    assert_eq!(server.tracer().counter("serve.disconnects"), 1);

    assert!(server.pump_one());
    assert_eq!(server.tracer().counter("serve.mesh_jobs"), 1);

    // Next asker hits memory — no second mesh job.
    let resp = server.submit(&config).unwrap();
    assert!(!resp.bytes.is_empty());
    assert_eq!(server.tracer().counter("serve.hits_mem"), 1);
    assert_eq!(server.tracer().counter("serve.mesh_jobs"), 1);
}

/// Acceptance: chaos mode — duplicate submissions, disconnects,
/// interleaved pumps and polls — is deterministic per seed: same seed,
/// same trace fingerprint, same counters, same digests.
#[test]
fn chaos_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let clock = Arc::new(TestClock::new());
        let server = pump_server(Tracer::new(clock.clone()));
        chaos_run(&server, seed, 400, 4, Some(&clock))
    };

    let a1 = run(42);
    let a2 = run(42);
    assert_eq!(a1.fingerprint, a2.fingerprint);
    assert_eq!(a1.counters, a2.counters);
    assert_eq!(a1.digests, a2.digests);
    assert_eq!(a1.delivered, a2.delivered);
    // The run exercised the interesting paths.
    assert!(a1.counters["serve.requests"] > 0);
    assert!(a1.counters["serve.mesh_jobs"] >= 1);

    let b = run(1234);
    assert_ne!(
        a1.fingerprint, b.fingerprint,
        "different seeds should explore different interleavings"
    );

    // Digests agree across seeds wherever keys overlap: chaos cannot
    // change mesh bytes.
    for (key, digest) in &a1.digests {
        if let Some(d) = b.digests.get(key) {
            assert_eq!(d, digest, "key {key}");
        }
    }
}

/// Disk persistence: a second server over the same cache directory
/// serves digest-identical meshes from shards without meshing, and a
/// corrupted shard set is detected, purged, and re-meshed — never
/// served.
#[test]
fn disk_cache_survives_restart_and_rejects_corruption() {
    let dir = tmp("disk");
    let config = MeshConfig::naca0012(22);
    let key = cache_key(&config).unwrap();
    let mk = || disk_server(&dir);

    // First server meshes and persists (pipeline-side shard_out).
    let s1 = mk();
    let mut t = s1.submit_nowait(&config, 0).unwrap();
    s1.pump_one();
    let fresh = t.try_take().unwrap().unwrap();
    assert_eq!(s1.tracer().counter("serve.mesh_jobs"), 1);
    assert!(dir.join(&key).join("mesh.admshards.json").is_file());

    // Second server: cold memory, warm disk.
    let s2 = mk();
    let mut t = s2.submit_nowait(&config, 0).unwrap();
    s2.pump_one();
    let reloaded = t.try_take().unwrap().unwrap();
    assert_eq!(s2.tracer().counter("serve.mesh_jobs"), 0);
    assert_eq!(s2.tracer().counter("serve.hits_disk"), 1);
    assert_eq!(
        reloaded.digest, fresh.digest,
        "shard reconstruction must be canonically identical to meshing"
    );

    // Corrupt one shard payload: detected, purged, re-meshed.
    let entry = dir.join(&key);
    let shard = std::fs::read_dir(&entry)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "adm"))
        .expect("a shard payload file");
    std::fs::write(&shard, b"garbage").unwrap();

    let s3 = mk();
    let mut t = s3.submit_nowait(&config, 0).unwrap();
    s3.pump_one();
    let remeshed = t.try_take().unwrap().unwrap();
    assert_eq!(s3.tracer().counter("serve.cache_bad"), 1);
    assert_eq!(s3.tracer().counter("serve.hits_disk"), 0);
    assert_eq!(s3.tracer().counter("serve.mesh_jobs"), 1);
    assert_eq!(remeshed.digest, fresh.digest);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A disk entry whose manifest carries the `admshards-v1` tag, written by
/// hand: it counts as `serve.cache_bad`, is purged, and is re-meshed to
/// the same digest. It is never served.
#[test]
fn v1_cache_entry_is_purged_and_remeshed() {
    let dir = tmp("v1");
    let config = MeshConfig::naca0012(22);
    let key = cache_key(&config).unwrap();
    let s1 = disk_server(&dir);
    let mut t = s1.submit_nowait(&config, 0).unwrap();
    s1.pump_one();
    let fresh = t.try_take().unwrap().unwrap();

    // Rewrite the manifest under the v1 tag, each row naming its `file`
    // as the v1 writer did. (v1 rows also named a per-shard sidecar; the
    // reader refuses the tag before it reads a row.)
    let entry = dir.join(&key);
    let manifest = read_manifest(&entry).unwrap();
    let rows = manifest.shards.iter().map(|sh| {
        let hex: String = sh.path.iter().map(|b| format!("{b:02x}")).collect();
        obj! {
            "path": hex,
            "file": sh.file_name(),
            "mesh_sha256": sh.mesh_sha256.as_str(),
            "vertices": sh.vertices,
            "triangles": sh.triangles,
        }
    });
    let v1 = obj! {
        "format": "admshards-v1",
        "shard_count": manifest.shards.len(),
        "shards": Value::arr(rows),
    };
    std::fs::write(entry.join(MANIFEST_NAME), v1.to_string_pretty() + "\n").unwrap();

    let s2 = disk_server(&dir);
    let mut t = s2.submit_nowait(&config, 0).unwrap();
    s2.pump_one();
    let remeshed = t.try_take().unwrap().unwrap();
    assert_eq!(s2.tracer().counter("serve.cache_bad"), 1);
    assert_eq!(s2.tracer().counter("serve.hits_disk"), 0);
    assert_eq!(s2.tracer().counter("serve.mesh_jobs"), 1);
    assert_eq!(remeshed.digest, fresh.digest);
    // The purged entry was re-written in the current layout.
    assert_eq!(read_manifest(&entry).unwrap(), manifest);
    let names = std::fs::read_dir(&entry).unwrap();
    let names: Vec<String> = names
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names
            .iter()
            .all(|n| n == MANIFEST_NAME || n.ends_with(".adm")),
        "{names:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// TCP end to end: boot on a loopback port, mesh, repeat (hit), stats,
/// shutdown.
#[test]
fn tcp_round_trip_and_shutdown() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(
        Server::new(ServerConfig {
            workers: 1,
            pool_threads: 0,
            queue_cap: 16,
            mem_cache_bytes: 64 << 20,
            cache_dir: None,
        })
        .unwrap(),
    );
    let srv = server.clone();
    let net = std::thread::spawn(move || {
        adm_serve::serve(listener, srv, adm_serve::NetOptions::default()).unwrap();
    });

    let mut client = adm_serve::Client::connect(addr).unwrap();
    client.ping().unwrap();

    let config = MeshConfig::naca0012(16);
    let first = match client.mesh(&config, 0).unwrap() {
        WireResponse::Ok { key, digest, bytes } => {
            assert_eq!(key, cache_key(&config).unwrap());
            assert!(!bytes.is_empty());
            digest
        }
        other => panic!("expected OK, got {other:?}"),
    };

    // Same request on a second connection: served from cache, same
    // digest.
    let mut c2 = adm_serve::Client::connect(addr).unwrap();
    match c2.mesh(&config, 0).unwrap() {
        WireResponse::Ok { digest, .. } => assert_eq!(digest, first),
        other => panic!("expected OK, got {other:?}"),
    }
    assert_eq!(server.tracer().counter("serve.mesh_jobs"), 1);
    assert_eq!(server.tracer().counter("serve.hits_mem"), 1);

    let stats = client.stats().unwrap();
    assert!(stats.contains("\"serve.requests\":2"), "stats: {stats}");

    // Malformed payload gets a typed ERR, not a hangup.
    match c2.mesh_raw(0, "not a request").unwrap() {
        WireResponse::Err(msg) => assert!(msg.contains("malformed")),
        other => panic!("expected ERR, got {other:?}"),
    }

    client.shutdown().unwrap();
    net.join().unwrap();
    server.shutdown();
}

/// The seeded workload mixes all three geometry families.
#[test]
fn workload_mixes_request_families() {
    let cat = catalog(8);
    assert_eq!(cat.len(), 8);
    let names: Vec<&str> = cat.iter().map(|c| c.pslg.loops[0].name.as_str()).collect();
    assert!(names.contains(&"diamond"), "general PSLG in the mix");
    assert!(names.iter().any(|n| *n != "diamond"), "airfoils in the mix");
    let reqs = workload(3, 100, 8);
    assert_eq!(reqs.len(), 100);
    // Deterministic draws.
    let again = workload(3, 100, 8);
    let keys: Vec<_> = reqs.iter().map(|c| cache_key(c).unwrap()).collect();
    let keys2: Vec<_> = again.iter().map(|c| cache_key(c).unwrap()).collect();
    assert_eq!(keys, keys2);
    // Repeats exist (that is what a cache feeds on).
    let distinct: std::collections::BTreeSet<_> = keys.iter().collect();
    assert!(distinct.len() <= 8);
}
