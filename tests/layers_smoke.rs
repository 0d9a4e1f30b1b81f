//! One fast oracle per layer the tier-1 line would otherwise not see
//! (it runs the root package only): the JSON module, the shard manifest
//! on top of it, the disk cache and `shard-cat` failing closed on a
//! hostile manifest and on a set whose union is not manifold, the Chrome
//! export, and the simulator's replay.

use adm2d::core::shard::MAX_MANIFEST_BYTES;
use adm2d::core::{
    read_manifest, reconstruct, verify_shards, write_manifest, write_shard_set, ShardManifest,
    MANIFEST_NAME,
};
use adm2d::delaunay::mesh::Mesh;
use adm2d::geom::point::Point2;
use adm2d::kernel::GlobalVertexId;
use adm2d::mpirt::{run_with, FaultPlan, SimTransport, Src, TransportClock};
use adm2d::serve::{DiskCache, DiskLoad};
use adm2d::trace::chrome::to_chrome_json;
use adm2d::trace::json::{self, obj, ParseError, Value, MAX_DEPTH};
use adm2d::trace::{TestClock, Tracer, Track};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("adm-layers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Runs `f` on a 256 kB stack: deep recursion dies there, a depth cap
/// does not.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(f)
        .unwrap()
        .join()
        .expect("must not panic or overflow a 256 kB stack")
}

/// The stamped, constrained unit square of `shard.rs`'s unit tests.
fn square_mesh(offset: f64, gid_base: u32) -> Mesh {
    let pts = vec![
        Point2::new(offset, 0.0),
        Point2::new(offset + 1.0, 0.0),
        Point2::new(offset + 1.0, 1.0),
        Point2::new(offset, 1.0),
    ];
    let mut m = Mesh::from_triangles(pts, vec![[0, 1, 2], [0, 2, 3]]);
    for v in 0..4 {
        m.stamp_vertex(v, GlobalVertexId(gid_base + v));
        m.constrain_edge(v, (v + 1) % 4);
    }
    m
}

/// Writes two unit squares meeting at x = 1 as a two-shard set. With
/// `share_edge` the right square carries the left one's stamps on that
/// edge, which makes the set a reconstructible mesh.
fn write_two_squares(dir: &std::path::Path, share_edge: bool) -> ShardManifest {
    let (a, mut b) = (square_mesh(0.0, 0), square_mesh(1.0, 4));
    if share_edge {
        b.stamp_vertex(0, GlobalVertexId(1));
        b.stamp_vertex(3, GlobalVertexId(2));
    }
    write_shard_set(dir, &[(&[0u8][..], &a), (&[1u8][..], &b)], None).unwrap()
}

#[test]
fn json_round_trips_and_caps_depth() {
    let doc = obj! {
        "name": "quo\"te\\ \u{1} é",
        "big": u64::MAX,
        "neg": Value::Int(-7),
        "floats": vec![1.0, 0.1, 1e-7],
        "nan": f64::NAN,
        "nested": obj! { "pair": (1u64, 2.5), "none": None::<u64>, "ok": true },
    };
    let compact = doc.to_string();
    assert!(compact.starts_with(r#"{"name":"quo\"te\\ \u0001 é","big":18446744073709551615,"#));
    assert!(compact.contains(r#""floats":[1.0,0.1,0.0000001],"nan":null"#));
    let back = json::parse(&compact).unwrap();
    assert_eq!(json::parse(&doc.to_string_pretty()).unwrap(), back);
    assert_eq!(back.get("big").and_then(Value::as_u64), Some(u64::MAX));
    assert_eq!(back.to_string(), compact);

    let deep = "[".repeat(200_000);
    let verdict = on_small_stack(move || json::parse(&deep));
    assert_eq!(verdict, Err(ParseError::TooDeep { at: MAX_DEPTH }));
}

/// The manifest of `shard.rs`'s two-square test set, byte for byte as
/// the `admshards-v2` writer prints it (the mesh digests are the ones the
/// v1 writer recorded: the shard bytes did not change).
const MANIFEST_GOLDEN: &str = r#"{
  "format": "admshards-v2",
  "shard_count": 2,
  "shards": [
    {
      "path": "00",
      "mesh_sha256": "47f0a074eb2223e2c4ba0349b11c78075d69b16d1ccadd564e87696c6d22cacb",
      "vertices": 4,
      "triangles": 2
    },
    {
      "path": "01",
      "mesh_sha256": "355b6057baf4ae2e24669bd6ad35e580396177030c343f98a1880781398d4e17",
      "vertices": 4,
      "triangles": 2
    }
  ]
}
"#;

/// `manifest` under the `admshards-v1` tag, each row naming its `file`
/// as the v1 writer did. (v1 rows also named a per-shard sidecar and its
/// digest; the reader refuses the tag before it reads a row, so they are
/// left out.)
fn as_v1_manifest(manifest: &ShardManifest) -> String {
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
    let doc = obj! {
        "format": "admshards-v1",
        "shard_count": manifest.shards.len(),
        "shards": Value::arr(rows),
    };
    doc.to_string_pretty() + "\n"
}

#[test]
fn manifest_text_is_pinned() {
    let dir = scratch_dir("golden");
    let manifest = write_two_squares(&dir, false);
    assert_eq!(manifest.to_json(), MANIFEST_GOLDEN);
    let on_disk = std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
    assert_eq!(on_disk, MANIFEST_GOLDEN);
    assert_eq!(read_manifest(&dir).unwrap(), manifest);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_manifest_fails_closed() {
    // 200,000 open brackets: a typed error, on any stack.
    let root = scratch_dir("hostile");
    let cache = DiskCache::new(&root).unwrap();
    let entry = cache.entry_dir("deadbeef");
    write_two_squares(&entry, true);
    assert!(matches!(cache.load("deadbeef"), DiskLoad::Hit(_)));
    std::fs::write(entry.join(MANIFEST_NAME), "[".repeat(200_000)).unwrap();

    let dir = entry.clone();
    let err = on_small_stack(move || read_manifest(&dir)).expect_err("not a manifest");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("nested deeper"), "{err}");

    let refused = std::process::Command::new(env!("CARGO_BIN_EXE_shard-cat"))
        .arg(&entry)
        .arg("--verify-only")
        .output()
        .expect("shard-cat runs");
    assert_eq!(refused.status.code(), Some(1), "an exit, not a signal");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("nested deeper"), "{stderr}");

    // The disk cache calls it corrupt and purges the entry.
    let (cache, loaded) = on_small_stack(move || {
        let loaded = cache.load("deadbeef");
        (cache, loaded)
    });
    assert!(matches!(loaded, DiskLoad::Corrupt));
    assert!(!entry.exists(), "corrupt entry must be purged");
    assert!(matches!(cache.load("deadbeef"), DiskLoad::Miss));

    // An oversized manifest is refused by its length alone (the file is
    // sparse: nothing is written, and nothing is read).
    let big = scratch_dir("oversize");
    let file = std::fs::File::create(big.join(MANIFEST_NAME)).unwrap();
    file.set_len(MAX_MANIFEST_BYTES + 1).unwrap();
    let err = read_manifest(&big).expect_err("over the cap");
    assert!(err.to_string().contains("cap"), "{err}");
    let _ = std::fs::remove_dir_all(&big);
    let _ = std::fs::remove_dir_all(&root);
}

/// Manifests `write_shard_set` cannot write, over intact shard files
/// (so every digest still verifies): none may reach the reduction.
#[test]
fn doctored_manifests_fail_closed() {
    type Doctor = fn(ShardManifest) -> String;
    let doctors: [(&str, Doctor); 5] = [
        ("duplicate path", |mut m| {
            m.shards[1].path = vec![0];
            m.to_json()
        }),
        ("empty list", |mut m| {
            m.shards.clear();
            m.to_json()
        }),
        ("descending paths", |mut m| {
            m.shards.reverse();
            m.to_json()
        }),
        // Ascending, but `reduction_plan` would recurse once per byte of
        // the shared prefix.
        ("paths deeper than any task tree", |mut m| {
            for (last, sh) in m.shards.iter_mut().enumerate() {
                sh.path = [vec![0; 100_000], vec![last as u8]].concat();
            }
            m.to_json()
        }),
        ("a v1 manifest is refused", |m| as_v1_manifest(&m)),
    ];
    let root = scratch_dir("doctored");
    let mut cache = DiskCache::new(&root).unwrap();
    let entry = cache.entry_dir("deadbeef");
    for (what, doctor) in doctors {
        let manifest = write_two_squares(&entry, true);
        std::fs::write(entry.join(MANIFEST_NAME), doctor(manifest)).unwrap();

        let dir = entry.clone();
        let err = on_small_stack(move || read_manifest(&dir)).expect_err(what);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");

        let refused = std::process::Command::new(env!("CARGO_BIN_EXE_shard-cat"))
            .arg(&entry)
            .output()
            .expect("shard-cat runs");
        assert_eq!(
            refused.status.code(),
            Some(1),
            "{what}: an exit, not a signal"
        );
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(stderr.contains("error: "), "{what}: {stderr}");

        let loaded;
        (cache, loaded) = on_small_stack(move || {
            let loaded = cache.load("deadbeef");
            (cache, loaded)
        });
        assert!(matches!(loaded, DiskLoad::Corrupt), "{what}");
        assert!(!entry.exists(), "{what}: corrupt entry must be purged");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A row that repeats a shard's bytes under a new, strictly ascending
/// path. The manifest is well formed, every digest verifies and the
/// shards agree on every stamped vertex, so `verify_shards` passes; but
/// the union holds the repeated triangles twice. `reconstruct` refuses it
/// as `InvalidData`, `shard-cat` exits 1 rather than panicking, and the
/// disk cache calls the entry corrupt and purges it.
#[test]
fn duplicated_shard_row_is_refused_not_merged() {
    let root = scratch_dir("duplicated");
    let cache = DiskCache::new(&root).unwrap();
    let entry = cache.entry_dir("deadbeef");
    let mut manifest = write_two_squares(&entry, true);
    let mut again = manifest.shards[1].clone();
    again.path.push(0);
    let from = entry.join(manifest.shards[1].file_name());
    std::fs::copy(from, entry.join(again.file_name())).unwrap();
    manifest.shards.push(again);
    write_manifest(&entry, &manifest).unwrap();
    assert_eq!(read_manifest(&entry).unwrap(), manifest);

    let report = verify_shards(&entry, &manifest).unwrap();
    assert!(report.is_consistent(), "{:?}", report.problems);
    let err = reconstruct(&entry, &manifest).expect_err("a non-manifold union");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("non-manifold edge"), "{err}");

    let refused = std::process::Command::new(env!("CARGO_BIN_EXE_shard-cat"))
        .arg(&entry)
        .output()
        .expect("shard-cat runs");
    assert_eq!(refused.status.code(), Some(1), "an exit, not a panic");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("error: ") && stderr.contains("non-manifold"),
        "{stderr}"
    );

    assert!(matches!(cache.load("deadbeef"), DiskLoad::Corrupt));
    assert!(!entry.exists(), "corrupt entry must be purged");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn chrome_export_parses_back() {
    let clock = Arc::new(TestClock::new());
    let t = Tracer::new(clock.clone());
    t.name_track(Track::ROOT, "driver");
    let root = t.span(Track::ROOT, "pipeline");
    clock.advance(Duration::from_nanos(1_500));
    let child = t.span(Track::ROOT, "phase.merge");
    clock.advance(Duration::from_nanos(2_250));
    child.close_with(&[("triangles", 4)]);
    root.close();
    t.count("shard.count", 2);

    let doc = json::parse(&to_chrome_json(&t.snapshot())).expect("the export is JSON");
    let span = |name: &str, ts: f64, dur: f64, args: Value| {
        obj! {
            "ph": "X", "name": name, "cat": "adm", "pid": 0u32, "tid": 0u32,
            "ts": ts, "dur": dur, "args": args,
        }
    };
    let lane = obj! { "name": "driver" };
    let events = vec![
        obj! { "ph": "M", "name": "thread_name", "pid": 0u32, "tid": 0u32, "args": lane },
        span("pipeline", 0.0, 3.75, obj! {}),
        span("phase.merge", 1.5, 2.25, obj! { "triangles": 4u64 }),
    ];
    assert_eq!(doc.get("traceEvents"), Some(&Value::from(events)));
    let counters = doc.get("otherData").and_then(|o| o.get("counters"));
    assert_eq!(counters, Some(&obj! { "shard.count": 2u64 }));
}

#[test]
fn simulator_replays_one_seed_identically_20_times() {
    let run = || {
        let sim = Arc::new(SimTransport::new(2, FaultPlan::chaos(42)));
        let tracer = Tracer::new(Arc::new(TransportClock::new(sim.clone())));
        let sums = run_with(sim.clone(), |comm| {
            let span = tracer.span(Track::rank(comm.rank()), "exchange");
            let peer = 1 - comm.rank();
            comm.send(peer, 1, comm.rank() as u64 + 10);
            let got = comm.recv::<u64>(Src::Any, 1).1;
            comm.barrier();
            span.close_with(&[("got", got)]);
            got
        });
        // Virtual time stamps the spans, so the export replays byte for byte.
        (sums, sim.fingerprint(), to_chrome_json(&tracer.snapshot()))
    };
    let first = run();
    assert_eq!(first.0, [11, 10]);
    assert!(first.2.contains("exchange"));
    for replay in 1..20 {
        assert_eq!(run(), first, "replay {replay} diverged");
    }
}
