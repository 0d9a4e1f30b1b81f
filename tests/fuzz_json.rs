//! Seeded byte-mutation fuzz of the one JSON parser and of the manifest
//! reader on top of it.
//!
//! Three real documents — a two-shard manifest, the daemon's `STATS`, a
//! committed bench report — are mutated 2,000 times each (bit flip, range
//! delete, range duplicate, truncate, a run of `[` spliced in); the manifest
//! also with one shard row listed twice and counted, as it stands and
//! mutated 200 times more. For every mutant `json::parse` and
//! `ShardManifest::from_json` must return, not panic, a truncated document
//! must never come back `Ok`, and a manifest that is accepted must be one
//! `reduction_plan` can schedule (so none names a path twice). The whole
//! sweep runs on a 256 kB stack, so it is the depth cap that survives the
//! bracket runs, not a roomy main thread.

use adm2d::core::{write_shard_set, ShardManifest};
use adm2d::delaunay::mesh::Mesh;
use adm2d::geom::point::Point2;
use adm2d::partition::reduction_plan;
use adm2d::serve::{stats_json, Rng, Server, ServerConfig};
use adm2d::trace::json;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTANTS_PER_CORPUS: u64 = 2_000;

/// A random sub-range of `0..len` at most 64 bytes long.
fn range(rng: &mut Rng, len: usize) -> std::ops::Range<usize> {
    let start = rng.below(len);
    start..(start + 1 + rng.below(64)).min(len)
}

/// One mutant of `doc`, and whether it is a truncation (a strict prefix
/// that lost at least the document's closing brace).
fn mutate(doc: &[u8], rng: &mut Rng) -> (Vec<u8>, bool) {
    let mut out = doc.to_vec();
    match rng.below(5) {
        0 => {
            let at = rng.below(out.len());
            out[at] ^= 1 << rng.below(8);
        }
        1 => {
            out.drain(range(rng, doc.len()));
        }
        2 => {
            let r = range(rng, doc.len());
            let copy = doc[r.clone()].to_vec();
            out.splice(r.start..r.start, copy);
        }
        3 => {
            let body = doc.trim_ascii_end().len();
            out.truncate(rng.below(body));
            return (out, true);
        }
        _ => {
            let at = rng.below(out.len());
            let run = [1, 63, 64, 65, 1_000, 200_000][rng.below(6)];
            out.splice(at..at, std::iter::repeat_n(b'[', run));
        }
    }
    (out, false)
}

/// `manifest` once per shard row, with that whole row listed twice (and so
/// counted in `shard_count`).
fn with_a_row_twice(manifest: &str) -> Vec<String> {
    let whole = ShardManifest::from_json(manifest).expect("the corpus is a manifest");
    let twice = |k: usize| {
        let mut m = whole.clone();
        m.shards.insert(k, m.shards[k].clone());
        m.to_json()
    };
    (0..whole.shards.len()).map(twice).collect()
}

fn corpora() -> Vec<(&'static str, String)> {
    let square = |x: f64| {
        let pts = [(x, 0.0), (x + 1.0, 0.0), (x + 1.0, 1.0), (x, 1.0)];
        let pts = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        Mesh::from_triangles(pts, vec![[0, 1, 2], [0, 2, 3]])
    };
    let dir = std::env::temp_dir().join(format!("adm-fuzz-json-{}", std::process::id()));
    let (a, b) = (square(0.0), square(1.0));
    let manifest = write_shard_set(&dir, &[(&[0u8][..], &a), (&[1u8][..], &b)], None).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let server = Server::new(ServerConfig {
        workers: 0,
        ..Default::default()
    })
    .unwrap();
    server.tracer().count("serve.requests", 3);
    server.tracer().count("serve.hits_mem", 2);
    server.tracer().count("serve.mesh_jobs", 1);

    vec![
        ("manifest", manifest.to_json()),
        ("stats", stats_json(&server)),
        (
            "bench report",
            include_str!("../bench_results/serve_throughput.json").to_string(),
        ),
    ]
}

#[test]
fn mutated_documents_are_rejected_or_parsed_never_a_panic() {
    let corpora = corpora();
    // Whether `from_json` took the mutant; `json::parse` and
    // `from_json` must return, and an accepted manifest must plan.
    let check = |name: &str, i: u64, bytes: &[u8], truncated: bool| -> bool {
        let text = String::from_utf8_lossy(bytes);
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            let manifest = ShardManifest::from_json(&text);
            if let Ok(m) = &manifest {
                let paths: Vec<&[u8]> = m.shards.iter().map(|s| &s.path[..]).collect();
                reduction_plan(&paths);
            }
            (json::parse(&text).is_ok(), manifest.is_ok())
        }));
        let Ok((parsed, read)) = verdict else {
            panic!("{name} mutant {i} panicked: {text:?}");
        };
        assert!(parsed || !read, "{name} mutant {i}: manifest from non-JSON");
        assert!(
            !(truncated && parsed),
            "{name} mutant {i}: truncated document accepted: {text:?}"
        );
        read
    };
    let sweep = move || {
        for (name, doc) in corpora {
            assert!(
                json::parse(&doc).is_ok(),
                "{name}: the corpus itself parses"
            );
            let mut rng = Rng::new(0xADA2_D000 ^ doc.len() as u64);
            for i in 0..MUTANTS_PER_CORPUS {
                let (bytes, truncated) = mutate(doc.as_bytes(), &mut rng);
                check(name, i, &bytes, truncated);
            }
            if name != "manifest" {
                continue;
            }
            // The manifest alone, after its own sweep (so the three mutant
            // streams above stay what they were): a row listed twice is
            // refused as it stands, and its mutants never reach a panic.
            for (k, twice) in with_a_row_twice(&doc).iter().enumerate() {
                let name = format!("manifest with row {k} twice");
                assert!(
                    !check(&name, 0, twice.as_bytes(), false),
                    "{name}: accepted"
                );
                for i in 1..=MUTANTS_PER_CORPUS / 10 {
                    let (bytes, truncated) = mutate(twice.as_bytes(), &mut rng);
                    check(&name, i, &bytes, truncated);
                }
            }
        }
    };
    std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(sweep)
        .unwrap()
        .join()
        .expect("fuzz sweep failed");
}
