//! Distributed sharded output: the mesh stays in per-subdomain shards.
//!
//! The paper's production runs never pay the merge tail — each rank keeps
//! its subdomain resident and the unified mesh is only materialized when a
//! consumer demands it. This module is that output mode: every merge
//! input (the boundary-layer mesh plus each subdomain mesh, keyed by its
//! task path) is streamed to its own `ADM2DM03` shard file,
//! `shard-<hex path>.adm`, and a manifest (`mesh.admshards.json`) records
//! the shard list with per-file sha256 digests. A shard is one file: its
//! vertices, `GlobalVertexId` stamps and sorted constrained-edge list are
//! all that the consistency check and the merge read.
//!
//! Three properties make shards a trustworthy distribution format:
//!
//! 1. **Schedule independence** — shards are keyed by *task path*, not
//!    physical rank, and the task tree is a function of the input alone.
//!    The same config produces byte-identical shard sets at any rank
//!    count, under any balancer schedule, and under any injected fault
//!    plan the run survives.
//! 2. **Global consistency without the merged mesh** — neighboring shards
//!    may only share constrained-edge endpoints, and every shared stamped
//!    vertex must carry bitwise-identical coordinates in every shard.
//!    [`verify_shards`] proves that on the parsed shards themselves, the
//!    same meshes [`reconstruct`] merges.
//! 3. **Exact reconstruction** — [`reconstruct`] refuses a set that fails
//!    that check, then replays the in-process tree merge (same reduction
//!    plan over the same path order, inline pool) over the shard files,
//!    so the offline merged mesh is canonically identical to the one the
//!    pipeline would have produced. A union that is not manifold is an
//!    error, not a panic.
//!
//! All writes go through [`atomic_write`] (temp file + rename) and the
//! manifest is written last, so a killed run can never leave a manifest
//! referencing partial shards.

use crate::hash::sha256_hex;
use crate::merge::merge_inputs;
use adm_delaunay::io::{read_binary, write_binary};
use adm_delaunay::mesh::Mesh;
use adm_kernel::canonical_bits;
use adm_mpirt::Pool;
use adm_trace::json::{self, obj, Value};
use adm_trace::{Tracer, Track};
use std::collections::hash_map::{Entry, HashMap};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Manifest file name inside a shard directory.
pub const MANIFEST_NAME: &str = "mesh.admshards.json";

/// Manifest format tag; bump when the schema changes. `admshards-v1`
/// (with per-shard frontier sidecars) is refused like any unknown tag.
pub const MANIFEST_FORMAT: &str = "admshards-v2";

/// One shard's manifest entry. The shard's file name is derived from its
/// path ([`ShardMeta::file_name`]), so the manifest does not store it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Task path that produced this shard (the merge-order key).
    pub path: Vec<u8>,
    /// sha256 of the mesh file bytes.
    pub mesh_sha256: String,
    /// Live triangles in the shard.
    pub triangles: u64,
    /// Vertices in the shard.
    pub vertices: u64,
}

impl ShardMeta {
    /// The shard's file name inside the shard directory:
    /// `shard-<hex path>.adm`.
    pub fn file_name(&self) -> String {
        shard_file_name(&self.path)
    }
}

/// The shard directory's table of contents. Serialization is fully
/// deterministic (fixed key order, no timestamps): two runs that produce
/// the same shards produce byte-identical manifests — the chaos sweep
/// gates on exactly that.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardManifest {
    /// Shards in merge order (ascending task path).
    pub shards: Vec<ShardMeta>,
}

fn path_hex(path: &[u8]) -> String {
    let mut s = String::with_capacity(path.len() * 2);
    for b in path {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// The file name of the shard at task path `path`.
fn shard_file_name(path: &[u8]) -> String {
    format!("shard-{}.adm", path_hex(path))
}

/// Longest task path a manifest may name, one byte per tree level: the
/// `shard-<hex>.adm.tmp` name [`atomic_write`] gives a longer one on its
/// way to disk exceeds the 255-byte file name limit, so
/// [`write_shard_set`] cannot have written it, and `reduction_plan`
/// recurses once per shared prefix byte.
const MAX_PATH_BYTES: usize = 120;

fn hex_to_path(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |b: u8| (b as char).to_digit(16);
    s.as_bytes()
        .chunks(2)
        .map(|pair| Some((nibble(pair[0])? * 16 + nibble(pair[1])?) as u8))
        .collect()
}

/// Writes `bytes` to `path` atomically: the data lands in a sibling
/// `.tmp` file first and is renamed into place, so readers never observe
/// a partial file and a killed writer leaves the destination untouched.
/// The temp file is removed on error.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_inner(path, bytes, false)
}

fn atomic_write_inner(path: &Path, bytes: &[u8], inject_failure: bool) -> io::Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        PathBuf::from(os)
    };
    let res = (|| {
        let mut f = fs::File::create(&tmp)?;
        if inject_failure {
            // Test hook: die after half the payload, as a crash would.
            f.write_all(&bytes[..bytes.len() / 2])?;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected mid-write failure",
            ));
        }
        f.write_all(bytes)?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if res.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    res
}

/// Writes one shard per `(path, mesh)` input into `dir`, then the
/// manifest, and returns the manifest. Inputs must already be in merge
/// order (strictly ascending task path) — the manifest records that
/// order and [`reconstruct`] replays it.
///
/// With a tracer, each shard write emits a `shard.write` span on the
/// [`Track::shard_writer`] lane and feeds the `shard.count` and
/// `shard.bytes` counters.
pub fn write_shard_set(
    dir: &Path,
    shards: &[(&[u8], &Mesh)],
    tracer: Option<&Tracer>,
) -> io::Result<ShardManifest> {
    write_shard_set_impl(dir, shards, tracer, None)
}

/// [`write_shard_set`] with a failure injected mid-write of shard
/// `fail_at` — the atomicity test's crash stand-in.
#[cfg(test)]
fn write_shard_set_with_fault(
    dir: &Path,
    shards: &[(&[u8], &Mesh)],
    fail_at: usize,
) -> io::Result<ShardManifest> {
    write_shard_set_impl(dir, shards, None, Some(fail_at))
}

fn write_shard_set_impl(
    dir: &Path,
    shards: &[(&[u8], &Mesh)],
    tracer: Option<&Tracer>,
    fail_at: Option<usize>,
) -> io::Result<ShardManifest> {
    for w in shards.windows(2) {
        assert!(
            w[0].0 < w[1].0,
            "shard inputs must be in strictly ascending task-path order"
        );
    }
    fs::create_dir_all(dir)?;
    let mut manifest = ShardManifest::default();
    for (i, (path, mesh)) in shards.iter().enumerate() {
        let mut mesh_bytes = Vec::new();
        write_binary(mesh, &mut mesh_bytes)?;
        let span = tracer.map(|t| t.span(Track::shard_writer(0), "shard.write"));
        let file = dir.join(shard_file_name(path));
        atomic_write_inner(&file, &mesh_bytes, fail_at == Some(i))?;
        if let (Some(t), Some(s)) = (tracer, span) {
            s.close_with(&[
                ("bytes", mesh_bytes.len() as u64),
                ("triangles", mesh.num_triangles() as u64),
            ]);
            t.count("shard.count", 1);
            t.count("shard.bytes", mesh_bytes.len() as u64);
        }
        manifest.shards.push(ShardMeta {
            path: path.to_vec(),
            mesh_sha256: sha256_hex(&mesh_bytes),
            triangles: mesh.num_triangles() as u64,
            vertices: mesh.num_vertices() as u64,
        });
    }
    // The manifest lands last: its existence asserts every shard it
    // names is complete.
    write_manifest(dir, &manifest)?;
    Ok(manifest)
}

/// Writes the manifest into `dir` atomically.
pub fn write_manifest(dir: &Path, manifest: &ShardManifest) -> io::Result<()> {
    atomic_write(&dir.join(MANIFEST_NAME), manifest.to_json().as_bytes())
}

/// Largest manifest [`read_manifest`] will read: far above any real one
/// (65,536 shards x ~400 B), far below what would hurt the reader.
pub const MAX_MANIFEST_BYTES: u64 = 64 << 20;

/// Reads the manifest from `dir`. A file over [`MAX_MANIFEST_BYTES`] is
/// refused before a byte of it is read.
pub fn read_manifest(dir: &Path) -> io::Result<ShardManifest> {
    let path = dir.join(MANIFEST_NAME);
    let len = fs::metadata(&path)?.len();
    if len > MAX_MANIFEST_BYTES {
        return Err(bad_data(format!(
            "manifest is {len} bytes, over the {MAX_MANIFEST_BYTES}-byte cap"
        )));
    }
    ShardManifest::from_json(&fs::read_to_string(path)?)
}

impl ShardManifest {
    /// Deterministic JSON serialization (fixed key order, sorted shards,
    /// no environment-dependent fields): the pretty form of
    /// [`adm_trace::json`] plus a final newline. An empty shard list
    /// would print as `[]`; no caller writes one (`pipeline::drive`
    /// always has a merge input).
    pub fn to_json(&self) -> String {
        let shards = self.shards.iter().map(|sh| {
            obj! {
                "path": path_hex(&sh.path),
                "mesh_sha256": sh.mesh_sha256.as_str(),
                "vertices": sh.vertices,
                "triangles": sh.triangles,
            }
        });
        let doc = obj! {
            "format": MANIFEST_FORMAT,
            "shard_count": self.shards.len(),
            "shards": Value::arr(shards),
        };
        doc.to_string_pretty() + "\n"
    }

    /// Parses the manifest schema written by [`ShardManifest::to_json`] and
    /// holds it to what [`write_shard_set`] can write: at least one shard
    /// and strictly ascending task paths of at most `MAX_PATH_BYTES`
    /// levels — so no manifest reaches [`reconstruct`] with a path twice.
    /// File names derive from the paths, so none can leave the directory.
    pub fn from_json(text: &str) -> io::Result<ShardManifest> {
        let doc = json::parse(text).map_err(|e| bad_data(e.to_string()))?;
        let missing = |key: &str| bad_data(format!("manifest: no {key:?} of the right type"));
        let string = |obj: &Value, key: &str| {
            let field = obj.get(key).and_then(Value::as_str);
            field.map(str::to_string).ok_or_else(|| missing(key))
        };
        let count = |obj: &Value, key: &str| {
            let field = obj.get(key).and_then(Value::as_u64);
            field.ok_or_else(|| missing(key))
        };
        let format = string(&doc, "format")?;
        if format != MANIFEST_FORMAT {
            return Err(bad_data(format!("unknown manifest format {format:?}")));
        }
        let declared = count(&doc, "shard_count")?;
        let listed = doc.get("shards").and_then(Value::as_array);
        let listed = listed.ok_or_else(|| missing("shards"))?;
        let mut shards = Vec::with_capacity(listed.len());
        for sh in listed {
            let hex = string(sh, "path")?;
            let path =
                hex_to_path(&hex).ok_or_else(|| bad_data(format!("bad shard path hex {hex:?}")))?;
            if path.len() > MAX_PATH_BYTES {
                let levels = path.len();
                return Err(bad_data(format!("shard path of {levels} levels")));
            }
            let prev: Option<&ShardMeta> = shards.last();
            if prev.is_some_and(|prev| prev.path >= path) {
                return Err(bad_data(format!("shard path {hex} does not ascend")));
            }
            shards.push(ShardMeta {
                path,
                mesh_sha256: string(sh, "mesh_sha256")?,
                vertices: count(sh, "vertices")?,
                triangles: count(sh, "triangles")?,
            });
        }
        if declared != shards.len() as u64 || shards.is_empty() {
            return Err(bad_data(format!(
                "shard_count {declared}, {} listed shards (at least one, and equal)",
                shards.len()
            )));
        }
        Ok(ShardManifest { shards })
    }
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Result of [`verify_shards`]: what was checked and every inconsistency
/// found (an empty list means the shard set is globally consistent).
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// Shards checked.
    pub shard_count: usize,
    /// Distinct stamped interface vertices seen in ≥ 2 shards (the set
    /// the cross-shard agreement check actually covers).
    pub shared_stamped: usize,
    /// Human-readable inconsistencies; empty = consistent.
    pub problems: Vec<String>,
}

impl ConsistencyReport {
    /// `true` when no inconsistency was found.
    pub fn is_consistent(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The one reader of a shard directory. Reads each shard once, checks its
/// digest against the manifest, and parses it with [`read_binary`], which
/// proves it manifold. Then it records the claim of every stamped
/// constrained-edge endpoint, `gid -> canonical coordinate bits`: a gid
/// claimed with two different coordinates, in one shard or two, is a
/// problem. Returns the report and the parsed meshes in manifest order;
/// the meshes are complete only when the report is consistent.
fn load_shards(dir: &Path, manifest: &ShardManifest) -> io::Result<(ConsistencyReport, Vec<Mesh>)> {
    let mut report = ConsistencyReport {
        shard_count: manifest.shards.len(),
        ..Default::default()
    };
    let mut meshes = Vec::with_capacity(manifest.shards.len());
    // gid -> (canonical bits, first shard claiming it, seen in ≥ 2 shards)
    let mut claims: HashMap<u32, ((u64, u64), usize, bool)> = HashMap::new();
    for (i, sh) in manifest.shards.iter().enumerate() {
        let file = sh.file_name();
        let bytes = fs::read(dir.join(&file))?;
        let got = sha256_hex(&bytes);
        if got != sh.mesh_sha256 {
            let want = &sh.mesh_sha256;
            report
                .problems
                .push(format!("{file}: mesh digest {got} != manifest {want}"));
            continue;
        }
        let mesh = match read_binary(&mut bytes.as_slice()) {
            Ok(mesh) => mesh,
            Err(e) => {
                report.problems.push(format!("{file}: {e}"));
                continue;
            }
        };
        for (gid, bits) in stamped_interface(&mesh) {
            match claims.entry(gid) {
                Entry::Vacant(slot) => {
                    slot.insert((bits, i, false));
                }
                Entry::Occupied(mut slot) => {
                    let (first_bits, first, _) = *slot.get();
                    slot.get_mut().2 |= first != i;
                    if first_bits != bits {
                        let first = manifest.shards[first].file_name();
                        report.problems.push(format!(
                            "stamped vertex disagreement on gid {gid}: {first} vs {file}"
                        ));
                    }
                }
            }
        }
        meshes.push(mesh);
    }
    report.shared_stamped = claims.values().filter(|c| c.2).count();
    Ok((report, meshes))
}

/// The stamped constrained-edge endpoints of `mesh` as `(gid, canonical
/// coordinate bits)`, sorted and deduplicated — the vertices another
/// shard may share by stamp, once each, in gid order.
fn stamped_interface(mesh: &Mesh) -> Vec<(u32, (u64, u64))> {
    let mut claims: Vec<(u32, (u64, u64))> = mesh
        .constrained_edges()
        .flat_map(|(a, b)| [a, b])
        .filter_map(|v| {
            let gid = mesh.global_id(v)?.raw();
            Some((gid, canonical_bits(mesh.vertex(v as usize))))
        })
        .collect();
    claims.sort_unstable();
    claims.dedup();
    claims
}

/// The global consistency check, on the bytes [`reconstruct`] would
/// merge: every shard file matches its manifest digest and parses as a
/// manifold mesh, and every stamped interface vertex carries
/// bitwise-identical coordinates in every shard that claims it. Reads and
/// parses each shard once; never builds the merged mesh.
pub fn verify_shards(dir: &Path, manifest: &ShardManifest) -> io::Result<ConsistencyReport> {
    load_shards(dir, manifest).map(|(report, _)| report)
}

/// Reconstructs the canonical merged mesh from a shard directory. Reads
/// every shard once, refuses the set as `InvalidData` unless
/// [`verify_shards`] would call it consistent, and runs the drivers' own
/// merge tail (`merge::merge_inputs`: same paths, same plan, associative
/// splice) on an inline pool. The result is canonically identical to the
/// mesh the pipeline's own merge produced; a union that is not manifold
/// (say, one shard listed under two paths) is `InvalidData` too.
pub fn reconstruct(dir: &Path, manifest: &ShardManifest) -> io::Result<Mesh> {
    let (report, meshes) = load_shards(dir, manifest)?;
    if let Some(first) = report.problems.first() {
        let n = report.problems.len();
        return Err(bad_data(format!(
            "inconsistent shard set ({n} problems): {first}"
        )));
    }
    let paths = manifest.shards.iter().map(|s| s.path.as_slice());
    let inputs: Vec<(&[u8], &Mesh)> = paths.zip(&meshes).collect();
    merge_inputs(&inputs, &Pool::new(0), None).map_err(|e| bad_data(format!("shard union: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_geom::point::Point2;
    use adm_kernel::GlobalVertexId;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("admshard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

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
        }
        m.constrain_edge(0, 1);
        m.constrain_edge(1, 2);
        m.constrain_edge(2, 3);
        m.constrain_edge(3, 0);
        m
    }

    #[test]
    fn manifest_json_round_trips() {
        let a = square_mesh(0.0, 0);
        let b = square_mesh(1.0, 4);
        let dir = tmp_dir("json");
        let manifest = write_shard_set(&dir, &[(&[0u8][..], &a), (&[1u8][..], &b)], None).unwrap();
        let text = manifest.to_json();
        assert_eq!(ShardManifest::from_json(&text).unwrap(), manifest);
        assert_eq!(read_manifest(&dir).unwrap(), manifest);
        // Serialization is deterministic.
        assert_eq!(manifest.to_json(), text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_verify_reconstruct() {
        // Two unit squares sharing the x = 1 edge: vertices 1,2 of the
        // left square are 4,7 of the right (same gids 1,2... here they
        // use disjoint gid ranges, so splice by coordinates won't kick
        // in — use matching gids instead).
        let a = square_mesh(0.0, 0);
        let mut b = square_mesh(1.0, 4);
        // Right square's left edge (vertices 0,3 at x=1) IS the left
        // square's right edge (gids 1,2).
        b.stamp_vertex(0, GlobalVertexId(1));
        b.stamp_vertex(3, GlobalVertexId(2));
        let dir = tmp_dir("roundtrip");
        let manifest = write_shard_set(&dir, &[(&[0u8][..], &a), (&[1u8][..], &b)], None).unwrap();
        let report = verify_shards(&dir, &manifest).unwrap();
        assert!(report.is_consistent(), "{:?}", report.problems);
        assert_eq!(report.shard_count, 2);
        assert_eq!(report.shared_stamped, 2);
        let mesh = reconstruct(&dir, &manifest).unwrap();
        // 4 + 4 vertices, 2 shared -> 6; 2 + 2 triangles.
        assert_eq!(mesh.num_vertices(), 6);
        assert_eq!(mesh.num_triangles(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stamped_vertex_disagreement_is_reported_and_refused() {
        let a = square_mesh(0.0, 0);
        // The right square of `write_verify_reconstruct` with its shared
        // vertex corrupted: same gid, different coordinates —
        // per-shard digests stay self-consistent, only the cross-shard
        // check can see it.
        let corrupt = {
            let pts = vec![
                Point2::new(1.0, 1e-9), // gid 1 moved
                Point2::new(2.0, 0.0),
                Point2::new(2.0, 1.0),
                Point2::new(1.0, 1.0),
            ];
            let mut m = Mesh::from_triangles(pts, vec![[0, 1, 2], [0, 2, 3]]);
            m.stamp_vertex(0, GlobalVertexId(1));
            m.stamp_vertex(1, GlobalVertexId(5));
            m.stamp_vertex(2, GlobalVertexId(6));
            m.stamp_vertex(3, GlobalVertexId(2));
            for (x, y) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
                m.constrain_edge(x, y);
            }
            m
        };
        let dir = tmp_dir("tamper");
        let manifest =
            write_shard_set(&dir, &[(&[0u8][..], &a), (&[1u8][..], &corrupt)], None).unwrap();
        let report = verify_shards(&dir, &manifest).unwrap();
        assert!(!report.is_consistent());
        assert!(
            report.problems[0].contains("gid 1"),
            "{:?}",
            report.problems
        );
        // Reconstruction refuses the set instead of merging it.
        let err = reconstruct(&dir, &manifest).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("gid 1"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_failure_leaves_no_manifest_and_no_temp_files() {
        let a = square_mesh(0.0, 0);
        let b = square_mesh(1.0, 4);
        let dir = tmp_dir("atomic");
        let err = write_shard_set_with_fault(&dir, &[(&[0u8][..], &a), (&[1u8][..], &b)], 1)
            .expect_err("injected failure must surface");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert!(
            !dir.join(MANIFEST_NAME).exists(),
            "manifest must not exist after a failed run"
        );
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp"),
                "temp file {name} leaked by failed write"
            );
        }
        // The directory is resumable: a clean rerun succeeds and verifies.
        let manifest = write_shard_set(&dir, &[(&[0u8][..], &a), (&[1u8][..], &b)], None).unwrap();
        assert!(verify_shards(&dir, &manifest).unwrap().is_consistent());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_hex_and_format_rejected() {
        assert!(hex_to_path("0").is_none());
        assert_eq!(hex_to_path("00ff").unwrap(), vec![0u8, 0xff]);
        assert!(ShardManifest::from_json(
            "{\"format\": \"nope\", \"shard_count\": 0, \"shards\": []}"
        )
        .is_err());
        assert!(ShardManifest::from_json("not json").is_err());
    }
}
