//! Correctness oracles: canonical-ASCII digests, the pinned
//! expectations in `expected.json`, and the process high-water mark.

use crate::inputs::{rung, Workload};
use crate::json::{self, Value};
use adm_core::Sha256;
use adm_delaunay::mesh::Mesh;
use std::io::Write;

/// Counts and canonical digest of one mesh — what an op is checked by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub triangles: usize,
    pub vertices: usize,
    /// sha256 (hex) of `write_ascii_canonical`; `None` until computed.
    pub sha256: Option<String>,
}

impl Fingerprint {
    pub fn counts(mesh: &Mesh) -> Fingerprint {
        Fingerprint {
            triangles: mesh.num_triangles(),
            vertices: mesh.num_vertices(),
            sha256: None,
        }
    }

    pub fn full(mesh: &Mesh) -> Fingerprint {
        Fingerprint {
            sha256: Some(digest(mesh)),
            ..Fingerprint::counts(mesh)
        }
    }

    /// `Err` naming the first field on which `self` departs from `want`.
    /// A digest is compared only when both sides carry one.
    pub fn check(&self, want: &Fingerprint, what: &str) -> Result<(), String> {
        if self.triangles != want.triangles || self.vertices != want.vertices {
            return Err(format!(
                "{what}: count mismatch: got {} triangles / {} vertices, want {} / {}",
                self.triangles, self.vertices, want.triangles, want.vertices
            ));
        }
        match (&self.sha256, &want.sha256) {
            (Some(a), Some(b)) if a != b => Err(format!("{what}: digest mismatch: {a} != {b}")),
            _ => Ok(()),
        }
    }
}

/// Streams `write_ascii_canonical` straight into sha256, so checking a
/// 1.2 M-triangle mesh between set-up and the timed ops does not put its
/// 63 MB encoding on the heap those ops then run on.
struct HashWriter(Sha256);

impl Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.update(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// sha256 (hex) of the mesh's canonical ASCII encoding — the same bytes
/// `adm_core::mesh_digest_hex` and the server's `digest` header hash.
pub fn digest(mesh: &Mesh) -> String {
    let mut w = HashWriter(Sha256::new());
    adm_delaunay::io::write_ascii_canonical(mesh, &mut w).expect("hashing cannot fail");
    hex(&w.0.finish())
}

/// The pinned expectations, generated at the commit that introduced the
/// benchmark with `e2e --pin`.
const EXPECTED: &str = include_str!("../expected.json");

/// The pinned fingerprint for `workload` at `seed`'s geometry rung, if
/// one is recorded. `ranks2_1m` shares `inviscid_1m`'s entry: the rank
/// driver must reproduce the serial mesh byte for byte.
pub fn expected(workload: Workload, seed: u64) -> Option<Fingerprint> {
    let doc = json::parse(EXPECTED).expect("expected.json parses");
    let name = match workload {
        Workload::Ranks2_1m => Workload::Inviscid1m.name(),
        w => w.name(),
    };
    let e = doc.get(name)?.get(&rung(seed).to_string())?;
    Some(Fingerprint {
        triangles: e.get("triangles")?.as_f64()? as usize,
        vertices: e.get("vertices")?.as_f64()? as usize,
        sha256: Some(e.get("sha256")?.as_str()?.to_string()),
    })
}

/// One `expected.json` entry.
pub fn expected_entry(f: &Fingerprint) -> Value {
    json::obj(vec![
        ("triangles", json::num(f.triangles as f64)),
        ("vertices", json::num(f.vertices as f64)),
        (
            "sha256",
            json::text(f.sha256.clone().expect("pinned entries carry a digest")),
        ),
    ])
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_digest_equals_the_buffered_one() {
        let pts = vec![
            adm_geom::Point2::new(0.0, 0.0),
            adm_geom::Point2::new(1.0, 0.0),
            adm_geom::Point2::new(0.0, 1.0),
            adm_geom::Point2::new(1.0, 1.0),
        ];
        let mesh = Mesh::from_triangles(pts, vec![[0, 1, 2], [1, 3, 2]]);
        assert_eq!(digest(&mesh), adm_core::mesh_digest_hex(&mesh));
        let f = Fingerprint::full(&mesh);
        assert_eq!((f.triangles, f.vertices), (2, 4));
        assert!(f.check(&f.clone(), "self").is_ok());
        let mut other = f.clone();
        other.sha256 = Some("00".into());
        assert!(f.check(&other, "x").unwrap_err().contains("digest"));
        other.triangles = 3;
        assert!(f.check(&other, "x").unwrap_err().contains("count"));
        // Counts-only fingerprints skip the digest comparison.
        assert!(Fingerprint::counts(&mesh).check(&f, "x").is_ok());
    }

    #[test]
    fn pinned_entries_exist_for_every_rung_of_every_library_workload() {
        for w in Workload::ALL.into_iter().filter(|w| !w.is_serve()) {
            for seed in 1..=7 {
                let f = expected(w, seed).unwrap_or_else(|| panic!("{} seed {seed}", w.name()));
                assert_eq!(f.sha256.as_ref().map(String::len), Some(64));
                assert!(f.triangles > 0 && f.vertices > 0);
            }
        }
        assert_eq!(
            expected(Workload::Ranks2_1m, 1),
            expected(Workload::Inviscid1m, 1)
        );
        assert_eq!(expected(Workload::ServeHot, 1), None);
        assert!(peak_rss_mb() > 0.0);
    }
}
