//! The two-level response cache: a bounded in-memory LRU over encoded
//! responses, backed by the shard-set format on disk.
//!
//! Both levels are keyed by the content address from
//! [`crate::request::cache_key`]. The memory level stores the finished
//! canonical-ASCII response bytes (what goes on the wire), so a hit is
//! a hash lookup plus an `Arc` clone. The disk level stores the mesh
//! as a shard set — written *by the pipeline itself* via `shard_out`
//! while the miss is being meshed, so persistence costs no extra
//! serialization pass — and a load is [`reconstruct`], which reads and
//! parses each shard file once, checks it, and merges canonically
//! identically to the in-process merge. Anything it refuses (a digest
//! mismatch, a truncated shard, an inconsistent or old-format set) is
//! treated as a miss and the entry is purged, never served.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use adm_core::hash::sha256_hex;
use adm_core::shard::{read_manifest, reconstruct, MANIFEST_NAME};
use adm_delaunay::io::write_ascii_canonical;
use adm_delaunay::mesh::Mesh;

/// One finished response: the canonical-ASCII mesh bytes plus their
/// sha256 (the digest clients can use as an end-to-end oracle).
#[derive(Debug)]
pub struct Response {
    /// Content address of the *request* that produced this mesh.
    pub key: String,
    /// sha256 of `bytes` — identical for every waiter of a coalesced
    /// job and for disk reloads of the same key.
    pub digest: String,
    /// Canonical-ASCII mesh (Triangle-format, `write_ascii_canonical`).
    pub bytes: Vec<u8>,
}

impl Response {
    /// Encodes a mesh into its canonical response form.
    pub fn from_mesh(key: &str, mesh: &Mesh) -> Response {
        let mut bytes = Vec::new();
        write_ascii_canonical(mesh, &mut bytes).expect("Vec write cannot fail");
        Response {
            key: key.to_string(),
            digest: sha256_hex(&bytes),
            bytes,
        }
    }
}

/// Bounded-byte LRU of encoded responses. Not thread-safe by itself —
/// the server wraps it in its state mutex.
pub struct MemCache {
    map: HashMap<String, (Arc<Response>, u64)>,
    /// LRU clock: entries carry the tick of their last touch; eviction
    /// removes the smallest. O(n) scan on evict, but n is small (the
    /// budget is bytes, responses are ~MBs) and eviction is off the
    /// hit path.
    tick: u64,
    bytes: usize,
    budget: usize,
}

impl MemCache {
    /// Creates a cache holding at most `budget` bytes of responses.
    pub fn new(budget: usize) -> MemCache {
        MemCache {
            map: HashMap::new(),
            tick: 0,
            bytes: 0,
            budget,
        }
    }

    /// Current resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a key, refreshing its recency on hit.
    pub fn get(&mut self, key: &str) -> Option<Arc<Response>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(resp, at)| {
            *at = tick;
            resp.clone()
        })
    }

    /// Inserts a response, evicting least-recently-used entries until
    /// the budget holds. A response larger than the whole budget is
    /// passed through uncached.
    pub fn put(&mut self, resp: Arc<Response>) {
        let size = resp.bytes.len();
        if size > self.budget {
            return;
        }
        self.tick += 1;
        if let Some((old, _)) = self.map.insert(resp.key.clone(), (resp, self.tick)) {
            self.bytes -= old.bytes.len();
        }
        self.bytes += size;
        while self.bytes > self.budget {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, at))| *at)
                .map(|(k, _)| k.clone())
                .expect("bytes > budget implies non-empty");
            let (gone, _) = self.map.remove(&victim).unwrap();
            self.bytes -= gone.bytes.len();
        }
    }
}

/// Disk-level cache: one shard-set directory per key under a root.
pub struct DiskCache {
    root: PathBuf,
}

/// Outcome of a disk probe.
pub enum DiskLoad {
    /// No entry for this key.
    Miss,
    /// Entry existed but its manifest or reconstruction was refused; it
    /// has been purged. Callers mesh fresh.
    Corrupt,
    /// Verified reconstruction (boxed: a `Mesh` is large next to the
    /// other variants).
    Hit(Box<Mesh>),
}

impl DiskCache {
    /// Opens (creating) a disk cache rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskCache { root })
    }

    /// The shard-set directory for `key`.
    pub fn entry_dir(&self, key: &str) -> PathBuf {
        self.root.join(key)
    }

    /// `true` when a (possibly invalid) entry exists for `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.entry_dir(key).join(MANIFEST_NAME).is_file()
    }

    /// Loads the entry for `key` through [`read_manifest`] and
    /// [`reconstruct`], which verifies it. Single-flight in
    /// the server guarantees no concurrent writer for the same key, so
    /// a bad entry here is real corruption (or a crash mid-write), not
    /// a race — it is purged so the next miss rewrites it.
    pub fn load(&self, key: &str) -> DiskLoad {
        let dir = self.entry_dir(key);
        if !dir.join(MANIFEST_NAME).is_file() {
            return DiskLoad::Miss;
        }
        match read_manifest(&dir).and_then(|manifest| reconstruct(&dir, &manifest)) {
            Ok(mesh) => DiskLoad::Hit(Box::new(mesh)),
            Err(_) => {
                let _ = std::fs::remove_dir_all(&dir);
                DiskLoad::Corrupt
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(key: &str, n: usize) -> Arc<Response> {
        Arc::new(Response {
            key: key.to_string(),
            digest: String::new(),
            bytes: vec![0u8; n],
        })
    }

    #[test]
    fn lru_evicts_oldest_within_budget() {
        let mut c = MemCache::new(100);
        c.put(resp("a", 40));
        c.put(resp("b", 40));
        assert!(c.get("a").is_some()); // refresh a; b is now LRU
        c.put(resp("c", 40)); // 120 > 100: evict b
        assert!(c.get("b").is_none());
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert!(c.bytes() <= 100);
    }

    #[test]
    fn oversized_entry_is_passed_through() {
        let mut c = MemCache::new(10);
        c.put(resp("big", 11));
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn reinsert_same_key_accounts_bytes_once() {
        let mut c = MemCache::new(100);
        c.put(resp("a", 30));
        c.put(resp("a", 50));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 50);
    }
}
