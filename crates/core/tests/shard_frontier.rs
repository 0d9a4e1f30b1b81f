//! Property tests for the sharded-output frontier invariant: for random
//! clouds and random cut sequences, every pair of neighboring shards
//! must agree on their shared interface frontier — same stamped global
//! ids, same coordinate bits, hence equal pairwise digests — without
//! any shard ever seeing another's mesh. A tampered frontier is the
//! negative control: flipping one coordinate bit in one sidecar must be
//! caught by the global consistency check and must split the pairwise
//! digests.

use adm_core::{
    pairwise_frontier_digest, reconstruct, sha256_hex, verify_shards, write_manifest,
    write_shard_set, MeshMerger,
};
use adm_delaunay::io::write_ascii_canonical;
use adm_delaunay::mesh::Mesh;
use adm_geom::point::Point2;
use adm_kernel::{frontier_bytes, frontier_from_bytes, FrontierEntry, GlobalVertexId, MeshArena};
use adm_partition::{triangulate_leaf, CutAxis, Subdomain};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

fn mesh_sha(mesh: &Mesh) -> String {
    let mut buf = Vec::new();
    write_ascii_canonical(mesh, &mut buf).expect("in-memory write");
    sha256_hex(&buf)
}

/// Random general-position cloud with asymmetric hull anchors — the
/// same construction as the arena_merge suite (degenerate inputs are a
/// merge-layer concern, not a frontier one).
fn cloud_strategy() -> impl Strategy<Value = Vec<Point2>> {
    proptest::collection::vec((-4.9f64..4.9, -4.9f64..4.9), 24..80).prop_map(|cells| {
        let mut pts: Vec<Point2> = cells.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
        pts.extend([
            Point2::new(-5.1, -4.7),
            Point2::new(5.2, -5.3),
            Point2::new(5.0, 4.9),
            Point2::new(-4.8, 5.1),
        ]);
        pts
    })
}

/// Caller-chosen cut sequence, as in the arena_merge suite.
fn split_by_axes(root: Subdomain, axes: &[CutAxis]) -> Vec<Subdomain> {
    let mut subs = vec![root];
    for &axis in axes {
        let mut next = Vec::with_capacity(subs.len() * 2);
        for mut s in subs {
            if s.len() > 12 {
                let (lo, hi, _path) = s.split(axis);
                next.push(lo);
                next.push(hi);
            } else {
                next.push(s);
            }
        }
        subs = next;
    }
    subs
}

/// Triangulates the leaves into standalone stamped meshes and
/// constrains every edge whose endpoints both live in more than one
/// leaf — the synthetic stand-in for the pipeline's interface
/// constraints, which is what the frontier sidecars record.
fn leaf_meshes_with_interfaces(arena: &MeshArena, leaves: &[Subdomain]) -> Vec<Mesh> {
    type RawLeaf = (HashMap<u32, u32>, Vec<Point2>, Vec<[u32; 3]>);
    let mut seen: HashSet<[u32; 3]> = HashSet::new();
    let mut raw: Vec<RawLeaf> = Vec::new();
    let mut owners: HashMap<u32, u32> = HashMap::new();
    for leaf in leaves {
        let mut gmap: HashMap<u32, u32> = HashMap::new();
        let mut pts: Vec<Point2> = Vec::new();
        let mut local_tris: Vec<[u32; 3]> = Vec::new();
        for t in triangulate_leaf(leaf) {
            let mut key = t;
            key.sort_unstable();
            if !seen.insert(key) {
                continue;
            }
            let mut lt = [0u32; 3];
            for (k, &g) in t.iter().enumerate() {
                lt[k] = *gmap.entry(g).or_insert_with(|| {
                    pts.push(arena.point(GlobalVertexId(g)));
                    (pts.len() - 1) as u32
                });
            }
            local_tris.push(lt);
        }
        if local_tris.is_empty() {
            continue;
        }
        for &g in gmap.keys() {
            *owners.entry(g).or_insert(0) += 1;
        }
        raw.push((gmap, pts, local_tris));
    }
    raw.into_iter()
        .map(|(gmap, pts, local_tris)| {
            let mut m = Mesh::from_triangles(pts, local_tris.clone());
            for (&g, &l) in &gmap {
                m.stamp_vertex(l, GlobalVertexId(g));
            }
            let shared: Vec<bool> = (0..m.num_vertices() as u32)
                .map(|l| {
                    m.global_id(l)
                        .map(|g| owners.get(&g.0).copied().unwrap_or(0) > 1)
                        .unwrap_or(false)
                })
                .collect();
            for t in &local_tris {
                for k in 0..3 {
                    let (a, b) = (t[k], t[(k + 1) % 3]);
                    if shared[a as usize] && shared[b as usize] {
                        m.constrain_edge(a, b);
                    }
                }
            }
            m
        })
        .collect()
}

fn scratch(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adm-shard-frontier-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read_frontier(dir: &std::path::Path, file: &str) -> Vec<FrontierEntry> {
    frontier_from_bytes(&std::fs::read(dir.join(file)).expect("frontier sidecar"))
        .expect("well-formed frontier records")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pairwise frontier-digest agreement for every neighboring shard
    /// pair, plus the reconstruction oracle against the sequential fold.
    #[test]
    fn neighboring_shards_agree_on_their_frontier(
        cloud in cloud_strategy(),
        axes in proptest::collection::vec(any::<bool>(), 1..4),
        tag in 0u64..1_000_000,
    ) {
        let axes: Vec<CutAxis> = axes
            .into_iter()
            .map(|b| if b { CutAxis::X } else { CutAxis::Y })
            .collect();
        let mut arena = MeshArena::with_capacity(cloud.len());
        let ids = arena.intern_all(&cloud);
        let leaves = split_by_axes(Subdomain::root_with_ids(&cloud, &ids), &axes);
        let meshes = leaf_meshes_with_interfaces(&arena, &leaves);
        prop_assume!(meshes.len() >= 2);

        let dir = scratch(tag);
        let paths: Vec<[u8; 2]> = (0..meshes.len() as u16).map(|i| i.to_be_bytes()).collect();
        let inputs: Vec<(&[u8], &Mesh)> = paths
            .iter()
            .zip(&meshes)
            .map(|(p, m)| (p.as_slice(), m))
            .collect();
        let manifest = write_shard_set(&dir, &inputs, None).expect("shard write");

        // Global consistency holds for an honest shard set.
        let report = verify_shards(&dir, &manifest).expect("shards readable");
        prop_assert!(report.is_consistent(), "{:?}", report.problems);

        // Every pair of shards that shares stamped frontier vertices
        // agrees: both sides of the pairwise digest are equal.
        let frontiers: Vec<Vec<FrontierEntry>> = manifest
            .shards
            .iter()
            .map(|s| read_frontier(&dir, &s.frontier_file))
            .collect();
        let mut shared_pairs = 0usize;
        for i in 0..frontiers.len() {
            for j in i + 1..frontiers.len() {
                let (da, db) = pairwise_frontier_digest(&frontiers[i], &frontiers[j]);
                prop_assert_eq!(
                    &da, &db,
                    "shards {} and {} disagree on their shared frontier", i, j
                );
                let gids: HashSet<u32> = frontiers[i]
                    .iter()
                    .filter(|e| e.is_stamped())
                    .map(|e| e.gid)
                    .collect();
                if frontiers[j].iter().any(|e| e.is_stamped() && gids.contains(&e.gid)) {
                    shared_pairs += 1;
                }
            }
        }
        prop_assert!(shared_pairs > 0, "cut sequence produced no shared interfaces");

        // Reconstruction oracle: the offline merge equals the
        // sequential fold over the same shard meshes.
        let mut merger = MeshMerger::with_capacity(arena.len(), arena.len());
        for m in &meshes {
            merger.add_mesh_spliced(m);
        }
        let seq = merger.finish();
        let recon = reconstruct(&dir, &manifest).expect("reconstruction");
        prop_assert_eq!(mesh_sha(&recon), mesh_sha(&seq));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Negative control: tamper with one shared frontier vertex in one
    /// sidecar (keeping that shard's manifest digest self-consistent, so
    /// per-file hashing alone cannot catch it) — the cross-shard
    /// consistency check must flag the disagreement and the pairwise
    /// digests must split.
    #[test]
    fn tampered_frontier_vertex_is_caught(
        cloud in cloud_strategy(),
        tag in 0u64..1_000_000,
    ) {
        let mut arena = MeshArena::with_capacity(cloud.len());
        let ids = arena.intern_all(&cloud);
        let leaves = split_by_axes(Subdomain::root_with_ids(&cloud, &ids), &[CutAxis::X]);
        let meshes = leaf_meshes_with_interfaces(&arena, &leaves);
        prop_assume!(meshes.len() >= 2);

        let dir = scratch(tag | 1 << 32);
        let paths: Vec<[u8; 2]> = (0..meshes.len() as u16).map(|i| i.to_be_bytes()).collect();
        let inputs: Vec<(&[u8], &Mesh)> = paths
            .iter()
            .zip(&meshes)
            .map(|(p, m)| (p.as_slice(), m))
            .collect();
        let mut manifest = write_shard_set(&dir, &inputs, None).expect("shard write");

        // Find a shard whose frontier has a stamped entry shared with
        // another shard, and nudge that entry's x coordinate bits.
        let frontiers: Vec<Vec<FrontierEntry>> = manifest
            .shards
            .iter()
            .map(|s| read_frontier(&dir, &s.frontier_file))
            .collect();
        let shared_gid = {
            let mut counts: HashMap<u32, usize> = HashMap::new();
            for f in &frontiers {
                for e in f.iter().filter(|e| e.is_stamped()) {
                    *counts.entry(e.gid).or_insert(0) += 1;
                }
            }
            counts.into_iter().find(|&(_, c)| c > 1).map(|(g, _)| g)
        };
        prop_assume!(shared_gid.is_some());
        let gid = shared_gid.unwrap();
        let victim = frontiers
            .iter()
            .position(|f| f.iter().any(|e| e.gid == gid))
            .unwrap();

        let mut tampered = frontiers[victim].clone();
        for e in &mut tampered {
            if e.gid == gid {
                e.xbits ^= 1; // one ulp off: still a plausible coordinate
            }
        }
        let bytes = frontier_bytes(&tampered);
        let honest = &manifest.shards[victim];
        std::fs::write(dir.join(&honest.frontier_file), &bytes).expect("tamper write");
        // Re-stamp the manifest so the per-file digest still matches:
        // only the cross-shard check can catch this.
        manifest.shards[victim].frontier_sha256 = sha256_hex(&bytes);
        write_manifest(&dir, &manifest).expect("manifest rewrite");

        let report = verify_shards(&dir, &manifest).expect("shards readable");
        prop_assert!(
            !report.is_consistent(),
            "tampered frontier passed the consistency check"
        );
        prop_assert!(
            report.problems.iter().any(|p| p.contains("disagreement")),
            "unexpected problem set: {:?}",
            report.problems
        );

        // And the pairwise digests split for some honest neighbor.
        let other = frontiers
            .iter()
            .enumerate()
            .position(|(i, f)| i != victim && f.iter().any(|e| e.gid == gid))
            .unwrap();
        let (da, db) = pairwise_frontier_digest(&tampered, &frontiers[other]);
        prop_assert!(da != db, "tampering did not split the pairwise digest");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
