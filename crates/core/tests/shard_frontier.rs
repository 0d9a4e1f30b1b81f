//! Property tests for the sharded-output interface invariant: for random
//! clouds and random cut sequences, neighboring shards agree on their
//! shared interface — every stamped constrained-edge endpoint carries the
//! same coordinate bits in every shard — and the offline reconstruction
//! equals the sequential fold. The negative control moves one shared
//! vertex by one ulp inside a shard's `.adm` bytes: the consistency check
//! must name the gid, and reconstruction must refuse the set.

use adm_core::{
    reconstruct, sha256_hex, verify_shards, write_manifest, write_shard_set, MeshMerger,
};
use adm_delaunay::io::write_ascii_canonical;
use adm_delaunay::mesh::Mesh;
use adm_geom::point::Point2;
use adm_kernel::{GlobalVertexId, MeshArena};
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
/// constraints, which is what the shard consistency check reads.
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

/// The gids of `mesh`'s stamped constrained-edge endpoints, each with
/// the local vertex that carries it.
fn stamped_interface(mesh: &Mesh) -> HashMap<u32, u32> {
    mesh.constrained_edges()
        .flat_map(|(a, b)| [a, b])
        .filter_map(|v| Some((mesh.global_id(v)?.0, v)))
        .collect()
}

/// Byte offset of vertex `v`'s `x` in an `ADM2DM03` file: the 8-byte
/// magic, three `u64` counts and one flags byte, then 16 bytes a vertex.
fn x_offset(v: u32) -> usize {
    33 + 16 * v as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An honest shard set verifies, shares stamped interface vertices,
    /// and reconstructs to the sequential fold.
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

        // Global consistency holds for an honest shard set, and the check
        // covers at least one vertex two shards share.
        let report = verify_shards(&dir, &manifest).expect("shards readable");
        prop_assert!(report.is_consistent(), "{:?}", report.problems);
        prop_assert!(report.shared_stamped > 0, "cut sequence produced no shared interfaces");

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

    /// Negative control on the merged data: move one shared stamped
    /// vertex by one ulp inside a shard's `.adm` bytes and re-stamp that
    /// row's digest, so per-file hashing alone cannot catch it. The
    /// consistency check must name the gid, and reconstruction must
    /// refuse the set rather than merge it.
    #[test]
    fn moved_shared_vertex_is_caught_and_refused(
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

        // The smallest gid the first shard shares with another.
        let interfaces: Vec<HashMap<u32, u32>> = meshes.iter().map(stamped_interface).collect();
        let shared = interfaces[0]
            .keys()
            .filter(|g| interfaces[1..].iter().any(|f| f.contains_key(g)))
            .min()
            .copied();
        prop_assume!(shared.is_some());
        let gid = shared.unwrap();

        let file = dir.join(manifest.shards[0].file_name());
        let mut bytes = std::fs::read(&file).expect("shard readable");
        prop_assert_eq!(&bytes[..8], b"ADM2DM03");
        let at = x_offset(interfaces[0][&gid]);
        let x = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        bytes[at..at + 8].copy_from_slice(&(x ^ 1).to_le_bytes()); // one ulp off
        std::fs::write(&file, &bytes).expect("tamper write");
        manifest.shards[0].mesh_sha256 = sha256_hex(&bytes);
        write_manifest(&dir, &manifest).expect("manifest rewrite");

        let report = verify_shards(&dir, &manifest).expect("shards readable");
        let named = format!("disagreement on gid {gid}:");
        prop_assert!(
            report.problems.iter().any(|p| p.contains(&named)),
            "moved vertex passed the consistency check: {:?}",
            report.problems
        );
        let err = reconstruct(&dir, &manifest).expect_err("an inconsistent set is refused");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
