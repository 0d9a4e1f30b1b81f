//! Subdomain merge cost of arena-id splicing.
//!
//! [`MeshMerger::add_mesh_spliced`] resolves stamped vertices through a
//! dense arena map and only touches the coordinate hash for the
//! constrained interface frontier — so its hash work is O(interface),
//! and the rest is a blind append.
//!
//! Three sweeps demonstrate the scaling claim:
//!
//! * `merge/spliced/interior_*` — interior vertex count grows at a fixed
//!   64-segment interface: the cost is the append, not the hash.
//! * `merge/spliced/interface_*` — interface size grows at a fixed
//!   16k-vertex interior: the spliced hash work tracks this knob, which
//!   is the one the decomposition actually bounds.
//! * `merge/tree/threads_*` — the tree-parallel reduction over 8 stamped
//!   tiles at pool widths 1/2/4/8: same bytes at every width, shrinking
//!   wall clock.
//! * `merge/finish/leaves_16` — the whole merge tail, reduction plus
//!   [`MeshMerger::finish`], over the 16 stamped leaf meshes of one
//!   decomposed 60k-point cloud: neighbouring leaves share their dividing
//!   paths, so the splice links real interfaces. The `bench-smoke` CI job
//!   gates it against `bench_results/merge_baseline.json`.

use adm_core::{merge_tree_spliced, MeshMerger};
use adm_delaunay::mesh::Mesh;
use adm_geom::point::Point2;
use adm_kernel::{GlobalVertexId, MeshArena};
use adm_mpirt::Pool;
use adm_partition::{decompose, reduction_plan, triangulate_leaf, DecomposeParams, Subdomain};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// A stamped subdomain mesh: `border` points on a circle centred at
/// `(cx, 0)` (its convex hull, so consecutive points are Delaunay edges we
/// can constrain as the interface) around `interior` random points,
/// interned into a fresh arena whose ids are therefore the positional
/// indices.
fn stamped_subdomain(interior: usize, border: usize, seed: u64, cx: f64) -> (Mesh, usize) {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pts: Vec<Point2> = (0..border)
        .map(|i| {
            let a = i as f64 / border as f64 * std::f64::consts::TAU;
            Point2::new(cx + a.cos(), a.sin())
        })
        .collect();
    pts.extend((0..interior).map(|_| {
        let a = r.gen_range(0.0..std::f64::consts::TAU);
        let d = r.gen_range(0.0..0.9f64).sqrt();
        Point2::new(cx + d * a.cos(), d * a.sin())
    }));

    let mut arena = MeshArena::with_capacity(pts.len());
    let ids = arena.intern_all(&pts);
    let tris = triangulate_leaf(&Subdomain::root_with_ids(&pts, &ids));
    let mut mesh = Mesh::from_triangles(pts, tris);
    mesh.stamp_prefix(&ids);
    for i in 0..border as u32 {
        mesh.constrain_edge(i, (i + 1) % border as u32);
    }
    let arena_len = arena.len();
    (mesh, arena_len)
}

fn bench_interior_sweep(c: &mut Criterion) {
    const INTERFACE: usize = 64;
    for interior in [1_000usize, 4_000, 16_000] {
        let (mesh, arena_len) = stamped_subdomain(interior, INTERFACE, 11, 0.0);
        let verts = mesh.num_vertices();
        c.bench_function(format!("merge/spliced/interior_{interior}").as_str(), |b| {
            b.iter(|| {
                let mut m = MeshMerger::with_capacity(arena_len, verts + 16);
                m.add_mesh_spliced(&mesh);
                std::hint::black_box(m)
            })
        });
    }
}

fn bench_interface_sweep(c: &mut Criterion) {
    const INTERIOR: usize = 16_000;
    for interface in [64usize, 256, 1_024] {
        let (mesh, arena_len) = stamped_subdomain(INTERIOR, interface, 23, 0.0);
        let verts = mesh.num_vertices();
        c.bench_function(
            format!("merge/spliced/interface_{interface}").as_str(),
            |b| {
                b.iter(|| {
                    let mut m = MeshMerger::with_capacity(arena_len, verts + 16);
                    m.add_mesh_spliced(&mesh);
                    std::hint::black_box(m)
                })
            },
        );
    }
}

/// A disjoint translated copy of [`stamped_subdomain`] whose stamps are
/// rebased by `id_offset`, so many tiles can share one conceptual arena
/// without id collisions.
fn stamped_tile(interior: usize, border: usize, seed: u64, tile: usize) -> Mesh {
    let (mut mesh, arena_len) = stamped_subdomain(interior, border, seed, 3.0 * tile as f64);
    let offset = (tile * arena_len) as u32;
    let ids: Vec<GlobalVertexId> = (0..arena_len as u32)
        .map(|i| GlobalVertexId(offset + i))
        .collect();
    mesh.stamp_prefix(&ids);
    mesh
}

fn bench_tree_sweep(c: &mut Criterion) {
    const TILES: usize = 8;
    let meshes: Vec<Mesh> = (0..TILES)
        .map(|t| stamped_tile(4_000, 64, 31 + t as u64, t))
        .collect();
    let refs: Vec<&Mesh> = meshes.iter().collect();
    let paths: Vec<[u8; 2]> = (0..TILES as u16).map(|i| i.to_be_bytes()).collect();
    let path_refs: Vec<&[u8]> = paths.iter().map(|p| p.as_slice()).collect();
    let plan = reduction_plan(&path_refs);
    for threads in [1usize, 2, 4, 8] {
        let pool = Pool::new(threads);
        c.bench_function(format!("merge/tree/threads_{threads}").as_str(), |b| {
            b.iter(|| std::hint::black_box(merge_tree_spliced(&refs, &plan, &pool, None)))
        });
    }
}

/// The leaf meshes of `points` decomposed into `leaves` subdomains, each
/// a standalone mesh stamped with arena ids, so shared dividing-path
/// vertices resolve by stamp. A triangle two sibling leaves both keep is
/// kept by the first, as in the pipeline.
fn stamped_leaves(points: &[Point2], leaves: usize) -> Vec<Mesh> {
    let mut arena = MeshArena::with_capacity(points.len());
    let ids = arena.intern_all(points);
    let root = Subdomain::root_with_ids(points, &ids);
    let params = DecomposeParams::for_subdomain_count(leaves);
    let mut seen: HashSet<[u32; 3]> = HashSet::new();
    let mut meshes = Vec::new();
    for leaf in decompose(root, &params).leaves {
        let mut local: HashMap<u32, u32> = HashMap::new();
        let mut pts = Vec::new();
        let mut tris = Vec::new();
        for t in triangulate_leaf(&leaf) {
            let mut key = t;
            key.sort_unstable();
            if !seen.insert(key) {
                continue;
            }
            tris.push(t.map(|g| {
                *local.entry(g).or_insert_with(|| {
                    pts.push(arena.point(GlobalVertexId(g)));
                    (pts.len() - 1) as u32
                })
            }));
        }
        let mut mesh = Mesh::from_triangles(pts, tris);
        for (&g, &l) in &local {
            mesh.stamp_vertex(l, GlobalVertexId(g));
        }
        meshes.push(mesh);
    }
    meshes
}

fn bench_finish(c: &mut Criterion) {
    const POINTS: usize = 60_000;
    const LEAVES: usize = 16;
    let mut r = rand::rngs::StdRng::seed_from_u64(47);
    let cloud: Vec<Point2> = (0..POINTS)
        .map(|_| Point2::new(r.gen_range(-10.0..10.0), r.gen_range(-10.0..10.0)))
        .collect();
    let meshes = stamped_leaves(&cloud, LEAVES);
    let refs: Vec<&Mesh> = meshes.iter().collect();
    let paths: Vec<[u8; 2]> = (0..refs.len() as u16).map(|i| i.to_be_bytes()).collect();
    let path_refs: Vec<&[u8]> = paths.iter().map(|p| p.as_slice()).collect();
    let plan = reduction_plan(&path_refs);
    let pool = Pool::new(0);
    c.bench_function(format!("merge/finish/leaves_{LEAVES}").as_str(), |b| {
        b.iter(|| std::hint::black_box(merge_tree_spliced(&refs, &plan, &pool, None).finish()))
    });
}

fn merge_benches(c: &mut Criterion) {
    bench_interior_sweep(c);
    bench_interface_sweep(c);
    bench_tree_sweep(c);
    bench_finish(c);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = merge_benches
}
criterion_main!(benches);
