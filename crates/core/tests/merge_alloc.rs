//! The id-based merge hot path must not touch the heap.
//!
//! After one warm-up `add_mesh_spliced` (which sizes the per-call
//! scratch) on a merger built with `with_capacity`, splicing a second
//! stamped mesh — vertex pushes, global-map resolution, the constrained
//! shared-frontier marking, the vertex-map append — must perform zero
//! heap allocations.
//!
//! This file holds exactly one test so no sibling test thread can
//! allocate inside the measurement window.

use adm_core::MeshMerger;
use adm_delaunay::mesh::Mesh;
use adm_geom::point::Point2;
use adm_kernel::MeshArena;
use adm_partition::{triangulate_leaf, Subdomain};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A stamped grid-triangulation mesh whose points are interned in
/// `arena` at `offset`. Grid points are unique, so `intern_all` ids are
/// a dense contiguous block and the arena triples remap locally by
/// subtracting the block base.
fn stamped_grid_mesh(arena: &mut MeshArena, n: usize, offset: f64) -> Mesh {
    let pts: Vec<Point2> = (0..n)
        .flat_map(|i| (0..n).map(move |j| Point2::new(offset + i as f64 * 0.5, j as f64 * 0.5)))
        .collect();
    let ids = arena.intern_all(&pts);
    let base = ids[0].raw();
    let tris: Vec<[u32; 3]> = triangulate_leaf(&Subdomain::root_with_ids(&pts, &ids))
        .into_iter()
        .map(|t| t.map(|g| g - base))
        .collect();
    let mut mesh = Mesh::from_triangles(pts, tris);
    mesh.stamp_prefix(&ids);
    mesh
}

#[test]
fn spliced_merge_does_not_allocate() {
    const N: usize = 24;

    let mut arena = MeshArena::with_capacity(2 * N * N);
    // Disjoint coordinate ranges: the measured mesh pushes every one of
    // its vertices (worst case), not just triangles.
    let warm = stamped_grid_mesh(&mut arena, N, 0.0);
    let mut measured = stamped_grid_mesh(&mut arena, N, 1000.0);
    // Constrain a few edges so the shared-frontier marking pass and the
    // stamped/coordinate cross-registration both run inside the window.
    for t in measured.live_triangles().take(16).collect::<Vec<_>>() {
        let (a, b) = measured.edge_vertices(t, 0);
        measured.constrain_edge(a, b);
    }

    let total_v = warm.num_vertices() + measured.num_vertices();
    let mut merger = MeshMerger::with_capacity(arena.len(), total_v + 64);

    // Warm-up sizes the local scratch; the warm mesh is at least as large
    // as the measured one, so the later `resize` stays within capacity.
    merger.add_mesh_spliced(&warm);

    let before = ALLOCS.load(Ordering::Relaxed);
    merger.add_mesh_spliced(&measured);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "spliced merge allocated {} times",
        after - before
    );

    let out = merger.finish();
    assert_eq!(
        out.num_vertices(),
        warm.num_vertices() + measured.num_vertices()
    );
}
