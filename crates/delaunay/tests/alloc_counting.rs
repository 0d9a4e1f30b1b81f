//! Steady-state insertion must not touch the heap.
//!
//! After a warm-up mesh (a divide-and-conquer triangulation) and a
//! `Mesh::reserve` covering the coming growth (which also sizes the
//! epoch-stamped scratch), a loop of interior point insertions must
//! perform zero heap allocations: the cavity BFS, border fan, spoke
//! matching, and the vertex hints all run out of reused storage.
//!
//! This file holds exactly one test so no sibling test thread can allocate
//! inside the measurement window.

use adm_delaunay::divconq::triangulate_dc;
use adm_delaunay::mesh::Mesh;
use adm_geom::point::Point2;
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

/// Deterministic pseudo-random points strictly inside the unit square.
fn halton_points(n: usize, skip: usize) -> Vec<Point2> {
    fn radical_inverse(mut i: usize, base: usize) -> f64 {
        let mut f = 1.0;
        let mut r = 0.0;
        while i > 0 {
            f /= base as f64;
            r += f * (i % base) as f64;
            i /= base;
        }
        r
    }
    (skip..skip + n)
        .map(|i| {
            Point2::new(
                0.05 + 0.9 * radical_inverse(i + 1, 2),
                0.05 + 0.9 * radical_inverse(i + 1, 3),
            )
        })
        .collect()
}

#[test]
fn steady_state_insertions_do_not_allocate() {
    const WARMUP: usize = 600;
    const MEASURED: usize = 400;

    // Bounding square first so every later point is an interior insert.
    let mut pts = vec![
        Point2::new(0.0, 0.0),
        Point2::new(1.0, 0.0),
        Point2::new(1.0, 1.0),
        Point2::new(0.0, 1.0),
    ];
    pts.extend(halton_points(WARMUP, 0));
    let dc = triangulate_dc(&pts, false);
    let tris = dc.triangles();
    let mut mesh = Mesh::from_triangles(dc.points, tris);

    // Pre-generate the measured batch and pre-size every growable array:
    // each interior insert adds one vertex and a net two triangles, plus
    // transient free-list churn — reserve generously.
    let batch = halton_points(MEASURED, WARMUP);
    mesh.reserve(MEASURED, 4 * MEASURED + 64);

    let mut hint = mesh.any_triangle().unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    for &p in &batch {
        let v = mesh.insert_point(p, hint).expect("interior insert");
        hint = mesh.triangle_of_vertex(v).unwrap_or(hint);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state insert loop allocated {} times",
        after - before
    );

    mesh.check_consistency();
    assert_eq!(mesh.num_vertices(), 4 + WARMUP + MEASURED);
}
