//! The exact end of the `incircle` ladder must not touch the heap.
//!
//! The rectangle (0.1, 0.3), (0.7, 0.3), (0.7, 1.9), (0.1, 1.9) is exactly
//! cocircular, but its coordinate differences round, so every filter
//! fails and each call runs stage D, the exact expansion sum. Ten thousand
//! such calls must perform zero heap allocations. With the
//! `predicate-stats` feature the test also checks that every one of them
//! reached stage D.
//!
//! This file holds exactly one test so no sibling test thread can allocate
//! (or bump a predicate counter) inside the measurement window.

use adm_geom::point::Point2;
use adm_geom::predicates::incircle;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
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

#[test]
fn stage_d_on_an_inexact_cocircular_rectangle_does_not_allocate() {
    const CALLS: u64 = 10_000;
    let (a, b, c, d) = (
        Point2::new(0.1, 0.3),
        Point2::new(0.7, 0.3),
        Point2::new(0.7, 1.9),
        Point2::new(0.1, 1.9),
    );
    #[cfg(feature = "predicate-stats")]
    let exact_before = adm_geom::predicates::stats::snapshot().1[3];

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut nonzero = 0u64;
    for _ in 0..CALLS {
        let det = incircle(black_box(a), black_box(b), black_box(c), black_box(d));
        nonzero += u64::from(det != 0.0);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(nonzero, 0, "the rectangle is exactly cocircular");
    assert_eq!(allocs, 0, "{allocs} heap allocations over {CALLS} calls");
    #[cfg(feature = "predicate-stats")]
    assert_eq!(
        adm_geom::predicates::stats::snapshot().1[3] - exact_before,
        CALLS,
        "every call reaches stage D"
    );
}
