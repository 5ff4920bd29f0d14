//! Allocation ceiling for health accounting on the serving path
//! (`HealthTracker::observe`).
//!
//! Every healthy request page is retained in a bounded per-site ring for
//! relearning. Once the ring is full, the newest page reuses the evicted
//! page's buffer, so observing a steady stream of same-size pages must not
//! allocate at all. The counting global allocator keeps thread-local
//! counters, so the harness's other threads cannot perturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aw_core::{HealthThresholds, HealthTracker, PageObservation};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while thread-locals are
        // torn down at thread exit.
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `count` healthy pages of one size, each with different content.
fn pages(first: usize, count: usize) -> Vec<PageObservation> {
    (first..first + count)
        .map(|i| PageObservation {
            html: format!("<ul><li>dealer {i:06}</li></ul>"),
            values: 3,
            chars: 15,
            error: None,
        })
        .collect()
}

#[test]
fn a_full_ring_observes_same_size_pages_without_allocating() {
    let tracker = HealthTracker::new(HealthThresholds::default());
    let t = tracker.thresholds().clone();
    // Fill the ring, the window and the shape baseline first.
    let warm = 4 * t.window.max(t.retain_pages).max(t.baseline_pages);
    for i in 0..warm {
        tracker.observe("site", &pages(i, 1), Some((i as u64, 0)));
    }
    assert_eq!(tracker.retained_pages("site").len(), t.retain_pages);

    // Requests of 1, 3 and 40 pages: below, near and above the ring size.
    let requests: Vec<Vec<PageObservation>> = [1, 3, 40, 1, 16, 17]
        .iter()
        .scan(warm, |next, &size| {
            *next += size;
            Some(pages(*next - size, size))
        })
        .collect();
    let before = allocs();
    for (i, request) in requests.iter().enumerate() {
        let degraded = tracker.observe("site", request, Some(((warm + i) as u64, 0)));
        assert!(!degraded);
    }
    let spent = allocs() - before;
    let last = requests.last().expect("requests");
    assert_eq!(
        tracker.retained_pages("site").last().map(|(html, _)| html),
        last.last().map(|p| &p.html),
        "the newest page is retained"
    );
    assert_eq!(
        spent,
        0,
        "{spent} allocations observing {} pages into a full ring",
        requests.iter().map(Vec::len).sum::<usize>()
    );
}
