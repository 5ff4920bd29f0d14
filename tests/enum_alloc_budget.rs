//! Allocation ceilings for wrapper-space enumeration (`aw_enum::top_down`,
//! §4.2's Algorithm 2).
//!
//! TopDown partitions the label set once per attribute and keeps its subset
//! family as bitsets in one flat vector; what remains per wrapper is φ
//! itself (learning the rule and building its extraction) and the seed and
//! rule the space keeps. Allocation counts are exact functions of a seeded
//! input, so unlike time ratios they can be gated tightly on a noisy host.
//! This test installs a counting global allocator with thread-local
//! counters (the harness's other threads cannot perturb them), builds the
//! inductor of each of the 20 held-out DEALERS sites beforehand, and
//! asserts a ceiling on allocations (`alloc` + `realloc` calls) per
//! enumerated wrapper inside `top_down`, in XPATH and LR.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_enum::top_down;
use aw_induct::{FeatureBased, LrInductor, NodeSet, XPathInductor};
use aw_sitegen::{generate_dealers, DealersConfig, GeneratedSite};

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

/// Ceiling on allocations per enumerated XPATH wrapper (measured 88.8;
/// the textbook loop's per-member subdivisions made 103.9).
const MAX_ALLOCS_PER_XPATH_WRAPPER: f64 = 95.0;
/// Ceiling on allocations per enumerated LR wrapper (measured 102.8; the
/// textbook loop over owned `String` contexts made 1 009).
const MAX_ALLOCS_PER_LR_WRAPPER: f64 = 110.0;

/// Allocations per wrapper that `top_down` makes on `sites`, with each
/// site's inductor built before counting starts; also the wrapper count.
fn per_wrapper<'s, I>(
    sites: &'s [(&GeneratedSite, NodeSet)],
    inductor: fn(&'s GeneratedSite) -> I,
) -> (f64, usize)
where
    I: FeatureBased<Item = aw_dom::PageNode> + 's,
{
    let (mut wrappers, mut spent) = (0usize, 0u64);
    for (gs, labels) in sites {
        let inductor = inductor(gs);
        let before = allocs();
        let space = top_down(&inductor, labels);
        spent += allocs() - before;
        wrappers += space.len();
    }
    (spent as f64 / wrappers as f64, wrappers)
}

#[test]
fn top_down_stays_within_its_allocation_budget() {
    let ds = generate_dealers(&DealersConfig {
        sites: 40,
        seed: 0x5C04E,
        ..DealersConfig::default()
    });
    let annotator = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    let held_out: Vec<(&GeneratedSite, NodeSet)> = ds
        .sites
        .iter()
        .filter(|site| site.id % 2 == 1)
        .map(|site| (site, annotator.annotate(&site.site)))
        .collect();
    assert_eq!(held_out.len(), 20);

    for (language, (per_wrapper, wrappers), ceiling) in [
        (
            "XPATH",
            per_wrapper(&held_out, |gs| XPathInductor::new(&gs.site)),
            MAX_ALLOCS_PER_XPATH_WRAPPER,
        ),
        (
            "LR",
            per_wrapper(&held_out, |gs| LrInductor::new(&gs.site)),
            MAX_ALLOCS_PER_LR_WRAPPER,
        ),
    ] {
        assert!(
            wrappers > 100,
            "{language}: only {wrappers} wrappers enumerated"
        );
        println!(
            "{language}: {per_wrapper:.1} allocations per enumerated wrapper ({wrappers} wrappers)"
        );
        assert!(
            per_wrapper <= ceiling,
            "{language}: {per_wrapper:.1} allocations per enumerated wrapper (ceiling {ceiling})"
        );
    }
}
