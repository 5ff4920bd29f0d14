//! Allocation ceilings for wrapper-space enumeration (`aw_enum::top_down`,
//! §4.2's Algorithm 2).
//!
//! TopDown partitions the label set once per attribute and keeps its subset
//! family as bitsets in one flat vector; what remains per wrapper is φ
//! itself (learning the rule and building its extraction) and the seed and
//! rule the space keeps. Allocation counts are exact functions of a seeded
//! input, so unlike time ratios they can be gated tightly on a noisy host.
//! This test installs a counting global allocator with thread-local
//! counters (the harness's other threads cannot perturb them) and asserts
//! ceilings on allocations (`alloc` + `realloc` calls) and on bytes
//! allocated per enumerated wrapper on the 20 held-out DEALERS sites, in
//! XPATH and LR. The counts include building each site's inductor, as
//! every learn job does: an inductor that precomputed features for the
//! whole site would pay for them here, in allocations or, where they are
//! packed into a few buffers, in bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_enum::top_down;
use aw_induct::{FeatureBased, LrInductor, NodeSet, XPathInductor};
use aw_sitegen::{generate_dealers, DealersConfig, GeneratedSite};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` on this thread.
fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes allocated on this thread so far.
fn allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Ceiling on allocations per enumerated XPATH wrapper (measured 81.1;
/// 449.9 when the inductor built every text node's feature map and a
/// site-wide posting index up front).
const MAX_ALLOCS_PER_XPATH_WRAPPER: f64 = 87.0;
/// Ceiling on bytes allocated per enumerated XPATH wrapper (measured
/// 8 882; 23 170 when the inductor computed every text node's features up
/// front in its present representation, which adds few allocations).
const MAX_BYTES_PER_XPATH_WRAPPER: f64 = 10_000.0;
/// Ceiling on allocations per enumerated LR wrapper (measured 93.3; 102.8
/// when φ learned each rule twice, once for the extraction and once for
/// the rule; the textbook loop over owned `String` contexts made 1 009).
const MAX_ALLOCS_PER_LR_WRAPPER: f64 = 100.0;
/// Ceiling on bytes allocated per enumerated LR wrapper (measured 13 918).
const MAX_BYTES_PER_LR_WRAPPER: f64 = 15_000.0;

/// Allocations and bytes allocated per wrapper that building each site's
/// inductor and running `top_down` make on `sites`; also the wrapper count.
fn per_wrapper<'s, I>(
    sites: &'s [(&GeneratedSite, NodeSet)],
    inductor: fn(&'s GeneratedSite) -> I,
) -> (f64, f64, usize)
where
    I: FeatureBased<Item = aw_dom::PageNode> + 's,
{
    let (mut wrappers, mut spent, mut bytes) = (0usize, 0u64, 0u64);
    for (gs, labels) in sites {
        let before = allocs();
        let space = top_down(&inductor(gs), labels);
        let after = allocs();
        spent += after.0 - before.0;
        bytes += after.1 - before.1;
        wrappers += space.len();
    }
    let n = wrappers as f64;
    (spent as f64 / n, bytes as f64 / n, wrappers)
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

    for (language, (per_wrapper, bytes, wrappers), (ceiling, byte_ceiling)) in [
        (
            "XPATH",
            per_wrapper(&held_out, |gs| XPathInductor::new(&gs.site)),
            (MAX_ALLOCS_PER_XPATH_WRAPPER, MAX_BYTES_PER_XPATH_WRAPPER),
        ),
        (
            "LR",
            per_wrapper(&held_out, |gs| LrInductor::new(&gs.site)),
            (MAX_ALLOCS_PER_LR_WRAPPER, MAX_BYTES_PER_LR_WRAPPER),
        ),
    ] {
        assert!(
            wrappers > 100,
            "{language}: only {wrappers} wrappers enumerated"
        );
        println!(
            "{language}: {per_wrapper:.1} allocations, {bytes:.0} bytes per enumerated wrapper ({wrappers} wrappers)"
        );
        assert!(
            per_wrapper <= ceiling,
            "{language}: {per_wrapper:.1} allocations per enumerated wrapper (ceiling {ceiling})"
        );
        assert!(
            bytes <= byte_ceiling,
            "{language}: {bytes:.0} bytes per enumerated wrapper (ceiling {byte_ceiling})"
        );
    }
}
