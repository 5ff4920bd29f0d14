//! Allocation ceilings for ranking (`Engine::rank`, Equation 1).
//!
//! Scoring a wrapper space segments every candidate's extraction and
//! aligns segment pairs; none of that needs a heap object per token.
//! Allocation counts are exact functions of a seeded input, so unlike
//! time ratios they can be gated tightly on a noisy host. This test
//! installs a counting global allocator with thread-local counters (the
//! harness's other threads cannot perturb them), learns a ranking model
//! from the even DEALERS sites, enumerates the 20 held-out odd sites in
//! XPATH and LR on one thread, and asserts a ceiling on allocations
//! (`alloc` + `realloc` calls) per scored wrapper inside `Engine::rank`.
//!
//! Each site is ranked once untimed first, so lazily built per-document
//! tables are in place and the measurement is the steady state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_core::{Engine, WrapperLanguage};
use aw_pool::Executor;
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

/// Ceiling on allocations per scored wrapper, for every language
/// (measured 2.4 XPATH and 2.0 LR: a candidate's segment ranges and the
/// kernels' two rows; `P(X)` keeps its pair values on the stack).
const MAX_ALLOCS_PER_WRAPPER: f64 = 2.75;

#[test]
fn rank_stays_within_its_allocation_budget() {
    let ds = generate_dealers(&DealersConfig {
        sites: 40,
        seed: 0x5C04E,
        ..DealersConfig::default()
    });
    let annotator = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    let (train, held_out): (Vec<&GeneratedSite>, Vec<&GeneratedSite>) =
        ds.sites.iter().partition(|site| site.id % 2 == 0);
    assert_eq!(held_out.len(), 20);
    let model = aw_eval::learn_model(&train, |site| annotator.annotate(&site.site));

    for language in [WrapperLanguage::XPath, WrapperLanguage::Lr] {
        let engine = Engine::builder(model.clone())
            .language(language)
            .annotator(annotator.clone())
            .executor(Executor::new(1))
            .build();
        let (mut scored, mut spent) = (0usize, 0u64);
        for gs in &held_out {
            let Ok(labels) = engine.annotate(&gs.site) else {
                continue;
            };
            let Ok(warm) = engine.enumerate(&gs.site, &labels) else {
                continue;
            };
            drop(engine.rank(warm).expect("rank"));
            let space = engine
                .enumerate(&gs.site, &labels)
                .expect("enumerated once");
            scored += space.len();
            let before = allocs();
            let ranked = engine.rank(space).expect("rank");
            spent += allocs() - before;
            drop(ranked);
        }
        assert!(scored > 100, "{language:?}: only {scored} wrappers scored");
        let per_wrapper = spent as f64 / scored as f64;
        println!(
            "{language:?}: {per_wrapper:.1} allocations per scored wrapper ({scored} wrappers)"
        );
        assert!(
            per_wrapper <= MAX_ALLOCS_PER_WRAPPER,
            "{language:?}: {per_wrapper:.1} allocations per scored wrapper \
             (ceiling {MAX_ALLOCS_PER_WRAPPER})"
        );
    }
}
