//! Allocation ceilings for both parse→index paths: the streaming
//! `parse_indexed` of the serving request path, and classic `parse`
//! followed by the lazy `Document::index` (the `with_stream_parse(false)`
//! serving path, and every learn-side site).
//!
//! Allocation counts and retained bytes are exact functions of a seeded
//! input, so unlike time ratios they can be gated tightly on a noisy
//! host. This test installs its own counting global allocator with
//! thread-local counters (the harness's other threads cannot perturb
//! them), parses the seeded DEALERS corpora — full-roster pages (one
//! record count per site) and variable-length pages (2–8 records) —
//! and asserts per-page ceilings on:
//!
//! * allocations (`alloc` + `realloc` calls);
//! * bytes still allocated once the documents are built, as a multiple
//!   of the input bytes;
//! * whether dropping the documents returns every byte they allocated.
//!
//! The index builder keeps per-thread scratch tables between pages (and
//! so does the streaming parser), so each corpus is parsed once to warm
//! them before the measured pass: the measurement is the steady state of
//! a serving thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aw_sitegen::{generate_dealers, DealersConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn record(allocs: u64, bytes: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counters() -> (u64, i64) {
    (ALLOCS.with(Cell::get), LIVE.with(Cell::get))
}

/// Ceiling on allocations per page.
const MAX_ALLOCS_PER_PAGE: f64 = 20.0;
/// Ceiling on bytes a built document keeps, per input byte.
const MAX_RETAINED_PER_INPUT_BYTE: f64 = 5.0;
/// Ceiling on allocations per page of `parse` then `index()`. Measured
/// at 62.4 (full-roster) and 56.5 (variable-length): the classic parser
/// grows its tables as it goes, and the index adds its six exact-size
/// tables, built from per-thread scratch.
const MAX_CLASSIC_ALLOCS_PER_PAGE: f64 = 70.0;

/// 24 sites × 12 pages of one DEALERS configuration, serialized.
fn pages(records_per_page: (usize, usize), seed: u64) -> Vec<String> {
    let ds = generate_dealers(&DealersConfig {
        sites: 24,
        pages_per_site: 12,
        records_per_page,
        promo_prob: 0.0,
        uniform_records: true,
        seed,
        ..DealersConfig::default()
    });
    ds.sites
        .iter()
        .flat_map(|gs| gs.site.pages().iter().map(aw_dom::serialize))
        .collect()
}

struct Budget {
    allocs_per_page: f64,
    retained_per_input_byte: f64,
    leaked_bytes: i64,
}

/// Parses every page with `parse` (after one warm-up pass) and
/// measures the pass.
fn measure<D>(pages: &[String], parse: impl Fn(&str) -> D) -> Budget {
    drop(pages.iter().map(|p| parse(p)).collect::<Vec<_>>());
    let mut docs = Vec::with_capacity(pages.len());
    let (allocs0, live0) = counters();
    for page in pages {
        docs.push(parse(page));
    }
    let (allocs1, live1) = counters();
    // The holding vector was sized up front, so everything that arrived
    // is document memory.
    drop(docs);
    let (_, live2) = counters();
    let input: usize = pages.iter().map(String::len).sum();
    Budget {
        allocs_per_page: (allocs1 - allocs0) as f64 / pages.len() as f64,
        retained_per_input_byte: (live1 - live0) as f64 / input as f64,
        leaked_bytes: live2 - live0 + (pages.len() * std::mem::size_of::<D>()) as i64,
    }
}

#[test]
fn parse_indexed_stays_within_its_allocation_budget() {
    for (corpus, records, seed) in [
        ("full-roster", (6, 6), 0x7E41),
        ("variable-length", (2, 8), 0x7A2C),
    ] {
        let pages = pages(records, seed);
        assert_eq!(pages.len(), 288);
        let b = measure(&pages, aw_dom::parse_indexed);
        println!(
            "{corpus}: {:.1} allocations/page, retained {:.2}x input, {} bytes not returned",
            b.allocs_per_page, b.retained_per_input_byte, b.leaked_bytes
        );
        assert!(
            b.allocs_per_page <= MAX_ALLOCS_PER_PAGE,
            "{corpus}: {:.1} allocations per page (ceiling {MAX_ALLOCS_PER_PAGE})",
            b.allocs_per_page
        );
        assert!(
            b.retained_per_input_byte <= MAX_RETAINED_PER_INPUT_BYTE,
            "{corpus}: documents retain {:.2}x their input (ceiling {MAX_RETAINED_PER_INPUT_BYTE}x)",
            b.retained_per_input_byte
        );
        assert_eq!(
            b.leaked_bytes, 0,
            "{corpus}: dropping the documents must return every byte they allocated"
        );
    }
}

/// Classic `parse`, then the index built over the finished rows.
fn parse_then_index(html: &str) -> aw_dom::Document {
    let doc = aw_dom::parse(html);
    doc.index();
    doc
}

#[test]
fn parse_then_index_stays_within_its_allocation_budget() {
    for (corpus, records, seed) in [
        ("full-roster", (6, 6), 0x7E41),
        ("variable-length", (2, 8), 0x7A2C),
    ] {
        let pages = pages(records, seed);
        let b = measure(&pages, parse_then_index);
        println!(
            "{corpus}: parse then index: {:.1} allocations/page, retained {:.2}x input, \
             {} bytes not returned",
            b.allocs_per_page, b.retained_per_input_byte, b.leaked_bytes
        );
        assert!(
            b.allocs_per_page <= MAX_CLASSIC_ALLOCS_PER_PAGE,
            "{corpus}: {:.1} allocations per page (ceiling {MAX_CLASSIC_ALLOCS_PER_PAGE})",
            b.allocs_per_page
        );
        assert_eq!(
            b.leaked_bytes, 0,
            "{corpus}: dropping the documents must return every byte they allocated"
        );
    }
}
