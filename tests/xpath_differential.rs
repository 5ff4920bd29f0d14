//! Differential testing of the xpath engines.
//!
//! The compiled engines (`aw_xpath::indexed`, `aw_xpath::BatchEvaluator`)
//! must return **byte-identical node sets** to the reference interpreter
//! (`aw_xpath::reference`) on every (page, xpath) pair. This suite drives
//! all three over:
//!
//! * ≥ 1000 random pairs — sitegen pages (DEALERS and DISC shapes) ×
//!   random xpaths drawn from the fragment grammar;
//! * fuzz-shaped documents (markup soup) × the same grammar;
//! * learned rules: every wrapper enumerated from noisy labels on a
//!   dealer site, replayed through single and batch evaluation;
//! * whole random candidate sets through one predicate-aware batch trie,
//!   and one batch evaluator per site driven page-parallel across thread
//!   counts.

use aw_dom::{Document, NodeId};
use aw_eval::Executor;
use aw_sitegen::{generate_dealers, generate_disc, DealersConfig, DealersDataset, DiscConfig};
use aw_xpath::{
    reference, Axis, BatchEvaluator, CompiledXPath, NodeTest, Predicate, ReplayStats, Step, XPath,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Tags that occur in generated sites, plus misses and junk.
const TAGS: &[&str] = &[
    "div",
    "table",
    "tr",
    "td",
    "u",
    "b",
    "ul",
    "ol",
    "li",
    "span",
    "h1",
    "h2",
    "p",
    "a",
    "br",
    "em",
    "nonexistent",
    "q7z",
];
const ATTR_NAMES: &[&str] = &["class", "id", "href", "colspan"];
const ATTR_VALUES: &[&str] = &[
    "dealerlinks",
    "list",
    "content",
    "footer",
    "sidebar",
    "stores",
    "row",
    "x",
    "missing",
];

/// A random xpath of the fragment: 1–5 steps, each with optional
/// position/attribute predicates, optionally ending in `text()`.
fn random_xpath(rng: &mut StdRng) -> XPath {
    let n_steps = rng.gen_range(1..=5usize);
    let mut steps = Vec::with_capacity(n_steps);
    for i in 0..n_steps {
        let last = i + 1 == n_steps;
        let test = if last && rng.gen_bool(0.4) {
            NodeTest::Text
        } else if rng.gen_bool(0.1) {
            NodeTest::AnyElement
        } else {
            NodeTest::Tag(TAGS.choose(rng).unwrap().to_string())
        };
        let mut predicates = Vec::new();
        if rng.gen_bool(0.3) {
            predicates.push(Predicate::Position(rng.gen_range(1..=3usize)));
        }
        if !matches!(test, NodeTest::Text) && rng.gen_bool(0.25) {
            predicates.push(Predicate::Attr {
                name: ATTR_NAMES.choose(rng).unwrap().to_string(),
                value: ATTR_VALUES.choose(rng).unwrap().to_string(),
            });
        }
        steps.push(Step {
            // Descendant-heavy: absolute child paths from the root rarely
            // reach into a real page, and misses exercise less code.
            axis: if i == 0 || rng.gen_bool(0.6) {
                Axis::Descendant
            } else {
                Axis::Child
            },
            test,
            predicates,
        });
    }
    XPath::new(steps)
}

/// Asserts all three engines agree on one (doc, path) pair.
#[track_caller]
fn assert_engines_agree(doc: &Document, path: &XPath) {
    let expected = reference::evaluate(path, doc);
    let compiled = CompiledXPath::compile(path);
    let indexed = aw_xpath::evaluate_compiled(&compiled, doc);
    assert_eq!(indexed, expected, "indexed engine differs for {path}");
    let batch = BatchEvaluator::new(&[compiled]);
    let batched = batch.evaluate(doc).remove(0);
    assert_eq!(batched, expected, "batch engine differs for {path}");
}

/// Per-page node lists: `results[i][j]` is path `j` of page `i`'s site.
type PageResults = Vec<Vec<Vec<NodeId>>>;

/// Each site's candidate xpaths, enumerated from dictionary labels.
fn enumerated_site_paths(ds: &DealersDataset) -> Vec<Vec<XPath>> {
    use aw_annotate::{DictionaryAnnotator, MatchMode};
    use aw_induct::{NodeSet, XPathInductor};

    let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    ds.sites
        .iter()
        .map(|gs| {
            let labels: NodeSet = annot.annotate(&gs.site);
            assert!(!labels.is_empty(), "annotator found nothing");
            aw_enum::top_down(&XPathInductor::new(&gs.site), &labels)
                .xpath_candidates()
                .into_iter()
                .map(|(_, xp)| xp)
                .collect()
        })
        .collect()
}

/// Every page of the corpus, tagged with its site index.
fn site_pages(ds: &DealersDataset) -> Vec<(usize, &Document)> {
    ds.sites
        .iter()
        .enumerate()
        .flat_map(|(s, gs)| gs.site.pages().iter().map(move |page| (s, page)))
        .collect()
}

/// One `BatchEvaluator` per site, the multi-site batch engine.
fn site_batches(site_paths: &[Vec<XPath>], cache: bool) -> Vec<BatchEvaluator> {
    site_paths
        .iter()
        .map(|paths| BatchEvaluator::from_xpaths(paths).with_cache(cache))
        .collect()
}

/// Evaluates every `(site, page)` pair through its own site's evaluator,
/// page-parallel.
fn evaluate_pages(
    batches: &[BatchEvaluator],
    pages: &[(usize, &Document)],
    exec: &Executor,
) -> PageResults {
    exec.map(pages, |&(s, doc)| batches[s].evaluate(doc))
}

/// Asserts every page's node lists equal the reference interpreter's.
#[track_caller]
fn assert_matches_reference(
    site_paths: &[Vec<XPath>],
    pages: &[(usize, &Document)],
    results: &PageResults,
    ctx: &str,
) {
    assert_eq!(results.len(), pages.len(), "{ctx}");
    for (p, (&(s, page), page_results)) in pages.iter().zip(results).enumerate() {
        assert_eq!(page_results.len(), site_paths[s].len(), "{ctx}, page {p}");
        for (path, nodes) in site_paths[s].iter().zip(page_results) {
            assert_eq!(
                nodes,
                &reference::evaluate(path, page),
                "{ctx}, page {p}: {path}"
            );
        }
    }
}

/// Asserts `results` equal the first thread count's.
#[track_caller]
fn assert_same_as_first(first: &mut Option<PageResults>, results: PageResults, threads: usize) {
    match first {
        None => *first = Some(results),
        Some(expected) => assert_eq!(&results, expected, "threads {threads}"),
    }
}

/// Template-cache statistics summed across per-site evaluators.
fn replay_stats(batches: &[BatchEvaluator]) -> ReplayStats {
    let mut total = ReplayStats::default();
    for batch in batches {
        total += batch
            .template_cache()
            .expect("cache enabled")
            .replay_stats();
    }
    total
}

/// Replayed pages summed across per-site evaluators.
fn cache_hits(batches: &[BatchEvaluator]) -> u64 {
    batches
        .iter()
        .map(|batch| batch.template_cache().expect("cache enabled").stats().0)
        .sum()
}

#[test]
fn engines_agree_on_1000_random_site_page_pairs() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut pages: Vec<Document> = Vec::new();
    for seed in 0..6 {
        let ds = generate_dealers(&DealersConfig {
            sites: 2,
            pages_per_site: 2,
            seed: 100 + seed,
            ..DealersConfig::default()
        });
        for gs in &ds.sites {
            for p in 0..gs.site.page_count() as u32 {
                pages.push(gs.site.page(p).clone());
            }
        }
        let disc = generate_disc(&DiscConfig {
            sites: 1,
            albums_per_site: (2, 3),
            seed: 300 + seed,
            ..DiscConfig::default()
        });
        for p in 0..disc.sites[0].site.page_count() as u32 {
            pages.push(disc.sites[0].site.page(p).clone());
        }
    }
    assert!(pages.len() >= 20, "corpus too small: {}", pages.len());

    let mut checked = 0usize;
    let mut nonempty = 0usize;
    while checked < 1200 {
        let doc = pages.choose(&mut rng).unwrap();
        let path = random_xpath(&mut rng);
        if !reference::evaluate(&path, doc).is_empty() {
            nonempty += 1;
        }
        assert_engines_agree(doc, &path);
        checked += 1;
    }
    // The grammar must actually exercise matching paths, not just misses.
    assert!(
        nonempty > 100,
        "only {nonempty} of {checked} pairs matched anything"
    );
}

#[test]
fn engines_agree_on_markup_soup() {
    let mut rng = StdRng::seed_from_u64(0x50FA);
    let fragments = [
        "<div>",
        "</div>",
        "<td class='x'>",
        "text",
        "<u>",
        "</u>",
        "<br>",
        "<tr>",
        "</tr>",
        "more words",
        "<table>",
        "</table>",
        "<li>",
        "&amp;",
        "<p",
        "'",
        ">",
    ];
    for _ in 0..300 {
        let n = rng.gen_range(0..30usize);
        let soup: String = (0..n)
            .map(|_| *fragments.choose(&mut rng).unwrap())
            .collect::<Vec<_>>()
            .concat();
        let doc = aw_dom::parse(&soup);
        for _ in 0..4 {
            assert_engines_agree(&doc, &random_xpath(&mut rng));
        }
    }
}

#[test]
fn engines_agree_on_every_enumerated_wrapper() {
    use aw_annotate::{DictionaryAnnotator, MatchMode};
    use aw_enum::top_down;
    use aw_induct::{NodeSet, XPathInductor};

    let ds = generate_dealers(&DealersConfig {
        sites: 2,
        pages_per_site: 3,
        seed: 0xBA7C,
        ..DealersConfig::default()
    });
    let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    for gs in &ds.sites {
        let labels: NodeSet = annot.annotate(&gs.site);
        if labels.is_empty() {
            continue;
        }
        let ind = XPathInductor::new(&gs.site);
        let space = top_down(&ind, &labels);
        let candidates = space.xpath_candidates();
        assert!(!candidates.is_empty());

        // Batch evaluation of the whole space, page by page, must equal
        // per-wrapper reference evaluation.
        let paths: Vec<XPath> = candidates.iter().map(|(_, xp)| xp.clone()).collect();
        let batch = BatchEvaluator::from_xpaths(paths.iter());
        for p in 0..gs.site.page_count() as u32 {
            let doc = gs.site.page(p);
            let results = batch.evaluate(doc);
            for (path, got) in paths.iter().zip(&results) {
                assert_eq!(
                    got,
                    &reference::evaluate(path, doc),
                    "wrapper {path} on page {p}"
                );
            }
        }
    }
}

#[test]
fn whole_random_sets_agree_through_one_batch_trie() {
    // `assert_engines_agree` exercises single-path tries only; this
    // drives whole random candidate sets through ONE evaluator, so
    // predicate-aware merging (steps differing only in `[k]`/attribute
    // predicates sharing a bare traversal) is hit hard.
    let mut rng = StdRng::seed_from_u64(0x3AEE);
    let ds = generate_dealers(&DealersConfig {
        sites: 2,
        pages_per_site: 2,
        seed: 0x9e1,
        ..DealersConfig::default()
    });
    let mut pages: Vec<Document> = Vec::new();
    for gs in &ds.sites {
        for p in 0..gs.site.page_count() as u32 {
            pages.push(gs.site.page(p).clone());
        }
    }
    for round in 0..8 {
        let paths: Vec<XPath> = (0..150).map(|_| random_xpath(&mut rng)).collect();
        let batch = BatchEvaluator::from_xpaths(paths.iter());
        assert!(
            batch.distinct_steps() <= batch.distinct_variants(),
            "round {round}: merging can only reduce traversals"
        );
        for doc in &pages {
            for (path, got) in paths.iter().zip(batch.evaluate(doc)) {
                assert_eq!(got, reference::evaluate(path, doc), "round {round}: {path}");
            }
        }
    }
}

#[test]
fn sharded_parallel_evaluation_is_byte_identical_across_thread_counts() {
    let ds = generate_dealers(&DealersConfig {
        sites: 4,
        pages_per_site: 3,
        seed: 0x51AD,
        ..DealersConfig::default()
    });
    let site_paths = enumerated_site_paths(&ds);
    let pages = site_pages(&ds);
    let batches = site_batches(&site_paths, true);
    assert_eq!(batches.len(), ds.sites.len());
    for (batch, paths) in batches.iter().zip(&site_paths) {
        assert_eq!(batch.len(), paths.len());
    }

    let mut first: Option<PageResults> = None;
    for threads in [1, 2, 3, 8] {
        let results = evaluate_pages(&batches, &pages, &Executor::new(threads));
        // Byte-identical to the reference interpreter per (rule, page)...
        assert_matches_reference(&site_paths, &pages, &results, &format!("threads {threads}"));
        // ...and across thread counts.
        assert_same_as_first(&mut first, results, threads);
    }
}

#[test]
fn template_cache_is_byte_identical_across_engines_and_thread_counts() {
    // A repeated-template corpus: fixed records per page, all optional
    // fields present — every page of a site shares one structural
    // fingerprint, so per-site evaluation replays recorded traces.
    let ds = generate_dealers(&DealersConfig {
        sites: 4,
        pages_per_site: 4,
        records_per_page: (5, 5),
        promo_prob: 0.0,
        uniform_records: true,
        seed: 0x7E41,
        ..DealersConfig::default()
    });
    let site_paths = enumerated_site_paths(&ds);
    let pages = site_pages(&ds);
    let cached = site_batches(&site_paths, true);
    let uncached = site_batches(&site_paths, false);

    let mut first: Option<PageResults> = None;
    for threads in [1, 2, 8] {
        let exec = Executor::new(threads);
        let on = evaluate_pages(&cached, &pages, &exec);
        let off = evaluate_pages(&uncached, &pages, &exec);
        assert_eq!(on, off, "cache-on != cache-off at {threads} threads");
        // Byte-identical to the reference interpreter per (rule, page)...
        assert_matches_reference(&site_paths, &pages, &on, &format!("threads {threads}"));
        // ...and across thread counts.
        assert_same_as_first(&mut first, on, threads);
    }
    assert!(
        cache_hits(&cached) > 0,
        "the template corpus must actually replay"
    );
}

#[test]
fn template_replay_agrees_on_random_spaces_over_skeleton_siblings() {
    // Random candidate sets over pairs of same-skeleton documents whose
    // text AND attribute values differ: the replay page re-validates
    // every attribute selection (values diverge, so the trusted path
    // must fall back mid-trie) while sharing bare traversals.
    let mut rng = StdRng::seed_from_u64(0x7E9A);
    let render = |salt: u64| -> String {
        // One fixed skeleton, two fillings.
        let v = |i: u64| format!("v{}", (salt.wrapping_mul(31).wrapping_add(i)) % 3);
        format!(
            "<div class='{}'><table class='{}'>\
               <tr><td><u>name {salt} a</u><br>street {salt}</td><td>z{salt}</td></tr>\
               <tr><td><u>name {salt} b</u><br>road {salt}</td><td>y{salt}</td></tr>\
             </table></div><div class='{}'><p>tail {salt}</p></div>",
            v(0),
            v(1),
            v(2),
        )
    };
    for round in 0..30 {
        let a = aw_dom::parse(&render(round));
        let b = aw_dom::parse(&render(round + 1000));
        assert_eq!(
            a.index().template_fingerprint(),
            b.index().template_fingerprint(),
            "skeleton siblings must share a fingerprint"
        );
        let mut paths: Vec<XPath> = (0..40).map(|_| random_xpath(&mut rng)).collect();
        // Attribute predicates over the varying values, to force both
        // agreeing and diverging re-validations.
        for val in ["v0", "v1", "v2"] {
            paths.push(aw_xpath::parse_xpath(&format!("//div[@class='{val}']//text()")).unwrap());
            paths.push(
                aw_xpath::parse_xpath(&format!("//div[@class='{val}']/table/tr/td/u/text()"))
                    .unwrap(),
            );
        }
        let batch = BatchEvaluator::from_xpaths(paths.iter());
        // a bypasses, a again records, then b (and a) replay.
        for doc in [&a, &a, &b, &a, &b] {
            for (path, got) in paths.iter().zip(batch.evaluate(doc)) {
                assert_eq!(got, reference::evaluate(path, doc), "round {round}: {path}");
            }
        }
        let (hits, _) = batch.template_cache().unwrap().stats();
        assert_eq!(hits, 3, "round {round}: replays expected");
    }
}

#[test]
fn record_replay_is_byte_identical_on_variable_length_learned_corpora() {
    // A variable-length corpus: record counts differ per page and each
    // record independently drops its optional phone field, so whole-page
    // fingerprints rarely repeat within a site. Replay can only come
    // from frame/record stitching — and dropout means replay pages carry
    // record variants unseen at record time, exercising the per-record
    // fresh-fallback path under every thread count.
    let ds = generate_dealers(&DealersConfig {
        sites: 3,
        pages_per_site: 5,
        records_per_page: (2, 8),
        promo_prob: 0.0,
        seed: 0xFA7B,
        ..DealersConfig::default()
    });
    let site_paths = enumerated_site_paths(&ds);
    let pages = site_pages(&ds);
    // The corpus must actually be variable-length per site, or this test
    // degenerates into the fixed-roster one above.
    for gs in &ds.sites {
        let mut counts: Vec<u64> = gs
            .site
            .pages()
            .iter()
            .map(|p| {
                p.index()
                    .record_layout()
                    .expect("listing run")
                    .records
                    .len() as u64
            })
            .collect();
        counts.dedup();
        assert!(counts.len() > 1, "record counts must vary within a site");
    }

    let cached = site_batches(&site_paths, true);
    let uncached = site_batches(&site_paths, false);
    let mut first: Option<PageResults> = None;
    for threads in [1, 2, 8] {
        let exec = Executor::new(threads);
        let on = evaluate_pages(&cached, &pages, &exec);
        let off = evaluate_pages(&uncached, &pages, &exec);
        assert_eq!(on, off, "cache-on != cache-off at {threads} threads");
        assert_matches_reference(&site_paths, &pages, &on, &format!("threads {threads}"));
        assert_same_as_first(&mut first, on, threads);
    }
    let replay = replay_stats(&cached);
    assert!(replay.frame_replays > 0, "no frame stitched: {replay:?}");
    assert!(replay.record_replays > 0, "no record replayed: {replay:?}");
    assert!(
        replay.record_fallbacks > 0,
        "dropout corpus must hit the fresh-fallback path: {replay:?}"
    );
}

#[test]
fn record_replay_survives_dropout_and_markup_drift() {
    // Hand-built variable-length listings driven through ONE cached trie
    // in a fixed order, so every partial-replay transition is pinned:
    // per-record optional-field dropout (a phone cell that comes and
    // goes) and mid-page markup drift (one record swaps <u> for <em>)
    // must fall back to fresh evaluation for exactly those records while
    // the rest of the page stitches from recorded traces.
    let page = |records: &[(&str, bool, bool)]| -> Document {
        let rows: String = records
            .iter()
            .enumerate()
            .map(|(i, (name, phone, drift))| {
                let label = if *drift {
                    format!("<em>{name}</em>")
                } else {
                    format!("<u>{name}</u>")
                };
                let tel = if *phone {
                    format!("<td>555-01{i:02}</td>")
                } else {
                    String::new()
                };
                format!("<tr><td>{label}<br>{i} Elm St</td>{tel}</tr>")
            })
            .collect();
        aw_dom::parse(&format!(
            "<div class='nav'><h1>Dealers</h1></div>\
             <table class='dealerlinks'>{rows}</table>\
             <div class='footer'><p>contact</p></div>"
        ))
    };
    let mut rng = StdRng::seed_from_u64(0xD207);
    let mut paths: Vec<XPath> = (0..30).map(|_| random_xpath(&mut rng)).collect();
    for targeted in [
        "//table[@class='dealerlinks']/tr/td/u/text()",
        "//tr/td[1]/text()",
        "//tr/td[2]/text()",
        "//tr[2]/td/u/text()",
        "//td/em/text()",
        "//div[@class='footer']/p/text()",
    ] {
        paths.push(aw_xpath::parse_xpath(targeted).unwrap());
    }
    let cached = BatchEvaluator::from_xpaths(paths.iter());
    let uncached = BatchEvaluator::from_xpaths(paths.iter()).with_cache(false);

    let full = |n: &'static str| (n, true, false);
    let bare = |n: &'static str| (n, false, false);
    let pages = [
        // bypass, then record: both full-roster, different counts.
        page(&[full("A"), full("B"), full("C")]),
        page(&[full("D"), full("E"), full("F"), full("G")]),
        // dropout: two phone-less records, unseen at record time — both
        // fall back fresh (the first donates its trace for later pages).
        page(&[full("H"), bare("I"), full("J"), full("K"), bare("L")]),
        // the donated phone-less trace now replays alongside the full one.
        page(&[bare("M"), full("N"), full("O"), bare("P")]),
        // markup drift: one record swaps <u> for <em> mid-page; its
        // neighbours still replay, it alone re-evaluates.
        page(&[full("Q"), ("R", true, true), full("S")]),
    ];
    for doc in &pages {
        let on = cached.evaluate(doc);
        let off = uncached.evaluate(doc);
        for ((path, got), also) in paths.iter().zip(on).zip(off) {
            let expected = reference::evaluate(path, doc);
            assert_eq!(got, expected, "cache-on differs for {path}");
            assert_eq!(also, expected, "cache-off differs for {path}");
        }
    }
    let replay = cached.template_cache().unwrap().replay_stats();
    assert_eq!(replay.full_replays, 0, "{replay:?}");
    assert_eq!(replay.frame_replays, 3, "{replay:?}");
    assert_eq!(replay.record_replays, 9, "{replay:?}");
    assert_eq!(replay.record_fallbacks, 3, "{replay:?}");
    assert_eq!(replay.misses, 2, "{replay:?}");
}

#[test]
fn interleaved_exact_frame_and_miss_pages_agree_across_thread_counts() {
    // Two sites, each a stream that interleaves the three cache paths:
    // exact whole-page replays (which skip record-layout detection),
    // frame replays (new record counts or variants, which detect it) and
    // misses (first and second sights, and non-listing pages without a
    // layout). Cache-on must equal cache-off and the reference at every
    // thread count; at one thread the path of every page is pinned.
    let listing = |site: usize, records: &[bool]| -> String {
        let rows: String = records
            .iter()
            .enumerate()
            .map(|(i, &phone)| {
                let tel = if phone {
                    format!("<td>555-01{i:02}</td>")
                } else {
                    String::new()
                };
                if site == 0 {
                    format!("<tr><td><u>NAME {i}</u><br>{i} Elm St</td>{tel}</tr>")
                } else {
                    format!("<li><b>SHOP {i}</b><span>{i} Oak Rd</span>{tel}</li>")
                }
            })
            .collect();
        let body = if site == 0 {
            format!("<table class='dealerlinks'>{rows}</table>")
        } else {
            format!("<ul class='stores'>{rows}</ul>")
        };
        format!(
            "<div class='nav'><h1>Site {site}</h1></div>{body}\
             <div class='footer'><p>contact</p></div>"
        )
    };
    let empty = |site: usize| -> String {
        format!("<div class='nav'><h1>Site {site}</h1></div><p>no results</p>")
    };
    // (page, expected path at one thread); F = full, R = frame, M = miss.
    let stream = |site: usize| -> Vec<(String, char)> {
        let full = |n: usize| listing(site, &vec![true; n]);
        vec![
            (full(3), 'M'),
            (full(3), 'M'),
            (full(4), 'R'),
            (full(3), 'F'),
            (full(4), 'F'),
            (listing(site, &[true, true, false, true, true]), 'R'),
            (empty(site), 'M'),
            (full(3), 'F'),
            (listing(site, &[true, true, false, true, true]), 'F'),
            (empty(site), 'M'),
            (full(6), 'R'),
            (empty(site), 'F'),
        ]
    };
    // Interleave the two sites page by page.
    let (a, b) = (stream(0), stream(1));
    let html: Vec<(usize, String, char)> = a
        .into_iter()
        .zip(b)
        .flat_map(|(x, y)| [(0, x.0, x.1), (1, y.0, y.1)])
        .collect();
    assert!(aw_dom::parse(&empty(0)).index().record_layout().is_none());

    let mut rng = StdRng::seed_from_u64(0x1E4F);
    let mut site_paths: Vec<Vec<XPath>> = (0..2)
        .map(|_| (0..25).map(|_| random_xpath(&mut rng)).collect())
        .collect();
    for targeted in [
        "//table[@class='dealerlinks']/tr/td/u/text()",
        "//tr/td[2]/text()",
        "//tr[2]/td/u/text()",
        "//ul[@class='stores']/li/b/text()",
        "//li/span/text()",
        "//li[3]/td/text()",
        "//div[@class='footer']/p/text()",
        "//p/text()",
    ] {
        let xp = aw_xpath::parse_xpath(targeted).unwrap();
        for paths in &mut site_paths {
            paths.push(xp.clone());
        }
    }

    let mut first: Option<PageResults> = None;
    for threads in [1, 2, 8] {
        // Fresh pages and caches per thread count, so every run starts
        // cold and layouts are computed only by this run.
        let docs: Vec<Document> = html.iter().map(|(_, h, _)| aw_dom::parse(h)).collect();
        let pages: Vec<(usize, &Document)> = html.iter().map(|(s, _, _)| *s).zip(&docs).collect();
        let cached = site_batches(&site_paths, true);
        let uncached = site_batches(&site_paths, false);
        let exec = Executor::new(threads);
        let on = evaluate_pages(&cached, &pages, &exec);
        let off = evaluate_pages(&uncached, &pages, &exec);
        assert_eq!(on, off, "cache-on != cache-off at {threads} threads");
        assert_matches_reference(&site_paths, &pages, &on, &format!("threads {threads}"));
        assert_same_as_first(&mut first, on, threads);

        let replay = replay_stats(&cached);
        assert_eq!(
            replay.full_replays + replay.frame_replays + replay.misses,
            pages.len() as u64,
            "every page takes exactly one path at {threads} threads: {replay:?}"
        );
        if threads == 1 {
            let count = |c: char| html.iter().filter(|(_, _, e)| *e == c).count() as u64;
            assert_eq!(
                replay,
                ReplayStats {
                    full_replays: count('F'),
                    frame_replays: count('R'),
                    // Per site: 4 + 4 records stitched on the second and
                    // sixth pages, 6 of 6 on the eleventh; the phone-less
                    // record falls back once.
                    record_replays: 2 * (4 + 4 + 6),
                    record_fallbacks: 2,
                    misses: count('M'),
                },
            );
            for ((_, h, expected), doc) in html.iter().zip(&docs) {
                assert_eq!(
                    doc.index().record_layout_computed(),
                    *expected != 'F',
                    "layout detection on a {expected} page: {h}"
                );
            }
        }
    }
}

#[test]
fn streaming_parse_is_byte_identical_through_sharded_extraction() {
    // The serving request path re-parses raw HTML with the one-pass
    // streaming builder (`aw_dom::parse_indexed`) where everything else
    // in this suite uses classic `parse`. Serialize learned corpora —
    // the fixed-roster template corpus AND the variable-length dropout
    // corpus — re-parse every page through both paths, and require the
    // full extraction pipeline to be byte-identical between them:
    // fingerprints, record layouts, and per-site batch node sets with
    // the template cache on and off at every thread count. One cached
    // evaluator per site serves both parse paths interleaved, so traces
    // recorded from classic-parsed pages must replay correctly onto
    // stream-parsed ones (exactly what a long-lived service does).
    let corpora = [
        generate_dealers(&DealersConfig {
            sites: 3,
            pages_per_site: 4,
            records_per_page: (5, 5),
            promo_prob: 0.0,
            uniform_records: true,
            seed: 0x7E41,
            ..DealersConfig::default()
        }),
        generate_dealers(&DealersConfig {
            sites: 3,
            pages_per_site: 5,
            records_per_page: (2, 8),
            promo_prob: 0.0,
            seed: 0xFA7B,
            ..DealersConfig::default()
        }),
    ];
    for (corpus, ds) in corpora.iter().enumerate() {
        let site_paths = enumerated_site_paths(ds);

        // Serialize and re-parse each page through both paths. Both
        // parsers allocate nodes in document order, so agreement holds
        // at the NodeId level, not just structurally.
        let mut oracle_docs: Vec<(usize, Document)> = Vec::new();
        let mut stream_docs: Vec<(usize, Document)> = Vec::new();
        for (s, page) in site_pages(ds) {
            let html = aw_dom::serialize(page);
            let oracle = aw_dom::parse(&html);
            let streamed = aw_dom::parse_indexed(&html).into_document();
            assert_eq!(
                aw_dom::serialize(&streamed),
                aw_dom::serialize(&oracle),
                "corpus {corpus}: tree mismatch"
            );
            assert_eq!(
                streamed.index().template_fingerprint(),
                oracle.index().template_fingerprint(),
                "corpus {corpus}: fingerprint mismatch"
            );
            assert_eq!(
                streamed.index().record_layout(),
                oracle.index().record_layout(),
                "corpus {corpus}: record layout mismatch"
            );
            oracle_docs.push((s, oracle));
            stream_docs.push((s, streamed));
        }
        let oracle_pages: Vec<(usize, &Document)> =
            oracle_docs.iter().map(|(s, d)| (*s, d)).collect();
        let stream_pages: Vec<(usize, &Document)> =
            stream_docs.iter().map(|(s, d)| (*s, d)).collect();

        let cached = site_batches(&site_paths, true);
        let uncached = site_batches(&site_paths, false);
        let mut first: Option<PageResults> = None;
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            // Oracle pages first: with the cache on, the traces they
            // record must replay byte-identically onto the
            // stream-parsed copies of the same templates.
            let on_oracle = evaluate_pages(&cached, &oracle_pages, &exec);
            let on_stream = evaluate_pages(&cached, &stream_pages, &exec);
            let off_stream = evaluate_pages(&uncached, &stream_pages, &exec);
            assert_eq!(
                on_stream, on_oracle,
                "corpus {corpus}: stream != oracle (cache on, {threads} threads)"
            );
            assert_eq!(
                off_stream, on_oracle,
                "corpus {corpus}: cache-off stream != oracle ({threads} threads)"
            );
            // And byte-identical to the reference interpreter.
            let ctx = format!("corpus {corpus}: threads {threads}");
            assert_matches_reference(&site_paths, &stream_pages, &on_stream, &ctx);
            assert_same_as_first(&mut first, on_stream, threads);
        }
        assert!(
            cache_hits(&cached) > 0,
            "corpus {corpus}: the template corpus must replay"
        );
    }
}

#[test]
fn display_roundtrip_preserves_engine_agreement() {
    // Parsing a rendered path and evaluating both forms through both
    // engines closes the loop between the parser, Display, and the
    // compiled representations.
    let mut rng = StdRng::seed_from_u64(0x0DD);
    let ds = generate_dealers(&DealersConfig {
        sites: 1,
        pages_per_site: 1,
        seed: 77,
        ..DealersConfig::default()
    });
    let doc = ds.sites[0].site.page(0);
    for _ in 0..200 {
        let path = random_xpath(&mut rng);
        let reparsed = aw_xpath::parse_xpath(&path.to_string()).expect("rendered path parses");
        assert_eq!(reparsed, path);
        assert_engines_agree(doc, &reparsed);
    }
}
