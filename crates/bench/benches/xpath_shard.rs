//! Site-sharded wrapper-space evaluation with a machine-readable report.
//!
//! The cross-site workload behind the scale story (§7: hundreds of sites
//! × thousands of pages). Before sharding, the pipeline carried one
//! **deduplicated cross-site space** — the union of every site's
//! candidates — and evaluated all of it over every page (rule replay
//! applies the whole rule set to each crawled page). Site-sharding
//! observes that a rule only matters on its own site: one
//! predicate-aware trie per site, each evaluated only against that
//! site's pages, page-parallel through the work-stealing `Executor`.
//!
//! Strategies timed on the **global workload** (dedup space × all
//! pages, the pre-sharding pipeline):
//!
//! * `reference` — per-rule tree-walking interpretation;
//! * `indexed`   — per-rule compiled evaluation against the `DocIndex`;
//! * `global batch` — the whole dedup space in one `BatchEvaluator`.
//!
//! Strategies timed on the **sharded workload** (each site's candidates
//! × that site's pages — the part of the global workload the pipeline
//! actually needs):
//!
//! * `indexed (site-local)` — per-rule compiled evaluation;
//! * `sharded` — one `BatchEvaluator` per site, each applied to its own
//!   site's pages, sequential, template cache off;
//! * `sharded ×N` — the same tries, page-parallel with N threads
//!   (measured only when more than one core is available).
//!
//! A second, **repeated-template corpus** (full-roster pagination:
//! fixed records per page, all optional fields present, so every page
//! of a site shares one structural fingerprint) times the cross-page
//! template cache: `sharded` with the cache off vs on. The ratio is
//! reported as `template_cache_speedup`.
//!
//! A third, **variable-length corpus** (same rendering scripts, but
//! record counts vary per page, so whole-page fingerprints rarely
//! repeat within a site) times record-level replay: the shared page
//! frame replays verbatim while per-record traces stitch in
//! record-local rank space. The cache-off/on ratio is reported (and
//! gated) as `template_cache_speedup_varlen`, with the replay
//! breakdown under `varlen_corpus`.
//!
//! Serving-side measurements ride on the repeated-template corpus:
//! `service_throughput` (the request stream over real sockets through
//! the event-driven reactor, one keep-alive connection) and
//! `service_health_ratio` — the in-process stream with per-site health
//! tracking on vs off, gated near 1.0 so the robustness loop's
//! accounting stays effectively free. The reactor's request-latency
//! histogram lands in the report as `service.latency_p50_us` /
//! `latency_p99_us` (and report-only `service_p99_us` under
//! `speedups`). A synchronous churn episode (`TemplateEvolution`)
//! additionally reports `relearn_recovery`: drifted requests until
//! degradation, relearn-and-swap wall clock, and requests until health
//! journals recovery (report-only).
//!
//! The run writes `BENCH_xpath.json` (schema documented in
//! `crates/bench/README.md`) to `$BENCH_JSON` (default
//! `<workspace>/target/BENCH_xpath.json`). When `$BENCH_BASELINE` names
//! a committed baseline file, measured speedups below its thresholds
//! fail the process — the CI perf gate.

use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_core::{
    BundleBinaryWriter, BundleStore, CompiledWrapper, Engine, ExtractRequest, ExtractionService,
    HealthEvent, HealthThresholds, LearnedRule, RelearnController, WrapperBundle, WrapperLanguage,
    WrapperRegistry,
};
use aw_dom::Document;
use aw_enum::top_down;
use aw_eval::Executor;
use aw_induct::{NodeSet, XPathInductor};
use aw_rank::{AnnotatorModel, ListFeatures, PublicationModel, RankingModel};
use aw_sitegen::{epoch_html, generate_dealers, DealersConfig, TemplateEvolution};
use aw_xpath::{evaluate_compiled, reference, BatchEvaluator, CompiledXPath, ReplayStats, XPath};
use serde::Value;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

struct SiteData {
    pages: Vec<Document>,
    paths: Vec<XPath>,
    compiled: Vec<CompiledXPath>,
}

/// Enumerates per-site candidate spaces for a generated dealer corpus.
fn spaces_of(ds: &aw_sitegen::DealersDataset) -> Vec<SiteData> {
    let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    let mut out: Vec<SiteData> = Vec::new();
    for gs in &ds.sites {
        let labels: NodeSet = annot.annotate(&gs.site);
        if labels.is_empty() {
            continue;
        }
        let ind = XPathInductor::new(&gs.site);
        let paths: Vec<XPath> = top_down(&ind, &labels)
            .xpath_candidates()
            .into_iter()
            .map(|(_, xp)| xp)
            .collect();
        if paths.is_empty() {
            continue;
        }
        let compiled = paths.iter().map(CompiledXPath::compile).collect();
        out.push(SiteData {
            pages: gs.site.pages().to_vec(),
            paths,
            compiled,
        });
    }
    assert!(out.len() >= 3, "corpus too small: {} sites", out.len());
    out
}

/// Dealer sites with their enumerated per-site candidate spaces.
fn corpus() -> Vec<SiteData> {
    let quick = matches!(std::env::var("AW_SCALE").as_deref(), Ok("quick"));
    let (sites, pages_per_site) = if quick { (6, 4) } else { (24, 12) };
    spaces_of(&generate_dealers(&DealersConfig {
        sites,
        pages_per_site,
        seed: 0x5AAD,
        ..DealersConfig::default()
    }))
}

/// The repeated-template corpus: every page of a site is a full-roster
/// instance of one rendering script (fixed record count, no optional
/// fields missing), so the site collapses to a single structural
/// fingerprint — the production shape of paginated listings.
fn template_corpus() -> Vec<SiteData> {
    let quick = matches!(std::env::var("AW_SCALE").as_deref(), Ok("quick"));
    let (sites, pages_per_site) = if quick { (6, 6) } else { (24, 12) };
    spaces_of(&generate_dealers(&DealersConfig {
        sites,
        pages_per_site,
        records_per_page: (6, 6),
        promo_prob: 0.0,
        uniform_records: true,
        seed: 0x7E41,
        ..DealersConfig::default()
    }))
}

/// The variable-length corpus: the same full-roster rendering scripts,
/// but record counts vary per page — pages of a site share chrome (and
/// so a frame fingerprint) while whole-page fingerprints rarely
/// repeat. The production shape of search-result listings, and the
/// workload record-level replay exists for.
fn varlen_corpus() -> Vec<SiteData> {
    let quick = matches!(std::env::var("AW_SCALE").as_deref(), Ok("quick"));
    let (sites, pages_per_site) = if quick { (6, 6) } else { (24, 12) };
    spaces_of(&generate_dealers(&DealersConfig {
        sites,
        pages_per_site,
        records_per_page: (2, 8),
        promo_prob: 0.0,
        uniform_records: true,
        seed: 0x7A2C,
        ..DealersConfig::default()
    }))
}

/// Global workload: every dedup'd rule over every page, per-rule
/// reference interpretation.
fn eval_reference_global(pages: &[(usize, &Document)], space: &[XPath]) -> usize {
    let mut nodes = 0;
    for (_, page) in pages {
        for path in space {
            nodes += reference::evaluate(path, page).len();
        }
    }
    nodes
}

/// Global workload, per-rule indexed evaluation (the pre-sharding
/// production strategy and the acceptance baseline).
fn eval_indexed_global(pages: &[(usize, &Document)], space: &[CompiledXPath]) -> usize {
    let mut nodes = 0;
    for (_, page) in pages {
        for path in space {
            nodes += evaluate_compiled(path, page).len();
        }
    }
    nodes
}

/// Sharded workload, per-rule indexed evaluation (same output as the
/// sharded engine, no trie sharing).
fn eval_indexed_local(sites: &[SiteData]) -> usize {
    let mut nodes = 0;
    for site in sites {
        for page in &site.pages {
            for path in &site.compiled {
                nodes += evaluate_compiled(path, page).len();
            }
        }
    }
    nodes
}

/// One `BatchEvaluator` per site over that site's candidates — the
/// sharded engine.
fn site_batches(sites: &[SiteData], cache: bool) -> Vec<BatchEvaluator> {
    sites
        .iter()
        .map(|site| BatchEvaluator::new(&site.compiled).with_cache(cache))
        .collect()
}

/// Evaluates every `(site, page)` pair through its own site's
/// evaluator, page-parallel.
fn evaluate_sharded(
    batches: &[BatchEvaluator],
    pages: &[(usize, &Document)],
    exec: &Executor,
) -> Vec<Vec<Vec<aw_dom::NodeId>>> {
    exec.map(pages, |&(s, page)| batches[s].evaluate(page))
}

fn eval_sharded(
    batches: &[BatchEvaluator],
    pages: &[(usize, &Document)],
    exec: &Executor,
) -> usize {
    evaluate_sharded(batches, pages, exec)
        .iter()
        .flatten()
        .map(Vec::len)
        .sum()
}

/// Replay statistics summed across per-site evaluators (cache on).
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

/// `(replayed, other)` page evaluations summed across per-site
/// evaluators (cache on).
fn cache_stats(batches: &[BatchEvaluator]) -> (u64, u64) {
    batches
        .iter()
        .map(|batch| batch.template_cache().expect("cache enabled").stats())
        .fold((0, 0), |(h, m), (bh, bm)| (h + bh, m + bm))
}

/// Best wall-clock of `passes` runs, in seconds.
fn time(passes: u32, f: &dyn Fn() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn pages_of(sites: &[SiteData]) -> Vec<(usize, &Document)> {
    sites
        .iter()
        .enumerate()
        .flat_map(|(s, site)| site.pages.iter().map(move |p| (s, p)))
        .collect()
}

fn main() {
    let sites = corpus();
    // The established sharded metrics measure trie sharing alone, so the
    // template cache is off here; the repeated-template corpus below
    // measures it separately.
    let sharded = site_batches(&sites, false);
    let pages: Vec<(usize, &Document)> = pages_of(&sites);

    // The deduplicated cross-site space the pre-sharding pipeline carried.
    let mut seen = std::collections::BTreeSet::new();
    let global_space: Vec<XPath> = sites
        .iter()
        .flat_map(|site| site.paths.iter())
        .filter(|xp| seen.insert(xp.to_string()))
        .cloned()
        .collect();
    let global_compiled: Vec<CompiledXPath> =
        global_space.iter().map(CompiledXPath::compile).collect();
    // Cache off for the same reason as `sharded`: this metric isolates
    // trie sharing (repeated timing passes would otherwise replay).
    let global_batch = BatchEvaluator::new(&global_compiled).with_cache(false);

    // Warm the per-document indexes so every engine measures steady-state
    // evaluation (`reference` does not use them at all).
    for (_, page) in &pages {
        page.index();
    }

    // All engines must agree before anything is timed: the sharded pairs
    // element-wise against per-rule indexed evaluation (identical
    // site-local workload), and the global trie against per-rule indexed
    // node totals on the global workload.
    let seq = Executor::new(1);
    for (&(key, page), results) in pages.iter().zip(evaluate_sharded(&sharded, &pages, &seq)) {
        let site = &sites[key];
        assert_eq!(results.len(), site.compiled.len());
        for (nodes, compiled) in results.iter().zip(&site.compiled) {
            assert_eq!(nodes, &evaluate_compiled(compiled, page), "site {key}");
        }
    }
    let global_nodes = eval_indexed_global(&pages, &global_compiled);
    assert_eq!(eval_reference_global(&pages, &global_space), global_nodes);
    assert_eq!(
        pages
            .iter()
            .map(|(_, p)| global_batch.evaluate(p).iter().map(Vec::len).sum::<usize>())
            .sum::<usize>(),
        global_nodes
    );

    let candidates: usize = sites.iter().map(|s| s.paths.len()).sum();
    let local_pairs: usize = sites.iter().map(|s| s.paths.len() * s.pages.len()).sum();
    let global_pairs = global_space.len() * pages.len();
    println!(
        "corpus: {} sites, {} pages, {} candidates ({} deduplicated globally); \
         global workload {} (rule, page) pairs, site-local {} pairs",
        sites.len(),
        pages.len(),
        candidates,
        global_space.len(),
        global_pairs,
        local_pairs,
    );
    let sharded_steps: usize = sharded.iter().map(BatchEvaluator::distinct_steps).sum();
    let sharded_variants: usize = sharded.iter().map(BatchEvaluator::distinct_variants).sum();
    println!(
        "sharded tries: {} bare steps / {} variants; global trie: {} / {}",
        sharded_steps,
        sharded_variants,
        global_batch.distinct_steps(),
        global_batch.distinct_variants(),
    );

    let passes: u32 = std::env::var("BENCH_PASSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let t_ref = time(passes, &|| eval_reference_global(&pages, &global_space));
    let t_idx = time(passes, &|| eval_indexed_global(&pages, &global_compiled));
    let t_gbatch = time(passes, &|| {
        pages
            .iter()
            .map(|(_, p)| global_batch.evaluate(p).iter().map(Vec::len).sum::<usize>())
            .sum()
    });
    let t_idx_local = time(passes, &|| eval_indexed_local(&sites));
    let t_shard = time(passes, &|| eval_sharded(&sharded, &pages, &seq));

    // The repeated-template workload: identical per-site candidate
    // spaces and pages, with and without cross-page template replay.
    // Both variants must agree with per-rule indexed evaluation before
    // being timed (and the cached variant re-checks *after* its traces
    // are recorded, i.e. on the replay path).
    let tsites = template_corpus();
    let tpages: Vec<(usize, &Document)> = pages_of(&tsites);
    for (_, page) in &tpages {
        page.index();
    }
    let t_nocache = site_batches(&tsites, false);
    let t_cached = site_batches(&tsites, true);
    for _ in 0..2 {
        // Two verification rounds: the first records traces, the second
        // exercises replay on every page.
        for (&(key, page), results) in tpages
            .iter()
            .zip(evaluate_sharded(&t_cached, &tpages, &seq))
        {
            let site = &tsites[key];
            for (nodes, compiled) in results.iter().zip(&site.compiled) {
                assert_eq!(
                    nodes,
                    &evaluate_compiled(compiled, page),
                    "template corpus, site {key}"
                );
            }
        }
    }
    let (warm_hits, _) = cache_stats(&t_cached);
    assert!(warm_hits > 0, "template corpus produced no cache replays");
    let t_template_nocache = time(passes, &|| eval_sharded(&t_nocache, &tpages, &seq));
    let t_template_cached = time(passes, &|| eval_sharded(&t_cached, &tpages, &seq));

    // The variable-length workload: whole-page fingerprints rarely
    // repeat, so nearly every replay must stitch the shared page frame
    // around per-record traces. Verified like the template corpus: two
    // rounds against per-rule indexed evaluation, the second on the
    // (partial-)replay path; the corpus must actually stitch frames, or
    // the metric silently degenerates into whole-page replay.
    let vsites = varlen_corpus();
    let vpages: Vec<(usize, &Document)> = pages_of(&vsites);
    for (_, page) in &vpages {
        page.index();
    }
    let v_nocache = site_batches(&vsites, false);
    let v_cached = site_batches(&vsites, true);
    for _ in 0..2 {
        for (&(key, page), results) in vpages
            .iter()
            .zip(evaluate_sharded(&v_cached, &vpages, &seq))
        {
            let site = &vsites[key];
            for (nodes, compiled) in results.iter().zip(&site.compiled) {
                assert_eq!(
                    nodes,
                    &evaluate_compiled(compiled, page),
                    "varlen corpus, site {key}"
                );
            }
        }
    }
    assert!(
        replay_stats(&v_cached).frame_replays > 0,
        "varlen corpus never stitched a frame"
    );
    let t_varlen_nocache = time(passes, &|| eval_sharded(&v_nocache, &vpages, &seq));
    let t_varlen_cached = time(passes, &|| eval_sharded(&v_cached, &vpages, &seq));
    let varlen_replay = replay_stats(&v_cached);

    // ── Streaming parse→index ────────────────────────────────────────
    // Every request pays parse + DocIndex build + template fingerprint
    // before any rule can run. Timed on the serialized repeated-template
    // pages: the classic two-pass path (parse the tree, then build the
    // index over the finished arena — the `with_stream_parse(false)`
    // path) vs the one-pass `StreamIndexer` (`aw_dom::parse_indexed`,
    // the request-path default). Both legs end with the fingerprint
    // computed, because the serving path needs it for template-cache
    // lookup. The ratio is gated as `stream_parse_speedup`. Byte
    // identity of the two paths is asserted before timing (and in far
    // more depth by `tests/dom_robustness.rs`).
    let html_pages: Vec<String> = tpages.iter().map(|(_, p)| aw_dom::serialize(p)).collect();
    for html in &html_pages {
        let streamed = aw_dom::parse_indexed(html);
        let classic = aw_dom::parse(html);
        assert_eq!(aw_dom::serialize(&streamed), aw_dom::serialize(&classic));
        assert_eq!(
            streamed.index().template_fingerprint(),
            classic.index().template_fingerprint(),
        );
    }
    // The corpus parses in under a millisecond, so one pass is all
    // timer jitter: repeat the page sweep inside each pass and
    // *interleave* classic/stream passes (best-of each) so clock drift
    // across the measurement window biases neither leg.
    let parse_reps = 4;
    let classic_leg = || {
        let mut total = 0;
        for _ in 0..parse_reps {
            total += html_pages
                .iter()
                .map(|html| {
                    let doc = aw_dom::parse(html);
                    black_box(doc.index().template_fingerprint());
                    doc.len()
                })
                .sum::<usize>();
        }
        total
    };
    let stream_leg = || {
        let mut total = 0;
        for _ in 0..parse_reps {
            total += html_pages
                .iter()
                .map(|html| {
                    let doc = aw_dom::parse_indexed(html);
                    black_box(doc.index().template_fingerprint());
                    doc.len()
                })
                .sum::<usize>();
        }
        total
    };
    let mut t_parse_classic = f64::INFINITY;
    let mut t_parse_stream = f64::INFINITY;
    // The paired sweep is ~6 ms, so extra passes are nearly free and
    // the best-of window can ride out a multi-second load spike.
    for _ in 0..passes.max(9) {
        t_parse_classic = t_parse_classic.min(time(1, &classic_leg));
        t_parse_stream = t_parse_stream.min(time(1, &stream_leg));
    }
    t_parse_classic /= parse_reps as f64;
    t_parse_stream /= parse_reps as f64;
    let stream_parse_speedup = t_parse_classic / t_parse_stream;

    // Serving-side throughput: the `ExtractionService` request loop over
    // a repeated-template request stream (one raw-HTML page per request)
    // — the workload a long-lived `awrap serve` process sees. Each
    // request pays parse + DocIndex build + routed evaluation; the
    // per-site wrappers (each site's first candidate xpath) persist in
    // the registry, so their template caches replay across requests.
    let registry = Arc::new(WrapperRegistry::new());
    for (s, site) in tsites.iter().enumerate() {
        registry.insert(
            format!("site-{s}"),
            CompiledWrapper::from_rule(LearnedRule::XPath(site.paths[0].clone())),
        );
    }
    let service = ExtractionService::new(Arc::clone(&registry)).with_executor(seq.clone());
    let requests: Vec<(usize, usize, ExtractRequest)> = tsites
        .iter()
        .enumerate()
        .flat_map(|(s, site)| {
            site.pages.iter().enumerate().map(move |(p, page)| {
                (
                    s,
                    p,
                    ExtractRequest::single(format!("site-{s}"), aw_dom::serialize(page)),
                )
            })
        })
        .collect();
    // The service must agree with direct per-rule evaluation before the
    // stream is timed (values compared — the request re-parses the
    // serialized page, so node ids need not coincide).
    for (s, p, request) in &requests {
        let page = &tsites[*s].pages[*p];
        let expected: Vec<&str> = evaluate_compiled(&tsites[*s].compiled[0], page)
            .into_iter()
            .filter_map(|id| page.text(id))
            .collect();
        let response = service.handle(request).expect("registered site");
        assert_eq!(response.pages[0], expected, "site {s} page {p}");
    }
    // Health-accounting overhead: the same request stream through a
    // service with per-site health tracking disabled. The ratio
    // (health-on throughput / health-off throughput) is gated — health
    // accounting must stay within a few percent of free. The two
    // variants are timed in adjacent passes, the side timed first
    // alternating every round, and the gated ratio is the median of the
    // rounds' paired ratios: on a shared host the speed drifts by tens
    // of percent within a run, which a paired ratio cancels and a
    // best-of-each-side ratio does not (the two minima can come from
    // different speeds).
    // One stream takes well under a millisecond, so a timed pass repeats
    // it until it lasts at least `MIN_HEALTH_PASS_S`.
    const MIN_HEALTH_PASS_S: f64 = 0.02;
    let service_off = ExtractionService::new(Arc::clone(&registry))
        .with_executor(seq.clone())
        .with_health_tracking(false);
    let stream = |svc: &ExtractionService, reps: usize| -> usize {
        (0..reps)
            .flat_map(|_| &requests)
            .map(|(_, _, request)| svc.handle(request).expect("site").pages[0].len())
            .sum()
    };
    let once = [&service, &service_off]
        .iter()
        .map(|svc| {
            let t = Instant::now();
            black_box(stream(svc, 1));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let health_reps = (MIN_HEALTH_PASS_S / once.max(1e-6)).ceil() as usize;
    let (mut t_service, mut t_service_off) = (f64::INFINITY, f64::INFINITY);
    let mut paired = Vec::new();
    for round in 0..passes.max(5) * 4 {
        let pass = |svc: &ExtractionService| {
            let t = Instant::now();
            black_box(stream(svc, health_reps));
            t.elapsed().as_secs_f64() / health_reps as f64
        };
        let (on, off) = if round % 2 == 0 {
            let on = pass(&service);
            (on, pass(&service_off))
        } else {
            let off = pass(&service_off);
            (pass(&service), off)
        };
        t_service = t_service.min(on);
        t_service_off = t_service_off.min(off);
        paired.push(off / on);
    }
    paired.sort_by(f64::total_cmp);
    let service_health_ratio = (paired[(paired.len() - 1) / 2] + paired[paired.len() / 2]) / 2.0;
    let inprocess_rps = requests.len() as f64 / t_service;

    // ── HTTP serving stream ──────────────────────────────────────────
    // The same request stream over real sockets through the event-driven
    // reactor, reusing ONE keep-alive connection for the whole stream.
    // `service_throughput` is its requests/sec (best of the passes). The
    // reactor fronts a service over the same registry as the in-process
    // stream, so wrapper template caches are already warm.
    let http_bodies: Vec<String> = requests
        .iter()
        .map(|(s, _, request)| {
            serde_json::to_string(&obj(vec![
                ("site", Value::String(format!("site-{s}"))),
                ("html", Value::String(request.pages[0].clone())),
            ]))
            .expect("body serializes")
        })
        .collect();
    let reactor_service =
        Arc::new(ExtractionService::new(Arc::clone(&registry)).with_executor(seq.clone()));
    let reactor = aw_serve::Server::bind(Arc::clone(&reactor_service), "127.0.0.1:0")
        .expect("bind reactor")
        .workers(1)
        .start()
        .expect("start reactor");

    // Reads one HTTP/1.1 response off a keep-alive stream (headers,
    // then exactly Content-Length body bytes).
    fn read_response(stream: &mut std::net::TcpStream) -> (u16, String) {
        use std::io::Read as _;
        let mut buf = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "server closed mid-response");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end]).expect("UTF-8 head");
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .expect("Content-Length")
            .parse()
            .expect("numeric length");
        let mut body = buf[head_end + 4..].to_vec();
        while body.len() < length {
            let n = stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "server closed mid-body");
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(length);
        (status, String::from_utf8(body).expect("UTF-8 body"))
    }

    let keepalive_stream = |bodies: &[String]| -> usize {
        use std::io::Write as _;
        let mut stream = std::net::TcpStream::connect(reactor.addr()).expect("connect reactor");
        stream.set_nodelay(true).expect("nodelay");
        let mut ok = 0;
        for body in bodies {
            stream
                .write_all(
                    format!(
                        "POST /extract HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                )
                .expect("send");
            let (status, reply) = read_response(&mut stream);
            assert_eq!(status, 200, "{reply}");
            ok += 1;
        }
        ok
    };
    // The reactor must serve the stream correctly before timing (this
    // also warms wrapper caches and the reactor's accept path).
    assert_eq!(keepalive_stream(&http_bodies), http_bodies.len());
    let mut t_keepalive = f64::INFINITY;
    for _ in 0..passes.max(3) {
        let t = Instant::now();
        black_box(keepalive_stream(&http_bodies));
        t_keepalive = t_keepalive.min(t.elapsed().as_secs_f64());
    }
    let service_rps = http_bodies.len() as f64 / t_keepalive;
    // Full-request wall-time percentiles, recorded by the reactor for
    // every request of every keep-alive pass (report-only).
    let latency = reactor_service.latency().snapshot();
    reactor.shutdown();

    // Self-healing recovery: a deployed wrapper defeated by breaking
    // template churn. Measured synchronously: requests of drifted
    // traffic until the health window flags the site, the shadow
    // relearn-and-swap wall-clock, then requests until the fresh window
    // journals recovery. Reported, not gated — it is a property of the
    // thresholds, not a throughput.
    let evolution = TemplateEvolution::small(7).run();
    let churn_engine = Engine::builder(RankingModel::new(
        AnnotatorModel::new(0.9, 0.3),
        PublicationModel::learn(&[
            ListFeatures {
                schema_size: 3.0,
                alignment: 0.0,
            },
            ListFeatures {
                schema_size: 4.0,
                alignment: 1.0,
            },
        ]),
    ))
    .language(WrapperLanguage::XPath)
    .annotator(DictionaryAnnotator::new(
        evolution.dictionary.iter(),
        MatchMode::Contains,
    ))
    .build();
    let site0 = &evolution.epochs[0].site.site;
    let labels = churn_engine
        .annotate(site0)
        .expect("dictionary hits epoch 0");
    let deployed = churn_engine
        .learn(site0, &labels)
        .expect("epoch 0 learns")
        .best()
        .expect("nonempty wrapper space")
        .compile();
    let churn_registry = Arc::new(WrapperRegistry::new());
    churn_registry.insert("churn", deployed);
    let churn_service =
        ExtractionService::new(Arc::clone(&churn_registry)).with_thresholds(HealthThresholds {
            window: 8,
            min_window: 4,
            baseline_pages: 4,
            retain_pages: 16,
            ..HealthThresholds::default()
        });
    let controller = Arc::new(RelearnController::new(&churn_service, churn_engine));
    let churn_service = churn_service.with_relearn(Arc::clone(&controller));
    for html in epoch_html(&evolution.epochs[0]) {
        churn_service
            .handle(&ExtractRequest::single("churn", html))
            .expect("registered");
    }
    let breaking = epoch_html(&evolution.epochs[2]);
    let mut requests_to_degrade = 0usize;
    while !churn_service
        .site_health("churn")
        .expect("tracked")
        .degraded
    {
        churn_service
            .handle(&ExtractRequest::single(
                "churn",
                breaking[requests_to_degrade % breaking.len()].clone(),
            ))
            .expect("registered");
        requests_to_degrade += 1;
        assert!(requests_to_degrade <= 64, "breaking churn never degraded");
    }
    let relearn_clock = Instant::now();
    let relearn_outcome = controller.run_pending();
    let t_relearn = relearn_clock.elapsed().as_secs_f64();
    assert_eq!(relearn_outcome.swapped, 1, "{relearn_outcome:?}");
    let recovered = |service: &ExtractionService| {
        service
            .health()
            .journal_for("churn")
            .iter()
            .any(|e| matches!(e, HealthEvent::Recovered { .. }))
    };
    let mut requests_to_recover = 0usize;
    while !recovered(&churn_service) {
        churn_service
            .handle(&ExtractRequest::single(
                "churn",
                breaking[requests_to_recover % breaking.len()].clone(),
            ))
            .expect("registered");
        requests_to_recover += 1;
        assert!(requests_to_recover <= 64, "swap never recovered health");
    }

    // ── Bundle cold start ────────────────────────────────────────────
    // Web-scale deployment: time-to-first-extraction for a bundle of
    // `bundle_sites` site wrappers when only ONE site is actually
    // requested. The v2 JSON path must parse and compile every wrapper
    // before the first request can be answered; the v3 binary path
    // reads the fixed header plus the site-key index and deserializes
    // exactly one segment on the faulting request. The ratio is gated
    // as `bundle_cold_start` (floor 10x — locally it is orders of
    // magnitude). Report-only absolutes land under `bundle_cold`.
    let quick = matches!(std::env::var("AW_SCALE").as_deref(), Ok("quick"));
    let bundle_sites: usize = if quick { 10_000 } else { 100_000 };
    // Prototype wrappers: the first candidate xpath of up to four
    // repeated-template sites, cycled across the synthetic site keys.
    let protos: Vec<String> = tsites
        .iter()
        .take(4)
        .map(|site| CompiledWrapper::from_rule(LearnedRule::XPath(site.paths[0].clone())).to_json())
        .collect();
    // A v2 bundle member is the v1 artifact minus the format/version
    // envelope; render each prototype's member once and hand-assemble
    // the large payload (members are serde-rendered, so splicing them
    // between literal braces cannot break the JSON).
    let proto_members: Vec<String> = protos
        .iter()
        .map(|p| {
            let v1 = serde_json::from_str(p).expect("v1 artifact parses");
            serde_json::to_string(&obj(vec![
                ("language", v1.get("language").expect("language").clone()),
                ("rule", v1.get("rule").expect("rule").clone()),
            ]))
            .expect("member serializes")
        })
        .collect();
    let target_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    std::fs::create_dir_all(target_dir).expect("target dir");
    let v2_path = format!("{target_dir}/bench_bundle_cold.json");
    let v3_path = format!("{target_dir}/bench_bundle_cold.awb");
    let mut v2_payload = String::with_capacity(bundle_sites * 128);
    v2_payload.push_str("{\"format\":\"aw-bundle\",\"version\":2,\"wrappers\":{");
    for i in 0..bundle_sites {
        if i > 0 {
            v2_payload.push(',');
        }
        v2_payload.push_str(&format!("\"site-{i:06}\":"));
        v2_payload.push_str(&proto_members[i % proto_members.len()]);
    }
    v2_payload.push_str("}}");
    std::fs::write(&v2_path, &v2_payload).expect("write v2 bundle");
    let v3_file = std::fs::File::create(&v3_path).expect("create v3 bundle");
    let mut writer = BundleBinaryWriter::new(std::io::BufWriter::new(v3_file)).expect("v3 header");
    for i in 0..bundle_sites {
        writer
            .append_payload(&format!("site-{i:06}"), &protos[i % protos.len()])
            .expect("v3 segment");
    }
    {
        use std::io::Write as _;
        writer
            .finish()
            .expect("v3 index")
            .flush()
            .expect("v3 flush");
    }
    let v2_bytes = v2_payload.len();
    let v3_bytes = std::fs::metadata(&v3_path).expect("v3 metadata").len() as usize;
    drop(v2_payload);
    // The faulting request: a mid-bundle site, one of that prototype's
    // own pages. Both paths must answer identically before timing.
    let mid = bundle_sites / 2;
    let cold_request = ExtractRequest::single(
        format!("site-{mid:06}"),
        aw_dom::serialize(&tsites[mid % protos.len()].pages[0]),
    );
    let v2_cold = || -> usize {
        let payload = std::fs::read_to_string(&v2_path).expect("read v2");
        let bundle = WrapperBundle::from_json(&payload).expect("v2 parses");
        let service = ExtractionService::new(Arc::new(WrapperRegistry::from_bundle(bundle)));
        service.handle(&cold_request).expect("site").pages[0].len()
    };
    let v3_cold = || -> usize {
        let store = BundleStore::open(&v3_path).expect("v3 opens");
        let registry = WrapperRegistry::from_store(Arc::new(store), Some(1024));
        let service = ExtractionService::new(Arc::new(registry));
        service.handle(&cold_request).expect("site").pages[0].len()
    };
    {
        let payload = std::fs::read_to_string(&v2_path).expect("read v2");
        let bundle = WrapperBundle::from_json(&payload).expect("v2 parses");
        let v2_service = ExtractionService::new(Arc::new(WrapperRegistry::from_bundle(bundle)));
        let store = BundleStore::open(&v3_path).expect("v3 opens");
        assert_eq!(store.len(), bundle_sites);
        let v3_service = ExtractionService::new(Arc::new(WrapperRegistry::from_store(
            Arc::new(store),
            Some(1024),
        )));
        let expected = v2_service.handle(&cold_request).expect("v2 site");
        assert_eq!(v3_service.handle(&cold_request).expect("v3 site"), expected);
        assert!(!expected.pages[0].is_empty(), "cold request extracts");
    }
    // Each pass repeats the full cold path (read artifact, build the
    // service, answer one request), so one pass is already seconds on
    // the v2 side — cap the repetitions instead of inheriting `passes`.
    let cold_passes = passes.clamp(1, 2);
    let t_v2_cold = time(cold_passes, &v2_cold);
    let t_v3_cold = time(cold_passes, &v3_cold);
    let bundle_cold_start = t_v2_cold / t_v3_cold;

    // ── Registry fault flatness ──────────────────────────────────────
    // A lazy registry's fault must cost the same whatever its residency
    // cap. Over the bundle_cold store: fill a registry to the cap
    // (untimed), then time a worst-case stream in which every request
    // faults a new site in and evicts one. µs per fault+evict at caps
    // 128, 1024 and 8192 land under `registry_fault`; cap 128 over cap
    // 8192 is gated as `registry_fault_flatness` (ideal 1).
    const TIMED_FAULTS: usize = 256;
    let fault_store = Arc::new(BundleStore::open(&v3_path).expect("v3 opens"));
    let fault_keys: Vec<String> = fault_store.site_keys().map(str::to_string).collect();
    let fault_micros = |cap: usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..passes.max(3) {
            let registry = WrapperRegistry::from_store(Arc::clone(&fault_store), Some(cap));
            for key in &fault_keys[..cap] {
                registry
                    .get_or_fault(key)
                    .expect("segment")
                    .expect("indexed");
            }
            let t = Instant::now();
            for key in &fault_keys[cap..cap + TIMED_FAULTS] {
                black_box(registry.get_or_fault(key).expect("segment"));
            }
            best = best.min(t.elapsed().as_secs_f64() * 1e6 / TIMED_FAULTS as f64);
            assert_eq!(
                registry.residency_stats().evictions,
                TIMED_FAULTS as u64,
                "every timed request evicts"
            );
        }
        best
    };
    let fault_us = [128, 1024, 8192].map(fault_micros);
    let registry_fault_flatness = fault_us[0] / fault_us[2];

    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut parallel: Vec<(usize, f64)> = Vec::new();
    if available > 1 {
        let mut counts = vec![2usize];
        if available >= 4 {
            counts.push(4);
        }
        if !counts.contains(&available) {
            counts.push(available);
        }
        for k in counts {
            let exec = Executor::new(k);
            parallel.push((k, time(passes, &|| eval_sharded(&sharded, &pages, &exec))));
        }
    }

    let ms = 1e3;
    println!(
        "global workload:  reference {:.3} ms, per-rule indexed {:.3} ms, \
         global batch trie {:.3} ms",
        t_ref * ms,
        t_idx * ms,
        t_gbatch * ms,
    );
    println!(
        "sharded workload: per-rule indexed {:.3} ms, sharded batch {:.3} ms",
        t_idx_local * ms,
        t_shard * ms,
    );
    println!(
        "speedups: sharded vs per-rule indexed (dedup cross-site space) {:.1}x, \
         vs global batch trie {:.1}x, vs site-local per-rule indexed {:.1}x; \
         global batch vs reference {:.1}x",
        t_idx / t_shard,
        t_gbatch / t_shard,
        t_idx_local / t_shard,
        t_ref / t_gbatch,
    );
    let (cache_hits, cache_misses) = cache_stats(&t_cached);
    println!(
        "repeated-template workload ({} sites x {} pages): sharded no-cache {:.3} ms, \
         template cache {:.3} ms ({:.1}x; {} replayed / {} other page evaluations)",
        tsites.len(),
        tpages.len(),
        t_template_nocache * ms,
        t_template_cached * ms,
        t_template_nocache / t_template_cached,
        cache_hits,
        cache_misses,
    );
    println!(
        "variable-length workload ({} sites x {} pages): sharded no-cache {:.3} ms, \
         record replay {:.3} ms ({:.1}x; {} frames stitched, {} records replayed, \
         {} records fell back, {} whole-page replays)",
        vsites.len(),
        vpages.len(),
        t_varlen_nocache * ms,
        t_varlen_cached * ms,
        t_varlen_nocache / t_varlen_cached,
        varlen_replay.frame_replays,
        varlen_replay.record_replays,
        varlen_replay.record_fallbacks,
        varlen_replay.full_replays,
    );
    println!(
        "streaming parse→index ({} pages): classic parse-then-index {:.3} ms, \
         one-pass stream {:.3} ms ({stream_parse_speedup:.2}x)",
        html_pages.len(),
        t_parse_classic * ms,
        t_parse_stream * ms,
    );
    println!(
        "service throughput (in-process): {} single-page requests in {:.3} ms → {:.0} requests/sec",
        requests.len(),
        t_service * ms,
        inprocess_rps,
    );
    println!(
        "health accounting: stream without tracking {:.3} ms → ratio {:.3} \
         (health-on / health-off throughput)",
        t_service_off * ms,
        service_health_ratio,
    );
    println!(
        "HTTP serving: keep-alive reactor {:.3} ms ({:.0} rps)",
        t_keepalive * ms,
        service_rps,
    );
    println!(
        "request latency (reactor, {} samples): p50 {} µs, p90 {} µs, p99 {} µs, max {} µs",
        latency.count, latency.p50_us, latency.p90_us, latency.p99_us, latency.max_us,
    );
    println!(
        "relearn recovery: {} drifted requests to degrade, relearn+swap {:.3} ms, \
         {} requests to journal recovery",
        requests_to_degrade,
        t_relearn * ms,
        requests_to_recover,
    );
    println!(
        "bundle cold start ({bundle_sites} sites): v2 JSON {:.1} ms ({} bytes) vs \
         v3 binary {:.3} ms ({} bytes) to first extraction → {bundle_cold_start:.0}x",
        t_v2_cold * ms,
        v2_bytes,
        t_v3_cold * ms,
        v3_bytes,
    );
    println!(
        "registry fault+evict ({} sites): {:.2} µs at cap 128, {:.2} µs at cap 1024, \
         {:.2} µs at cap 8192 → flatness {registry_fault_flatness:.2}",
        fault_keys.len(),
        fault_us[0],
        fault_us[1],
        fault_us[2],
    );
    if parallel.is_empty() {
        println!("parallel scaling: skipped ({available} core available)");
    }
    for &(k, t) in &parallel {
        println!(
            "  sharded x{k} threads: {:.3} ms ({:.2}x over sequential sharded)",
            t * ms,
            t_shard / t,
        );
    }

    let scaling = |pairs: &[(usize, f64)]| -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|&(k, t)| (k.to_string(), num(t_shard / t)))
                .collect(),
        )
    };
    let report = obj(vec![
        ("schema", num(1.0)),
        ("bench", Value::String("xpath_shard".into())),
        (
            "corpus",
            obj(vec![
                ("sites", num(sites.len() as f64)),
                ("pages", num(pages.len() as f64)),
                ("candidates", num(candidates as f64)),
                ("candidates_deduplicated", num(global_space.len() as f64)),
                ("global_pairs", num(global_pairs as f64)),
                ("site_local_pairs", num(local_pairs as f64)),
                ("sharded_distinct_steps", num(sharded_steps as f64)),
                ("sharded_distinct_variants", num(sharded_variants as f64)),
            ]),
        ),
        (
            "timings_ms",
            obj(vec![
                ("reference_global", num(t_ref * ms)),
                ("indexed_global", num(t_idx * ms)),
                ("global_batch", num(t_gbatch * ms)),
                ("indexed_local", num(t_idx_local * ms)),
                ("sharded", num(t_shard * ms)),
                ("template_nocache", num(t_template_nocache * ms)),
                ("template_cached", num(t_template_cached * ms)),
                ("varlen_nocache", num(t_varlen_nocache * ms)),
                ("varlen_cached", num(t_varlen_cached * ms)),
                // Raw parse+index+fingerprint over the serialized
                // repeated-template pages, both request-path variants.
                ("parse_classic", num(t_parse_classic * ms)),
                ("parse_stream", num(t_parse_stream * ms)),
                ("service_stream", num(t_service * ms)),
                ("http_keepalive_stream", num(t_keepalive * ms)),
                (
                    "sharded_parallel",
                    Value::Object(
                        parallel
                            .iter()
                            .map(|&(k, t)| (k.to_string(), num(t * ms)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "speedups",
            obj(vec![
                ("sharded_vs_indexed", num(t_idx / t_shard)),
                ("sharded_vs_global_batch", num(t_gbatch / t_shard)),
                ("sharded_vs_indexed_local", num(t_idx_local / t_shard)),
                ("batch_vs_reference", num(t_ref / t_gbatch)),
                ("indexed_vs_reference", num(t_ref / t_idx)),
                (
                    "template_cache_speedup",
                    num(t_template_nocache / t_template_cached),
                ),
                // Cache off over on, on the variable-length corpus —
                // gated: record-level stitching must keep paying when
                // whole-page fingerprints do not repeat.
                (
                    "template_cache_speedup_varlen",
                    num(t_varlen_nocache / t_varlen_cached),
                ),
                // Classic two-pass parse-then-index over the one-pass
                // StreamIndexer on the repeated-template pages — gated:
                // fusing index construction into the parse must keep
                // paying on the request path.
                ("stream_parse_speedup", num(stream_parse_speedup)),
                // Not a ratio: absolute requests/sec of the keep-alive
                // HTTP stream through the reactor, over real sockets
                // (gated like the ratios; see the baseline file).
                ("service_throughput", num(service_rps)),
                // Reactor-measured p99 full-request wall time in µs —
                // report-only (the gate reads only the metrics the
                // baseline's min_speedup object names).
                ("service_p99_us", num(latency.p99_us as f64)),
                // Health-on over health-off throughput of the
                // in-process stream — gated near 1.0 so health
                // accounting stays effectively free.
                ("service_health_ratio", num(service_health_ratio)),
                // v2-eager over v3-lazy time-to-first-extraction on the
                // bundle_cold corpus (absolutes under `bundle_cold`).
                ("bundle_cold_start", num(bundle_cold_start)),
                // Lazy-registry µs per fault+evict at cap 128 over cap
                // 8192 (absolutes under `registry_fault`): gated, a
                // fault must not cost more with a larger cap.
                ("registry_fault_flatness", num(registry_fault_flatness)),
                ("parallel_scaling", scaling(&parallel)),
            ]),
        ),
        (
            "template_corpus",
            obj(vec![
                ("sites", num(tsites.len() as f64)),
                ("pages", num(tpages.len() as f64)),
                ("cache_replays", num(cache_hits as f64)),
                ("cache_other", num(cache_misses as f64)),
            ]),
        ),
        (
            "varlen_corpus",
            obj(vec![
                ("sites", num(vsites.len() as f64)),
                ("pages", num(vpages.len() as f64)),
                ("full_replays", num(varlen_replay.full_replays as f64)),
                ("frame_replays", num(varlen_replay.frame_replays as f64)),
                ("record_replays", num(varlen_replay.record_replays as f64)),
                (
                    "record_fallbacks",
                    num(varlen_replay.record_fallbacks as f64),
                ),
            ]),
        ),
        (
            "service",
            obj(vec![
                ("requests", num(requests.len() as f64)),
                // Keep-alive HTTP stream through the reactor (the
                // number `service_throughput` gates on).
                ("requests_per_sec", num(service_rps)),
                // The raw ExtractionService loop with no socket at all.
                ("requests_per_sec_inprocess", num(inprocess_rps)),
                (
                    "requests_per_sec_no_health",
                    num(requests.len() as f64 / t_service_off),
                ),
                // Reactor-measured full-request wall-time percentiles
                // (request parsed → response queued), microseconds.
                ("latency_p50_us", num(latency.p50_us as f64)),
                ("latency_p90_us", num(latency.p90_us as f64)),
                ("latency_p99_us", num(latency.p99_us as f64)),
                ("latency_max_us", num(latency.max_us as f64)),
                ("latency_samples", num(latency.count as f64)),
            ]),
        ),
        (
            "bundle_cold",
            obj(vec![
                ("sites", num(bundle_sites as f64)),
                ("v2_bytes", num(v2_bytes as f64)),
                ("v3_bytes", num(v3_bytes as f64)),
                ("v2_cold_ms", num(t_v2_cold * ms)),
                ("v3_cold_ms", num(t_v3_cold * ms)),
            ]),
        ),
        (
            "registry_fault",
            obj(vec![
                ("sites", num(fault_keys.len() as f64)),
                ("us_cap_128", num(fault_us[0])),
                ("us_cap_1024", num(fault_us[1])),
                ("us_cap_8192", num(fault_us[2])),
            ]),
        ),
        (
            "relearn_recovery",
            obj(vec![
                ("requests_to_degrade", num(requests_to_degrade as f64)),
                ("relearn_ms", num(t_relearn * ms)),
                ("requests_to_recover", num(requests_to_recover as f64)),
            ]),
        ),
        ("threads_available", num(available as f64)),
        ("passes", num(passes as f64)),
    ]);

    let json_path = std::env::var("BENCH_JSON").unwrap_or_else(|_| {
        // CARGO_MANIFEST_DIR is crates/bench; the workspace target dir
        // sits two levels up.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_xpath.json").to_string()
    });
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&json_path, rendered + "\n")
        .unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!("wrote {json_path}");

    if let Ok(baseline_path) = std::env::var("BENCH_BASELINE") {
        gate(&report, &baseline_path);
    }
}

/// Fails the process when a measured speedup drops below the committed
/// baseline's `min_speedup` thresholds (kept generous: CI runners are
/// noisy and slow).
fn gate(report: &Value, baseline_path: &str) {
    // Cargo runs bench binaries with the package as working directory;
    // fall back to resolving workspace-root-relative paths.
    let from_root = format!(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../{}"),
        baseline_path
    );
    let text = std::fs::read_to_string(baseline_path)
        .or_else(|_| std::fs::read_to_string(&from_root))
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("cannot parse baseline {baseline_path}: {e}"));
    let minimums = baseline
        .get("min_speedup")
        .expect("baseline has a min_speedup object");
    let Value::Object(entries) = minimums else {
        panic!("min_speedup must be an object");
    };

    let mut failures: Vec<String> = Vec::new();
    for (metric, min) in entries {
        let min = min.as_f64().expect("threshold is a number");
        let measured = report
            .get("speedups")
            .and_then(|s| s.get(metric))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("baseline names unknown speedup metric '{metric}'"));
        if measured < min {
            failures.push(format!(
                "  {metric}: measured {measured:.2}x < baseline minimum {min:.2}x"
            ));
        } else {
            println!("gate ok: {metric} {measured:.2}x >= {min:.2}x");
        }
    }
    if !failures.is_empty() {
        eprintln!("BENCH GATE FAILED against {baseline_path}:");
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
    println!("bench gate passed ({baseline_path})");
}
