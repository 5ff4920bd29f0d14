//! Differential + concurrency tests of the serving stack
//! (`WrapperBundle` → `WrapperRegistry` → `ExtractionService`).
//!
//! The serving invariants:
//!
//! * service responses are **byte-identical** to direct
//!   [`CompiledWrapper::extract_pages_with`] for every language, thread
//!   count, and template-cache setting;
//! * v1 single-wrapper artifacts load through the v2 bundle reader with
//!   byte-identical extraction;
//! * concurrent `handle` calls equal sequential evaluation;
//! * hot-swapping a bundle under load never serves a torn registry;
//! * structurally identical pages arriving in separate requests hit the
//!   per-site template cache (replay counter asserted).

use autowrappers::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn training_site() -> Site {
    let page = |rows: &[(&str, &str)]| {
        let mut s = String::from("<table class='stores'>");
        for (n, a) in rows {
            s.push_str(&format!("<tr><td><b>{n}</b></td><td><u>{a}</u></td></tr>"));
        }
        s + "</table>"
    };
    Site::from_html(&[
        page(&[("ALPHA CO", "1 Elm"), ("BETA LLC", "2 Oak")]),
        page(&[("GAMMA INC", "3 Fir"), ("DELTA LTD", "4 Ash")]),
    ])
}

fn name_seed(site: &Site) -> NodeSet {
    let mut l = NodeSet::new();
    l.extend(site.find_text("ALPHA CO"));
    l.extend(site.find_text("DELTA LTD"));
    l
}

fn addr_seed(site: &Site) -> NodeSet {
    let mut l = NodeSet::new();
    l.extend(site.find_text("1 Elm"));
    l.extend(site.find_text("4 Ash"));
    l
}

fn wrapper_for(language: WrapperLanguage) -> CompiledWrapper {
    let site = training_site();
    let seed = name_seed(&site);
    CompiledWrapper::from_rule(LearnedRule::learn(&site, language, &seed))
}

/// A small "crawl" of the training script: template-identical pages
/// (same record count) plus junk.
fn crawl_html() -> Vec<String> {
    let fresh = |a: &str, b: &str| {
        format!(
            "<table class='stores'><tr><td><b>{a}</b></td><td><u>9 Elm</u></td></tr>\
             <tr><td><b>{b}</b></td><td><u>7 Oak</u></td></tr></table>"
        )
    };
    vec![
        fresh("OMEGA GROUP", "SIGMA BROS"),
        fresh("KAPPA SONS", "THETA WORKS"),
        "<p>unrelated page</p>".to_string(),
        fresh("IOTA HOME", "ZETA DECOR"),
        String::new(),
    ]
}

/// What direct (service-free) evaluation of `wrapper` extracts from the
/// crawl — the oracle every service configuration must match.
fn direct_values(wrapper: &CompiledWrapper, html: &[String]) -> Vec<Vec<String>> {
    let docs: Vec<Document> = html.iter().map(|h| parse(h)).collect();
    wrapper
        .extract_pages_with(&docs, Executor::global())
        .into_iter()
        .zip(&docs)
        .map(|(ids, doc)| {
            ids.into_iter()
                .filter_map(|id| doc.text(id).map(str::to_string))
                .collect()
        })
        .collect()
}

#[test]
fn service_matches_direct_extraction_for_every_language_thread_count_and_cache_setting() {
    let crawl = crawl_html();
    for language in WrapperLanguage::ALL {
        let expected = direct_values(&wrapper_for(language), &crawl);
        for cache in [true, false] {
            for threads in [1, 2, 8] {
                let registry = Arc::new(WrapperRegistry::new());
                registry.insert("s", wrapper_for(language).with_template_cache(cache));
                let service = ExtractionService::new(Arc::clone(&registry))
                    .with_executor(Executor::new(threads));
                // One multi-page request…
                let multi = service
                    .handle(&ExtractRequest {
                        site: "s".into(),
                        pages: crawl.clone(),
                    })
                    .unwrap();
                assert_eq!(
                    multi.pages, expected,
                    "{language}, cache {cache}, threads {threads}"
                );
                // …and the same crawl as single-page requests.
                for (html, want) in crawl.iter().zip(&expected) {
                    let single = service
                        .handle(&ExtractRequest::single("s", html.clone()))
                        .unwrap();
                    assert_eq!(
                        &single.pages[0], want,
                        "{language}, cache {cache}, threads {threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn v1_artifacts_load_through_the_bundle_reader_byte_identically() {
    let crawl = crawl_html();
    for language in WrapperLanguage::ALL {
        let wrapper = wrapper_for(language);
        let expected = direct_values(&wrapper, &crawl);
        // v1 payload → v2 reader → registry → service.
        let bundle = WrapperBundle::from_json(&wrapper.to_json()).unwrap();
        assert_eq!(
            bundle.site_keys().collect::<Vec<_>>(),
            [aw_core::V1_SITE_KEY]
        );
        let registry = Arc::new(WrapperRegistry::from_bundle(bundle));
        let service = ExtractionService::new(registry);
        let response = service
            .handle(&ExtractRequest {
                site: aw_core::V1_SITE_KEY.into(),
                pages: crawl.clone(),
            })
            .unwrap();
        assert_eq!(response.pages, expected, "{language}");
        assert_eq!(response.language, language);
    }
}

#[test]
fn bundle_round_trip_preserves_extraction_per_language() {
    let crawl = crawl_html();
    let mut bundle = WrapperBundle::new();
    for language in WrapperLanguage::ALL {
        bundle.insert(format!("site-{language}"), wrapper_for(language));
    }
    let restored = WrapperBundle::from_json(&bundle.to_json()).unwrap();
    for language in WrapperLanguage::ALL {
        let key = format!("site-{language}");
        assert_eq!(
            direct_values(restored.get(&key).unwrap(), &crawl),
            direct_values(bundle.get(&key).unwrap(), &crawl),
            "{language}"
        );
    }
}

#[test]
fn concurrent_handles_from_8_threads_match_sequential_evaluation() {
    let crawl = crawl_html();
    for cache in [true, false] {
        let registry = Arc::new(WrapperRegistry::new());
        registry.insert(
            "s",
            wrapper_for(WrapperLanguage::XPath).with_template_cache(cache),
        );
        let service =
            Arc::new(ExtractionService::new(Arc::clone(&registry)).with_executor(Executor::new(4)));
        let requests: Vec<ExtractRequest> = crawl
            .iter()
            .map(|html| ExtractRequest::single("s", html.clone()))
            .collect();
        let sequential: Vec<Vec<Vec<String>>> = requests
            .iter()
            .map(|r| service.handle(r).unwrap().pages)
            .collect();
        let all: Vec<Vec<Vec<Vec<String>>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let requests = &requests;
                    scope.spawn(move || {
                        // Several passes per thread, to interleave with
                        // the template cache in every state.
                        let mut last = Vec::new();
                        for _ in 0..5 {
                            last = requests
                                .iter()
                                .map(|r| service.handle(r).unwrap().pages)
                                .collect();
                        }
                        last
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, got) in all.iter().enumerate() {
            assert_eq!(got, &sequential, "thread {t}, cache {cache}");
        }
    }
}

#[test]
fn repeated_template_requests_hit_the_cache_across_requests() {
    let registry = Arc::new(WrapperRegistry::new());
    registry.insert("s", wrapper_for(WrapperLanguage::XPath));
    let service = ExtractionService::new(Arc::clone(&registry));
    // Structurally identical single-page requests (text differs only).
    let crawl = crawl_html();
    let template_pages: Vec<&String> = crawl.iter().filter(|h| h.contains("stores")).collect();
    assert!(template_pages.len() >= 3);
    for html in &template_pages {
        service
            .handle(&ExtractRequest::single("s", (*html).clone()))
            .unwrap();
    }
    let (hits, misses) = registry
        .get("s")
        .unwrap()
        .template_cache_stats()
        .expect("cache on by default");
    assert_eq!(
        (hits, misses),
        (template_pages.len() as u64 - 2, 2),
        "first request bypasses, second records, the rest replay"
    );
}

#[test]
fn concurrent_removes_under_load_leave_survivors_serving() {
    // Half the sites are removed while hammer threads request all of
    // them: a removed site must flip cleanly to UnknownSite (never a
    // torn snapshot or a poisoned lock), survivors must keep serving.
    let registry = Arc::new(WrapperRegistry::new());
    let sites: Vec<String> = (0..8).map(|i| format!("site-{i}")).collect();
    for site in &sites {
        registry.insert(site.clone(), wrapper_for(WrapperLanguage::XPath));
    }
    let service = Arc::new(ExtractionService::new(Arc::clone(&registry)));
    let page = "<table class='stores'><tr><td><b>OMEGA</b></td><td><u>9 Elm</u></td></tr></table>";
    let stop = AtomicBool::new(false);
    // Removals start only once some request has been served, so the
    // load really overlaps them however the threads are scheduled.
    let serving = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let mut checkers = Vec::new();
        for _ in 0..4 {
            let service = Arc::clone(&service);
            let (sites, stop, serving) = (&sites, &stop, &serving);
            checkers.push(scope.spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for site in sites {
                        match service.handle(&ExtractRequest::single(site.clone(), page)) {
                            Ok(response) => {
                                assert_eq!(response.pages, vec![vec!["OMEGA".to_string()]]);
                                served += 1;
                                serving.store(true, Ordering::Relaxed);
                            }
                            Err(AwError::UnknownSite(key)) => assert_eq!(&key, site),
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                }
                served
            }));
        }
        while !serving.load(Ordering::Relaxed) && !checkers.iter().all(|c| c.is_finished()) {
            std::thread::yield_now();
        }
        for (i, site) in sites.iter().enumerate() {
            if i % 2 == 1 {
                assert!(registry.remove(site), "first remove wins");
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        let served: u64 = checkers.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(served > 0);
    });

    let survivors: Vec<String> = (0..8).step_by(2).map(|i| format!("site-{i}")).collect();
    assert_eq!(registry.site_keys(), survivors);
    for site in &survivors {
        assert!(service
            .handle(&ExtractRequest::single(site.clone(), page))
            .is_ok());
    }
}

#[test]
fn empty_bundle_loads_and_serves_unknown_site_for_everything() {
    // A zero-site bundle is a legitimate deployment (e.g. draining a
    // shard): it must round-trip, load, bump the generation, and turn
    // every request into a clean UnknownSite.
    let empty = WrapperBundle::from_json(&WrapperBundle::new().to_json()).unwrap();
    assert_eq!(empty.len(), 0);
    let registry = Arc::new(WrapperRegistry::new());
    registry.insert("s", wrapper_for(WrapperLanguage::XPath));
    let generation = registry.load_bundle(empty);
    assert_eq!(generation, 2, "empty loads still swap generations");
    assert!(registry.is_empty());
    let service = ExtractionService::new(Arc::clone(&registry));
    assert_eq!(
        service
            .handle(&ExtractRequest::single("s", "<p>x</p>".to_string()))
            .unwrap_err(),
        AwError::UnknownSite("s".into())
    );
    // From-bundle construction of an empty registry works too.
    let fresh = WrapperRegistry::from_bundle(WrapperBundle::new());
    assert!(fresh.is_empty());
    assert_eq!(fresh.generation(), 1);
}

#[test]
fn hot_swap_under_load_never_serves_a_torn_registry() {
    let site = training_site();
    // Two deployments for the same site key: A extracts names (<b>), B
    // extracts addresses (<u>). A torn state would pair A's rule with
    // B's values or vice versa.
    let wrapper_a = || {
        CompiledWrapper::from_rule(LearnedRule::learn(
            &site,
            WrapperLanguage::XPath,
            &name_seed(&site),
        ))
    };
    let wrapper_b = || {
        CompiledWrapper::from_rule(LearnedRule::learn(
            &site,
            WrapperLanguage::XPath,
            &addr_seed(&site),
        ))
    };
    let page = "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td><u>9 Elm</u></td></tr>\
                <tr><td><b>SIGMA BROS</b></td><td><u>7 Oak</u></td></tr></table>";
    let expected_a = (
        wrapper_a().rule().to_string(),
        vec!["OMEGA GROUP".to_string(), "SIGMA BROS".to_string()],
    );
    let expected_b = (
        wrapper_b().rule().to_string(),
        vec!["9 Elm".to_string(), "7 Oak".to_string()],
    );
    assert_ne!(
        expected_a, expected_b,
        "deployments must be distinguishable"
    );

    let registry = Arc::new(WrapperRegistry::new());
    registry.insert("s", wrapper_a());
    let service = Arc::new(ExtractionService::new(Arc::clone(&registry)));
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Hammer threads: every response must be exactly one deployment.
        let mut checkers = Vec::new();
        for _ in 0..4 {
            let service = Arc::clone(&service);
            let (stop, expected_a, expected_b) = (&stop, &expected_a, &expected_b);
            checkers.push(scope.spawn(move || {
                let request = ExtractRequest::single("s", page.to_string());
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let response = service.handle(&request).expect("site stays registered");
                    let got = (response.rule, response.pages.into_iter().next().unwrap());
                    assert!(
                        &got == expected_a || &got == expected_b,
                        "torn response: {got:?}"
                    );
                    served += 1;
                }
                served
            }));
        }
        // Swapper: alternate full-bundle hot swaps under the load.
        let mut last_generation = registry.generation();
        for round in 0..60 {
            let mut bundle = WrapperBundle::new();
            bundle.insert(
                "s",
                if round % 2 == 0 {
                    wrapper_b()
                } else {
                    wrapper_a()
                },
            );
            let generation = registry.load_bundle(bundle);
            assert!(generation > last_generation, "generations are monotone");
            last_generation = generation;
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let served: u64 = checkers.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(served > 0, "the load threads must actually have served");
    });
}
