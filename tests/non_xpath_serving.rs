//! Only an xpath rule compiles into a batch trie with a cross-page
//! template cache. A TABLE, LR or HLRT wrapper served through
//! `ExtractionService` runs no xpath engine at all: it reports no
//! template-cache counters, detects no record layout on the pages it
//! serves, lists `"replay": null` in `GET /wrappers`, and feeds no
//! replay misses into its site's health, however novel the page shapes.
//! An xpath wrapper on the same pages still replays.

use autowrappers::prelude::*;
use aw_serve::{respond, Request};
use serde::Value;
use std::sync::Arc;

const SITE: &str = "stores";

fn wrapper_in(language: WrapperLanguage) -> CompiledWrapper {
    let site = Site::from_html(&[page(2, 0), page(3, 100)]);
    let mut labels = NodeSet::new();
    labels.extend(site.find_text("NAME 0 CO"));
    labels.extend(site.find_text("NAME 102 CO"));
    CompiledWrapper::from_rule(LearnedRule::learn(&site, language, &labels))
}

/// A page of one script with `rows` store records named from `first`
/// on. Each record count is a distinct whole-page shape around one
/// shared frame, so an xpath template cache misses whole-page lookups
/// and stitches frames.
fn page(rows: usize, first: usize) -> String {
    let mut html = String::from("<html><body><h1>Stores</h1><table class='stores'>");
    for i in first..first + rows {
        let street = ["Elm", "Oak", "Fir", "Ash", "Pine"][i % 5];
        html.push_str(&format!(
            "<tr><td><b>NAME {i} CO</b></td><td>{i} {street}</td></tr>"
        ));
    }
    html + "</table><p>footer</p></body></html>"
}

/// A full health window of single-page requests, every page a new shape.
fn crawl() -> Vec<String> {
    let window = HealthThresholds::default().window;
    (0..window).map(|i| page(i + 2, 10 * i)).collect()
}

/// The `GET /wrappers` entry of [`SITE`].
fn listed(service: &ExtractionService) -> Value {
    let reply = respond(
        service,
        &Request {
            method: "GET".into(),
            path: "/wrappers".into(),
            body: Vec::new(),
        },
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let body = serde_json::from_str(&reply.body).unwrap();
    let Some(Value::Array(sites)) = body.get("sites") else {
        panic!("no sites array: {}", reply.body);
    };
    sites
        .iter()
        .find(|s| s.get("site").and_then(Value::as_str) == Some(SITE))
        .cloned()
        .expect("site listed")
}

/// Serves [`crawl`] page by page, then returns the service and the
/// number of served pages whose index computed a record layout.
fn serve(language: WrapperLanguage) -> (ExtractionService, usize) {
    let registry = Arc::new(WrapperRegistry::new());
    registry.insert(SITE, wrapper_in(language));
    let service = ExtractionService::new(Arc::clone(&registry)).with_executor(Executor::new(2));
    let wrapper = registry.get(SITE).unwrap();
    let mut layouts = 0;
    for html in crawl() {
        let response = service
            .handle(&ExtractRequest::single(SITE, html.clone()))
            .unwrap();
        // The same page through the serving wrapper, parsed the way the
        // service parses it, so its index can be inspected afterwards.
        let doc = aw_dom::parse_indexed(&html).into_document();
        let values = wrapper.extract_values(&doc);
        assert_eq!(response.pages, vec![values.clone()], "{language}");
        assert!(!values.is_empty(), "{language} extracts from {html}");
        layouts += usize::from(doc.index().record_layout_computed());
    }
    (service, layouts)
}

#[test]
fn non_xpath_wrappers_run_no_template_cache_and_report_no_replays() {
    for language in [
        WrapperLanguage::Lr,
        WrapperLanguage::Hlrt,
        WrapperLanguage::Table,
    ] {
        let (service, layouts) = serve(language);
        let wrapper = service.registry().get(SITE).unwrap();
        assert_eq!(wrapper.template_cache_stats(), None, "{language}");
        assert_eq!(wrapper.template_replay_stats(), None, "{language}");
        assert_eq!(layouts, 0, "{language} computed record layouts");
        let entry = listed(&service);
        assert_eq!(entry.get("replay"), Some(&Value::Null), "{language}");
        let health = service.site_health(SITE).unwrap();
        assert_eq!(
            health.window_pages,
            HealthThresholds::default().window,
            "{language}"
        );
        assert_eq!(health.replay_miss_rate, 0.0, "{language}");
    }
}

#[test]
fn xpath_wrapper_on_the_same_pages_still_replays() {
    let (service, layouts) = serve(WrapperLanguage::XPath);
    let wrapper = service.registry().get(SITE).unwrap();
    let (replays, _) = wrapper.template_cache_stats().expect("xpath caches");
    let stats = wrapper.template_replay_stats().expect("xpath caches");
    assert!(replays > 0 && stats.frame_replays > 0, "{stats:?}");
    assert!(layouts > 0, "whole-page misses detect record layouts");
    let entry = listed(&service);
    let Some(Value::Object(_)) = entry.get("replay") else {
        panic!("xpath replay not listed: {entry:?}");
    };
    assert!(service.site_health(SITE).unwrap().replay_miss_rate > 0.0);
}
