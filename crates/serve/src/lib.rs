//! # aw-serve — the std-only HTTP front end of the extraction service
//!
//! Production extraction fronts a resident wrapper store with a network
//! service: wrappers are learned offline, bundled
//! ([`aw_core::WrapperBundle`]), loaded into a hot-swappable
//! [`aw_core::WrapperRegistry`], and applied to whatever pages traffic
//! brings. This crate is that front end, built on nothing but
//! `std::net` — the build environment has no crates.io access, so
//! request parsing is hand-rolled (a deliberately small HTTP/1.1
//! subset, documented in `README.md`).
//!
//! ## Endpoints
//!
//! | Method & path    | Body                 | Reply |
//! |------------------|----------------------|-------|
//! | `POST /extract`  | `{"site": K, "html": H}` or `{"site": K, "pages": [H…]}` | extracted values per page + per-page parse errors |
//! | `GET /wrappers`  | —                    | resident sites, rules, template-cache stats (`replay` is `null` for non-XPath wrappers, which have no cache), health, residency counters |
//! | `POST /wrappers` | a wrapper artifact of **any generation** — v1 single-wrapper JSON, v2 bundle JSON, or v3 binary bundle | hot-swaps the registry |
//! | `GET /healthz`   | —                    | liveness + site count + registry generation |
//! | `GET /health`    | —                    | every observed site's health + the event journal tail |
//! | `GET /health/{site}` | —                | one site's extraction-health counters |
//!
//! All replies are JSON. Errors carry `{"error": message}` — plus the
//! offending `"site"` key when the error names one — with 400
//! (malformed request / bundle), 404 (unknown site or path), 405
//! (method not allowed), 413 (oversized payload) or 500 (a damaged
//! bundle-store segment behind a lazy registry).
//!
//! When the service's registry is **lazy** (`awrap serve --lazy`, built
//! over a v3 [`aw_core::BundleStore`]), `GET /wrappers` lists only the
//! *resident* wrappers plus a `"residency"` object (cap, store size,
//! fault/eviction/grace counters, pinned inserts); extraction requests
//! fault wrappers in transparently (CLOCK eviction over a slot table
//! keeps each fault's cost independent of the cap), so the endpoint
//! surface is otherwise identical. `POST /wrappers` detaches the store:
//! the upload becomes the registry's whole content.
//!
//! ## Threading model
//!
//! [`Server::start`] runs one engine, **`aw-reactor`**: a single
//! event-loop thread multiplexes every connection over `poll(2)` with
//! HTTP/1.1 keep-alive and pipelining, per-connection read/idle
//! deadlines, and bounded accept/inflight queues (overload answers
//! `503` + `Retry-After`, while `GET /healthz` keeps answering). Parsed
//! requests are handed to a small team of service workers and
//! completions come back through a wake pipe. See the `reactor` module
//! docs for the full state machine. The crate is unix-only: `poll(2)`
//! and the wake pipe have no other backend.
//!
//! Framing lives in one socket-free layer (`proto`); a socket-level
//! differential test holds the reactor's wire bytes equal to what that
//! layer and [`respond`] compute in-process. The extraction work inside
//! a request is *not* done on private pools: the service workers call
//! into one shared [`ExtractionService`], whose [`aw_pool::Executor`]
//! is the process-wide work-stealing team — page-parallel evaluation
//! from many simultaneous connections interleaves in one pool instead
//! of oversubscribing the machine. The per-site template caches live in
//! the registry's xpath wrappers, so structurally identical pages
//! arriving on different connections still replay each other's traces.
//! Every request's wall time goes into the service's
//! [`aw_core::LatencyHistogram`], surfaced as the `latency` object of
//! `GET /wrappers`.
//!
//! ```no_run
//! use aw_core::{ArtifactReader, ExtractionService, WrapperRegistry};
//! use aw_serve::Server;
//! use std::sync::Arc;
//!
//! // Any artifact generation: v1/v2 JSON loads eagerly, a v3 binary
//! // bundle would load here too (eagerly, via into_bundle).
//! let bundle = ArtifactReader::open("bundle.json")?.into_bundle()?;
//! let registry = Arc::new(WrapperRegistry::from_bundle(bundle));
//! let service = Arc::new(ExtractionService::new(registry));
//! let server = Server::bind(service, "127.0.0.1:0")?.workers(4);
//! println!("serving on http://{}", server.local_addr()?);
//! server.start()?.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#[cfg(not(unix))]
compile_error!("aw-serve is unix-only: the reactor needs poll(2) and a UnixStream wake pipe");

mod http;
mod proto;
mod reactor;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod test_support;

pub use http::{Server, ServerHandle};

use aw_core::{ArtifactReader, AwError, ExtractRequest, ExtractionService};
use serde::Value;

/// A parsed HTTP request, reduced to what the router needs.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), uppercase as received.
    pub method: String,
    /// The request path, query string stripped.
    pub path: String,
    /// The request body, raw (empty for bodyless requests). Bytes, not
    /// a string: `POST /wrappers` accepts v3 *binary* bundles; the
    /// JSON endpoints validate UTF-8 themselves.
    pub body: Vec<u8>,
}

/// What the router decided; the HTTP layer adds the framing.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
}

impl Response {
    fn json(status: u16, value: &Value) -> Response {
        Response {
            status,
            body: serde_json::to_string(value).expect("response serialization is infallible"),
        }
    }

    pub(crate) fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(status, &obj(vec![("error", Value::String(message.into()))]))
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn strings(items: impl IntoIterator<Item = String>) -> Value {
    Value::Array(items.into_iter().map(Value::String).collect())
}

/// Maps a service error onto an HTTP status.
fn status_of(error: &AwError) -> u16 {
    match error {
        AwError::UnknownSite(_) => 404,
        // A damaged segment in the server's own bundle store (or an
        // I/O failure reading it) is not the client's fault.
        AwError::CorruptSegment { .. } | AwError::TruncatedBundle { .. } | AwError::Io(_) => 500,
        // Artifact/bundle shape problems are the client's fault.
        _ => 400,
    }
}

/// An error response carrying the offending site key alongside the
/// message when the error names one — clients retrying a batch need the
/// key machine-readable, not buried in the display string.
fn error_response(error: &AwError) -> Response {
    error_response_as(status_of(error), error)
}

/// [`error_response`] at an explicit status: the upload path reports
/// even corrupt-segment errors as 400 (the *client's* payload was
/// damaged), while the same error from the server's own bundle store
/// is a 500.
fn error_response_as(status: u16, error: &AwError) -> Response {
    let mut entries = vec![("error", Value::String(error.to_string()))];
    if let Some(site) = error.site() {
        entries.push(("site", Value::String(site.to_string())));
    }
    Response::json(status, &obj(entries))
}

/// Routes one request against the service — the whole protocol, pure of
/// any socket so it is directly testable (and reusable by in-process
/// callers).
pub fn respond(service: &ExtractionService, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(service),
        ("GET", "/health") => all_health(service),
        ("GET", "/wrappers") => list_wrappers(service),
        ("POST", "/wrappers") => load_wrappers(service, &request.body),
        ("POST", "/extract") => extract(service, &request.body),
        (_, "/healthz" | "/health" | "/wrappers" | "/extract") => {
            Response::error(405, format!("method {} not allowed here", request.method))
        }
        // "/healthz" cannot reach here: it lacks the trailing slash.
        (method, path) => match path.strip_prefix("/health/") {
            Some(site) if method == "GET" => site_health(service, site),
            Some(_) => Response::error(405, format!("method {method} not allowed here")),
            None => Response::error(404, format!("no such endpoint {path:?}")),
        },
    }
}

/// Renders one site's health snapshot.
fn health_json(health: &aw_core::SiteHealth) -> Value {
    obj(vec![
        ("site", Value::String(health.site.clone())),
        ("requests", Value::Number(health.requests as f64)),
        ("pages", Value::Number(health.pages as f64)),
        ("error_pages", Value::Number(health.error_pages as f64)),
        ("window_pages", Value::Number(health.window_pages as f64)),
        ("empty_rate", Value::Number(health.empty_rate)),
        ("replay_miss_rate", Value::Number(health.replay_miss_rate)),
        ("shape_drift", Value::Number(health.shape_drift)),
        (
            "retained_pages",
            Value::Number(health.retained_pages as f64),
        ),
        ("degraded", Value::Bool(health.degraded)),
    ])
}

fn site_health(service: &ExtractionService, site: &str) -> Response {
    match service.site_health(site) {
        Some(health) => Response::json(200, &health_json(&health)),
        None => error_response(&AwError::UnknownSite(site.to_string())),
    }
}

/// The journal entries shown by `GET /health` (newest kept).
const JOURNAL_TAIL: usize = 32;

fn all_health(service: &ExtractionService) -> Response {
    let sites: Vec<Value> = service.all_health().iter().map(health_json).collect();
    let journal = service.health().journal();
    let tail: Vec<Value> = journal
        .iter()
        .skip(journal.len().saturating_sub(JOURNAL_TAIL))
        .map(|event| Value::String(event.to_string()))
        .collect();
    Response::json(
        200,
        &obj(vec![
            ("sites", Value::Array(sites)),
            ("journal", Value::Array(tail)),
        ]),
    )
}

fn healthz(service: &ExtractionService) -> Response {
    // One snapshot read: the (site count, generation) pair must not
    // straddle a concurrent hot swap. Allocation-free — load balancers
    // poll this every few seconds.
    let (generation, sites) = service.registry().snapshot_stats();
    Response::json(
        200,
        &obj(vec![
            ("status", Value::String("ok".into())),
            ("sites", Value::Number(sites as f64)),
            ("generation", Value::Number(generation as f64)),
        ]),
    )
}

fn list_wrappers(service: &ExtractionService) -> Response {
    let (generation, entries) = service.registry().snapshot_entries();
    let sites: Vec<Value> = entries
        .into_iter()
        .map(|(key, wrapper)| {
            let (replays, other) = wrapper.template_cache_stats().unwrap_or((0, 0));
            // Replay-path breakdown: `template_replays` splits into
            // verbatim whole-page replays and stitched frame (partial)
            // replays; record counters describe stitching within the
            // latter. Null for non-xpath wrappers (no template cache)
            // and for xpath wrappers with the cache disabled.
            let replay = match wrapper.template_replay_stats() {
                Some(stats) => obj(vec![
                    ("full_replays", Value::Number(stats.full_replays as f64)),
                    ("frame_replays", Value::Number(stats.frame_replays as f64)),
                    ("record_replays", Value::Number(stats.record_replays as f64)),
                    (
                        "record_fallbacks",
                        Value::Number(stats.record_fallbacks as f64),
                    ),
                ]),
                None => Value::Null,
            };
            let health = match service.site_health(&key) {
                Some(health) => health_json(&health),
                None => Value::Null,
            };
            obj(vec![
                ("site", Value::String(key)),
                ("language", Value::String(wrapper.language().to_string())),
                ("rule", Value::String(wrapper.rule().to_string())),
                ("template_replays", Value::Number(replays as f64)),
                ("template_other", Value::Number(other as f64)),
                ("replay", replay),
                ("health", health),
            ])
        })
        .collect();
    let stats = service.registry().residency_stats();
    let opt = |value: Option<usize>| match value {
        Some(n) => Value::Number(n as f64),
        None => Value::Null,
    };
    let residency = obj(vec![
        ("resident", Value::Number(stats.resident as f64)),
        ("max_resident", opt(stats.max_resident)),
        ("store_sites", opt(stats.store_sites)),
        ("faults", Value::Number(stats.faults as f64)),
        ("evictions", Value::Number(stats.evictions as f64)),
        ("grace_entries", Value::Number(stats.grace_entries as f64)),
        ("grace_hits", Value::Number(stats.grace_hits as f64)),
        ("pinned", Value::Number(stats.pinned as f64)),
    ]);
    // Request-path parse counters: how many pages were parsed, by which
    // parse path (streaming one-pass vs classic fallback), and the
    // cumulative wall time spent parsing + indexing.
    let parse_stats = service.parse_stats();
    let parse = obj(vec![
        ("pages", Value::Number(parse_stats.pages as f64)),
        ("stream", Value::Number(parse_stats.stream as f64)),
        ("fallback", Value::Number(parse_stats.fallback as f64)),
        ("micros", Value::Number(parse_stats.micros as f64)),
    ]);
    // Request-latency percentiles, recorded by whichever HTTP engine
    // frames the requests (full wall time: request parsed → response
    // queued). All-zero until the first served request.
    let snapshot = service.latency().snapshot();
    let latency = obj(vec![
        ("count", Value::Number(snapshot.count as f64)),
        ("p50_us", Value::Number(snapshot.p50_us as f64)),
        ("p90_us", Value::Number(snapshot.p90_us as f64)),
        ("p99_us", Value::Number(snapshot.p99_us as f64)),
        ("max_us", Value::Number(snapshot.max_us as f64)),
    ]);
    Response::json(
        200,
        &obj(vec![
            ("generation", Value::Number(generation as f64)),
            ("sites", Value::Array(sites)),
            ("residency", residency),
            ("parse", parse),
            ("latency", latency),
        ]),
    )
}

fn load_wrappers(service: &ExtractionService, body: &[u8]) -> Response {
    // Any artifact generation — v1/v2 JSON or v3 binary — loaded
    // eagerly: an upload is a full-registry hot swap, not a store
    // attach, and it detaches a lazy registry's store. Errors are the
    // client's payload's fault, so even corrupt-segment errors are 400
    // here.
    match ArtifactReader::read_bytes(body) {
        Err(e) => error_response_as(400, &e),
        Ok(bundle) => {
            let loaded = bundle.len();
            let generation = service.registry().load_bundle(bundle);
            Response::json(
                200,
                &obj(vec![
                    ("loaded", Value::Number(loaded as f64)),
                    ("generation", Value::Number(generation as f64)),
                ]),
            )
        }
    }
}

fn extract(service: &ExtractionService, body: &[u8]) -> Response {
    let Ok(body) = std::str::from_utf8(body) else {
        return Response::error(400, "request body is not UTF-8");
    };
    let request = match parse_extract_body(body) {
        Ok(request) => request,
        Err(message) => return Response::error(400, message),
    };
    match service.handle(&request) {
        Err(e) => error_response(&e),
        Ok(response) => {
            // The reply tree takes the response's strings by move; only
            // the flattened `values` array copies them.
            let values = strings(response.values().map(str::to_string));
            let pages: Vec<Value> = response.pages.into_iter().map(strings).collect();
            let errors: Vec<Value> = response
                .errors
                .into_iter()
                .map(|error| error.map_or(Value::Null, Value::String))
                .collect();
            Response::json(
                200,
                &obj(vec![
                    ("site", Value::String(response.site)),
                    ("language", Value::String(response.language.to_string())),
                    ("rule", Value::String(response.rule)),
                    ("pages", Value::Array(pages)),
                    ("values", values),
                    ("errors", Value::Array(errors)),
                ]),
            )
        }
    }
}

/// Decodes a `POST /extract` body: `site` plus either `html` (one page)
/// or `pages` (an array of pages). The decoded strings are moved out of
/// the JSON tree, not copied. A key that appears twice counts once, at
/// its first occurrence (as `Value::get` reads it).
fn parse_extract_body(body: &str) -> Result<ExtractRequest, String> {
    let v = serde_json::from_str(body).map_err(|e| format!("request body is not JSON: {e}"))?;
    let (mut site, mut html, mut pages) = (None, None, None);
    if let Value::Object(entries) = v {
        for (key, value) in entries {
            let slot = match key.as_str() {
                "site" => &mut site,
                "html" => &mut html,
                "pages" => &mut pages,
                _ => continue,
            };
            slot.get_or_insert(value);
        }
    }
    let Some(Value::String(site)) = site else {
        return Err("missing string field \"site\"".into());
    };
    let not_strings = || "field \"pages\" must be an array of strings".to_string();
    let pages = match (html, pages) {
        (Some(Value::String(html)), None) => vec![html],
        (Some(_), None) => return Err("field \"html\" must be a string".into()),
        (None, Some(Value::Array(items))) => items
            .into_iter()
            .map(|item| match item {
                Value::String(page) => Ok(page),
                _ => Err(not_strings()),
            })
            .collect::<Result<Vec<String>, String>>()?,
        (None, Some(_)) => return Err(not_strings()),
        (Some(_), Some(_)) => return Err("carry \"html\" or \"pages\", not both".into()),
        (None, None) => return Err("missing \"html\" (string) or \"pages\" (array)".into()),
    };
    Ok(ExtractRequest { site, pages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_core::{CompiledWrapper, LearnedRule, WrapperLanguage, WrapperRegistry};
    use aw_induct::{NodeSet, Site};
    use std::sync::Arc;

    fn service() -> ExtractionService {
        let site = Site::from_html(&[
            "<table class='stores'><tr><td><b>ALPHA CO</b></td><td>1 Elm</td></tr>\
             <tr><td><b>BETA LLC</b></td><td>2 Oak</td></tr></table>",
            "<table class='stores'><tr><td><b>GAMMA INC</b></td><td>3 Fir</td></tr>\
             <tr><td><b>DELTA LTD</b></td><td>4 Ash</td></tr></table>",
        ]);
        let mut labels = NodeSet::new();
        labels.extend(site.find_text("ALPHA CO"));
        labels.extend(site.find_text("DELTA LTD"));
        let registry = WrapperRegistry::new();
        registry.insert(
            "dealers",
            CompiledWrapper::from_rule(LearnedRule::learn(&site, WrapperLanguage::XPath, &labels)),
        );
        ExtractionService::new(Arc::new(registry))
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn healthz_reports_sites_and_generation() {
        let service = service();
        let r = respond(&service, &request("GET", "/healthz", ""));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"status\":\"ok\""), "{}", r.body);
        assert!(r.body.contains("\"sites\":1"), "{}", r.body);
    }

    #[test]
    fn extract_accepts_html_and_pages_forms() {
        let service = service();
        let page = "<table class='stores'><tr><td><b>OMEGA</b></td><td>9 Elm</td></tr></table>";
        let single = respond(
            &service,
            &request(
                "POST",
                "/extract",
                &format!(r#"{{"site":"dealers","html":"{page}"}}"#),
            ),
        );
        assert_eq!(single.status, 200, "{}", single.body);
        assert!(single.body.contains("OMEGA"), "{}", single.body);
        let multi = respond(
            &service,
            &request(
                "POST",
                "/extract",
                &format!(r#"{{"site":"dealers","pages":["{page}","<p>none</p>"]}}"#),
            ),
        );
        assert_eq!(multi.status, 200, "{}", multi.body);
        assert!(
            multi.body.contains(r#""pages":[["OMEGA"],[]]"#),
            "{}",
            multi.body
        );
    }

    #[test]
    fn extract_error_statuses() {
        let service = service();
        for (body, status) in [
            ("not json", 400),
            (r#"{"html":"<p>x</p>"}"#, 400),
            (r#"{"site":"dealers"}"#, 400),
            (r#"{"site":"dealers","pages":"<p>x</p>"}"#, 400),
            (r#"{"site":"dealers","html":"<p>x</p>","pages":[]}"#, 400),
            (r#"{"site":"unknown","html":"<p>x</p>"}"#, 404),
        ] {
            let r = respond(&service, &request("POST", "/extract", body));
            assert_eq!(r.status, status, "{body} → {}", r.body);
            assert!(r.body.contains("\"error\""), "{}", r.body);
        }
    }

    #[test]
    fn extract_body_semantics_are_pinned() {
        let service = service();
        let page = "<table class='stores'><tr><td><b>OMEGA</b></td><td>9 Elm</td></tr></table>";
        // A duplicate key counts at its first occurrence.
        let first_known = respond(
            &service,
            &request(
                "POST",
                "/extract",
                &format!(r#"{{"site":"dealers","site":"unknown","html":"{page}"}}"#),
            ),
        );
        assert_eq!(first_known.status, 200, "{}", first_known.body);
        assert!(
            first_known.body.starts_with(r#"{"site":"dealers","#),
            "{}",
            first_known.body
        );
        let first_unknown = respond(
            &service,
            &request(
                "POST",
                "/extract",
                &format!(r#"{{"site":"unknown","site":"dealers","html":"{page}"}}"#),
            ),
        );
        assert_eq!(first_unknown.status, 404, "{}", first_unknown.body);
        // Wrongly typed bodies and fields, each with its own message.
        for (body, message) in [
            (r#"["dealers"]"#, r#"missing string field \"site\""#),
            (r#""dealers""#, r#"missing string field \"site\""#),
            (
                r#"{"site":5,"html":"x"}"#,
                r#"missing string field \"site\""#,
            ),
            (
                r#"{"site":"dealers","html":5}"#,
                r#"field \"html\" must be a string"#,
            ),
            (
                r#"{"site":"dealers","pages":[1]}"#,
                r#"field \"pages\" must be an array of strings"#,
            ),
            (
                r#"{"site":"dealers","pages":["<p>x</p>",null]}"#,
                r#"field \"pages\" must be an array of strings"#,
            ),
        ] {
            let r = respond(&service, &request("POST", "/extract", body));
            assert_eq!(r.status, 400, "{body} → {}", r.body);
            assert_eq!(r.body, format!(r#"{{"error":"{message}"}}"#), "{body}");
        }
    }

    #[test]
    fn escaped_pages_extract_what_their_decoded_text_does() {
        let service = service();
        let page =
            "<table class=\"stores\">\n<tr><td><b>CAFÉ \"É\"</b></td><td>9 Elm</td></tr></table>";
        // The same page with every escape spelled out by hand: `\"`,
        // `\n`, a `\u` escape and a `\/`.
        let escaped = r#"{"site":"dealers","html":"<table class=\"stores\">\n<tr><td><b>CAF\u00c9 \"É\"<\/b></td><td>9 Elm</td></tr></table>"}"#;
        let direct = service
            .handle(&ExtractRequest::single("dealers", page))
            .unwrap();
        assert_eq!(direct.pages, [["CAFÉ \"É\""]]);
        let r = respond(&service, &request("POST", "/extract", escaped));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains(r#""pages":[["CAFÉ \"É\""]]"#), "{}", r.body);
        // And byte-identical to the reply for the writer's own encoding.
        let encoded = serde_json::to_string(&obj(vec![
            ("site", Value::String("dealers".into())),
            ("html", Value::String(page.into())),
        ]))
        .unwrap();
        assert_ne!(encoded, escaped);
        assert_eq!(respond(&service, &request("POST", "/extract", &encoded)), r);
    }

    #[test]
    fn deeply_nested_bodies_are_400_and_the_service_keeps_serving() {
        let service = service();
        let deep = "[".repeat(1 << 20);
        let extract = respond(&service, &request("POST", "/extract", &deep));
        assert_eq!(extract.status, 400, "{}", extract.body);
        assert!(
            extract.body.contains("nesting deeper than"),
            "{}",
            extract.body
        );
        let objects = "{\"a\":".repeat(100_000);
        let upload = respond(&service, &request("POST", "/wrappers", &objects));
        assert_eq!(upload.status, 400, "{}", upload.body);
        assert!(
            upload.body.contains("nesting deeper than"),
            "{}",
            upload.body
        );
        assert_eq!(service.registry().site_keys(), ["dealers"]);
        assert_eq!(
            respond(&service, &request("GET", "/healthz", "")).status,
            200
        );
        let page = "<table class='stores'><tr><td><b>OMEGA</b></td><td>9 Elm</td></tr></table>";
        let after = respond(
            &service,
            &request(
                "POST",
                "/extract",
                &format!(r#"{{"site":"dealers","html":"{page}"}}"#),
            ),
        );
        assert_eq!(after.status, 200, "{}", after.body);
    }

    #[test]
    fn wrappers_listing_and_hot_swap() {
        let service = service();
        let listed = respond(&service, &request("GET", "/wrappers", ""));
        assert_eq!(listed.status, 200);
        assert!(
            listed.body.contains("\"site\":\"dealers\""),
            "{}",
            listed.body
        );

        // Hot-swap with a v1 single-wrapper artifact (loads under the
        // compatibility key).
        let artifact = service.registry().get("dealers").unwrap().to_json();
        let swapped = respond(&service, &request("POST", "/wrappers", &artifact));
        assert_eq!(swapped.status, 200, "{}", swapped.body);
        assert!(swapped.body.contains("\"loaded\":1"), "{}", swapped.body);
        assert_eq!(service.registry().site_keys(), [aw_core::V1_SITE_KEY]);

        let bad = respond(&service, &request("POST", "/wrappers", "{}"));
        assert_eq!(bad.status, 400, "{}", bad.body);
    }

    #[test]
    fn wrappers_listing_reports_replay_breakdown() {
        let service = service();
        // Variable-length pages of one script: record counts differ, so
        // whole-page fingerprints never repeat — only frame stitching
        // can replay. Page 1 bypasses, page 2 records, page 3 stitches.
        for n in [2usize, 3, 4] {
            let rows: String = (0..n)
                .map(|i| format!("<tr><td><b>DEALER {i}</b></td><td>{i} Elm</td></tr>"))
                .collect();
            let body =
                format!(r#"{{"site":"dealers","html":"<table class='stores'>{rows}</table>"}}"#);
            let r = respond(&service, &request("POST", "/extract", &body));
            assert_eq!(r.status, 200, "{}", r.body);
        }
        let listed = respond(&service, &request("GET", "/wrappers", ""));
        assert_eq!(listed.status, 200);
        assert!(
            listed.body.contains(
                "\"replay\":{\"full_replays\":0.0,\"frame_replays\":1.0,\
                 \"record_replays\":4.0,\"record_fallbacks\":0.0}"
            ),
            "{}",
            listed.body
        );
    }

    #[test]
    fn wrappers_listing_reports_parse_counters() {
        let service = service();
        // Before any traffic, every parse counter is zero (pinned shape).
        let idle = respond(&service, &request("GET", "/wrappers", ""));
        assert!(
            idle.body.contains(
                "\"parse\":{\"pages\":0.0,\"stream\":0.0,\"fallback\":0.0,\"micros\":0.0"
            ),
            "{}",
            idle.body
        );
        // Three pages through the default (streaming) path.
        let page = "<table class='stores'><tr><td><b>OMEGA</b></td><td>9 Elm</td></tr></table>";
        let r = respond(
            &service,
            &request(
                "POST",
                "/extract",
                &format!(r#"{{"site":"dealers","pages":["{page}","{page}","{page}"]}}"#),
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let listed = respond(&service, &request("GET", "/wrappers", ""));
        assert!(
            listed
                .body
                .contains("\"parse\":{\"pages\":3.0,\"stream\":3.0,\"fallback\":0.0"),
            "{}",
            listed.body
        );
        // The fallback path is attributed separately.
        let fallback = service.with_stream_parse(false);
        let r = respond(
            &fallback,
            &request(
                "POST",
                "/extract",
                &format!(r#"{{"site":"dealers","html":"{page}"}}"#),
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let listed = respond(&fallback, &request("GET", "/wrappers", ""));
        assert!(
            listed
                .body
                .contains("\"parse\":{\"pages\":4.0,\"stream\":3.0,\"fallback\":1.0"),
            "{}",
            listed.body
        );
    }

    #[test]
    fn unknown_site_is_404_with_the_offending_key_in_the_body() {
        let service = service();
        let r = respond(
            &service,
            &request(
                "POST",
                "/extract",
                r#"{"site":"mystery-7","html":"<p>x</p>"}"#,
            ),
        );
        assert_eq!(r.status, 404, "{}", r.body);
        assert!(r.body.contains("\"error\""), "{}", r.body);
        assert!(r.body.contains("\"site\":\"mystery-7\""), "{}", r.body);
        // Malformed-body errors name no site, so the key is absent.
        let bad = respond(&service, &request("POST", "/extract", "not json"));
        assert_eq!(bad.status, 400);
        assert!(!bad.body.contains("\"site\""), "{}", bad.body);
    }

    #[test]
    fn page_parse_failures_are_structured_not_fatal() {
        let service = service();
        let page = "<table class='stores'><tr><td><b>OMEGA</b></td><td>9 Elm</td></tr></table>";
        let r = respond(
            &service,
            &request(
                "POST",
                "/extract",
                &format!(r#"{{"site":"dealers","pages":["{page}",""]}}"#),
            ),
        );
        assert_eq!(r.status, 200, "empty page must not fail the request");
        assert!(r.body.contains(r#""pages":[["OMEGA"],[]]"#), "{}", r.body);
        assert!(
            r.body
                .contains(r#""errors":[null,"page produced no parseable content"]"#),
            "{}",
            r.body
        );
        // The failed page landed in the site's health accounting.
        let h = respond(&service, &request("GET", "/health/dealers", ""));
        assert!(h.body.contains("\"error_pages\":1"), "{}", h.body);
    }

    #[test]
    fn health_endpoints_report_sites_and_journal() {
        let service = service();
        // No traffic yet: the site list is empty, the per-site probe 404s.
        let idle = respond(&service, &request("GET", "/health", ""));
        assert_eq!(idle.status, 200);
        assert!(idle.body.contains("\"sites\":[]"), "{}", idle.body);
        assert_eq!(
            respond(&service, &request("GET", "/health/dealers", "")).status,
            404
        );
        // One request later both report counters.
        let page = "<table class='stores'><tr><td><b>OMEGA</b></td><td>9 Elm</td></tr></table>";
        respond(
            &service,
            &request(
                "POST",
                "/extract",
                &format!(r#"{{"site":"dealers","html":"{page}"}}"#),
            ),
        );
        let one = respond(&service, &request("GET", "/health/dealers", ""));
        assert_eq!(one.status, 200);
        assert!(one.body.contains("\"requests\":1"), "{}", one.body);
        assert!(one.body.contains("\"degraded\":false"), "{}", one.body);
        let all = respond(&service, &request("GET", "/health", ""));
        assert!(all.body.contains("\"site\":\"dealers\""), "{}", all.body);
        assert!(all.body.contains("\"journal\":[]"), "{}", all.body);
        // The wrapper listing embeds the same snapshot.
        let wrappers = respond(&service, &request("GET", "/wrappers", ""));
        assert!(wrappers.body.contains("\"health\":{"), "{}", wrappers.body);
        // Method guards on both health shapes.
        assert_eq!(
            respond(&service, &request("POST", "/health", "")).status,
            405
        );
        assert_eq!(
            respond(&service, &request("POST", "/health/dealers", "")).status,
            405
        );
    }

    #[test]
    fn wrappers_hot_swap_accepts_v3_binary_bundles() {
        let service = service();
        let mut bundle = aw_core::WrapperBundle::new();
        let wrapper = {
            let json = service.registry().get("dealers").unwrap().to_json();
            CompiledWrapper::from_json(&json).unwrap()
        };
        bundle.insert("bin-site", wrapper);
        let binary = bundle.to_binary();
        let swapped = respond(
            &service,
            &Request {
                method: "POST".into(),
                path: "/wrappers".into(),
                body: binary.clone(),
            },
        );
        assert_eq!(swapped.status, 200, "{}", swapped.body);
        assert!(swapped.body.contains("\"loaded\":1"), "{}", swapped.body);
        assert_eq!(service.registry().site_keys(), ["bin-site"]);

        // A corrupt upload is the client's fault: 400, naming the site.
        let mut corrupt = binary;
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        let bad = respond(
            &service,
            &Request {
                method: "POST".into(),
                path: "/wrappers".into(),
                body: corrupt,
            },
        );
        assert_eq!(bad.status, 400, "{}", bad.body);
        assert!(bad.body.contains("\"error\""), "{}", bad.body);
    }

    #[test]
    fn wrappers_listing_reports_residency() {
        // Fully resident: counters are zero, cap and store are null.
        let resident = respond(&service(), &request("GET", "/wrappers", ""));
        assert!(
            resident.body.contains("\"residency\":{\"resident\":1"),
            "{}",
            resident.body
        );
        assert!(
            resident.body.contains("\"store_sites\":null"),
            "{}",
            resident.body
        );

        // Lazy over a v3 store: faults and residency show up.
        let mut bundle = aw_core::WrapperBundle::new();
        for key in ["a", "b", "c"] {
            let json = service().registry().get("dealers").unwrap().to_json();
            bundle.insert(key, CompiledWrapper::from_json(&json).unwrap());
        }
        let store = aw_core::BundleStore::from_bytes(bundle.to_binary()).unwrap();
        let lazy = ExtractionService::new(Arc::new(WrapperRegistry::from_store(
            Arc::new(store),
            Some(2),
        )));
        let page = "<table class='stores'><tr><td><b>OMEGA</b></td><td>9 Elm</td></tr></table>";
        for site in ["a", "b", "c"] {
            let r = respond(
                &lazy,
                &request(
                    "POST",
                    "/extract",
                    &format!(r#"{{"site":"{site}","html":"{page}"}}"#),
                ),
            );
            assert_eq!(r.status, 200, "{}", r.body);
            assert!(r.body.contains("OMEGA"), "{}", r.body);
        }
        let listed = respond(&lazy, &request("GET", "/wrappers", ""));
        assert!(listed.body.contains("\"faults\":3"), "{}", listed.body);
        assert!(listed.body.contains("\"evictions\":1"), "{}", listed.body);
        assert!(
            listed.body.contains("\"max_resident\":2"),
            "{}",
            listed.body
        );
        assert!(listed.body.contains("\"store_sites\":3"), "{}", listed.body);
        // A site outside the store still 404s through the fault path.
        let missing = respond(
            &lazy,
            &request("POST", "/extract", r#"{"site":"zz","html":"<p>x</p>"}"#),
        );
        assert_eq!(missing.status, 404, "{}", missing.body);
    }

    #[test]
    fn wrappers_upload_detaches_a_lazy_store() {
        let json = service().registry().get("dealers").unwrap().to_json();
        let mut stored = aw_core::WrapperBundle::new();
        for key in ["a", "b"] {
            stored.insert(key, CompiledWrapper::from_json(&json).unwrap());
        }
        let store = aw_core::BundleStore::from_bytes(stored.to_binary()).unwrap();
        let lazy = ExtractionService::new(Arc::new(WrapperRegistry::from_store(
            Arc::new(store),
            Some(1),
        )));
        let page = "<table class='stores'><tr><td><b>OMEGA</b></td><td>9 Elm</td></tr></table>";
        let extract = |site: &str| {
            respond(
                &lazy,
                &request(
                    "POST",
                    "/extract",
                    &format!(r#"{{"site":"{site}","html":"{page}"}}"#),
                ),
            )
        };
        assert_eq!(extract("a").status, 200);
        let mut upload = aw_core::WrapperBundle::new();
        upload.insert("b", CompiledWrapper::from_json(&json).unwrap());
        upload.insert("c", CompiledWrapper::from_json(&json).unwrap());
        let swapped = respond(
            &lazy,
            &Request {
                method: "POST".into(),
                path: "/wrappers".into(),
                body: upload.to_json().into_bytes(),
            },
        );
        assert_eq!(swapped.status, 200, "{}", swapped.body);
        // The upload is the whole registry: the store-only site is gone,
        // and both uploaded sites serve although the cap was 1.
        let gone = extract("a");
        assert_eq!(gone.status, 404, "{}", gone.body);
        for site in ["b", "c"] {
            let r = extract(site);
            assert_eq!(r.status, 200, "{}", r.body);
            assert!(r.body.contains("OMEGA"), "{}", r.body);
        }
        let listed = respond(&lazy, &request("GET", "/wrappers", ""));
        assert!(
            listed.body.contains("\"store_sites\":null"),
            "{}",
            listed.body
        );
        assert!(listed.body.contains("\"resident\":2"), "{}", listed.body);
    }

    #[test]
    fn non_utf8_extract_bodies_are_400() {
        let r = respond(
            &service(),
            &Request {
                method: "POST".into(),
                path: "/extract".into(),
                body: vec![0xFF, 0xFE, 0x80],
            },
        );
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("UTF-8"), "{}", r.body);
    }

    #[test]
    fn unknown_paths_and_methods() {
        let service = service();
        assert_eq!(respond(&service, &request("GET", "/nope", "")).status, 404);
        assert_eq!(
            respond(&service, &request("DELETE", "/extract", "")).status,
            405
        );
        assert_eq!(
            respond(&service, &request("POST", "/healthz", "")).status,
            405
        );
    }
}
