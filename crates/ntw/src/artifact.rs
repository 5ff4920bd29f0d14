//! Portable, serializable wrapper artifacts.
//!
//! The paper's deployment learns a wrapper once and extracts from pages
//! crawled later ("our system is used in production in Yahoo!"). Before
//! this module a learned wrapper could not leave the process that
//! learned it; a [`CompiledWrapper`] is the serving artifact that can:
//!
//! * **learn offline** — [`crate::RankedWrapper::compile`] packages the
//!   top-ranked wrapper's portable rule;
//! * **ship** — [`CompiledWrapper::to_json`] / [`CompiledWrapper::from_json`]
//!   carry a versioned JSON payload for all four rule languages
//!   (TABLE/LR/HLRT/XPATH);
//! * **serve** — [`CompiledWrapper::extract`] /
//!   [`CompiledWrapper::extract_pages_with`] amortize the compiled xpath
//!   trie and its cross-page template cache across requests.
//!
//! The payload is deliberately small and self-describing (the offline
//! serde_json stand-in renders whole numbers with a decimal point, so
//! `version` reads `1.0` on the wire; readers accept any integral form):
//!
//! ```json
//! {
//!   "format": "aw-wrapper",
//!   "version": 1.0,
//!   "language": "XPATH",
//!   "rule": { "xpath": "/html/body/table/tr/td/b/text()" }
//! }
//! ```
//!
//! ## Bundles (artifact generation 2)
//!
//! A serving fleet holds wrappers for *many* sites at once, so the v2
//! artifact is a [`WrapperBundle`]: one payload mapping site keys to
//! wrappers (any mix of the four languages), which
//! [`crate::WrapperRegistry`] loads and hot-swaps atomically:
//!
//! ```json
//! {
//!   "format": "aw-bundle",
//!   "version": 2.0,
//!   "wrappers": {
//!     "dealer-a": { "language": "XPATH", "rule": { "xpath": "//u/text()" } },
//!     "dealer-b": { "language": "LR", "rule": { "left": "<b>", "right": "</b>" } }
//!   }
//! }
//! ```
//!
//! [`WrapperBundle::from_json`] is the v2 reader and remains fully
//! backward compatible: every v1 single-wrapper artifact is accepted
//! byte-for-byte (it loads as a one-entry bundle under
//! [`V1_SITE_KEY`]). Malformed bundle members fail with the offending
//! site key in the error, not a bare variant.
//!
//! ## Binary bundles (artifact generation 3)
//!
//! At web scale (10⁵–10⁶ sites) one monolithic JSON payload is the
//! wrong shape: the v3 binary bundle (`aw-bundle-bin`, defined in the
//! [`crate::store`] module) keeps each site's wrapper as an
//! independently seekable segment — each segment the exact bytes of
//! that wrapper's v1 [`CompiledWrapper::to_json`] payload — behind a
//! sorted offset index, so a [`crate::BundleStore`] loads one site
//! without parsing the rest. [`WrapperBundle::to_binary`] /
//! [`WrapperBundle::from_binary`] convert losslessly between the
//! generations, and [`crate::ArtifactReader`] sniffs all three at I/O
//! boundaries.

use crate::config::WrapperLanguage;
use crate::error::AwError;
use crate::rule::LearnedRule;
use aw_dom::{Document, NodeId};
use aw_induct::{HlrtRule, LrRule, TableRule};
use aw_pool::Executor;
use serde::Value;
use std::collections::BTreeMap;

/// The `format` marker every single-wrapper artifact carries.
pub const ARTIFACT_FORMAT: &str = "aw-wrapper";

/// The single-wrapper artifact schema version this build reads and
/// writes.
pub const ARTIFACT_VERSION: u32 = 1;

/// The `format` marker every wrapper bundle carries.
pub const BUNDLE_FORMAT: &str = "aw-bundle";

/// The bundle schema version this build reads and writes (generation 2
/// of the artifact family; generation 1 is the single-wrapper
/// [`ARTIFACT_FORMAT`] payload, which the bundle reader still accepts).
pub const BUNDLE_VERSION: u32 = 2;

/// The site key a v1 single-wrapper artifact loads under when read
/// through the v2 bundle reader ([`WrapperBundle::from_json`]).
pub const V1_SITE_KEY: &str = "default";

/// A learned wrapper compiled for serving: one portable rule, plus, when
/// the rule is an xpath, its compiled batch trie with a cross-page
/// template cache. TABLE, LR and HLRT rules run [`LearnedRule::apply`]
/// directly and carry no template cache.
#[derive(Debug)]
pub struct CompiledWrapper {
    rule: LearnedRule,
    /// The xpath compiled into a one-path trie whose template cache
    /// replays traces across pages of one script; `None` for other
    /// languages.
    batch: Option<aw_xpath::BatchEvaluator>,
}

impl CompiledWrapper {
    /// Compiles a portable rule into a serving wrapper.
    pub fn from_rule(rule: LearnedRule) -> CompiledWrapper {
        let batch = match &rule {
            LearnedRule::XPath(xp) => Some(aw_xpath::BatchEvaluator::from_xpaths([xp])),
            _ => None,
        };
        CompiledWrapper { rule, batch }
    }

    /// The wrapper language of the compiled rule.
    pub fn language(&self) -> WrapperLanguage {
        self.rule.language()
    }

    /// The portable rule.
    pub fn rule(&self) -> &LearnedRule {
        &self.rule
    }

    /// Extracts from one page, returning matched text nodes in document
    /// order (identical to [`LearnedRule::apply`]).
    pub fn extract(&self, doc: &Document) -> Vec<NodeId> {
        match &self.batch {
            Some(batch) => batch.evaluate(doc).pop().unwrap_or_default(),
            None => self.rule.apply(doc),
        }
    }

    /// Extracts the matched text *values* from one page.
    pub fn extract_values(&self, doc: &Document) -> Vec<String> {
        self.extract(doc)
            .into_iter()
            .filter_map(|id| doc.text(id).map(str::to_string))
            .collect()
    }

    /// Extracts from a whole crawl, page-parallel through `exec`:
    /// `out[p]` equals [`CompiledWrapper::extract`] on `docs[p]` for
    /// every thread count. [`crate::ExtractionService`] routes every
    /// request's pages onto its own pool this way while sharing this
    /// wrapper's compiled trie and template cache.
    pub fn extract_pages_with(&self, docs: &[Document], exec: &Executor) -> Vec<Vec<NodeId>> {
        exec.map(docs, |doc| self.extract(doc))
    }

    /// Enables or disables the cross-page template cache of the
    /// wrapper's xpath engine (enabled by default; a no-op for other
    /// languages). Replay is byte-identical to fresh evaluation;
    /// disabling only bounds memory on workloads with unbounded distinct
    /// templates.
    pub fn with_template_cache(mut self, enabled: bool) -> CompiledWrapper {
        if let Some(batch) = &mut self.batch {
            batch.set_cache(enabled);
        }
        self
    }

    /// `(replayed pages, other pages)` statistics of the wrapper's
    /// cross-page template cache; `None` when the cache is disabled or
    /// the rule has no xpath engine to cache for.
    pub fn template_cache_stats(&self) -> Option<(u64, u64)> {
        Some(self.batch.as_ref()?.template_cache()?.stats())
    }

    /// Replay-path breakdown of the wrapper's template cache — verbatim
    /// whole-page replays, stitched frame (partial) replays, and how
    /// records split between donor stitching and per-span fallback
    /// within the latter; `None` when the cache is disabled or the rule
    /// is not an xpath.
    pub fn template_replay_stats(&self) -> Option<aw_xpath::ReplayStats> {
        Some(self.batch.as_ref()?.template_cache()?.replay_stats())
    }

    /// Serializes the wrapper to its versioned JSON artifact.
    pub fn to_json(&self) -> String {
        let artifact = obj(vec![
            ("format", Value::String(ARTIFACT_FORMAT.into())),
            ("version", Value::Number(ARTIFACT_VERSION as f64)),
            ("language", Value::String(self.language().name().into())),
            ("rule", rule_to_value(self.rule())),
        ]);
        serde_json::to_string_pretty(&artifact).expect("artifact serialization is infallible")
    }

    /// Deserializes a wrapper artifact produced by
    /// [`CompiledWrapper::to_json`] — in this process or any other.
    ///
    /// Rejects payloads that are not valid JSON, lack the
    /// `aw-wrapper` format marker or required fields
    /// ([`AwError::MalformedArtifact`]), carry an incompatible version
    /// ([`AwError::UnsupportedVersion`]), or name an unknown language
    /// ([`AwError::UnknownLanguage`]).
    pub fn from_json(payload: &str) -> Result<CompiledWrapper, AwError> {
        let v = serde_json::from_str(payload).map_err(|e| malformed(e.to_string()))?;
        match v.get("format").and_then(Value::as_str) {
            Some(ARTIFACT_FORMAT) => {}
            Some(other) => return Err(malformed(format!("unknown format marker {other:?}"))),
            None => return Err(malformed("missing \"format\" marker")),
        }
        let version = u32_field(&v, "version")?;
        if version != ARTIFACT_VERSION {
            return Err(AwError::UnsupportedVersion {
                found: version,
                supported: ARTIFACT_VERSION,
            });
        }
        Ok(CompiledWrapper::from_rule(member_rule_from_value(&v)?))
    }
}

/// Renders a portable rule as the language-specific `"rule"` object
/// shared by v1 artifacts and v2 bundle members.
fn rule_to_value(rule: &LearnedRule) -> Value {
    match rule {
        LearnedRule::XPath(xp) => obj(vec![("xpath", Value::String(xp.to_string()))]),
        LearnedRule::Lr(r) => obj(vec![
            ("left", Value::String(r.left.clone())),
            ("right", Value::String(r.right.clone())),
        ]),
        LearnedRule::Hlrt(r) => obj(vec![
            ("head", Value::String(r.head.clone())),
            ("tail", Value::String(r.tail.clone())),
            ("left", Value::String(r.lr.left.clone())),
            ("right", Value::String(r.lr.right.clone())),
        ]),
        LearnedRule::Table(r) => table_to_value(r),
    }
}

/// Reads the `language` + `rule` fields of a v1 artifact or v2 bundle
/// member back into a portable rule.
fn member_rule_from_value(v: &Value) -> Result<LearnedRule, AwError> {
    let language: WrapperLanguage = v
        .get("language")
        .and_then(Value::as_str)
        .ok_or_else(|| malformed("missing \"language\""))?
        .parse()?;
    let rule_v = v.get("rule").ok_or_else(|| malformed("missing \"rule\""))?;
    Ok(match language {
        WrapperLanguage::XPath => {
            let xp = str_field(rule_v, "xpath")?;
            LearnedRule::XPath(
                aw_xpath::parse_xpath(xp).map_err(|e| AwError::InvalidRule(e.to_string()))?,
            )
        }
        WrapperLanguage::Lr => LearnedRule::Lr(LrRule {
            left: str_field(rule_v, "left")?.to_string(),
            right: str_field(rule_v, "right")?.to_string(),
        }),
        WrapperLanguage::Hlrt => LearnedRule::Hlrt(HlrtRule {
            head: str_field(rule_v, "head")?.to_string(),
            tail: str_field(rule_v, "tail")?.to_string(),
            lr: LrRule {
                left: str_field(rule_v, "left")?.to_string(),
                right: str_field(rule_v, "right")?.to_string(),
            },
        }),
        WrapperLanguage::Table => LearnedRule::Table(table_from_value(rule_v)?),
    })
}

/// A versioned multi-site artifact: site keys mapped to serving
/// wrappers, any mix of the four rule languages.
///
/// This is the unit a [`crate::WrapperRegistry`] loads and hot-swaps:
/// `awrap learn --bundle` emits one from [`crate::Engine::learn_sites`],
/// `awrap serve` / `POST /wrappers` consume it. Keys are held sorted, so
/// [`WrapperBundle::to_json`] is deterministic regardless of insertion
/// order.
#[derive(Debug, Default)]
pub struct WrapperBundle {
    wrappers: BTreeMap<String, CompiledWrapper>,
}

impl WrapperBundle {
    /// An empty bundle.
    pub fn new() -> WrapperBundle {
        WrapperBundle::default()
    }

    /// Adds (or replaces) the wrapper serving `site`, returning any
    /// previous wrapper under that key.
    pub fn insert(
        &mut self,
        site: impl Into<String>,
        wrapper: CompiledWrapper,
    ) -> Option<CompiledWrapper> {
        self.wrappers.insert(site.into(), wrapper)
    }

    /// The wrapper serving `site`, if bundled.
    pub fn get(&self, site: &str) -> Option<&CompiledWrapper> {
        self.wrappers.get(site)
    }

    /// Removes and returns the wrapper serving `site`.
    pub fn remove(&mut self, site: &str) -> Option<CompiledWrapper> {
        self.wrappers.remove(site)
    }

    /// Number of bundled site wrappers.
    pub fn len(&self) -> usize {
        self.wrappers.len()
    }

    /// True when no wrapper is bundled.
    pub fn is_empty(&self) -> bool {
        self.wrappers.is_empty()
    }

    /// The bundled site keys, ascending.
    pub fn site_keys(&self) -> impl Iterator<Item = &str> {
        self.wrappers.keys().map(String::as_str)
    }

    /// Iterates `(site key, wrapper)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CompiledWrapper)> {
        self.wrappers.iter().map(|(k, w)| (k.as_str(), w))
    }

    /// Serializes the bundle to its versioned JSON payload (format
    /// [`BUNDLE_FORMAT`], version [`BUNDLE_VERSION`]; see the [module
    /// docs](self) for the wire shape).
    pub fn to_json(&self) -> String {
        let wrappers = Value::Object(
            self.wrappers
                .iter()
                .map(|(key, w)| {
                    (
                        key.clone(),
                        obj(vec![
                            ("language", Value::String(w.language().name().into())),
                            ("rule", rule_to_value(w.rule())),
                        ]),
                    )
                })
                .collect(),
        );
        let bundle = obj(vec![
            ("format", Value::String(BUNDLE_FORMAT.into())),
            ("version", Value::Number(BUNDLE_VERSION as f64)),
            ("wrappers", wrappers),
        ]);
        serde_json::to_string_pretty(&bundle).expect("bundle serialization is infallible")
    }

    /// The generation-2 artifact reader: deserializes a bundle produced
    /// by [`WrapperBundle::to_json`] — **or** any v1 single-wrapper
    /// artifact ([`CompiledWrapper::to_json`]), which loads byte-for-byte
    /// as a one-entry bundle under [`V1_SITE_KEY`].
    ///
    /// Errors mirror [`CompiledWrapper::from_json`]; a malformed bundle
    /// *member* additionally reports the site key it was stored under
    /// (e.g. `bundle member "dealer-3": missing string field "xpath"`).
    pub fn from_json(payload: &str) -> Result<WrapperBundle, AwError> {
        let v = serde_json::from_str(payload).map_err(|e| malformed(e.to_string()))?;
        match v.get("format").and_then(Value::as_str) {
            Some(BUNDLE_FORMAT) => {}
            // Backward compatibility: a v1 single-wrapper artifact is a
            // one-entry bundle.
            Some(ARTIFACT_FORMAT) => {
                let mut bundle = WrapperBundle::new();
                bundle.insert(V1_SITE_KEY, CompiledWrapper::from_json(payload)?);
                return Ok(bundle);
            }
            Some(other) => return Err(malformed(format!("unknown format marker {other:?}"))),
            None => return Err(malformed("missing \"format\" marker")),
        }
        let version = u32_field(&v, "version")?;
        if version != BUNDLE_VERSION {
            return Err(AwError::UnsupportedVersion {
                found: version,
                supported: BUNDLE_VERSION,
            });
        }
        let Some(members) = v.get("wrappers") else {
            return Err(malformed("missing \"wrappers\" object"));
        };
        let Value::Object(entries) = members else {
            return Err(malformed("\"wrappers\" is not an object"));
        };
        let mut bundle = WrapperBundle::new();
        for (key, member) in entries {
            let rule = member_rule_from_value(member).map_err(|e| e.in_bundle_member(key))?;
            bundle.insert(key.clone(), CompiledWrapper::from_rule(rule));
        }
        Ok(bundle)
    }
}

impl IntoIterator for WrapperBundle {
    type Item = (String, CompiledWrapper);
    type IntoIter = std::collections::btree_map::IntoIter<String, CompiledWrapper>;

    fn into_iter(self) -> Self::IntoIter {
        self.wrappers.into_iter()
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

fn malformed(msg: impl Into<String>) -> AwError {
    AwError::MalformedArtifact(msg.into())
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, AwError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| malformed(format!("missing string field \"{key}\"")))
}

/// Reads a numeric field that must hold an integral `u32` (the stand-in
/// JSON parser stores all numbers as `f64`).
fn u32_field(v: &Value, key: &str) -> Result<u32, AwError> {
    let n = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| malformed(format!("missing numeric field \"{key}\"")))?;
    if n.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&n) {
        return Err(malformed(format!(
            "field \"{key}\" is not a non-negative integer"
        )));
    }
    Ok(n as u32)
}

fn table_to_value(rule: &TableRule) -> Value {
    match *rule {
        TableRule::Empty => obj(vec![("scope", Value::String("empty".into()))]),
        TableRule::Cell { row, col } => obj(vec![
            ("scope", Value::String("cell".into())),
            ("row", Value::Number(row as f64)),
            ("col", Value::Number(col as f64)),
        ]),
        TableRule::Row(row) => obj(vec![
            ("scope", Value::String("row".into())),
            ("row", Value::Number(row as f64)),
        ]),
        TableRule::Col(col) => obj(vec![
            ("scope", Value::String("col".into())),
            ("col", Value::Number(col as f64)),
        ]),
        TableRule::Table => obj(vec![("scope", Value::String("table".into()))]),
    }
}

fn table_from_value(v: &Value) -> Result<TableRule, AwError> {
    match str_field(v, "scope")? {
        "empty" => Ok(TableRule::Empty),
        "cell" => Ok(TableRule::Cell {
            row: u32_field(v, "row")?,
            col: u32_field(v, "col")?,
        }),
        "row" => Ok(TableRule::Row(u32_field(v, "row")?)),
        "col" => Ok(TableRule::Col(u32_field(v, "col")?)),
        "table" => Ok(TableRule::Table),
        other => Err(malformed(format!("unknown table scope {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_induct::{NodeSet, Site};

    fn training_site() -> Site {
        let page = |rows: &[(&str, &str)]| {
            let mut s = String::from("<table class='stores'>");
            for (n, a) in rows {
                s.push_str(&format!("<tr><td><b>{n}</b></td><td>{a}</td></tr>"));
            }
            s + "</table>"
        };
        Site::from_html(&[
            page(&[("ALPHA CO", "1 Elm"), ("BETA LLC", "2 Oak")]),
            page(&[("GAMMA INC", "3 Fir"), ("DELTA LTD", "4 Ash")]),
        ])
    }

    fn seed(site: &Site) -> NodeSet {
        let mut l = NodeSet::new();
        l.extend(site.find_text("ALPHA CO"));
        l.extend(site.find_text("DELTA LTD"));
        l
    }

    fn fresh_page() -> Document {
        aw_dom::parse(
            "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr>\
             <tr><td><b>SIGMA BROS</b></td><td>7 Oak</td></tr></table>",
        )
    }

    #[test]
    fn round_trip_is_byte_identical_for_every_language() {
        let site = training_site();
        let labels = seed(&site);
        let crawl = [fresh_page(), aw_dom::parse("<p>unrelated</p>")];
        for language in WrapperLanguage::ALL {
            let rule = LearnedRule::learn(&site, language, &labels);
            let wrapper = CompiledWrapper::from_rule(rule.clone());
            let restored = CompiledWrapper::from_json(&wrapper.to_json()).unwrap();
            assert_eq!(restored.rule(), &rule, "{language}");
            assert_eq!(restored.language(), language);
            for doc in &crawl {
                assert_eq!(
                    restored.extract(doc),
                    wrapper.extract(doc),
                    "{language} extraction differs after round trip"
                );
                assert_eq!(restored.extract(doc), rule.apply(doc), "{language}");
            }
            // And the serialized form itself is stable.
            assert_eq!(restored.to_json(), wrapper.to_json(), "{language}");
        }
    }

    #[test]
    fn extract_pages_matches_extract_for_all_thread_counts() {
        let site = training_site();
        // Fresh pages of the training script, plus junk and an empty page.
        let crawl: Vec<Document> = vec![
            fresh_page(),
            aw_dom::parse("<p>nothing here</p>"),
            aw_dom::parse(
                "<table class='stores'><tr><td><b>KAPPA SONS</b></td><td>4 Fir</td></tr></table>",
            ),
            aw_dom::parse(""),
            fresh_page(),
        ];
        for language in WrapperLanguage::ALL {
            let rule = LearnedRule::learn(&site, language, &seed(&site));
            let reference: Vec<Vec<NodeId>> = crawl.iter().map(|d| rule.apply(d)).collect();
            assert!(
                reference.iter().any(|ids| !ids.is_empty()),
                "{language} extracts something"
            );
            for threads in [1, 2, 4] {
                let w = CompiledWrapper::from_rule(rule.clone());
                assert_eq!(
                    w.extract_pages_with(&crawl, &Executor::new(threads)),
                    reference,
                    "{language} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let site = training_site();
        let wrapper = CompiledWrapper::from_rule(LearnedRule::learn(
            &site,
            WrapperLanguage::XPath,
            &seed(&site),
        ));
        let payload = wrapper
            .to_json()
            .replace("\"version\": 1.0", "\"version\": 2.0");
        assert_eq!(
            CompiledWrapper::from_json(&payload).unwrap_err(),
            AwError::UnsupportedVersion {
                found: 2,
                supported: ARTIFACT_VERSION
            }
        );
        let fractional = wrapper
            .to_json()
            .replace("\"version\": 1.0", "\"version\": 1.5");
        assert!(matches!(
            CompiledWrapper::from_json(&fractional).unwrap_err(),
            AwError::MalformedArtifact(_)
        ));
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        for payload in [
            "",
            "not json",
            "{}",
            r#"{"format":"aw-wrapper"}"#,
            r#"{"format":"other","version":1,"language":"XPATH","rule":{"xpath":"//a"}}"#,
            r#"{"format":"aw-wrapper","version":1,"language":"XPATH"}"#,
            r#"{"format":"aw-wrapper","version":1,"language":"XPATH","rule":{}}"#,
            r#"{"format":"aw-wrapper","version":1,"language":"LR","rule":{"left":"<b>"}}"#,
            r#"{"format":"aw-wrapper","version":1,"language":"TABLE","rule":{"scope":"cell","row":1.5,"col":2}}"#,
            r#"{"format":"aw-wrapper","version":1,"language":"TABLE","rule":{"scope":"diagonal"}}"#,
        ] {
            assert!(
                matches!(
                    CompiledWrapper::from_json(payload),
                    Err(AwError::MalformedArtifact(_))
                ),
                "accepted: {payload}"
            );
        }
        assert_eq!(
            CompiledWrapper::from_json(
                r#"{"format":"aw-wrapper","version":1,"language":"CSV","rule":{}}"#
            )
            .unwrap_err(),
            AwError::UnknownLanguage("CSV".into())
        );
        assert!(matches!(
            CompiledWrapper::from_json(
                r#"{"format":"aw-wrapper","version":1,"language":"XPATH","rule":{"xpath":"///"}}"#
            )
            .unwrap_err(),
            AwError::InvalidRule(_)
        ));
    }

    #[test]
    fn bundle_round_trips_all_languages() {
        let site = training_site();
        let labels = seed(&site);
        let mut bundle = WrapperBundle::new();
        for language in WrapperLanguage::ALL {
            bundle.insert(
                format!("site-{language}"),
                CompiledWrapper::from_rule(LearnedRule::learn(&site, language, &labels)),
            );
        }
        let json = bundle.to_json();
        assert!(json.contains("\"format\": \"aw-bundle\""), "{json}");
        assert!(json.contains("\"version\": 2.0"), "{json}");
        let restored = WrapperBundle::from_json(&json).unwrap();
        assert_eq!(restored.len(), bundle.len());
        assert_eq!(
            restored.site_keys().collect::<Vec<_>>(),
            bundle.site_keys().collect::<Vec<_>>()
        );
        let page = fresh_page();
        for (key, wrapper) in bundle.iter() {
            let r = restored.get(key).unwrap();
            assert_eq!(r.rule(), wrapper.rule(), "{key}");
            assert_eq!(r.extract(&page), wrapper.extract(&page), "{key}");
        }
        // Serialization is stable through the round trip.
        assert_eq!(restored.to_json(), json);
    }

    #[test]
    fn bundle_reader_accepts_v1_artifacts_byte_for_byte() {
        let site = training_site();
        let labels = seed(&site);
        let page = fresh_page();
        for language in WrapperLanguage::ALL {
            let wrapper = CompiledWrapper::from_rule(LearnedRule::learn(&site, language, &labels));
            let v1_payload = wrapper.to_json();
            let bundle = WrapperBundle::from_json(&v1_payload).unwrap();
            assert_eq!(bundle.len(), 1, "{language}");
            let member = bundle.get(V1_SITE_KEY).unwrap();
            assert_eq!(member.rule(), wrapper.rule(), "{language}");
            assert_eq!(member.extract(&page), wrapper.extract(&page), "{language}");
        }
    }

    #[test]
    fn malformed_bundle_members_report_their_site_key() {
        let payload = r#"{
            "format": "aw-bundle",
            "version": 2,
            "wrappers": {
                "good-site": { "language": "LR", "rule": { "left": "<b>", "right": "</b>" } },
                "bad-site": { "language": "XPATH", "rule": {} }
            }
        }"#;
        let err = WrapperBundle::from_json(payload).unwrap_err();
        let AwError::MalformedArtifact(msg) = &err else {
            panic!("unexpected error {err:?}");
        };
        assert!(msg.contains("bad-site"), "{msg}");
        assert!(msg.contains("xpath"), "{msg}");
        // An unparsable member rule carries the key too.
        let invalid = payload.replace(r#""rule": {}"#, r#""rule": { "xpath": "///" }"#);
        let err = WrapperBundle::from_json(&invalid).unwrap_err();
        assert!(
            matches!(&err, AwError::InvalidRule(m) if m.contains("bad-site")),
            "{err:?}"
        );
    }

    #[test]
    fn bundle_rejects_wrong_shapes() {
        for payload in [
            r#"{"format":"aw-bundle","version":2}"#,
            r#"{"format":"aw-bundle","version":2,"wrappers":[]}"#,
            r#"{"format":"mystery","version":2,"wrappers":{}}"#,
            r#"{"version":2,"wrappers":{}}"#,
        ] {
            assert!(
                matches!(
                    WrapperBundle::from_json(payload),
                    Err(AwError::MalformedArtifact(_))
                ),
                "accepted: {payload}"
            );
        }
        assert_eq!(
            WrapperBundle::from_json(r#"{"format":"aw-bundle","version":7,"wrappers":{}}"#)
                .unwrap_err(),
            AwError::UnsupportedVersion {
                found: 7,
                supported: BUNDLE_VERSION
            }
        );
        // A v2 bundle is not a valid v1 artifact: the single-wrapper
        // reader refuses it rather than guessing.
        let mut bundle = WrapperBundle::new();
        let site = training_site();
        bundle.insert(
            "only",
            CompiledWrapper::from_rule(LearnedRule::learn(
                &site,
                WrapperLanguage::XPath,
                &seed(&site),
            )),
        );
        assert!(matches!(
            CompiledWrapper::from_json(&bundle.to_json()),
            Err(AwError::MalformedArtifact(_))
        ));
        // Empty bundles are legal (a registry can be drained).
        let empty = WrapperBundle::from_json(&WrapperBundle::new().to_json()).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn artifact_declares_format_version_and_language() {
        let site = training_site();
        let wrapper = CompiledWrapper::from_rule(LearnedRule::learn(
            &site,
            WrapperLanguage::Hlrt,
            &seed(&site),
        ));
        let json = wrapper.to_json();
        assert!(json.contains("\"format\": \"aw-wrapper\""), "{json}");
        assert!(json.contains("\"version\": 1.0"), "{json}");
        assert!(json.contains("\"language\": \"HLRT\""), "{json}");
    }
}
