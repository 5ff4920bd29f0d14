//! Portable learned rules.
//!
//! Inside the framework a wrapper is identified by its output on the
//! training site (§6). A production deployment, though, learns once and
//! then extracts from *future* pages of the same script — the paper's
//! Yahoo! pipeline applies wrappers to freshly crawled pages. A
//! [`LearnedRule`] captures the rule itself, detached from any site, and
//! applies to any [`Document`].

use crate::config::WrapperLanguage;
use aw_dom::{serialize_with_spans, Document, NodeId, SerializedPage};
use aw_induct::lr::scan_spans;
use aw_induct::{
    DomTableInductor, HlrtInductor, HlrtRule, LrInductor, LrRule, NodeSet, Site, TableRule,
    XPathInductor,
};
use aw_xpath::XPath;

/// A wrapper rule detached from its training site.
#[derive(Clone, Debug, PartialEq)]
pub enum LearnedRule {
    /// An xpath of the fragment (§5, Dalvi et al. 2009).
    XPath(XPath),
    /// A WIEN LR delimiter pair.
    Lr(LrRule),
    /// A WIEN HLRT rule.
    Hlrt(HlrtRule),
    /// A TABLE rule over the DOM grid (Example 1 grounded in `<tr>`/`<td>`
    /// coordinates).
    Table(TableRule),
}

impl LearnedRule {
    /// Learns the portable rule for `seed` labels on `site` in the given
    /// language. The seed is typically [`crate::LearnedWrapper::seed`] of
    /// the top-ranked wrapper.
    pub fn learn(site: &Site, language: WrapperLanguage, seed: &NodeSet) -> LearnedRule {
        match language {
            WrapperLanguage::XPath => LearnedRule::XPath(XPathInductor::new(site).xpath(seed)),
            WrapperLanguage::Lr => LearnedRule::Lr(LrInductor::new(site).learn(seed)),
            WrapperLanguage::Hlrt => LearnedRule::Hlrt(HlrtInductor::new(site).learn(seed)),
            WrapperLanguage::Table => LearnedRule::Table(DomTableInductor::new(site).learn(seed)),
        }
    }

    /// The wrapper language this rule belongs to.
    pub fn language(&self) -> WrapperLanguage {
        match self {
            LearnedRule::XPath(_) => WrapperLanguage::XPath,
            LearnedRule::Lr(_) => WrapperLanguage::Lr,
            LearnedRule::Hlrt(_) => WrapperLanguage::Hlrt,
            LearnedRule::Table(_) => WrapperLanguage::Table,
        }
    }

    /// Applies the rule to a page it has never seen, returning matched
    /// text nodes in document order. On the training site's pages it
    /// returns exactly the extraction the wrapper was ranked on, in every
    /// language. XPath evaluates through the document index, TABLE through
    /// the grid coordinates, LR and HLRT scan the page's serialization.
    /// This is the reference a [`crate::CompiledWrapper`] is byte-identical
    /// to.
    pub fn apply(&self, doc: &Document) -> Vec<NodeId> {
        match self {
            LearnedRule::XPath(xp) => aw_xpath::evaluate(xp, doc),
            LearnedRule::Table(rule) => rule.apply(doc),
            LearnedRule::Lr(rule) => {
                let page = serialize_with_spans(doc);
                scan_nodes(&page, 0, &page.html, rule)
            }
            LearnedRule::Hlrt(rule) => {
                let page = serialize_with_spans(doc);
                let html = page.html.as_str();
                let start = if rule.head.is_empty() {
                    Some(0)
                } else {
                    html.find(&rule.head).map(|i| i + rule.head.len())
                };
                let Some(start) = start else {
                    return Vec::new();
                };
                let end = if rule.tail.is_empty() {
                    Some(html.len())
                } else {
                    html[start..].rfind(&rule.tail).map(|i| start + i)
                };
                let Some(end) = end else { return Vec::new() };
                scan_nodes(&page, start, &html[start..end], &rule.lr)
            }
        }
    }

    /// Extracts the matched *text values* from a page.
    pub fn extract_values(&self, doc: &Document) -> Vec<String> {
        self.apply(doc)
            .into_iter()
            .filter_map(|id| doc.text(id).map(str::to_string))
            .collect()
    }
}

impl std::fmt::Display for LearnedRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnedRule::XPath(xp) => xp.fmt(f),
            LearnedRule::Lr(r) => r.fmt(f),
            LearnedRule::Hlrt(r) => r.fmt(f),
            LearnedRule::Table(r) => r.fmt(f),
        }
    }
}

/// The text nodes inside every `lr` span of `region`, which starts at
/// byte `base` of `page`'s serialization; sorted and deduplicated.
fn scan_nodes(page: &SerializedPage, base: usize, region: &str, lr: &LrRule) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = scan_spans(region, &lr.left, &lr.right)
        .into_iter()
        .flat_map(|(s, e)| page.nodes_in_range(base + s, base + e))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use aw_rank::{AnnotatorModel, ListFeatures, PublicationModel, RankingModel};

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

    fn model() -> RankingModel {
        RankingModel::new(
            AnnotatorModel::new(0.95, 0.5),
            PublicationModel::learn(&[
                ListFeatures {
                    schema_size: 2.0,
                    alignment: 0.0,
                },
                ListFeatures {
                    schema_size: 2.0,
                    alignment: 1.0,
                },
            ]),
        )
    }

    fn labels(site: &Site) -> NodeSet {
        let mut l = NodeSet::new();
        l.extend(site.find_text("ALPHA CO"));
        l.extend(site.find_text("DELTA LTD"));
        l
    }

    #[test]
    fn xpath_rule_applies_to_unseen_page() {
        let site = training_site();
        let ranked = Engine::builder(model())
            .language(WrapperLanguage::XPath)
            .build()
            .learn(&site, &labels(&site))
            .unwrap();
        let rule = ranked.best().unwrap().portable_rule();

        // A freshly "crawled" page from the same script.
        let new_page = aw_dom::parse(
            "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr>\
             <tr><td><b>SIGMA BROS</b></td><td>7 Oak</td></tr></table>",
        );
        assert_eq!(
            rule.extract_values(&new_page),
            vec!["OMEGA GROUP", "SIGMA BROS"],
            "rule: {rule}"
        );
    }

    #[test]
    fn lr_rule_applies_to_unseen_page() {
        let site = training_site();
        let ranked = Engine::builder(model())
            .language(WrapperLanguage::Lr)
            .build()
            .learn(&site, &labels(&site))
            .unwrap();
        let rule = ranked.best().unwrap().portable_rule();
        let new_page = aw_dom::parse(
            "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr></table>",
        );
        assert_eq!(
            rule.extract_values(&new_page),
            vec!["OMEGA GROUP"],
            "rule: {rule}"
        );
    }

    #[test]
    fn hlrt_rule_applies_to_unseen_page() {
        let site = training_site();
        let seed = labels(&site);
        let rule = LearnedRule::learn(&site, WrapperLanguage::Hlrt, &seed);
        let new_page = aw_dom::parse(
            "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr></table>",
        );
        // HLRT's head was learned from pages whose prefix matches the new
        // page (same script), so the region resolves.
        let values = rule.extract_values(&new_page);
        assert!(
            values.contains(&"OMEGA GROUP".to_string()),
            "rule: {rule} → {values:?}"
        );
    }

    #[test]
    fn rule_consistency_with_training_extraction() {
        // Applying the portable rule back to the training pages must
        // reproduce the wrapper's own extraction.
        let site = training_site();
        let ranked = Engine::builder(model())
            .language(WrapperLanguage::XPath)
            .build()
            .learn(&site, &labels(&site))
            .unwrap();
        let best = ranked.best().unwrap();
        let rule = best.portable_rule();
        let mut replayed = NodeSet::new();
        for p in 0..site.page_count() as u32 {
            replayed.extend(
                rule.apply(site.page(p))
                    .into_iter()
                    .map(|id| aw_dom::PageNode::new(p, id)),
            );
        }
        assert_eq!(replayed, best.extraction);
    }

    #[test]
    fn rules_on_mismatched_pages_extract_nothing_harmful() {
        let site = training_site();
        let rule = LearnedRule::learn(&site, WrapperLanguage::XPath, &labels(&site));
        let unrelated = aw_dom::parse("<p>just a paragraph</p>");
        assert!(rule.apply(&unrelated).is_empty());
        let hlrt = LearnedRule::learn(&site, WrapperLanguage::Hlrt, &labels(&site));
        assert!(hlrt.apply(&unrelated).is_empty());
    }

    #[test]
    fn lr_and_hlrt_extract_every_record_of_a_large_page() {
        // One 32 000-record page: every record comes back, in document
        // order. (The span lookups behind it are bounded by comparison
        // count in `aw_dom::serialize`'s tests.)
        let n = 32_000;
        let mut html = String::from("<div>");
        for i in 0..n {
            html.push_str(&format!("<b>x{i}</b>"));
        }
        html.push_str("</div>");
        let doc = aw_dom::parse(&html);
        let lr = LrRule {
            left: "<b>".into(),
            right: "</b>".into(),
        };
        let nodes = LearnedRule::Lr(lr.clone()).apply(&doc);
        assert_eq!(nodes.len(), n);
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(doc.text(nodes[n - 1]), Some("x31999"));
        let hlrt = LearnedRule::Hlrt(HlrtRule {
            head: "<div>".into(),
            tail: "</div>".into(),
            lr,
        });
        assert_eq!(hlrt.apply(&doc), nodes);
    }
}
