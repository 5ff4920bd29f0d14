//! Portable learned rules.
//!
//! Inside the framework a wrapper is identified by its output on the
//! training site (§6). A production deployment, though, learns once and
//! then extracts from *future* pages of the same script — the paper's
//! Yahoo! pipeline applies wrappers to freshly crawled pages. A
//! [`LearnedRule`] captures the rule itself, detached from any site, and
//! applies to any [`Document`].

use crate::config::WrapperLanguage;
use crate::learner::NtwOutcome;
use aw_dom::{serialize_with_spans, Document, NodeId};
use aw_induct::lr::scan_spans;
use aw_induct::{
    DomTableInductor, HlrtInductor, HlrtRule, LrInductor, LrRule, NodeSet, Site, TableRule,
    XPathInductor,
};
use aw_pool::Executor;
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
    /// language.
    pub fn apply(&self, doc: &Document) -> Vec<NodeId> {
        match self {
            LearnedRule::XPath(xp) => aw_xpath::evaluate(xp, doc),
            LearnedRule::Table(rule) => rule.apply(doc),
            _ => self.apply_serialized(&serialize_with_spans(doc)),
        }
    }

    /// Applies an LR/HLRT rule against a pre-serialized page, so a rule
    /// *set* serializes each page once, not once per rule.
    fn apply_serialized(&self, page: &aw_dom::SerializedPage) -> Vec<NodeId> {
        match self {
            // XPath and TABLE rules never take this path: they evaluate
            // against the document tree, not the serialized byte stream.
            LearnedRule::XPath(xp) => unreachable!("xpath rule {xp} applied as serialized"),
            LearnedRule::Table(rule) => unreachable!("table rule {rule} applied as serialized"),
            LearnedRule::Lr(rule) => {
                let mut out: Vec<NodeId> = scan_spans(&page.html, &rule.left, &rule.right)
                    .into_iter()
                    .flat_map(|(s, e)| page.nodes_in_range(s, e))
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            }
            LearnedRule::Hlrt(rule) => {
                let html = &page.html;
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
                let region = &html[start..end];
                let mut out: Vec<NodeId> = scan_spans(region, &rule.lr.left, &rule.lr.right)
                    .into_iter()
                    .flat_map(|(s, e)| page.nodes_in_range(start + s, start + e))
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
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

/// A set of portable rules applied together.
///
/// XPath members are compiled once into a shared-prefix
/// [`aw_xpath::BatchEvaluator`], so applying the set to each freshly
/// crawled page evaluates every common step prefix once per page instead
/// of once per rule. LR/HLRT members are applied individually (their
/// scan shares the page serialization, computed once per call).
#[derive(Debug)]
pub struct LearnedRuleSet {
    rules: Vec<LearnedRule>,
    batch: aw_xpath::BatchEvaluator,
    /// Rule index → slot in the batch evaluator (xpath rules only).
    batch_slot: Vec<Option<usize>>,
}

impl LearnedRuleSet {
    /// Builds the set, compiling the xpath members.
    pub fn new(rules: Vec<LearnedRule>) -> LearnedRuleSet {
        let mut xpaths: Vec<&XPath> = Vec::new();
        let mut batch_slot = Vec::with_capacity(rules.len());
        for rule in &rules {
            batch_slot.push(match rule {
                LearnedRule::XPath(xp) => {
                    xpaths.push(xp);
                    Some(xpaths.len() - 1)
                }
                _ => None,
            });
        }
        let batch = aw_xpath::BatchEvaluator::from_xpaths(xpaths);
        LearnedRuleSet {
            rules,
            batch,
            batch_slot,
        }
    }

    /// The rules, in construction order.
    pub fn rules(&self) -> &[LearnedRule] {
        &self.rules
    }

    /// Enables or disables the cross-page template cache of the xpath
    /// batch engine (enabled by default; disabling discards recorded
    /// traces). Replay is byte-identical to fresh evaluation, so the
    /// only reason to disable it is bounding memory on workloads with
    /// unbounded distinct templates.
    pub fn set_template_cache(&mut self, enabled: bool) {
        self.batch.set_cache(enabled);
    }

    /// `(replayed pages, other pages)` template-cache statistics of the
    /// xpath batch engine; `None` when the cache is disabled.
    pub fn template_cache_stats(&self) -> Option<(u64, u64)> {
        self.batch.template_cache().map(|c| c.stats())
    }

    /// Replay-path breakdown of the xpath batch engine — how pages split
    /// across verbatim replays, stitched frame replays and fresh
    /// evaluation, and how records split within frame replays; `None`
    /// when the cache is disabled.
    pub fn template_replay_stats(&self) -> Option<aw_xpath::ReplayStats> {
        self.batch.template_cache().map(|c| c.replay_stats())
    }

    /// Applies every rule to a page; results align with [`Self::rules`].
    /// Each list equals what [`LearnedRule::apply`] returns for that rule.
    pub fn apply(&self, doc: &Document) -> Vec<Vec<NodeId>> {
        let mut xpath_results = self.batch.evaluate(doc);
        // One serialization shared by every LR/HLRT member (skipped for
        // sets without any — xpath evaluates through the document index,
        // TABLE through the grid coordinates).
        let page = self
            .rules
            .iter()
            .any(|r| matches!(r, LearnedRule::Lr(_) | LearnedRule::Hlrt(_)))
            .then(|| serialize_with_spans(doc));
        self.rules
            .iter()
            .zip(&self.batch_slot)
            .map(|(rule, slot)| match (slot, rule) {
                (Some(i), _) => std::mem::take(&mut xpath_results[*i]),
                (None, LearnedRule::Table(t)) => t.apply(doc),
                (None, _) => rule.apply_serialized(page.as_ref().expect("serialized for LR/HLRT")),
            })
            .collect()
    }

    /// Extracts the matched text *values* for every rule; results align
    /// with [`Self::rules`], each list equal to
    /// [`LearnedRule::extract_values`] for that rule.
    ///
    /// This is the text-only consumer path: xpath members evaluate
    /// through [`aw_xpath::BatchEvaluator::evaluate_shared`], whose
    /// sink memoizes terminal `NodeId` materializations across template
    /// replays — the node vectors are read for their text here and never
    /// mutated, so replayed pages of one template share a single
    /// materialization per trie leaf instead of rebuilding it per page.
    pub fn extract_values(&self, doc: &Document) -> Vec<Vec<String>> {
        let xpath_results = self.batch.evaluate_shared(doc);
        let page = self
            .rules
            .iter()
            .any(|r| matches!(r, LearnedRule::Lr(_) | LearnedRule::Hlrt(_)))
            .then(|| serialize_with_spans(doc));
        let text = |ids: &[NodeId]| -> Vec<String> {
            ids.iter()
                .filter_map(|&id| doc.text(id).map(str::to_string))
                .collect()
        };
        self.rules
            .iter()
            .zip(&self.batch_slot)
            .map(|(rule, slot)| match (slot, rule) {
                (Some(i), _) => text(&xpath_results[*i]),
                (None, LearnedRule::Table(t)) => text(&t.apply(doc)),
                (None, _) => {
                    text(&rule.apply_serialized(page.as_ref().expect("serialized for LR/HLRT")))
                }
            })
            .collect()
    }

    /// Batch-replays the whole rule set over a crawl, page-parallel.
    ///
    /// Pages are independent, so they are driven through the shared
    /// work-stealing `exec` (order-preserving output): `out[p]` equals
    /// [`Self::apply`] on `docs[p]` regardless of thread count, and the
    /// call nests cleanly inside other parallel loops on the same
    /// executor. This is the production hot loop — one learned rule
    /// set, thousands of freshly crawled pages — and crawls of one site
    /// replay template traces across structurally identical pages (the
    /// xpath batch trie's [`aw_xpath::TemplateCache`]).
    pub fn apply_pages(&self, docs: &[Document], exec: &Executor) -> Vec<Vec<Vec<NodeId>>> {
        exec.map(docs, |doc| self.apply(doc))
    }
}

impl NtwOutcome {
    /// The portable rule of the top-ranked wrapper.
    pub fn best_rule(&self, site: &Site, language: WrapperLanguage) -> Option<LearnedRule> {
        self.best()
            .map(|w| LearnedRule::learn(site, language, &w.seed))
    }

    /// Portable rules for **all** ranked wrappers, ready for batched
    /// application to unseen pages (best wrapper first). The site's
    /// inductor (feature maps, posting indexes) is built once and reused
    /// across wrappers, unlike repeated [`LearnedRule::learn`] calls.
    pub fn rule_set(&self, site: &Site, language: WrapperLanguage) -> LearnedRuleSet {
        let seeds = self.ranked.iter().map(|w| &w.seed);
        let rules: Vec<LearnedRule> = match language {
            WrapperLanguage::XPath => {
                let ind = XPathInductor::new(site);
                seeds.map(|s| LearnedRule::XPath(ind.xpath(s))).collect()
            }
            WrapperLanguage::Lr => {
                let ind = LrInductor::new(site);
                seeds.map(|s| LearnedRule::Lr(ind.learn(s))).collect()
            }
            WrapperLanguage::Hlrt => {
                let ind = HlrtInductor::new(site);
                seeds.map(|s| LearnedRule::Hlrt(ind.learn(s))).collect()
            }
            WrapperLanguage::Table => {
                let ind = DomTableInductor::new(site);
                seeds.map(|s| LearnedRule::Table(ind.learn(s))).collect()
            }
        };
        LearnedRuleSet::new(rules)
    }
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
        let out = ranked.outcome();
        let rule = out.best_rule(&site, WrapperLanguage::XPath).unwrap();

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
        let out = ranked.outcome();
        let rule = out.best_rule(&site, WrapperLanguage::Lr).unwrap();
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
        let out = ranked.outcome();
        let best = out.best().unwrap();
        let rule = out.best_rule(&site, WrapperLanguage::XPath).unwrap();
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
    fn rule_set_batches_xpaths_and_matches_individual_apply() {
        let site = training_site();
        let seed = labels(&site);
        let ranked = Engine::builder(model())
            .language(WrapperLanguage::XPath)
            .build()
            .learn(&site, &seed)
            .unwrap();
        let out = ranked.outcome();
        let set = out.rule_set(&site, WrapperLanguage::XPath);
        assert_eq!(set.rules().len(), out.ranked.len());
        let new_page = aw_dom::parse(
            "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr>\
             <tr><td><b>SIGMA BROS</b></td><td>7 Oak</td></tr></table>",
        );
        let batched = set.apply(&new_page);
        assert_eq!(batched.len(), set.rules().len());
        for (rule, got) in set.rules().iter().zip(&batched) {
            assert_eq!(
                got,
                &rule.apply(&new_page),
                "batched apply differs for {rule}"
            );
        }
    }

    #[test]
    fn rule_set_mixes_languages() {
        let site = training_site();
        let seed = labels(&site);
        let set = LearnedRuleSet::new(vec![
            LearnedRule::learn(&site, WrapperLanguage::XPath, &seed),
            LearnedRule::learn(&site, WrapperLanguage::Lr, &seed),
            LearnedRule::learn(&site, WrapperLanguage::Hlrt, &seed),
        ]);
        let page = aw_dom::parse(
            "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr></table>",
        );
        let results = set.apply(&page);
        assert_eq!(results.len(), 3);
        for (rule, got) in set.rules().iter().zip(&results) {
            assert_eq!(
                got,
                &rule.apply(&page),
                "mixed-language apply differs for {rule}"
            );
        }
    }

    #[test]
    fn parallel_replay_is_identical_across_thread_counts() {
        let site = training_site();
        let seed = labels(&site);
        let set = LearnedRuleSet::new(vec![
            LearnedRule::learn(&site, WrapperLanguage::XPath, &seed),
            LearnedRule::learn(&site, WrapperLanguage::Lr, &seed),
            LearnedRule::learn(&site, WrapperLanguage::Hlrt, &seed),
        ]);
        // A small "crawl": fresh pages of the same script, plus junk.
        let crawl: Vec<aw_dom::Document> = [
            "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr></table>",
            "<table class='stores'><tr><td><b>SIGMA BROS</b></td><td>7 Oak</td></tr>\
             <tr><td><b>KAPPA SONS</b></td><td>4 Fir</td></tr></table>",
            "<p>just a paragraph</p>",
            "",
        ]
        .iter()
        .map(|html| aw_dom::parse(html))
        .collect();
        let sequential: Vec<Vec<Vec<aw_dom::NodeId>>> =
            crawl.iter().map(|doc| set.apply(doc)).collect();
        for threads in [1, 2, 4] {
            assert_eq!(
                set.apply_pages(&crawl, &Executor::new(threads)),
                sequential,
                "thread count {threads}"
            );
        }
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
}
