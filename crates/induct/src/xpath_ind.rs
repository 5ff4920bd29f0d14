//! The XPATH wrapper inductor (§5, after Dalvi et al. SIGMOD 2009).
//!
//! Viewed as a feature-based inductor: for a text node *n*, walk the path
//! from *n* to the root; the ancestor at position *i* (1 = parent)
//! contributes features
//!
//! * `(i:tagname, tag)`,
//! * `(i:childnumber, k)` where *k* is the ancestor's 1-based position
//!   among same-tag siblings (the meaning of `td[2]`), and
//! * `(i:attr:name, value)` for each of its HTML attributes.
//!
//! §4.2 defines `φ(L) = {n | F(n) ⊇ ⋂_{ℓ∈L} F(ℓ)}`. The labels' common
//! features correspond to the most specific xpath of the fragment
//! consistent with all labels, the fixpoint of the "specialize `//*` while
//! keeping recall 1" induction of the original paper;
//! [`XPathInductor::xpath`] renders it, and `φ(L)` is that xpath compiled
//! and evaluated by `aw_xpath::evaluate_compiled` on every page of the
//! site (`tests/xpath_differential.rs` and `tests/deployed_equals_scored.rs`
//! check that engine against the serving `BatchEvaluator`).
//!
//! §5 notes that a feature-based inductor "does not need to construct the
//! feature space, as long as we can efficiently implement subdivision".
//! This one builds nothing for the site: a node's features are computed
//! the first time enumeration asks about it (only labels are asked about),
//! from its ancestor chain, and kept for the inductor's lifetime as a
//! sorted run of [`XFeature`]s whose values are borrowed from the document
//! or kept as integers. No posting lists exist; the labels' common
//! features are the intersection of their runs.

use crate::site::Site;
use crate::traits::{FeatureBased, ItemSet, WrapperInductor};
use aw_dom::PageNode;
use aw_xpath::{evaluate_compiled, Axis, CompiledXPath, NodeTest, Predicate, Step, XPath};
use std::cell::{Ref, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// Attribute identifiers of the XPATH feature space. Attribute names are
/// borrowed from the site's documents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum XAttr<'a> {
    /// The labeled text node's 1-based index among its parent's
    /// *text-node* children — renders as `text()[k]`. This separates
    /// `<br>`-delimited record fields (name / street / city line), which
    /// are sibling text nodes invisible to ancestor features alone.
    TextIndex,
    /// `(pos:tagname)`.
    Tag(u16),
    /// `(pos:childnumber)`.
    ChildNum(u16),
    /// `(pos:attr:name)`.
    Html(u16, &'a str),
}

impl XAttr<'_> {
    /// The ancestor position the attribute describes (0 = the text node).
    fn position(&self) -> u16 {
        match *self {
            XAttr::TextIndex => 0,
            XAttr::Tag(p) | XAttr::ChildNum(p) | XAttr::Html(p, _) => p,
        }
    }
}

/// The value of an XPATH feature: a tag or attribute value borrowed from
/// the document, or a sibling position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum XValue<'a> {
    /// [`XAttr::TextIndex`] and [`XAttr::ChildNum`] values.
    Pos(u32),
    /// [`XAttr::Tag`] and [`XAttr::Html`] values.
    Str(&'a str),
}

/// One feature of a text node. Pairs sort by attribute first, so a
/// node's sorted features (its *run*) hold each attribute at most once,
/// in attribute order.
pub type XFeature<'a> = (XAttr<'a>, XValue<'a>);

/// The value `run` (sorted) holds for `attr`.
fn value_of<'a>(run: &[XFeature<'a>], attr: XAttr) -> Option<XValue<'a>> {
    let i = run.partition_point(|(a, _)| *a < attr);
    run.get(i).filter(|(a, _)| *a == attr).map(|&(_, v)| v)
}

#[cfg(test)]
thread_local! {
    /// Ancestors whose features were computed on this thread.
    static ANCESTORS_VISITED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The runs of the nodes asked about so far, stored back to back.
#[derive(Debug, Default)]
struct FeatureCache<'a> {
    /// A node's run as a range of `features`.
    runs: HashMap<PageNode, (u32, u32)>,
    features: Vec<XFeature<'a>>,
}

impl<'a> FeatureCache<'a> {
    /// Computes `node`'s run unless it is known or `node` is not a text
    /// node of `site`.
    fn ensure(&mut self, site: &'a Site, node: PageNode) {
        let Some(doc) = site.pages().get(node.page as usize) else {
            return;
        };
        if node.node.index() >= doc.len() || !doc.is_text(node.node) {
            return;
        }
        let Entry::Vacant(slot) = self.runs.entry(node) else {
            return;
        };
        let start = self.features.len();
        let out = &mut self.features;
        let idx = doc.index();
        // Cached 1-based position among text-node siblings (0 = n/a).
        let k = idx.text_pos(node.node);
        if k > 0 {
            out.push((XAttr::TextIndex, XValue::Pos(k)));
        }
        for (i, anc) in doc.ancestors(node.node).enumerate() {
            #[cfg(test)]
            ANCESTORS_VISITED.with(|n| n.set(n.get() + 1));
            let pos = (i + 1) as u16;
            let Some(tag) = doc.tag(anc) else {
                break; // reached the document root
            };
            out.push((XAttr::Tag(pos), XValue::Str(tag)));
            let k = idx.same_tag_pos(anc);
            if k > 0 {
                out.push((XAttr::ChildNum(pos), XValue::Pos(k)));
            }
            // One value per attribute, as intersecting runs needs: a
            // repeated attribute name keeps its last value.
            for (j, (name, value)) in doc.attributes(anc).enumerate() {
                if !doc.attributes(anc).skip(j + 1).any(|(n, _)| n == name) {
                    out.push((XAttr::Html(pos, name), XValue::Str(value)));
                }
            }
        }
        out[start..].sort_unstable();
        slot.insert((start as u32, out.len() as u32));
    }

    /// The run of `node`, if it is a text node seen by [`Self::ensure`].
    fn run(&self, node: PageNode) -> Option<&[XFeature<'a>]> {
        let &(start, end) = self.runs.get(&node)?;
        Some(&self.features[start as usize..end as usize])
    }
}

/// The XPATH inductor bound to a [`Site`].
#[derive(Debug)]
pub struct XPathInductor<'a> {
    site: &'a Site,
    cache: RefCell<FeatureCache<'a>>,
}

impl<'a> XPathInductor<'a> {
    /// Binds the inductor to `site`. Nothing is computed until labels are
    /// asked about.
    pub fn new(site: &'a Site) -> Self {
        XPathInductor {
            site,
            cache: RefCell::default(),
        }
    }

    /// The site this inductor operates over.
    pub fn site(&self) -> &Site {
        self.site
    }

    /// The feature cache, holding the runs of every text node of `nodes`.
    fn runs_of(&self, nodes: &ItemSet<PageNode>) -> Ref<'_, FeatureCache<'a>> {
        let mut cache = self.cache.borrow_mut();
        for &node in nodes {
            cache.ensure(self.site, node);
        }
        drop(cache);
        self.cache.borrow()
    }

    /// The required feature set for a label set, sorted by attribute: the
    /// labels' common features, minus every child number whose position
    /// keeps no tag.
    ///
    /// A child number is a same-tag sibling position, so without its tag
    /// it has no xpath form (`*[k]` counts all element siblings). Dropping
    /// it keeps the hypothesis language exactly the renderable xpaths, and
    /// φ stays a closure operator: if `ChildNum(p)` survives for a label
    /// set, so does `Tag(p)` for every subset of it.
    pub fn required_features(&self, labels: &ItemSet<PageNode>) -> Vec<XFeature<'a>> {
        let cache = self.runs_of(labels);
        let mut runs = labels.iter().filter_map(|&l| cache.run(l));
        // A node has one value per attribute, so the features every label
        // has with equal values are the intersection of the sorted runs.
        let mut req = runs.next().map_or_else(Vec::new, <[_]>::to_vec);
        for run in runs {
            req.retain(|f| run.binary_search(f).is_ok());
        }
        let tagged: Vec<u16> = req
            .iter()
            .filter_map(|(a, _)| match a {
                XAttr::Tag(p) => Some(*p),
                _ => None,
            })
            .collect();
        req.retain(|(a, _)| !matches!(a, XAttr::ChildNum(p) if !tagged.contains(p)));
        req
    }

    /// Renders the learned rule as an [`XPath`] of the fragment; its
    /// evaluation on every page of the site is
    /// [`WrapperInductor::extract`] of the same labels.
    pub fn xpath(&self, labels: &ItemSet<PageNode>) -> XPath {
        let req = self.required_features(labels);
        let max_pos = req.iter().map(|(a, _)| a.position()).max().unwrap_or(0);
        let mut steps = Vec::with_capacity(max_pos as usize + 1);
        // Outermost ancestor first.
        for pos in (1..=max_pos).rev() {
            let axis = if pos == max_pos {
                Axis::Descendant
            } else {
                Axis::Child
            };
            let test = match value_of(&req, XAttr::Tag(pos)) {
                Some(XValue::Str(tag)) => NodeTest::Tag(tag.to_string()),
                _ => NodeTest::AnyElement,
            };
            let mut predicates = Vec::new();
            if let Some(XValue::Pos(k)) = value_of(&req, XAttr::ChildNum(pos)) {
                predicates.push(Predicate::Position(k as usize));
            }
            let html = req.partition_point(|(a, _)| *a < XAttr::Html(pos, ""));
            for &feature in &req[html..] {
                match feature {
                    (XAttr::Html(p, name), XValue::Str(value)) if p == pos => {
                        predicates.push(Predicate::Attr {
                            name: name.to_string(),
                            value: value.to_string(),
                        })
                    }
                    _ => break,
                }
            }
            steps.push(Step {
                axis,
                test,
                predicates,
            });
        }
        // The final text() step: descendant when no ancestor constraints
        // exist at all (the `//*`-like wrapper extracting every text node).
        let text_axis = if max_pos == 0 {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let mut text_preds = Vec::new();
        if let Some(XValue::Pos(k)) = value_of(&req, XAttr::TextIndex) {
            text_preds.push(Predicate::Position(k as usize));
        }
        steps.push(Step {
            axis: text_axis,
            test: NodeTest::Text,
            predicates: text_preds,
        });
        XPath::new(steps)
    }

    /// The nodes `path` selects on the site's pages, through
    /// [`evaluate_compiled`].
    fn apply(&self, path: &XPath) -> ItemSet<PageNode> {
        let compiled = CompiledXPath::compile(path);
        self.site
            .pages()
            .iter()
            .enumerate()
            .flat_map(|(p, doc)| {
                evaluate_compiled(&compiled, doc)
                    .into_iter()
                    .map(move |id| PageNode::new(p as u32, id))
            })
            .collect()
    }
}

impl WrapperInductor for XPathInductor<'_> {
    type Item = PageNode;

    fn extract(&self, labels: &ItemSet<PageNode>) -> ItemSet<PageNode> {
        if labels.is_empty() {
            return ItemSet::new();
        }
        self.apply(&self.xpath(labels))
    }

    fn rule(&self, labels: &ItemSet<PageNode>) -> String {
        if labels.is_empty() {
            return "∅".into();
        }
        self.xpath(labels).to_string()
    }

    fn extract_with_rule(&self, labels: &ItemSet<PageNode>) -> (ItemSet<PageNode>, String) {
        if labels.is_empty() {
            return (ItemSet::new(), "∅".into());
        }
        let path = self.xpath(labels);
        (self.apply(&path), path.to_string())
    }

    fn universe(&self) -> ItemSet<PageNode> {
        self.site.text_nodes().iter().copied().collect()
    }
}

impl<'a> FeatureBased for XPathInductor<'a> {
    type Attr = XAttr<'a>;

    fn attributes(&self, labels: &ItemSet<PageNode>) -> Vec<XAttr<'a>> {
        let cache = self.runs_of(labels);
        let mut attrs: Vec<XAttr<'a>> = labels
            .iter()
            .filter_map(|&l| cache.run(l))
            .flatten()
            .map(|&(a, _)| a)
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        attrs
    }

    fn subdivision(&self, s: &ItemSet<PageNode>, attr: &XAttr<'a>) -> Vec<ItemSet<PageNode>> {
        let cache = self.runs_of(s);
        let mut groups: BTreeMap<XValue, ItemSet<PageNode>> = BTreeMap::new();
        for &node in s {
            if let Some(v) = cache.run(node).and_then(|run| value_of(run, *attr)) {
                groups.entry(v).or_default().insert(node);
            }
        }
        groups.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::check_well_behaved;
    use aw_xpath::evaluate;

    /// The Figure 1 site: two dealer pages with the same script.
    fn dealer_site() -> Site {
        Site::from_html(&[
            "<div class='dealerlinks'>\
               <tr><td><u>PORTER FURNITURE</u><br>201 HWY<br>NEW ALBANY, MS 38652</td></tr>\
               <tr><td><u>WOODLAND FURNITURE</u><br>123 Main St.<br>WOODLAND, MS 3977</td></tr>\
             </div><div class='footer'>contact us</div>",
            "<div class='dealerlinks'>\
               <tr><td><u>ACME CHAIRS</u><br>9 Low Rd<br>TUPELO, MS 38801</td></tr>\
             </div><div class='footer'>contact us</div>",
        ])
    }

    fn labels_of(site: &Site, texts: &[&str]) -> ItemSet<PageNode> {
        texts.iter().flat_map(|t| site.find_text(t)).collect()
    }

    /// `path` evaluated by the reference interpreter on every page.
    fn reference_extraction(site: &Site, path: &XPath) -> ItemSet<PageNode> {
        (0..site.page_count() as u32)
            .flat_map(|p| {
                aw_xpath::reference::evaluate(path, site.page(p))
                    .into_iter()
                    .map(move |id| PageNode::new(p, id))
            })
            .collect()
    }
    #[test]
    fn clean_labels_learn_the_intro_rule() {
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        let labels = labels_of(&site, &["PORTER FURNITURE", "WOODLAND FURNITURE"]);
        assert_eq!(labels.len(), 2);
        // The feature-based form is the *most specific* consistent xpath;
        // it carries the same constraints as the paper's intro rule plus
        // child-number refinements.
        let rule = ind.rule(&labels);
        assert_eq!(
            rule,
            "//div[1][@class='dealerlinks']/tr/td[1]/u[1]/text()[1]"
        );
        // Extraction generalizes to the unseen page's name too.
        let out = ind.extract(&labels);
        let texts: Vec<&str> = out.iter().map(|&n| site.text_of(n).unwrap()).collect();
        assert_eq!(
            texts,
            vec!["PORTER FURNITURE", "WOODLAND FURNITURE", "ACME CHAIRS"]
        );
    }

    #[test]
    fn noisy_label_overgeneralizes_exactly_like_the_paper() {
        // §1: adding the wrong label (an address) widens the rule to all
        // text under td.
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        let labels = labels_of(
            &site,
            &[
                "PORTER FURNITURE",
                "WOODLAND FURNITURE",
                "NEW ALBANY, MS 38652",
            ],
        );
        let out = ind.extract(&labels);
        // The <u> constraint is lost. The name and the address agree on no
        // tag at any ancestor position, and a child number without its tag
        // has no xpath form, so the wrapper is `//text()`: every text node
        // of both pages (7 on page 0, 4 on page 1), exactly what the
        // deployed rule extracts.
        let rule = ind.rule(&labels);
        assert!(!rule.contains("u["), "the <u> step must be dropped: {rule}");
        let xp = ind.xpath(&labels);
        let deployed: ItemSet<PageNode> = (0..site.page_count() as u32)
            .flat_map(|p| {
                evaluate(&xp, site.page(p))
                    .into_iter()
                    .map(move |id| PageNode::new(p, id))
            })
            .collect();
        assert_eq!(out, deployed, "{rule}");
        assert_eq!(out.len(), 11);
    }

    #[test]
    fn rendered_xpath_matches_feature_extraction() {
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        for texts in [
            vec!["PORTER FURNITURE", "WOODLAND FURNITURE"],
            vec!["PORTER FURNITURE", "ACME CHAIRS"],
            vec!["201 HWY", "9 Low Rd"],
            vec!["contact us"],
        ] {
            let labels = labels_of(&site, &texts);
            let xp = ind.xpath(&labels);
            let by_eval: ItemSet<PageNode> = (0..site.page_count() as u32)
                .flat_map(|p| {
                    evaluate(&xp, site.page(p))
                        .into_iter()
                        .map(move |id| PageNode::new(p, id))
                })
                .collect();
            assert_eq!(by_eval, ind.extract(&labels), "mismatch for {texts:?}");
        }
    }

    #[test]
    fn single_label_learns_most_specific_path() {
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        let labels = labels_of(&site, &["PORTER FURNITURE"]);
        let out = ind.extract(&labels);
        // The most specific path still matches same-position nodes on
        // *other* pages — that is the point of wrappers. Page 2's ACME
        // CHAIRS sits at the identical path (tr[1]).
        let texts: Vec<&str> = out.iter().map(|&n| site.text_of(n).unwrap()).collect();
        assert_eq!(texts, vec!["PORTER FURNITURE", "ACME CHAIRS"]);
    }

    #[test]
    fn disjoint_labels_extract_everything() {
        // A name and the footer share no ancestor features except none —
        // the intersection is empty, so the wrapper is `//text()`.
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        let labels = labels_of(&site, &["PORTER FURNITURE", "contact us"]);
        let req = ind.required_features(&labels);
        // Both are inside a <div>, but with different classes; tag feature
        // at some position may survive. Extraction must at least cover all
        // labels (fidelity) and here generalizes very widely.
        let out = ind.extract(&labels);
        assert!(labels.is_subset(&out));
        assert!(out.len() >= 7, "req={req:?} out={out:?}");
    }

    #[test]
    fn xpath_inductor_is_well_behaved() {
        // Theorem 5, checked exhaustively on a 5-label set.
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        let labels = labels_of(
            &site,
            &[
                "PORTER FURNITURE",
                "WOODLAND FURNITURE",
                "201 HWY",
                "ACME CHAIRS",
                "contact us",
            ],
        );
        // "contact us" occurs on both pages, so 6 labels in total.
        assert_eq!(labels.len(), 6);
        let report = check_well_behaved(&ind, &labels);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn subdivision_groups_by_feature_value() {
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        let labels = labels_of(&site, &["PORTER FURNITURE", "201 HWY", "contact us"]);
        // Split by parent tag: u vs (td-direct text) vs div.
        let groups = ind.subdivision(&labels, &XAttr::Tag(1));
        assert_eq!(groups.len(), 3);
        // Every group is a subset of the input.
        for g in &groups {
            assert!(g.is_subset(&labels));
        }
    }

    #[test]
    fn attributes_cover_label_depth() {
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        let labels = labels_of(&site, &["PORTER FURNITURE"]);
        let attrs = ind.attributes(&labels);
        // u(1), td(2), tr(3), div(4) → tag+childnum each, plus div class.
        assert!(attrs.contains(&XAttr::Tag(1)));
        assert!(attrs.contains(&XAttr::Tag(4)));
        assert!(attrs.contains(&XAttr::Html(4, "class")));
        assert!(!attrs.iter().any(|a| a.position() > 4));
    }

    #[test]
    fn empty_labels_extract_nothing() {
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        assert!(ind.extract(&ItemSet::new()).is_empty());
        assert_eq!(ind.rule(&ItemSet::new()), "∅");
    }

    #[test]
    fn universe_is_all_text_nodes() {
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        assert_eq!(ind.universe().len(), site.text_nodes().len());
    }

    #[test]
    fn extract_with_rule_is_extract_and_rule_from_one_learn() {
        let site = dealer_site();
        let ind = XPathInductor::new(&site);
        for texts in [
            vec!["PORTER FURNITURE", "WOODLAND FURNITURE"],
            vec!["201 HWY", "contact us"],
            vec![],
        ] {
            let labels = labels_of(&site, &texts);
            assert_eq!(
                ind.extract_with_rule(&labels),
                (ind.extract(&labels), ind.rule(&labels)),
                "{texts:?}"
            );
        }
    }

    #[test]
    fn features_are_computed_for_asked_nodes_only_once() {
        let site = dealer_site();
        let before = ANCESTORS_VISITED.with(|n| n.get());
        let ind = XPathInductor::new(&site);
        assert_eq!(
            ANCESTORS_VISITED.with(|n| n.get()),
            before,
            "new builds nothing"
        );
        let labels = labels_of(&site, &["PORTER FURNITURE"]);
        // The calls Algorithm 2 makes.
        for attr in ind.attributes(&labels) {
            for group in ind.subdivision(&labels, &attr) {
                ind.extract_with_rule(&group);
            }
        }
        // u, td, tr, div and the document root.
        assert_eq!(ANCESTORS_VISITED.with(|n| n.get()) - before, 5);
    }

    #[test]
    fn a_deep_page_costs_its_labels_ancestors_only() {
        // `<div>t` nested 4 000 deep: 4 000 text nodes whose ancestor
        // chains sum to 8 million entries if every text node's features
        // were built. One label costs its own chain.
        let depth = 4_000;
        let html = "<div>t".repeat(depth);
        let site = Site::from_html(&[html.as_str()]);
        assert_eq!(site.text_nodes().len(), depth);
        let before = ANCESTORS_VISITED.with(|n| n.get());
        let ind = XPathInductor::new(&site);
        let labels: ItemSet<PageNode> = site.text_nodes().last().copied().into_iter().collect();
        let (extraction, rule) = ind.extract_with_rule(&labels);
        let visited = ANCESTORS_VISITED.with(|n| n.get()) - before;
        assert!(
            visited <= labels.len() * depth + 1,
            "{visited} ancestors visited for {} label(s) {depth} deep",
            labels.len()
        );
        assert_eq!(extraction, reference_extraction(&site, &ind.xpath(&labels)));
        assert_eq!(extraction, labels);
        assert!(
            rule.ends_with("/div[1]/text()[1]"),
            "{}",
            &rule[rule.len() - 40..]
        );
    }

    /// The posting-index φ this inductor replaced, kept as its oracle:
    /// every text node's feature map built up front, posting lists over
    /// the whole site, and φ(L) the nodes holding all of the labels'
    /// common features.
    mod oracle {
        use super::*;
        use crate::traits::FeatureBased;
        use aw_annotate::{DictionaryAnnotator, MatchMode};
        use aw_sitegen::{
            generate_dealers, generate_disc, generate_products, DealersConfig, DiscConfig,
            ProductsConfig,
        };
        use std::collections::BTreeSet;

        type FeatureMap<'s> = BTreeMap<XAttr<'s>, String>;

        struct PostingIndexXPath<'s> {
            site: &'s Site,
            features: Vec<FeatureMap<'s>>,
            dense: HashMap<PageNode, u32>,
            postings: HashMap<(XAttr<'s>, String), Vec<u32>>,
        }

        impl<'s> PostingIndexXPath<'s> {
            fn new(site: &'s Site) -> Self {
                let features: Vec<FeatureMap> = site
                    .text_nodes()
                    .iter()
                    .map(|&pn| Self::node_features(site, pn))
                    .collect();
                let mut postings: HashMap<(XAttr, String), Vec<u32>> = HashMap::new();
                for (i, map) in features.iter().enumerate() {
                    for (&a, v) in map {
                        postings.entry((a, v.clone())).or_default().push(i as u32);
                    }
                }
                let dense = (0..).zip(site.text_nodes()).map(|(i, &n)| (n, i)).collect();
                PostingIndexXPath {
                    site,
                    features,
                    dense,
                    postings,
                }
            }

            fn node_features(site: &'s Site, pn: PageNode) -> FeatureMap<'s> {
                let (doc, id) = site.resolve(pn);
                let idx = doc.index();
                let mut map = FeatureMap::new();
                let k = idx.text_pos(id);
                if k > 0 {
                    map.insert(XAttr::TextIndex, k.to_string());
                }
                for (i, anc) in doc.ancestors(id).enumerate() {
                    let pos = (i + 1) as u16;
                    let Some(tag) = doc.tag(anc) else {
                        break;
                    };
                    map.insert(XAttr::Tag(pos), tag.to_string());
                    let k = idx.same_tag_pos(anc);
                    if k > 0 {
                        map.insert(XAttr::ChildNum(pos), k.to_string());
                    }
                    for (name, value) in doc.attributes(anc) {
                        map.insert(XAttr::Html(pos, name), value.to_string());
                    }
                }
                map
            }

            fn required(&self, labels: &ItemSet<PageNode>) -> FeatureMap<'s> {
                let maps: Vec<&FeatureMap> = labels
                    .iter()
                    .filter_map(|l| self.dense.get(l))
                    .map(|&i| &self.features[i as usize])
                    .collect();
                let Some((first, rest)) = maps.split_first() else {
                    return FeatureMap::new();
                };
                let mut req: FeatureMap = first
                    .iter()
                    .filter(|(a, v)| rest.iter().all(|m| m.get(a) == Some(v)))
                    .map(|(&a, v)| (a, v.clone()))
                    .collect();
                let tagged: Vec<u16> = req
                    .keys()
                    .filter_map(|a| match a {
                        XAttr::Tag(p) => Some(*p),
                        _ => None,
                    })
                    .collect();
                req.retain(|a, _| !matches!(a, XAttr::ChildNum(p) if !tagged.contains(p)));
                req
            }

            fn extract(&self, labels: &ItemSet<PageNode>) -> ItemSet<PageNode> {
                if labels.is_empty() {
                    return ItemSet::new();
                }
                let req = self.required(labels);
                let mut hits: Vec<u32> = (0..self.features.len() as u32).collect();
                for feature in req {
                    let list = self.postings.get(&feature).map_or(&[][..], Vec::as_slice);
                    hits.retain(|i| list.binary_search(i).is_ok());
                }
                hits.iter()
                    .map(|&i| self.site.text_nodes()[i as usize])
                    .collect()
            }

            fn rule(&self, labels: &ItemSet<PageNode>) -> String {
                if labels.is_empty() {
                    return "∅".into();
                }
                let req = self.required(labels);
                let max_pos = req.keys().map(XAttr::position).max().unwrap_or(0);
                let mut rule = String::new();
                for pos in (1..=max_pos).rev() {
                    rule += if pos == max_pos { "//" } else { "/" };
                    rule += req.get(&XAttr::Tag(pos)).map_or("*", String::as_str);
                    if let Some(k) = req.get(&XAttr::ChildNum(pos)) {
                        rule += &format!("[{k}]");
                    }
                    for (attr, value) in &req {
                        if let XAttr::Html(p, name) = attr {
                            if *p == pos {
                                rule += &format!("[@{name}='{value}']");
                            }
                        }
                    }
                }
                rule += if max_pos == 0 { "//text()" } else { "/text()" };
                if let Some(k) = req.get(&XAttr::TextIndex) {
                    rule += &format!("[{k}]");
                }
                rule
            }
        }

        /// Every subset Algorithm 2 (TopDown) and Algorithm 1 (BottomUp)
        /// call φ on for `labels`.
        fn evaluated_subsets(
            ind: &XPathInductor,
            labels: &ItemSet<PageNode>,
        ) -> BTreeSet<ItemSet<PageNode>> {
            let mut subsets = BTreeSet::from([labels.clone()]);
            for attr in ind.attributes(labels) {
                let snapshot: Vec<ItemSet<PageNode>> = subsets.iter().cloned().collect();
                for s in snapshot {
                    subsets.extend(ind.subdivision(&s, &attr));
                }
            }
            let mut queue = vec![ItemSet::new()];
            let mut expanded = BTreeSet::new();
            while let Some(closed) = queue.pop() {
                if !expanded.insert(closed.clone()) {
                    continue;
                }
                for &l in labels.difference(&closed) {
                    let mut seed = closed.clone();
                    seed.insert(l);
                    let next: ItemSet<PageNode> =
                        ind.extract(&seed).intersection(labels).copied().collect();
                    subsets.insert(seed);
                    if next.len() < labels.len() {
                        queue.push(next);
                    }
                }
            }
            subsets
        }

        /// Asserts equal extractions and rules on every evaluated subset;
        /// returns how many subsets were checked.
        fn assert_matches_oracle(site: &Site, labels: &ItemSet<PageNode>) -> usize {
            let ind = XPathInductor::new(site);
            let oracle = PostingIndexXPath::new(site);
            let subsets = evaluated_subsets(&ind, labels);
            for s in &subsets {
                let (extraction, rule) = ind.extract_with_rule(s);
                assert_eq!(rule, oracle.rule(s), "labels {s:?}");
                assert_eq!(extraction, oracle.extract(s), "rule {rule}");
            }
            subsets.len()
        }

        /// A site rebuilt from a generated site's documents.
        fn site_of(generated: &aw_sitegen::GeneratedSite) -> Site {
            Site::new(generated.site.pages().to_vec())
        }

        #[test]
        fn oracle_agrees_on_the_dealer_site() {
            let site = dealer_site();
            let labels = labels_of(
                &site,
                &[
                    "PORTER FURNITURE",
                    "WOODLAND FURNITURE",
                    "201 HWY",
                    "contact us",
                ],
            );
            assert!(assert_matches_oracle(&site, &labels) > 10);
        }

        #[test]
        fn oracle_agrees_on_theorem_generator_sites() {
            // The noisy-label generator of `tests/theorems.rs`.
            let mut checked = 0;
            for seed in 0..100 {
                let ds = generate_dealers(&DealersConfig {
                    sites: 1,
                    pages_per_site: 2,
                    records_per_page: (2, 4),
                    seed,
                    ..DealersConfig::default()
                });
                let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
                let items: Vec<PageNode> = annot.annotate(&ds.sites[0].site).into_iter().collect();
                let stride = (items.len() as f64 / 7.0).max(1.0);
                let labels: ItemSet<PageNode> = (0..items.len().min(7))
                    .map(|i| items[(i as f64 * stride) as usize])
                    .collect();
                checked += assert_matches_oracle(&site_of(&ds.sites[0]), &labels);
            }
            assert!(checked > 400, "{checked}");
        }

        #[test]
        fn oracle_agrees_on_dealers_disc_and_products() {
            let mut checked = 0;
            let dealers = generate_dealers(&DealersConfig::small(4, 0x7D01));
            let annot = DictionaryAnnotator::new(dealers.dictionary.iter(), MatchMode::Contains);
            for gs in &dealers.sites {
                checked += assert_matches_oracle(&site_of(gs), &annot.annotate(&gs.site));
            }
            let disc = generate_disc(&DiscConfig::small(3, 0x7D02));
            let annot = DictionaryAnnotator::new(disc.track_dictionary.iter(), MatchMode::Exact);
            for gs in &disc.sites {
                checked += assert_matches_oracle(&site_of(gs), &annot.annotate(&gs.site));
            }
            let products = generate_products(&ProductsConfig::small(3, 0x7D03));
            let annot = DictionaryAnnotator::new(products.dictionary.iter(), MatchMode::Contains);
            for gs in &products.sites {
                checked += assert_matches_oracle(&site_of(gs), &annot.annotate(&gs.site));
            }
            assert!(checked > 500, "{checked}");
        }
    }
}
