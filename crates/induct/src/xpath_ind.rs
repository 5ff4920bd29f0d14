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
//! `φ(L)` is the set of text nodes whose features include the intersection
//! of the labels' features — which corresponds to the most specific xpath
//! of the fragment consistent with all labels, the fixpoint of the
//! "specialize `//*` while keeping recall 1" induction of the original
//! paper. [`XPathInductor::xpath`] renders that xpath.

use crate::features::{intersect_features, FeatureMap, PostingIndex};
use crate::site::Site;
use crate::traits::{FeatureBased, ItemSet, WrapperInductor};
use aw_dom::PageNode;
use aw_xpath::{Axis, NodeTest, Predicate, Step, XPath};

/// Attribute identifiers of the XPATH feature space.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum XAttr {
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
    Html(u16, String),
}

impl XAttr {
    fn position(&self) -> u16 {
        match self {
            XAttr::TextIndex => 0,
            XAttr::Tag(p) | XAttr::ChildNum(p) => *p,
            XAttr::Html(p, _) => *p,
        }
    }
}

/// The XPATH inductor bound to a [`Site`].
#[derive(Debug)]
pub struct XPathInductor<'a> {
    site: &'a Site,
    /// Feature map of each text node, indexed as in `site.text_nodes()`.
    features: Vec<FeatureMap<XAttr, String>>,
    index: PostingIndex<XAttr, String>,
}

impl<'a> XPathInductor<'a> {
    /// Builds the inductor (pre-computing features and posting lists).
    pub fn new(site: &'a Site) -> Self {
        let features: Vec<FeatureMap<XAttr, String>> = site
            .text_nodes()
            .iter()
            .map(|&pn| Self::node_features(site, pn))
            .collect();
        let index = PostingIndex::build(&features);
        XPathInductor {
            site,
            features,
            index,
        }
    }

    /// The site this inductor operates over.
    pub fn site(&self) -> &Site {
        self.site
    }

    fn node_features(site: &Site, pn: PageNode) -> FeatureMap<XAttr, String> {
        let (doc, id) = site.resolve(pn);
        let idx = doc.index();
        let mut map = FeatureMap::new();
        // Cached 1-based position among text-node siblings (0 = n/a),
        // replacing an O(siblings) rescan per labeled node.
        let k = idx.text_pos(id);
        if k > 0 {
            map.insert(XAttr::TextIndex, k.to_string());
        }
        for (i, anc) in doc.ancestors(id).enumerate() {
            let pos = (i + 1) as u16;
            let Some(tag) = doc.tag(anc) else {
                break; // reached the document root
            };
            map.insert(XAttr::Tag(pos), tag.to_string());
            let k = idx.same_tag_pos(anc);
            if k > 0 {
                map.insert(XAttr::ChildNum(pos), k.to_string());
            }
            for (name, value) in doc.attributes(anc) {
                map.insert(XAttr::Html(pos, name.to_string()), value.to_string());
            }
        }
        map
    }

    fn feature_map_of(&self, node: PageNode) -> Option<&FeatureMap<XAttr, String>> {
        self.site
            .text_node_index(node)
            .map(|i| &self.features[i as usize])
    }

    /// The required feature set for a label set: the labels' common
    /// features, minus every child number whose position keeps no tag.
    ///
    /// A child number is a same-tag sibling position, so without its tag
    /// it has no xpath form (`*[k]` counts all element siblings). Dropping
    /// it keeps the hypothesis language exactly the renderable xpaths, and
    /// φ stays a closure operator: if `ChildNum(p)` survives for a label
    /// set, so does `Tag(p)` for every subset of it.
    pub fn required_features(&self, labels: &ItemSet<PageNode>) -> FeatureMap<XAttr, String> {
        let maps: Vec<&FeatureMap<XAttr, String>> = labels
            .iter()
            .filter_map(|&l| self.feature_map_of(l))
            .collect();
        let mut req = intersect_features(&maps);
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

    /// Renders the learned rule as an [`XPath`] of the fragment. It
    /// selects exactly [`WrapperInductor::extract`] of the same labels on
    /// every page of the site.
    pub fn xpath(&self, labels: &ItemSet<PageNode>) -> XPath {
        let req = self.required_features(labels);
        let max_pos = req.keys().map(XAttr::position).max().unwrap_or(0);
        let mut steps = Vec::new();
        // Outermost ancestor first.
        for pos in (1..=max_pos).rev() {
            let axis = if pos == max_pos {
                Axis::Descendant
            } else {
                Axis::Child
            };
            let tag = req.get(&XAttr::Tag(pos));
            let test = match tag {
                Some(t) => NodeTest::Tag(t.clone()),
                None => NodeTest::AnyElement,
            };
            let mut predicates = Vec::new();
            if let Some(k) = req.get(&XAttr::ChildNum(pos)) {
                if let Ok(k) = k.parse() {
                    predicates.push(Predicate::Position(k));
                }
            }
            for (attr, value) in req.iter() {
                if let XAttr::Html(p, name) = attr {
                    if *p == pos {
                        predicates.push(Predicate::Attr {
                            name: name.clone(),
                            value: value.clone(),
                        });
                    }
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
        if let Some(k) = req.get(&XAttr::TextIndex) {
            if let Ok(k) = k.parse() {
                text_preds.push(Predicate::Position(k));
            }
        }
        steps.push(Step {
            axis: text_axis,
            test: NodeTest::Text,
            predicates: text_preds,
        });
        XPath::new(steps)
    }
}

impl WrapperInductor for XPathInductor<'_> {
    type Item = PageNode;

    fn extract(&self, labels: &ItemSet<PageNode>) -> ItemSet<PageNode> {
        if labels.is_empty() {
            return ItemSet::new();
        }
        let req = self.required_features(labels);
        self.index
            .matching(&req)
            .into_iter()
            .map(|i| self.site.text_nodes()[i as usize])
            .collect()
    }

    fn rule(&self, labels: &ItemSet<PageNode>) -> String {
        if labels.is_empty() {
            return "∅".into();
        }
        self.xpath(labels).to_string()
    }

    fn universe(&self) -> ItemSet<PageNode> {
        self.site.text_nodes().iter().copied().collect()
    }
}

impl FeatureBased for XPathInductor<'_> {
    type Attr = XAttr;

    fn attributes(&self, labels: &ItemSet<PageNode>) -> Vec<XAttr> {
        let mut attrs: ItemSet<&XAttr> = ItemSet::new();
        for &l in labels {
            if let Some(map) = self.feature_map_of(l) {
                attrs.extend(map.keys());
            }
        }
        attrs.into_iter().cloned().collect()
    }

    fn subdivision(&self, s: &ItemSet<PageNode>, attr: &XAttr) -> Vec<ItemSet<PageNode>> {
        let mut groups: std::collections::BTreeMap<&str, ItemSet<PageNode>> = Default::default();
        for &node in s {
            if let Some(v) = self.feature_map_of(node).and_then(|m| m.get(attr)) {
                groups.entry(v.as_str()).or_default().insert(node);
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
        assert!(attrs.contains(&XAttr::Html(4, "class".into())));
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
}
