//! The LR wrapper inductor — the simplest WIEN wrapper class
//! (Kushmerick et al., §5).
//!
//! LR treats every page as a character sequence. Learning finds the
//! **longest common string preceding** (`l`) and **following** (`r`) the
//! labeled examples; extraction returns all *minimal* strings delimited by
//! the `(l, r)` pair, scanning left to right.
//!
//! Labels are text nodes; an extracted character span is mapped back to the
//! set of text nodes it fully contains, so LR wrappers are scored with the
//! same node-set machinery as XPATH wrappers.
//!
//! §5 also observes LR is feature-based: label ℓ has attributes `L_k`
//! (the `k` characters preceding ℓ) and `R_k` (the `k` characters following
//! ℓ) for every `k`. We cap `k` at [`LrInductor::context_cap`] bytes, which
//! bounds the feature space without changing behaviour on realistic pages
//! ("we do not need to construct the feature space, as long as we can
//! efficiently implement `subdivision`").

use crate::site::Site;
use crate::traits::{FeatureBased, ItemSet, WrapperInductor};
use aw_align::{common_prefix_len, common_suffix_len};
use aw_dom::PageNode;

/// Default byte cap on learned delimiter length / feature positions.
pub const DEFAULT_CONTEXT_CAP: usize = 64;

/// An LR rule: a pair of delimiter strings.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LrRule {
    /// Left delimiter (possibly empty).
    pub left: String,
    /// Right delimiter (possibly empty).
    pub right: String,
}

impl std::fmt::Display for LrRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LR({:?}, {:?})", self.left, self.right)
    }
}

/// Attribute identifiers of the LR feature space: `L_k` and `R_k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LrAttr {
    /// The `k`-byte left context.
    Left(usize),
    /// The `k`-byte right context.
    Right(usize),
}

/// The LR inductor bound to a [`Site`].
#[derive(Debug)]
pub struct LrInductor<'a> {
    site: &'a Site,
    context_cap: usize,
}

impl<'a> LrInductor<'a> {
    /// Creates an LR inductor with the default context cap.
    pub fn new(site: &'a Site) -> Self {
        Self::with_context_cap(site, DEFAULT_CONTEXT_CAP)
    }

    /// Creates an LR inductor with an explicit context cap.
    pub fn with_context_cap(site: &'a Site, context_cap: usize) -> Self {
        assert!(context_cap > 0, "context cap must be positive");
        LrInductor { site, context_cap }
    }

    /// The site this inductor operates over.
    pub fn site(&self) -> &Site {
        self.site
    }

    /// The context cap in bytes.
    pub fn context_cap(&self) -> usize {
        self.context_cap
    }

    /// The left context (up to the cap) of a label's span, borrowed from
    /// the page's serialization.
    fn left_context(&self, node: PageNode) -> Option<&'a str> {
        let page = self.site.serialized(node.page);
        let span = page.span_of(node.node)?;
        let mut from = span.start.saturating_sub(self.context_cap);
        while !page.html.is_char_boundary(from) {
            from += 1;
        }
        Some(&page.html[from..span.start])
    }

    /// The right context (up to the cap) of a label's span, borrowed from
    /// the page's serialization.
    fn right_context(&self, node: PageNode) -> Option<&'a str> {
        let page = self.site.serialized(node.page);
        let span = page.span_of(node.node)?;
        let mut to = (span.end + self.context_cap).min(page.html.len());
        while !page.html.is_char_boundary(to) {
            to -= 1;
        }
        Some(&page.html[span.end..to])
    }

    /// Learns the LR rule from labels: longest common suffix of left
    /// contexts, longest common prefix of right contexts.
    pub fn learn(&self, labels: &ItemSet<PageNode>) -> LrRule {
        let lefts: Vec<&str> = labels
            .iter()
            .filter_map(|&l| self.left_context(l))
            .collect();
        let rights: Vec<&str> = labels
            .iter()
            .filter_map(|&l| self.right_context(l))
            .collect();
        let lsuf = common_suffix_len(&lefts);
        let rpre = common_prefix_len(&rights);
        let left = lefts
            .first()
            .map(|s| s[s.len() - lsuf..].to_string())
            .unwrap_or_default();
        let right = rights
            .first()
            .map(|s| s[..rpre].to_string())
            .unwrap_or_default();
        LrRule { left, right }
    }

    /// Applies an LR rule to every page: sequential minimal-string scan,
    /// then span → contained-text-node mapping.
    pub fn apply(&self, rule: &LrRule) -> ItemSet<PageNode> {
        let mut out = ItemSet::new();
        for p in 0..self.site.page_count() as u32 {
            let page = self.site.serialized(p);
            for (start, end) in scan_spans(&page.html, &rule.left, &rule.right) {
                for node in page.nodes_in_range(start, end) {
                    out.insert(PageNode::new(p, node));
                }
            }
        }
        out
    }
}

/// All minimal `(l, r)`-delimited spans of `html`.
///
/// §5: the wrapper fetches "all the minimal strings that are delimited by
/// these pairs of strings" — for every occurrence of `l`, the span up to
/// the nearest following occurrence of `r`. Occurrences are enumerated
/// independently (not consumed), so a learned `r` that overlaps the next
/// `l` cannot mask matches.
///
/// Degenerate delimiters: empty `l` makes spans start after each `r`
/// (segments), empty `r` makes spans run to end of input, and the rule with
/// both empty yields one span covering the whole document — maximal
/// over-generalization, as the paper expects from LR under noise.
pub fn scan_spans(html: &str, l: &str, r: &str) -> Vec<(usize, usize)> {
    let n = html.len();
    match (l.is_empty(), r.is_empty()) {
        (true, true) => vec![(0, n)],
        (true, false) => {
            // Segments between consecutive occurrences of r.
            let mut spans = Vec::new();
            let mut cursor = 0;
            for (rs, _) in html.match_indices(r) {
                if rs >= cursor {
                    spans.push((cursor, rs));
                    cursor = rs + r.len();
                }
            }
            spans
        }
        (false, true) => html
            .match_indices(l)
            .map(|(i, _)| (i + l.len(), n))
            .collect(),
        (false, false) => {
            let rstarts: Vec<usize> = html.match_indices(r).map(|(i, _)| i).collect();
            html.match_indices(l)
                .filter_map(|(i, _)| {
                    let start = i + l.len();
                    let idx = rstarts.partition_point(|&rs| rs < start);
                    rstarts.get(idx).map(|&rs| (start, rs))
                })
                .collect()
        }
    }
}

impl WrapperInductor for LrInductor<'_> {
    type Item = PageNode;

    fn extract(&self, labels: &ItemSet<PageNode>) -> ItemSet<PageNode> {
        if labels.is_empty() {
            return ItemSet::new();
        }
        self.apply(&self.learn(labels))
    }

    fn rule(&self, labels: &ItemSet<PageNode>) -> String {
        if labels.is_empty() {
            return "∅".into();
        }
        self.learn(labels).to_string()
    }

    fn extract_with_rule(&self, labels: &ItemSet<PageNode>) -> (ItemSet<PageNode>, String) {
        if labels.is_empty() {
            return (ItemSet::new(), "∅".into());
        }
        let rule = self.learn(labels);
        (self.apply(&rule), rule.to_string())
    }

    fn universe(&self) -> ItemSet<PageNode> {
        self.site.text_nodes().iter().copied().collect()
    }
}

impl FeatureBased for LrInductor<'_> {
    type Attr = LrAttr;

    fn attributes(&self, labels: &ItemSet<PageNode>) -> Vec<LrAttr> {
        // Attributes L_1..L_cap and R_1..R_cap, bounded further by the
        // longest context actually available on any label.
        let max_left = labels
            .iter()
            .filter_map(|&l| self.left_context(l))
            .map(|s| s.len())
            .max()
            .unwrap_or(0);
        let max_right = labels
            .iter()
            .filter_map(|&l| self.right_context(l))
            .map(|s| s.len())
            .max()
            .unwrap_or(0);
        let mut attrs: Vec<LrAttr> = (1..=max_left).map(LrAttr::Left).collect();
        attrs.extend((1..=max_right).map(LrAttr::Right));
        attrs
    }

    fn subdivision(&self, s: &ItemSet<PageNode>, attr: &LrAttr) -> Vec<ItemSet<PageNode>> {
        let mut groups: std::collections::BTreeMap<&str, ItemSet<PageNode>> = Default::default();
        for &node in s {
            let value = match *attr {
                LrAttr::Left(k) => self
                    .left_context(node)
                    .filter(|c| c.len() >= k)
                    .map(|c| suffix_at_boundary(c, k)),
                LrAttr::Right(k) => self
                    .right_context(node)
                    .filter(|c| c.len() >= k)
                    .map(|c| prefix_at_boundary(c, k)),
            };
            if let Some(v) = value {
                groups.entry(v).or_default().insert(node);
            }
        }
        groups.into_values().collect()
    }
}

fn suffix_at_boundary(s: &str, k: usize) -> &str {
    let mut i = s.len() - k;
    while !s.is_char_boundary(i) {
        i += 1;
    }
    &s[i..]
}

fn prefix_at_boundary(s: &str, k: usize) -> &str {
    let mut i = k.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    &s[..i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::check_well_behaved;

    fn table_site() -> Site {
        Site::from_html(&[
            "<table>\
               <tr><td><b>ALPHA CO</b></td><td>12 Elm St</td></tr>\
               <tr><td><b>BETA LLC</b></td><td>9 Oak Ave</td></tr>\
             </table>",
            "<table>\
               <tr><td><b>GAMMA INC</b></td><td>4 Pine Rd</td></tr>\
             </table>",
        ])
    }

    fn labels_of(site: &Site, texts: &[&str]) -> ItemSet<PageNode> {
        texts.iter().flat_map(|t| site.find_text(t)).collect()
    }

    #[test]
    fn learns_delimiters_from_clean_labels() {
        let site = table_site();
        let ind = LrInductor::new(&site);
        let labels = labels_of(&site, &["ALPHA CO", "BETA LLC"]);
        let rule = ind.learn(&labels);
        assert!(rule.left.ends_with("<td><b>"), "left = {:?}", rule.left);
        assert!(rule.right.starts_with("</b>"), "right = {:?}", rule.right);
        // Extraction covers the unseen page's name.
        let out = ind.extract(&labels);
        let texts: Vec<&str> = out.iter().map(|&n| site.text_of(n).unwrap()).collect();
        assert_eq!(texts, vec!["ALPHA CO", "BETA LLC", "GAMMA INC"]);
    }

    #[test]
    fn noisy_label_collapses_delimiters() {
        // Adding an address label destroys the <b> context: the common
        // left suffix shrinks to "<td>"-ish, widening extraction.
        let site = table_site();
        let ind = LrInductor::new(&site);
        let clean = labels_of(&site, &["ALPHA CO", "BETA LLC"]);
        let noisy = labels_of(&site, &["ALPHA CO", "BETA LLC", "12 Elm St"]);
        let clean_out = ind.extract(&clean);
        let noisy_out = ind.extract(&noisy);
        assert!(clean_out.len() < noisy_out.len());
        assert_eq!(noisy_out.len(), 6, "all cells extracted: {noisy_out:?}");
    }

    #[test]
    fn paper_td_example() {
        // §5: the pair ("<td>", "</td>") fetches all table data items.
        let site = table_site();
        let ind = LrInductor::new(&site);
        let rule = LrRule {
            left: "<td>".into(),
            right: "</td>".into(),
        };
        let out = ind.apply(&rule);
        // Address cells are plain `<td>text</td>` so they match; name
        // cells are `<td><b>..</b></td>` whose minimal spans contain the
        // b-wrapped text nodes as well.
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn scan_spans_minimal_and_sequential() {
        let spans = scan_spans("<u>a</u><u>b</u>", "<u>", "</u>");
        assert_eq!(spans, vec![(3, 4), (11, 12)]);
    }

    #[test]
    fn scan_spans_empty_delimiters() {
        assert_eq!(scan_spans("abc", "", ""), vec![(0, 3)]);
        assert_eq!(scan_spans("a|b|c", "|", ""), vec![(2, 5), (4, 5)]);
        assert_eq!(scan_spans("a|b|c", "", "|"), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn scan_spans_overlapping_r_and_l() {
        // r = "</x><" overlaps the next l = "<y>"-like pattern; the
        // all-occurrences semantics must still find the second item.
        let html = "<a>1</a><a>2</a>";
        assert_eq!(scan_spans(html, ">", "</"), vec![(3, 4), (8, 12), (11, 12)]);
    }

    #[test]
    fn scan_spans_no_match() {
        assert!(scan_spans("abc", "<x>", "</x>").is_empty());
        assert!(scan_spans("<x>abc", "<x>", "</x>").is_empty());
    }

    #[test]
    fn single_label_learns_full_contexts() {
        let site = table_site();
        let ind = LrInductor::new(&site);
        let labels = labels_of(&site, &["GAMMA INC"]);
        let rule = ind.learn(&labels);
        // Full (capped) context on both sides.
        assert!(rule.left.len() <= DEFAULT_CONTEXT_CAP);
        assert!(rule.left.ends_with("<b>"));
        let out = ind.extract(&labels);
        assert!(out.contains(labels.iter().next().unwrap()));
    }

    #[test]
    fn lr_is_well_behaved_on_table_site() {
        // Theorem 4, checked exhaustively on a 5-label set.
        let site = table_site();
        let ind = LrInductor::new(&site);
        let labels = labels_of(
            &site,
            &[
                "ALPHA CO",
                "BETA LLC",
                "GAMMA INC",
                "12 Elm St",
                "9 Oak Ave",
            ],
        );
        assert_eq!(labels.len(), 5);
        let report = check_well_behaved(&ind, &labels);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn subdivision_groups_by_context() {
        let site = table_site();
        let ind = LrInductor::new(&site);
        let labels = labels_of(&site, &["ALPHA CO", "BETA LLC", "12 Elm St"]);
        // 1-byte left context: '>' for all three (all end with `<b>` or
        // `<td>`), so one group.
        let g1 = ind.subdivision(&labels, &LrAttr::Left(1));
        assert_eq!(g1.len(), 1);
        // 2-byte left context: "b>" vs "d>" splits names from address.
        let g2 = ind.subdivision(&labels, &LrAttr::Left(2));
        assert_eq!(g2.len(), 2);
        let sizes: Vec<usize> = g2.iter().map(|g| g.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn attributes_bounded_by_cap() {
        let site = table_site();
        let ind = LrInductor::with_context_cap(&site, 8);
        let labels = labels_of(&site, &["ALPHA CO"]);
        let attrs = ind.attributes(&labels);
        assert!(attrs.len() <= 16);
        assert!(attrs.contains(&LrAttr::Left(8)));
        assert!(attrs.contains(&LrAttr::Right(8)));
    }

    #[test]
    fn empty_labels_extract_nothing() {
        let site = table_site();
        let ind = LrInductor::new(&site);
        assert!(ind.extract(&ItemSet::new()).is_empty());
    }

    #[test]
    fn display_rule() {
        let rule = LrRule {
            left: "<b>".into(),
            right: "</b>".into(),
        };
        assert_eq!(rule.to_string(), "LR(\"<b>\", \"</b>\")");
    }
}
