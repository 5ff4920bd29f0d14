//! Record segmentation — Figure 7 and §6.
//!
//! To judge how "list-like" a candidate extraction `X` is, the pages are
//! viewed as pre-order token sequences (tag names, with every text node
//! replaced by the special token `#text`), and the elements of `X` are
//! used as record boundaries: segment *i* runs from the *i*-th X node
//! (inclusive) to the *(i+1)*-th (exclusive) within the same page. Segments
//! may be cyclically shifted relative to true records — harmless, since
//! only their mutual structural similarity matters.
//!
//! A token is a `u32`: an element's tag symbol (`Sym.0`, read from the
//! document's own name table) or [`TEXT_TOKEN`]. A site's streams are
//! built once ([`SiteTokens::new`], a scan of each page's node rows,
//! which are in pre-order) and shared by every candidate scored against
//! the site; a candidate's [`Segments`] are ranges into them, found by
//! merging its sorted extraction against the stream's sorted node ids.

use aw_align::NO_PIN;
use aw_dom::{NodeId, NodeKind, PageNode};
use aw_induct::{NodeSet, Site};
use std::ops::Range;

/// The token of every text node. No tag symbol takes this id.
pub const TEXT_TOKEN: u32 = u32::MAX;

/// The pre-order token streams of every page of one site, concatenated
/// page after page.
///
/// Built per ranking call and shared by all of its candidates; it is a
/// few bytes per node, so callers build it where they score rather than
/// keeping it with the site.
#[derive(Clone, Debug)]
pub struct SiteTokens {
    /// One token per element or text node, in pre-order.
    syms: Vec<u32>,
    /// The node of each token (ascending within a page).
    ids: Vec<NodeId>,
    /// Page `p`'s tokens are `pages[p]..pages[p + 1]`.
    pages: Vec<usize>,
}

impl SiteTokens {
    /// Scans every page's node rows once. Documents are pre-order by
    /// construction, so node-id order is token order.
    pub fn new(site: &Site) -> Self {
        let nodes: usize = site.pages().iter().map(|doc| doc.len()).sum();
        let mut out = SiteTokens {
            syms: Vec::with_capacity(nodes),
            ids: Vec::with_capacity(nodes),
            pages: Vec::with_capacity(site.page_count() + 1),
        };
        out.pages.push(0);
        for doc in site.pages() {
            for id in doc.ids() {
                let sym = match doc.kind(id) {
                    NodeKind::Element => doc.tag_sym(id).map(|sym| sym.0),
                    NodeKind::Text => Some(TEXT_TOKEN),
                    _ => None,
                };
                if let Some(sym) = sym {
                    out.syms.push(sym);
                    out.ids.push(id);
                }
            }
            out.pages.push(out.syms.len());
        }
        out
    }

    fn page_count(&self) -> usize {
        self.pages.len() - 1
    }

    /// Calls `hit` with the stream position of every node of `set` on
    /// page `p` that has a token, in order: a merge of the set's page
    /// slice (sorted by node id) against the page's sorted ids.
    fn for_each_hit(&self, p: usize, set: &NodeSet, mut hit: impl FnMut(usize)) {
        let (lo, hi) = (self.pages[p], self.pages[p + 1]);
        let ids = &self.ids[lo..hi];
        let page = p as u32;
        let mut k = 0;
        for n in set.range(PageNode::new(page, NodeId(0))..PageNode::new(page + 1, NodeId(0))) {
            k += ids[k..].partition_point(|&id| id < n.node);
            if k == ids.len() {
                break;
            }
            if ids[k] == n.node {
                hit(lo + k);
            }
        }
    }
}

/// One record segment: the tokens between two consecutive extraction
/// boundaries, with the type pins of typed nodes (used by the
/// multi-type alignment constraint).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment<'a> {
    /// Pre-order tokens, starting with the boundary node's.
    pub tokens: &'a [u32],
    /// Per token, the type index of a typed node or [`NO_PIN`]; `None`
    /// for single-type segmentation, where only the boundary (token 0)
    /// is pinned, with type 0.
    pins: Option<&'a [u32]>,
}

impl Segment<'_> {
    /// Number of [`TEXT_TOKEN`]s in the segment.
    pub fn text_count(&self) -> usize {
        self.tokens.iter().filter(|&&t| t == TEXT_TOKEN).count()
    }

    /// Segment length in tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when the segment has no tokens (never produced by
    /// [`segment_site`]).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The type index token `k` is pinned with, if it is a typed node.
    pub fn pin(&self, k: usize) -> Option<u32> {
        match self.pins {
            Some(pins) => (pins[k] != NO_PIN).then_some(pins[k]),
            None => (k == 0).then_some(0),
        }
    }
}

/// A candidate's record segments: ranges into a [`SiteTokens`] stream,
/// none crossing a page.
#[derive(Clone, Debug)]
pub struct Segments<'t> {
    tokens: &'t SiteTokens,
    ranges: Vec<Range<usize>>,
    /// Typed segmentation only: the pin of every stream position
    /// ([`NO_PIN`] for untyped nodes); empty for single-type.
    pins: Vec<u32>,
}

impl<'t> Segments<'t> {
    /// Number of segments.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when no page had two boundaries.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// True for typed (multi-type) segmentation.
    pub(crate) fn is_typed(&self) -> bool {
        !self.pins.is_empty()
    }

    /// Segment `i`.
    pub fn get(&self, i: usize) -> Segment<'_> {
        let r = self.ranges[i].clone();
        Segment {
            tokens: &self.tokens.syms[r.clone()],
            pins: self.is_typed().then(|| &self.pins[r]),
        }
    }

    /// Every segment, page by page in document order.
    pub fn iter(&self) -> impl Iterator<Item = Segment<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The stream range of segment `i`.
    pub(crate) fn range(&self, i: usize) -> Range<usize> {
        self.ranges[i].clone()
    }

    /// The pin of every stream position: the typed table, or for
    /// single-type segments one built with each segment's boundary
    /// pinned to type 0.
    pub(crate) fn pin_table(&self) -> std::borrow::Cow<'_, [u32]> {
        if self.is_typed() {
            return std::borrow::Cow::Borrowed(&self.pins);
        }
        let mut pins = vec![NO_PIN; self.tokens.syms.len()];
        for r in &self.ranges {
            pins[r.start] = 0;
        }
        std::borrow::Cow::Owned(pins)
    }
}

/// Segments every page of the site using `x` as record boundaries
/// (single-type: each segment's boundary is pinned 0, nothing else).
///
/// Pages with fewer than two boundary nodes contribute no segments.
pub fn segment_site<'t>(tokens: &'t SiteTokens, x: &NodeSet) -> Segments<'t> {
    let mut ranges = Vec::with_capacity(x.len().saturating_sub(1));
    for p in 0..tokens.page_count() {
        let mut from = None;
        tokens.for_each_hit(p, x, |k| {
            if let Some(f) = from.replace(k) {
                ranges.push(f..k);
            }
        });
    }
    Segments {
        tokens,
        ranges,
        pins: Vec::new(),
    }
}

/// Multi-type segmentation (Appendix A): `typed[t]` is the extraction of
/// type `t`. Boundaries are the nodes of type 0; every typed node inside a
/// segment is pinned with its (smallest) type index so the alignment
/// feature can require same-type nodes to align.
pub fn segment_site_typed<'t>(tokens: &'t SiteTokens, typed: &[&NodeSet]) -> Segments<'t> {
    assert!(!typed.is_empty(), "at least one type required");
    let mut segments = segment_site(tokens, typed[0]);
    let mut pins = vec![NO_PIN; tokens.syms.len()];
    for (t, set) in typed.iter().enumerate() {
        for p in 0..tokens.page_count() {
            tokens.for_each_hit(p, set, |k| {
                if pins[k] == NO_PIN {
                    pins[k] = t as u32;
                }
            });
        }
    }
    segments.pins = pins;
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the §6 example: a flat list a1 n1 z1 p1 a2 n2 z2 p2 …
    /// rendered as <li> items so tokens are predictable.
    fn flat_site() -> Site {
        Site::from_html(&["<ul>\
             <li>addr1</li><li>NAME1</li><li>zip1</li><li>ph1</li>\
             <li>addr2</li><li>NAME2</li><li>zip2</li><li>ph2</li>\
             <li>addr3</li><li>NAME3</li><li>zip3</li><li>ph3</li>\
             </ul>"])
    }

    fn names(site: &Site) -> NodeSet {
        ["NAME1", "NAME2", "NAME3"]
            .iter()
            .flat_map(|t| site.find_text(t))
            .collect()
    }

    #[test]
    fn stream_is_the_preorder_of_elements_and_text() {
        let site = Site::from_html(&["<p>a<!-- c --><b>x</b></p>", "<i>y</i>"]);
        let tokens = SiteTokens::new(&site);
        let (p, b, i) = (
            aw_dom::intern("p").0,
            aw_dom::intern("b").0,
            aw_dom::intern("i").0,
        );
        // The comment and the roots have no token.
        assert_eq!(tokens.syms, [p, TEXT_TOKEN, b, TEXT_TOKEN, i, TEXT_TOKEN]);
        assert_eq!(tokens.page_count(), 2);
    }

    #[test]
    fn shifted_segments_have_equal_structure() {
        // §6: segments are cyclically shifted (n1 z1 p1 a2), (n2 z2 p2 a3)
        // but structurally identical.
        let site = flat_site();
        let tokens = SiteTokens::new(&site);
        let segs = segment_site(&tokens, &names(&site));
        assert_eq!(segs.len(), 2);
        assert!(!segs.is_typed());
        assert_eq!(segs.get(0).tokens, segs.get(1).tokens);
        // Each segment: #text(name) </li><li>#text ×3 → 4 text tokens.
        let seg = segs.get(0);
        assert_eq!(seg.text_count(), 4);
        assert_eq!(seg.tokens[0], TEXT_TOKEN);
        assert_eq!(seg.pin(0), Some(0));
        assert!((1..seg.len()).all(|k| seg.pin(k).is_none()));
        assert!(!seg.is_empty());
    }

    #[test]
    fn bad_list_has_irregular_segments() {
        // Boundaries at name and zip alternate: gaps of different shape.
        let site = flat_site();
        let x: NodeSet = ["NAME1", "zip1", "NAME2", "zip2"]
            .iter()
            .flat_map(|t| site.find_text(t))
            .collect();
        let tokens = SiteTokens::new(&site);
        let segs = segment_site(&tokens, &x);
        assert_eq!(segs.len(), 3);
        // name→zip segment is shorter than zip→name segment.
        let lens: Vec<usize> = segs.iter().map(|s| s.len()).collect();
        assert!(lens[0] != lens[1] || lens[1] != lens[2], "{lens:?}");
    }

    #[test]
    fn single_boundary_pages_contribute_nothing() {
        let site = flat_site();
        let tokens = SiteTokens::new(&site);
        let x: NodeSet = site.find_text("NAME2").into_iter().collect();
        assert!(segment_site(&tokens, &x).is_empty());
        assert!(segment_site(&tokens, &NodeSet::new()).is_empty());
    }

    #[test]
    fn boundaries_without_tokens_are_skipped() {
        // The root and comments are not in the stream, so they cannot
        // bound a segment; nodes of pages past the site are ignored.
        let site = Site::from_html(&["<li>A1</li><!-- c --><li>A2</li>"]);
        let tokens = SiteTokens::new(&site);
        let mut x: NodeSet = ["A1", "A2"]
            .iter()
            .flat_map(|t| site.find_text(t))
            .collect();
        x.insert(PageNode::new(0, NodeId::ROOT));
        let comment = site
            .page(0)
            .ids()
            .find(|&id| site.page(0).kind(id) == NodeKind::Comment)
            .unwrap();
        x.insert(PageNode::new(0, comment));
        x.insert(PageNode::new(7, NodeId(3)));
        let segs = segment_site(&tokens, &x);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs.get(0).text_count(), 1);
    }

    #[test]
    fn segments_do_not_cross_pages() {
        let site = Site::from_html(&[
            "<li>A1</li><li>x</li><li>A2</li>",
            "<li>B1</li><li>x</li><li>B2</li>",
        ]);
        let x: NodeSet = ["A1", "A2", "B1", "B2"]
            .iter()
            .flat_map(|t| site.find_text(t))
            .collect();
        let tokens = SiteTokens::new(&site);
        let segs = segment_site(&tokens, &x);
        // One segment per page (A1→A2, B1→B2); no A2→B1 segment.
        assert_eq!(segs.len(), 2);
        assert_eq!(segs.get(0).tokens, segs.get(1).tokens);
    }

    #[test]
    fn typed_segmentation_pins_types() {
        let site = flat_site();
        let names = names(&site);
        let zips: NodeSet = ["zip1", "zip2", "zip3"]
            .iter()
            .flat_map(|t| site.find_text(t))
            .collect();
        let tokens = SiteTokens::new(&site);
        let segs = segment_site_typed(&tokens, &[&names, &zips]);
        assert_eq!(segs.len(), 2);
        assert!(segs.is_typed());
        let seg = segs.get(0);
        // First token is the name boundary (pin 0); somewhere inside, the
        // zip is pinned 1; plain text (addr, phone) is unpinned.
        assert_eq!(seg.pin(0), Some(0));
        assert!((0..seg.len()).any(|k| seg.pin(k) == Some(1)));
        let unpinned_text = (0..seg.len())
            .filter(|&k| seg.tokens[k] == TEXT_TOKEN && seg.pin(k).is_none())
            .count();
        assert_eq!(unpinned_text, 2); // phone + next record's address
    }
}
