//! Record segmentation — Figure 7 and §6.
//!
//! To judge how "list-like" a candidate extraction `X` is, the pages are
//! viewed as pre-order token sequences (tag names, with every text node
//! replaced by the special token `#text`), and the elements of `X` are
//! used as record boundaries: segment *i* runs from the *i*-th X node
//! (inclusive) to the *(i+1)*-th (exclusive) within the same page. Segments
//! may be cyclically shifted relative to true records — harmless, since
//! only their mutual structural similarity matters.

use aw_dom::{Document, NodeKind, PageNode};
use aw_induct::{NodeSet, Site};

/// The pre-order token of a node; text nodes collapse to `#text`.
pub const TEXT_TOKEN: &str = "#text";

/// One record segment: the pre-order token sequence between two
/// consecutive extraction boundaries, with the positions of boundary-type
/// nodes marked (used by the multi-type alignment constraint).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Pre-order tokens, starting with the boundary `#text` node.
    pub tokens: Vec<String>,
    /// For each token, `Some(type_index)` if the corresponding node is an
    /// extraction of that type (0 for single-type segmentation).
    pub pins: Vec<Option<u32>>,
}

impl Segment {
    /// Number of `#text` tokens in the segment.
    pub fn text_count(&self) -> usize {
        self.tokens.iter().filter(|t| *t == TEXT_TOKEN).count()
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
}

/// Pre-order token stream of one page, with node identities.
fn page_tokens(doc: &Document) -> Vec<(aw_dom::NodeId, String)> {
    doc.preorder_all()
        .filter_map(|id| match doc.kind(id) {
            NodeKind::Element => doc.tag(id).map(|tag| (id, tag.to_string())),
            NodeKind::Text => Some((id, TEXT_TOKEN.to_string())),
            _ => None,
        })
        .collect()
}

/// Segments every page of `site` using `x` as record boundaries
/// (single-type: all boundary pins are 0).
///
/// Pages with fewer than two boundary nodes contribute no segments.
pub fn segment_site(site: &Site, x: &NodeSet) -> Vec<Segment> {
    segment_site_typed(site, std::slice::from_ref(x))
}

/// Multi-type segmentation (Appendix A): `typed[t]` is the extraction of
/// type `t`. Boundaries are the nodes of type 0; every typed node inside a
/// segment is pinned with its type index so the alignment feature can
/// require same-type nodes to align.
pub fn segment_site_typed(site: &Site, typed: &[NodeSet]) -> Vec<Segment> {
    assert!(!typed.is_empty(), "at least one type required");
    let boundary = &typed[0];
    let mut segments = Vec::new();

    for p in 0..site.page_count() as u32 {
        let doc = site.page(p);
        let tokens = page_tokens(doc);
        // Indices in the token stream that are boundary nodes.
        let marks: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, (id, _))| boundary.contains(&PageNode::new(p, *id)))
            .map(|(i, _)| i)
            .collect();
        for w in marks.windows(2) {
            let (from, to) = (w[0], w[1]);
            let mut seg = Segment {
                tokens: Vec::with_capacity(to - from),
                pins: Vec::with_capacity(to - from),
            };
            for (id, tok) in &tokens[from..to] {
                let pn = PageNode::new(p, *id);
                let pin = typed
                    .iter()
                    .position(|set| set.contains(&pn))
                    .map(|t| t as u32);
                seg.tokens.push(tok.clone());
                seg.pins.push(pin);
            }
            segments.push(seg);
        }
    }
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
    fn shifted_segments_have_equal_structure() {
        // §6: segments are cyclically shifted (n1 z1 p1 a2), (n2 z2 p2 a3)
        // but structurally identical.
        let site = flat_site();
        let segs = segment_site(&site, &names(&site));
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].tokens, segs[1].tokens);
        // Each segment: #text(name) </li><li>#text ×3 → 4 text tokens.
        assert_eq!(segs[0].text_count(), 4);
        assert_eq!(segs[0].tokens[0], TEXT_TOKEN);
        assert!(!segs[0].is_empty());
    }

    #[test]
    fn bad_list_has_irregular_segments() {
        // Boundaries at name and zip alternate: gaps of different shape.
        let site = flat_site();
        let x: NodeSet = ["NAME1", "zip1", "NAME2", "zip2"]
            .iter()
            .flat_map(|t| site.find_text(t))
            .collect();
        let segs = segment_site(&site, &x);
        assert_eq!(segs.len(), 3);
        // name→zip segment is shorter than zip→name segment.
        let lens: Vec<usize> = segs.iter().map(Segment::len).collect();
        assert!(lens[0] != lens[1] || lens[1] != lens[2], "{lens:?}");
    }

    #[test]
    fn single_boundary_pages_contribute_nothing() {
        let site = flat_site();
        let x: NodeSet = site.find_text("NAME2").into_iter().collect();
        assert!(segment_site(&site, &x).is_empty());
        assert!(segment_site(&site, &NodeSet::new()).is_empty());
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
        let segs = segment_site(&site, &x);
        // One segment per page (A1→A2, B1→B2); no A2→B1 segment.
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].tokens, segs[1].tokens);
    }

    #[test]
    fn typed_segmentation_pins_types() {
        let site = flat_site();
        let names = names(&site);
        let zips: NodeSet = ["zip1", "zip2", "zip3"]
            .iter()
            .flat_map(|t| site.find_text(t))
            .collect();
        let segs = segment_site_typed(&site, &[names, zips]);
        assert_eq!(segs.len(), 2);
        let seg = &segs[0];
        // First token is the name boundary (pin 0); somewhere inside, the
        // zip is pinned 1; plain text (addr, phone) is unpinned.
        assert_eq!(seg.pins[0], Some(0));
        assert!(seg.pins.contains(&Some(1)));
        let unpinned_text = seg
            .tokens
            .iter()
            .zip(&seg.pins)
            .filter(|(t, p)| *t == TEXT_TOKEN && p.is_none())
            .count();
        assert_eq!(unpinned_text, 2); // phone + next record's address
    }
}
