//! A tree-derived check of a document's evaluation index.
//!
//! [`assert_index_matches_tree`] recomputes every table [`DocIndex`]
//! exposes from the document's tree alone (child lists, node kinds and
//! tags) and asserts the index holds the same values. It shares no code
//! with the index builder, so it checks the builder on both parse paths:
//! the tables `parse_indexed` fills while parsing and the ones
//! `Document::index` builds over a classic parse.
//!
//! Compiled only into tests: this crate's own, and the workspace's
//! integration suites, which include this file by path. It names types
//! through `crate::`, so an including test crate imports `Document`,
//! `NodeId` and `NodeKind` from `aw_dom` at its root.
//!
//! [`DocIndex`]: crate::DocIndex

use crate::{Document, NodeId, NodeKind};

/// Asserts that `doc.index()` agrees with the tree on every table:
/// subtree spans, same-tag / element / text sibling positions, element
/// and text postings and per-tag postings.
///
/// # Panics
/// Panics on the first table that differs, naming the node.
pub fn assert_index_matches_tree(doc: &Document) {
    let idx = doc.index();
    let n = doc.len();
    assert!(
        doc.preorder_all().eq(doc.ids()),
        "ids are not pre-order ranks"
    );

    // Spans: a leaf ends at its own rank + 1, a parent where its last
    // child's subtree ends. Children have larger ids, so one reverse
    // pass sees every child before its parent.
    let mut end = vec![0u32; n];
    for id in (0..n as u32).rev().map(NodeId) {
        end[id.index()] = match doc.children(id).last() {
            Some(last) => end[last.index()],
            None => id.0 + 1,
        };
    }

    // Element and text positions: count each kind along every child list.
    let mut own_kind_pos = vec![0u32; n];
    for id in doc.ids() {
        let (mut elems, mut texts) = (0, 0);
        for &c in doc.children(id) {
            match doc.kind(c) {
                NodeKind::Element => {
                    elems += 1;
                    own_kind_pos[c.index()] = elems;
                }
                NodeKind::Text => {
                    texts += 1;
                    own_kind_pos[c.index()] = texts;
                }
                NodeKind::Document | NodeKind::Comment => {}
            }
        }
    }

    for id in doc.ids() {
        assert_eq!(idx.subtree(id.0), id.0..end[id.index()], "span of {id:?}");
        assert_eq!(
            idx.same_tag_pos(id) as usize,
            doc.same_tag_index(id).unwrap_or(0),
            "same-tag position of {id:?}"
        );
        let (elem, text) = match doc.kind(id) {
            NodeKind::Element => (own_kind_pos[id.index()], 0),
            NodeKind::Text => (0, own_kind_pos[id.index()]),
            NodeKind::Document | NodeKind::Comment => (0, 0),
        };
        assert_eq!(idx.elem_pos(id), elem, "element position of {id:?}");
        assert_eq!(idx.text_pos(id), text, "text position of {id:?}");
    }

    let of_kind = |kind: NodeKind| -> Vec<u32> {
        doc.ids()
            .filter(|&id| doc.kind(id) == kind)
            .map(|id| id.0)
            .collect()
    };
    assert_eq!(
        idx.element_postings(),
        of_kind(NodeKind::Element),
        "element postings"
    );
    assert_eq!(
        idx.text_postings(),
        of_kind(NodeKind::Text),
        "text postings"
    );
    let mut syms: Vec<_> = doc.ids().filter_map(|id| doc.tag_sym(id)).collect();
    syms.sort_unstable();
    syms.dedup();
    for sym in syms {
        let tagged: Vec<u32> = doc
            .ids()
            .filter(|&id| doc.tag_sym(id) == Some(sym))
            .map(|id| id.0)
            .collect();
        assert_eq!(idx.tag_postings(sym), tagged, "postings of tag {sym:?}");
    }
}
