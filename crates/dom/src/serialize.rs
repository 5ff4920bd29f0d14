//! Serialization of a [`Document`] back to HTML.
//!
//! Besides plain serialization, [`serialize_with_spans`] records the byte
//! range each **text node** occupies in the output string. The LR (WIEN)
//! inductor works on the flat character representation of a page, and the
//! spans are the bridge back to DOM nodes: an LR-extracted span maps to the
//! set of text nodes it fully contains, so LR wrappers can be ranked by the
//! same node-set scoring as xpath wrappers (§6: "the score of a wrapper only
//! depends on its output").

use crate::arena::{Document, NodeId, NodeKind};
use crate::entities::escape_into;
use crate::parser::is_void;

/// The byte range of one text node in a serialized page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TextSpan {
    /// The text node.
    pub node: NodeId,
    /// Start byte offset (inclusive) in the serialized string.
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

/// A serialized page together with the locations of its text nodes.
#[derive(Clone, Debug)]
pub struct SerializedPage {
    /// The HTML string.
    pub html: String,
    /// One span per text node, in document order.
    pub spans: Vec<TextSpan>,
}

impl SerializedPage {
    /// Text nodes whose spans lie entirely within `[start, end)`.
    pub fn nodes_in_range(&self, start: usize, end: usize) -> Vec<NodeId> {
        self.spans
            .iter()
            .filter(|s| s.start >= start && s.end <= end)
            .map(|s| s.node)
            .collect()
    }

    /// The span of a specific text node, if it exists on this page.
    pub fn span_of(&self, node: NodeId) -> Option<TextSpan> {
        self.spans.iter().copied().find(|s| s.node == node)
    }
}

/// Serializes the document to HTML.
pub fn serialize(doc: &Document) -> String {
    serialize_with_spans(doc).html
}

/// Serializes the document and records text-node byte spans.
pub fn serialize_with_spans(doc: &Document) -> SerializedPage {
    let mut page = SerializedPage {
        html: String::new(),
        spans: Vec::new(),
    };
    for &c in doc.children(NodeId::ROOT) {
        write_node(doc, c, &mut page);
    }
    page
}

fn write_node(doc: &Document, id: NodeId, page: &mut SerializedPage) {
    let html = &mut page.html;
    match doc.kind(id) {
        NodeKind::Document => unreachable!("root is never a child"),
        NodeKind::Text => {
            let t = doc.text(id).expect("text node");
            // Raw-text elements (script/style) are not entity-decoded by
            // the tokenizer, so they must not be escaped here either —
            // otherwise serialize∘parse would not be idempotent.
            let raw_parent = matches!(
                doc.parent(id).and_then(|p| doc.tag(p)),
                Some("script" | "style")
            );
            let start = html.len();
            if raw_parent {
                html.push_str(t);
            } else {
                escape_into(t, html);
            }
            page.spans.push(TextSpan {
                node: id,
                start,
                end: html.len(),
            });
        }
        NodeKind::Comment => {
            html.push_str("<!--");
            html.push_str(doc.comment(id).expect("comment node"));
            html.push_str("-->");
        }
        NodeKind::Element => {
            let tag = doc.tag(id).expect("element node");
            html.push('<');
            html.push_str(tag);
            for (name, value) in doc.attributes(id) {
                html.push(' ');
                html.push_str(name);
                html.push_str("=\"");
                escape_into(value, html);
                html.push('"');
            }
            html.push('>');
            if is_void(tag) {
                return;
            }
            for &c in doc.children(id) {
                write_node(doc, c, page);
            }
            page.html.push_str("</");
            page.html.push_str(tag);
            page.html.push('>');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn round_trips_simple_markup() {
        // Note: the parser trims whitespace at text-node boundaries, so the
        // round-trip is exact only for already-normalized markup.
        let html = "<div class=\"x\"><p>hello<b>world</b></p><br></div>";
        let doc = parse(html);
        assert_eq!(serialize(&doc), html);
    }

    #[test]
    fn reparse_is_stable() {
        // serialize(parse(s)) is a fixed point under re-parsing.
        let messy = "<UL><LI>one<LI>two<br></UL>";
        let once = serialize(&parse(messy));
        let twice = serialize(&parse(&once));
        assert_eq!(once, twice);
        assert_eq!(once, "<ul><li>one</li><li>two<br></li></ul>");
    }

    #[test]
    fn spans_locate_text_nodes() {
        let doc = parse("<td><u>PORTER</u><br>MS 38652</td>");
        let page = serialize_with_spans(&doc);
        assert_eq!(page.spans.len(), 2);
        for span in &page.spans {
            let slice = &page.html[span.start..span.end];
            assert_eq!(slice, doc.text(span.node).unwrap());
        }
    }

    #[test]
    fn nodes_in_range_is_containment() {
        let doc = parse("<td>aaa</td><td>bbb</td><td>ccc</td>");
        let page = serialize_with_spans(&doc);
        let s1 = page.spans[1];
        // Exactly covering the second text node.
        assert_eq!(page.nodes_in_range(s1.start, s1.end), vec![s1.node]);
        // Covering everything.
        assert_eq!(page.nodes_in_range(0, page.html.len()).len(), 3);
        // Partially overlapping: excluded.
        assert!(page.nodes_in_range(s1.start + 1, s1.end).is_empty());
    }

    #[test]
    fn entities_escaped_in_output() {
        let doc = parse("<p title=\"a&amp;b\">x &lt; y</p>");
        let out = serialize(&doc);
        assert_eq!(out, "<p title=\"a&amp;b\">x &lt; y</p>");
    }

    #[test]
    fn span_of_finds_node() {
        let doc = parse("<p>one</p><p>two</p>");
        let page = serialize_with_spans(&doc);
        let second = doc.text_nodes()[1];
        let span = page.span_of(second).unwrap();
        assert_eq!(&page.html[span.start..span.end], "two");
        assert!(page.span_of(NodeId::ROOT).is_none());
    }
}
