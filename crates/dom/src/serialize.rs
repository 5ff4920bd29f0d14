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
    /// One span per text node, in document order. Documents are pre-order
    /// by construction, so the spans are sorted by node id, by start and by
    /// end alike, and never overlap: both lookups below binary-search them.
    pub spans: Vec<TextSpan>,
}

impl SerializedPage {
    /// Text nodes whose spans lie entirely within `[start, end)`, in
    /// document order: one contiguous run of spans, found by two binary
    /// searches, so the spans visited are the nodes returned.
    pub fn nodes_in_range(
        &self,
        start: usize,
        end: usize,
    ) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        let from = self.spans.partition_point(|s| compared(s.start < start));
        let to = self.spans.partition_point(|s| compared(s.end <= end));
        self.spans[from..to.max(from)].iter().map(|s| s.node)
    }

    /// The span of a specific text node, if it exists on this page.
    pub fn span_of(&self, node: NodeId) -> Option<TextSpan> {
        let i = self.spans.partition_point(|s| compared(s.node < node));
        self.spans.get(i).copied().filter(|s| s.node == node)
    }
}

#[cfg(test)]
thread_local! {
    /// Span comparisons the lookups above made on this thread.
    static SPAN_COMPARISONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One span comparison of a lookup; counted in tests, free otherwise.
#[inline(always)]
fn compared(outcome: bool) -> bool {
    #[cfg(test)]
    SPAN_COMPARISONS.with(|c| c.set(c.get() + 1));
    outcome
}

/// Serializes the document to HTML.
pub fn serialize(doc: &Document) -> String {
    serialize_with_spans(doc).html
}

/// Serializes the document and records text-node byte spans.
///
/// The walk keeps its own stack, so nesting depth costs heap, not call
/// stack: a page of 200 000 nested `<div>`s serializes on a default-stack
/// thread.
pub fn serialize_with_spans(doc: &Document) -> SerializedPage {
    let mut page = SerializedPage {
        html: String::new(),
        spans: Vec::new(),
    };
    let mut stack: Vec<Visit<'_>> = doc
        .children(NodeId::ROOT)
        .iter()
        .rev()
        .map(|&c| Visit::Open(c))
        .collect();
    while let Some(visit) = stack.pop() {
        match visit {
            Visit::Open(id) => {
                if let Some(tag) = write_open(doc, id, &mut page) {
                    stack.push(Visit::Close(tag));
                    stack.extend(doc.children(id).iter().rev().map(|&c| Visit::Open(c)));
                }
            }
            Visit::Close(tag) => {
                page.html.push_str("</");
                page.html.push_str(tag);
                page.html.push('>');
            }
        }
    }
    page
}

/// One step of the serializer's walk: write a node, or close an element.
enum Visit<'d> {
    Open(NodeId),
    Close(&'d str),
}

/// Writes a node up to its children. Returns the tag of an element that
/// still needs its children and closing tag written.
fn write_open<'d>(doc: &'d Document, id: NodeId, page: &mut SerializedPage) -> Option<&'d str> {
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
            None
        }
        NodeKind::Comment => {
            html.push_str("<!--");
            html.push_str(doc.comment(id).expect("comment node"));
            html.push_str("-->");
            None
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
            (!is_void(tag)).then_some(tag)
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
        let nodes = |start, end| page.nodes_in_range(start, end).collect::<Vec<_>>();
        // Exactly covering the second text node.
        assert_eq!(nodes(s1.start, s1.end), vec![s1.node]);
        // Covering everything.
        assert_eq!(nodes(0, page.html.len()).len(), 3);
        // Partially overlapping: excluded.
        assert!(nodes(s1.start + 1, s1.end).is_empty());
    }

    #[test]
    fn entities_escaped_in_output() {
        let doc = parse("<p title=\"a&amp;b\">x &lt; y</p>");
        let out = serialize(&doc);
        assert_eq!(out, "<p title=\"a&amp;b\">x &lt; y</p>");
    }

    /// The recursive writer the iterative walk replaced, kept as its
    /// byte-identity oracle.
    fn recursive(doc: &Document) -> SerializedPage {
        fn write(doc: &Document, id: NodeId, page: &mut SerializedPage) {
            if let Some(tag) = write_open(doc, id, page) {
                for &c in doc.children(id) {
                    write(doc, c, page);
                }
                page.html.push_str("</");
                page.html.push_str(tag);
                page.html.push('>');
            }
        }
        let mut page = SerializedPage {
            html: String::new(),
            spans: Vec::new(),
        };
        for &c in doc.children(NodeId::ROOT) {
            write(doc, c, &mut page);
        }
        page
    }

    #[test]
    fn iterative_walk_matches_the_recursive_writer() {
        for html in [
            "",
            "plain text",
            "<div class='a' id=\"b\"><p>one<br>two</p><!-- c --><img src=x></div>tail",
            "<script>if (a < b) { x(\"&amp;\"); }</script><style>p > b {}</style><p>a &lt; b</p>",
            "<UL><LI>one<LI>two<br></UL><table><tr><td>1<td>2</table>",
            "<div><div><div><u>deep</u></div>mid</div><hr>after</div><p>x</p>",
        ] {
            let doc = parse(html);
            let (got, want) = (serialize_with_spans(&doc), recursive(&doc));
            assert_eq!(got.html, want.html, "{html}");
            assert_eq!(got.spans, want.spans, "{html}");
        }
    }

    #[test]
    fn deep_pages_serialize_on_a_default_stack_thread() {
        // One hostile page nested 200 000 levels deep; spawned threads get
        // the default stack size, which a recursive walk overflows.
        let depth = 200_000;
        let html = format!("{}x{}", "<div>".repeat(depth), "</div>".repeat(depth));
        let out = std::thread::spawn(move || {
            let doc = crate::parse_indexed(&html).into_document();
            let page = serialize_with_spans(&doc);
            (page.html == html, page.spans.len())
        })
        .join()
        .expect("serializer thread");
        assert_eq!(out, (true, 1));
    }

    /// The linear filters the binary searches replaced, kept as their
    /// oracles.
    fn nodes_in_range_linear(page: &SerializedPage, start: usize, end: usize) -> Vec<NodeId> {
        page.spans
            .iter()
            .filter(|s| s.start >= start && s.end <= end)
            .map(|s| s.node)
            .collect()
    }

    fn span_of_linear(page: &SerializedPage, node: NodeId) -> Option<TextSpan> {
        page.spans.iter().copied().find(|s| s.node == node)
    }

    /// `html[from..to]`, with `from` moved up and `to` down to char
    /// boundaries (as the LR inductor cuts its contexts).
    fn context(html: &str, mut from: usize, mut to: usize) -> &str {
        while !html.is_char_boundary(from) {
            from += 1;
        }
        while !html.is_char_boundary(to) {
            to -= 1;
        }
        &html[from..to.max(from)]
    }

    #[test]
    fn binary_searches_match_the_linear_oracles_on_the_sitegen_corpus() {
        let (mut ranges, mut lr_spans) = (0usize, 0usize);
        for html in crate::index::tests::sitegen_corpus() {
            let page = serialize_with_spans(&parse(&html));
            let (html, n) = (page.html.as_str(), page.html.len());
            assert!(!page.spans.is_empty());
            let doc_nodes = page.spans.last().map_or(0, |s| s.node.0 + 2);
            for id in 0..doc_nodes {
                let id = NodeId(id);
                assert_eq!(page.span_of(id), span_of_linear(&page, id), "{id:?}");
            }
            let mut check = |start: usize, end: usize| {
                let got: Vec<NodeId> = page.nodes_in_range(start, end).collect();
                assert_eq!(
                    got,
                    nodes_in_range_linear(&page, start, end),
                    "[{start}, {end})"
                );
                ranges += 1;
            };
            // Every text span, alone and stretched over its neighbours.
            for (i, s) in page.spans.iter().enumerate() {
                check(s.start, s.end);
                check(s.start, s.end.saturating_sub(1));
                check(s.start + 1, s.end);
                let next = page.spans.get(i + 2).map_or(n, |t| t.end);
                check(s.start, next);
            }
            // Empty, inverted, whole-page and out-of-range ranges.
            for at in [0, 1, n / 2, n, n + 1, usize::MAX] {
                check(at, at);
                check(at, at.saturating_sub(1));
                check(at, usize::MAX);
                check(0, at);
            }
            // The spans LR rules match: delimiters cut from the contexts of
            // every third text node, as the LR inductor learns them.
            for s in page.spans.iter().step_by(3) {
                for k in [1, 4, 16] {
                    let left = context(html, s.start.saturating_sub(k), s.start);
                    let right = context(html, s.end, (s.end + k).min(n));
                    for (start, end) in aw_induct::lr::scan_spans(html, left, right) {
                        check(start, end);
                        lr_spans += 1;
                    }
                }
            }
        }
        assert!(
            ranges > 10_000 && lr_spans > 1_000,
            "{ranges} ranges, {lr_spans} LR spans"
        );
    }

    #[test]
    fn lookups_on_a_32_000_record_page_compare_logarithmically_many_spans() {
        // Every LR match of a 32 000-record page maps to its text node, and
        // every text node to its span, with O(log n) span comparisons each.
        // A linear filter would compare all 32 000 spans per lookup.
        let n = 32_000;
        let mut html = String::from("<div>");
        for i in 0..n {
            html.push_str(&format!("<b>x{i}</b>"));
        }
        html.push_str("</div>");
        let page = serialize_with_spans(&parse(&html));
        assert_eq!(page.spans.len(), n);
        let matches = aw_induct::lr::scan_spans(&page.html, "<b>", "</b>");
        assert_eq!(matches.len(), n);

        let before = SPAN_COMPARISONS.with(std::cell::Cell::get);
        let mut returned = 0;
        for (start, end) in matches {
            returned += page.nodes_in_range(start, end).len();
        }
        for span in &page.spans {
            assert_eq!(page.span_of(span.node), Some(*span));
        }
        let comparisons = SPAN_COMPARISONS.with(std::cell::Cell::get) - before;
        assert_eq!(returned, n, "one node per matched span");
        // Three searches per record (two per range, one per node), each
        // at most ⌈log2 n⌉ + 1 comparisons.
        let per_search = n.next_power_of_two().trailing_zeros() as usize + 1;
        assert!(
            comparisons > 0 && comparisons <= 3 * n * per_search,
            "{comparisons} span comparisons for {n} records"
        );
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
