//! A *website*: the set of pages generated by one rendering script.
//!
//! Wrapper induction is site-level (§1): a wrapper is learned from labels
//! on a site's pages and applied to all of them. `Site` owns the parsed
//! pages plus two derived artifacts: serialized strings with text spans
//! (LR, HLRT) and the site's text nodes in page order (every inductor's
//! universe, and what annotators label). The XPATH inductor derives what
//! it needs from the documents on demand.

use aw_dom::{serialize_with_spans, Document, NodeId, PageNode, SerializedPage};

/// An immutable set of same-script pages with cached derived data.
#[derive(Debug)]
pub struct Site {
    pages: Vec<Document>,
    serialized: Vec<SerializedPage>,
    text_nodes: Vec<PageNode>,
}

impl Site {
    /// Builds a site from parsed pages.
    pub fn new(pages: Vec<Document>) -> Self {
        let serialized: Vec<SerializedPage> = pages.iter().map(serialize_with_spans).collect();
        let mut text_nodes = Vec::new();
        for (p, doc) in pages.iter().enumerate() {
            for id in doc.preorder_all() {
                if doc.is_text(id) {
                    text_nodes.push(PageNode::new(p as u32, id));
                }
            }
        }
        Site {
            pages,
            serialized,
            text_nodes,
        }
    }

    /// Parses raw HTML pages into a site.
    pub fn from_html<S: AsRef<str>>(pages: &[S]) -> Self {
        Self::new(pages.iter().map(|s| aw_dom::parse(s.as_ref())).collect())
    }

    /// The parsed pages.
    pub fn pages(&self) -> &[Document] {
        &self.pages
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// A single page document.
    pub fn page(&self, index: u32) -> &Document {
        &self.pages[index as usize]
    }

    /// The serialized form (with text spans) of a page.
    pub fn serialized(&self, index: u32) -> &SerializedPage {
        &self.serialized[index as usize]
    }

    /// All text nodes across pages, in (page, document-order) order.
    pub fn text_nodes(&self) -> &[PageNode] {
        &self.text_nodes
    }

    /// The text content of a text node.
    pub fn text_of(&self, node: PageNode) -> Option<&str> {
        self.pages[node.page as usize].text(node.node)
    }

    /// Looks up text nodes by exact content across all pages.
    pub fn find_text(&self, content: &str) -> Vec<PageNode> {
        self.text_nodes
            .iter()
            .copied()
            .filter(|&n| self.text_of(n) == Some(content))
            .collect()
    }

    /// Resolves a `PageNode` to its document and node id.
    pub fn resolve(&self, node: PageNode) -> (&Document, NodeId) {
        (&self.pages[node.page as usize], node.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_page_site() -> Site {
        Site::from_html(&[
            "<div><u>ALPHA</u><br>addr1</div>",
            "<div><u>BETA</u><br>addr2<u>GAMMA</u></div>",
        ])
    }

    #[test]
    fn text_nodes_enumerated_across_pages() {
        let site = two_page_site();
        assert_eq!(site.page_count(), 2);
        assert_eq!(site.text_nodes().len(), 5);
        // Page-major order.
        let pages: Vec<u32> = site.text_nodes().iter().map(|n| n.page).collect();
        assert_eq!(pages, vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn find_text_locates_exact_matches() {
        let site = two_page_site();
        let hits = site.find_text("BETA");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].page, 1);
        assert!(site.find_text("DELTA").is_empty());
        assert_eq!(site.text_of(hits[0]), Some("BETA"));
    }

    #[test]
    fn deep_pages_build_a_site_on_a_default_stack_thread() {
        // Relearn builds sites from retained request pages, so one page
        // nested 200 000 levels deep must not overflow a spawned thread's
        // default stack.
        let depth = 200_000;
        let html = format!("{}x{}", "<div>".repeat(depth), "</div>".repeat(depth));
        let serialized = std::thread::spawn(move || {
            let site = Site::from_html(&[html.as_str()]);
            assert_eq!(aw_dom::serialize(site.page(0)), html);
            site.serialized(0).html == html && site.text_nodes().len() == 1
        })
        .join()
        .expect("site thread");
        assert!(serialized);
    }

    #[test]
    fn serialized_spans_align_with_documents() {
        let site = two_page_site();
        for p in 0..site.page_count() as u32 {
            let doc = site.page(p);
            for span in &site.serialized(p).spans {
                assert_eq!(
                    &site.serialized(p).html[span.start..span.end],
                    doc.text(span.node).unwrap()
                );
            }
        }
    }
}
