//! # aw-dom — HTML parsing and arena DOM
//!
//! The DOM substrate for the `autowrappers` workspace (a reproduction of
//! Dalvi, Kumar & Soliman, *Automatic Wrappers for Large Scale Web
//! Extraction*, VLDB 2011). The paper cleans and parses pages with
//! `jtidy` (§7); this crate plays that role: a lenient tokenizer
//! ([`tokenizer`]), a tidy-style tree builder ([`parser::parse`]) and an
//! arena-backed immutable [`Document`].
//!
//! ## Quick example
//!
//! ```
//! use aw_dom::parse;
//!
//! let doc = parse("<div class='dealerlinks'><tr><td><u>PORTER FURNITURE</u>\
//!                  <br>201 HWY.30 West</td></tr></div>");
//! // All dealer names live under <u>:
//! let names: Vec<&str> = doc
//!     .elements_by_tag("u")
//!     .into_iter()
//!     .flat_map(|u| doc.children(u).iter().filter_map(|&c| doc.text(c)))
//!     .collect();
//! assert_eq!(names, vec!["PORTER FURNITURE"]);
//! ```

pub mod arena;
pub mod entities;
pub mod index;
pub mod interner;
pub mod parser;
pub mod serialize;
pub mod stream;
pub mod tokenizer;
pub mod traverse;
#[cfg(test)]
mod tree_oracle;

pub use arena::{Document, NodeId, NodeKind};
pub use index::{DocIndex, RecordLayout, RecordSpan};
pub use interner::{intern, Sym};
pub use parser::parse;
pub use serialize::{serialize, serialize_with_spans, SerializedPage, TextSpan};
pub use stream::{parse_indexed, IndexedDocument};

/// Identifies a node on a specific page of a multi-page website.
///
/// Wrapper induction operates over a *set* of pages generated by the same
/// script (§2.1); labels, extractions and wrapper outputs are all sets of
/// `PageNode`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageNode {
    /// Index of the page within the website's page list.
    pub page: u32,
    /// Node within that page's document.
    pub node: NodeId,
}

impl PageNode {
    /// Convenience constructor.
    pub fn new(page: u32, node: NodeId) -> Self {
        PageNode { page, node }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_node_ordering_is_page_major() {
        let a = PageNode::new(0, NodeId(9));
        let b = PageNode::new(1, NodeId(1));
        assert!(a < b);
        let c = PageNode::new(0, NodeId(10));
        assert!(a < c);
    }
}
