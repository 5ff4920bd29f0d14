//! One-pass streaming parse→index.
//!
//! [`parse_indexed`] drives the pull tokenizer ([`crate::tokenizer::Tokenizer`])
//! directly and emits a fully populated [`Document`] *and* its index in
//! a single traversal, where the classic path ([`crate::parser::parse`]
//! then [`Document::index`]) builds the index in a second pass over the
//! finished node rows. The request path of the serving tier parses every
//! page exactly once and immediately evaluates compiled xpaths against
//! the index, so it builds the index in the parsing pass rather than in
//! a second one over the rows.
//!
//! Both paths fill the index through the one `IndexBuilder`
//! (`crate::index`): this parser pushes each node to it as it appends
//! the node's row. Every document allocates its nodes in document order,
//! so **arena index = pre-order rank**, and the builder fills each table
//! from the pushes alone (see its docs).
//!
//! Tokens borrow the input, so the parser copies each tag name into
//! nothing (it resolves to a local name index), each text run once (into
//! the document's text buffer, whitespace-collapsed on the way) and each
//! distinct attribute value once (into the same buffer, through the
//! document's keyed value table). The parser's and the builder's tables
//! are per-thread scratch that survives from page to page; a finished
//! page copies them out at their exact sizes, so a page costs about a
//! dozen allocations whatever its token count, and its document retains
//! no slack capacity.
//!
//! The template fingerprint is computed eagerly over the finished tables
//! before the index is published (the serving path always
//! template-matches next); the record layout stays lazy, exactly like
//! the classic path.
//!
//! ## Oracle relationship
//!
//! The tree-repair rules are the parser's, sharing its private
//! `implied_closes` / `is_scope_boundary` / `is_void` tables (via the
//! per-thread `TagInfo` cache), but the construction loop is deliberately
//! *duplicated*, not shared: `parse` (through the crate-private
//! [`Document`] append methods) stays an independent differential oracle
//! for the tree, and the robustness/differential suites assert
//! byte-identical output between the two paths on arbitrary markup — the
//! same relationship the reference xpath engine has to the compiled
//! engines. The index tables come from one builder on both paths, so
//! their oracle is a tree-derived check instead (`crate::tree_oracle`,
//! compiled only into tests), which recomputes every table from the
//! document's child lists and node kinds and is asserted on both paths'
//! output in the same suites.

use std::cell::RefCell;
use std::ops::Deref;

use crate::arena::{
    offset, Document, NameTable, NodeRec, ValueTable, NAME_COMMENT, NAME_ROOT, NAME_TEXT, NO_PARENT,
};
use crate::index::{DocIndex, IndexBuilder, KEEP_NODES};
use crate::interner::Sym;
use crate::parser::{collapse_whitespace_into, implied_closes, is_scope_boundary, is_void};
use crate::tokenizer::{Attr, Token, Tokenizer};

/// A [`Document`] whose evaluation index was built during parsing.
///
/// Dereferences to [`Document`]; [`Document::index`] returns the
/// pre-built index without a second traversal.
#[derive(Clone, Debug)]
pub struct IndexedDocument {
    doc: Document,
}

impl IndexedDocument {
    /// Unwraps the document, keeping the pre-built index cached inside.
    pub fn into_document(self) -> Document {
        self.doc
    }
}

impl Deref for IndexedDocument {
    type Target = Document;

    fn deref(&self) -> &Document {
        &self.doc
    }
}

/// Parses HTML and builds the evaluation index in one pass.
///
/// Tree shape, serialization and every [`DocIndex`] table (including the
/// template fingerprint and record layout) are byte-identical to
/// [`crate::parse`] followed by [`Document::index`].
///
/// ```
/// use aw_dom::{parse, parse_indexed, serialize};
/// let html = "<ul><li>a<li>b</ul>";
/// let streamed = parse_indexed(html);
/// let oracle = parse(html);
/// assert_eq!(serialize(&streamed), serialize(&oracle));
/// assert_eq!(
///     streamed.index().template_fingerprint(),
///     oracle.index().template_fingerprint()
/// );
/// ```
pub fn parse_indexed(input: &str) -> IndexedDocument {
    thread_local! {
        static BUILDER: RefCell<StreamIndexer> = RefCell::new(StreamIndexer::default());
    }
    BUILDER.with(|builder| builder.borrow_mut().run(input))
}

/// Scratch text above this capacity is released after the page that
/// grew it, like the node tables above [`KEEP_NODES`].
const KEEP_TEXT_BYTES: usize = 1 << 22;

/// One open element. Index 0 of the stack is a sentinel for the document
/// root (empty tag — matched by no end tag, closed only at EOF).
struct OpenEntry {
    /// Arena index = pre-order rank of the open node.
    rank: u32,
    /// Interned tag name; matched by end tags and implied closes exactly
    /// as the parser matches its own open stack.
    tag: &'static str,
    /// Precomputed [`is_scope_boundary`] of `tag` — the implied-close
    /// scan tests it on every entry it walks past.
    boundary: bool,
}

/// Everything the builder needs to know about one tag or attribute
/// name: its interned symbol and `'static` spelling, plus the
/// repair-rule classifications the parser would otherwise recompute
/// from strings on every sighting. All derived from the parser's own
/// tables ([`is_void`] / [`implied_closes`] / [`is_scope_boundary`]),
/// so the repair semantics stay shared.
#[derive(Clone, Copy)]
struct TagInfo {
    name: &'static str,
    sym: Sym,
    void: bool,
    closes: &'static [&'static str],
    boundary: bool,
}

/// A cached name and its local index in the page it was last seen on.
struct CachedName {
    info: TagInfo,
    local: u32,
    page: u64,
}

/// A small cache in front of the process-global interner, kept across
/// pages.
///
/// Pages draw their tags and attribute names from a vocabulary of a few
/// dozen strings repeated hundreds of times; a linear scan over those
/// names (string equality fails fast on length) beats taking the
/// interner's read lock and hashing on every sighting.
#[derive(Default)]
struct NameCache {
    entries: Vec<CachedName>,
}

/// Names a [`NameCache`] keeps; further misses replace its coldest entry.
const CACHE_NAMES: usize = 64;

impl NameCache {
    /// `name`'s info and its local index in `names`, the name table of
    /// page `page`.
    fn get(&mut self, name: &str, names: &mut NameTable, page: u64) -> (TagInfo, u32) {
        let i = match self.entries.iter().position(|e| e.info.name == name) {
            Some(i) => i,
            None => {
                let local = names.insert_str(name);
                let (sym, name) = names.get(local);
                let entry = CachedName {
                    info: TagInfo {
                        name,
                        sym,
                        void: is_void(name),
                        closes: implied_closes(name),
                        boundary: is_scope_boundary(name),
                    },
                    local,
                    page,
                };
                if self.entries.len() < CACHE_NAMES {
                    self.entries.push(entry);
                } else {
                    *self.entries.last_mut().expect("full cache") = entry;
                }
                self.entries.len() - 1
            }
        };
        let entry = &mut self.entries[i];
        if entry.page != page {
            entry.local = names.insert(entry.info.sym, entry.info.name);
            entry.page = page;
        }
        let found = (entry.info, entry.local);
        // Transpose heuristic: a hit bubbles one slot toward the front,
        // so the hot names self-organize to the start of the scan.
        if i > 0 {
            self.entries.swap(i, i - 1);
        }
        found
    }
}

/// True when `collapse_whitespace` would return `t` unchanged, decided
/// by a conservative byte scan: pure ASCII with every whitespace being a
/// single interior `' '`. Multi-byte sequences (which could hide
/// `\u{a0}` or Unicode whitespace) always take the rebuild path.
/// `char::is_whitespace` is the collapse criterion, so the scan must
/// match it on every ASCII byte — including U+000B (vertical tab),
/// which `u8::is_ascii_whitespace` omits.
fn is_collapsed(t: &str) -> bool {
    let b = t.as_bytes();
    if b.is_empty() || b[0] == b' ' || b[b.len() - 1] == b' ' {
        return false;
    }
    let mut prev_space = false;
    for &c in b {
        if c >= 0x80 || ((c.is_ascii_whitespace() || c == 0x0B) && c != b' ') {
            return false;
        }
        let space = c == b' ';
        if space && prev_space {
            return false;
        }
        prev_space = space;
    }
    true
}

/// The one-pass builder: consumes tokens, emits `Document` + index.
///
/// Lives in thread-local scratch ([`parse_indexed`]): every table is
/// cleared, not freed, between pages.
#[derive(Default)]
pub(crate) struct StreamIndexer {
    // The page's document tables.
    nodes: Vec<NodeRec>,
    names: NameTable,
    attrs: Vec<(Sym, u32)>,
    values: ValueTable,
    text: String,
    /// Its index tables, fed each node as it is appended.
    index: IndexBuilder,
    /// The open elements, for the tree-repair rules.
    stack: Vec<OpenEntry>,
    tags: NameCache,
    attr_names: NameCache,
    /// Pages built so far; stamps the caches' local indices.
    page: u64,
}

impl StreamIndexer {
    /// Parses one page.
    fn run(&mut self, input: &str) -> IndexedDocument {
        self.start_page();
        let mut tokens = Tokenizer::new(input);
        while let Some(token) = tokens.next_token() {
            match token {
                Token::StartTag { name, self_closing } => {
                    self.start_tag(&name, tokens.attrs(), self_closing)
                }
                Token::EndTag { name } => self.end_tag(&name),
                Token::Text(t) => self.text(&t),
                Token::Comment(c) => self.comment(c),
                Token::Doctype(_) => {}
            }
        }
        let doc = self.finish();
        if self.nodes.capacity() > KEEP_NODES || self.text.capacity() > KEEP_TEXT_BYTES {
            *self = StreamIndexer::default();
        }
        doc
    }

    fn start_page(&mut self) {
        self.page += 1;
        self.nodes.clear();
        self.names.clear();
        self.attrs.clear();
        self.values.clear();
        self.text.clear();
        self.index.clear();
        self.stack.clear();
        self.nodes.push(NodeRec {
            parent: NO_PARENT,
            name: NAME_ROOT,
            lo: 0,
            hi: 0,
        });
        self.index.push(0, NO_PARENT, NAME_ROOT);
        self.stack.push(OpenEntry {
            rank: 0,
            tag: "",
            boundary: false,
        });
    }

    /// Appends one node under the innermost open element, with its
    /// payload range, and feeds it to the index builder.
    fn append(&mut self, name: u32, lo: usize, hi: usize) -> u32 {
        let r = self.nodes.len() as u32;
        let parent = self.stack.last().expect("root sentinel").rank;
        self.nodes.push(NodeRec {
            parent,
            name,
            lo: offset(lo),
            hi: offset(hi),
        });
        self.index.push(r, parent, name);
        r
    }

    fn comment(&mut self, body: &str) {
        let lo = self.text.len();
        self.text.push_str(body);
        self.append(NAME_COMMENT, lo, self.text.len());
    }

    fn text(&mut self, t: &str) {
        // Collapse straight into the text buffer; already-collapsed text
        // (the common case in rendered markup) is one copy.
        let lo = self.text.len();
        if is_collapsed(t) {
            self.text.push_str(t);
        } else {
            collapse_whitespace_into(t, &mut self.text);
        }
        if self.text.len() > lo {
            self.append(NAME_TEXT, lo, self.text.len());
        }
    }

    fn start_tag(&mut self, name: &str, attrs: &[Attr<'_>], self_closing: bool) {
        let (info, local) = self.tags.get(name, &mut self.names, self.page);
        if !info.closes.is_empty() {
            self.apply_implied_closes(info.closes);
        }
        // Value ids are dense first-seen, which in creation order
        // matches the classic parser's append order.
        let lo = self.attrs.len();
        for (aname, value) in attrs {
            let (ainfo, _) = self.attr_names.get(aname, &mut self.names, self.page);
            let vid = self.values.intern(&mut self.text, value);
            self.attrs.push((ainfo.sym, vid));
        }
        let r = self.append(local, lo, self.attrs.len());
        if !self_closing && !info.void {
            self.stack.push(OpenEntry {
                rank: r,
                tag: info.name,
                boundary: info.boundary,
            });
        }
    }

    fn end_tag(&mut self, name: &str) {
        // Nearest matching open element; the root sentinel's empty tag
        // never matches. Unmatched end tags drop — which subsumes the
        // parser's explicit "</br>" rule, since void elements are never
        // kept open.
        if let Some(pos) = self.stack.iter().rposition(|e| e.tag == name) {
            debug_assert!(pos > 0, "end tag matched the root sentinel");
            self.stack.truncate(pos);
        }
    }

    /// Implied-end-tag repair over the open stack — the iterative twin
    /// of `parser::apply_implied_closes`, sharing its tag tables (the
    /// caller passes the incoming tag's [`implied_closes`] slice, cached
    /// on its [`TagInfo`]).
    fn apply_implied_closes(&mut self, closes: &'static [&'static str]) {
        'again: loop {
            for i in (1..self.stack.len()).rev() {
                let entry = &self.stack[i];
                if closes.contains(&entry.tag) {
                    self.stack.truncate(i);
                    // One incoming tag may imply several closes (e.g.
                    // `tr` closing both `td` and the enclosing `tr`).
                    continue 'again;
                }
                if entry.boundary {
                    return;
                }
            }
            return;
        }
    }

    /// EOF: closes the index builder's open nodes, copies the tables
    /// out at their exact sizes, fingerprints, and publishes the index.
    fn finish(&mut self) -> IndexedDocument {
        let tables = self.index.finish(&self.nodes, &self.names);
        let doc = Document::from_tables(
            self.nodes.clone(),
            self.names.clone(),
            self.attrs.clone(),
            self.values.compact(&self.text),
            self.text.clone(),
        );
        // Eager fingerprint over the hot tables; record layout stays
        // lazy like the classic path.
        DocIndex::new(&doc, &tables).template_fingerprint();
        if doc.index_cache().set(tables).is_err() {
            unreachable!("fresh document cannot have an index");
        }
        IndexedDocument { doc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::serialize;
    use crate::tree_oracle::assert_index_matches_tree;

    /// Asserts the streamed document and index equal the classic
    /// parse-then-index output on every table the public API exposes,
    /// and that both indexes agree with their trees.
    fn assert_matches_oracle(html: &str) {
        let streamed = parse_indexed(html);
        let oracle = parse(html);
        assert_index_matches_tree(&streamed);
        assert_index_matches_tree(&oracle);
        assert_eq!(
            serialize(&streamed),
            serialize(&oracle),
            "tree mismatch on {html:?}"
        );
        assert_eq!(streamed.len(), oracle.len());
        let (si, oi) = (streamed.index(), oracle.index());
        assert!(streamed.preorder_all().eq(streamed.ids()));
        assert!(oracle.preorder_all().eq(oracle.ids()));
        assert_eq!(si.element_postings(), oi.element_postings());
        assert_eq!(si.text_postings(), oi.text_postings());
        for id in streamed.ids() {
            assert_eq!(si.subtree(id.0), oi.subtree(id.0));
            assert_eq!(si.tag_sym(id), oi.tag_sym(id));
            assert_eq!(si.same_tag_pos(id), oi.same_tag_pos(id));
            assert_eq!(si.elem_pos(id), oi.elem_pos(id));
            assert_eq!(si.text_pos(id), oi.text_pos(id));
            assert_eq!(si.attrs(id), oi.attrs(id), "attr table for {id:?}");
            if let Some(sym) = si.tag_sym(id) {
                assert_eq!(si.tag_postings(sym), oi.tag_postings(sym));
            }
            for (_, value) in streamed.attributes(id) {
                assert_eq!(si.attr_value_id(value), oi.attr_value_id(value));
            }
        }
        assert_eq!(si.template_fingerprint(), oi.template_fingerprint());
        assert_eq!(si.record_layout(), oi.record_layout());
    }

    #[test]
    fn figure1_page_is_identical_to_oracle() {
        assert_matches_oracle(
            "<div class='dealerlinks'><tr><td><u>PORTER FURNITURE</u><br>\
             201 HWY.30 West<br>NEW ALBANY, MS 38652</td></tr>\
             <tr><td><u>WOODLAND FURNITURE</u><br>123 Main St.<br>\
             WOODLAND, MS 3977</td></tr></div>",
        );
    }

    #[test]
    fn repair_rules_match_oracle() {
        for html in [
            "<ul><li>a<li>b<li>c</ul>",
            "<ul><li>a<ul><li>x<li>y</ul></li><li>b</ul>",
            "<table><tr><td>a<td>b<tr><td>c</table>",
            "<p>a<br>b<hr>c</p>",
            "<p>a</br>b</p>",
            "<div>a</span>b</div>",
            "<div><b>x<i>y</div>z",
            "<table><thead><tr><td>h</td></tr><tbody><tr><td>b</table>",
            "<select><option>a<option>b</select>",
            "<!DOCTYPE html><div><!-- hi -->x</div>",
        ] {
            assert_matches_oracle(html);
        }
    }

    #[test]
    fn malformed_markup_matches_oracle() {
        for html in [
            "",
            "   \n\t  ",
            "plain text only",
            "2 < 3 and <5> ok",
            "<div attr",
            "a<!-- oops",
            "<script>if (a<b) { x(\"<div>\"); }</script><p>y</p>",
            "<style>a > b { color: red }</style>",
            "<a href=",
            "</div></div>",
            "<td>orphan<td>cells",
            "&amp;&#x41;&bogus;é漢字",
        ] {
            assert_matches_oracle(html);
        }
    }

    #[test]
    fn whitespace_fast_path_matches_oracle() {
        // Every character class where `is_collapsed`'s byte scan could
        // diverge from `collapse_whitespace`'s `char::is_whitespace`
        // criterion: the ASCII controls (VT 0x0B is the one
        // `u8::is_ascii_whitespace` omits), NBSP, and Unicode spaces.
        for html in [
            "<div>a\u{0B}b</div>",
            "<div>\u{0B}a</div>",
            "<div>a\u{0B}</div>",
            "<div>a\u{0B} b</div>",
            "<div>a\u{0C}b</div>",
            "<div>a\tb\rc</div>",
            "<div>a\u{a0}b</div>",
            "<div>a\u{2028}b</div>",
            "<div>a\u{3000}b</div>",
            "<td>x\u{0B}y<td>z",
        ] {
            assert_matches_oracle(html);
        }
        // The fast path must reject anything collapse would rewrite.
        assert!(is_collapsed("a b"));
        assert!(!is_collapsed("a\u{0B}b"));
        assert!(!is_collapsed("a\u{0C}b"));
        assert!(!is_collapsed("a\tb"));
        assert!(!is_collapsed("a  b"));
        assert!(!is_collapsed(" a"));
        assert!(!is_collapsed("a "));
        assert!(!is_collapsed("a\u{a0}b"));
    }

    #[test]
    fn listing_page_record_layout_matches_oracle() {
        let mut html = String::from(
            "<div class='nav'><a href='/a'>A</a><a href='/b'>B</a></div><h1>Dealers</h1>\
             <table class='stores'>",
        );
        for i in 0..4 {
            html.push_str(&format!(
                "<tr><td><u>NAME {i}</u><br>{i} Elm St</td><td>555-000{i}</td></tr>"
            ));
        }
        html.push_str("</table><div class='foot'>contact</div>");
        assert_matches_oracle(&html);
        let layout = parse_indexed(&html)
            .index()
            .record_layout()
            .cloned()
            .expect("records detected");
        assert_eq!(layout.records.len(), 4);
    }

    #[test]
    fn index_survives_into_document() {
        let streamed = parse_indexed("<div><p>a</p></div>");
        let fp = streamed.index().template_fingerprint();
        let doc = streamed.into_document();
        // The streamed index rides along — same cached object.
        assert_eq!(doc.index().template_fingerprint(), fp);
        assert_eq!(doc.index().element_postings().len(), 2);
    }

    #[test]
    fn deep_nesting_does_not_recurse() {
        // The builder is stack-machine based like the classic pass 2;
        // a pathological depth must not overflow the call stack.
        let mut html = String::new();
        for _ in 0..10_000 {
            html.push_str("<div>");
        }
        html.push('x');
        let streamed = parse_indexed(&html);
        assert_eq!(streamed.len(), 10_002);
        let idx = streamed.index();
        assert_eq!(idx.subtree(0), 0..10_002);
        assert_eq!(idx.template_fingerprint(), {
            let oracle = parse(&html);
            oracle.index().template_fingerprint()
        });
    }
}
