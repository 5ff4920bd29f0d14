//! Arena-backed DOM, stored as flat per-document tables.
//!
//! A document is a handful of contiguous tables rather than one heap
//! object per node: every node is a fixed-size row (parent link, kind or
//! tag, payload range), every attribute is a `(name symbol, value id)`
//! pair in one attribute table, and all text, comment and attribute-value
//! bytes live in one per-document text buffer. Nodes refer to each other
//! with [`NodeId`] indices. Documents are built once, by the parser or
//! the streaming builder in [`crate::stream`], and are immutable from
//! then on — inductors, annotators and the ranking model share them,
//! which makes node sets cheap to hash and compare. Both builders
//! allocate nodes in document order, so a node's id *is* its pre-order
//! rank ([`Document::ids`] walks the document in pre-order).
//!
//! Tag and attribute names are interned ([`crate::interner`]); each
//! document keeps its own small table of the `(Sym, &'static str)` pairs
//! it uses, so the string accessors ([`Document::tag`],
//! [`Document::attr`]) resolve names without touching the interner's
//! lock. Attribute values get dense per-document ids in first-seen
//! order, assigned through a table keyed by the secret-keyed
//! `PolyHasher` (see [`crate::index`]), so hostile pages cannot craft
//! collisions. Child lists are a CSR table (one offsets array, one id
//! array) derived from the parent links on first use.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::OnceLock;

use crate::index::{IndexTables, PolyHasher};
use crate::interner::{intern_resolved, Sym};

/// Index of a node within its [`Document`] arena.
///
/// `NodeId(0)` is always the synthetic document root.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The synthetic root of every document.
    pub const ROOT: NodeId = NodeId(0);

    /// Arena index (= pre-order rank) as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a DOM node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The synthetic document root; exactly one per document, at `NodeId::ROOT`.
    Document,
    /// An element such as `<td class="x">`.
    Element,
    /// A text node. The parser trims and whitespace-collapses content.
    Text,
    /// A comment (`<!-- ... -->`). Kept for fidelity; ignored by extraction.
    Comment,
}

/// [`NodeRec::name`] of a text node. Element rows hold a local index
/// into the document's [`NameTable`] instead, always below these.
pub(crate) const NAME_TEXT: u32 = u32::MAX;
/// [`NodeRec::name`] of a comment node.
pub(crate) const NAME_COMMENT: u32 = u32::MAX - 1;
/// [`NodeRec::name`] of the synthetic root.
pub(crate) const NAME_ROOT: u32 = u32::MAX - 2;
/// [`NodeRec::parent`] of the synthetic root.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// One node's row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeRec {
    /// Parent node, or [`NO_PARENT`] for the root.
    pub(crate) parent: u32,
    /// Local name index of an element's tag, or one of the `NAME_*`
    /// kind markers.
    pub(crate) name: u32,
    /// Payload range: the element's slice of the attribute table, or the
    /// text/comment's byte range in the text buffer.
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

impl NodeRec {
    #[inline]
    pub(crate) fn is_element(&self) -> bool {
        self.name < NAME_ROOT
    }

    #[inline]
    fn kind(&self) -> NodeKind {
        match self.name {
            NAME_TEXT => NodeKind::Text,
            NAME_COMMENT => NodeKind::Comment,
            NAME_ROOT => NodeKind::Document,
            _ => NodeKind::Element,
        }
    }
}

/// Names with at most this many entries are resolved by a linear scan;
/// larger tables also keep a symbol → local index map.
const NAME_SCAN: usize = 16;

/// A document's tag and attribute names: local index → interned symbol
/// and its `'static` spelling, in first-seen order.
#[derive(Clone, Debug, Default)]
pub(crate) struct NameTable {
    list: Vec<(Sym, &'static str)>,
    /// Symbol → local index, filled only once `list` outgrows
    /// [`NAME_SCAN`] (a page with a hostile name vocabulary).
    by_sym: HashMap<Sym, u32>,
}

impl NameTable {
    #[inline]
    pub(crate) fn get(&self, local: u32) -> (Sym, &'static str) {
        self.list[local as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.list.len()
    }

    pub(crate) fn clear(&mut self) {
        self.list.clear();
        self.by_sym.clear();
    }

    #[inline]
    pub(crate) fn local_of(&self, sym: Sym) -> Option<u32> {
        if self.list.len() <= NAME_SCAN {
            self.list
                .iter()
                .position(|&(s, _)| s == sym)
                .map(|i| i as u32)
        } else {
            self.by_sym.get(&sym).copied()
        }
    }

    /// The spelling of a symbol this table holds.
    #[inline]
    pub(crate) fn str_of(&self, sym: Sym) -> &'static str {
        let local = self.local_of(sym).expect("name in the document table");
        self.list[local as usize].1
    }

    /// The local index of `sym`, appending it on first sight.
    pub(crate) fn insert(&mut self, sym: Sym, name: &'static str) -> u32 {
        if let Some(local) = self.local_of(sym) {
            return local;
        }
        let local = self.list.len() as u32;
        self.list.push((sym, name));
        if self.list.len() > NAME_SCAN {
            if self.by_sym.is_empty() {
                self.by_sym.extend(
                    self.list
                        .iter()
                        .enumerate()
                        .map(|(i, &(s, _))| (s, i as u32)),
                );
            } else {
                self.by_sym.insert(sym, local);
            }
        }
        local
    }

    /// The local index of `name`, interning it on first sight.
    pub(crate) fn insert_str(&mut self, name: &str) -> u32 {
        if let Some(i) = self
            .list
            .iter()
            .take(NAME_SCAN)
            .position(|&(_, s)| s == name)
        {
            return i as u32;
        }
        let (sym, leaked) = intern_resolved(name);
        self.insert(sym, leaked)
    }
}

/// The secret-keyed hash of an attribute value.
fn value_hash(value: &str) -> u64 {
    let mut h = PolyHasher::default();
    h.write(value.as_bytes());
    h.finish()
}

/// Attribute values: dense per-document ids in first-seen order, each a
/// byte range in the document's text buffer, found by an open-addressing
/// table keyed by [`PolyHasher`].
///
/// Values are unbounded across a crawl (hrefs, ids), so they are
/// deliberately *not* put in the process-global interner — this table
/// lives and dies with its document. The keyed hash is fast on short
/// strings, but hostile request pages cannot craft collision sets
/// without the per-process key (see [`PolyHasher`] for the bound).
#[derive(Clone, Debug, Default)]
pub(crate) struct ValueTable {
    /// Value id → byte range in the text buffer.
    spans: Vec<(u32, u32)>,
    /// Power-of-two probe table: 0 is empty, otherwise value id + 1.
    slots: Vec<u32>,
}

impl ValueTable {
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
        self.slots.clear();
    }

    #[inline]
    pub(crate) fn get<'t>(&self, text: &'t str, id: u32) -> &'t str {
        let (lo, hi) = self.spans[id as usize];
        &text[lo as usize..hi as usize]
    }

    /// The probe slot holding `value`, or the empty slot where it belongs.
    fn probe(&self, text: &str, value: &str, hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if self.get(text, s - 1) == value => return Ok(s - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The id of `value`, if the document holds it.
    pub(crate) fn lookup(&self, text: &str, value: &str) -> Option<u32> {
        if self.spans.is_empty() {
            return None;
        }
        self.probe(text, value, value_hash(value)).ok()
    }

    /// The id of `value`, appending it to `text` on first sight.
    pub(crate) fn intern(&mut self, text: &mut String, value: &str) -> u32 {
        if 2 * (self.spans.len() + 1) > self.slots.len() {
            self.rehash(
                text,
                (2 * (self.spans.len() + 1)).next_power_of_two().max(8),
            );
        }
        match self.probe(text, value, value_hash(value)) {
            Ok(id) => id,
            Err(slot) => {
                let id = self.spans.len() as u32;
                let lo = offset(text.len());
                text.push_str(value);
                self.spans.push((lo, offset(text.len())));
                self.slots[slot] = id + 1;
                id
            }
        }
    }

    fn rehash(&mut self, text: &str, slots: usize) {
        self.slots.clear();
        self.slots.resize(slots, 0);
        let mask = slots - 1;
        for id in 0..self.spans.len() as u32 {
            let mut i = value_hash(self.get(text, id)) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = id + 1;
        }
    }

    /// An exactly sized copy (values in `text`, which the copy shares).
    pub(crate) fn compact(&self, text: &str) -> ValueTable {
        let mut out = ValueTable {
            spans: self.spans.clone(),
            slots: Vec::new(),
        };
        if !out.spans.is_empty() {
            let slots = (2 * out.spans.len()).next_power_of_two();
            out.slots.reserve_exact(slots);
            out.rehash(text, slots);
        }
        out
    }
}

/// Child lists in CSR form: the children of node `p` are
/// `ids[off[p]..off[p + 1]]`.
#[derive(Clone, Debug)]
struct Kids {
    off: Vec<u32>,
    ids: Vec<NodeId>,
}

impl Kids {
    /// Groups nodes by parent. A child always has a larger id than every
    /// earlier child of its parent (appends allocate ids in order), so a
    /// stable pass in id order yields each list in document order.
    fn build(nodes: &[NodeRec]) -> Kids {
        let n = nodes.len();
        let mut off = vec![0u32; n + 1];
        for rec in nodes.iter().filter(|r| r.parent != NO_PARENT) {
            off[rec.parent as usize + 1] += 1;
        }
        for i in 1..=n {
            off[i] += off[i - 1];
        }
        let mut ids = vec![NodeId::ROOT; off[n] as usize];
        // Fill through `off[p]` as the cursor of `p`'s list, which leaves
        // `off[p]` at the end of `p`'s list; shifting by one restores the
        // starts.
        for (id, rec) in nodes.iter().enumerate() {
            if rec.parent != NO_PARENT {
                let slot = &mut off[rec.parent as usize];
                ids[*slot as usize] = NodeId(id as u32);
                *slot += 1;
            }
        }
        for i in (1..=n).rev() {
            off[i] = off[i - 1];
        }
        off[0] = 0;
        Kids { off, ids }
    }
}

/// A payload offset as stored in a [`NodeRec`]. Text buffers and
/// attribute tables stay far below 4 GiB (request bodies are capped at
/// 64 MiB); a larger one is refused rather than silently wrapped.
#[inline]
pub(crate) fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("document payload beyond 4 GiB")
}

/// An HTML document: flat node, attribute and text tables rooted at
/// [`NodeId::ROOT`]. The default document holds only the root.
#[derive(Clone, Debug)]
pub struct Document {
    pub(crate) nodes: Vec<NodeRec>,
    pub(crate) names: NameTable,
    /// Every element's attributes, in document order: global name
    /// symbol + per-document value id.
    pub(crate) attrs: Vec<(Sym, u32)>,
    pub(crate) values: ValueTable,
    /// Text, comment and attribute-value bytes.
    pub(crate) text: String,
    /// Child lists, derived from the parent links on first use.
    kids: OnceLock<Kids>,
    /// Lazily-built evaluation index ([`Document::index`]).
    index: OnceLock<IndexTables>,
}

impl Default for Document {
    /// A document containing only the root node; the classic parser
    /// appends to it.
    fn default() -> Self {
        Document::from_tables(
            vec![NodeRec {
                parent: NO_PARENT,
                name: NAME_ROOT,
                lo: 0,
                hi: 0,
            }],
            NameTable::default(),
            Vec::new(),
            ValueTable::default(),
            String::new(),
        )
    }
}

impl Document {
    /// Assembles a document from tables built elsewhere (the streaming
    /// builder, `crate::stream`). The caller guarantees the tables are
    /// consistent and `nodes[0]` is the root.
    pub(crate) fn from_tables(
        nodes: Vec<NodeRec>,
        names: NameTable,
        attrs: Vec<(Sym, u32)>,
        values: ValueTable,
        text: String,
    ) -> Document {
        debug_assert_eq!(nodes[0].name, NAME_ROOT);
        debug_assert_eq!(nodes[0].parent, NO_PARENT);
        Document {
            nodes,
            names,
            attrs,
            values,
            text,
            kids: OnceLock::new(),
            index: OnceLock::new(),
        }
    }

    /// The index cell (crate-internal; see [`Document::index`]).
    #[inline]
    pub(crate) fn index_cache(&self) -> &OnceLock<IndexTables> {
        &self.index
    }

    /// Number of nodes, including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the document contains only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The document root.
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    #[inline]
    pub(crate) fn rec(&self, id: NodeId) -> NodeRec {
        self.nodes[id.index()]
    }

    /// What `id` is.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this document.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.rec(id).kind()
    }

    /// Parent of `id`, or `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.rec(id).parent;
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// Children of `id` in document order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let kids = self.kids.get_or_init(|| Kids::build(&self.nodes));
        let i = id.index();
        &kids.ids[kids.off[i] as usize..kids.off[i + 1] as usize]
    }

    /// Lower-case tag name of `id`, if it is an element.
    #[inline]
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        let rec = self.rec(id);
        rec.is_element().then(|| self.names.get(rec.name).1)
    }

    /// Interned tag of `id`, if it is an element. Reads the document's
    /// own name table, so it takes no interner lock.
    #[inline]
    pub fn tag_sym(&self, id: NodeId) -> Option<Sym> {
        let rec = self.rec(id);
        rec.is_element().then(|| self.names.get(rec.name).0)
    }

    /// Attributes of `id` as `(name symbol, per-document value id)`
    /// pairs in document order; empty for non-elements.
    #[inline]
    pub(crate) fn attr_pairs(&self, id: NodeId) -> &[(Sym, u32)] {
        let rec = self.rec(id);
        if rec.is_element() {
            &self.attrs[rec.lo as usize..rec.hi as usize]
        } else {
            &[]
        }
    }

    /// Attribute `name` of element `id`.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attributes(id)
            .find(|&(n, _)| n == name)
            .map(|(_, value)| value)
    }

    /// Attributes of `id` as `(name, value)` in document order; names
    /// lower-cased. Empty for non-elements.
    pub fn attributes(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.attr_pairs(id)
            .iter()
            .map(|&(sym, vid)| (self.names.str_of(sym), self.value(vid)))
    }

    /// The attribute value behind a per-document value id.
    #[inline]
    pub(crate) fn value(&self, vid: u32) -> &str {
        self.values.get(&self.text, vid)
    }

    /// The per-document id of an attribute value, if any attribute in
    /// this document carries it.
    pub(crate) fn value_id(&self, value: &str) -> Option<u32> {
        self.values.lookup(&self.text, value)
    }

    /// The byte range of a text or comment node in the text buffer.
    #[inline]
    fn payload(&self, id: NodeId, name: u32) -> Option<&str> {
        let rec = self.rec(id);
        (rec.name == name).then(|| &self.text[rec.lo as usize..rec.hi as usize])
    }

    /// Text content of `id`, if it is a text node.
    #[inline]
    pub fn text(&self, id: NodeId) -> Option<&str> {
        self.payload(id, NAME_TEXT)
    }

    /// Body of `id`, if it is a comment.
    pub fn comment(&self, id: NodeId) -> Option<&str> {
        self.payload(id, NAME_COMMENT)
    }

    /// True if `id` is a text node.
    #[inline]
    pub fn is_text(&self, id: NodeId) -> bool {
        self.rec(id).name == NAME_TEXT
    }

    /// True if `id` is an element node.
    #[inline]
    pub fn is_element(&self, id: NodeId) -> bool {
        self.rec(id).is_element()
    }

    /// Appends a row under `parent`. Rows are appended in document order
    /// (the parser's only order), before anything derived is built.
    fn push(&mut self, parent: NodeId, name: u32, lo: usize, hi: usize) -> NodeId {
        debug_assert!(
            self.kids.get().is_none() && self.index.get().is_none(),
            "append to a built document"
        );
        assert!(
            parent.index() < self.nodes.len(),
            "parent {parent:?} not in document"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeRec {
            parent: parent.0,
            name,
            lo: offset(lo),
            hi: offset(hi),
        });
        id
    }

    /// Appends an element with attributes.
    pub(crate) fn append_element<'s>(
        &mut self,
        parent: NodeId,
        tag: &str,
        attrs: impl IntoIterator<Item = (&'s str, &'s str)>,
    ) -> NodeId {
        let name = self.names.insert_str(tag);
        let lo = self.attrs.len();
        for (n, v) in attrs {
            let local = self.names.insert_str(n);
            let sym = self.names.get(local).0;
            let vid = self.values.intern(&mut self.text, v);
            self.attrs.push((sym, vid));
        }
        let hi = self.attrs.len();
        self.push(parent, name, lo, hi)
    }

    /// Appends a text node.
    pub(crate) fn append_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.push_payload(parent, NAME_TEXT, text)
    }

    /// Appends a comment.
    pub(crate) fn append_comment(&mut self, parent: NodeId, body: &str) -> NodeId {
        self.push_payload(parent, NAME_COMMENT, body)
    }

    fn push_payload(&mut self, parent: NodeId, name: u32, body: &str) -> NodeId {
        let lo = self.text.len();
        self.text.push_str(body);
        let hi = self.text.len();
        self.push(parent, name, lo, hi)
    }

    /// 1-based position of `id` among siblings **with the same tag name**.
    ///
    /// This is the semantics of the xpath child-number filter `td[2]`:
    /// the second `td` child of the parent, not the second child overall.
    /// Returns `None` for non-elements and the root.
    pub fn same_tag_index(&self, id: NodeId) -> Option<usize> {
        let tag = self.tag_sym(id)?;
        let parent = self.parent(id)?;
        let mut k = 0;
        for &c in self.children(parent) {
            if self.tag_sym(c) == Some(tag) {
                k += 1;
                if c == id {
                    return Some(k);
                }
            }
        }
        None
    }

    /// 0-based position of `id` among all siblings.
    pub fn sibling_index(&self, id: NodeId) -> Option<usize> {
        let parent = self.parent(id)?;
        self.children(parent).iter().position(|&c| c == id)
    }

    /// Depth of `id` (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// Iterator over every node id in document (pre-)order: ids are
    /// allocated in document order, so this equals
    /// [`Document::preorder_all`].
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Concatenated text of all text-node descendants of `id`.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for t in self.preorder(id).filter_map(|n| self.text(n)) {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::default();
        let div = d.append_element(NodeId::ROOT, "div", [("class", "dealerlinks")]);
        let td = d.append_element(div, "td", []);
        let t = d.append_text(td, "PORTER FURNITURE");
        (d, div, td, t)
    }

    #[test]
    fn builds_tree_links() {
        let (d, div, td, t) = sample();
        assert_eq!(d.parent(t), Some(td));
        assert_eq!(d.parent(td), Some(div));
        assert_eq!(d.parent(div), Some(NodeId::ROOT));
        assert_eq!(d.children(div), &[td]);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert!(Document::default().is_empty());
    }

    #[test]
    fn accessors() {
        let (d, div, td, t) = sample();
        assert_eq!(d.tag(div), Some("div"));
        assert_eq!(d.attr(div, "class"), Some("dealerlinks"));
        assert_eq!(d.attr(div, "id"), None);
        assert_eq!(d.text(t), Some("PORTER FURNITURE"));
        assert!(d.is_text(t));
        assert!(d.is_element(td));
        assert!(!d.is_element(t));
        assert_eq!(d.tag(t), None);
    }

    #[test]
    fn same_tag_index_counts_only_same_tag() {
        let mut d = Document::default();
        let tr = d.append_element(NodeId::ROOT, "tr", []);
        let td1 = d.append_element(tr, "td", []);
        let _span = d.append_element(tr, "span", []);
        let td2 = d.append_element(tr, "td", []);
        assert_eq!(d.same_tag_index(td1), Some(1));
        assert_eq!(d.same_tag_index(td2), Some(2)); // span does not count
        assert_eq!(d.sibling_index(td2), Some(2));
        assert_eq!(d.same_tag_index(NodeId::ROOT), None);
    }

    #[test]
    fn depth_and_text_content() {
        let (d, div, td, t) = sample();
        assert_eq!(d.depth(NodeId::ROOT), 0);
        assert_eq!(d.depth(div), 1);
        assert_eq!(d.depth(t), 3);
        assert_eq!(d.text_content(td), "PORTER FURNITURE");
        assert_eq!(d.text_content(NodeId::ROOT), "PORTER FURNITURE");
    }
}
