//! Per-document evaluation index.
//!
//! Built once per [`Document`] (lazily, via [`Document::index`]) and
//! consumed by the compiled xpath engine in `aw-xpath` and by the XPATH
//! inductor's feature extraction. The index turns the three operations
//! that dominate wrapper-space evaluation into O(1)/O(log n) lookups:
//!
//! * **descendant scans** — every node's pre-order rank is its
//!   [`NodeId`] index (documents are built in document order), and the
//!   index records the half-open rank range of its subtree, so
//!   "descendants of `n` with tag `td`" is a binary search in the `td`
//!   posting list instead of a tree walk;
//! * **tag tests** — tag and attribute names are interned to [`Sym`]s
//!   ([`crate::interner`]), so node tests compare integers, never
//!   strings;
//! * **child-number filters** — the 1-based position of every node among
//!   its same-tag / element / text siblings is precomputed, so `td[2]`
//!   costs one array load instead of an O(siblings) rescan per candidate.

use crate::arena::{
    Document, NameTable, NodeId, NodeKind, NodeRec, NAME_COMMENT, NAME_ROOT, NAME_TEXT, NO_PARENT,
};
use crate::interner::Sym;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::OnceLock;

/// One repeated record subtree inside a [`RecordLayout`], as a half-open
/// pre-order rank span plus its position-independent skeleton hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordSpan {
    /// Rank of the record root (first rank of the subtree).
    pub start: u32,
    /// One past the last rank of the subtree.
    pub end: u32,
    /// Skeleton hash of the subtree: node kinds, tags and attribute
    /// *names*, composed bottom-up — independent of where the subtree
    /// sits in the page, so equal-looking records on different pages (or
    /// at different positions of one page) hash equal.
    pub fingerprint: u64,
}

/// The record region of a listing-shaped page: the contiguous run of
/// repeated child subtrees that [`DocIndex::record_layout`] detected,
/// plus a fingerprint of everything *outside* it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordLayout {
    /// Rank of the parent element holding the record run.
    pub parent: u32,
    /// First rank covered by the run (`records[0].start`).
    pub run_start: u32,
    /// One past the last covered rank (`records.last().end`).
    pub run_end: u32,
    /// The record subtrees in rank order; they tile
    /// `run_start..run_end` exactly (records are consecutive children,
    /// and children tile their parent's span).
    pub records: Vec<RecordSpan>,
    /// Hash of the page skeleton with the record run excised, in
    /// *collapsed* rank coordinates (ranks ≥ `run_end` shifted down by
    /// the run length), with `parent` and `run_start` mixed in. Pages
    /// that differ only in how many records they carry — and in which
    /// record variants — share this fingerprint while their whole-page
    /// [`DocIndex::template_fingerprint`]s differ. Probabilistic like
    /// the whole-page fingerprint (unkeyed 64-bit hash).
    pub frame_fingerprint: u64,
}

impl RecordLayout {
    /// Number of ranks the record run covers.
    #[inline]
    pub fn run_len(&self) -> u32 {
        self.run_end - self.run_start
    }
}

/// Which children of one parent may join a record run: every child
/// whose subtree recurs among its siblings (`recurring`), plus every
/// child sharing a root tag (`tags`) with some recurring child, so a
/// record variant that occurs once does not split the run. Sorts the
/// recurring children's tags once and binary-searches them per child, so
/// a parent with many siblings costs O(k log k), not O(k²).
fn run_eligible(tags: &[Option<Sym>], recurring: &[bool]) -> Vec<bool> {
    let mut run_tags: Vec<Option<Sym>> = tags
        .iter()
        .zip(recurring)
        .filter(|&(_, &rec)| rec)
        .map(|(&t, _)| t)
        .collect();
    run_tags.sort_unstable();
    run_tags.dedup();
    tags.iter()
        .zip(recurring)
        .map(|(t, &rec)| rec || run_tags.binary_search(t).is_ok())
        .collect()
}

/// The original [`run_eligible`]: a scan of every recurring child's tag
/// per child, quadratic in the sibling count. Kept as the oracle the
/// linear rule is tested against.
#[cfg(test)]
fn run_eligible_quadratic(tags: &[Option<Sym>], recurring: &[bool]) -> Vec<bool> {
    let run_tags: Vec<Option<Sym>> = tags
        .iter()
        .zip(recurring)
        .filter(|&(_, &rec)| rec)
        .map(|(&t, _)| t)
        .collect();
    tags.iter()
        .zip(recurring)
        .map(|(t, &rec)| rec || run_tags.contains(t))
        .collect()
}

/// Keyed polynomial hasher for the per-document attribute-value table.
///
/// Those values are short strings hashed once per attribute on the
/// parse path and once per `[@attr='value']` probe at evaluation time;
/// SipHash's per-call finalization dominates at such lengths and is
/// measurable on the serving tier's request path. But the values come
/// straight from hostile pages, so an *unkeyed* fast hash (FNV, Fx)
/// would reopen the algorithmic-complexity hole SipHash closes: its
/// constants are public, and a crafted page full of colliding values
/// degrades its own parse toward O(n²).
///
/// This hasher instead evaluates the byte stream as a polynomial over
/// the Mersenne field `p = 2^61 - 1` at a secret point `x` drawn once
/// per process from OS entropy (via [`RandomState`]): the stream is
/// split into 56-bit blocks `c_1..c_d` (seven bytes each, the last
/// carrying a length-marker bit so the encoding is injective on
/// streams) and `H = Σ c_i · x^(d-i) mod p`. That is the standard
/// Carter–Wegman almost-universal family (the same construction as
/// Poly1305's core): for any two distinct strings of length ≤ L the
/// collision probability over the key draw is ≤ (L/7 + 1)/2^61, so
/// collisions cannot be *crafted* without knowing `x` — and `x` never
/// leaves the process (hashes and map iteration order are never
/// serialized or exposed; the dense value ids are first-seen order,
/// key-independent). The cost is one widening multiply per **seven**
/// bytes — ahead of FNV's per-byte multiply and far from SipHash's ARX
/// rounds. `finish` applies an (unkeyed, bijective) xor-shift
/// finalizer so bucket masking sees diffused low bits; a bijection
/// cannot introduce collisions.
pub(crate) struct PolyHasher {
    h: u64,
    key: u64,
    /// Bytes awaiting a full block, packed little-endian.
    pending: u64,
    /// How many bytes `pending` holds (0..=6).
    pending_len: u32,
}

/// `2^61 - 1`, the field modulus.
const POLY_P: u64 = (1 << 61) - 1;

/// `a * b mod p` for `a, b < 2^61`, via one widening multiply and a
/// Mersenne fold.
#[inline]
fn poly_mul_mod(a: u64, b: u64) -> u64 {
    let t = (a as u128) * (b as u128);
    let mut r = ((t as u64) & POLY_P) + ((t >> 61) as u64);
    r = (r & POLY_P) + (r >> 61);
    if r >= POLY_P {
        r -= POLY_P;
    }
    r
}

/// One Horner step: `h * key + block mod p`, for `block < 2^57`.
#[inline]
fn poly_fold(h: u64, key: u64, block: u64) -> u64 {
    let mut r = poly_mul_mod(h, key) + block;
    r = (r & POLY_P) + (r >> 61);
    if r >= POLY_P {
        r -= POLY_P;
    }
    r
}

/// The process-wide secret evaluation point, in `[2, p - 1]`.
fn poly_key() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;
    static KEY: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *KEY.get_or_init(|| {
        // RandomState seeds from OS entropy; its SipHash output of a
        // fixed input is uniform and unknown to page authors. The
        // modulo bias (2^64 vs ~2^61 keys) is a < 2^-59 distribution
        // skew — irrelevant next to the L/2^61 collision bound.
        RandomState::new().hash_one(0u64) % (POLY_P - 2) + 2
    })
}

impl Default for PolyHasher {
    fn default() -> Self {
        PolyHasher {
            h: 0,
            key: poly_key(),
            pending: 0,
            pending_len: 0,
        }
    }
}

impl Hasher for PolyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the tail as a final block with a length-marker bit above
        // its top byte — an injective encoding, so streams differing
        // only in trailing NULs or total length land in distinct
        // blocks. Then fmix64 (the splitmix/Murmur3 finalizer):
        // bijective diffusion so `HashMap`'s power-of-two bucket mask
        // sees every input bit.
        let tail = self.pending | (1u64 << (8 * self.pending_len));
        let mut z = poly_fold(self.h, self.key, tail);
        z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        z ^ (z >> 33)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        // Buffering into `pending` makes the hash a function of the
        // byte stream alone, independent of how callers split their
        // `write` calls. Top up a partially filled block byte-wise,
        // then fold aligned seven-byte chunks straight off the slice.
        while self.pending_len != 0 {
            let Some((&b, rest)) = bytes.split_first() else {
                return;
            };
            bytes = rest;
            self.pending |= (b as u64) << (8 * self.pending_len);
            self.pending_len += 1;
            if self.pending_len == 7 {
                self.h = poly_fold(self.h, self.key, self.pending);
                self.pending = 0;
                self.pending_len = 0;
            }
        }
        let mut chunks = bytes.chunks_exact(7);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w[..7].copy_from_slice(c);
            self.h = poly_fold(self.h, self.key, u64::from_le_bytes(w));
        }
        for &b in chunks.remainder() {
            self.pending |= (b as u64) << (8 * self.pending_len);
            self.pending_len += 1;
        }
    }
}

/// The evaluation tables of one [`Document`], read through a
/// [`DocIndex`]. Only [`IndexBuilder`] computes them, driven two ways:
/// the streaming parser (`crate::stream`) pushes each node as it appends
/// it, so the request path builds document and tables in one pass, and
/// [`Document::index`] runs it lazily over the node rows of a document
/// from the classic parser.
///
/// Only what the document does not already hold lives here: tags,
/// attributes and attribute-value ids are read from the document's own
/// tables.
#[derive(Clone, Debug)]
pub(crate) struct IndexTables {
    /// Rank → exclusive end of the node's subtree, in rank space.
    pub(crate) subtree_end: Vec<u32>,
    /// NodeId index → (1-based position among same-tag siblings,
    /// 1-based position among siblings of the node's own kind — element
    /// siblings for an element, text siblings for a text node); 0 = n/a.
    pub(crate) pos: Vec<(u32, u32)>,
    /// Tag postings in CSR form: `(tag, end)` sorted by tag, where that
    /// tag's ranks are `tag_ranks[previous end..end]`, ascending.
    pub(crate) tags: Vec<(Sym, u32)>,
    pub(crate) tag_ranks: Vec<u32>,
    /// Ranks of all element nodes, ascending.
    pub(crate) elem_postings: Vec<u32>,
    /// Ranks of all text nodes, ascending.
    pub(crate) text_postings: Vec<u32>,
    /// Structural template fingerprint, computed on first use (see
    /// [`DocIndex::template_fingerprint`]) — consumers that never
    /// fingerprint (per-rule evaluation, cache-disabled batch engines)
    /// pay nothing for it.
    pub(crate) fingerprint: OnceLock<u64>,
    /// Record-region detection result, computed on first use (see
    /// [`DocIndex::record_layout`]); `None` once computed means the page
    /// has no repeated-subtree run.
    pub(crate) record_layout: OnceLock<Option<RecordLayout>>,
}

impl IndexTables {
    /// The tables of a document built without them (classic `parse`):
    /// [`IndexBuilder`] over its node rows, from per-thread scratch.
    fn from_rows(doc: &Document) -> IndexTables {
        thread_local! {
            static BUILDER: RefCell<IndexBuilder> = RefCell::new(IndexBuilder::default());
        }
        BUILDER.with(|builder| {
            let mut b = builder.borrow_mut();
            b.clear();
            for (r, rec) in doc.nodes.iter().enumerate() {
                b.push(r as u32, rec.parent, rec.name);
            }
            let tables = b.finish(&doc.nodes, &doc.names);
            if doc.len() > KEEP_NODES {
                *b = IndexBuilder::default();
            }
            tables
        })
    }
}

/// Builder scratch grown past this many nodes is released after the
/// page that grew it, so one huge page does not pin its builder memory
/// in the thread for good.
pub(crate) const KEEP_NODES: usize = 1 << 16;

/// One node on [`IndexBuilder`]'s ancestor stack, with the running
/// sibling counters of the children pushed under it so far.
struct OpenNode {
    rank: u32,
    /// Element children so far.
    elems: u32,
    /// Text children so far.
    texts: u32,
    /// Where this node's per-tag child counters start in
    /// [`IndexBuilder::by_tag`]; they run to its end while the node is
    /// the innermost open one.
    by_tag_start: u32,
}

/// The one builder of [`IndexTables`]: fed every node once, in
/// pre-order, by [`IndexBuilder::push`], then closed by
/// [`IndexBuilder::finish`].
///
/// A node's id is its pre-order rank, so posting lists append in rank
/// order, spans are known when a node's subtree is left, and sibling
/// positions come from counters on the ancestor stack. Scratch: every
/// table is cleared, not freed, between documents, and `finish` copies
/// the tables out at their exact sizes.
#[derive(Default)]
pub(crate) struct IndexBuilder {
    subtree_end: Vec<u32>,
    pos: Vec<(u32, u32)>,
    elem_postings: Vec<u32>,
    text_postings: Vec<u32>,
    /// The open ancestors of the next node: the root, then elements.
    /// Text and comment nodes never have children, so never open.
    stack: Vec<OpenNode>,
    /// Per-tag element child counters `(local name, count)` of the open
    /// nodes, one segment per node (see [`OpenNode::by_tag_start`]).
    by_tag: Vec<(u32, u32)>,
    /// Per local name: element count, then CSR cursor (in `finish`).
    tag_counts: Vec<u32>,
}

impl IndexBuilder {
    /// Starts a new document.
    pub(crate) fn clear(&mut self) {
        self.subtree_end.clear();
        self.pos.clear();
        self.elem_postings.clear();
        self.text_postings.clear();
        self.stack.clear();
        self.by_tag.clear();
    }

    /// Adds node `rank`, the next in pre-order, whose row holds `parent`
    /// ([`NO_PARENT`] for the root) and `name` (a local tag index or a
    /// `NAME_*` kind marker). Every open node that is not `parent` is
    /// left here: its subtree ends at `rank`.
    ///
    /// # Panics
    /// Panics if `parent` is not an open ancestor, i.e. the nodes do
    /// not arrive in pre-order.
    #[inline]
    pub(crate) fn push(&mut self, rank: u32, parent: u32, name: u32) {
        if self.stack.last().is_some_and(|top| top.rank != parent) {
            self.leave_to(parent, rank);
        }
        let pos = match self.stack.last_mut() {
            None => {
                assert_eq!(parent, NO_PARENT, "node {rank} arrived out of pre-order");
                (0, 0)
            }
            Some(open) => match name {
                NAME_TEXT => {
                    open.texts += 1;
                    (0, open.texts)
                }
                NAME_COMMENT => (0, 0),
                _ => {
                    open.elems += 1;
                    let counters = &mut self.by_tag[open.by_tag_start as usize..];
                    let same_tag = match counters.iter_mut().find(|(l, _)| *l == name) {
                        Some((_, k)) => {
                            *k += 1;
                            *k
                        }
                        None => {
                            self.by_tag.push((name, 1));
                            1
                        }
                    };
                    (same_tag, open.elems)
                }
            },
        };
        self.subtree_end.push(rank + 1);
        self.pos.push(pos);
        match name {
            NAME_TEXT => self.text_postings.push(rank),
            NAME_COMMENT => {}
            _ => {
                if name != NAME_ROOT {
                    self.elem_postings.push(rank);
                }
                self.stack.push(OpenNode {
                    rank,
                    elems: 0,
                    texts: 0,
                    by_tag_start: self.by_tag.len() as u32,
                });
            }
        }
    }

    /// Leaves the open nodes above `parent`: their subtrees end at `rank`.
    /// Out of line, because most nodes arrive under the innermost open
    /// one.
    #[inline(never)]
    fn leave_to(&mut self, parent: u32, rank: u32) {
        while let Some(top) = self.stack.last() {
            if top.rank == parent {
                break;
            }
            self.subtree_end[top.rank as usize] = rank;
            self.by_tag.truncate(top.by_tag_start as usize);
            self.stack.pop();
        }
    }

    /// Closes the nodes still open at `nodes.len()`, groups the tag
    /// postings and copies the tables out. `nodes` and `names` are the
    /// rows and name table the pushed nodes came from.
    pub(crate) fn finish(&mut self, nodes: &[NodeRec], names: &NameTable) -> IndexTables {
        let n = nodes.len() as u32;
        debug_assert_eq!(self.subtree_end.len(), nodes.len(), "every node pushed");
        for open in self.stack.drain(..) {
            self.subtree_end[open.rank as usize] = n;
        }

        // Tag postings as one CSR array: count elements per local name,
        // order the tags by symbol, then place each rank at its tag's
        // cursor (ranks ascend, so every group does too).
        let counts = &mut self.tag_counts;
        counts.clear();
        counts.resize(names.len(), 0);
        for &r in &self.elem_postings {
            counts[nodes[r as usize].name as usize] += 1;
        }
        // `(tag, local name)`, sorted, then the local name replaced by
        // the group's end.
        let mut tags = Vec::with_capacity(counts.iter().filter(|&&c| c > 0).count());
        tags.extend(
            (0..counts.len() as u32)
                .filter(|&l| counts[l as usize] > 0)
                .map(|l| (names.get(l).0, l)),
        );
        tags.sort_unstable();
        let mut end = 0;
        for (_, local_then_end) in &mut tags {
            let count = std::mem::replace(&mut counts[*local_then_end as usize], end);
            end += count;
            *local_then_end = end;
        }
        let mut tag_ranks = vec![0; self.elem_postings.len()];
        for &r in &self.elem_postings {
            let cursor = &mut counts[nodes[r as usize].name as usize];
            tag_ranks[*cursor as usize] = r;
            *cursor += 1;
        }

        IndexTables {
            subtree_end: self.subtree_end.clone(),
            pos: self.pos.clone(),
            tags,
            tag_ranks,
            elem_postings: self.elem_postings.clone(),
            text_postings: self.text_postings.clone(),
            fingerprint: OnceLock::new(),
            record_layout: OnceLock::new(),
        }
    }
}

/// The evaluation index of one [`Document`]: the tables only the index
/// holds (ranks, spans, postings, sibling positions, fingerprints), read
/// together with the document's own tag and attribute tables.
///
/// All rank-typed values index the document's **pre-order** traversal,
/// which is its arena order: rank `r` is `NodeId(r)`. Obtained from
/// [`Document::index`]; `Copy`, two pointers wide.
#[derive(Clone, Copy, Debug)]
pub struct DocIndex<'a> {
    doc: &'a Document,
    t: &'a IndexTables,
}

impl<'a> DocIndex<'a> {
    pub(crate) fn new(doc: &'a Document, t: &'a IndexTables) -> Self {
        DocIndex { doc, t }
    }

    /// Computes the template fingerprint — a hash over the rank-ordered
    /// tag/attribute-name skeleton plus subtree spans (spans pin the
    /// tree *shape*; a flat preorder kind sequence alone cannot tell
    /// `a(b) c` from `a b(c)`). Text content and attribute values are
    /// deliberately excluded: pages rendered from one script differ
    /// exactly there.
    fn compute_fingerprint(&self) -> u64 {
        let n = self.doc.len();
        let mut h = DefaultHasher::new();
        (n as u64).hash(&mut h);
        for r in 0..n as u32 {
            self.t.subtree_end[r as usize].hash(&mut h);
            self.hash_node_kind(r, &mut h);
        }
        h.finish()
    }

    /// Hashes one node's kind discriminant plus its tag and attribute
    /// *names* (values and text content excluded) — the per-node
    /// contribution shared by the whole-page, per-subtree and frame
    /// fingerprints.
    fn hash_node_kind(&self, r: u32, h: &mut DefaultHasher) {
        let id = NodeId(r);
        match self.doc.kind(id) {
            NodeKind::Element => {
                1u8.hash(h);
                self.doc.tag_sym(id).expect("element has a tag").hash(h);
                let attrs = self.doc.attr_pairs(id);
                (attrs.len() as u32).hash(h);
                for &(name, _) in attrs {
                    name.hash(h);
                }
            }
            NodeKind::Text => 2u8.hash(h),
            NodeKind::Document => 0u8.hash(h),
            NodeKind::Comment => 3u8.hash(h),
        }
    }

    /// Computes [`DocIndex::record_layout`]: position-independent
    /// subtree hashes for every node (bottom-up, one ascending rank
    /// pass), then the child run with the largest repeated coverage.
    /// `eligible_of` is the per-parent run eligibility rule
    /// ([`run_eligible`]; tests pass the original quadratic rule as an
    /// oracle).
    fn compute_record_layout(
        &self,
        eligible_of: fn(&[Option<Sym>], &[bool]) -> Vec<bool>,
    ) -> Option<RecordLayout> {
        let n = self.doc.len();
        if n < 4 {
            return None;
        }

        // Per-node subtree skeleton hash: own kind/tag/attr-names plus
        // the children's hashes in order. Composed with an open-node
        // stack so one ascending pass suffices; deliberately excludes
        // ranks and spans, so equal-looking subtrees hash equal anywhere
        // on any page.
        let mut sub = vec![0u64; n];
        let mut open: Vec<(u32, DefaultHasher)> = Vec::new();
        let close = |open: &mut Vec<(u32, DefaultHasher)>, sub: &mut Vec<u64>, upto: u32| {
            while let Some((top, _)) = open.last() {
                if self.t.subtree_end[*top as usize] > upto {
                    break;
                }
                let (t, h) = open.pop().expect("non-empty: just peeked");
                let v = h.finish();
                sub[t as usize] = v;
                if let Some((_, parent)) = open.last_mut() {
                    v.hash(parent);
                }
            }
        };
        for r in 0..n as u32 {
            close(&mut open, &mut sub, r);
            let mut h = DefaultHasher::new();
            self.hash_node_kind(r, &mut h);
            open.push((r, h));
        }
        close(&mut open, &mut sub, n as u32);

        // For every parent: mark children whose subtree hash recurs
        // among the siblings, widen to adjacent same-root-tag children
        // (a lone record variant — an optional field missing once — must
        // not split the run), and score each contiguous run by the ranks
        // its *recurring* members cover. The page-wide best run is the
        // record region; scoring by repeated coverage keeps incidental
        // repetition (nav links, `<br>` runs) from outranking the
        // listing body.
        let mut best: Option<(u64, u32, Range<usize>)> = None; // (score, parent, child range)
        let mut kids: Vec<u32> = Vec::new();
        let mut kid_tags: Vec<Option<Sym>> = Vec::new();
        for p in 0..n as u32 {
            let end = self.t.subtree_end[p as usize];
            kids.clear();
            let mut c = p + 1;
            while c < end {
                kids.push(c);
                c = self.t.subtree_end[c as usize];
            }
            if kids.len() < 2 {
                continue;
            }
            let mut counts: HashMap<u64, u32> = HashMap::new();
            for &k in &kids {
                *counts.entry(sub[k as usize]).or_insert(0) += 1;
            }
            if counts.len() == kids.len() {
                continue; // nothing recurs under this parent
            }
            let recurring: Vec<bool> = kids
                .iter()
                .map(|&k| counts[&sub[k as usize]] >= 2)
                .collect();
            kid_tags.clear();
            kid_tags.extend(kids.iter().map(|&k| self.doc.tag_sym(NodeId(k))));
            let eligible = eligible_of(&kid_tags, &recurring);
            let mut i = 0;
            while i < kids.len() {
                if !eligible[i] {
                    i += 1;
                    continue;
                }
                let mut j = i;
                while j + 1 < kids.len() && eligible[j + 1] {
                    j += 1;
                }
                let n_recurring = recurring[i..=j].iter().filter(|&&r| r).count();
                if n_recurring >= 2 {
                    let score: u64 = (i..=j)
                        .filter(|&k| recurring[k])
                        .map(|k| {
                            let kid = kids[k];
                            u64::from(self.t.subtree_end[kid as usize] - kid)
                        })
                        .sum();
                    if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
                        best = Some((score, p, i..j + 1));
                    }
                }
                i = j + 1;
            }
        }
        let (_, parent, range) = best?;

        // Rebuild the winning parent's child list and cut the run out.
        let end = self.t.subtree_end[parent as usize];
        kids.clear();
        let mut c = parent + 1;
        while c < end {
            kids.push(c);
            c = self.t.subtree_end[c as usize];
        }
        let records: Vec<RecordSpan> = kids[range]
            .iter()
            .map(|&k| RecordSpan {
                start: k,
                end: self.t.subtree_end[k as usize],
                fingerprint: sub[k as usize],
            })
            .collect();
        let run_start = records[0].start;
        let run_end = records.last().expect("≥2 records").end;
        let run_len = run_end - run_start;

        // Frame fingerprint: the whole-page fingerprint recipe with the
        // run excised and every rank/span ≥ `run_end` collapsed down by
        // the run length, plus the anchors (parent, run_start) that tell
        // a matching page *where* its own records slot back in.
        let mut h = DefaultHasher::new();
        u64::from(n as u32 - run_len).hash(&mut h);
        parent.hash(&mut h);
        run_start.hash(&mut h);
        for r in 0..n as u32 {
            if (run_start..run_end).contains(&r) {
                continue;
            }
            let e = self.t.subtree_end[r as usize];
            // A frame node's span never ends strictly inside the run:
            // prefix siblings close at or before `run_start`, ancestors
            // of the run close at or after `run_end`.
            debug_assert!(
                e <= run_start || e >= run_end,
                "frame span cuts the record run"
            );
            let collapsed = if e <= run_start { e } else { e - run_len };
            collapsed.hash(&mut h);
            self.hash_node_kind(r, &mut h);
        }

        Some(RecordLayout {
            parent,
            run_start,
            run_end,
            records,
            frame_fingerprint: h.finish(),
        })
    }

    /// The subtree of the node at `rank`, as a half-open rank range
    /// (includes the node itself at `rank`).
    #[inline]
    pub fn subtree(&self, rank: u32) -> Range<u32> {
        rank..self.t.subtree_end[rank as usize]
    }

    /// Interned tag of a node (`None` for non-elements).
    #[inline]
    pub fn tag_sym(&self, id: NodeId) -> Option<Sym> {
        self.doc.tag_sym(id)
    }

    /// Ranks of elements with the given tag, ascending.
    pub fn tag_postings(&self, sym: Sym) -> &'a [u32] {
        let tags = &self.t.tags;
        match tags.binary_search_by_key(&sym, |&(s, _)| s) {
            Ok(i) => {
                let lo = if i == 0 { 0 } else { tags[i - 1].1 };
                &self.t.tag_ranks[lo as usize..tags[i].1 as usize]
            }
            Err(_) => &[],
        }
    }

    /// Ranks of all element nodes, ascending.
    pub fn element_postings(&self) -> &'a [u32] {
        &self.t.elem_postings
    }

    /// Ranks of all text nodes, ascending.
    pub fn text_postings(&self) -> &'a [u32] {
        &self.t.text_postings
    }

    /// 1-based position among same-tag siblings (0 for non-elements and
    /// the root). Equals [`Document::same_tag_index`] where both exist.
    #[inline]
    pub fn same_tag_pos(&self, id: NodeId) -> u32 {
        self.t.pos[id.index()].0
    }

    /// 1-based position among element siblings (0 = n/a).
    #[inline]
    pub fn elem_pos(&self, id: NodeId) -> u32 {
        if self.doc.is_element(id) {
            self.t.pos[id.index()].1
        } else {
            0
        }
    }

    /// 1-based position among text-node siblings (0 = n/a).
    #[inline]
    pub fn text_pos(&self, id: NodeId) -> u32 {
        if self.doc.is_text(id) {
            self.t.pos[id.index()].1
        } else {
            0
        }
    }

    /// Attributes of a node, in document order, as `(global name symbol,
    /// per-document value id)` pairs.
    #[inline]
    pub fn attrs(&self, id: NodeId) -> &'a [(Sym, u32)] {
        self.doc.attr_pairs(id)
    }

    /// The per-document id of an attribute value, if any attribute in
    /// this document carries it. Resolve once per (step, document), then
    /// test nodes with [`DocIndex::has_attr`] — integer compares only.
    /// `None` means no node of this document can match the value.
    pub fn attr_value_id(&self, value: &str) -> Option<u32> {
        self.doc.value_id(value)
    }

    /// True if the node carries attribute `name` with exactly the value
    /// behind `value_id` (from [`DocIndex::attr_value_id`]). Integer
    /// compares only — the symbol-table route for attribute predicates
    /// ([`Document::attr`] remains the string API).
    #[inline]
    pub fn has_attr(&self, id: NodeId, name: Sym, value_id: u32) -> bool {
        self.attrs(id)
            .iter()
            .any(|&(n, v)| n == name && v == value_id)
    }

    /// The document's **structural template fingerprint**: a 64-bit
    /// hash over the pre-order tag/attribute-name skeleton (node kinds,
    /// element tags, attribute names, subtree spans), ignoring text
    /// content and attribute *values*. Computed on first use and cached
    /// in the index.
    ///
    /// Two pages rendered from one script — dealer pages of one site,
    /// say — share a fingerprint whenever their trees are identical up
    /// to the text and attribute values filled into the template, and
    /// trees *with* identical skeletons share identical pre-order rank
    /// topology: ranks, subtree spans, posting lists and sibling
    /// positions all coincide, which is what lets the batch xpath
    /// engine replay one page's bare traversals onto its template
    /// siblings (`aw_xpath::TemplateCache`).
    ///
    /// The converse is probabilistic, not exact: this is an unkeyed
    /// 64-bit hash, so two *different* skeletons can collide (≈ 2⁻⁶⁴
    /// per pair; birthday-bounded across a corpus) and equality is not
    /// verified structurally — consumers that would be corrupted by a
    /// collision rather than merely slowed must compare skeletons
    /// themselves. Only valid for comparisons within one process (tag
    /// symbols are interner-assigned).
    pub fn template_fingerprint(&self) -> u64 {
        *self
            .t
            .fingerprint
            .get_or_init(|| self.compute_fingerprint())
    }

    /// The page's **record layout**, if it has one: the contiguous run
    /// of repeated child subtrees covering the most ranks anywhere in
    /// the page — the record region of a listing page — with a
    /// fingerprint per record subtree and one for the surrounding frame.
    /// Computed on first use and cached; consumers that never ask pay
    /// nothing. The template cache asks only when a page's whole-page
    /// fingerprint misses, so exact template replays never compute it
    /// (see [`DocIndex::record_layout_computed`]).
    ///
    /// Detection is structural: per parent, children whose subtree
    /// skeleton hash recurs among their siblings form the core of a run,
    /// adjacent children with the same root tag are absorbed (a record
    /// variant occurring once — an optional field dropped — must not
    /// split the region), and runs are ranked by the rank span their
    /// *recurring* members cover. At least two records, two of which
    /// repeat, are required; `None` otherwise.
    ///
    /// Pages rendered from one listing script with *different record
    /// counts* (or per-record optional fields toggled) get different
    /// whole-page fingerprints but equal
    /// [`RecordLayout::frame_fingerprint`]s, and their per-record
    /// [`RecordSpan::fingerprint`]s match record-for-record wherever the
    /// record skeletons do — which is what lets the template cache
    /// replay a page frame and stitch record traces per matching record
    /// (`aw_xpath::TemplateCache`). Like the whole-page fingerprint,
    /// equality is probabilistic (unkeyed 64-bit hashes).
    pub fn record_layout(&self) -> Option<&'a RecordLayout> {
        self.t
            .record_layout
            .get_or_init(|| self.compute_record_layout(run_eligible))
            .as_ref()
    }

    /// Whether [`DocIndex::record_layout`] has been computed for this
    /// index yet (whatever it found). Never computes it.
    pub fn record_layout_computed(&self) -> bool {
        self.t.record_layout.get().is_some()
    }
}

impl Document {
    /// The document's evaluation index, built on first use. Cloning a
    /// document clones any already-built index.
    pub fn index(&self) -> DocIndex<'_> {
        DocIndex::new(
            self,
            self.index_cache()
                .get_or_init(|| IndexTables::from_rows(self)),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::interner::intern;
    use crate::parser::parse;
    use crate::tree_oracle::assert_index_matches_tree;
    use std::hash::BuildHasherDefault;

    #[test]
    fn poly_mul_mod_matches_wide_arithmetic() {
        let p = POLY_P as u128;
        for &(a, b) in &[
            (0u64, 0u64),
            (1, POLY_P - 1),
            (POLY_P - 1, POLY_P - 1),
            (
                0x1234_5678_9abc_def0 % POLY_P,
                0x0fed_cba9_8765_4321 % POLY_P,
            ),
            (poly_key(), poly_key()),
        ] {
            let expect = ((a as u128) * (b as u128) % p) as u64;
            assert_eq!(poly_mul_mod(a, b), expect, "a={a:#x} b={b:#x}");
        }
    }

    #[test]
    fn poly_hasher_is_split_invariant() {
        // The hash must depend on the byte stream alone, not on how
        // callers batch their `write` calls (the chunked bulk path and
        // the pending-block top-up must compose seamlessly).
        let data = b"a moderately long attribute value, 47 bytes huh";
        let whole = {
            let mut h = PolyHasher::default();
            h.write(data);
            h.finish()
        };
        for split in 0..data.len() {
            let mut h = PolyHasher::default();
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
        let mut bytewise = PolyHasher::default();
        for b in data {
            bytewise.write(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finish(), whole);
    }

    #[test]
    fn poly_hasher_separates_prefix_extensions_and_is_stable() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PolyHasher>::default();
        let h = |s: &str| build.hash_one(s);
        // Same process, same key: equal inputs agree, and the
        // trailing-byte extensions a plain `Σ b_i x^i` conflates stay
        // distinct.
        assert_eq!(h("dealerlinks"), h("dealerlinks"));
        assert_ne!(h("a"), h("a\0"));
        assert_ne!(h("a\0"), h("a\0\0"));
        assert_ne!(h(""), h("\0"));
        // Short-string sanity: all 2-byte ASCII values hash distinct
        // (collisions at this scale would mean the fold is broken, not
        // bad luck — the family's bound is 2/2^61 per pair).
        let mut seen = std::collections::HashSet::new();
        for a in 0u8..128 {
            for b in 0u8..128 {
                assert!(seen.insert(build.hash_one([a, b])), "collision at {a},{b}");
            }
        }
    }

    #[test]
    fn ranks_are_preorder_and_spans_are_contiguous() {
        let doc = parse("<div><p>a</p><p>b<i>c</i></p></div><span>d</span>");
        let idx = doc.index();
        // The parser allocates in document order: ids are ranks.
        assert!(doc.preorder_all().eq(doc.ids()));
        // Subtree span of any node covers exactly its preorder descendants.
        for id in doc.ids() {
            let via_span: Vec<NodeId> = idx.subtree(id.0).map(NodeId).collect();
            let via_walk: Vec<NodeId> = doc.preorder(id).collect();
            assert_eq!(via_span, via_walk, "span of {id:?}");
        }
    }

    #[test]
    fn posting_lists_are_sorted_and_complete() {
        let doc =
            parse("<table><tr><td>1</td><td>2</td></tr><tr><td>3</td></tr></table><td>stray</td>");
        let idx = doc.index();
        let td = intern("td");
        let tds = idx.tag_postings(td);
        assert_eq!(tds.len(), 4);
        assert!(tds.windows(2).all(|w| w[0] < w[1]));
        for &r in tds {
            assert_eq!(doc.tag(NodeId(r)), Some("td"));
        }
        // Every element is in exactly one tag posting list.
        let total: usize = ["table", "tr", "td"]
            .iter()
            .map(|t| idx.tag_postings(intern(t)).len())
            .sum();
        assert_eq!(total, idx.element_postings().len());
        assert_eq!(idx.text_postings().len(), 4);
        assert_eq!(idx.tag_postings(intern("never-a-tag-xq")), &[] as &[u32]);
    }

    #[test]
    fn cached_positions_match_document_queries() {
        let doc = parse("<tr><td>a</td><span>x</span><td>b</td>tail<td>c</td></tr>");
        let idx = doc.index();
        for id in doc.ids() {
            if doc.is_element(id) {
                assert_eq!(
                    idx.same_tag_pos(id) as usize,
                    doc.same_tag_index(id).unwrap_or(0),
                    "same-tag position of {id:?}"
                );
            }
        }
        // Element and text positions count their own kinds only.
        let tr = doc.children(NodeId::ROOT)[0];
        let kids = doc.children(tr);
        assert_eq!(idx.elem_pos(kids[0]), 1); // td a
        assert_eq!(idx.elem_pos(kids[1]), 2); // span
        assert_eq!(idx.elem_pos(kids[2]), 3); // td b
        assert_eq!(idx.text_pos(kids[3]), 1); // "tail"
        assert_eq!(idx.elem_pos(kids[4]), 4); // td c
        assert_eq!(idx.same_tag_pos(kids[4]), 3); // third td
    }

    #[test]
    fn attribute_table_roundtrips() {
        let doc = parse("<div class='content' id='main'><p class='x'>t</p></div>");
        let idx = doc.index();
        let div = doc.children(NodeId::ROOT)[0];
        let p = doc.children(div)[0];
        let vid = |v: &str| {
            idx.attr_value_id(v)
                .unwrap_or_else(|| panic!("value {v} indexed"))
        };
        assert!(idx.has_attr(div, intern("class"), vid("content")));
        assert!(idx.has_attr(div, intern("id"), vid("main")));
        assert!(!idx.has_attr(div, intern("class"), vid("x")));
        assert!(idx.has_attr(p, intern("class"), vid("x")));
        assert_eq!(idx.attr_value_id("absent-value"), None);
        assert_eq!(idx.attrs(div).len(), 2);
        assert_eq!(idx.attrs(p).len(), 1);
        let text = doc.children(p)[0];
        assert!(idx.attrs(text).is_empty());
    }

    #[test]
    fn attribute_values_are_not_globally_interned() {
        // Unbounded per-crawl vocabularies (hrefs, ids) must stay out of
        // the leaked process-global table.
        let value = "https://example.test/page-a41f9c02?token=unique";
        let doc = parse(&format!("<a href='{value}'>x</a>"));
        assert!(doc.index().attr_value_id(value).is_some());
        assert_eq!(
            crate::interner::lookup(value),
            None,
            "value leaked into global interner"
        );
    }

    #[test]
    fn empty_document_indexes() {
        let d = Document::default();
        let idx = d.index();
        assert!(idx.element_postings().is_empty());
        assert!(idx.text_postings().is_empty());
    }

    fn fp(html: &str) -> u64 {
        parse(html).index().template_fingerprint()
    }

    #[test]
    fn fingerprint_ignores_text_and_attribute_values() {
        // Two renderings of one template: same skeleton, different text
        // and attribute values.
        let a = fp("<div class='list'><tr><td><u>ALPHA</u><br>1 Elm</td></tr></div>");
        let b = fp("<div class='grid'><tr><td><u>OMEGA STORES</u><br>99 Oak Ave</td></tr></div>");
        assert_eq!(
            a, b,
            "text/value-only differences must not change the fingerprint"
        );
    }

    #[test]
    fn fingerprint_detects_structural_mutations() {
        let base = fp("<div class='l'><td><u>A</u></td></div>");
        // Different tag.
        assert_ne!(base, fp("<div class='l'><td><b>A</b></td></div>"));
        // Different attribute *name* (values are ignored, names are not).
        assert_ne!(base, fp("<div id='l'><td><u>A</u></td></div>"));
        // Extra attribute.
        assert_ne!(base, fp("<div class='l' id='x'><td><u>A</u></td></div>"));
        // An added text node is a structural change, not a text edit.
        assert_ne!(base, fp("<div class='l'><td><u>A</u>tail</td></div>"));
        // An added element.
        assert_ne!(base, fp("<div class='l'><td><u>A</u><br></td></div>"));
    }

    #[test]
    fn fingerprint_classifies_comments_apart_from_text() {
        // The lazy computation reconstructs node kinds from the index's
        // own tables; comments (in neither posting list) must neither
        // alias text nodes nor disappear.
        let comment = fp("<div><!--note--></div>");
        let text = fp("<div>note</div>");
        let empty = fp("<div></div>");
        assert_ne!(comment, text);
        assert_ne!(comment, empty);
        // Comment *content* is ignored like text content.
        assert_eq!(comment, fp("<div><!--other words--></div>"));
    }

    #[test]
    fn fingerprint_distinguishes_tree_shape_not_just_preorder_sequence() {
        // Both documents list div, p, span in pre-order; only the nesting
        // differs. Subtree spans must separate them.
        let nested = fp("<div><p><span>x</span></p></div>");
        let flat = fp("<div><p></p><span>x</span></div>");
        assert_ne!(nested, flat);
    }

    /// A listing-shaped page: chrome (nav, heading, footer) around a
    /// container of repeated records; `phones` toggles the optional
    /// trailing field per record.
    fn listing(n_records: usize, phones: &[bool]) -> Document {
        let mut html = String::from(
            "<div class='nav'><a href='/a'>A</a><a href='/b'>B</a></div><h1>Dealers</h1>\
             <table class='stores'>",
        );
        for i in 0..n_records {
            html.push_str(&format!("<tr><td><u>NAME {i}</u><br>{i} Elm St</td>"));
            if phones.get(i).copied().unwrap_or(true) {
                html.push_str(&format!("<td>555-000{i}</td>"));
            }
            html.push_str("</tr>");
        }
        html.push_str("</table><div class='foot'>contact</div>");
        parse(&html)
    }

    #[test]
    fn record_layout_detects_the_listing_run() {
        let doc = listing(3, &[true, true, true]);
        let idx = doc.index();
        let layout = idx.record_layout().expect("repeated records detected");
        assert_eq!(layout.records.len(), 3);
        // The parent is the <table class='stores'> container.
        assert_eq!(doc.tag(NodeId(layout.parent)), Some("table"));
        // Records tile the run exactly and carry one shared fingerprint.
        assert_eq!(layout.records[0].start, layout.run_start);
        assert_eq!(layout.records.last().unwrap().end, layout.run_end);
        for w in layout.records.windows(2) {
            assert_eq!(w[0].end, w[1].start, "records must tile the run");
            assert_eq!(
                w[0].fingerprint, w[1].fingerprint,
                "identical records hash equal"
            );
        }
        for rec in &layout.records {
            assert_eq!(doc.tag(NodeId(rec.start)), Some("tr"));
        }
    }

    #[test]
    fn record_layout_absorbs_a_singleton_variant() {
        // The middle record misses its optional field: its subtree hash
        // occurs once, but the same root tag keeps it inside the run.
        let doc = listing(3, &[true, false, true]);
        let layout = doc.index().record_layout().expect("layout");
        assert_eq!(layout.records.len(), 3, "variant must not split the run");
        assert_eq!(layout.records[0].fingerprint, layout.records[2].fingerprint);
        assert_ne!(layout.records[0].fingerprint, layout.records[1].fingerprint);
    }

    #[test]
    fn frame_fingerprint_is_shared_across_record_counts() {
        let a = listing(2, &[true, true]);
        let b = listing(5, &[true; 5]);
        let (la, lb) = (
            a.index().record_layout().unwrap().clone(),
            b.index().record_layout().unwrap().clone(),
        );
        assert_ne!(
            a.index().template_fingerprint(),
            b.index().template_fingerprint(),
            "whole-page fingerprints must differ across counts"
        );
        assert_eq!(
            la.frame_fingerprint, lb.frame_fingerprint,
            "frames must match across counts"
        );
        assert_eq!(la.run_start, lb.run_start);
        // Records hash identically across pages (position-independent).
        assert_eq!(la.records[0].fingerprint, lb.records[4].fingerprint);
        // A phone-less variant on another page still matches its twin.
        let c = listing(4, &[true, false, true, false]);
        let lc = c.index().record_layout().unwrap();
        assert_eq!(la.frame_fingerprint, lc.frame_fingerprint);
        assert_eq!(lc.records[1].fingerprint, lc.records[3].fingerprint);
        assert_eq!(lc.records[0].fingerprint, la.records[0].fingerprint);
    }

    #[test]
    fn frame_fingerprint_tracks_chrome_changes() {
        let base = listing(3, &[true; 3]);
        // Same records, different chrome: an extra nav link.
        let other = parse(
            &crate::serialize(&base).replace("<h1>Dealers</h1>", "<h1>Dealers</h1><p>promo</p>"),
        );
        let (lb, lo) = (
            base.index().record_layout().unwrap().clone(),
            other.index().record_layout().unwrap().clone(),
        );
        assert_ne!(lb.frame_fingerprint, lo.frame_fingerprint);
    }

    #[test]
    fn record_layout_requires_repetition() {
        assert!(parse("<div><p>a</p><span>b</span><h1>c</h1></div>")
            .index()
            .record_layout()
            .is_none());
        assert!(parse("<p>only</p>").index().record_layout().is_none());
        assert!(Document::default().index().record_layout().is_none());
    }

    /// Every page of a small sitegen corpus (DEALERS, DISC, PRODUCTS and
    /// one template evolution), as HTML.
    pub(crate) fn sitegen_corpus() -> Vec<String> {
        let mut sites = Vec::new();
        sites.extend(aw_sitegen::generate_dealers(&aw_sitegen::DealersConfig::small(6, 3)).sites);
        sites.extend(aw_sitegen::generate_disc(&aw_sitegen::DiscConfig::small(3, 5)).sites);
        sites.extend(aw_sitegen::generate_products(&aw_sitegen::ProductsConfig::small(3, 7)).sites);
        let mut pages: Vec<String> = sites
            .iter()
            .flat_map(|gs| {
                (0..gs.site.page_count() as u32).map(|p| gs.site.serialized(p).html.clone())
            })
            .collect();
        for epoch in &aw_sitegen::TemplateEvolution::small(11).run().epochs {
            pages.extend(aw_sitegen::epoch_html(epoch));
        }
        pages
    }

    /// Seeded markup soup biased towards repeated siblings: runs of
    /// identical and near-identical children, singleton variants, stray
    /// and unclosed tags, so many parents hold a candidate record run.
    fn record_soup(rng: &mut rand::rngs::StdRng) -> String {
        use rand::Rng;
        const PIECES: &[&str] = &[
            "<tr><td>a</td><td>b</td></tr>",
            "<tr><td>a</td></tr>",
            "<li>x</li>",
            "<li class='k'>x</li>",
            "<li><b>y</b></li>",
            "<br>",
            "<i a1></i>",
            "<i a2></i>",
            "<p>t</p>",
            "<div>",
            "</div>",
            "<table>",
            "</table>",
            "<ul>",
            "</ul>",
            "text",
            "<!-- c -->",
            "</p>",
        ];
        let n = rng.gen_range(0..120);
        (0..n)
            .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
            .collect()
    }

    #[test]
    fn linear_run_eligibility_matches_the_quadratic_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let syms: Vec<Option<Sym>> = vec![
            None,
            Some(intern("tr")),
            Some(intern("li")),
            Some(intern("br")),
        ];
        for _ in 0..2000 {
            let n = rng.gen_range(0..40);
            let tags: Vec<Option<Sym>> =
                (0..n).map(|_| syms[rng.gen_range(0..syms.len())]).collect();
            let recurring: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            assert_eq!(
                run_eligible(&tags, &recurring),
                run_eligible_quadratic(&tags, &recurring),
                "tags {tags:?} recurring {recurring:?}"
            );
        }

        let mut pages = sitegen_corpus();
        let with_layout = pages
            .iter()
            .filter(|h| parse(h).index().record_layout().is_some())
            .count();
        assert!(
            with_layout * 2 > pages.len(),
            "corpus must mostly hold listing pages ({with_layout}/{})",
            pages.len()
        );
        pages.extend((0..500).map(|_| record_soup(&mut rng)));
        for html in &pages {
            let doc = parse(html);
            let idx = doc.index();
            assert_eq!(
                idx.record_layout().cloned(),
                idx.compute_record_layout(run_eligible_quadratic),
                "layout differs from the quadratic oracle on {html:?}"
            );
        }
    }

    #[test]
    fn record_layout_is_linear_in_sibling_count() {
        // 40 000 recurring `<br>`s interleaved with 40 000 one-off
        // `<i aN>`s under one parent: the quadratic rule scanned every
        // `<br>` tag once per `<i>` (≈1.2 s in release builds, ≈12 s in
        // debug builds); the linear one takes about 12 ms in release.
        let mut html = String::from("<div>");
        for i in 0..40_000 {
            html.push_str(&format!("<br><i a{i}></i>"));
        }
        html.push_str("</div>");
        let doc = parse(&html);
        let idx = doc.index();
        let bound_ms = if cfg!(debug_assertions) { 1000 } else { 100 };
        let start = std::time::Instant::now();
        let layout = idx.record_layout();
        let elapsed = start.elapsed();
        assert!(layout.is_none(), "no two adjacent recurring records");
        assert!(
            elapsed.as_millis() < bound_ms,
            "record layout over 80 000 siblings took {elapsed:?} (bound {bound_ms} ms)"
        );
    }

    #[test]
    fn record_layout_prefers_the_widest_repeated_region() {
        // Both the nav links and the records repeat; the records cover
        // more ranks, so they win.
        let doc = listing(2, &[true, true]);
        let idx = doc.index();
        let layout = idx.record_layout().unwrap();
        assert_eq!(doc.tag(NodeId(layout.records[0].start)), Some("tr"));
    }

    /// Asserts two documents of one tree hold equal index tables, node
    /// for node, and that both agree with their trees.
    fn assert_same_tables(a: &Document, b: &Document) {
        assert_index_matches_tree(a);
        assert_index_matches_tree(b);
        let (ai, bi) = (a.index(), b.index());
        assert_eq!(a.len(), b.len());
        assert_eq!(ai.element_postings(), bi.element_postings());
        assert_eq!(ai.text_postings(), bi.text_postings());
        for x in a.ids() {
            assert_eq!(ai.subtree(x.0), bi.subtree(x.0), "span of {x:?}");
            assert_eq!(a.kind(x), b.kind(x));
            assert_eq!(a.text(x), b.text(x));
            assert_eq!(ai.tag_sym(x), bi.tag_sym(x));
            assert_eq!(ai.same_tag_pos(x), bi.same_tag_pos(x));
            assert_eq!(ai.elem_pos(x), bi.elem_pos(x));
            assert_eq!(ai.text_pos(x), bi.text_pos(x));
            assert!(a.attributes(x).eq(b.attributes(x)));
            assert_eq!(ai.attrs(x), bi.attrs(x));
            for (&(name, _), (_, value)) in ai.attrs(x).iter().zip(a.attributes(x)) {
                let vid = ai.attr_value_id(value).expect("value indexed");
                assert!(ai.has_attr(x, name, vid));
            }
            if let Some(sym) = ai.tag_sym(x) {
                assert_eq!(ai.tag_postings(sym), bi.tag_postings(sym));
            }
        }
        assert_eq!(ai.template_fingerprint(), bi.template_fingerprint());
        assert_eq!(ai.record_layout(), bi.record_layout());
    }

    #[test]
    fn classic_and_streamed_tables_agree_on_the_sitegen_corpus() {
        // Every page of the dealers, disc and products generators (and a
        // template evolution), parsed classically, round-trips through
        // `serialize` → `parse_indexed` to the same tree, tables,
        // fingerprint and record layout.
        for html in &sitegen_corpus() {
            let parsed = parse(html);
            assert!(parsed.preorder_all().eq(parsed.ids()));
            let html = crate::serialize(&parsed);
            let streamed = crate::parse_indexed(&html);
            assert_eq!(crate::serialize(&streamed), html);
            assert_same_tables(&parsed, &streamed);
        }
    }
}
