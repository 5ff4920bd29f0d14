//! The index-backed evaluation engine.
//!
//! Operates entirely in **pre-order rank space** over a
//! [`aw_dom::DocIndex`] (a node's rank is its `NodeId` index):
//!
//! * `//tag` steps intersect the tag's posting list with the context
//!   nodes' subtree rank ranges (binary search per range — no tree walk);
//! * `/tag` steps scan each context node's child list comparing interned
//!   symbols (no string compares);
//! * `[k]` predicates read the precomputed sibling-position arrays;
//! * `[@a='v']` predicates resolve the value to the document's own
//!   value id once per step, then compare `(name symbol, value id)`
//!   integer pairs per node.
//!
//! Results are identical to [`crate::reference::evaluate`] — enforced by
//! unit tests here and the differential property suite in
//! `tests/xpath_differential.rs`.

use crate::compile::{CompiledPred, CompiledTest, CompiledXPath};
use aw_dom::{DocIndex, Document, NodeId, Sym};

/// Evaluates a compiled path, returning matching nodes in document order.
pub fn evaluate_compiled(path: &CompiledXPath, doc: &Document) -> Vec<NodeId> {
    let idx = doc.index();
    // The context and the next step's nodes trade buffers after every
    // step, and each step resolves its predicates into the same buffer.
    let (mut ctx, mut next, mut preds) = (vec![doc.root().0], Vec::new(), Vec::new());
    for step in &path.steps {
        next.clear();
        // An unresolved predicate names a value absent from this
        // document: the step selects nothing.
        if resolve_preds_into(idx, &step.predicates, &mut preds) {
            apply_step_with(doc, idx, &ctx, step.axis, &step.test, &preds, &mut next);
        }
        std::mem::swap(&mut ctx, &mut next);
        if ctx.is_empty() {
            break;
        }
    }
    materialize(&ctx)
}

/// Converts a rank-space node set into `NodeId`s in document order (the
/// reference interpreter's output order).
///
/// `ranks` must be ascending — every engine-side node set is (steps,
/// trie fan-outs and template-cache traces all preserve rank order) —
/// and ranks are ids, so the mapped `NodeId`s come out sorted.
/// Template-cache replay materializes every cached set through here.
pub(crate) fn materialize(ranks: &[u32]) -> Vec<NodeId> {
    debug_assert!(
        ranks.windows(2).all(|w| w[0] < w[1]),
        "materialize expects an ascending rank set"
    );
    ranks.iter().map(|&r| NodeId(r)).collect()
}

/// A step's predicates resolved against one document, so the per-node
/// check is integer compares only: attribute values map to the
/// document's own value ids (`DocIndex::attr_value_id`), computed once
/// per (step, document) instead of once per candidate node.
pub(crate) enum ResolvedPred {
    /// `[@name='v']` where `v` exists in this document as `value_id`.
    Attr { name: Sym, value_id: u32 },
    /// `[k]` against the position array the step's test selects.
    Position(u64),
}

/// `None` means some attribute predicate's value occurs nowhere in the
/// document — the step can't select anything.
pub(crate) fn resolve_preds(
    idx: DocIndex<'_>,
    predicates: &[CompiledPred],
) -> Option<Vec<ResolvedPred>> {
    let mut resolved = Vec::with_capacity(predicates.len());
    resolve_preds_into(idx, predicates, &mut resolved).then_some(resolved)
}

/// [`resolve_preds`] into `out`, replacing its contents; false where
/// [`resolve_preds`] gives `None`.
fn resolve_preds_into(
    idx: DocIndex<'_>,
    predicates: &[CompiledPred],
    out: &mut Vec<ResolvedPred>,
) -> bool {
    out.clear();
    for pred in predicates {
        out.push(match pred {
            CompiledPred::Attr { name, value } => match idx.attr_value_id(value) {
                Some(value_id) => ResolvedPred::Attr {
                    name: *name,
                    value_id,
                },
                None => return false,
            },
            CompiledPred::Position(k) => ResolvedPred::Position(*k),
        });
    }
    true
}

/// Applies an `(axis, test)` pair with pre-resolved predicates checked
/// **during** collection (no intermediate bare node-set) — the fused
/// path for single steps and single-variant trie nodes. Appends to an
/// empty `out`.
pub(crate) fn apply_step_with(
    doc: &Document,
    idx: DocIndex<'_>,
    context: &[u32],
    axis: crate::ast::Axis,
    test: &CompiledTest,
    preds: &[ResolvedPred],
    out: &mut Vec<u32>,
) {
    step_nodes(doc, idx, context, axis, test, out, |id| {
        passes_resolved(idx, id, test, preds)
    });
}

/// Applies a step's (axis, test) pair with **no predicates** — the shared
/// part that predicate variants of a batch-trie node fan out from.
pub(crate) fn apply_step_bare(
    doc: &Document,
    idx: DocIndex<'_>,
    context: &[u32],
    axis: crate::ast::Axis,
    test: &CompiledTest,
) -> Vec<u32> {
    let mut out = Vec::new();
    step_nodes(doc, idx, context, axis, test, &mut out, |_| true);
    out
}

/// Keeps the ranks whose nodes pass every resolved predicate (the
/// integer-only fan-out check applied per trie variant).
pub(crate) fn filter_resolved(
    idx: DocIndex<'_>,
    test: &CompiledTest,
    preds: &[ResolvedPred],
    ranks: &[u32],
) -> Vec<u32> {
    ranks
        .iter()
        .copied()
        .filter(|&r| passes_resolved(idx, NodeId(r), test, preds))
        .collect()
}

/// The axis/test traversal shared by [`apply_step_with`] (predicate
/// check inlined) and [`apply_step_bare`] (`keep` ≡ true, monomorphized
/// away); appends to an empty `out`.
fn step_nodes(
    doc: &Document,
    idx: DocIndex<'_>,
    context: &[u32],
    axis: crate::ast::Axis,
    test: &CompiledTest,
    out: &mut Vec<u32>,
    keep: impl Fn(NodeId) -> bool,
) {
    match axis {
        crate::ast::Axis::Child => {
            for &r in context {
                for &c in doc.children(NodeId(r)) {
                    if matches_test(doc, idx, c, test) && keep(c) {
                        out.push(c.0);
                    }
                }
            }
            // Context nodes can be nested (after a `//` step), so child
            // blocks may interleave in rank space.
            out.sort_unstable();
            out.dedup();
        }
        crate::ast::Axis::Descendant => {
            let postings = postings_for(idx, test);
            // Merge subtree ranges first: context is sorted by rank, and
            // tree ranges either nest or are disjoint, so any range that
            // starts before the running end is fully contained.
            let mut end = 0u32;
            for &r in context {
                let span = idx.subtree(r);
                if span.end <= end {
                    continue; // nested inside an earlier context node
                }
                let lo = (r + 1).max(end); // exclude the context node itself
                end = span.end;
                let from = postings.partition_point(|&p| p < lo);
                let to = postings.partition_point(|&p| p < span.end);
                for &p in &postings[from..to] {
                    // Posting-list membership already established the
                    // node test.
                    if keep(NodeId(p)) {
                        out.push(p);
                    }
                }
            }
            // Posting lists are ascending and merged ranges are disjoint,
            // so `out` is already sorted and deduplicated.
        }
    }
}

pub(crate) fn postings_for<'i>(idx: DocIndex<'i>, test: &CompiledTest) -> &'i [u32] {
    match test {
        CompiledTest::Tag(sym) => idx.tag_postings(*sym),
        CompiledTest::AnyElement => idx.element_postings(),
        CompiledTest::Text => idx.text_postings(),
    }
}

fn matches_test(doc: &Document, idx: DocIndex<'_>, id: NodeId, test: &CompiledTest) -> bool {
    match *test {
        CompiledTest::Tag(sym) => idx.tag_sym(id) == Some(sym),
        CompiledTest::AnyElement => doc.is_element(id),
        CompiledTest::Text => doc.is_text(id),
    }
}

fn passes_resolved(
    idx: DocIndex<'_>,
    id: NodeId,
    test: &CompiledTest,
    preds: &[ResolvedPred],
) -> bool {
    preds.iter().all(|pred| match *pred {
        ResolvedPred::Attr { name, value_id } => idx.has_attr(id, name, value_id),
        ResolvedPred::Position(k) => {
            let pos = match test {
                CompiledTest::Tag(_) => idx.same_tag_pos(id),
                CompiledTest::AnyElement => idx.elem_pos(id),
                CompiledTest::Text => idx.text_pos(id),
            };
            u64::from(pos) == k
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xpath;
    use crate::reference;
    use aw_dom::parse;

    fn both(doc: &Document, xp: &str) -> (Vec<NodeId>, Vec<NodeId>) {
        let ast = parse_xpath(xp).unwrap();
        let compiled = CompiledXPath::compile(&ast);
        (
            reference::evaluate(&ast, doc),
            evaluate_compiled(&compiled, doc),
        )
    }

    #[test]
    fn agrees_with_reference_on_fragment_shapes() {
        let doc = parse(
            "<div class='content'>\
               <table><tr><td>r1c1</td><td>r1c2</td></tr>\
                      <tr><td>r2c1</td><td>r2c2</td></tr></table>\
               <table><tr><td>z1</td><td>z2</td></tr></table>\
             </div>\
             <div class='footer'><td>f</td>tail</div>",
        );
        for xp in [
            "//div[@class='content']/table[1]/tr/td[2]/text()",
            "//td/text()",
            "//div//text()",
            "//div//td",
            "/div/table/tr/td",
            "//*",
            "//table[2]/tr/td[1]/text()",
            "//div[@class='footer']/text()",
            "//td[7]",
            "//div/*",
            "//div//*[1]",
            "//text()[1]",
            "/text()",
        ] {
            let (r, i) = both(&doc, xp);
            assert_eq!(r, i, "mismatch for {xp}");
        }
    }

    #[test]
    fn nested_context_descendants_dedupe() {
        // `//div//p`: the inner p is a descendant of both divs; subtree
        // merging must not double-count it.
        let doc = parse("<div><div><p>x</p></div></div>");
        let (r, i) = both(&doc, "//div//p");
        assert_eq!(r, i);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_document_evaluates_to_nothing() {
        let doc = Document::default();
        let compiled = CompiledXPath::compile(&parse_xpath("//td").unwrap());
        assert!(evaluate_compiled(&compiled, &doc).is_empty());
    }

    #[test]
    fn oversized_positions_do_not_wrap() {
        // Regression: positions beyond u32 once truncated during
        // compilation, making `[2^32 + 1]` match position 1.
        let doc = parse("<p>a</p><p>b</p>");
        let k = (u32::MAX as usize) + 2; // wraps to 1 under truncation
        let xp = parse_xpath(&format!("//p[{k}]")).unwrap();
        assert!(reference::evaluate(&xp, &doc).is_empty());
        assert!(evaluate_compiled(&CompiledXPath::compile(&xp), &doc).is_empty());
    }

    #[test]
    fn empty_path_returns_root() {
        let doc = parse("<p>x</p>");
        let compiled = CompiledXPath::default();
        assert_eq!(evaluate_compiled(&compiled, &doc), vec![doc.root()]);
    }
}
