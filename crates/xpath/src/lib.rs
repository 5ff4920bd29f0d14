//! # aw-xpath — the xpath fragment used by the XPATH wrapper language
//!
//! Implements the simple xpath fragment of Dalvi et al. (SIGMOD 2009) that
//! §5 of *Automatic Wrappers for Large Scale Web Extraction* (VLDB 2011)
//! adopts as one of its two wrapper languages.
//!
//! ## Fragment semantics
//!
//! A path is a sequence of location steps, always absolute (anchored at
//! the synthetic document root):
//!
//! * **`/test`** (child axis) selects the matching children of each
//!   context node; **`//test`** (descendant axis) selects all matching
//!   descendants, the context node excluded;
//! * a **node test** is a tag name (`td`), the element wildcard (`*`) or
//!   `text()`;
//! * **`[@name='value']`** keeps nodes carrying exactly that attribute
//!   value (never matches text nodes);
//! * **`[k]`** (child-number filter) keeps a node iff it is the k-th
//!   child of its parent *among siblings matching the step's node test* —
//!   `td[2]` is the second `td` child (paper Equation 3), `text()[2]` the
//!   second text-node child (the extension separating `<br>`-delimited
//!   record fields);
//! * predicates conjoin in source order; results are deduplicated and
//!   returned in document order.
//!
//! ## Engines
//!
//! Three implementations share those semantics, byte-for-byte:
//!
//! * [`reference::evaluate`] — the tree-walking interpreter, kept as the
//!   differential-testing oracle (`tests/xpath_differential.rs` holds the
//!   others to it on thousands of random (page, path) pairs);
//! * [`evaluate_compiled`] — evaluates a [`CompiledXPath`] (tags and
//!   attribute names resolved to interned [`aw_dom::Sym`]s) against the
//!   document's [`aw_dom::DocIndex`]: `//` steps become posting-list
//!   range probes over subtree spans, `[k]` filters read precomputed
//!   sibling positions, attribute checks compare the name symbol and the
//!   document's own id for the value;
//! * [`BatchEvaluator`] — evaluates a whole candidate set (the wrapper
//!   space `W(L)` of §4) at once: compiled steps are arranged in a
//!   predicate-aware prefix trie so every shared prefix is evaluated once
//!   per page (steps differing only in `[k]`/`[@a='v']` predicates share
//!   one traversal and fan out integer-only filters), and each
//!   intermediate context node-set is reused by all candidates below it.
//!
//! A multi-site candidate set gets one [`BatchEvaluator`] per site, each
//! applied only to its own site's pages (prefix sharing is strongest
//! within a site's space, and a wrapper learned on one site never runs on
//! another's pages); pages are independent, so callers map them through
//! the shared work-stealing `aw_pool::Executor`. Every
//! [`BatchEvaluator`] keeps a cross-page [`TemplateCache`]: pages sharing
//! a structural template fingerprint
//! ([`aw_dom::DocIndex::template_fingerprint`]) replay one page's bare
//! traversals instead of recomputing them — the template-replay fast
//! path for structurally near-identical pages of one site.
//!
//! All engines work in pre-order rank space, and a node's rank is its
//! [`aw_dom::NodeId`] index: documents are built in document order.
//!
//! [`evaluate`] is the one-shot convenience (compile + indexed evaluate).
//! Use [`CompiledXPath::compile`] + [`evaluate_compiled`] to apply one
//! rule to many pages, and [`BatchEvaluator`] for many rules.
//!
//! ```
//! use aw_dom::parse;
//! use aw_xpath::{evaluate, parse_xpath, BatchEvaluator};
//!
//! let doc = parse("<div class='dealerlinks'><tr><td><u>PORTER FURNITURE</u>\
//!                  </td></tr></div>");
//! let rule = parse_xpath("//div[@class='dealerlinks']/tr/td/u/text()").unwrap();
//! let names: Vec<&str> = evaluate(&rule, &doc)
//!     .into_iter()
//!     .filter_map(|id| doc.text(id))
//!     .collect();
//! assert_eq!(names, vec!["PORTER FURNITURE"]);
//!
//! // Batch: both rules share the `//div[..]/tr/td` prefix — it is
//! // evaluated once.
//! let wide = parse_xpath("//div[@class='dealerlinks']/tr/td//text()").unwrap();
//! let batch = BatchEvaluator::from_xpaths([&rule, &wide]);
//! let results = batch.evaluate(&doc);
//! assert_eq!(results[0].len(), 1);
//! assert_eq!(results[1].len(), 1);
//! ```

pub mod ast;
pub mod batch;
pub mod compile;
pub mod eval;
pub mod indexed;
pub mod parser;
pub mod reference;

pub use ast::{Axis, NodeTest, Predicate, Step, XPath};
pub use batch::{BatchEvaluator, ReplayStats, TemplateCache};
pub use compile::{CompiledPred, CompiledStep, CompiledTest, CompiledXPath};
pub use eval::evaluate;
pub use indexed::evaluate_compiled;
pub use parser::{parse_xpath, ParseError};
