//! # aw-induct — wrapper inductors
//!
//! The supervised wrapper-induction algorithms that the noise-tolerant
//! framework (VLDB 2011, §3–§5) wraps as blackboxes:
//!
//! * [`table::TableInductor`] — the paper's didactic running example
//!   (Example 1), used as the reference implementation for the
//!   enumeration theorems;
//! * [`table_dom::DomTableInductor`] — the same TABLE language grounded
//!   in real DOM pages (`<tr>`/`<td>` grid coordinates), with a portable
//!   [`table_dom::TableRule`];
//! * [`lr::LrInductor`] — the LR class of the WIEN system (Kushmerick et
//!   al.): longest common prefix/suffix delimiter pairs over the page
//!   character stream;
//! * [`hlrt::HlrtInductor`] — WIEN's HLRT extension with head/tail region
//!   delimiters;
//! * [`xpath_ind::XPathInductor`] — the xpath learner of Dalvi et al.
//!   (SIGMOD 2009), implemented in its feature-based form (§5).
//!
//! All inductors implement [`WrapperInductor`] (the blackbox interface of
//! §4: `extract = φ`) and, where the paper shows it possible, the
//! [`FeatureBased`] interface that unlocks the optimal `TopDown`
//! enumeration (§4.2).
//!
//! None of them builds a feature space (§5: a feature-based inductor "does
//! not need to construct the feature space, as long as we can efficiently
//! implement subdivision"). Building an inductor is free: LR and HLRT
//! read label contexts out of the site's serialized pages, and XPATH
//! computes a label's ancestor features the first time it is asked about
//! and evaluates each learned xpath with `aw_xpath::evaluate_compiled`,
//! which tests check against the serving `BatchEvaluator`. `attributes`
//! and `subdivision` read labels only, so their cost follows the labels,
//! not the size or depth of the pages.

pub mod hlrt;
pub mod lr;
pub mod site;
pub mod table;
pub mod table_dom;
pub mod traits;
pub mod xpath_ind;

pub use hlrt::{HlrtInductor, HlrtRule};
pub use lr::{LrInductor, LrRule};
pub use site::Site;
pub use table::{Cell, TableInductor};
pub use table_dom::{DomTableInductor, TableRule};
pub use traits::{check_well_behaved, FeatureBased, ItemSet, WellBehavedReport, WrapperInductor};
pub use xpath_ind::XPathInductor;

/// The node-set type used throughout the framework: an ordered set of
/// [`aw_dom::PageNode`]s.
pub type NodeSet = ItemSet<aw_dom::PageNode>;
