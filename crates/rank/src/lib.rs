//! # aw-rank — the ranking model of §6
//!
//! Scores every enumerated wrapper by `P(L | X) · P(X)` (Equation 1):
//!
//! * [`annotation`] — the noisy-annotation likelihood `P(L | X)`
//!   (Equation 4), parameterized by the annotator's `(p, r)`;
//! * [`segmentation`] — record segmentation by pre-order traversal between
//!   consecutive extraction boundaries (Figure 7);
//! * [`publication`] — the list-goodness prior `P(X)` from the schema-size
//!   and alignment features with KDE-learned distributions (§6.1);
//! * [`scorer`] — the combined model plus the NTW-L / NTW-X ablation
//!   variants of §7.3.
//!
//! `P(X)` is computed on symbols: a site's pages become one `u32` token
//! stream ([`SiteTokens`]: tag symbols, one reserved id for text), built
//! once per ranking call and shared by every candidate; a candidate's
//! segments are ranges into it, and the alignment kernels of `aw-align`
//! compare integers in reused rows. The kernels run once per distinct
//! ordered pair of segment contents (a real list's records mostly repeat
//! a few shapes), and the pair values stay on the stack. Scoring a
//! candidate therefore allocates its segment ranges and two rows, not a
//! string per token, and its features are bit-identical to the
//! all-pairs string-token formulation (a test-only oracle holds them to
//! it).
//!
//! Applications reach this crate through `aw_core::Engine`
//! (`engine.rank`, `engine.learn_sites`), which scores the extractions
//! enumeration produced with [`RankingModel::score_with`] over one stream
//! per site ([`RankingModel::score`] builds the stream for a single
//! call). [`batch`] keeps [`score_xpath_spaces`], a per-site batch
//! re-evaluation of rendered xpath candidates, as the reference those
//! extractions are checked against.

pub mod annotation;
pub mod batch;
#[cfg(test)]
mod oracle;
pub mod publication;
pub mod scorer;
pub mod segmentation;

pub use annotation::{estimate_from_counts, AnnotatorModel};
pub use batch::{score_xpath_spaces, SiteSpace};
pub use publication::{
    list_features, list_features_pinned, KernelOverride, ListFeatures, PublicationModel,
};
pub use scorer::{RankingMode, RankingModel, WrapperScore};
pub use segmentation::{
    segment_site, segment_site_typed, Segment, Segments, SiteTokens, TEXT_TOKEN,
};
