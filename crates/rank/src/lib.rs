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
//! Applications reach this crate through `aw_core::Engine`
//! (`engine.rank`, `engine.learn_sites`), which scores the extractions
//! enumeration produced with [`RankingModel::score`]. [`batch`] keeps
//! [`score_xpath_spaces`], a per-site batch re-evaluation of rendered
//! xpath candidates, as the reference those extractions are checked
//! against.

pub mod annotation;
pub mod batch;
pub mod publication;
pub mod scorer;
pub mod segmentation;

pub use annotation::{estimate_from_counts, AnnotatorModel};
pub use batch::{score_xpath_spaces, SiteSpace};
pub use publication::{
    list_features, list_features_pinned, KernelOverride, ListFeatures, PublicationModel,
};
pub use scorer::{RankingMode, RankingModel, WrapperScore};
pub use segmentation::{segment_site, segment_site_typed, Segment, TEXT_TOKEN};
