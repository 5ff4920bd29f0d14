//! # aw-core — the noise-tolerant wrapper framework (NTW)
//!
//! > **Naming:** this crate lives in the `crates/ntw` directory (the
//! > paper's shorthand for the noise-tolerant wrapper framework) but is
//! > the package `aw-core` / library `aw_core` — there is no `aw_ntw`.
//! > See `crates/ntw/README.md`.
//!
//! The primary contribution of *Automatic Wrappers for Large Scale Web
//! Extraction* (Dalvi, Kumar & Soliman, VLDB 2011): make any well-behaved
//! wrapper inductor tolerant to noisy training labels by
//! **generate-and-test**. The public surface is one [`Engine`], built
//! once via [`EngineBuilder`] and exposing the pipeline as typed stages:
//!
//! 1. `engine.annotate(&site)` — noisy labels from a cheap annotator,
//! 2. `engine.enumerate(&site, &labels)` — the wrapper space `W(L)`
//!    (`aw-enum`, §4) as a [`WrapperSpace`],
//! 3. `engine.rank(space)` — every candidate scored by
//!    `P(L | X) · P(X)` (`aw-rank`, §6) into [`RankedWrappers`],
//! 4. `ranked.best()?.compile()` — a portable [`CompiledWrapper`]
//!    artifact that serializes (`to_json`/`from_json`) and extracts from
//!    freshly crawled pages.
//!
//! The serving side bundles many sites' artifacts into a
//! [`WrapperBundle`] (format `aw-bundle`), holds them resident in a
//! hot-swappable [`WrapperRegistry`], and answers concurrent requests
//! through an [`ExtractionService`] (see the [`service`] module docs and
//! the `aw-serve` crate's HTTP front end).
//!
//! ```
//! use aw_core::{AwError, Engine, NtwConfig, WrapperLanguage};
//! use aw_induct::Site;
//! use aw_rank::{AnnotatorModel, ListFeatures, PublicationModel, RankingModel};
//!
//! // A two-page "dealer locator" site.
//! let page = |a: &str, b: &str| format!(
//!     "<table><tr><td><u>{a}</u></td><td>12 Elm</td><td>OX, MS 38655</td></tr>\
//!             <tr><td><u>{b}</u></td><td>9 Oak</td><td>OX, MS 38655</td></tr></table>");
//! let site = Site::from_html(&[page("PORTER FURNITURE", "ACME BEDS"),
//!                              page("ZETA SOFAS", "DELTA DECOR")]);
//!
//! // Noisy labels: two true names (in different rows, as scattered
//! // dictionary hits are) + one street line (a false positive).
//! let mut labels = aw_induct::NodeSet::new();
//! labels.extend(site.find_text("PORTER FURNITURE"));
//! labels.extend(site.find_text("DELTA DECOR"));
//! labels.extend(site.find_text("12 Elm"));
//!
//! let model = RankingModel::new(
//!     AnnotatorModel::new(0.95, 0.4),
//!     PublicationModel::learn(&[
//!         ListFeatures { schema_size: 3.0, alignment: 0.0 },
//!         ListFeatures { schema_size: 3.0, alignment: 1.0 },
//!     ]),
//! );
//!
//! // One engine, built once, drives the whole pipeline.
//! let engine = Engine::builder(model)
//!     .language(WrapperLanguage::XPath)
//!     .config(NtwConfig::default())
//!     .build();
//! let ranked = engine.learn(&site, &labels)?;
//! let best = ranked.best().expect("nonempty space");
//! // The noise-tolerant wrapper extracts exactly the four names…
//! assert_eq!(best.extraction.len(), 4);
//! // …while the NAIVE baseline over-generalizes to fit the bad label.
//! assert!(engine.naive(&site, &labels)?.extraction.len() > 4);
//!
//! // The winner compiles into a portable serving artifact.
//! let wrapper = best.compile();
//! let shipped = aw_core::CompiledWrapper::from_json(&wrapper.to_json())?;
//! let fresh = aw_dom::parse(
//!     "<table><tr><td><u>OMEGA HOME</u></td><td>1 Fir</td><td>OX, MS 38655</td></tr></table>");
//! assert_eq!(shipped.extract_values(&fresh), ["OMEGA HOME"]);
//! # Ok::<(), AwError>(())
//! ```
//!
//! The [`Engine`] is the one learn entry point for the four built-in
//! languages; the generic [`learn_with_feature_based`] remains for custom
//! feature-based inductors.

pub mod artifact;
pub mod config;
pub mod engine;
pub mod error;
pub mod health;
pub mod latency;
pub mod learner;
pub mod multi_type;
pub mod relearn;
pub mod rule;
pub mod service;
pub mod single_entity;
pub mod store;

pub use artifact::{
    CompiledWrapper, WrapperBundle, ARTIFACT_FORMAT, ARTIFACT_VERSION, BUNDLE_FORMAT,
    BUNDLE_VERSION, V1_SITE_KEY,
};
pub use config::{Enumeration, NtwConfig, WrapperLanguage};
pub use engine::{Annotator, Engine, EngineBuilder, RankedWrapper, RankedWrappers, WrapperSpace};
pub use error::AwError;
pub use health::{HealthEvent, HealthThresholds, HealthTracker, PageObservation, SiteHealth};
pub use latency::{LatencyHistogram, LatencySnapshot};
pub use learner::{learn_with_feature_based, LearnedWrapper, NtwOutcome};
pub use multi_type::{
    assemble_records, learn_multi_type, MultiTypeModel, MultiTypeOutcome, MultiTypeWrapper, Record,
};
pub use relearn::{RelearnConfig, RelearnController, RelearnOutcome};
pub use rule::LearnedRule;
pub use service::{
    ExtractRequest, ExtractResponse, ExtractionService, ParseStats, ResidencyStats, WrapperRegistry,
};
pub use single_entity::{
    learn_single_entity, learn_single_entity_with, SingleEntityOutcome, SingleEntityWrapper,
};
pub use store::{
    ArtifactReader, BundleBinaryWriter, BundleStore, LoadedArtifact, BUNDLE_BIN_FORMAT,
    BUNDLE_BIN_MAGIC, BUNDLE_BIN_VERSION,
};
