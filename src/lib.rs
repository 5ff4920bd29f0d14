//! # autowrappers — noise-tolerant wrapper induction for web extraction
//!
//! A from-scratch Rust reproduction of **Dalvi, Kumar & Soliman,
//! *Automatic Wrappers for Large Scale Web Extraction*, VLDB 2011**
//! (PVLDB 4(4):219–230).
//!
//! Script-generated websites render database records with a fixed
//! template, so a site-level rule (a **wrapper**) extracts everything —
//! but classic wrapper induction needs clean labeled examples per site.
//! This library makes any *well-behaved* wrapper inductor tolerant to the
//! noisy labels that cheap automatic annotators (dictionaries, regexes)
//! produce, enabling extraction with no per-site supervision.
//!
//! The public surface is [`aw_core::Engine`] — one handle over the whole
//! pipeline:
//!
//! 1. **Annotate** — `engine.annotate(&site)` labels pages with the
//!    configured annotator ([`aw_annotate`]);
//! 2. **Enumerate** — `engine.enumerate(&site, &labels)` builds the
//!    wrapper space `W(L)` ([`aw_enum`], Algorithms 1–2);
//! 3. **Rank** — `engine.rank(space)` scores candidates by
//!    `P(L | X) · P(X)` ([`aw_rank`], Eq. 4 + §6.1);
//! 4. **Compile** — `ranked.best()?.compile()` yields a portable
//!    [`aw_core::CompiledWrapper`]: learn offline, `to_json`, ship,
//!    `from_json`, and extract from freshly crawled pages on a serving
//!    fleet.
//! 5. **Serve** — bundle many sites' wrappers
//!    ([`aw_core::WrapperBundle`], `awrap learn --bundle`), hold them
//!    resident in a hot-swappable [`aw_core::WrapperRegistry`], and
//!    answer concurrent requests through an
//!    [`aw_core::ExtractionService`] — fronted over HTTP by
//!    [`aw_serve`] (`awrap serve --bundle out.json --addr 127.0.0.1:0`).
//!    At web scale, pack the bundle into the v3 binary format
//!    (`awrap bundle pack`) and serve it **lazily** over an
//!    [`aw_core::BundleStore`] with bounded residency
//!    (`awrap serve --lazy --max-resident N`).
//!
//! ## Crates
//!
//! Directory names track the paper's vocabulary; package/lib names carry
//! the `aw-`/`aw_` prefix. The one mapping that trips people up:
//! **`crates/ntw` ships package `aw-core` (lib `aw_core`)** — there is
//! no `aw_ntw`. See `crates/ntw/README.md`.
//!
//! | Crate (lib name) | Directory | Role |
//! |---|---|---|
//! | [`aw_dom`] | `crates/dom` | lenient HTML tokenizer + tidy-style parser + arena DOM |
//! | [`aw_xpath`] | `crates/xpath` | the xpath fragment, compiled and batch engines |
//! | [`aw_align`] | `crates/align` | LCS, edit distance, affixes, kernel density estimation |
//! | [`aw_induct`] | `crates/induct` | wrapper inductors: TABLE, LR, HLRT, XPATH |
//! | [`aw_enum`] | `crates/enumerate` | wrapper-space enumeration (Naive / BottomUp / TopDown) |
//! | [`aw_rank`] | `crates/rank` | the ranking model (annotation + publication terms) |
//! | [`aw_annotate`] | `crates/annotate` | dictionary / zipcode / synthetic annotators |
//! | [`aw_sitegen`] | `crates/sitegen` | synthetic DEALERS / DISC / PRODUCTS corpora with gold labels |
//! | [`aw_core`] | **`crates/ntw`** | the Engine pipeline, portable artifacts/bundles, registry + extraction service, multi-type, single-entity |
//! | [`aw_serve`] | `crates/serve` | std-only HTTP/1.1 front end for the extraction service |
//! | [`aw_eval`] | `crates/eval` | metrics, train/test harness, per-figure experiment runners |
//!
//! ## Quickstart
//!
//! ```
//! use autowrappers::prelude::*;
//!
//! // Three pages generated by the same "rendering script".
//! let page = |rows: &[(&str, &str)]| {
//!     let mut html = String::from("<table class='stores'>");
//!     for (name, addr) in rows {
//!         html.push_str(&format!("<tr><td><b>{name}</b></td><td>{addr}</td></tr>"));
//!     }
//!     html + "</table>"
//! };
//! let site = Site::from_html(&[
//!     page(&[("PORTER FURNITURE", "201 Hwy 30"), ("ACME BEDS", "9 Elm St")]),
//!     page(&[("WOODLAND DECOR", "123 Main St")]),
//!     page(&[("ZETA SOFAS", "4 Oak Ave"), ("DELTA HOME", "77 Pine Rd")]),
//! ]);
//!
//! // Build the engine once: a model of the annotator's noise, a model of
//! // "what a good list looks like", and the annotator itself — here a
//! // noisy dictionary that knows two names and has one bad entry.
//! let engine = Engine::builder(RankingModel::new(
//!         AnnotatorModel::new(0.95, 0.4),
//!         PublicationModel::learn(&[
//!             ListFeatures { schema_size: 2.0, alignment: 0.0 },
//!             ListFeatures { schema_size: 2.0, alignment: 1.0 },
//!         ]),
//!     ))
//!     .language(WrapperLanguage::XPath)
//!     .annotator(DictionaryAnnotator::new(
//!         ["PORTER FURNITURE", "DELTA HOME", "123 Main St"],
//!         MatchMode::Exact,
//!     ))
//!     .build();
//!
//! // The staged pipeline: annotate → enumerate → rank.
//! let labels = engine.annotate(&site)?;
//! assert_eq!(labels.len(), 3); // 2 true names + 1 false positive
//! let space = engine.enumerate(&site, &labels)?;
//! let ranked = engine.rank(space)?;
//! let best = ranked.best().expect("nonempty space");
//!
//! // The learned wrapper extracts exactly the five names — including the
//! // ones the dictionary had never heard of — and ignores the bad label.
//! let names: Vec<&str> = best.extraction.iter()
//!     .map(|&n| site.text_of(n).unwrap())
//!     .collect();
//! assert_eq!(names.len(), 5);
//! assert!(names.contains(&"DELTA HOME"));
//! assert!(!names.contains(&"123 Main St"));
//!
//! // Compile a portable artifact: serialize, "ship", extract elsewhere.
//! let wrapper = best.compile();
//! let shipped = CompiledWrapper::from_json(&wrapper.to_json())?;
//! let crawled = aw_dom::parse(
//!     "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr></table>");
//! assert_eq!(shipped.extract_values(&crawled), ["OMEGA GROUP"]);
//! # Ok::<(), AwError>(())
//! ```

pub use aw_align;
pub use aw_annotate;
pub use aw_core;
pub use aw_dom;
pub use aw_enum;
pub use aw_eval;
pub use aw_induct;
pub use aw_pool;
pub use aw_rank;
pub use aw_serve;
pub use aw_sitegen;
pub use aw_xpath;

/// The most common imports in one place.
pub mod prelude {
    pub use aw_annotate::{annotate_zipcodes, DictionaryAnnotator, MatchMode, SyntheticAnnotator};
    pub use aw_core::{
        learn_multi_type, learn_single_entity, Annotator, ArtifactReader, AwError, BundleStore,
        CompiledWrapper, Engine, EngineBuilder, Enumeration, ExtractRequest, ExtractResponse,
        ExtractionService, HealthEvent, HealthThresholds, HealthTracker, LearnedRule,
        LoadedArtifact, MultiTypeModel, NtwConfig, RankedWrappers, RelearnConfig,
        RelearnController, ResidencyStats, SiteHealth, WrapperBundle, WrapperLanguage,
        WrapperRegistry, WrapperSpace,
    };
    pub use aw_dom::{parse, Document, NodeId, PageNode};
    pub use aw_induct::{
        HlrtInductor, LrInductor, NodeSet, Site, TableInductor, WrapperInductor, XPathInductor,
    };
    pub use aw_pool::{env_threads, parse_threads, Executor, ThreadsError};
    pub use aw_rank::{AnnotatorModel, ListFeatures, PublicationModel, RankingMode, RankingModel};
    pub use aw_xpath::{evaluate, parse_xpath, XPath};
}
