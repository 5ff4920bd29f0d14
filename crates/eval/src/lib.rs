//! # aw-eval — evaluation harness and experiment reproduction
//!
//! Reproduces the evaluation of §7 and the appendices: precision/recall
//! metrics, the half-split train/test protocol ("the p and r of the
//! annotators are learned from a sample of half the websites"), and one
//! runner per paper figure/table (see [`experiments`]). Sites are
//! evaluated in parallel through the process-global work-stealing
//! [`Executor`] ([`executor`]), which the nested page-parallel stages
//! share — no per-site scoped pools.

pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod parallel;
pub mod report;

pub use harness::{evaluate, learn_annotator, learn_model, split_half, EvalOutcome, Method};
pub use metrics::{macro_average, prf1, PrF1};
pub use parallel::{executor, Executor};
pub use report::{to_json, write_json};
