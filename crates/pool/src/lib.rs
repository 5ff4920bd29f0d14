//! # aw-pool — the workspace's parallel execution primitive
//!
//! [`Executor`] applies a function to every item of a slice on all
//! cores, returning outputs **in input order**, bit-for-bit identical at
//! every thread count. It is a **persistent work-stealing pool**
//! (per-worker deques, chunked claiming, a shared injector) that nested
//! parallel loops feed cooperatively. The engine, per-site xpath batch
//! scoring, deployed-wrapper crawl extraction and the experiment harness
//! route through it
//! ([`Executor::global`] by default): site-level and page-level work
//! items interleave in one pool instead of nested thread teams
//! oversubscribing each other. See the [`executor`] module docs for the
//! execution model.
//!
//! Design notes:
//!
//! * **Chunked claiming** — workers claim *chunks* of consecutive items
//!   from one atomic counter, several chunks per thread, so uneven task
//!   costs (pages differ wildly in size) still balance while touching the
//!   counter `O(chunks)` times instead of `O(items)`.
//! * **Deterministic** — output order never depends on thread count or
//!   scheduling: results are written into a slot-per-item buffer.
//! * **Thread-count policy** — [`Executor::auto`] and
//!   [`Executor::global`] honour the `AW_THREADS` environment variable; invalid values (0, non-numeric)
//!   are rejected with a clear error ([`env_threads`] /
//!   [`parse_threads`] expose the validation for CLI flags).

pub mod executor;

pub use executor::{env_threads, parse_threads, Executor, ThreadsError};
