//! Parallel execution for the experiment harness.
//!
//! The implementation lives in [`aw_pool`] (a dependency-free crate low
//! enough in the workspace graph that the xpath/rank/core layers use it
//! too). The harness maps over sites through [`executor`] — the
//! process-global [`Executor`] — so the page-parallel stages nested
//! under each site (batch xpath evaluation, rule replay) feed the *same*
//! worker team instead of spawning competing pools.

pub use aw_pool::Executor;

/// The process-global work-stealing executor the harness maps through
/// (honours `AW_THREADS`; see [`Executor::global`]).
pub fn executor() -> &'static Executor {
    Executor::global()
}
