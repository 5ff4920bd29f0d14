//! # aw-enum — wrapper-space enumeration
//!
//! §4 of the paper: given noisy labels `L` and a wrapper inductor φ,
//! efficiently enumerate the wrapper space `W(L) = {φ(L₁) | L₁ ⊆ L}`
//! without 2^|L| inductor calls.
//!
//! * [`naive()`] — the exhaustive baseline (2^|L| − 1 calls);
//! * [`bottom_up()`] — Algorithm 1, blackbox, ≤ `k·|L|` calls (Theorems 1–2);
//! * [`top_down()`] — Algorithm 2 for feature-based inductors, exactly `k`
//!   calls when distinct closed sets induce distinct wrappers (Theorem 3;
//!   XPATH can exceed `k`).
//!
//! Applications normally reach this crate through `aw_core::Engine`
//! (`engine.enumerate` returns the typed `WrapperSpace` wrapper around
//! an [`EnumerationResult`]); the algorithms stay public for custom
//! inductors.
//!
//! ```
//! use aw_enum::{bottom_up, naive, top_down};
//! use aw_induct::table::{example1_inductor, example1_labels};
//!
//! let inductor = example1_inductor();
//! let labels = example1_labels(); // the 5 labels of Example 1 (2 wrong)
//! let space = top_down(&inductor, &labels);
//! assert_eq!(space.len(), 8);                 // Equation (2)
//! assert_eq!(space.inductor_calls, 8);        // Theorem 3
//! assert_eq!(space.extraction_set(), bottom_up(&inductor, &labels).extraction_set());
//! assert_eq!(space.extraction_set(), naive(&inductor, &labels).extraction_set());
//! ```

pub mod bottom_up;
pub mod naive;
pub mod space;
pub mod top_down;

pub use bottom_up::bottom_up;
pub use naive::{naive, naive_call_count, NAIVE_MAX_LABELS};
pub use space::{EnumeratedWrapper, EnumerationResult};
pub use top_down::top_down;
