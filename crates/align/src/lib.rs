//! # aw-align — sequence alignment and density estimation
//!
//! Algorithmic substrate for two parts of the VLDB 2011 framework:
//!
//! * the **LR (WIEN) inductor** needs longest common prefixes/suffixes of
//!   label contexts ([`affix`]);
//! * the **web-publication model** (§6.1) needs the longest common
//!   substring between record segments (schema size), pairwise edit
//!   distance (alignment), and kernel density estimation over those
//!   discrete features ([`lcs`], [`edit`], [`kde`]).
//!
//! The alignment kernels run on `&[u32]` token symbols (`aw-rank` maps a
//! tag to its interned id and every text node to one reserved id) and
//! keep their dynamic-programming rows in a caller-owned [`Rows`], so
//! scoring a candidate's segment pairs allocates the rows once.

pub mod affix;
pub mod edit;
pub mod kde;
pub mod lcs;
pub mod stats;

pub use affix::{common_prefix, common_prefix_len, common_suffix, common_suffix_len};
pub use edit::{edit_distance, edit_distance_pinned, NO_PIN};
pub use kde::KernelDensity;
pub use lcs::longest_common_substring;

/// Two reusable dynamic-programming rows for the kernels of [`lcs`] and
/// [`edit`]. Each kernel initializes the cells it reads, so one `Rows`
/// serves any sequence of calls of any sizes; it grows to the longest
/// row asked for and never shrinks.
#[derive(Clone, Debug, Default)]
pub struct Rows {
    prev: Vec<usize>,
    cur: Vec<usize>,
}

impl Rows {
    /// Both rows, `len` cells each (contents unspecified).
    fn two(&mut self, len: usize) -> (&mut [usize], &mut [usize]) {
        if self.prev.len() < len {
            self.prev.resize(len, 0);
            self.cur.resize(len, 0);
        }
        (&mut self.prev[..len], &mut self.cur[..len])
    }
}
