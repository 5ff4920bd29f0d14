//! Longest common substring over token-symbol slices.
//!
//! The publication model's *schema size* feature (§6.1) is "the number of
//! text nodes in the longest common substring between pairs of segments",
//! where segments are tag sequences. Tokens are `u32` symbols (a tag's
//! interned id, or one reserved id for text), so the dynamic program
//! compares integers and reuses the caller's [`Rows`] across pairs.

use crate::Rows;
use std::ops::Range;

/// The longest common (contiguous) substring of `a` and `b`, as a range
/// into `a`: the earliest-in-`a` maximal match (`0..0` when nothing is
/// shared).
///
/// Classic dynamic program, O(|a|·|b|) time, two rows of |b| + 1.
pub fn longest_common_substring(a: &[u32], b: &[u32], rows: &mut Rows) -> Range<usize> {
    if a.is_empty() || b.is_empty() {
        return 0..0;
    }
    let (mut prev, mut cur) = rows.two(b.len() + 1);
    prev.fill(0);
    cur[0] = 0;
    let mut best = 0;
    let mut best_end = 0; // exclusive end in `a`
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            let run = if x == y { prev[j] + 1 } else { 0 };
            cur[j + 1] = run;
            if run > best {
                best = run;
                best_end = i + 1;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best_end - best..best_end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(s: &str) -> Vec<u32> {
        s.chars().map(u32::from).collect()
    }

    #[test]
    fn substring_basic() {
        let (a, b) = (syms("xabcdey"), syms("zabcdew"));
        let r = longest_common_substring(&a, &b, &mut Rows::default());
        assert_eq!(a[r], syms("abcde")[..]);
    }

    #[test]
    fn substring_no_overlap_and_empty_inputs() {
        let mut rows = Rows::default();
        assert_eq!(
            longest_common_substring(&[1, 2, 3], &[4, 5, 6], &mut rows),
            0..0
        );
        assert_eq!(longest_common_substring(&[], &[1, 2], &mut rows), 0..0);
        assert_eq!(longest_common_substring(&[1, 2], &[], &mut rows), 0..0);
    }

    #[test]
    fn substring_identical_and_asymmetric() {
        let mut rows = Rows::default();
        let a = syms("hello");
        assert_eq!(longest_common_substring(&a, &a, &mut rows), 0..5);
        assert_eq!(
            longest_common_substring(&syms("x"), &syms("yyyyxzzzz"), &mut rows),
            0..1
        );
        assert_eq!(
            longest_common_substring(&syms("yyyyxzzzz"), &syms("x"), &mut rows),
            4..5
        );
    }

    #[test]
    fn earliest_maximal_match_in_a_wins() {
        // "ab" and "cd" both occur in b; the one that ends first in `a`
        // is reported, whatever its position in b.
        let (a, b) = (syms("abxcd"), syms("cdyab"));
        assert_eq!(longest_common_substring(&a, &b, &mut Rows::default()), 0..2);
    }

    #[test]
    fn rows_are_reused_across_calls_of_any_size() {
        // A long pair, then a short one: stale cells of the longer call
        // must not leak into the shorter one.
        let mut rows = Rows::default();
        let long = syms("aaaaaaaaaa");
        assert_eq!(longest_common_substring(&long, &long, &mut rows), 0..10);
        assert_eq!(
            longest_common_substring(&syms("ab"), &syms("ba"), &mut rows),
            0..1
        );
        assert_eq!(
            longest_common_substring(&syms("xy"), &syms("zw"), &mut rows),
            0..0
        );
    }
}
