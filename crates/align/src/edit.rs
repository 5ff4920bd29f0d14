//! Edit distance (Levenshtein) over token-symbol slices.
//!
//! The publication model's *alignment* feature (§6.1) is "the maximum
//! pairwise edit distance between pairs of segments"; segments are tag
//! sequences of `u32` symbols, and the dynamic programs reuse the
//! caller's [`Rows`] across pairs.

use crate::Rows;

/// The pin of an item that no type claims (see [`edit_distance_pinned`]).
pub const NO_PIN: u32 = u32::MAX;

/// Levenshtein distance between `a` and `b` (unit costs).
pub fn edit_distance(a: &[u32], b: &[u32], rows: &mut Rows) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (mut prev, mut cur) = rows.two(b.len() + 1);
    for (j, cell) in prev.iter_mut().enumerate() {
        *cell = j;
    }
    for (i, &x) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &y) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(x != y);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Edit distance where some positions are *pinned*: a pinned position in `a`
/// may only align to a pinned position in `b` and vice versa. Pinning is
/// how the multi-type ranking (Appendix A) enforces "nodes corresponding to
/// each type align with each other": typed nodes are pinned with the type
/// index, untyped items are free.
///
/// `pa[i]` / `pb[j]` give the type index of pinned items and [`NO_PIN`]
/// for free ones. A substitution between items with different pins, or
/// between a pinned and a free item, is forbidden (infinite cost);
/// deleting or inserting a pinned item costs `pin_indel_cost` (usually
/// larger than 1) so missing typed fields are penalized.
pub fn edit_distance_pinned(
    a: &[u32],
    b: &[u32],
    pa: &[u32],
    pb: &[u32],
    pin_indel_cost: usize,
    rows: &mut Rows,
) -> usize {
    assert_eq!(a.len(), pa.len());
    assert_eq!(b.len(), pb.len());
    const INF: usize = usize::MAX / 4;
    let indel = |pin: u32| if pin == NO_PIN { 1 } else { pin_indel_cost };

    let (mut prev, mut cur) = rows.two(b.len() + 1);
    prev[0] = 0;
    for j in 0..b.len() {
        prev[j + 1] = prev[j] + indel(pb[j]);
    }
    for i in 0..a.len() {
        cur[0] = prev[0] + indel(pa[i]);
        for j in 0..b.len() {
            // Both free, or the same pin.
            let sub_cost = if pa[i] == pb[j] {
                usize::from(a[i] != b[j])
            } else {
                INF
            };
            let sub = prev[j].saturating_add(sub_cost);
            let del = prev[j + 1] + indel(pa[i]);
            let ins = cur[j] + indel(pb[j]);
            cur[j + 1] = sub.min(del).min(ins);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(s: &str) -> Vec<u32> {
        s.chars().map(u32::from).collect()
    }

    #[test]
    fn classic_cases() {
        let mut rows = Rows::default();
        let (a, b) = (syms("kitten"), syms("sitting"));
        assert_eq!(edit_distance(&a, &b, &mut rows), 3);
        assert_eq!(edit_distance(&b, &a, &mut rows), 3);
    }

    #[test]
    fn empty_and_identical() {
        let mut rows = Rows::default();
        let abc = syms("abc");
        assert_eq!(edit_distance(&[], &abc, &mut rows), 3);
        assert_eq!(edit_distance(&abc, &[], &mut rows), 3);
        assert_eq!(edit_distance(&abc, &abc, &mut rows), 0);
        assert_eq!(edit_distance(&[], &[], &mut rows), 0);
    }

    #[test]
    fn triangle_inequality_spot_check() {
        let mut rows = Rows::default();
        let (a, b, c) = (syms("abcd"), syms("axcd"), syms("axyd"));
        let ac = edit_distance(&a, &c, &mut rows);
        assert!(ac <= edit_distance(&a, &b, &mut rows) + edit_distance(&b, &c, &mut rows));
    }

    #[test]
    fn rows_are_reused_across_calls_of_any_size() {
        let mut rows = Rows::default();
        assert_eq!(
            edit_distance(&syms("abcdefgh"), &syms("hgfedcba"), &mut rows),
            8
        );
        assert_eq!(edit_distance(&syms("ab"), &syms("ab"), &mut rows), 0);
        let free = [NO_PIN; 2];
        assert_eq!(
            edit_distance_pinned(&syms("ab"), &syms("ax"), &free, &free, 3, &mut rows),
            1
        );
    }

    #[test]
    fn pinned_reduces_to_plain_when_unpinned() {
        let mut rows = Rows::default();
        let (a, b) = (syms("abcd"), syms("axcd"));
        let none = [NO_PIN; 4];
        assert_eq!(
            edit_distance_pinned(&a, &b, &none, &none, 3, &mut rows),
            edit_distance(&a, &b, &mut rows)
        );
    }

    #[test]
    fn pinned_forbids_cross_type_alignment() {
        // a = [NAME, x], b = [x, NAME]: the pinned NAMEs cannot swap for
        // free; they must align to each other, costing 2 indels of x.
        const NAME: u32 = 7;
        const X: u32 = 8;
        let mut rows = Rows::default();
        let (a, b) = ([NAME, X], [X, NAME]);
        assert_eq!(
            edit_distance_pinned(&a, &b, &[0, NO_PIN], &[NO_PIN, 0], 5, &mut rows),
            2
        );
        // With different pins the forced path deletes NAME(0) (cost 5)
        // and inserts NAME(1) (cost 5).
        assert_eq!(
            edit_distance_pinned(&a, &b, &[0, NO_PIN], &[NO_PIN, 1], 5, &mut rows),
            10
        );
    }

    #[test]
    fn pinned_missing_field_costs_indel() {
        let mut rows = Rows::default();
        let (a, b) = ([1, 2, 3], [1, 2]);
        assert_eq!(
            edit_distance_pinned(&a, &b, &[0, NO_PIN, 1], &[0, NO_PIN], 4, &mut rows),
            4
        );
    }
}
