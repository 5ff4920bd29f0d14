//! The HLRT wrapper class — WIEN's extension of LR with *head* and *tail*
//! delimiters that limit the region where the `(l, r)` pair applies (§5:
//! "HLRT wrappers, which, in addition, have strings H and T that limit the
//! context under which LR can be applied").
//!
//! Learning: `l`/`r` exactly as LR; `h` is the longest common prefix of
//! the page regions *before the first label* on each labeled page, and `t`
//! the longest common suffix of the regions *after the last label*. Both
//! are trimmed to markup boundaries — `h` ends just after its last `>`,
//! `t` starts at its first `<` — so neither keeps record text that only
//! happens to agree across the training pages (a tail learned from rows
//! ending "1 Elm" and "101 Elm" must not demand "1 Elm" of a fresh page).
//! Extraction runs the LR scan restricted to the region after the first
//! occurrence of `h` and before the following occurrence of `t`.
//!
//! HLRT shields the LR scan from page headers/footers, which is where most
//! of LR's over-generalization damage happens on listing pages.

use crate::lr::{LrInductor, LrRule};
use crate::site::Site;
use crate::traits::{ItemSet, WrapperInductor};
use aw_align::{common_prefix_len, common_suffix_len};
use aw_dom::PageNode;

/// An HLRT rule.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct HlrtRule {
    /// Head delimiter; scanning starts after its first occurrence.
    pub head: String,
    /// Tail delimiter; scanning stops at its first occurrence after `head`.
    pub tail: String,
    /// The inner LR pair.
    pub lr: LrRule,
}

impl std::fmt::Display for HlrtRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HLRT(h={:?}, t={:?}, l={:?}, r={:?})",
            self.head, self.tail, self.lr.left, self.lr.right
        )
    }
}

/// The HLRT inductor bound to a [`Site`]. Delegates `(l, r)` learning to
/// an inner [`LrInductor`].
#[derive(Debug)]
pub struct HlrtInductor<'a> {
    lr: LrInductor<'a>,
    /// Cap on head/tail delimiter length in bytes.
    region_cap: usize,
}

impl<'a> HlrtInductor<'a> {
    /// Creates an HLRT inductor with default caps.
    pub fn new(site: &'a Site) -> Self {
        HlrtInductor {
            lr: LrInductor::new(site),
            region_cap: 96,
        }
    }

    /// The site this inductor operates over.
    pub fn site(&self) -> &Site {
        self.lr.site()
    }

    /// Learns the full HLRT rule.
    pub fn learn(&self, labels: &ItemSet<PageNode>) -> HlrtRule {
        let lr_rule = self.lr.learn(labels);
        let site = self.site();

        // Group label spans per page.
        let mut first_start: std::collections::BTreeMap<u32, usize> = Default::default();
        let mut last_end: std::collections::BTreeMap<u32, usize> = Default::default();
        for &label in labels {
            if let Some(span) = site.serialized(label.page).span_of(label.node) {
                first_start
                    .entry(label.page)
                    .and_modify(|s| *s = (*s).min(span.start))
                    .or_insert(span.start);
                last_end
                    .entry(label.page)
                    .and_modify(|e| *e = (*e).max(span.end))
                    .or_insert(span.end);
            }
        }

        // The head region must end *before* the first label's left
        // delimiter and the tail must start *after* the last label's right
        // delimiter, so the inner LR scan can still find its delimiters
        // inside the [head, tail) region.
        let heads: Vec<&str> = first_start
            .iter()
            .map(|(&p, &s)| {
                let cut = s.saturating_sub(lr_rule.left.len());
                &site.serialized(p).html[..cut]
            })
            .collect();
        let tails: Vec<&str> = last_end
            .iter()
            .map(|(&p, &e)| {
                let html = &site.serialized(p).html;
                let cut = (e + lr_rule.right.len()).min(html.len());
                &html[cut..]
            })
            .collect();

        let hlen = common_prefix_len(&heads).min(self.region_cap);
        let tlen = common_suffix_len(&tails).min(self.region_cap);
        let head = heads
            .first()
            .map(|s| markup_head(char_floor(s, hlen)).to_string())
            .unwrap_or_default();
        let tail = tails
            .first()
            .map(|s| markup_tail(char_tail(s, tlen)).to_string())
            .unwrap_or_default();
        HlrtRule {
            head,
            tail,
            lr: lr_rule,
        }
    }

    /// Applies an HLRT rule to every page.
    pub fn apply(&self, rule: &HlrtRule) -> ItemSet<PageNode> {
        let site = self.site();
        let mut out = ItemSet::new();
        for p in 0..site.page_count() as u32 {
            let page = site.serialized(p);
            let html = &page.html;
            let region_start = if rule.head.is_empty() {
                0
            } else {
                match html.find(&rule.head) {
                    Some(i) => i + rule.head.len(),
                    None => continue,
                }
            };
            let region_end = if rule.tail.is_empty() {
                html.len()
            } else {
                match html[region_start..].rfind(&rule.tail) {
                    Some(i) => region_start + i,
                    None => continue,
                }
            };
            // Run the LR scan within the region by offsetting spans.
            let region = &html[region_start..region_end];
            for (s, e) in crate::lr::scan_spans(region, &rule.lr.left, &rule.lr.right) {
                for node in page.nodes_in_range(region_start + s, region_start + e) {
                    out.insert(PageNode::new(p, node));
                }
            }
        }
        out
    }
}

fn char_floor(s: &str, mut i: usize) -> &str {
    i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    &s[..i]
}

fn char_tail(s: &str, n: usize) -> &str {
    let mut i = s.len().saturating_sub(n);
    while !s.is_char_boundary(i) {
        i += 1;
    }
    &s[i..]
}

/// `head` up to and including its last `>` (empty if it has none).
fn markup_head(head: &str) -> &str {
    head.rfind('>').map_or("", |i| &head[..=i])
}

/// `tail` from its first `<` on (empty if it has none).
fn markup_tail(tail: &str) -> &str {
    tail.find('<').map_or("", |i| &tail[i..])
}

impl WrapperInductor for HlrtInductor<'_> {
    type Item = PageNode;

    fn extract(&self, labels: &ItemSet<PageNode>) -> ItemSet<PageNode> {
        self.extract_with_rule(labels).0
    }

    fn rule(&self, labels: &ItemSet<PageNode>) -> String {
        if labels.is_empty() {
            return "∅".into();
        }
        self.learn(labels).to_string()
    }

    fn extract_with_rule(&self, labels: &ItemSet<PageNode>) -> (ItemSet<PageNode>, String) {
        if labels.is_empty() {
            return (ItemSet::new(), "∅".into());
        }
        let rule = self.learn(labels);
        let mut out = self.apply(&rule);
        // Fidelity guard: HLRT's learned region always contains the labels
        // by construction, but a label can straddle delimiter boundaries in
        // degenerate cases; keep the inductor well-behaved by unioning.
        out.extend(labels.iter().copied());
        (out, rule.to_string())
    }

    fn universe(&self) -> ItemSet<PageNode> {
        self.lr.universe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pages where the header/footer contain LR-confusable markup.
    fn site_with_chrome() -> Site {
        Site::from_html(&[
            "<div class='nav'><b>HOME</b><b>ABOUT</b></div>\
             <table><tr><td><b>ALPHA CO</b></td></tr>\
                    <tr><td><b>BETA LLC</b></td></tr></table>\
             <div class='foot'><b>TERMS</b></div>",
            "<div class='nav'><b>HOME</b><b>ABOUT</b></div>\
             <table><tr><td><b>GAMMA INC</b></td></tr></table>\
             <div class='foot'><b>TERMS</b></div>",
        ])
    }

    fn labels_of(site: &Site, texts: &[&str]) -> ItemSet<PageNode> {
        texts.iter().flat_map(|t| site.find_text(t)).collect()
    }

    #[test]
    fn head_tail_shield_chrome() {
        let site = site_with_chrome();
        let ind = HlrtInductor::new(&site);
        let labels = labels_of(&site, &["ALPHA CO", "BETA LLC"]);
        let rule = ind.learn(&labels);
        assert!(!rule.head.is_empty(), "head should capture the nav prefix");
        let out = ind.apply(&rule);
        let texts: Vec<&str> = out.iter().map(|&n| site.text_of(n).unwrap()).collect();
        assert_eq!(texts, vec!["ALPHA CO", "BETA LLC", "GAMMA INC"]);
    }

    #[test]
    fn hlrt_beats_plain_lr_under_weak_delimiters() {
        // With a single label the LR pair is highly specific, so compare
        // under a short context cap where LR would leak into the nav.
        let site = site_with_chrome();
        let hlrt = HlrtInductor::new(&site);
        let labels = labels_of(&site, &["ALPHA CO", "BETA LLC", "GAMMA INC"]);
        let rule = hlrt.learn(&labels);
        let out = hlrt.apply(&rule);
        // <b> delimiters alone would also catch HOME/ABOUT/TERMS; the
        // head/tail region must exclude them.
        let texts: Vec<&str> = out.iter().map(|&n| site.text_of(n).unwrap()).collect();
        assert!(!texts.contains(&"HOME"), "{texts:?}");
        assert!(!texts.contains(&"TERMS"), "{texts:?}");
    }

    #[test]
    fn fidelity_holds() {
        let site = site_with_chrome();
        let ind = HlrtInductor::new(&site);
        for texts in [
            vec!["ALPHA CO"],
            vec!["ALPHA CO", "GAMMA INC"],
            vec!["HOME", "ALPHA CO"],
        ] {
            let labels = labels_of(&site, &texts);
            let out = ind.extract(&labels);
            assert!(labels.is_subset(&out), "fidelity for {texts:?}");
        }
    }

    #[test]
    fn empty_labels_extract_nothing() {
        let site = site_with_chrome();
        let ind = HlrtInductor::new(&site);
        assert!(ind.extract(&ItemSet::new()).is_empty());
    }

    #[test]
    fn head_and_tail_exclude_record_text() {
        // The last rows' streets end alike ("1 Elm" / "101 Elm"), so the
        // raw common suffix after the last label starts with "1 Elm".
        let site = Site::from_html(&[
            "<h1>Dealers</h1><table><tr><td><b>ALPHA</b></td><td>1 Elm</td></tr></table>\
             <p>footer</p>",
            "<h1>Dealers</h1><table><tr><td><b>BETA</b></td><td>5 Oak</td></tr>\
             <tr><td><b>GAMMA</b></td><td>101 Elm</td></tr></table><p>footer</p>",
        ]);
        let rule = HlrtInductor::new(&site).learn(&labels_of(&site, &["ALPHA", "BETA", "GAMMA"]));
        assert!(rule.head.ends_with('>'), "{rule}");
        assert!(rule.tail.starts_with('<'), "{rule}");
        // A fresh page of the same script whose last row reads "12 Elm".
        let fresh = Site::from_html(&[
            "<h1>Dealers</h1><table><tr><td><b>DELTA</b></td><td>7 Fir</td></tr>\
             <tr><td><b>EPSILON</b></td><td>12 Elm</td></tr></table><p>footer</p>",
        ]);
        let out = HlrtInductor::new(&fresh).apply(&rule);
        let texts: Vec<&str> = out.iter().map(|&n| fresh.text_of(n).unwrap()).collect();
        assert_eq!(texts, vec!["DELTA", "EPSILON"], "{rule}");
    }

    #[test]
    fn display_rule() {
        let rule = HlrtRule {
            head: "<table>".into(),
            tail: "</table>".into(),
            lr: LrRule {
                left: "<b>".into(),
                right: "</b>".into(),
            },
        };
        let s = rule.to_string();
        assert!(s.contains("h=\"<table>\"") && s.contains("l=\"<b>\""));
    }
}
