//! Dictionary-based annotators (§1, §7).
//!
//! The DEALERS annotator labels "a text node if it contains an exact
//! mention of a business name from our database"; the DISC annotator looks
//! for exact track names. Two matching modes cover both:
//!
//! * [`MatchMode::Exact`] — the node's whole (trimmed) text equals a
//!   dictionary entry;
//! * [`MatchMode::Contains`] — a dictionary entry occurs inside the node's
//!   text as a token-aligned substring (this is what produces the paper's
//!   characteristic false positives: "business names matching street
//!   addresses and product descriptions").

use aw_dom::PageNode;
use std::collections::HashSet;

/// How dictionary entries are matched against text nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchMode {
    /// Whole-node equality (after ASCII case folding and trimming).
    Exact,
    /// Entry appears as a word-boundary-aligned substring of the node.
    Contains,
}

/// A dictionary annotator for one type.
#[derive(Clone, Debug)]
pub struct DictionaryAnnotator {
    entries: HashSet<String>,
    mode: MatchMode,
}

impl DictionaryAnnotator {
    /// Builds an annotator from dictionary entries (case-insensitive).
    pub fn new<S: AsRef<str>>(entries: impl IntoIterator<Item = S>, mode: MatchMode) -> Self {
        DictionaryAnnotator {
            entries: entries
                .into_iter()
                .map(|s| normalize(s.as_ref()))
                .filter(|s| !s.is_empty())
                .collect(),
            mode,
        }
    }

    /// Number of dictionary entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Does this annotator label the given text?
    pub fn matches(&self, text: &str) -> bool {
        self.matches_in(text, &mut String::new())
    }

    /// [`Self::matches`], normalizing `text` into `norm` (cleared first),
    /// a buffer callers reuse across texts.
    fn matches_in(&self, text: &str, norm: &mut String) -> bool {
        normalize_into(text, norm);
        let norm = norm.as_str();
        if norm.is_empty() {
            return false;
        }
        match self.mode {
            MatchMode::Exact => self.entries.contains(norm),
            MatchMode::Contains => {
                // Check every word-aligned window; dictionary entries are
                // typically 1–5 words, so bound the window size. Words are
                // separated by single spaces, so a window is a slice.
                let spaces =
                    |from: usize| norm[from..].match_indices(' ').map(move |(i, _)| from + i);
                self.entries.contains(norm)
                    || std::iter::once(0)
                        .chain(spaces(0).map(|i| i + 1))
                        .any(|start| {
                            spaces(start)
                                .chain([norm.len()])
                                .take(5)
                                .any(|end| self.entries.contains(&norm[start..end]))
                        })
            }
        }
    }

    /// Labels every matching text node of a site.
    pub fn annotate(&self, site: &aw_induct::Site) -> aw_induct::NodeSet {
        let mut norm = String::new();
        site.text_nodes()
            .iter()
            .copied()
            .filter(|&n| {
                site.text_of(n)
                    .is_some_and(|t| self.matches_in(t, &mut norm))
            })
            .collect()
    }
}

/// Case folding + whitespace normalization + punctuation-trimming used for
/// dictionary keys and node text alike.
fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_into(s, &mut out);
    out
}

/// [`normalize`] into `out`, replacing its contents: words separated by
/// single spaces, no leading or trailing space.
fn normalize_into(s: &str, out: &mut String) {
    out.clear();
    let mut in_ws = true;
    for c in s.chars() {
        if c.is_whitespace() {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
            in_ws = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
}

/// A PageNode set convenience used in tests and docs.
pub type Labels = std::collections::BTreeSet<PageNode>;

#[cfg(test)]
mod tests {
    use super::*;
    use aw_induct::Site;

    #[test]
    fn exact_matching() {
        let d = DictionaryAnnotator::new(["Office Depot", "BestBuy"], MatchMode::Exact);
        assert!(d.matches("office depot"));
        assert!(d.matches("  Office   DEPOT  "));
        assert!(!d.matches("Office Depot Inc"));
        assert!(!d.matches(""));
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn contains_matching_produces_paper_false_positives() {
        let d = DictionaryAnnotator::new(["Main Street"], MatchMode::Contains);
        // A street address containing a business-like phrase is labeled —
        // exactly the DEALERS noise source.
        assert!(d.matches("123 Main Street Suite 4"));
        assert!(!d.matches("123 Main Ave"));
    }

    #[test]
    fn contains_is_word_aligned() {
        let d = DictionaryAnnotator::new(["ACE"], MatchMode::Contains);
        assert!(d.matches("visit ACE today"));
        assert!(
            !d.matches("PLACES to go"),
            "substring inside a word must not match"
        );
    }

    #[test]
    fn annotates_site_nodes() {
        let site = Site::from_html(&[
            "<li>Office Depot</li><li>42 Elm St</li>",
            "<li>BestBuy</li><li>Office Depot</li>",
        ]);
        let d = DictionaryAnnotator::new(["Office Depot", "BestBuy"], MatchMode::Exact);
        let labels = d.annotate(&site);
        assert_eq!(labels.len(), 3);
        for n in &labels {
            let t = site.text_of(*n).unwrap();
            assert!(t == "Office Depot" || t == "BestBuy");
        }
    }

    #[test]
    fn empty_dictionary_annotates_nothing() {
        let site = Site::from_html(&["<li>anything</li>"]);
        let d = DictionaryAnnotator::new(Vec::<String>::new(), MatchMode::Contains);
        assert!(d.annotate(&site).is_empty());
        assert!(d.is_empty());
    }

    /// The matcher as first written: every window joined into a fresh
    /// string. [`DictionaryAnnotator::matches`] must agree with it.
    fn join_matches(d: &DictionaryAnnotator, text: &str) -> bool {
        let norm = normalize(text);
        if norm.is_empty() {
            return false;
        }
        if d.entries.contains(&norm) {
            return true;
        }
        if d.mode == MatchMode::Exact {
            return false;
        }
        let words: Vec<&str> = norm.split(' ').collect();
        (0..words.len()).any(|start| {
            ((start + 1)..=(start + 5).min(words.len()))
                .any(|end| d.entries.contains(&words[start..end].join(" ")))
        })
    }

    #[test]
    fn windows_agree_with_the_join_oracle_on_whitespace_and_case() {
        let entries = ["Main Street", "ÉCOLE", "a b c d e", "x", "straße nord"];
        let texts = [
            "",
            " ",
            "\u{a0}MAIN\u{2003}street\t",
            "123 main  street suite",
            "école\u{3000}des arts",
            "ÉCOLE",
            "z a b c d e",
            "a b c d e f",
            "a b c d",
            "X",
            "xx",
            "STRASSE NORD",
            "Straße\nNord 4",
            "İstanbul x",
            "main\u{85}street",
        ];
        for mode in [MatchMode::Exact, MatchMode::Contains] {
            let d = DictionaryAnnotator::new(entries, mode);
            for text in texts {
                assert_eq!(d.matches(text), join_matches(&d, text), "{mode:?} {text:?}");
            }
        }
    }

    #[test]
    fn windows_agree_with_the_join_oracle_on_every_corpus_text_node() {
        use aw_sitegen::{
            generate_dealers, generate_disc, generate_products, DealersConfig, DiscConfig,
            ProductsConfig,
        };
        let dealers = generate_dealers(&DealersConfig::small(6, 0xA11));
        let disc = generate_disc(&DiscConfig::small(4, 0xA12));
        let products = generate_products(&ProductsConfig::small(4, 0xA13));
        let corpora = [
            (&dealers.sites, &dealers.dictionary),
            (&disc.sites, &disc.track_dictionary),
            (&disc.sites, &disc.title_dictionary),
            (&products.sites, &products.dictionary),
        ];
        let mut labeled = 0;
        for (sites, dictionary) in corpora {
            for mode in [MatchMode::Exact, MatchMode::Contains] {
                let d = DictionaryAnnotator::new(dictionary.iter(), mode);
                for gs in sites {
                    let site = &gs.site;
                    let oracle: Labels = site
                        .text_nodes()
                        .iter()
                        .copied()
                        .filter(|&n| join_matches(&d, site.text_of(n).unwrap()))
                        .collect();
                    assert_eq!(d.annotate(site), oracle, "{mode:?}");
                    labeled += oracle.len();
                }
            }
        }
        assert!(labeled > 100, "{labeled}");
    }

    #[test]
    fn normalization() {
        assert_eq!(normalize("  A  B\tC "), "a b c");
        assert_eq!(normalize(""), "");
    }
}
