//! Configuration of the noise-tolerant learner.

use aw_rank::RankingMode;

/// Which enumeration algorithm drives the generate step (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enumeration {
    /// Algorithm 1 — works for any well-behaved blackbox inductor.
    BottomUp,
    /// Algorithm 2 — requires a feature-based inductor; one call per
    /// member of its subset family, `k` when distinct closed sets induce
    /// distinct wrappers.
    TopDown,
    /// Exhaustive 2^|L| − 1 baseline (only for tiny label sets / tests).
    Naive,
}

/// Which wrapper language to learn (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WrapperLanguage {
    /// The xpath fragment of Dalvi et al. (SIGMOD 2009).
    XPath,
    /// WIEN's LR delimiter pairs (Kushmerick et al.).
    Lr,
    /// WIEN's HLRT (head/tail + LR). Blackbox only (no feature form here),
    /// so it always enumerates with `BottomUp`.
    Hlrt,
    /// The TABLE language of Example 1, grounded in the DOM grid
    /// (`aw_induct::DomTableInductor`): `<tr>`/`<td>` coordinates.
    Table,
}

impl WrapperLanguage {
    /// Every supported language, in the paper's presentation order.
    pub const ALL: [WrapperLanguage; 4] = [
        WrapperLanguage::Table,
        WrapperLanguage::Lr,
        WrapperLanguage::Hlrt,
        WrapperLanguage::XPath,
    ];

    /// Display name used in figures and serialized artifacts.
    pub fn name(self) -> &'static str {
        match self {
            WrapperLanguage::XPath => "XPATH",
            WrapperLanguage::Lr => "LR",
            WrapperLanguage::Hlrt => "HLRT",
            WrapperLanguage::Table => "TABLE",
        }
    }
}

impl std::fmt::Display for WrapperLanguage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for WrapperLanguage {
    type Err = crate::error::AwError;

    /// Parses a language name, case-insensitively (`"xpath"`, `"XPATH"`,
    /// …) — the inverse of [`WrapperLanguage::name`], also used by the
    /// CLI `--lang` flag and the wrapper artifact codec.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "xpath" => Ok(WrapperLanguage::XPath),
            "lr" => Ok(WrapperLanguage::Lr),
            "hlrt" => Ok(WrapperLanguage::Hlrt),
            "table" => Ok(WrapperLanguage::Table),
            _ => Err(crate::error::AwError::UnknownLanguage(s.to_string())),
        }
    }
}

/// Full learner configuration.
#[derive(Clone, Debug)]
pub struct NtwConfig {
    /// Enumeration algorithm.
    pub enumeration: Enumeration,
    /// Ranking components (NTW / NTW-L / NTW-X).
    pub mode: RankingMode,
    /// Labels beyond this count are evenly subsampled for *enumeration*
    /// (ranking always uses the full label set). Bounds the `k·|L|` cost
    /// of BottomUp on label-rich sites.
    pub max_enumeration_labels: usize,
}

impl Default for NtwConfig {
    fn default() -> Self {
        NtwConfig {
            enumeration: Enumeration::TopDown,
            mode: RankingMode::Full,
            max_enumeration_labels: 32,
        }
    }
}

impl NtwConfig {
    /// Convenience: default config with a specific enumeration.
    pub fn with_enumeration(enumeration: Enumeration) -> Self {
        NtwConfig {
            enumeration,
            ..Default::default()
        }
    }

    /// Convenience: default config with a specific ranking mode.
    pub fn with_mode(mode: RankingMode) -> Self {
        NtwConfig {
            mode,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = NtwConfig::default();
        assert_eq!(c.enumeration, Enumeration::TopDown);
        assert_eq!(c.mode, RankingMode::Full);
        assert!(c.max_enumeration_labels >= 16);
    }

    #[test]
    fn language_names() {
        assert_eq!(WrapperLanguage::XPath.name(), "XPATH");
        assert_eq!(WrapperLanguage::Lr.name(), "LR");
        assert_eq!(WrapperLanguage::Hlrt.name(), "HLRT");
        assert_eq!(WrapperLanguage::Table.name(), "TABLE");
    }

    #[test]
    fn language_display_and_parse_round_trip() {
        for lang in WrapperLanguage::ALL {
            assert_eq!(lang.to_string(), lang.name());
            assert_eq!(lang.name().parse::<WrapperLanguage>().unwrap(), lang);
            assert_eq!(
                lang.name()
                    .to_ascii_lowercase()
                    .parse::<WrapperLanguage>()
                    .unwrap(),
                lang
            );
        }
        assert!("csv".parse::<WrapperLanguage>().is_err());
    }
}
