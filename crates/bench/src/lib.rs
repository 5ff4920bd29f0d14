//! # aw-bench — shared scaffolding for the figure/table benchmarks
//!
//! Every `[[bench]]` target in this crate regenerates one figure or table
//! of the paper and prints the corresponding rows/series. Dataset sizes
//! default to the paper's (330 DEALERS / 15 DISC / 10 PRODUCTS websites);
//! set `AW_SCALE=quick` for a fast smoke run.

use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_sitegen::{
    generate_dealers, generate_disc, generate_products, DealersConfig, DealersDataset, DiscConfig,
    DiscDataset, ProductsConfig, ProductsDataset,
};

/// Benchmark scale, from the `AW_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized datasets (default).
    Full,
    /// Reduced datasets for smoke runs (`AW_SCALE=quick`).
    Quick,
}

/// Reads the scale from the environment.
pub fn scale() -> Scale {
    parse_scale(std::env::var("AW_SCALE").ok().as_deref())
}

/// The scale an `AW_SCALE` value selects: `quick` is [`Scale::Quick`],
/// anything else (or no value) is [`Scale::Full`].
fn parse_scale(value: Option<&str>) -> Scale {
    match value {
        Some("quick") => Scale::Quick,
        _ => Scale::Full,
    }
}

/// The DEALERS dataset at the current scale, with its dictionary annotator.
pub fn dealers() -> (DealersDataset, DictionaryAnnotator) {
    dealers_at(scale())
}

fn dealers_at(scale: Scale) -> (DealersDataset, DictionaryAnnotator) {
    let cfg = match scale {
        Scale::Full => DealersConfig::default(),
        Scale::Quick => DealersConfig::small(24, 0xDEA1),
    };
    let ds = generate_dealers(&cfg);
    let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    (ds, annot)
}

/// A reduced DEALERS dataset for the quadratic-cost experiments
/// (Table 1's 30-cell grid re-learns models per cell).
pub fn dealers_for_grid() -> DealersDataset {
    dealers_for_grid_at(scale())
}

fn dealers_for_grid_at(scale: Scale) -> DealersDataset {
    let cfg = match scale {
        // §7.4 annotates 25 webpages per site; we use 12 slightly smaller
        // pages (similar label mass) to keep the 30-cell grid fast.
        Scale::Full => DealersConfig {
            sites: 80,
            pages_per_site: 12,
            ..DealersConfig::default()
        },
        Scale::Quick => DealersConfig::small(16, 0xDEA1),
    };
    generate_dealers(&cfg)
}

/// The DISC dataset at the current scale, with its track annotator.
pub fn disc() -> (DiscDataset, DictionaryAnnotator) {
    disc_at(scale())
}

fn disc_at(scale: Scale) -> (DiscDataset, DictionaryAnnotator) {
    let cfg = match scale {
        Scale::Full => DiscConfig::default(),
        Scale::Quick => DiscConfig::small(6, 0xD15C),
    };
    let ds = generate_disc(&cfg);
    let annot = DictionaryAnnotator::new(ds.track_dictionary.iter(), MatchMode::Exact);
    (ds, annot)
}

/// The PRODUCTS dataset at the current scale, with its model annotator.
pub fn products() -> (ProductsDataset, DictionaryAnnotator) {
    products_at(scale())
}

fn products_at(scale: Scale) -> (ProductsDataset, DictionaryAnnotator) {
    let cfg = match scale {
        Scale::Full => ProductsConfig::default(),
        Scale::Quick => ProductsConfig::small(4, 0x9800),
    };
    let ds = generate_products(&cfg);
    let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    (ds, annot)
}

/// If `AW_JSON_DIR` is set, serializes an experiment result there as
/// `<name>.json` (for plot regeneration); silently does nothing otherwise.
pub fn maybe_write_json<T: serde::Serialize>(name: &str, value: &T) {
    if let Ok(dir) = std::env::var("AW_JSON_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.json"));
        if let Err(e) = aw_eval::write_json(&path, value) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Prints the standard bench header.
pub fn header(figure: &str, description: &str) {
    println!("==============================================================");
    println!("{figure}: {description}");
    println!("scale: {:?}", scale());
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_full() {
        assert_eq!(parse_scale(None), Scale::Full);
        assert_eq!(parse_scale(Some("full")), Scale::Full);
        assert_eq!(parse_scale(Some("QUICK")), Scale::Full);
        assert_eq!(parse_scale(Some("quick")), Scale::Quick);
    }

    #[test]
    fn quick_datasets_generate() {
        let (d, _) = dealers_at(Scale::Quick);
        assert!(!d.sites.is_empty());
        assert!(!dealers_for_grid_at(Scale::Quick).sites.is_empty());
        let (c, _) = disc_at(Scale::Quick);
        assert!(!c.sites.is_empty());
        let (p, _) = products_at(Scale::Quick);
        assert!(!p.sites.is_empty());
    }
}
