//! Figures 3(a) and 3(b): multi-type (name + zipcode) extraction on
//! DEALERS — NAIVE vs NTW, and joint vs single-type per-field accuracy.

use crate::harness::{learn_annotator, learn_model, split_half, Method};
use crate::metrics::{macro_average, prf1, PrF1};
use crate::parallel::executor;
use aw_annotate::{annotate_zipcodes, DictionaryAnnotator};
use aw_core::{assemble_records, learn_multi_type, Engine, MultiTypeModel, NtwConfig};
use aw_induct::{NodeSet, Site, WrapperInductor, XPathInductor};
use aw_sitegen::{DealersDataset, GeneratedSite};
use serde::Serialize;

/// Record-level and per-field scores for one method.
#[derive(Clone, Debug, Serialize)]
pub struct MultiTypeOutcomeRow {
    /// NAIVE or NTW.
    pub method: Method,
    /// Record-level P/R/F (a record counts when both fields are right).
    pub records: PrF1,
    /// Field-level score for names.
    pub names: PrF1,
    /// Field-level score for zipcodes.
    pub zips: PrF1,
}

/// The Figure 3(a)/3(b) bundle.
#[derive(Clone, Debug, Serialize)]
pub struct MultiTypeResult {
    /// NAIVE and NTW record/field scores (Figure 3a).
    pub rows: Vec<MultiTypeOutcomeRow>,
    /// Single-type extraction baselines per field (Figure 3b): F1 of
    /// names and zips when each type is learned alone with NTW.
    pub single_names: PrF1,
    /// Single-type zips baseline.
    pub single_zips: PrF1,
}

/// Runs the multi-type experiment on a DEALERS dataset.
pub fn run(ds: &DealersDataset) -> MultiTypeResult {
    let name_annot =
        DictionaryAnnotator::new(ds.dictionary.iter(), aw_annotate::MatchMode::Contains);
    let name_labels = |s: &GeneratedSite| name_annot.annotate(&s.site);
    let zip_labels = |s: &GeneratedSite| annotate_zipcodes(&s.site);

    let (train, test) = split_half(&ds.sites);
    // Models: full ranking model on names; per-type annotators; shared
    // publication model (record segments are the same object).
    let name_model = learn_model(&train, name_labels);
    let zip_annotator = learn_annotator(&train, 1, zip_labels);
    let mt_model = MultiTypeModel {
        annotators: vec![name_model.annotator, zip_annotator],
        publication: name_model.publication.clone(),
        pin_indel_cost: 3,
    };

    // NTW multi-type.
    let ntw_scores: Vec<(PrF1, PrF1, PrF1)> = executor().map(&test, |gs| {
        let labels = [name_labels(gs), zip_labels(gs)];
        let out = learn_multi_type(&gs.site, &labels, &mt_model, &NtwConfig::default());
        match out.best() {
            Some(best) => score_records(gs, &best.extractions[0], &best.extractions[1]),
            None => (PrF1::ZERO, PrF1::ZERO, PrF1::ZERO),
        }
    });

    // NAIVE multi-type: φ on all labels per type, then assembly.
    let naive_scores: Vec<(PrF1, PrF1, PrF1)> = executor().map(&test, |gs| {
        let inductor = XPathInductor::new(&gs.site);
        let x0 = inductor.extract(&name_labels(gs));
        let x1 = inductor.extract(&zip_labels(gs));
        score_records(gs, &x0, &x1)
    });

    // Single-type baselines (Figure 3b), each through its own Engine.
    let name_engine = Engine::builder(name_model.clone()).build();
    let single_names = macro_average(&executor().map(&test, |gs| {
        let extraction = name_engine
            .learn(&gs.site, &name_labels(gs))
            .ok()
            .and_then(|out| out.best().map(|w| w.extraction.clone()))
            .unwrap_or_default();
        prf1(&extraction, &gs.gold_types[0])
    }));
    let zip_model = learn_model_for_zips(&train, zip_labels);
    let zip_engine = Engine::builder(zip_model).build();
    let single_zips = macro_average(&executor().map(&test, |gs| {
        let extraction = zip_engine
            .learn(&gs.site, &zip_labels(gs))
            .ok()
            .and_then(|out| out.best().map(|w| w.extraction.clone()))
            .unwrap_or_default();
        prf1(&extraction, &gs.gold_types[1])
    }));

    let collect = |method, scores: Vec<(PrF1, PrF1, PrF1)>| MultiTypeOutcomeRow {
        method,
        records: macro_average(&scores.iter().map(|s| s.0).collect::<Vec<_>>()),
        names: macro_average(&scores.iter().map(|s| s.1).collect::<Vec<_>>()),
        zips: macro_average(&scores.iter().map(|s| s.2).collect::<Vec<_>>()),
    };
    MultiTypeResult {
        rows: vec![
            collect(Method::Naive, naive_scores),
            collect(Method::Ntw, ntw_scores),
        ],
        single_names,
        single_zips,
    }
}

/// Like `learn_model` but with the zip gold type.
fn learn_model_for_zips<F>(train: &[&GeneratedSite], labels_of: F) -> aw_rank::RankingModel
where
    F: Fn(&GeneratedSite) -> NodeSet,
{
    use aw_rank::{
        list_features, segment_site, ListFeatures, PublicationModel, RankingModel, SiteTokens,
    };
    let annotator = learn_annotator(train, 1, &labels_of);
    let mut features = Vec::new();
    for site in train {
        let tokens = SiteTokens::new(&site.site);
        if let Some(f) = list_features(&segment_site(&tokens, &site.gold_types[1])) {
            features.push(f);
        }
    }
    let publication = if features.is_empty() {
        PublicationModel::learn(&[ListFeatures {
            schema_size: 3.0,
            alignment: 0.0,
        }])
    } else {
        PublicationModel::learn(&features)
    };
    RankingModel::new(annotator, publication)
}

/// Scores a candidate pair: record-level (assembled pairs vs gold pairs)
/// plus per-field node scores.
fn score_records(gs: &GeneratedSite, x0: &NodeSet, x1: &NodeSet) -> (PrF1, PrF1, PrF1) {
    let records = assemble_records(&gs.site, x0, x1);
    let gold_records = gold_record_pairs(&gs.site, &gs.gold_types[0], &gs.gold_types[1]);
    let extracted: std::collections::BTreeSet<_> = records
        .iter()
        .filter_map(|r| r.secondary.map(|s| (r.primary, s)))
        .collect();
    let record_score = if extracted.is_empty() || gold_records.is_empty() {
        if gold_records.is_empty() && extracted.is_empty() {
            PrF1::PERFECT
        } else {
            PrF1::ZERO
        }
    } else {
        let tp = extracted.intersection(&gold_records).count() as f64;
        PrF1::new(tp / extracted.len() as f64, tp / gold_records.len() as f64)
    };
    (
        record_score,
        prf1(x0, &gs.gold_types[0]),
        prf1(x1, &gs.gold_types[1]),
    )
}

fn gold_record_pairs(
    site: &Site,
    names: &NodeSet,
    zips: &NodeSet,
) -> std::collections::BTreeSet<(aw_dom::PageNode, aw_dom::PageNode)> {
    assemble_records(site, names, zips)
        .into_iter()
        .filter_map(|r| r.secondary.map(|s| (r.primary, s)))
        .collect()
}

impl std::fmt::Display for MultiTypeResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Multi-type (name + zipcode) extraction on DEALERS")?;
        writeln!(
            f,
            "{:>6} {:>10} {:>8} {:>8}   (record-level)",
            "method", "Precision", "Recall", "F1"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>6} {:>10.3} {:>8.3} {:>8.3}",
                row.method.name(),
                row.records.precision,
                row.records.recall,
                row.records.f1
            )?;
        }
        writeln!(f, "\nMulti-type vs single-type per-field F1 (Figure 3b)")?;
        writeln!(f, "{:>8} {:>8} {:>8}", "field", "MULTI", "SINGLE")?;
        let multi = &self.rows[1];
        writeln!(
            f,
            "{:>8} {:>8.3} {:>8.3}",
            "Name", multi.names.f1, self.single_names.f1
        )?;
        writeln!(
            f,
            "{:>8} {:>8.3} {:>8.3}",
            "Zipcode", multi.zips.f1, self.single_zips.f1
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_sitegen::{generate_dealers, DealersConfig};

    #[test]
    fn figure_3a_shape_on_sample() {
        let ds = generate_dealers(&DealersConfig::small(14, 71));
        let result = run(&ds);
        let naive = &result.rows[0];
        let ntw = &result.rows[1];
        assert_eq!(naive.method, Method::Naive);
        // The paper's headline: NAIVE's record F1 collapses, NTW's is high.
        assert!(
            ntw.records.f1 > naive.records.f1 + 0.2,
            "NTW {:?} vs NAIVE {:?}",
            ntw.records,
            naive.records
        );
        assert!(ntw.names.f1 > 0.6, "{:?}", ntw.names);
        assert!(result.to_string().contains("SINGLE"));
    }
}
