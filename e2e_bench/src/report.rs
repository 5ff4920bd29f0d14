//! The metric catalogue and the result of one run.
//!
//! Names and units here must match `BENCHMARK.json`; a run that does
//! not produce every metric of its mode is a bug and panics.

use crate::stats::{grouped_percentile, median, percentile, Slowdown};
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pages_per_s", "pages/s"),
    ("p50_ms_low", "ms"),
    ("p50_ms_high", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer's time is its self time as a share of the traced operations'
/// time (`× trace.us_per_op` gives µs per operation): a layer a workload
/// never enters then reads a share of 0, never a time of 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.us_per_op", "us"),
    ("trace.overhead", "share"),
    ("coverage", "share"),
    ("setup.open_us", "us"),
    ("setup.registry_us", "us"),
    ("setup.start_us", "us"),
    ("http.wire.share", "share"),
    ("http.queue.share", "share"),
    ("http.bytes_in", "bytes"),
    ("http.bytes_out", "bytes"),
    ("decode.share", "share"),
    ("decode.bytes_per_req", "bytes"),
    ("route.share", "share"),
    ("route.fault.share", "share"),
    ("route.faults", "count"),
    ("route.evictions", "count"),
    ("route.grace_hits", "count"),
    ("route.fault_ratio", "share"),
    ("parse.share", "share"),
    ("parse.nodes_per_page", "count"),
    ("parse.bytes_per_page", "bytes"),
    ("eval.share", "share"),
    ("eval.full.share", "share"),
    ("eval.frame.share", "share"),
    ("eval.cold.share", "share"),
    ("eval.full_replays", "count"),
    ("eval.frame_replays", "count"),
    ("eval.record_replays", "count"),
    ("eval.record_fallbacks", "count"),
    ("eval.misses", "count"),
    ("eval.replay_ratio", "share"),
    ("values.share", "share"),
    ("health.share", "share"),
    ("encode.share", "share"),
    ("encode.bytes_per_req", "bytes"),
    ("drop.share", "share"),
    ("annotate.share", "share"),
    ("enumerate.share.xpath", "share"),
    ("enumerate.share.lr", "share"),
    ("enumerate.inductor_calls_per_site.xpath", "count"),
    ("enumerate.inductor_calls_per_site.lr", "count"),
    ("enumerate.space_per_site.xpath", "count"),
    ("enumerate.space_per_site.lr", "count"),
    ("rank.share.xpath", "share"),
    ("rank.share.lr", "share"),
];

/// Where one set-up spent its time, in seconds.
#[derive(Clone, Copy)]
pub struct SetupTimes {
    /// Serve: `ArtifactReader::open`. Learn: `aw_eval::learn_model`.
    pub open_s: f64,
    /// Serve: `WrapperRegistry::from_bundle` / `from_store`. Learn: the
    /// engines.
    pub registry_s: f64,
    /// Serve: service, `Server::start` and the first `GET /healthz`.
    /// Learn: the executor the engines share.
    pub start_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.open_s + self.registry_s + self.start_s
    }
}

/// What one run measured and checked.
pub struct Outcome {
    workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness problems other than failed operations.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Prints a diagnostic line `workload name value unit`.
    pub fn note(&self, name: &str, value: impl std::fmt::Display, unit: &str) {
        println!("{} {name} {value} {unit}", self.workload);
    }

    /// Records a reported metric (and prints it like a diagnostic).
    pub fn metric(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(known, _)| *known == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.note(name, value, unit);
        self.metrics.insert(name, value);
    }

    /// Reports an open-loop phase's latency from the latencies of its
    /// slices, one per round, each with the round's [`Slowdown`]: p50 and
    /// p90 (median over groups of rounds, see [`grouped_percentile`]) with
    /// the sample count, and the pooled p99 against the workload's limit,
    /// all at the reference speed; the p50 of the measured latencies is
    /// printed as `p50_ms_<phase>.wall`. Only p50 is a metric: the tails
    /// follow the host's slow spells, and their spread between runs on a
    /// shared 2-core host reaches the largest bound a metric may have.
    pub fn latency(
        &mut self,
        phase: &str,
        slices: &[(Slowdown, &[f64])],
        unit: &str,
        p99_limit_ms: f64,
    ) {
        let wall: Vec<Vec<f64>> = slices.iter().map(|(_, l)| l.to_vec()).collect();
        let rounds: Vec<Vec<f64>> = slices
            .iter()
            .map(|&(slowdown, l)| l.iter().map(|&ms| slowdown.time(ms)).collect())
            .collect();
        let pooled = rounds.concat();
        self.note(&format!("{phase}.samples"), pooled.len(), unit);
        let p50 = format!("p50_ms_{phase}");
        self.note(&format!("{p50}.wall"), grouped_percentile(&wall, 0.5), "ms");
        self.metric(&p50, grouped_percentile(&rounds, 0.5));
        self.note(
            &format!("p90_ms_{phase}"),
            grouped_percentile(&rounds, 0.9),
            "ms",
        );
        // A percentile needs at least ten samples beyond it.
        let p99 = percentile(&pooled, 0.99);
        let p99_name = if pooled.len() >= 1000 {
            format!("{phase}.p99_ms")
        } else {
            format!("{phase}.p99_ms_undersampled")
        };
        self.note(&p99_name, p99, "ms");
        self.note(&format!("{phase}.p99_limit_ms"), p99_limit_ms, "ms");
        let verdict = if p99 <= p99_limit_ms { "met" } else { "missed" };
        self.note(&format!("{phase}.p99_limit"), verdict, "-");
    }

    /// Records a metric measured once per round as the median over rounds
    /// of its value at the reference speed (`at_reference` applies the
    /// round's [`Slowdown`]); the median of the measured values is printed
    /// beside it as `<name>.wall`, and the rounds' median slowdown as
    /// `<name>.slowdown`.
    pub fn per_round(
        &mut self,
        name: &str,
        rounds: &[(f64, Slowdown)],
        at_reference: fn(Slowdown, f64) -> f64,
    ) {
        let column =
            |f: &dyn Fn(&(f64, Slowdown)) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        self.note(&format!("{name}.slowdown"), column(&|r| r.1 .0), "x");
        let unit = END_TO_END
            .iter()
            .find(|(known, _)| *known == name)
            .map_or("-", |(_, unit)| unit);
        self.note(&format!("{name}.wall"), column(&|r| r.0), unit);
        self.metric(
            name,
            column(&|&(value, slowdown)| at_reference(slowdown, value)),
        );
    }

    /// Reports the median of each part of several set-ups, in µs.
    pub fn setup_parts(&mut self, setups: &[SetupTimes]) {
        let part =
            |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e6;
        self.metric("setup.open_us", part(|t| t.open_s));
        self.metric("setup.registry_us", part(|t| t.registry_s));
        self.metric("setup.start_us", part(|t| t.start_s));
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{}: metric {name} was not measured", self.workload));
                assert!(value.is_finite(), "{}: {name} = {value}", self.workload);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
