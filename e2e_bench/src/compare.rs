//! `--compare PARENT.jsonl CHANGE.jsonl`: judges every end-to-end metric
//! on every workload from two commits' run records (`target/bench/e2e.jsonl`
//! of each), with the bounds in `BENCHMARK.json`.
//!
//! A workload's runs pair up in file order, so record them alternating
//! parent and change; the two runs of a pair must have the same seed (a
//! mismatch is an error). A pair in which either run was incorrect is left
//! out of the metrics. Per workload, one `failed` row compares the failed
//! operations and incorrect runs of all pairs: more on the change side is
//! **regressed**, and then no metric of that workload may read improved.
//! Per metric × workload the verdict is:
//!
//! * **improved** — at least 10 pairs, the change wins at least 9 in 10
//!   of them (ties count for neither side), the medians differ by more
//!   than the parent's interquartile range, and the change failed no more
//!   than the parent;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound (a share of the parent's median);
//! * **unresolved** — fewer than 10 pairs, or either side's spread
//!   (interquartile range over median) is wider than the bound, unless
//!   every change run beats every parent run; also a gain that the
//!   change's extra failures void;
//! * **unchanged** — otherwise.

use crate::stats::quartiles;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let text = read_json(Path::new("BENCHMARK.json"))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(metrics)) = v.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without name")?
                    .into(),
                higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                bound: match m.get("bound") {
                    Some(Value::Number(b)) => *b,
                    _ => return Err("metric without bound".to_string()),
                },
            })
        })
        .collect()
}

/// One untraced run record.
#[derive(Debug)]
struct Run {
    seed: f64,
    correct: bool,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// `workload → untraced runs`, in file order.
type Runs = BTreeMap<String, Vec<Run>>;

fn runs(path: &Path) -> Result<Runs, String> {
    let mut out: Runs = BTreeMap::new();
    for (n, line) in read_json(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = || format!("{}:{}", path.display(), n + 1);
        let v = serde_json::from_str(line).map_err(|e| format!("{}: {e}", at()))?;
        if v.get("trace") != Some(&Value::Number(0.0)) {
            continue;
        }
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
        let result = v.get("result");
        let (Some(workload), Some(seed), Some(result)) = (
            v.get("workload").and_then(Value::as_str),
            field(&v, "seed"),
            result,
        ) else {
            return Err(format!("{}: record without workload, seed or result", at()));
        };
        let (Some(correct), Some(failed), Some(Value::Object(metrics))) = (
            result.get("correct"),
            field(result, "failed"),
            result.get("metrics"),
        ) else {
            return Err(format!(
                "{}: result without correct, failed or metrics",
                at()
            ));
        };
        let metrics = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), field(m, "value")?)))
            .collect();
        out.entry(workload.into()).or_default().push(Run {
            seed,
            correct: *correct == Value::Bool(true),
            failed,
            metrics,
        });
    }
    Ok(out)
}

/// Pairs a workload's runs in file order; both runs of a pair must have
/// used the same seed, or their inputs differ.
fn pair<'a>(
    workload: &str,
    parent: &'a [Run],
    change: &'a [Run],
) -> Result<Vec<(&'a Run, &'a Run)>, String> {
    let pairs: Vec<(&Run, &Run)> = parent.iter().zip(change).collect();
    match pairs
        .iter()
        .enumerate()
        .find(|(_, (p, c))| p.seed != c.seed)
    {
        Some((i, (p, c))) => Err(format!(
            "{workload}: pair {} ran seed {} on the parent and seed {} on the change",
            i + 1,
            p.seed,
            c.seed
        )),
        None => Ok(pairs),
    }
}

/// The verdict for one metric on one workload.
fn verdict(
    parent: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: f64,
    more_failures: bool,
) -> &'static str {
    let pairs = parent.len().min(change.len());
    if pairs < 10 {
        return "unresolved";
    }
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let (p1, pm, p3) = quartiles(parent);
    let (c1, cm, c3) = quartiles(change);
    if wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > p3 - p1 {
        return if more_failures {
            "unresolved"
        } else {
            "improved"
        };
    }
    let worse_by = if higher_is_better { pm - cm } else { cm - pm };
    if worse_by > bound * pm.abs() {
        return "regressed";
    }
    let spread = |q1: f64, q3: f64, m: f64| (q3 - q1) / m.abs();
    let separated = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    if (spread(p1, p3, pm) > bound || spread(c1, c3, cm) > bound) && !separated {
        return "unresolved";
    }
    "unchanged"
}

pub fn compare(parent: &Path, change: &Path) -> Result<(), String> {
    let bounds = bounds()?;
    let (parent, change) = (runs(parent)?, runs(change)?);
    println!(
        "{:<16} {:<14} {:>6} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "pairs", "parent", "change", "bound"
    );
    for (workload, parent_runs) in &parent {
        let change_runs = change.get(workload).map_or(&[][..], Vec::as_slice);
        let pairs = pair(workload, parent_runs, change_runs)?;
        // Failed operations and incorrect runs, over every pair.
        let failures = |runs: &mut dyn Iterator<Item = &Run>| {
            runs.fold((0.0, 0), |(failed, incorrect), run| {
                (failed + run.failed, incorrect + usize::from(!run.correct))
            })
        };
        let parent_failures = failures(&mut pairs.iter().map(|pair| pair.0));
        let change_failures = failures(&mut pairs.iter().map(|pair| pair.1));
        let more_failures =
            change_failures.0 > parent_failures.0 || change_failures.1 > parent_failures.1;
        println!(
            "{:<16} {:<14} {:>6} {:>14} {:>14} {:>8}  {}",
            workload,
            "failed",
            pairs.len(),
            format!("{}/{}", parent_failures.0, parent_failures.1),
            format!("{}/{}", change_failures.0, change_failures.1),
            "0",
            if more_failures {
                "regressed"
            } else {
                "unchanged"
            }
        );
        for b in &bounds {
            let (p, c): (Vec<f64>, Vec<f64>) = pairs
                .iter()
                .filter(|(p, c)| p.correct && c.correct)
                .filter_map(|(p, c)| Some((*p.metrics.get(&b.name)?, *c.metrics.get(&b.name)?)))
                .unzip();
            let median = |v: &[f64]| {
                if v.len() >= 2 {
                    quartiles(v).1
                } else {
                    f64::NAN
                }
            };
            println!(
                "{:<16} {:<14} {:>6} {:>14.6} {:>14.6} {:>8}  {}",
                workload,
                b.name,
                p.len().min(c.len()),
                median(&p),
                median(&c),
                b.bound,
                verdict(&p, &c, b.higher_is_better, b.bound, more_failures)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{pair, verdict};

    #[test]
    fn records_carry_seed_correctness_and_failures() {
        let path = std::env::temp_dir().join(format!("e2e-compare-{}.jsonl", std::process::id()));
        let record = |seed: u32, correct: bool, failed: u32| {
            format!(
                "{{\"workload\": \"w\", \"seed\": {seed}, \"trace\": 0, \"result\": {{\"correct\": {correct}, \"attempted\": 9, \"failed\": {failed}, \"metrics\": {{\"setup_s\": {{\"value\": 0.5, \"unit\": \"s\"}}}}}}}}\n"
            )
        };
        let traced = "{\"workload\": \"w\", \"seed\": 9, \"trace\": 1, \"result\": {}}\n";
        let text = record(1, true, 0) + traced + &record(2, false, 3);
        std::fs::write(&path, text).unwrap();
        let runs = super::runs(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let w = &runs["w"];
        assert_eq!(w.len(), 2, "traced records are skipped");
        assert_eq!((w[0].seed, w[0].correct, w[0].failed), (1.0, true, 0.0));
        assert_eq!((w[1].seed, w[1].correct, w[1].failed), (2.0, false, 3.0));
        assert_eq!(w[0].metrics["setup_s"], 0.5);

        assert_eq!(pair("w", w, w).unwrap().len(), 2);
        let err = pair("w", w, &w[1..]).unwrap_err();
        assert!(err.contains("seed 1 on the parent and seed 2"), "{err}");
    }

    fn series(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn verdicts() {
        // Lower is better; spreads are ~2% against a 10% bound.
        let parent = series(100.0, 0.2);
        assert_eq!(
            verdict(&parent, &series(90.0, 0.2), false, 0.1, false),
            "improved"
        );
        assert_eq!(
            verdict(&parent, &series(100.1, 0.2), false, 0.1, false),
            "unchanged"
        );
        assert_eq!(
            verdict(&parent, &series(115.0, 0.2), false, 0.1, false),
            "regressed"
        );
        // A spread wider than the bound is unresolved, not unchanged.
        assert_eq!(
            verdict(&series(80.0, 5.0), &series(81.0, 5.0), false, 0.1, false),
            "unresolved"
        );
        assert_eq!(
            verdict(&parent[..5], &parent[..5], false, 0.1, false),
            "unresolved"
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(&parent, &series(110.0, 0.2), true, 0.1, false),
            "improved"
        );
        // A gain does not count when the change failed more operations.
        assert_eq!(
            verdict(&parent, &series(90.0, 0.2), false, 0.1, true),
            "unresolved"
        );
    }
}
