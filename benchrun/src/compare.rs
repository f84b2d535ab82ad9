//! `benchrun compare <a.json> <b.json>`: holds two `--all` documents
//! against each other, one row per workload × end-to-end metric, with the
//! direction and the bound `BENCHMARK.json` fixes for the metric.
//!
//! * `ok` — `b` is no worse than `a` by more than the bound;
//! * `regressed` — it is worse by more than the bound;
//! * `unresolved` — one of the two files' own slices spread wider than the
//!   bound, so the difference between the files decides nothing.
//!
//! Exact counts of the traced run are compared for equality and listed
//! when they differ.  Every change is printed with its base.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{self, WORKLOADS};
use crate::stats;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// The share of the base by which the metric may get worse.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` document.
pub fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .ok_or("the spec has no end_to_end list")?
        .items()
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("an end_to_end entry lacks {key}"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

/// The distance between the first and third quartile as a share of the
/// median, the quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them.  0 for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median = stats::quantile_sorted(&v, 0.5);
    (quartile(3) - quartile(1)) / median
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The spread of a file's own slices exceeds the bound.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Judges one pair of values.
pub fn judge(a: f64, b: f64, spread: f64, bound: &Bound) -> Verdict {
    if spread > bound.bound {
        Verdict::Unresolved
    } else if worsening(a, b, bound.higher_is_better) > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn metric<'a>(doc: &'a Json, workload: &str, run: &str, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .get(workload)?
        .get(run)?
        .get("metrics")?
        .get(name)
}

fn failed(doc: &Json, workload: &str) -> f64 {
    ["end_to_end", "per_layer"]
        .iter()
        .filter_map(|run| {
            doc.get("workloads")?
                .get(workload)?
                .get(run)?
                .get("failed")?
                .as_f64()
        })
        .sum()
}

/// Compares two documents; returns the table and whether `b` passes.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a (base)", "b", "worse by", "bound", "spread"
    );
    for workload in WORKLOADS {
        for bound in bounds {
            let side = |doc: &Json| -> Result<(f64, f64), String> {
                let m = metric(doc, workload, "end_to_end", &bound.name)
                    .ok_or_else(|| format!("{workload}/{} is missing", bound.name))?;
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("a metric has no value")?;
                let slices: Vec<f64> = m
                    .get("slices")
                    .map(|s| s.items().iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default();
                Ok((value, quartile_spread(&slices)))
            };
            let ((va, sa), (vb, sb)) = (side(a)?, side(b)?);
            let spread = sa.max(sb);
            let verdict = judge(va, vb, spread, bound);
            pass &= verdict != Verdict::Regressed;
            let _ = writeln!(
                out,
                "{workload:<16} {:<14} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}% {:>7.2}%  {}",
                bound.name,
                100.0 * worsening(va, vb, bound.higher_is_better),
                100.0 * bound.bound,
                100.0 * spread,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (failed(a, workload), failed(b, workload));
        if fb > fa {
            pass = false;
            let _ = writeln!(
                out,
                "{workload:<16} failed operations rose from {fa} to {fb}: regressed"
            );
        }
        let mut same = 0;
        for name in spec::EXACT {
            let value = |doc| {
                metric(doc, workload, "per_layer", name)?
                    .get("value")?
                    .as_f64()
            };
            match (value(a), value(b)) {
                (Some(x), Some(y)) if x == y => same += 1,
                (x, y) => {
                    let _ = writeln!(
                        out,
                        "{workload:<16} exact count {name}: {x:?} -> {y:?}: changed"
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{workload:<16} exact counts identical: {same} of {}",
            spec::EXACT.len()
        );
    }
    Ok((out, pass))
}

/// `compare <a.json> <b.json> [--spec <file>]`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (mut files, mut spec_path) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = it.next().ok_or("--spec needs a file")?.clone();
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else {
        return Err("compare takes two result files".to_string());
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, pass) = compare(&read(a)?, &read(b)?, &bounds(&read(&spec_path)?)?)?;
    print!("{table}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert!((quartile_spread(&[5.0, 1.0, 4.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    #[test]
    fn verdicts() {
        let lower = Bound {
            name: "p50_us".to_string(),
            higher_is_better: false,
            bound: 0.1,
        };
        let higher = Bound {
            higher_is_better: true,
            ..lower.clone()
        };
        assert_eq!(judge(100.0, 109.0, 0.0, &lower), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, 0.0, &lower), Verdict::Regressed);
        assert_eq!(judge(100.0, 50.0, 0.0, &lower), Verdict::Ok);
        assert_eq!(judge(100.0, 89.0, 0.0, &higher), Verdict::Regressed);
        assert_eq!(judge(100.0, 200.0, 0.0, &higher), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, 0.2, &lower), Verdict::Unresolved);
    }
}
