//! What one run of one workload reports, and the two forms it is printed
//! in: the contract's last line and the richer document `--out` writes.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec;

/// One measured value with, where the run has them, the values of its
/// slices (time slices of the window, or cycles) — the spread a single
/// run can show.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measured {
    /// The reported value.
    pub value: f64,
    /// Per-slice values; empty when the metric has none.
    pub slices: Vec<f64>,
    /// Number of samples behind the value; 0 when that says nothing.
    pub samples: u64,
}

/// The result of one run: counts of attempted and failed operations and
/// the metrics by name.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, checks of the correctness gate included.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Metric name → value.
    pub values: BTreeMap<String, Measured>,
}

impl Report {
    /// Records a value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(
            name.to_string(),
            Measured {
                value,
                ..Measured::default()
            },
        );
    }

    /// Records a value with its slices and sample count.
    pub fn set_sliced(&mut self, name: &str, value: f64, slices: Vec<f64>, samples: u64) {
        self.values.insert(
            name.to_string(),
            Measured {
                value,
                slices,
                samples,
            },
        );
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|m| m.value)
    }

    /// The metric list this run must print: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub fn names(trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            spec::per_layer()
        } else {
            spec::END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// The metrics in spec order.  An end-to-end metric that is missing,
    /// zero or not finite is an error: the run measured nothing there.  A
    /// per-layer metric the workload does not exercise reads 0.
    pub fn ordered(&self, trace: bool) -> Result<Vec<(String, &'static str, Measured)>, String> {
        let mut out = Vec::new();
        for (name, unit) in Report::names(trace) {
            let m = match self.values.get(&name) {
                Some(m) if m.value.is_finite() && (trace || m.value > 0.0) => m.clone(),
                Some(m) => return Err(format!("metric {name} is {}", m.value)),
                None if trace => Measured::default(),
                None => return Err(format!("metric {name} was not measured")),
            };
            out.push((name, unit, m));
        }
        if let Some(stray) = self
            .values
            .keys()
            .find(|k| !out.iter().any(|(n, _, _)| n == *k))
        {
            return Err(format!("metric {stray} is not in the spec"));
        }
        Ok(out)
    }

    /// Whether every output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self, trace: bool) -> Result<String, String> {
        let mut metrics = Json::obj();
        for (name, unit, m) in self.ordered(trace)? {
            metrics = metrics.with(&name, Json::obj().with("value", m.value).with("unit", unit));
        }
        Ok(Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .render())
    }

    /// The richer form: the contract's members plus each metric's slices
    /// and sample count.
    pub fn document(&self, trace: bool) -> Result<Json, String> {
        let mut metrics = Json::obj();
        for (name, unit, m) in self.ordered(trace)? {
            let mut entry = Json::obj().with("value", m.value).with("unit", unit);
            if !m.slices.is_empty() {
                entry = entry.with(
                    "slices",
                    m.slices.iter().map(|&s| Json::Num(s)).collect::<Vec<_>>(),
                );
            }
            if m.samples > 0 {
                entry = entry.with("samples", m.samples);
            }
            metrics = metrics.with(&name, entry);
        }
        Ok(Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics))
    }

    /// One line per metric, `name value unit`, for a person to read.
    pub fn table(&self, trace: bool) -> Result<String, String> {
        let mut out = String::new();
        for (name, unit, m) in self.ordered(trace)? {
            let samples = if m.samples > 0 {
                format!("  (n={})", m.samples)
            } else {
                String::new()
            };
            out.push_str(&format!("  {name:<34} {:>16.4} {unit}{samples}\n", m.value));
        }
        Ok(out)
    }
}
