//! The metrics registry: monotone counters, gauges, and log-bucketed
//! (HDR-style) histograms, with Prometheus text exposition and JSON
//! export.
//!
//! Everything is built on `pascalr-sync` atomics under the workspace's
//! documented ordering policy: **statistics use `Relaxed`** — they count
//! work, they never order it (see `pascalr-storage`'s "Atomic ordering
//! policy"). The registry itself is immutable after construction
//! ([`RegistryBuilder`] hands out `Arc` handles, [`RegistryBuilder::build`]
//! freezes the metric list), so recording touches no lock anywhere.
//!
//! Histograms bucket values by powers of two (bucket *i* holds values in
//! `[2^(i-1), 2^i - 1]`), giving HDR-style sub-2× relative error across
//! the full `u64` range in 65 fixed buckets — enough for nanosecond
//! latencies from sub-microsecond index probes to multi-second scans.

use std::fmt::Write as _;

use pascalr_sync::atomic::{AtomicU64, Ordering};
use pascalr_sync::Arc;

/// Number of histogram buckets (value 0, then one per power of two).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotone counter. `Relaxed` throughout: totals are exact after the
/// recording threads are joined, unordered while they run.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter not (yet) attached to any registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (e.g. plan-cache residency).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge not (yet) attached to any registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the gauge.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram over `u64` observations (typically
/// nanoseconds). Fixed 65-bucket power-of-two layout; recording is two
/// relaxed `fetch_add`s plus a relaxed max update.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A histogram not (yet) attached to any registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index holding `value`: 0 for 0, else `64 - leading_zeros`
    /// (so bucket *i* covers `[2^(i-1), 2^i - 1]`).
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `index` (`u64::MAX` for the last).
    #[must_use]
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation seen.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative), index 0 first.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket where the cumulative count crosses `q * count`. Zero when
    /// empty. Error is bounded by the bucket width (< 2× the value).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Self::bucket_upper_bound(index).min(self.max());
            }
        }
        self.max()
    }
}

struct CounterEntry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    counter: Arc<Counter>,
}

struct GaugeEntry {
    name: &'static str,
    help: &'static str,
    gauge: Arc<Gauge>,
}

struct HistogramEntry {
    name: &'static str,
    help: &'static str,
    histogram: Arc<Histogram>,
}

/// Builds a [`Registry`]: declare metrics, keep the returned `Arc`
/// handles for the hot paths, then freeze with [`RegistryBuilder::build`].
#[derive(Default)]
pub struct RegistryBuilder {
    counters: Vec<CounterEntry>,
    gauges: Vec<GaugeEntry>,
    histograms: Vec<HistogramEntry>,
}

impl RegistryBuilder {
    /// Start an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare an unlabeled counter and return its handle.
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> Arc<Counter> {
        self.counter_with_labels(name, help, &[])
    }

    /// Declare a counter carrying fixed labels (one time series of the
    /// family per call) and return its handle.
    pub fn counter_with_labels(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        let counter = Arc::new(Counter::new());
        self.counters.push(CounterEntry {
            name,
            help,
            labels: labels.iter().map(|(k, v)| (*k, (*v).to_owned())).collect(),
            counter: Arc::clone(&counter),
        });
        counter
    }

    /// Declare a gauge and return its handle.
    pub fn gauge(&mut self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let gauge = Arc::new(Gauge::new());
        self.gauges.push(GaugeEntry {
            name,
            help,
            gauge: Arc::clone(&gauge),
        });
        gauge
    }

    /// Declare a histogram and return its handle.
    pub fn histogram(&mut self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::new());
        self.histograms.push(HistogramEntry {
            name,
            help,
            histogram: Arc::clone(&histogram),
        });
        histogram
    }

    /// Freeze the metric list.
    #[must_use]
    pub fn build(self) -> Registry {
        Registry {
            counters: self.counters,
            gauges: self.gauges,
            histograms: self.histograms,
        }
    }
}

/// An immutable set of registered metrics. Reading and recording are
/// lock-free; the registry only iterates its frozen entry list to render.
pub struct Registry {
    counters: Vec<CounterEntry>,
    gauges: Vec<GaugeEntry>,
    histograms: Vec<HistogramEntry>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.len())
            .field("gauges", &self.gauges.len())
            .field("histograms", &self.histograms.len())
            .finish()
    }
}

fn label_suffix(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (index, (key, value)) in labels.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{value}\"");
    }
    out.push('}');
    out
}

impl Registry {
    /// Sum of a counter family across all its label sets (0 if unknown).
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.counter.get())
            .sum()
    }

    /// Value of a counter with an exact label set, if registered.
    #[must_use]
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| {
                c.name == name
                    && c.labels.len() == labels.len()
                    && c.labels
                        .iter()
                        .zip(labels)
                        .all(|((ck, cv), (k, v))| ck == k && cv == v)
            })
            .map(|c| c.counter.get())
    }

    /// Value of a gauge, if registered.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.gauge.get())
    }

    /// Handle to a histogram, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| Arc::clone(&h.histogram))
    }

    /// Render the registry in the Prometheus text exposition format
    /// (0.0.4): `# HELP` / `# TYPE` headers per family, cumulative
    /// `_bucket{le=…}` series plus `_sum` / `_count` for histograms.
    /// Only buckets up to the highest occupied one are emitted (plus
    /// `+Inf`), keeping the page compact; `le` sets may be sparse.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for entry in &self.counters {
            if !seen.contains(&entry.name) {
                seen.push(entry.name);
                let _ = writeln!(out, "# HELP {} {}", entry.name, entry.help);
                let _ = writeln!(out, "# TYPE {} counter", entry.name);
                for series in self.counters.iter().filter(|c| c.name == entry.name) {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        series.name,
                        label_suffix(&series.labels),
                        series.counter.get()
                    );
                }
            }
        }
        for entry in &self.gauges {
            let _ = writeln!(out, "# HELP {} {}", entry.name, entry.help);
            let _ = writeln!(out, "# TYPE {} gauge", entry.name);
            let _ = writeln!(out, "{} {}", entry.name, entry.gauge.get());
        }
        for entry in &self.histograms {
            let _ = writeln!(out, "# HELP {} {}", entry.name, entry.help);
            let _ = writeln!(out, "# TYPE {} histogram", entry.name);
            let counts = entry.histogram.bucket_counts();
            let last_occupied = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            let mut cumulative = 0u64;
            for (index, count) in counts.iter().enumerate().take(last_occupied + 1) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{}_bucket{{le=\"{}\"}} {}",
                    entry.name,
                    Histogram::bucket_upper_bound(index),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{{le=\"+Inf\"}} {}",
                entry.name,
                entry.histogram.count()
            );
            let _ = writeln!(out, "{}_sum {}", entry.name, entry.histogram.sum());
            let _ = writeln!(out, "{}_count {}", entry.name, entry.histogram.count());
        }
        out
    }

    /// Render the registry as a JSON document (hand-rolled: the workspace
    /// has no serialization framework). Metric names and label keys are static
    /// identifiers, so no string escaping is required beyond quoting.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":[");
        for (index, entry) in self.counters.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"labels\":{{", entry.name);
            for (label_index, (key, value)) in entry.labels.iter().enumerate() {
                if label_index > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{key}\":\"{value}\"");
            }
            let _ = write!(out, "}},\"value\":{}}}", entry.counter.get());
        }
        out.push_str("],\"gauges\":[");
        for (index, entry) in self.gauges.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"value\":{}}}",
                entry.name,
                entry.gauge.get()
            );
        }
        out.push_str("],\"histograms\":[");
        for (index, entry) in self.histograms.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                entry.name,
                entry.histogram.count(),
                entry.histogram.sum(),
                entry.histogram.max()
            );
            let counts = entry.histogram.bucket_counts();
            let mut first = true;
            for (bucket_index, count) in counts.iter().enumerate() {
                if *count == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"le\":{},\"count\":{}}}",
                    Histogram::bucket_upper_bound(bucket_index),
                    count
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Histogram::bucket_upper_bound(10), 1023);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        // Every boundary value lands in the bucket whose upper bound it is.
        for index in 1..64 {
            let upper = Histogram::bucket_upper_bound(index);
            assert_eq!(Histogram::bucket_index(upper), index);
            assert_eq!(Histogram::bucket_index(upper + 1), index + 1);
        }
    }

    #[test]
    fn histogram_records_count_sum_max_quantile() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 900, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1906);
        assert_eq!(h.max(), 1000);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 2);
        assert_eq!(counts[10], 2);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 1000); // clamped to the observed max
        assert!(h.quantile(0.5) <= 3);
    }

    #[test]
    fn registry_renders_and_looks_up() {
        let mut builder = RegistryBuilder::new();
        let c = builder.counter("t_queries_total", "Queries executed.");
        let l1 = builder.counter_with_labels("t_level_total", "Per level.", &[("level", "s1")]);
        let l2 = builder.counter_with_labels("t_level_total", "Per level.", &[("level", "s2")]);
        let g = builder.gauge("t_entries", "Entries resident.");
        let h = builder.histogram("t_latency_nanoseconds", "Latency.");
        let registry = builder.build();
        c.add(3);
        l1.inc();
        l2.add(2);
        g.set(7);
        h.record(100);
        assert_eq!(registry.counter_total("t_queries_total"), 3);
        assert_eq!(registry.counter_total("t_level_total"), 3);
        assert_eq!(
            registry.counter_value("t_level_total", &[("level", "s2")]),
            Some(2)
        );
        assert_eq!(registry.gauge_value("t_entries"), Some(7));
        assert_eq!(
            registry
                .histogram("t_latency_nanoseconds")
                .expect("histogram")
                .count(),
            1
        );
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE t_queries_total counter"));
        assert!(text.contains("t_level_total{level=\"s2\"} 2"));
        assert!(text.contains("t_latency_nanoseconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("t_latency_nanoseconds_sum 100"));
        let json = registry.to_json();
        assert!(json.contains("\"name\":\"t_queries_total\",\"labels\":{},\"value\":3"));
        assert!(json.contains("\"name\":\"t_entries\",\"value\":7"));
        assert!(json.contains("\"le\":127,\"count\":1"));
    }
}
