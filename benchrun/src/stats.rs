//! Order statistics and the closed-loop measuring window.

use std::time::{Duration, Instant};

/// The `p`-quantile (`0.0..=1.0`) of an ascending slice, interpolating
/// between neighbours.  `NaN` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts and returns the `p`-quantile.
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, p)
}

/// The median of the values.
pub fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}

/// The median over operation classes of each class's median, the classes
/// weighted by their **nominal** share of the mix (`weights`, whole
/// numbers).
///
/// A pooled median over a few well separated latency classes sits wherever
/// the cumulative share crosses one half.  When that is the boundary
/// between two classes — sixteen equally frequent queries — the pooled
/// value flips between the slowest sample of one class and the fastest of
/// the next from run to run.  Taking each class at its own median and the
/// weights from the mix's definition, not from the realised counts, gives
/// the same number whenever the crossing lies inside a class and the mean
/// of the two neighbours when it lies on a boundary.
pub fn class_median(class_medians: &[f64], weights: &[u64]) -> f64 {
    let mut order: Vec<usize> = (0..class_medians.len())
        .filter(|&c| class_medians[c].is_finite())
        .collect();
    order.sort_by(|&a, &b| class_medians[a].total_cmp(&class_medians[b]));
    let total: u64 = order.iter().map(|&c| weights[c]).sum();
    let mut cumulative = 0;
    for (i, &c) in order.iter().enumerate() {
        cumulative += weights[c];
        if 2 * cumulative == total {
            if let Some(&next) = order.get(i + 1) {
                return (class_medians[c] + class_medians[next]) / 2.0;
            }
        }
        if 2 * cumulative >= total {
            return class_medians[c];
        }
    }
    f64::NAN
}

/// What one operation of a closed loop reports back.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// The operation's class within the workload's mix.
    pub class: u8,
    /// Wall time of the operation.
    pub ns: u64,
    /// Time from `rows()` to the first tuple, where the operation streams.
    pub ttft_ns: Option<u64>,
    /// Result rows delivered.
    pub rows: u64,
    /// Whether the operation succeeded and its output was right.
    pub ok: bool,
}

/// The number of equal slices a window is cut into; throughput is the
/// median over them.
pub const SLICES: usize = 5;

/// Latency samples with their classes, in execution order, in bounded
/// memory: once [`Samples::CAP`] are held every second one is dropped and
/// from then on only every second (fourth, eighth…) operation is recorded.
/// The sample stays evenly spread over the window, and the benchmark's own
/// buffer stays a small part of the `peak_rss_mb` it reports — two million
/// point lookups would otherwise put ten megabytes of samples beside a
/// twenty-megabyte database.
#[derive(Debug)]
pub struct Samples {
    /// Latency in nanoseconds.
    pub ns: Vec<u32>,
    /// Operation class, parallel to `ns`.
    pub class: Vec<u8>,
    stride: u64,
    seen: u64,
}

impl Default for Samples {
    fn default() -> Self {
        // Reserved at once: growing by doubling leaves freed halves behind
        // whose reuse differs from run to run, and with it the peak memory
        // the run reports.  Pages never written to stay out of it.
        Samples {
            ns: Vec::with_capacity(Samples::CAP),
            class: Vec::with_capacity(Samples::CAP),
            stride: 1,
            seen: 0,
        }
    }
}

impl Samples {
    /// Samples held at most.
    pub const CAP: usize = 1 << 18;

    /// Offers one operation's latency.
    pub fn push(&mut self, ns: u64, class: u8) {
        self.seen += 1;
        if !(self.seen - 1).is_multiple_of(self.stride) {
            return;
        }
        if self.ns.len() == Samples::CAP {
            let mut keep = [true, false].into_iter().cycle();
            self.ns.retain(|_| keep.next() == Some(true));
            let mut keep = [true, false].into_iter().cycle();
            self.class.retain(|_| keep.next() == Some(true));
            self.stride *= 2;
            if !(self.seen - 1).is_multiple_of(self.stride) {
                return;
            }
        }
        self.ns.push(ns.min(u64::from(u32::MAX)) as u32);
        self.class.push(class);
    }

    /// Operations offered, recorded or not.
    pub fn offered(&self) -> u64 {
        self.seen
    }

    /// The `p`-quantile in microseconds: where every one of the
    /// [`SLICES`] consecutive parts of the sample holds at least 1 000
    /// values, the median of the parts' quantiles — one burst of
    /// interference then moves one part, not the result; the pooled
    /// quantile otherwise.
    pub fn quantile_us(&self, p: f64) -> f64 {
        let us = |range: std::ops::Range<usize>| {
            let mut v: Vec<f64> = self.ns[range].iter().map(|&n| f64::from(n) / 1e3).collect();
            quantile(&mut v, p)
        };
        let n = self.ns.len();
        if n / SLICES >= 1000 {
            median(
                (0..SLICES)
                    .map(|s| us(n * s / SLICES..n * (s + 1) / SLICES))
                    .collect(),
            )
        } else {
            us(0..n)
        }
    }

    /// [`class_median`] of the sample, with its per-part values.
    pub fn class_median_us(&self, weights: &[u64]) -> (f64, Vec<f64>) {
        class_median_with_slices(&self.ns, &self.class, weights)
    }
}

/// Everything a closed-loop window recorded.
#[derive(Debug, Default)]
pub struct Window {
    /// Per-operation latency.
    pub latency: Samples,
    /// Per-operation time to first tuple (only for streaming operations).
    pub ttft: Samples,
    /// Operations completed in each slice.
    pub slice_ops: [u64; SLICES],
    /// Rows delivered in each slice.
    pub slice_rows: [u64; SLICES],
    /// When the last operation of each slice ended, in seconds since the
    /// window opened.
    pub slice_end: [f64; SLICES],
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that failed or answered wrongly, warm-up included.
    pub failed: u64,
}

/// Runs `op` back to back — one client that waits for each reply — for
/// `warmup` and then for `window`, recording the window.  `op` receives
/// the running operation number and times itself, so that drawing its
/// inputs is not on the clock.
pub fn closed_loop(
    warmup: Duration,
    window: Duration,
    mut op: impl FnMut(u64) -> OpResult,
) -> Window {
    let mut w = Window::default();
    let slice_seconds = window.as_secs_f64() / SLICES as f64;
    let mut i = 0;
    let start = Instant::now();
    while start.elapsed() < warmup {
        w.failed += u64::from(!op(i).ok);
        i += 1;
    }
    let start = Instant::now();
    loop {
        let r = op(i);
        i += 1;
        w.failed += u64::from(!r.ok);
        let end = start.elapsed();
        if end >= window {
            // The operation that crosses the end belongs to no slice.
            break;
        }
        let slice = ((end.as_secs_f64() / slice_seconds) as usize).min(SLICES - 1);
        w.slice_ops[slice] += 1;
        w.slice_rows[slice] += r.rows;
        w.slice_end[slice] = end.as_secs_f64();
        w.latency.push(r.ns, r.class);
        if let Some(t) = r.ttft_ns {
            w.ttft.push(t, r.class);
        }
    }
    w.attempted = i;
    w
}

impl Window {
    /// `counts` per second in each slice.  A slice's time runs from the end
    /// of the previous slice's last operation to the end of its own last
    /// operation, so no operation is cut in two and the rate is not
    /// quantised by the slice length.
    fn per_second(&self, counts: &[u64; SLICES]) -> Vec<f64> {
        let mut from = 0.0;
        counts
            .iter()
            .zip(&self.slice_end)
            .map(|(&n, &end)| {
                if n == 0 {
                    return 0.0;
                }
                let rate = n as f64 / (end - from);
                from = end;
                rate
            })
            .collect()
    }

    /// Per-slice operations per second.
    pub fn ops_per_s_slices(&self) -> Vec<f64> {
        self.per_second(&self.slice_ops)
    }

    /// Per-slice rows per second.
    pub fn rows_per_s_slices(&self) -> Vec<f64> {
        self.per_second(&self.slice_rows)
    }

    /// Each class's median latency in microseconds.
    pub fn class_medians_us(&self, classes: usize) -> Vec<f64> {
        let l = &self.latency;
        per_class_median_us(&l.ns, &l.class, classes, 0..l.ns.len())
    }
}

/// The median, in microseconds, of each class's nanosecond samples taken
/// from the `range` of the parallel `ns` / `class` vectors.
pub fn per_class_median_us(
    ns: &[u32],
    class: &[u8],
    classes: usize,
    range: std::ops::Range<usize>,
) -> Vec<f64> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); classes];
    for i in range {
        buckets[usize::from(class[i])].push(f64::from(ns[i]) / 1e3);
    }
    buckets.into_iter().map(median).collect()
}

/// [`class_median`] of the samples, and the same over each of
/// [`SLICES`] consecutive equal parts of them — the spread a single run
/// can show for the value.
pub fn class_median_with_slices(ns: &[u32], class: &[u8], weights: &[u64]) -> (f64, Vec<f64>) {
    let of = |range| {
        class_median(
            &per_class_median_us(ns, class, weights.len(), range),
            weights,
        )
    };
    let n = ns.len();
    let slices = (0..SLICES)
        .map(|s| of(n * s / SLICES..n * (s + 1) / SLICES))
        .collect();
    (of(0..n), slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn class_median_sits_inside_a_class_or_between_two() {
        // 70/20/10: the crossing lies inside the first class.
        assert_eq!(class_median(&[5.5, 8.0, 30.0], &[7, 2, 1]), 5.5);
        // Four equal classes: the crossing is the 2nd/3rd boundary.
        assert_eq!(class_median(&[9.0, 1.0, 3.0, 7.0], &[1, 1, 1, 1]), 5.0);
        // A class without samples is left out.
        assert_eq!(class_median(&[f64::NAN, 2.0, 4.0], &[1, 1, 1]), 3.0);
    }

    #[test]
    fn closed_loop_counts_and_slices() {
        let w = closed_loop(Duration::ZERO, Duration::from_millis(50), |i| {
            std::thread::sleep(Duration::from_millis(1));
            OpResult {
                class: (i % 2) as u8,
                ns: 1_000_000,
                ttft_ns: None,
                rows: 2,
                ok: i != 3,
            }
        });
        assert_eq!(w.failed, 1);
        assert_eq!(w.latency.offered() + 1, w.attempted);
        assert_eq!(w.slice_ops.iter().sum::<u64>(), w.latency.offered());
        assert_eq!(w.slice_rows.iter().sum::<u64>(), 2 * w.latency.offered());
    }

    #[test]
    fn samples_stay_bounded_and_evenly_spread() {
        let mut s = Samples::default();
        let n = 3 * Samples::CAP as u64 + 17;
        for i in 0..n {
            s.push(i, (i % 3) as u8);
        }
        assert_eq!(s.offered(), n);
        assert!(s.ns.len() <= Samples::CAP && s.ns.len() > Samples::CAP / 2);
        assert_eq!(s.ns.len(), s.class.len());
        // Every fourth operation was kept, from the first to the last.
        assert!(s
            .ns
            .iter()
            .enumerate()
            .all(|(k, &v)| u64::from(v) == 4 * k as u64));
        assert!((s.quantile_us(0.5) * 1e3 - n as f64 / 2.0).abs() < n as f64 * 0.01);
    }
}
