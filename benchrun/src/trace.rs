//! The benchmark's own spans.  The traced run wraps every call it makes
//! into a layer in a span, keeps the spans in memory and writes them out
//! when the run ends.  Spans inside the engine are a later change.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`; the part before the dot is the crate the call
    /// enters.  The roots are `op` (one decomposed operation) and `probe`
    /// (a standalone measurement that no operation's time includes).
    pub name: &'static str,
    /// The operation the span belongs to; spans of one operation share it.
    pub op_id: u32,
    /// Index of the span that caused this one, `-1` for a root.
    pub parent: i32,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// The count taken at the same boundary (rows drained, bytes written,
    /// tuples collected…); what it counts follows from the name.
    pub count: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Inner {
    /// For every span, the time its direct children cover.
    fn child_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        covered
    }
}

/// A cloneable handle on one span store.  The benchmark's `CountingFs`
/// holds a clone, so the storage calls the engine makes during a commit
/// land as children of that commit's span.
#[derive(Debug, Clone)]
pub struct Tracer {
    store: Arc<Mutex<Inner>>,
    recording: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            store: Arc::new(Mutex::new(Inner {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
            })),
            recording: true,
        }
    }
}

/// Time and occurrences of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// How many spans carry the name.
    pub spans: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Sum of their counts.
    pub count: u64,
}

impl Tracer {
    /// A tracer that records nothing: the same calls, timed by
    /// [`Tracer::timed`], without a span store behind them.  What a
    /// decomposed operation costs with it, against what it costs with a
    /// recording tracer, is the price of the spans.
    pub fn off() -> Tracer {
        Tracer {
            recording: false,
            ..Tracer::default()
        }
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Only this module locks the store and none of its critical
        // sections can panic half way through an update.
        self.store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&self, name: &'static str, op_id: u32) -> usize {
        if !self.recording {
            return 0;
        }
        let mut t = self.inner();
        let parent = t.open.last().map_or(-1, |&p| p as i32);
        let now = t.epoch.elapsed().as_nanos() as u64;
        let id = t.spans.len();
        t.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        t.open.push(id);
        id
    }

    /// Closes the span `id` (and any span left open inside it).
    pub fn exit(&self, id: usize, count: u64) {
        if !self.recording {
            return;
        }
        let mut t = self.inner();
        let now = t.epoch.elapsed().as_nanos() as u64;
        while let Some(open) = t.open.pop() {
            t.spans[open].end_ns = now;
            if open == id {
                break;
            }
        }
        t.spans[id].count = count;
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds.  `f` also yields the span's count.
    pub fn timed<R>(
        &self,
        name: &'static str,
        op_id: u32,
        f: impl FnOnce() -> (R, u64),
    ) -> (R, u64) {
        let id = self.enter(name, op_id);
        let start = Instant::now();
        let (result, count) = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.exit(id, count);
        (result, ns)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.inner().spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Totals per span name.  A span's self time is its duration minus
    /// the part of it that its child spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let t = self.inner();
        let child_ns = t.child_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in t.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.spans += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
            e.count += s.count;
        }
        out
    }

    /// Each layer's self time as a share of the time of all `op` spans.
    /// Only spans below an `op` root count; the `op` spans' own self time
    /// — the benchmark's glue between the calls — is the layer `bench`.
    pub fn op_self_shares(&self) -> BTreeMap<String, f64> {
        let t = self.inner();
        let child_ns = t.child_ns();
        let mut under_op = vec![false; t.spans.len()];
        let mut op_total = 0u64;
        let mut layer_self: BTreeMap<String, u64> = BTreeMap::new();
        for (i, s) in t.spans.iter().enumerate() {
            // Parents precede their children in the store.
            under_op[i] = if s.parent < 0 {
                s.name == "op"
            } else {
                under_op[s.parent as usize]
            };
            if !under_op[i] {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let layer = if s.parent < 0 {
                op_total += dur;
                "bench"
            } else {
                s.name.split('.').next().unwrap_or(s.name)
            };
            *layer_self.entry(layer.to_string()).or_default() += dur.saturating_sub(child_ns[i]);
        }
        layer_self
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 / op_total.max(1) as f64))
            .collect()
    }

    /// The spans as a JSON array of
    /// `{name, op_id, parent, start_ns, end_ns, count}`.
    pub fn to_json(&self) -> Json {
        let t = self.inner();
        Json::Arr(
            t.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.name)
                        .with("op_id", u64::from(s.op_id))
                        .with("parent", f64::from(s.parent))
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("count", s.count)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = Tracer::default();
        let op = t.enter("op", 1);
        let a = t.enter("exec.drain", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(a, 7);
        let b = t.enter("parser.parse", 1);
        t.exit(b, 0);
        t.exit(op, 0);
        let p = t.enter("probe", 1);
        let c = t.enter("exec.collection", 1);
        t.exit(c, 0);
        t.exit(p, 0);

        let totals = t.totals();
        let op_t = totals["op"];
        let drain = totals["exec.drain"];
        assert_eq!(drain.count, 7);
        assert_eq!(drain.self_ns, drain.total_ns);
        assert_eq!(
            op_t.self_ns,
            op_t.total_ns - drain.total_ns - totals["parser.parse"].total_ns
        );
        let shares = t.op_self_shares();
        assert!(shares["exec"] > 0.5, "{shares:?}");
        let sum: f64 = shares.values().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares of the op add up: {sum}");
        assert_eq!(t.to_json().items().len(), 5);
    }
}
