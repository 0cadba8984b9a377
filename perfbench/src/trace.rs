//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, the op it belongs to, and its start and end on the
//! run's clock; spans of one op share the op index. They stay in memory and
//! are folded into per-layer figures when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `traffic.predict`.
    pub name: &'static str,
    /// The op the call was made for.
    pub op: usize,
    /// Start, seconds since the tracer's epoch.
    pub start: f64,
    /// End, seconds since the tracer's epoch.
    pub end: f64,
}

/// An in-memory span log. Each load thread keeps its own and the logs are
/// merged when the threads are joined.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log on the clock starting at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for op `op`.
    pub fn span<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, start, Instant::now());
        out
    }

    /// Records a span timed by the caller.
    pub fn record(&mut self, name: &'static str, op: usize, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            op,
            start: start.duration_since(self.epoch).as_secs_f64(),
            end: end.duration_since(self.epoch).as_secs_f64(),
        });
    }

    /// Appends another thread's log.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Total milliseconds spent in `name` per op, for every op that
    /// recorded it, in op order.
    pub fn per_op_ms(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += (s.end - s.start) * 1e3;
        }
        out
    }

    /// Milliseconds spent in `name` per op, as a plain sample.
    pub fn samples_ms(&self, name: &str) -> Vec<f64> {
        self.per_op_ms(name).into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_fold_per_op() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let t0 = epoch + Duration::from_millis(10);
        a.record("x", 1, t0, t0 + Duration::from_millis(2));
        a.record("x", 1, t0, t0 + Duration::from_millis(3));
        let mut b = Tracer::new(epoch);
        b.record("x", 0, t0, t0 + Duration::from_millis(4));
        b.record("y", 0, t0, t0 + Duration::from_millis(1));
        a.merge(b);
        let x = a.per_op_ms("x");
        assert_eq!(x.len(), 2);
        assert!((x[&1] - 5.0).abs() < 1e-9);
        assert!((x[&0] - 4.0).abs() < 1e-9);
        assert_eq!(a.samples_ms("y").len(), 1);
        assert!(a.samples_ms("z").is_empty());
        assert_eq!(a.span("z", 7, || 42), 42);
        assert_eq!(a.samples_ms("z").len(), 1);
    }
}
