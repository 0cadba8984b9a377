//! What one run prints: human-readable notes, then one JSON line.

use crate::stats::{self, Latency};
use std::fmt::Write as _;

/// Times one workload sets itself up per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Runs one set-up and appends its wall time to `times`.
pub fn timed_setup<T>(
    times: &mut Vec<f64>,
    f: impl FnOnce() -> velopt_common::Result<T>,
) -> velopt_common::Result<T> {
    let start = std::time::Instant::now();
    let out = f()?;
    times.push(start.elapsed().as_secs_f64());
    Ok(out)
}

/// Every end-to-end metric, printed by untraced runs. The median op
/// latency is printed as a note instead: `fleet_loop`'s median tick is
/// about 30 TraCI round trips, each a thread wake-up, and its spread over
/// ten seeds (0.37) exceeded any bound the benchmark may set.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, printed by traced runs. A workload that does not
/// reach a layer reports its figures as measured there: zero.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("dp.solve_ms", "ms"),
    ("dp.setup_ms", "ms"),
    ("dp.states_expanded", "count"),
    ("dp.energy_evals", "count"),
    ("dp.memo_hit_rate", "ratio"),
    ("queue.windows_ms", "ms"),
    ("traffic.predict_ms", "ms"),
    ("protocol.codec_us", "us"),
    ("cloud.rtt_ms", "ms"),
    ("cloud.wait_ms", "ms"),
    ("cloud.cache_hits", "count"),
    ("route.plan_ms", "ms"),
    ("route.decode_ms", "ms"),
    ("route.request_kb", "KiB"),
    ("route.oracle_calls", "count"),
    ("route.memo_hits", "count"),
    ("route.edges_pruned", "count"),
    ("traci.step_ms", "ms"),
    ("traci.read_ms", "ms"),
    ("traci.round_trips", "count"),
    ("cosim.wave_ms", "ms"),
    ("cloud.coalesce_wait_ms", "ms"),
    ("cosim.command_ms", "ms"),
    ("cloud.coalesce_hits", "count"),
    ("cloud.coalesce_flights", "count"),
    ("cloud.batch_flushes", "count"),
    ("cosim.replans", "count"),
    ("cosim.connections", "count"),
    ("microsim.ns_per_vehicle_step", "ns"),
    ("microsim.vehicles_stepped", "count"),
    ("microsim.handoffs", "count"),
    ("microsim.simd_lane_share", "ratio"),
    ("microsim.arena_grows", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.residual_ms", "ms"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted across every measured pass.
    pub attempted: u64,
    /// Ops that errored or failed a correctness check.
    pub failed: u64,
    /// Correctness checks that did not hold, one line each.
    pub mismatches: Vec<String>,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a correctness check; a failed one also fails `ops` ops.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops.max(1);
            self.mismatches.push(what());
        }
    }

    /// Adds one measured pass's op counts.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records the end-to-end metrics of an untraced pass.
    pub fn end_to_end(&mut self, setup_s: &[f64], latencies_s: &[f64], wall_s: f64) {
        self.set("setup_s", stats::median(setup_s));
        if let Some(l) = Latency::of(latencies_s) {
            self.set("op_tail_ms", l.tail * 1e3);
            self.note(format!(
                "op_tail_ms read at p{} over {} ops ({} beyond it)",
                l.tail_p,
                l.samples,
                l.beyond_tail()
            ));
            self.note(format!("op_p50_ms {:?} ms", l.p50 * 1e3));
        }
        self.set("ops_per_s", latencies_s.len() as f64 / wall_s);
        self.note(format!(
            "setup_s is the median of {} set-ups: {:?}",
            setup_s.len(),
            setup_s
        ));
    }

    /// Whether every correctness check held and no op failed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// Renders the notes, the metric table and the JSON result line for
    /// the metric set `wanted`. A wanted metric the workload never set is
    /// reported as zero.
    pub fn render(&self, wanted: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        for m in &self.mismatches {
            let _ = writeln!(out, "# MISMATCH {m}");
        }
        let _ = writeln!(
            out,
            "# ops attempted {}, failed {} ({:.4} share)",
            self.attempted,
            self.failed,
            stats::failure_share(self.failed, self.attempted)
        );
        let mut json = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = self.value(name).unwrap_or(0.0);
            let _ = writeln!(out, "# {name:<30} {value:>16.6} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        out
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never produced by a sound run) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Load threads and connections: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_ends_in_one_json_line_with_every_wanted_metric() {
        let mut r = Report::default();
        r.ops(10, 0);
        r.set("setup_s", 0.5);
        r.set("setup_s", 0.25);
        let text = r.render(&END_TO_END[..2]);
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"op_tail_ms\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_failed_check_fails_ops_and_the_run() {
        let mut r = Report::default();
        r.ops(100, 0);
        r.check(true, 5, || unreachable!());
        assert!(r.correct());
        r.check(false, 0, || "hash differs".into());
        assert_eq!(r.failed, 1);
        r.check(false, 3, || "plan differs".into());
        assert_eq!(r.failed, 4);
        assert!(!r.correct());
        assert!(r.render(&[]).contains("\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
