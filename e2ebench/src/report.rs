//! Metrics, correctness checks and the result line.

use crate::stats::{median, tail_at};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Accumulates metrics in the order they are produced.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds (or replaces) `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, value, unit });
    }
}

/// `<prefix>_p50_ms` and `<prefix>_tail_ms` (at `percentile`, see
/// [`tail_at`]), with the tail's percentile and sample count printed
/// beside it.
pub fn latency_pair(m: &mut Metrics, prefix: &str, samples: &[f64], percentile: f64) {
    let t = tail_at(samples, percentile);
    m.put(format!("{prefix}_p50_ms"), median(samples), "ms");
    m.put(format!("{prefix}_tail_ms"), t.value, "ms");
    println!(
        "  {prefix}_tail_ms is p{} over {} samples",
        t.percentile, t.samples
    );
}

/// Correctness checks: every check is one attempted operation; a miss is
/// printed by name and counted as failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check missed.
    pub failed: u64,
    /// Names of the misses, in order (the first few are kept).
    pub misses: Vec<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("check failed: {what}");
            if self.misses.len() < 32 {
                self.misses.push(what);
            }
        }
    }

    /// Records an operation that returned an error.
    pub fn error(&mut self, what: &str, err: impl std::fmt::Display) {
        self.check(false, || format!("{what}: {err}"));
    }

    /// Folds another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.misses.extend(other.misses);
    }

    /// Failed share of attempted operations.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Renders a value with every digit it has (shortest round-trip form);
/// non-finite values become JSON `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Human-readable table of `metrics`, one per line.
pub fn table(metrics: &Metrics) -> String {
    let mut out = String::new();
    for m in &metrics.0 {
        let _ = writeln!(out, "  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("latency_ms", 1.5, "ms");
        let mut c = Checks::default();
        c.check(true, String::new);
        let line = result_line(&c, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        c.check(false, || "x".into());
        assert!(result_line(&c, &m).starts_with("{\"correct\": false"));
        assert_eq!(json_number(f64::NAN), "null");
    }
}
