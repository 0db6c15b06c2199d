//! Metrics, run outcomes and the output format: one human-readable line per metric,
//! then the JSON result as the last line of standard output.

use crate::stats::Summary;

/// One reported metric. Timings carry their distribution summary.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub count: usize,
    pub summary: Option<Summary>,
}

impl Metric {
    /// A timing (or per-run rate): reported as the median of `samples`, with the tail.
    pub fn timing(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let summary = Summary::of(samples);
        Self {
            name: name.into(),
            unit,
            value: summary.median,
            count: summary.count,
            summary: Some(summary),
        }
    }

    /// A single value aggregated from `count` samples.
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64, count: usize) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            count,
            summary: None,
        }
    }

    fn human(&self) -> String {
        match self.summary {
            Some(s) => format!(
                "{} = {:.6} {} (median; p{} {:.6}; n={})",
                self.name, self.value, self.unit, s.tail_percentile, s.tail, s.count
            ),
            None => format!(
                "{} = {:.6} {} (n={})",
                self.name, self.value, self.unit, self.count
            ),
        }
    }
}

/// What one benchmark run attempted, which attempts failed their checks, and the
/// metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one attempted training run, failed when `failure` is set.
    pub fn attempt(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failed += 1;
            self.failures.push(f);
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Failed runs over attempted runs.
    pub fn failed_run_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable report: failures, then one line per metric.
    pub fn human_lines(&self, prefix: &str) -> Vec<String> {
        let mut lines: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("[{prefix}] FAILED {f}"))
            .collect();
        lines.extend(
            self.metrics
                .iter()
                .map(|m| format!("[{prefix}] {}", m.human())),
        );
        lines.push(format!(
            "[{prefix}] failed_run_ratio = {} ratio ({} of {} runs failed)",
            self.failed_run_ratio(),
            self.failed,
            self.attempted
        ));
        lines
    }

    /// The JSON result line. With `tails`, every timing also reports its tail
    /// percentile as `<name>.tail`.
    pub fn json(&self, tails: bool) -> String {
        let mut entries = Vec::new();
        for m in &self.metrics {
            entries.push(json_metric(&m.name, m.value, m.unit));
            if let (true, Some(s)) = (tails, m.summary) {
                entries.push(json_metric(&format!("{}.tail", m.name), s.tail, m.unit));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            entries.join(", ")
        )
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    // Every metric is finite by construction; a non-finite one would not be JSON.
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.attempt(None);
        o.metrics
            .push(Metric::timing("setup_s", "s", &[0.5, 0.25, 0.75]));
        o.metrics.push(Metric::value("peak_rss_mb", "MB", 12.0, 1));
        assert_eq!(
            o.json(false),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 12.0, \"unit\": \"MB\"}}}"
        );
        assert!(o.json(true).contains("\"setup_s.tail\": {\"value\": 0.5"));
        o.attempt(Some("boom".into()));
        assert!(!o.correct());
        assert_eq!(o.failed_run_ratio(), 0.5);
    }
}
