//! What one workload run produced, and how it is printed: a readable table
//! followed by the one-line JSON result.

use std::fmt::Write as _;

use crate::stats;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `latency_p50_ms`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Extra context for the readable table (not part of the JSON).
    pub note: String,
}

/// Ordered list of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    /// Appends a metric with a note for the readable table.
    pub fn push_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }
}

/// The outcome of timed work in one phase of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phase {
    /// Wall time of each unit of work (one call or one loop cycle), in ms.
    pub unit_ms: Vec<f64>,
    /// Juries served and accepted by the checker.
    pub served: u64,
    /// Exact re-scored JQ of every accepted jury.
    pub served_jq: Vec<f64>,
    /// Service calls attempted.
    pub attempted: u64,
    /// Calls that returned an error or failed an output check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Phase {
    /// Records one failed call.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message.into());
        }
    }

    /// Records one served jury that passed the checks.
    pub fn accept(&mut self, exact_jq: f64) {
        self.served += 1;
        self.served_jq.push(exact_jq);
    }

    /// Adds the end-to-end metrics of this phase (all but `setup_s` and
    /// `peak_rss_mb`, which belong to the whole process).
    pub fn end_to_end(&self, report: &mut Report) {
        let tail = stats::tail(&self.unit_ms);
        let busy_s: f64 = self.unit_ms.iter().sum::<f64>() / 1e3;
        report.push_noted(
            "latency_p50_ms",
            stats::median(&self.unit_ms),
            "ms",
            format!("{} samples", self.unit_ms.len()),
        );
        report.push_noted(
            "latency_tail_ms",
            tail.value,
            "ms",
            format!("p{} of {} samples", tail.percentile, tail.samples),
        );
        report.push_noted(
            "throughput_per_s",
            if busy_s > 0.0 {
                self.served as f64 / busy_s
            } else {
                0.0
            },
            "1/s",
            format!("{} juries in {busy_s:.3} s", self.served),
        );
        report.push_noted(
            "jq_served_mean",
            stats::mean(&self.served_jq),
            "JQ",
            "exact re-score".to_string(),
        );
        report.push_noted(
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            format!("{} of {} calls", self.failed, self.attempted),
        );
    }
}

/// The readable table: one metric per line.
pub fn table(workload: &str, report: &Report) -> String {
    let mut out = String::new();
    for metric in &report.metrics {
        let _ = writeln!(
            out,
            "{workload:<18} {:<46} {:>16.6} {:<6} {}",
            metric.name, metric.value, metric.unit, metric.note
        );
    }
    out
}

/// The result line. Only metrics named in `keep` are written; non-finite
/// values (which no metric should produce) are written as `0`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    report: &Report,
    keep: impl Fn(&str) -> bool,
) -> String {
    let mut metrics = String::new();
    for metric in report.metrics.iter().filter(|m| keep(&m.name)) {
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            metric.name, metric.unit
        );
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_shape() {
        let mut report = Report::default();
        report.push("latency_p50_ms", 1.25, "ms");
        report.push("error_rate", 0.0, "ratio");
        report.push("bad", f64::NAN, "s");
        let line = json_line(true, 10, 0, &report, |name| name != "error_rate");
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"bad\":{\"value\":0,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn phase_reports_error_rate_and_throughput() {
        let mut phase = Phase {
            unit_ms: vec![100.0, 300.0],
            attempted: 4,
            ..Phase::default()
        };
        phase.accept(0.9);
        phase.accept(0.8);
        phase.fail("x");
        let mut report = Report::default();
        phase.end_to_end(&mut report);
        let get = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(get("latency_p50_ms"), 200.0);
        assert!((get("throughput_per_s") - 5.0).abs() < 1e-12);
        assert!((get("jq_served_mean") - 0.85).abs() < 1e-12);
        assert_eq!(get("error_rate"), 0.25);
    }
}
