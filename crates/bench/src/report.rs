//! Plain-text reporting helpers for the experiment harness and the examples:
//! aligned tables of (parameter, OPTJS, MVJS) rows and simple series dumps.

use serde::{Deserialize, Serialize};

/// One row of a system-comparison series: a swept parameter value and the
/// jury quality each system achieved at that value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// The value of the swept parameter (µ, B, N, σ̂, ...).
    pub parameter: f64,
    /// The OPTJS jury quality.
    pub optjs: f64,
    /// The MVJS jury quality.
    pub mvjs: f64,
}

impl ComparisonRow {
    /// OPTJS's lead over MVJS (positive when OPTJS wins).
    pub fn lead(&self) -> f64 {
        self.optjs - self.mvjs
    }
}

/// A named series of comparison rows — one figure panel (e.g. Figure 6(a)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonSeries {
    /// The name of the swept parameter (used as the column header).
    pub parameter_name: String,
    /// The rows, in sweep order.
    pub rows: Vec<ComparisonRow>,
}

impl ComparisonSeries {
    /// Creates an empty series.
    pub fn new(parameter_name: impl Into<String>) -> Self {
        ComparisonSeries {
            parameter_name: parameter_name.into(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, parameter: f64, optjs: f64, mvjs: f64) {
        self.rows.push(ComparisonRow {
            parameter,
            optjs,
            mvjs,
        });
    }

    /// The average OPTJS lead across the series.
    pub fn mean_lead(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.lead()).sum::<f64>() / self.rows.len() as f64
    }

    /// Whether OPTJS is at least as good as MVJS at every point (within a
    /// tolerance for the heuristic search noise).
    pub fn optjs_dominates(&self, tolerance: f64) -> bool {
        self.rows.iter().all(|r| r.optjs >= r.mvjs - tolerance)
    }

    /// Renders the series as an aligned text table, percentages with two
    /// decimals — the format the experiment binaries print.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:>10} | {:>9} | {:>9} | {:>8}\n",
            self.parameter_name, "OPTJS", "MVJS", "lead"
        );
        out.push_str("-----------+-----------+-----------+---------\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:>10.3} | {:>8.2}% | {:>8.2}% | {:>+7.2}%\n",
                row.parameter,
                row.optjs * 100.0,
                row.mvjs * 100.0,
                row.lead() * 100.0
            ));
        }
        out
    }
}

/// A named `(x, y)` series for single-curve figures (e.g. approximation
/// error vs. numBuckets in Figure 9(b)).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// Name of the series (the figure legend entry).
    pub name: String,
    /// The `(x, y)` points in sweep order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Renders the series as `x<TAB>y` lines preceded by a header.
    pub fn render(&self) -> String {
        let mut out = format!("# {}\n", self.name);
        for (x, y) in &self.points {
            out.push_str(&format!("{x}\t{y}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_series_statistics() {
        let mut series = ComparisonSeries::new("budget");
        series.push(0.1, 0.90, 0.87);
        series.push(0.2, 0.93, 0.91);
        assert_eq!(series.rows.len(), 2);
        assert!((series.mean_lead() - 0.025).abs() < 1e-12);
        assert!(series.optjs_dominates(0.0));
        series.push(0.3, 0.90, 0.95);
        assert!(!series.optjs_dominates(0.01));
        assert!(series.optjs_dominates(0.1));
    }

    #[test]
    fn empty_series_mean_lead_is_zero() {
        assert_eq!(ComparisonSeries::new("x").mean_lead(), 0.0);
    }

    #[test]
    fn comparison_render_layout() {
        let mut series = ComparisonSeries::new("mu");
        series.push(0.5, 0.931, 0.88);
        let text = series.render();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("OPTJS"));
        assert!(text.contains("93.10%"));
        assert!(text.contains("+5.10%"));
    }

    #[test]
    fn xy_series_render() {
        let mut series = Series::new("approximation error");
        series.push(10.0, 0.0003);
        series.push(50.0, 0.00001);
        let text = series.render();
        assert!(text.starts_with("# approximation error\n"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn serde_roundtrip() {
        let mut series = ComparisonSeries::new("N");
        series.push(10.0, 0.9, 0.85);
        let json = serde_json::to_string(&series).unwrap();
        let back: ComparisonSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(series, back);
    }
}
