//! # jury-bench
//!
//! The experiment harness of the reproduction: one binary per table/figure
//! of the paper's evaluation (Section 6) plus Criterion micro-benchmarks.
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig1_budget_quality_table` | Figure 1's budget–quality table |
//! | `fig6_system_comparison` | Figure 6(a)–(d): OPTJS vs MVJS on synthetic data |
//! | `fig7_optjs_quality_runtime` | Figure 7(a)/(b) and Table 3 |
//! | `fig8_strategy_comparison` | Figure 8(a)/(b): JQ of MV/BV/RBV/RMV |
//! | `fig9_jq_computation` | Figure 9(a)–(d): JQ(BV) computation quality/cost |
//! | `fig10_real_dataset` | Figure 10(a)–(d): the (simulated) AMT dataset |
//!
//! Every binary accepts `--trials <n>`, `--seed <n>`, `--out <path.json>`
//! and `--full` (run at the paper's full scale rather than the quicker
//! default), and prints the series it produces as aligned text tables.
//!
//! The paper's two systems, OPTJS and MVJS (Figure 1), are one
//! [`JuryService`](jury_service::JuryService) request under
//! [`Strategy::Bv`](jury_service::Strategy::Bv) or
//! [`Strategy::Mv`](jury_service::Strategy::Mv); see [`system`]. The
//! [`pipeline`] module closes the loop by aggregating
//! the selected jury's (simulated or replayed) votes with Bayesian voting,
//! and [`report`] holds the series the binaries print and dump.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pipeline;
pub mod report;
pub mod system;

use std::time::Instant;

pub use pipeline::{run_on_dataset, run_simulated_task, DatasetReport, TaskOutcome};
pub use report::{ComparisonRow, ComparisonSeries, Series};
pub use system::select_jury;

/// Command-line arguments shared by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentArgs {
    /// Number of repetitions per parameter point.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Optional path to write the JSON dump of every series.
    pub out: Option<String>,
    /// Whether to run at the paper's full scale.
    pub full: bool,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            trials: 10,
            seed: 42,
            out: None,
            full: false,
        }
    }
}

impl ExperimentArgs {
    /// Parses the arguments from an iterator of strings (typically
    /// `std::env::args().skip(1)`), starting from defaults. Unknown flags
    /// are rejected with a readable message.
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut parsed = ExperimentArgs::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            match flag.as_ref() {
                "--trials" => {
                    let value = iter.next().ok_or("--trials needs a value")?;
                    parsed.trials = value
                        .as_ref()
                        .parse()
                        .map_err(|_| format!("invalid --trials value: {}", value.as_ref()))?;
                    if parsed.trials == 0 {
                        return Err("--trials must be at least 1".into());
                    }
                }
                "--seed" => {
                    let value = iter.next().ok_or("--seed needs a value")?;
                    parsed.seed = value
                        .as_ref()
                        .parse()
                        .map_err(|_| format!("invalid --seed value: {}", value.as_ref()))?;
                }
                "--out" => {
                    let value = iter.next().ok_or("--out needs a path")?;
                    parsed.out = Some(value.as_ref().to_string());
                }
                "--full" => parsed.full = true,
                "--help" | "-h" => {
                    return Err("usage: [--trials N] [--seed N] [--out FILE.json] [--full]".into())
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        Ok(parsed)
    }

    /// Parses from the process arguments, exiting with the error message on
    /// failure (convenience for binaries).
    pub fn from_env() -> Self {
        match ExperimentArgs::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }
}

/// Writes a JSON value to the given path if `out` is set, logging the
/// destination; errors abort the experiment with a message (results already
/// printed to stdout are not lost).
pub fn maybe_write_json(out: &Option<String>, value: &serde_json::Value) {
    if let Some(path) = out {
        match std::fs::write(
            path,
            serde_json::to_string_pretty(value).expect("serializable"),
        ) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(err) => {
                eprintln!("failed to write {path}: {err}");
                std::process::exit(1);
            }
        }
    }
}

/// Measures the wall-clock seconds spent in a closure and returns
/// `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Produces an inclusive linear sweep `[lo, lo+step, ..., hi]` (robust to
/// floating-point accumulation).
pub fn sweep(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    assert!(step > 0.0, "step must be positive");
    let mut values = Vec::new();
    let count = ((hi - lo) / step).round() as i64;
    for i in 0..=count.max(0) {
        values.push(lo + i as f64 * step);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_flags() {
        let args = ExperimentArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(args, ExperimentArgs::default());
        let args =
            ExperimentArgs::parse(["--trials", "5", "--seed", "7", "--out", "x.json", "--full"])
                .unwrap();
        assert_eq!(args.trials, 5);
        assert_eq!(args.seed, 7);
        assert_eq!(args.out.as_deref(), Some("x.json"));
        assert!(args.full);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(ExperimentArgs::parse(["--trials"]).is_err());
        assert!(ExperimentArgs::parse(["--trials", "zero"]).is_err());
        assert!(ExperimentArgs::parse(["--trials", "0"]).is_err());
        assert!(ExperimentArgs::parse(["--bogus"]).is_err());
        assert!(ExperimentArgs::parse(["--help"]).is_err());
    }

    #[test]
    fn sweep_is_inclusive() {
        assert_eq!(sweep(0.5, 1.0, 0.1).len(), 6);
        assert!((sweep(0.5, 1.0, 0.1)[5] - 1.0).abs() < 1e-12);
        assert_eq!(sweep(10.0, 100.0, 10.0).len(), 10);
        assert_eq!(sweep(5.0, 5.0, 1.0), vec![5.0]);
    }

    #[test]
    fn timed_returns_result_and_duration() {
        let (value, seconds) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
    }

    #[test]
    fn maybe_write_json_writes_when_asked() {
        let dir = std::env::temp_dir().join("jury_bench_test_out.json");
        let path = dir.to_string_lossy().to_string();
        maybe_write_json(&Some(path.clone()), &serde_json::json!({"ok": true}));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("ok"));
        std::fs::remove_file(&path).ok();
        // None is a no-op.
        maybe_write_json(&None, &serde_json::json!({}));
    }
}
