//! End-to-end serving benchmark of the `jury-service` / `jury-stream` API
//! at `ServiceConfig::default()`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload binary_select --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client drives the service in a closed loop: the next call starts
//! when the previous one returns. Inputs are generated from `--seed` during
//! set-up, before timing starts. Every response is checked (feasibility
//! against its own request, and an exact re-score of the served jury). With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! runs a third of the rounds twice from a fresh set-up, once plain and
//! once with spans and layer-by-layer replays, and prints the per-layer
//! metrics. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is non-zero
//! when any call failed or any output check did not hold.

mod binary;
mod check;
mod inputs;
mod layers;
mod multiclass;
mod online;
mod replay;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use binary::BinarySelect;
use multiclass::MulticlassSelect;
use online::OnlineLoop;
use report::{Phase, Report};
use trace::Tracer;
use workload::{rounds_for, Workload};

/// Set-up runs this many times per process; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".servebench";

/// The end-to-end metrics written to the result line. `error_rate` is
/// printed in the table but carried by `attempted` / `failed` in the result
/// line, because it is 0 on a correct run.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "throughput_per_s",
    "jq_served_mean",
    "peak_rss_mb",
];

const USAGE: &str = "usage: servebench --workload <binary_select|multiclass_select|online_loop> \
                     --seed <n> --seconds <n> --trace <0|1>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !parsed.seconds.is_finite() || parsed.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// The process's resident-memory high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run produced.
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.errors.extend(phase.errors.iter().cloned());
    }
}

/// Sets the workload up [`SETUP_REPEATS`] times and keeps the last; returns
/// it with the median set-up time in seconds.
fn timed_setup<W: Workload>(seed: u64) -> Result<(W, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let fresh = W::setup(seed)?;
        times.push(started.elapsed().as_secs_f64());
        workload = Some(fresh);
    }
    Ok((
        workload.expect("at least one set-up"),
        stats::median(&times),
    ))
}

fn execute<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        report: Report::default(),
        // The paper pin, checked during set-up.
        attempted: 1,
        failed: 0,
        errors: Vec::new(),
    };
    if !args.trace {
        let (mut workload, setup_s) = timed_setup::<W>(args.seed)?;
        let phase = workload.run(rounds_for::<W>(args.seconds), &mut Tracer::new(false));
        outcome.absorb(&phase);
        outcome.report.push_noted(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUP_REPEATS}"),
        );
        phase.end_to_end(&mut outcome.report);
        outcome.report.push("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(outcome);
    }

    // A third of the rounds plain, then as many traced (rounded up), each
    // from a fresh set-up with the same inputs. The replays make a traced
    // round about three times as long, so the run takes about as long as
    // an untraced one.
    let rounds = rounds_for::<W>(args.seconds).div_ceil(3);
    let untraced = W::setup(args.seed)?.run(rounds, &mut Tracer::new(false));
    outcome.absorb(&untraced);
    let mut workload = W::setup(args.seed)?;
    let mut tracer = Tracer::new(true);
    let traced = workload.run(rounds, &mut tracer);
    outcome.absorb(&traced);
    workload.layers(&tracer).report(&mut outcome.report);
    let untraced_p50 = stats::median(&untraced.unit_ms);
    outcome.report.push_noted(
        "trace.overhead_frac",
        stats::median(&traced.unit_ms) / untraced_p50 - 1.0,
        "ratio",
        format!("traced vs untraced p50 of {untraced_p50:.3} ms"),
    );
    let path = format!("{SPAN_DIR}/{}-seed{}.spans.jsonl", args.workload, args.seed);
    if let Err(err) =
        std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
    {
        eprintln!("servebench: could not write {path}: {err}");
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("servebench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "binary_select" => execute::<BinarySelect>(&args),
        "multiclass_select" => execute::<MulticlassSelect>(&args),
        "online_loop" => execute::<OnlineLoop>(&args),
        other => {
            eprintln!("servebench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = result.unwrap_or_else(|err| Outcome {
        report: Report::default(),
        attempted: 1,
        failed: 1,
        errors: vec![format!("set-up: {err}")],
    });
    for error in &outcome.errors {
        eprintln!("servebench: FAILED {error}");
    }
    print!("{}", report::table(&args.workload, &outcome.report));
    let correct = outcome.failed == 0;
    let line = report::json_line(
        correct,
        outcome.attempted,
        outcome.failed,
        &outcome.report,
        |name| args.trace || END_TO_END.contains(&name),
    );
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--workload",
            "online_loop",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload, "online_loop");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.seconds, 12.0);
        assert!(parsed.trace);
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
    }

    /// A tiny-seed smoke run of each workload, untraced and traced: every
    /// call succeeds and every output check holds.
    fn smoke<W: Workload>() {
        let mut workload = W::setup(3).unwrap();
        let phase = workload.run(1, &mut Tracer::new(false));
        assert_eq!(phase.failed, 0, "{:?}", phase.errors);
        assert_eq!(phase.unit_ms.len(), W::ROUND);
        assert!(phase.served > 0);

        let mut workload = W::setup(3).unwrap();
        let mut tracer = Tracer::new(true);
        let phase = workload.run(1, &mut tracer);
        assert_eq!(phase.failed, 0, "{:?}", phase.errors);
        let mut report = Report::default();
        workload.layers(&tracer).report(&mut report);
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        assert!(!tracer.spans().is_empty());
    }

    #[test]
    fn binary_select_smoke() {
        smoke::<BinarySelect>();
    }

    #[test]
    fn multiclass_select_smoke() {
        smoke::<MulticlassSelect>();
    }

    #[test]
    fn online_loop_smoke() {
        smoke::<OnlineLoop>();
    }
}
