//! The CI perf artifact: a minute-bounded smoke benchmark of the serving
//! hot paths, written as `BENCH_service.json` so the repo's performance
//! trajectory accumulates one data point per CI run.
//!
//! Five workload families, all wall-clock timings:
//!
//! * **annealing step** — one solver-shaped neighbour evaluation (swap a
//!   jury member, read the JQ, revert) on the from-scratch bucket DP vs.
//!   the incremental engine (median of N);
//! * **greedy round** — one marginal-greedy round (score every unselected
//!   pool member as a single-worker extension), scratch vs. incremental
//!   (median of N);
//! * **kernel race** — the same swap workload on a deep (~100k-slot)
//!   bucket grid under the chunked, auto-vectorizable window kernels vs.
//!   the scalar reference loops (`jury_jq::KernelMode`); both paths are
//!   computed by the same engine on the same grid, so the ratio isolates
//!   pure kernel throughput;
//! * **budget sweeps** — a Figure-1 style budget–quality table through
//!   `JuryService` under each [`jury_service::SweepPolicy`]: cold
//!   per-budget solves, the warm marginal sweep, and the warm (seeded)
//!   annealing sweep (median of N);
//! * **parallel portfolio race** — the identical unbudgeted portfolio race
//!   run sequentially and spread across `--threads` solver lanes
//!   (`jury_selection::ParallelPolicy`). Both runs must return the same
//!   jury and JQ by the determinism contract, and the binary exits 1 if
//!   they do not. The ratio is pure wall-clock, so it pins at ≈ 1.0 on
//!   single-core CI runners and only climbs where real cores exist.
//!
//! # CLI flags
//!
//! ```text
//! perf_smoke [--out <path.json>] [--iters <n>] [--threads <n>]
//!            [--check <baseline.json>] [--tolerance <f>]
//! ```
//!
//! * `--out <path.json>` — where to write the JSON dump (default
//!   `BENCH_service.json`). The dump always contains raw `median_us`
//!   timings (host-dependent, for trend plots) and the `speedups` ratios
//!   (host-independent, the gated quantities).
//! * `--iters <n>` — iterations per timed routine (default 15); the
//!   reported timing is the median, so occasional scheduler hiccups do
//!   not move the gated ratios.
//! * `--threads <n>` — solver lanes of the parallel portfolio race
//!   (default 2; `0` = one lane per available core). Recorded in the dump
//!   as `threads`, so a baseline states the lane count it was pinned at.
//! * `--check <baseline.json>` — compare this run's `speedups` against a
//!   previously written dump (the repo checks in `BENCH_baseline.json`).
//!   Exit code 0 = pass, 1 = at least one ratio regressed (or the threaded
//!   race broke the determinism contract, checked with or without
//!   `--check`), 2 = the baseline file is missing/malformed or a flag was
//!   invalid.
//! * `--tolerance <f>` — slack for `--check` (default 0.5). Each of the
//!   [`CHECKED_SPEEDUPS`] ratios must satisfy
//!   `now >= baseline / (1 + tolerance)`; CI passes `--tolerance 1.0`, so
//!   a ratio fails only after falling below **half** its recorded
//!   baseline — quiet under shared-runner noise, loud when an incremental
//!   path collapses toward its from-scratch cost.
//!
//! The ratios are machine-independent by construction — numerator and
//! denominator are measured on the same host in the same run — which is
//! what makes a checked-in baseline meaningful across machines.
//!
//! # Refreshing the baseline
//!
//! After a deliberate performance change (new kernel, new sweep policy),
//! regenerate the pinned floors from a quiet machine and commit the result:
//!
//! ```text
//! cargo run --release -p jury-bench --bin perf_smoke -- --out BENCH_baseline.json
//! cargo run --release -p jury-bench --bin perf_smoke -- --check BENCH_baseline.json
//! ```
//!
//! The second run must pass; review the printed `check …` lines in the PR
//! so ratio movements are explicit, and never refresh the baseline to
//! absorb an *unexplained* regression.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_jq::{
    BucketCount, BucketJqConfig, BucketJqEstimator, IncrementalJq, IncrementalJqConfig, KernelMode,
};
use jury_model::{GaussianWorkerGenerator, Jury, Prior, Worker, WorkerPool};
use jury_selection::{
    BvObjective, JspInstance, JurySolver, ParallelPolicy, PortfolioConfig, PortfolioSolver,
};
use jury_service::{JuryService, ServiceConfig, SweepPolicy};

/// Bucket resolution shared by the scratch and incremental paths so the
/// comparison is work-for-work (the paper's experimental budget).
const NUM_BUCKETS: usize = 50;
/// Candidates of the step/round workloads.
const POOL_SIZE: usize = 50;
/// Candidates of the sweep workloads (past the exact cutoff, so the sweep
/// policies actually engage).
const SWEEP_POOL_SIZE: usize = 40;
/// Members and bucket resolution of the kernel-mode race: a deep grid
/// (~100k dense slots) so the chunked window passes have room to pay off.
const KERNEL_RACE_MEMBERS: usize = 24;
const KERNEL_RACE_BUCKETS: usize = 2000;

fn random_pool(n: usize, seed: u64) -> WorkerPool {
    let generator = GaussianWorkerGenerator::paper_defaults();
    let mut rng = StdRng::seed_from_u64(seed);
    generator.generate(n, &mut rng)
}

/// Times `routine` `iters` times and returns the median microseconds.
fn median_us<F: FnMut()>(iters: usize, mut routine: F) -> f64 {
    let mut samples: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

fn scratch_estimator() -> BucketJqEstimator {
    BucketJqEstimator::new(
        BucketJqConfig::default()
            .with_buckets(BucketCount::Fixed(NUM_BUCKETS))
            .with_high_quality_shortcut(false),
    )
}

fn incremental_for(pool: &WorkerPool, members: &[Worker]) -> IncrementalJq {
    let mut engine = IncrementalJq::for_pool(
        pool,
        Prior::uniform(),
        IncrementalJqConfig::default().with_buckets(BucketCount::Fixed(NUM_BUCKETS)),
    );
    for worker in members {
        engine.push_worker(worker);
    }
    engine
}

/// Candidates (past the exact cutoff, so the heuristic members actually
/// engage) and jury budget of the parallel portfolio race.
const PORTFOLIO_POOL_SIZE: usize = 60;
const PORTFOLIO_JURY_BUDGET: f64 = 6.0;

/// The machine-independent ratios compared by `--check`. Raw `median_us`
/// timings shift with the host; the timing ratios divide two timings from
/// the same run, so a drop can only come from a real relative slowdown.
///
/// * `annealing_step_incremental_vs_scratch` — one swap-and-score
///   neighbour: incremental engine vs from-scratch bucket DP.
/// * `greedy_round_incremental_vs_scratch` — one marginal-greedy round
///   (pool-many push/score/pop probes) vs pool-many scratch rebuilds.
/// * `kernel_vectorized_vs_scalar` — the deep-grid swap workload under
///   the chunked window kernels vs the scalar reference loops.
/// * `sweep_warm_marginal_vs_cold` / `sweep_warm_annealing_vs_cold` — a
///   budget–quality sweep through the service with warm-start policies vs
///   independent cold solves.
/// * `parallel_portfolio_vs_sequential` — wall-clock of the identical
///   unbudgeted portfolio race, sequential vs spread across `--threads`
///   lanes. The baseline pins ≈ 1.0 (single-core CI sees no speedup and
///   must see no slowdown past the tolerance either); multi-core hosts
///   report > 1.
const CHECKED_SPEEDUPS: [&str; 6] = [
    "annealing_step_incremental_vs_scratch",
    "greedy_round_incremental_vs_scratch",
    "kernel_vectorized_vs_scalar",
    "sweep_warm_marginal_vs_cold",
    "sweep_warm_annealing_vs_cold",
    "parallel_portfolio_vs_sequential",
];

/// Compares the current dump's `speedups` against a baseline file; returns
/// the list of human-readable regression descriptions (empty = pass).
fn check_against_baseline(
    current: &serde_json::Value,
    baseline_path: &str,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|err| format!("failed to read {baseline_path}: {err}"))?;
    let baseline: serde_json::Value =
        serde_json::from_str(&text).map_err(|err| format!("invalid {baseline_path}: {err}"))?;
    let mut regressions = Vec::new();
    for key in CHECKED_SPEEDUPS {
        let was = baseline
            .field("speedups")
            .and_then(|s| s.field(key))
            .map_err(|err| format!("{baseline_path}: {err}"))?
            .as_f64()
            .ok_or_else(|| format!("{baseline_path}: speedups.{key} is not a number"))?;
        let now = current
            .field("speedups")
            .and_then(|s| s.field(key))
            .expect("dump carries every checked speedup")
            .as_f64()
            .expect("speedups are numeric");
        let floor = was / (1.0 + tolerance);
        let verdict = if now < floor { "REGRESSED" } else { "ok" };
        eprintln!("check {key}: {now:.2}x vs baseline {was:.2}x (floor {floor:.2}x) {verdict}");
        if now < floor {
            regressions.push(format!(
                "{key}: {now:.2}x fell below {floor:.2}x (baseline {was:.2}x / (1 + {tolerance}))"
            ));
        }
    }
    Ok(regressions)
}

fn main() {
    let mut out = String::from("BENCH_service.json");
    let mut iters = 15usize;
    let mut threads = 2usize;
    let mut check: Option<String> = None;
    let mut tolerance = 0.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--iters" => {
                iters = args
                    .next()
                    .expect("--iters needs a number")
                    .parse()
                    .expect("--iters needs a number")
            }
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads needs a number")
                    .parse()
                    .expect("--threads needs a number")
            }
            "--check" => check = Some(args.next().expect("--check needs a baseline path")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .expect("--tolerance needs a number")
                    .parse()
                    .expect("--tolerance needs a number");
                assert!(
                    tolerance >= 0.0 && tolerance.is_finite(),
                    "--tolerance must be a finite non-negative number"
                );
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: perf_smoke [--out <path>] [--iters <n>] \
                     [--threads <n>] [--check <baseline.json>] [--tolerance <f>]"
                );
                std::process::exit(2);
            }
        }
    }

    let pool = random_pool(POOL_SIZE, 11);
    let members: Vec<Worker> = pool.workers()[..POOL_SIZE / 2].to_vec();
    let candidates: Vec<Worker> = pool.workers()[POOL_SIZE / 2..].to_vec();
    let outsider = pool.workers()[POOL_SIZE - 1].clone();
    let victim = members[0].clone();
    let jury = Jury::new(members.clone());
    let estimator = scratch_estimator();

    // One annealing neighbour: mutate one member, read the JQ, revert.
    let annealing_scratch = median_us(iters, || {
        let mut candidate = jury.without(victim.id());
        candidate.push(outsider.clone());
        std::hint::black_box(estimator.jq(&candidate, Prior::uniform()));
    });
    let mut engine = incremental_for(&pool, &members);
    let annealing_incremental = median_us(iters, || {
        engine.swap_worker(&victim, &outsider).expect("member");
        std::hint::black_box(engine.jq());
        engine.swap_worker(&outsider, &victim).expect("member");
    });

    // One marginal-greedy round: score every candidate extension.
    let greedy_scratch = median_us(iters, || {
        let mut best = f64::NEG_INFINITY;
        for worker in &candidates {
            let value = estimator.jq(&jury.with_worker(worker.clone()), Prior::uniform());
            best = best.max(value);
        }
        std::hint::black_box(best);
    });
    let mut engine = incremental_for(&pool, &members);
    let greedy_incremental = median_us(iters, || {
        let mut best = f64::NEG_INFINITY;
        for worker in &candidates {
            engine.push_worker(worker);
            best = best.max(engine.jq());
            engine.pop_worker(worker).expect("just pushed");
        }
        std::hint::black_box(best);
    });

    // Kernel race: the same swap workload on a deep grid, vectorized
    // window passes vs the scalar reference loops. Everything except the
    // kernel mode is identical, so the ratio isolates raw kernel
    // throughput.
    let kernel_pool = random_pool(POOL_SIZE, 19);
    let kernel_members: Vec<Worker> = kernel_pool.workers()[..KERNEL_RACE_MEMBERS].to_vec();
    let kernel_outsider = kernel_pool.workers()[POOL_SIZE - 1].clone();
    let kernel_victim = kernel_members[0].clone();
    let kernel_race = |kernel: KernelMode| {
        let mut engine = IncrementalJq::for_pool(
            &kernel_pool,
            Prior::uniform(),
            IncrementalJqConfig::default()
                .with_buckets(BucketCount::Fixed(KERNEL_RACE_BUCKETS))
                .with_kernel_mode(kernel),
        );
        for worker in &kernel_members {
            engine.push_worker(worker);
        }
        median_us(iters, || {
            engine
                .swap_worker(&kernel_victim, &kernel_outsider)
                .expect("member");
            std::hint::black_box(engine.jq());
            engine
                .swap_worker(&kernel_outsider, &kernel_victim)
                .expect("member");
        })
    };
    let kernel_vectorized = kernel_race(KernelMode::Vectorized);
    let kernel_scalar = kernel_race(KernelMode::ScalarReference);

    // Budget sweeps through the service, one per sweep policy. Uniform
    // costs keep all three policies on the same optimum, so the timings
    // compare equal work.
    let qualities: Vec<f64> = (0..SWEEP_POOL_SIZE)
        .map(|i| 0.52 + 0.012 * (i % 35) as f64)
        .collect();
    let sweep_pool =
        WorkerPool::from_qualities_and_costs(&qualities, &vec![1.0; SWEEP_POOL_SIZE]).unwrap();
    let budgets: Vec<f64> = (1..=4).map(|b| (b * SWEEP_POOL_SIZE / 8) as f64).collect();
    let sweep_iters = iters.div_ceil(3);
    let sweep = |policy: SweepPolicy| {
        median_us(sweep_iters, || {
            // A fresh service per run: sweeps must not serve each other
            // from the shared cache, or later policies would time as pure
            // cache reads.
            let service = JuryService::new(ServiceConfig::fast().with_sweep_policy(policy));
            let table = service
                .budget_quality_table(&sweep_pool, &budgets, Prior::uniform())
                .expect("valid sweep");
            std::hint::black_box(table);
        })
    };
    let sweep_cold = sweep(SweepPolicy::Cold);
    let sweep_warm_marginal = sweep(SweepPolicy::WarmMarginal);
    let sweep_warm_annealing = sweep(SweepPolicy::WarmAnnealing);

    // Parallel portfolio race: the identical unbudgeted race on the same
    // pool, sequential vs spread across the solver lanes. Unbudgeted runs
    // are pure replays at any lane count (the determinism contract of
    // `jury_selection::parallel`), so numerator and denominator do the
    // same search work and the ratio isolates the multi-core win.
    // Non-uniform costs keep the knapsack structure non-trivial.
    let portfolio_qualities: Vec<f64> = (0..PORTFOLIO_POOL_SIZE)
        .map(|i| 0.52 + 0.012 * (i % 30) as f64)
        .collect();
    let portfolio_costs: Vec<f64> = (0..PORTFOLIO_POOL_SIZE)
        .map(|i| 0.5 + (i % 7) as f64 * 0.25)
        .collect();
    let portfolio_pool =
        WorkerPool::from_qualities_and_costs(&portfolio_qualities, &portfolio_costs).unwrap();
    let race_instance = JspInstance::with_uniform_prior(portfolio_pool, PORTFOLIO_JURY_BUDGET)
        .expect("valid race instance");
    let race_iters = iters.div_ceil(3);
    let timed_race = |parallel: ParallelPolicy| {
        let mut last = None;
        let median = median_us(race_iters, || {
            let solver = PortfolioSolver::new(BvObjective::new())
                .with_config(PortfolioConfig::default().with_parallel(parallel));
            last = Some(std::hint::black_box(solver.solve(&race_instance)));
        });
        (median, last.expect("at least one timed race"))
    };
    let (race_sequential, sequential_result) = timed_race(ParallelPolicy::Sequential);
    let (race_parallel, parallel_result) = timed_race(ParallelPolicy::Threads(threads));
    // The ratio only means something if both sides did the same search.
    if parallel_result.jury.ids() != sequential_result.jury.ids()
        || parallel_result.objective_value.to_bits() != sequential_result.objective_value.to_bits()
    {
        eprintln!(
            "determinism violation: the {threads}-lane portfolio race returned {:?} (JQ {}), \
             the sequential race {:?} (JQ {})",
            parallel_result.jury.ids(),
            parallel_result.objective_value,
            sequential_result.jury.ids(),
            sequential_result.objective_value
        );
        std::process::exit(1);
    }

    let dump = serde_json::json!({
        "schema": "jury-bench/perf-smoke/v1",
        "iters": iters,
        "sweep_iters": sweep_iters,
        "pool_size": POOL_SIZE,
        "sweep_pool_size": SWEEP_POOL_SIZE,
        "num_buckets": NUM_BUCKETS,
        "median_us": {
            "annealing_step_scratch": annealing_scratch,
            "annealing_step_incremental": annealing_incremental,
            "greedy_round_scratch": greedy_scratch,
            "greedy_round_incremental": greedy_incremental,
            "kernel_swap_vectorized": kernel_vectorized,
            "kernel_swap_scalar": kernel_scalar,
            "sweep_cold": sweep_cold,
            "sweep_warm_marginal": sweep_warm_marginal,
            "sweep_warm_annealing": sweep_warm_annealing,
            "portfolio_race_sequential": race_sequential,
            "portfolio_race_parallel": race_parallel,
        },
        "threads": threads,
        "portfolio_race": {
            "pool_size": PORTFOLIO_POOL_SIZE,
            "jury_budget": PORTFOLIO_JURY_BUDGET,
        },
        "kernel_race": {
            "members": KERNEL_RACE_MEMBERS,
            "num_buckets": KERNEL_RACE_BUCKETS,
        },
        "speedups": {
            "annealing_step_incremental_vs_scratch": annealing_scratch / annealing_incremental,
            "greedy_round_incremental_vs_scratch": greedy_scratch / greedy_incremental,
            "kernel_vectorized_vs_scalar": kernel_scalar / kernel_vectorized,
            "sweep_warm_marginal_vs_cold": sweep_cold / sweep_warm_marginal,
            "sweep_warm_annealing_vs_cold": sweep_cold / sweep_warm_annealing,
            "parallel_portfolio_vs_sequential": race_sequential / race_parallel,
        },
    });
    let rendered = serde_json::to_string_pretty(&dump).expect("serializable");
    println!("{rendered}");
    if let Err(err) = std::fs::write(&out, rendered) {
        eprintln!("failed to write {out}: {err}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");

    if let Some(baseline_path) = check {
        match check_against_baseline(&dump, &baseline_path, tolerance) {
            Ok(regressions) if regressions.is_empty() => {
                eprintln!("perf check against {baseline_path} passed (tolerance {tolerance})");
            }
            Ok(regressions) => {
                for regression in &regressions {
                    eprintln!("perf regression: {regression}");
                }
                std::process::exit(1);
            }
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        }
    }
}
