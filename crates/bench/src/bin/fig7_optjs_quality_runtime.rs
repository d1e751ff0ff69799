//! Reproduces Figure 7 and Table 3: the quality of the simulated-annealing
//! JSP heuristic against the exhaustive optimum (N = 11, varying budget), the
//! distribution of its error, and its running time as the candidate pool
//! grows (N ∈ [100, 500], several budgets).
//!
//! ```text
//! cargo run -p jury-bench --release --bin fig7_optjs_quality_runtime -- --trials 50
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_bench::{maybe_write_json, sweep, timed, ExperimentArgs, Series};
use jury_jq::BucketJqConfig;
use jury_model::{stats, GaussianWorkerGenerator, Prior};
use jury_selection::{
    AnnealingConfig, AnnealingSolver, BvObjective, ExhaustiveSolver, JspInstance, JurySolver,
};

fn bv_objective() -> BvObjective {
    BvObjective::with_config(BucketJqConfig::paper_experiments())
}

fn main() {
    let args = ExperimentArgs::from_env();
    println!("Figure 7 / Table 3 — annealing JSP quality and running time\n");

    // ---- Figure 7(a): optimal vs returned JQ, N = 11, B in [0.05, 0.5] ----
    let generator = GaussianWorkerGenerator::paper_defaults();
    let mut optimal_series = Series::new("JQ of optimal jury J*");
    let mut returned_series = Series::new("JQ of returned jury J'");
    let mut all_errors_percent: Vec<f64> = Vec::new();

    println!(
        "Figure 7(a): N = 11, budget in [0.05, 0.5] ({} trials per point)",
        args.trials
    );
    println!(
        "{:>8} | {:>10} | {:>10} | {:>9}",
        "budget", "optimal", "annealed", "gap"
    );
    println!("---------+------------+------------+----------");
    for budget in sweep(0.05, 0.5, 0.05) {
        let mut optimal_total = 0.0;
        let mut returned_total = 0.0;
        for trial in 0..args.trials {
            let mut rng =
                StdRng::seed_from_u64(args.seed ^ (trial as u64).wrapping_mul(0x2545F4914F6CDD1D));
            let pool = generator.generate(11, &mut rng);
            let instance =
                JspInstance::new(pool, budget, Prior::uniform()).expect("non-negative budgets");
            let optimal = ExhaustiveSolver::new(bv_objective()).solve(&instance);
            let annealing_config = if args.full {
                AnnealingConfig::paper_single_run()
            } else {
                AnnealingConfig::default()
            };
            let annealed =
                AnnealingSolver::with_config(bv_objective(), annealing_config).solve(&instance);
            optimal_total += optimal.objective_value;
            returned_total += annealed.objective_value;
            all_errors_percent
                .push((optimal.objective_value - annealed.objective_value).max(0.0) * 100.0);
        }
        let optimal_mean = optimal_total / args.trials as f64;
        let returned_mean = returned_total / args.trials as f64;
        optimal_series.push(budget, optimal_mean);
        returned_series.push(budget, returned_mean);
        println!(
            "{:>8.2} | {:>9.2}% | {:>9.2}% | {:>8.3}%",
            budget,
            optimal_mean * 100.0,
            returned_mean * 100.0,
            (optimal_mean - returned_mean) * 100.0
        );
    }
    println!("Paper shape: the two curves almost coincide.\n");

    // ---- Table 3: counts of the error in the paper's ranges (percent) ----
    let edges = [0.0, 0.01, 0.1, 1.0, 3.0, f64::INFINITY];
    let counts = stats::range_counts(&all_errors_percent, &edges);
    println!(
        "Table 3: counts of JQ(J*) - JQ(J') over {} runs (error in %):",
        all_errors_percent.len()
    );
    println!("  [0, 0.01]  (0.01, 0.1]  (0.1, 1]  (1, 3]  (3, +inf)");
    println!(
        "  {:>9} {:>12} {:>9} {:>7} {:>10}",
        counts[0], counts[1], counts[2], counts[3], counts[4]
    );
    println!(
        "Paper: 9301 / 231 / 408 / 60 / 0 over 10,000 runs (>90% below 0.01%, none above 3%).\n"
    );

    // ---- Figure 7(b): running time vs N for several budgets ----
    let n_values: Vec<f64> = if args.full {
        sweep(100.0, 500.0, 100.0)
    } else {
        sweep(100.0, 300.0, 100.0)
    };
    let budgets = [0.05, 0.20, 0.35, 0.50];
    let mut timing_series: Vec<Series> = Vec::new();
    println!("Figure 7(b): annealing running time (seconds per JSP solve)");
    print!("{:>6}", "N");
    for &b in &budgets {
        print!(" | B={b:<6}");
    }
    println!();
    for &n in &n_values {
        print!("{:>6}", n as usize);
        for &budget in &budgets {
            let mut rng = StdRng::seed_from_u64(args.seed.wrapping_add(n as u64));
            let pool = generator.generate(n as usize, &mut rng);
            let instance = JspInstance::new(pool, budget, Prior::uniform()).expect("valid budget");
            let (_, seconds) = timed(|| {
                AnnealingSolver::with_config(bv_objective(), AnnealingConfig::paper_single_run())
                    .solve(&instance)
            });
            print!(" | {seconds:>8.3}");
            let series = timing_series
                .iter_mut()
                .find(|s| s.name == format!("B={budget}"));
            match series {
                Some(series) => series.push(n, seconds),
                None => {
                    let mut series = Series::new(format!("B={budget}"));
                    series.push(n, seconds);
                    timing_series.push(series);
                }
            }
        }
        println!();
    }
    println!("Paper shape: time grows roughly linearly with N (<= 2.5 s at N = 500 in Python).\n");

    let dump = serde_json::json!({
        "experiment": "figure_7_table_3",
        "trials": args.trials,
        "fig7a_optimal": optimal_series,
        "fig7a_returned": returned_series,
        "table3_error_percent_counts": counts,
        "table3_edges_percent": [0.0, 0.01, 0.1, 1.0, 3.0, "inf"],
        "fig7b_runtime_seconds": timing_series,
    });
    maybe_write_json(&args.out, &dump);
}
