//! Reproduces Figure 6(a)–(d): the end-to-end comparison of OPTJS against
//! the MVJS baseline on synthetic worker pools, sweeping the quality mean µ,
//! the budget B, the candidate pool size N, and the cost standard deviation
//! σ̂, with everything else at the Section 6.1.1 defaults (µ = 0.7,
//! σ² = 0.05, µ̂ = 0.05, σ̂ = 0.2, B = 0.5, N = 50, α = 0.5).
//!
//! The paper averages each point over 1,000 pools; the default here is a
//! lighter `--trials 10` (pass `--trials 1000 --full` to match the paper).
//!
//! ```text
//! cargo run -p jury-bench --release --bin fig6_system_comparison -- --trials 20
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_bench::{maybe_write_json, select_jury, sweep, ComparisonSeries, ExperimentArgs};
use jury_model::{GaussianWorkerGenerator, Prior};
use jury_service::{JuryService, ServiceConfig, Strategy};

/// The defaults of Section 6.1.1.
struct Defaults {
    budget: f64,
    pool_size: usize,
}

const DEFAULTS: Defaults = Defaults {
    budget: 0.5,
    pool_size: 50,
};

fn average_comparison(
    generator: &GaussianWorkerGenerator,
    pool_size: usize,
    budget: f64,
    trials: usize,
    seed: u64,
    service: &JuryService,
) -> (f64, f64) {
    let mut optjs_total = 0.0;
    let mut mvjs_total = 0.0;
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed ^ (trial as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let pool = generator.generate(pool_size, &mut rng);
        let [o, m] = [Strategy::Bv, Strategy::Mv].map(|strategy| {
            select_jury(service, &pool, budget, Prior::uniform(), strategy)
                .expect("experiment budgets are valid")
        });
        optjs_total += o.quality;
        mvjs_total += m.quality;
    }
    (optjs_total / trials as f64, mvjs_total / trials as f64)
}

fn main() {
    let args = ExperimentArgs::from_env();
    let service = JuryService::new(if args.full {
        ServiceConfig::paper_experiments()
    } else {
        ServiceConfig::fast()
    });

    println!(
        "Figure 6 — OPTJS vs MVJS on synthetic pools ({} trials per point)\n",
        args.trials
    );

    // (a) Varying the worker quality mean µ ∈ [0.5, 1].
    let mut fig6a = ComparisonSeries::new("mu");
    for mu in sweep(0.5, 1.0, 0.1) {
        let generator = GaussianWorkerGenerator::paper_defaults().with_quality_mean(mu);
        let (o, m) = average_comparison(
            &generator,
            DEFAULTS.pool_size,
            DEFAULTS.budget,
            args.trials,
            args.seed,
            &service,
        );
        fig6a.push(mu, o, m);
    }
    println!("Figure 6(a): varying quality mean mu (B=0.5, N=50)");
    println!("{}", fig6a.render());

    // (b) Varying the budget B ∈ [0.1, 1].
    let mut fig6b = ComparisonSeries::new("budget");
    for budget in sweep(0.1, 1.0, 0.1) {
        let generator = GaussianWorkerGenerator::paper_defaults();
        let (o, m) = average_comparison(
            &generator,
            DEFAULTS.pool_size,
            budget,
            args.trials,
            args.seed.wrapping_add(1),
            &service,
        );
        fig6b.push(budget, o, m);
    }
    println!("Figure 6(b): varying budget B (mu=0.7, N=50)");
    println!("{}", fig6b.render());

    // (c) Varying the candidate pool size N ∈ [10, 100].
    let mut fig6c = ComparisonSeries::new("N");
    for n in sweep(10.0, 100.0, 10.0) {
        let generator = GaussianWorkerGenerator::paper_defaults();
        let (o, m) = average_comparison(
            &generator,
            n as usize,
            DEFAULTS.budget,
            args.trials,
            args.seed.wrapping_add(2),
            &service,
        );
        fig6c.push(n, o, m);
    }
    println!("Figure 6(c): varying candidate pool size N (mu=0.7, B=0.5)");
    println!("{}", fig6c.render());

    // (d) Varying the cost standard deviation σ̂ ∈ [0.1, 1].
    let mut fig6d = ComparisonSeries::new("cost_sd");
    for sd in sweep(0.1, 1.0, 0.1) {
        let generator = GaussianWorkerGenerator::paper_defaults().with_cost_std_dev(sd);
        let (o, m) = average_comparison(
            &generator,
            DEFAULTS.pool_size,
            DEFAULTS.budget,
            args.trials,
            args.seed.wrapping_add(3),
            &service,
        );
        fig6d.push(sd, o, m);
    }
    println!("Figure 6(d): varying cost standard deviation (mu=0.7, B=0.5, N=50)");
    println!("{}", fig6d.render());

    println!(
        "Expected shape (paper): OPTJS >= MVJS everywhere; lead ~5% at mu=0.6, ~3% average over B, >6% at N=10."
    );
    for (name, series) in [
        ("6(a)", &fig6a),
        ("6(b)", &fig6b),
        ("6(c)", &fig6c),
        ("6(d)", &fig6d),
    ] {
        println!(
            "  {name}: OPTJS dominates = {}, mean lead = {:+.2}%",
            series.optjs_dominates(0.005),
            series.mean_lead() * 100.0
        );
    }

    let dump = serde_json::json!({
        "experiment": "figure_6_system_comparison",
        "trials": args.trials,
        "full": args.full,
        "fig6a_vary_mu": fig6a,
        "fig6b_vary_budget": fig6b,
        "fig6c_vary_n": fig6c,
        "fig6d_vary_cost_sd": fig6d,
    });
    maybe_write_json(&args.out, &dump);
}
