//! Reproduces Figure 8: the jury quality of the four voting strategies the
//! paper compares — MV, BV, RBV (random ballot), and RMV (randomized
//! majority) — (a) as the worker quality mean µ varies with a fixed jury of
//! 11 workers, and (b) as the jury size n grows with µ = 0.7.
//!
//! JQ is computed by exact enumeration (n ≤ 11), exactly as the paper does
//! for this experiment, and averaged over `--trials` random juries.
//!
//! ```text
//! cargo run -p jury-bench --release --bin fig8_strategy_comparison -- --trials 50
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_bench::{maybe_write_json, sweep, ExperimentArgs, Series};
use jury_jq::exact_jq;
use jury_model::{GaussianWorkerGenerator, Jury, Prior};
use jury_voting::figure8_strategies;

/// Average JQ of each Figure 8 strategy over random juries of size `n` drawn
/// with quality mean `mu`.
fn average_strategy_jq(n: usize, mu: f64, trials: usize, seed: u64) -> Vec<(String, f64)> {
    let strategies = figure8_strategies();
    let generator = GaussianWorkerGenerator::paper_defaults().with_quality_mean(mu);
    let mut totals = vec![0.0f64; strategies.len()];
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed ^ (trial as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let qualities: Vec<f64> = (0..n).map(|_| generator.sample_quality(&mut rng)).collect();
        let jury = Jury::from_qualities(&qualities).expect("clamped qualities are valid");
        for (i, strategy) in strategies.iter().enumerate() {
            totals[i] += exact_jq(&jury, strategy.as_ref(), Prior::uniform())
                .expect("votes generated internally");
        }
    }
    strategies
        .iter()
        .zip(totals.iter())
        .map(|(s, &total)| (s.name().to_string(), total / trials as f64))
        .collect()
}

fn print_panel(header: &str, x_name: &str, rows: &[(f64, Vec<(String, f64)>)]) {
    println!("{header}");
    print!("{x_name:>8}");
    for (name, _) in &rows[0].1 {
        print!(" | {name:>7}");
    }
    println!();
    for (x, values) in rows {
        print!("{x:>8.2}");
        for (_, jq) in values {
            print!(" | {:>6.2}%", jq * 100.0);
        }
        println!();
    }
    println!();
}

fn main() {
    let args = ExperimentArgs::from_env();
    println!(
        "Figure 8 — JQ of MV / BV / RBV / RMV ({} trials per point)\n",
        args.trials
    );

    // (a) Vary µ in [0.5, 1.0] with a fixed jury size of 11.
    let mut panel_a = Vec::new();
    for mu in sweep(0.5, 1.0, 0.1) {
        panel_a.push((mu, average_strategy_jq(11, mu, args.trials, args.seed)));
    }
    print_panel(
        "Figure 8(a): jury size n = 11, varying quality mean mu",
        "mu",
        &panel_a,
    );

    // (b) Vary the jury size n in [1, 11] with µ = 0.7.
    let mut panel_b = Vec::new();
    for n in 1..=11usize {
        panel_b.push((
            n as f64,
            average_strategy_jq(n, 0.7, args.trials, args.seed + 1),
        ));
    }
    print_panel("Figure 8(b): mu = 0.7, varying jury size n", "n", &panel_b);

    println!("Paper shape: BV is the highest curve everywhere (about 10% over MV at n = 7);");
    println!("RBV stays flat at 50%; RMV never beats MV; all strategies are worst at mu = 0.5,");
    println!("where BV still reaches ~93% for n = 11 thanks to quality-aware weighting.");

    // Sanity summary: does BV dominate in this run?
    let mut bv_dominates = true;
    for (_, values) in panel_a.iter().chain(panel_b.iter()) {
        let bv = values
            .iter()
            .find(|(n, _)| n == "BV")
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        for (name, value) in values {
            if name != "BV" && *value > bv + 1e-9 {
                bv_dominates = false;
            }
        }
    }
    println!("\nBV dominates every other strategy at every point: {bv_dominates}");

    // JSON dump as per-strategy series.
    let to_series = |panel: &[(f64, Vec<(String, f64)>)]| -> Vec<Series> {
        let mut series: Vec<Series> = Vec::new();
        for (x, values) in panel {
            for (name, value) in values {
                match series.iter_mut().find(|s| &s.name == name) {
                    Some(s) => s.push(*x, *value),
                    None => {
                        let mut s = Series::new(name.clone());
                        s.push(*x, *value);
                        series.push(s);
                    }
                }
            }
        }
        series
    };
    let dump = serde_json::json!({
        "experiment": "figure_8_strategy_comparison",
        "trials": args.trials,
        "fig8a_vary_mu": to_series(&panel_a),
        "fig8b_vary_n": to_series(&panel_b),
        "bv_dominates": bv_dominates,
    });
    maybe_write_json(&args.out, &dump);
}
