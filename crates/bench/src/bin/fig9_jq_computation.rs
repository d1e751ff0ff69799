//! Reproduces Figure 9: the behaviour of the bucket-based JQ(BV)
//! approximation (Algorithm 1).
//!
//! * (a) JQ(BV) as the quality mean µ varies, for several quality variances;
//! * (b) approximation error vs. the number of buckets;
//! * (c) the histogram of approximation errors at `numBuckets = 50`;
//! * (d) computation time with and without the Algorithm 2 pruning as the
//!   jury size grows.
//!
//! ```text
//! cargo run -p jury-bench --release --bin fig9_jq_computation -- --trials 100
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_bench::{maybe_write_json, sweep, timed, ExperimentArgs, Series};
use jury_jq::{exact_bv_jq, BucketCount, BucketJqConfig, BucketJqEstimator};
use jury_model::{stats::Histogram, GaussianWorkerGenerator, Jury, Prior};

fn random_jury(n: usize, generator: &GaussianWorkerGenerator, rng: &mut StdRng) -> Jury {
    let qualities: Vec<f64> = (0..n).map(|_| generator.sample_quality(rng)).collect();
    Jury::from_qualities(&qualities).expect("clamped qualities are valid")
}

fn main() {
    let args = ExperimentArgs::from_env();
    let estimator_50 = BucketJqEstimator::paper_experiments();
    println!(
        "Figure 9 — JQ(J, BV, 0.5) computation ({} trials per point)\n",
        args.trials
    );

    // ---- (a) JQ vs µ for several quality variances (n = 11). ----
    let variances = [0.01, 0.03, 0.05, 0.10];
    let mut fig9a: Vec<Series> = Vec::new();
    println!("Figure 9(a): JQ(BV) for n = 11, varying mu and quality variance");
    print!("{:>6}", "mu");
    for v in variances {
        print!(" | var={v:<5}");
    }
    println!();
    for mu in sweep(0.5, 1.0, 0.1) {
        print!("{mu:>6.2}");
        for &variance in &variances {
            let generator = GaussianWorkerGenerator::paper_defaults()
                .with_quality_mean(mu)
                .with_quality_variance(variance);
            let mut total = 0.0;
            for trial in 0..args.trials {
                let mut rng = StdRng::seed_from_u64(
                    args.seed ^ (trial as u64 + 1).wrapping_mul(0xA24BAED4963EE407),
                );
                let jury = random_jury(11, &generator, &mut rng);
                total += estimator_50.jq(&jury, Prior::uniform());
            }
            let mean = total / args.trials as f64;
            print!(" | {:>7.2}%", mean * 100.0);
            match fig9a
                .iter_mut()
                .find(|s| s.name == format!("variance={variance}"))
            {
                Some(s) => s.push(mu, mean),
                None => {
                    let mut s = Series::new(format!("variance={variance}"));
                    s.push(mu, mean);
                    fig9a.push(s);
                }
            }
        }
        println!();
    }
    println!("Paper shape: higher variance helps at mu = 0.5 (more lucky high-quality workers).\n");

    // ---- (b) approximation error vs numBuckets (exact baseline, n = 10). ----
    let generator = GaussianWorkerGenerator::paper_defaults();
    let mut fig9b = Series::new("mean |JQ - JQ_approx|");
    println!("Figure 9(b): approximation error vs numBuckets (n = 10)");
    println!("{:>10} | {:>12}", "numBuckets", "mean error");
    for buckets in [10usize, 25, 50, 75, 100, 150, 200] {
        let estimator = BucketJqEstimator::new(
            BucketJqConfig::default()
                .with_buckets(BucketCount::Fixed(buckets))
                .with_high_quality_shortcut(false),
        );
        let mut total_error = 0.0;
        for trial in 0..args.trials {
            let mut rng = StdRng::seed_from_u64(
                args.seed ^ (trial as u64 + 1).wrapping_mul(0xD6E8FEB86659FD93),
            );
            let jury = random_jury(10, &generator, &mut rng);
            let exact = exact_bv_jq(&jury, Prior::uniform()).expect("small jury");
            let approx = estimator.jq(&jury, Prior::uniform());
            total_error += (exact - approx).abs();
        }
        let mean_error = total_error / args.trials as f64;
        println!("{buckets:>10} | {:>11.5}%", mean_error * 100.0);
        fig9b.push(buckets as f64, mean_error);
    }
    println!("Paper shape: the error drops quickly with numBuckets and is near zero by 200.\n");

    // ---- (c) histogram of errors at numBuckets = 50. ----
    let mut histogram = Histogram::new(0.0, 0.0001, 10);
    let mut max_error = 0.0f64;
    let hist_trials = args.trials.max(200);
    for trial in 0..hist_trials {
        let mut rng =
            StdRng::seed_from_u64(args.seed ^ (trial as u64 + 1).wrapping_mul(0x94D049BB133111EB));
        let jury = random_jury(10, &generator, &mut rng);
        let exact = exact_bv_jq(&jury, Prior::uniform()).expect("small jury");
        let approx = estimator_50.jq(&jury, Prior::uniform());
        let error = (exact - approx).abs();
        max_error = max_error.max(error);
        histogram.add(error);
    }
    println!("Figure 9(c): error histogram at numBuckets = 50 over {hist_trials} juries");
    for (i, &count) in histogram.counts().iter().enumerate() {
        let (lo, hi) = histogram.bin_edges(i);
        println!("  [{:>8.5}%, {:>8.5}%): {count}", lo * 100.0, hi * 100.0);
    }
    println!("  above range: {}", histogram.outliers());
    println!(
        "  max error: {:.5}% (paper reports a maximum within 0.01%)\n",
        max_error * 100.0
    );

    // ---- (d) runtime with vs without pruning, n in [100, 500]. ----
    let n_values: Vec<f64> = if args.full {
        sweep(100.0, 500.0, 100.0)
    } else {
        sweep(100.0, 300.0, 100.0)
    };
    let mut with_pruning = Series::new("with pruning");
    let mut without_pruning = Series::new("without pruning");
    println!("Figure 9(d): JQ estimation time (seconds), numBuckets = 50");
    println!(
        "{:>6} | {:>12} | {:>14} | {:>7}",
        "n", "with pruning", "without pruning", "ratio"
    );
    for &n in &n_values {
        let mut rng = StdRng::seed_from_u64(args.seed.wrapping_add(n as u64));
        let jury = random_jury(n as usize, &generator, &mut rng);
        let pruning_estimator = BucketJqEstimator::new(BucketJqConfig::paper_experiments());
        let plain_estimator =
            BucketJqEstimator::new(BucketJqConfig::paper_experiments().with_pruning(false));
        let repeats = 5;
        let (_, with_seconds) = timed(|| {
            for _ in 0..repeats {
                let _ = pruning_estimator.jq(&jury, Prior::uniform());
            }
        });
        let (_, without_seconds) = timed(|| {
            for _ in 0..repeats {
                let _ = plain_estimator.jq(&jury, Prior::uniform());
            }
        });
        let with_seconds = with_seconds / repeats as f64;
        let without_seconds = without_seconds / repeats as f64;
        println!(
            "{:>6} | {:>12.4} | {:>15.4} | {:>6.2}x",
            n as usize,
            with_seconds,
            without_seconds,
            without_seconds / with_seconds.max(1e-12)
        );
        with_pruning.push(n, with_seconds);
        without_pruning.push(n, without_seconds);
    }
    println!("Paper shape: pruning saves more than half of the computation and scales with n.\n");

    let dump = serde_json::json!({
        "experiment": "figure_9_jq_computation",
        "trials": args.trials,
        "fig9a_jq_vs_mu_by_variance": fig9a,
        "fig9b_error_vs_buckets": fig9b,
        "fig9c_histogram_counts": histogram.counts(),
        "fig9c_max_error": max_error,
        "fig9d_with_pruning": with_pruning,
        "fig9d_without_pruning": without_pruning,
    });
    maybe_write_json(&args.out, &dump);
}
