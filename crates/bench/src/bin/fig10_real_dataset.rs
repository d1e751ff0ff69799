//! Reproduces Figure 10: the evaluation on the (simulated) Amazon Mechanical
//! Turk sentiment-analysis dataset.
//!
//! The paper's real dataset (600 tweets, 128 workers, 20 votes per task) is
//! replaced by the statistically matched simulation in `jury-sim::amt` (its
//! module doc gives the substitution argument). For every task the candidate
//! pool is the set of workers who answered it, exactly as in Section 6.2.2:
//!
//! * (a) OPTJS vs MVJS varying the budget B;
//! * (b) OPTJS vs MVJS varying the number of candidate workers N per task;
//! * (c) OPTJS vs MVJS varying the cost standard deviation σ̂;
//! * (d) realized BV accuracy vs. average predicted JQ as the number of
//!   replayed votes z grows ("is JQ a good prediction?").
//!
//! `--trials N` sizes the default campaign at `15 × N` tasks (the default
//! `--trials 10` serves 150); `--full` runs the paper's full campaign
//! whatever `--trials` says.
//!
//! ```text
//! cargo run -p jury-bench --release --bin fig10_real_dataset -- --full
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_bench::{maybe_write_json, select_jury, sweep, ComparisonSeries, ExperimentArgs, Series};
use jury_jq::JqEngine;
use jury_model::{CrowdDataset, Prior, WorkerPool};
use jury_service::{JuryService, ServiceConfig, Strategy};
use jury_sim::{prefix_sweep, AmtCampaignConfig, AmtSimulator};

/// Average, over every task of the dataset, of the jury quality OPTJS and
/// MVJS achieve when selecting from that task's answering workers (optionally
/// truncated to the first `candidate_limit` voters) under `budget`.
fn per_task_comparison(
    dataset: &CrowdDataset,
    service: &JuryService,
    budget: f64,
    candidate_limit: usize,
    cost_scale: Option<f64>,
) -> (f64, f64) {
    let mut optjs_total = 0.0;
    let mut mvjs_total = 0.0;
    let mut counted = 0usize;
    for task in dataset.tasks() {
        let candidates: Vec<_> = task
            .votes()
            .iter()
            .take(candidate_limit)
            .filter_map(|v| dataset.workers().get(v.worker).ok().cloned())
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let candidates = match cost_scale {
            None => candidates,
            Some(scale) => candidates
                .iter()
                .map(|w| {
                    w.with_cost((0.05 + (w.cost() - 0.05) * scale).max(0.001))
                        .expect("scaled costs stay non-negative")
                })
                .collect(),
        };
        let pool = WorkerPool::from_workers(candidates).expect("distinct voters");
        let [o, m] = [Strategy::Bv, Strategy::Mv].map(|strategy| {
            select_jury(service, &pool, budget, Prior::uniform(), strategy)
                .expect("experiment budgets are valid")
        });
        optjs_total += o.quality;
        mvjs_total += m.quality;
        counted += 1;
    }
    let n = counted.max(1) as f64;
    (optjs_total / n, mvjs_total / n)
}

/// Tasks of the default (non-`--full`) campaign per `--trials` unit.
const TASKS_PER_TRIAL: usize = 15;

/// The campaign the run simulates: the paper's full campaign under
/// `--full`, otherwise `15 × trials` tasks over 64 workers.
fn campaign(args: &ExperimentArgs) -> AmtCampaignConfig {
    if args.full {
        AmtCampaignConfig::default()
    } else {
        AmtCampaignConfig {
            num_tasks: TASKS_PER_TRIAL * args.trials,
            num_workers: 64,
            ..AmtCampaignConfig::default()
        }
    }
}

fn main() {
    let args = ExperimentArgs::from_env();
    let campaign = campaign(&args);
    println!(
        "Figure 10 — simulated AMT sentiment dataset ({} tasks, {} workers, {} votes/task)\n",
        campaign.num_tasks, campaign.num_workers, campaign.votes_per_task
    );

    let simulator = AmtSimulator::new(campaign.clone());
    let mut rng = StdRng::seed_from_u64(args.seed);
    let dataset = simulator
        .run(&mut rng)
        .expect("campaign dimensions are valid");
    println!(
        "dataset: {} votes, {:.2} answers/worker, mean empirical quality {:.3}\n",
        dataset.num_votes(),
        dataset.mean_answers_per_worker(),
        dataset.mean_empirical_quality()
    );

    let config = if args.full {
        ServiceConfig::paper_experiments()
    } else {
        ServiceConfig::fast()
    };
    let service = JuryService::new(config);

    // ---- (a) varying the budget. ----
    let mut fig10a = ComparisonSeries::new("budget");
    for budget in sweep(0.2, 1.0, 0.1) {
        let (o, m) = per_task_comparison(&dataset, &service, budget, campaign.votes_per_task, None);
        fig10a.push(budget, o, m);
    }
    println!(
        "Figure 10(a): varying budget B (all {} voters per task)",
        campaign.votes_per_task
    );
    println!("{}", fig10a.render());

    // ---- (b) varying the number of candidate workers per task. ----
    let mut fig10b = ComparisonSeries::new("N");
    let candidate_counts: Vec<usize> = vec![4, 6, 8, 10, 12, 14, 16, 18, 20]
        .into_iter()
        .filter(|&n| n <= campaign.votes_per_task)
        .collect();
    for &n in &candidate_counts {
        let (o, m) = per_task_comparison(&dataset, &service, 0.5, n, None);
        fig10b.push(n as f64, o, m);
    }
    println!("Figure 10(b): varying candidate workers per task N (B = 0.5)");
    println!("{}", fig10b.render());

    // ---- (c) varying the cost standard deviation. ----
    let mut fig10c = ComparisonSeries::new("cost_sd");
    for sd in sweep(0.1, 1.0, 0.1) {
        // Rescale each worker's cost spread around the mean 0.05 so that the
        // effective standard deviation matches the sweep value (the campaign
        // was generated at sd = 0.2).
        let scale = sd / campaign.cost_std_dev.max(1e-9);
        let (o, m) = per_task_comparison(
            &dataset,
            &service,
            0.5,
            campaign.votes_per_task,
            Some(scale),
        );
        fig10c.push(sd, o, m);
    }
    println!("Figure 10(c): varying cost standard deviation (B = 0.5)");
    println!("{}", fig10c.render());

    // ---- (d) is JQ a good prediction? ----
    let engine = JqEngine::new(config.bucket).with_exact_cutoff(config.exact_cutoff);
    let zs: Vec<usize> = (3..=campaign.votes_per_task).step_by(3).collect();
    let points = prefix_sweep(&dataset, &zs, Prior::uniform(), &engine);
    let mut accuracy_series = Series::new("realized BV accuracy");
    let mut jq_series = Series::new("average predicted JQ");
    println!("Figure 10(d): accuracy vs average JQ as the number of votes z grows");
    println!(
        "{:>4} | {:>9} | {:>11} | {:>7}",
        "z", "accuracy", "average JQ", "gap"
    );
    for point in &points {
        accuracy_series.push(point.votes_used as f64, point.accuracy);
        jq_series.push(point.votes_used as f64, point.average_jq);
        println!(
            "{:>4} | {:>8.2}% | {:>10.2}% | {:>+6.2}%",
            point.votes_used,
            point.accuracy * 100.0,
            point.average_jq * 100.0,
            (point.accuracy - point.average_jq) * 100.0
        );
    }
    println!("\nPaper shape: OPTJS >= MVJS on every panel; the accuracy and JQ curves are highly similar.");
    println!(
        "This run: 10(a) dominates = {}, 10(b) dominates = {}, 10(c) dominates = {}",
        fig10a.optjs_dominates(0.005),
        fig10b.optjs_dominates(0.005),
        fig10c.optjs_dominates(0.005)
    );

    let dump = serde_json::json!({
        "experiment": "figure_10_real_dataset",
        "full": args.full,
        "campaign": {
            "num_tasks": campaign.num_tasks,
            "num_workers": campaign.num_workers,
            "votes_per_task": campaign.votes_per_task,
        },
        "dataset_mean_quality": dataset.mean_empirical_quality(),
        "fig10a_vary_budget": fig10a,
        "fig10b_vary_n": fig10b,
        "fig10c_vary_cost_sd": fig10c,
        "fig10d_accuracy": accuracy_series,
        "fig10d_average_jq": jq_series,
    });
    maybe_write_json(&args.out, &dump);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_size_the_default_campaign_and_full_ignores_them() {
        let args = |trials, full| ExperimentArgs {
            trials,
            full,
            ..ExperimentArgs::default()
        };
        // The default `--trials 10` keeps the 150-task campaign.
        assert_eq!(campaign(&ExperimentArgs::default()).num_tasks, 150);
        assert_eq!(campaign(&args(1, false)).num_tasks, 15);
        assert_eq!(campaign(&args(4, false)).num_workers, 64);
        let full = AmtCampaignConfig::default();
        assert_eq!(campaign(&args(1, true)), full);
        assert_eq!(campaign(&args(10, true)), full);
    }
}
