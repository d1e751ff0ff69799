//! Sentiment-analysis campaign, end to end: simulate an AMT-like campaign
//! (the paper's real-data scenario), estimate worker qualities from the
//! collected answers — both with the simple empirical estimator and with
//! Dawid–Skene EM — and then re-run jury selection per task to see how much
//! budget OPTJS saves over using every collected vote.
//!
//! Run with:
//! ```text
//! cargo run -p jury-examples --release --bin sentiment_analysis
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_bench::run_on_dataset;
use jury_jq::JqEngine;
use jury_model::Prior;
use jury_service::{JuryService, ServiceConfig};
use jury_sim::{
    dawid_skene_fit, empirical_qualities, mean_absolute_error, prefix_sweep, AmtCampaignConfig,
    AmtSimulator, DawidSkeneConfig,
};

fn main() {
    // Simulate the crowdsourcing campaign: 150 tweets, 64 workers, 20 votes
    // per tweet (a scaled-down version of the paper's 600/128/20 campaign).
    let campaign = AmtCampaignConfig {
        num_tasks: 150,
        num_workers: 64,
        votes_per_task: 20,
        questions_per_hit: 20,
        cost_mean: 0.05,
        cost_std_dev: 0.2,
    };
    let simulator = AmtSimulator::new(campaign);
    let mut rng = StdRng::seed_from_u64(99);
    let dataset = simulator.run(&mut rng).expect("valid campaign");
    println!(
        "Collected {} votes over {} tasks from {} workers ({:.1} answers/worker)",
        dataset.num_votes(),
        dataset.num_tasks(),
        dataset.num_workers(),
        dataset.mean_answers_per_worker()
    );
    println!(
        "Mean empirical worker quality: {:.3}\n",
        dataset.mean_empirical_quality()
    );

    // Worker quality estimation: ground-truth-based vs unsupervised EM.
    let empirical = empirical_qualities(&dataset, 0.0);
    let em = dawid_skene_fit(&dataset, DawidSkeneConfig::default());
    println!(
        "Dawid-Skene EM: converged = {}, iterations = {}, label accuracy = {:.2}%",
        em.converged,
        em.iterations,
        em.accuracy_against(&dataset) * 100.0
    );
    println!(
        "Mean |EM quality - empirical quality| over workers: {:.4}\n",
        mean_absolute_error(&em.qualities, &empirical)
    );

    // Replay the dataset through OPTJS with a per-task budget: how accurate
    // is the selected (cheaper) jury compared to using all 20 votes?
    let service = JuryService::new(ServiceConfig::fast());
    for budget in [0.2, 0.5, 1.0] {
        let report =
            run_on_dataset(&service, &dataset, budget).expect("the example budget is valid");
        println!(
            "budget {budget:.1}: accuracy {:.2}%, predicted JQ {:.2}%, mean jury cost {:.3}",
            report.accuracy * 100.0,
            report.mean_predicted_jq * 100.0,
            report.mean_cost
        );
    }

    // Is JQ a good prediction? (the Figure 10(d) question, on this campaign)
    let engine = JqEngine::default();
    println!("\nPredicted JQ vs realized accuracy as more votes are used:");
    println!("{:>4} | {:>10} | {:>12}", "z", "accuracy", "predicted JQ");
    for point in prefix_sweep(&dataset, &[3, 6, 9, 12, 15, 18], Prior::uniform(), &engine) {
        println!(
            "{:>4} | {:>9.2}% | {:>11.2}%",
            point.votes_used,
            point.accuracy * 100.0,
            point.average_jq * 100.0
        );
    }
}
