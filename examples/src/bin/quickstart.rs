//! Quickstart: the full OPTJS loop on the paper's running example.
//!
//! 1. Describe the candidate workers (quality, cost) and the task prior.
//! 2. Ask the service for the budget–quality table (Figure 1).
//! 3. Pick a budget, select the optimal jury, collect (simulated) votes, and
//!    aggregate them with Bayesian voting.
//!
//! Run with:
//! ```text
//! cargo run -p jury-examples --release --bin quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_bench::run_simulated_task;
use jury_model::{paper_example_pool, Answer, DecisionTask, Prior};
use jury_service::JuryService;

fn main() {
    // The decision-making task of Figure 1, with the provider's 70/30 prior.
    let task = DecisionTask::paper_example();
    println!("Task: {}", task.question());
    println!(
        "Prior: {} (the provider leans towards 'no')\n",
        task.prior()
    );

    // The seven candidate workers A–G with their (quality, cost) pairs.
    let pool = paper_example_pool();
    println!("Candidate workers:");
    for worker in pool.iter() {
        println!(
            "  {}: quality {:.2}, cost ${:.0}",
            worker.id(),
            worker.quality(),
            worker.cost()
        );
    }

    // Build the budget–quality table so the provider can choose a budget.
    let service = JuryService::paper_experiments();
    let table = service
        .budget_quality_table(&pool, &[5.0, 10.0, 15.0, 20.0], Prior::uniform())
        .expect("the example budgets are valid");
    println!("\nBudget-quality table (uniform prior, as in Figure 1):");
    println!("{}", table.render());

    // The provider decides 15 units is the sweet spot; run the whole loop.
    let mut rng = StdRng::seed_from_u64(2015);
    let truth = task.ground_truth().unwrap_or(Answer::No);
    let outcome = run_simulated_task(&service, &pool, 15.0, task.prior(), truth, &mut rng)
        .expect("the example budget is valid");

    println!("Selected jury: {:?}", outcome.selected);
    println!("Jury cost: ${:.0}", outcome.cost);
    println!(
        "Predicted jury quality: {:.2}%",
        outcome.predicted_jq * 100.0
    );
    println!(
        "Aggregated answer: {}  (ground truth: {})",
        outcome.decided, outcome.truth
    );
    println!("Correct: {}", outcome.is_correct());
}
