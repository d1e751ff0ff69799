//! Budget planning for a large synthetic crowd: generate a pool of workers
//! with the paper's Gaussian quality/cost model, build the budget–quality
//! table with OPTJS, and compare against the MVJS baseline at each budget —
//! the workflow a task provider would follow before spending anything.
//!
//! Run with:
//! ```text
//! cargo run -p jury-examples --release --bin budget_quality_table
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_bench::ComparisonSeries;
use jury_model::{GaussianWorkerGenerator, Prior};
use jury_service::{JuryService, SelectionRequest, ServiceConfig, Strategy};

fn main() {
    // A synthetic crowd of 50 candidates (Section 6.1.1 defaults).
    let generator = GaussianWorkerGenerator::paper_defaults();
    let mut rng = StdRng::seed_from_u64(7);
    let pool = generator.generate(50, &mut rng);
    println!(
        "Candidate pool: {} workers, mean quality {:.3}, total cost {:.2}\n",
        pool.len(),
        pool.mean_quality(),
        pool.total_cost()
    );

    let service = JuryService::new(ServiceConfig::fast());

    // Budget-quality table under OPTJS.
    let budgets: Vec<f64> = (1..=8).map(|i| i as f64 * 0.1).collect();
    let table = service
        .budget_quality_table(&pool, &budgets, Prior::uniform())
        .expect("the example budgets are valid");
    println!("OPTJS budget-quality table:");
    println!("{}", table.render());

    println!("Marginal quality gained per extra 0.1 of budget:");
    for (row, gain) in table.rows().iter().zip(table.marginal_gains().iter()) {
        println!("  budget {:.1}: {:+.2}%", row.budget, gain * 100.0);
    }

    if let Some(row) = table.cheapest_reaching(0.95) {
        println!(
            "\nCheapest way to reach 95% quality: budget {:.1} (actually spends {:.2})",
            row.budget, row.required_budget
        );
    }

    // Head-to-head with the MVJS baseline at each budget: the same request
    // under the majority-voting strategy.
    let mut comparison = ComparisonSeries::new("budget");
    for &budget in &budgets {
        let [o, m] = [Strategy::Bv, Strategy::Mv].map(|strategy| {
            let request = SelectionRequest::new(pool.clone(), budget)
                .with_prior(Prior::uniform())
                .with_strategy(strategy)
                .allow_empty_selection(true);
            service
                .select(&request)
                .expect("the example budget is valid")
        });
        comparison.push(budget, o.quality, m.quality);
    }
    println!("\nOPTJS vs the majority-voting baseline (MVJS):");
    println!("{}", comparison.render());
    println!(
        "Average OPTJS lead: {:+.2}%",
        comparison.mean_lead() * 100.0
    );
}
