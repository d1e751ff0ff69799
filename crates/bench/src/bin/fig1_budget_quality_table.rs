//! Reproduces the paper's Figure 1: the budget–quality table of the Optimal
//! Jury Selection System on the seven-worker running example, plus the MVJS
//! baseline's choice at the same budgets.
//!
//! ```text
//! cargo run -p jury-bench --release --bin fig1_budget_quality_table
//! ```

use jury_bench::{maybe_write_json, select_jury, ExperimentArgs};
use jury_model::{paper_example_pool, Prior};
use jury_service::{JuryService, Strategy};

fn main() {
    let args = ExperimentArgs::from_env();
    let pool = paper_example_pool();
    let budgets = [5.0, 10.0, 15.0, 20.0];

    println!("Figure 1 — Optimal Jury Selection System on the running example");
    println!("Candidate workers (quality, cost):");
    for worker in pool.iter() {
        println!(
            "  {}: ({:.2}, ${:.0})",
            worker.id(),
            worker.quality(),
            worker.cost()
        );
    }
    println!();

    let service = JuryService::paper_experiments();
    let table = service
        .budget_quality_table(&pool, &budgets, Prior::uniform())
        .expect("experiment budgets are valid");
    println!("Budget-quality table (OPTJS, Bayesian voting):");
    println!("{}", table.render());

    println!("Paper-reported rows for comparison:");
    println!("  budget 5  -> quality 75%,    required 5");
    println!("  budget 10 -> quality 80%,    required 9");
    println!("  budget 15 -> quality 84.5%,  required 14");
    println!("  budget 20 -> quality 86.95%, required 20");
    println!();

    println!("MVJS baseline (majority voting) at the same budgets:");
    println!("Budget | Jury                | JQ(MV)");
    println!("-------+---------------------+--------");
    let mut mvjs_rows = Vec::new();
    for &budget in &budgets {
        let outcome = select_jury(&service, &pool, budget, Prior::uniform(), Strategy::Mv)
            .expect("experiment budgets are valid");
        let ids: Vec<String> = outcome
            .worker_ids()
            .iter()
            .map(|id| id.to_string())
            .collect();
        println!(
            "{:>6.0} | {:<19} | {:>5.2}%",
            budget,
            format!("{{{}}}", ids.join(", ")),
            outcome.quality * 100.0
        );
        mvjs_rows.push(serde_json::json!({
            "budget": budget,
            "jury": ids,
            "quality": outcome.quality,
        }));
    }

    let dump = serde_json::json!({
        "experiment": "figure_1_budget_quality_table",
        "optjs": table.rows().iter().map(|r| serde_json::json!({
            "budget": r.budget,
            "jury": r.jury.iter().map(|id| id.to_string()).collect::<Vec<_>>(),
            "quality": r.quality,
            "required_budget": r.required_budget,
        })).collect::<Vec<_>>(),
        "mvjs": mvjs_rows,
        "trials": args.trials,
    });
    maybe_write_json(&args.out, &dump);
}
