//! End-to-end pipelines: select a jury with OPTJS (a [`JuryService`] request
//! under `Strategy::Bv`), collect (or replay) its votes, and aggregate them
//! with Bayesian voting.
//!
//! Two flavours are provided:
//!
//! * [`run_on_dataset`] replays a collected [`CrowdDataset`] — for every
//!   task, the candidate set is the workers who actually answered it (as in
//!   the paper's real-data JSP experiment, Section 6.2.2), the service picks
//!   a jury within the budget, and only the selected workers' recorded votes
//!   are aggregated;
//! * [`run_simulated_task`] runs a single fresh task through the full loop —
//!   selection, simulated answering, aggregation — which is what the
//!   quickstart example demonstrates.

use rand::Rng;

use jury_model::{Answer, CrowdDataset, Prior, TaskId, WorkerId, WorkerPool};
use jury_service::{JuryService, ServiceError, Strategy};
use jury_sim::draw_voting;
use jury_voting::BayesianVoting;

use crate::select_jury;

/// The outcome of one task run through the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOutcome {
    /// The task.
    pub task: TaskId,
    /// The selected jury members.
    pub selected: Vec<WorkerId>,
    /// The answer produced by Bayesian voting over the jury's votes.
    pub decided: Answer,
    /// The task's ground truth.
    pub truth: Answer,
    /// The service's predicted jury quality at selection time.
    pub predicted_jq: f64,
    /// The jury's cost.
    pub cost: f64,
}

impl TaskOutcome {
    /// Whether the aggregated answer matched the ground truth.
    pub fn is_correct(&self) -> bool {
        self.decided == self.truth
    }
}

/// Aggregate report over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetReport {
    /// Per-task outcomes.
    pub outcomes: Vec<TaskOutcome>,
    /// Fraction of tasks answered correctly.
    pub accuracy: f64,
    /// Mean predicted jury quality across tasks.
    pub mean_predicted_jq: f64,
    /// Mean jury cost across tasks.
    pub mean_cost: f64,
}

impl DatasetReport {
    fn from_outcomes(outcomes: Vec<TaskOutcome>) -> Self {
        let n = outcomes.len().max(1) as f64;
        let accuracy = outcomes.iter().filter(|o| o.is_correct()).count() as f64 / n;
        let mean_predicted_jq = outcomes.iter().map(|o| o.predicted_jq).sum::<f64>() / n;
        let mean_cost = outcomes.iter().map(|o| o.cost).sum::<f64>() / n;
        DatasetReport {
            outcomes,
            accuracy,
            mean_predicted_jq,
            mean_cost,
        }
    }
}

/// Replays a collected dataset through the OPTJS pipeline with a per-task
/// budget: for every task the candidate pool is restricted to the workers
/// who answered it, a jury is selected, and the selected workers' recorded
/// votes are aggregated with BV.
///
/// Errors if the budget is invalid (the selection service validates every
/// per-task request).
pub fn run_on_dataset(
    service: &JuryService,
    dataset: &CrowdDataset,
    budget: f64,
) -> Result<DatasetReport, ServiceError> {
    let mut outcomes = Vec::with_capacity(dataset.num_tasks());
    for task in dataset.tasks() {
        // Candidate pool: the workers who answered this task.
        let candidates: Vec<_> = task
            .votes()
            .iter()
            .filter_map(|v| dataset.workers().get(v.worker).ok().cloned())
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let pool = WorkerPool::from_workers(candidates)
            .expect("a task's voters are distinct by construction");
        let outcome = select_jury(service, &pool, budget, task.prior(), Strategy::Bv)?;

        // Aggregate only the selected workers' recorded votes, in the order
        // of the selected jury.
        let votes: Vec<Answer> = outcome
            .jury
            .workers()
            .iter()
            .map(|member| {
                task.votes()
                    .iter()
                    .find(|v| v.worker == member.id())
                    .map(|v| v.answer)
                    .expect("selected workers come from the task's voters")
            })
            .collect();
        let decided = if outcome.jury.is_empty() {
            // No affordable juror: fall back to the prior's mode.
            if task.prior().alpha() >= 0.5 {
                Answer::No
            } else {
                Answer::Yes
            }
        } else {
            BayesianVoting::result(&outcome.jury, &votes, task.prior())
                .expect("votes are aligned with the jury by construction")
        };

        outcomes.push(TaskOutcome {
            task: task.id(),
            selected: outcome.worker_ids(),
            decided,
            truth: task.ground_truth(),
            predicted_jq: outcome.quality,
            cost: outcome.cost,
        });
    }
    Ok(DatasetReport::from_outcomes(outcomes))
}

/// Runs one synthetic task through the full loop: select a jury from the
/// pool, draw the jury's votes from their latent qualities, and aggregate
/// with BV.
pub fn run_simulated_task<R: Rng>(
    service: &JuryService,
    pool: &WorkerPool,
    budget: f64,
    prior: Prior,
    truth: Answer,
    rng: &mut R,
) -> Result<TaskOutcome, ServiceError> {
    let outcome = select_jury(service, pool, budget, prior, Strategy::Bv)?;
    let votes = draw_voting(&outcome.jury, truth, rng);
    let decided = if outcome.jury.is_empty() {
        if prior.alpha() >= 0.5 {
            Answer::No
        } else {
            Answer::Yes
        }
    } else {
        BayesianVoting::result(&outcome.jury, &votes, prior)
            .expect("simulated votes align with the jury")
    };
    Ok(TaskOutcome {
        task: TaskId(0),
        selected: outcome.worker_ids(),
        decided,
        truth,
        predicted_jq: outcome.quality,
        cost: outcome.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_model::paper_example_pool;
    use jury_service::ServiceConfig;
    use jury_sim::{AmtCampaignConfig, AmtSimulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn simulated_task_pipeline_runs_end_to_end() {
        let service = JuryService::new(ServiceConfig::fast());
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = run_simulated_task(
            &service,
            &paper_example_pool(),
            15.0,
            Prior::uniform(),
            Answer::Yes,
            &mut rng,
        )
        .unwrap();
        assert_eq!(outcome.selected.len(), 3);
        assert!(outcome.cost <= 15.0);
        assert!(outcome.predicted_jq > 0.8);
        assert!(outcome.decided == Answer::Yes || outcome.decided == Answer::No);
    }

    #[test]
    fn simulated_accuracy_tracks_predicted_jq_over_many_tasks() {
        let service = JuryService::new(ServiceConfig::fast());
        let mut rng = StdRng::seed_from_u64(2);
        let pool = paper_example_pool();
        let trials = 300;
        let mut correct = 0usize;
        let mut predicted = 0.0;
        for i in 0..trials {
            let truth = if i % 2 == 0 { Answer::Yes } else { Answer::No };
            let outcome =
                run_simulated_task(&service, &pool, 15.0, Prior::uniform(), truth, &mut rng)
                    .unwrap();
            if outcome.is_correct() {
                correct += 1;
            }
            predicted += outcome.predicted_jq;
        }
        let accuracy = correct as f64 / trials as f64;
        let predicted = predicted / trials as f64;
        assert!(
            (accuracy - predicted).abs() < 0.07,
            "accuracy {accuracy} vs predicted {predicted}"
        );
    }

    #[test]
    fn dataset_replay_produces_a_consistent_report() {
        let sim = AmtSimulator::new(AmtCampaignConfig::small());
        let mut rng = StdRng::seed_from_u64(3);
        let dataset = sim.run(&mut rng).unwrap();
        let service = JuryService::new(ServiceConfig::fast());
        let report = run_on_dataset(&service, &dataset, 0.5).unwrap();
        assert_eq!(report.outcomes.len(), dataset.num_tasks());
        assert!(report.accuracy > 0.6, "accuracy {}", report.accuracy);
        assert!(report.mean_predicted_jq > 0.6);
        assert!(report.mean_cost <= 0.5 + 1e-9);
        // Every selected jury only contains workers who answered the task.
        for outcome in &report.outcomes {
            let task = dataset.task(outcome.task).unwrap();
            let voters: Vec<WorkerId> = task.answering_workers();
            for id in &outcome.selected {
                assert!(voters.contains(id));
            }
        }
    }

    #[test]
    fn empty_budget_falls_back_to_the_prior() {
        let sim = AmtSimulator::new(AmtCampaignConfig::small());
        let mut rng = StdRng::seed_from_u64(4);
        let dataset = sim.run(&mut rng).unwrap();
        let service = JuryService::new(ServiceConfig::fast());
        let report = run_on_dataset(&service, &dataset, 0.0).unwrap();
        // With no budget every jury is empty, the answer is the prior's mode
        // (No under a uniform prior), and roughly half the tasks are right.
        assert!(report.outcomes.iter().all(|o| o.selected.is_empty()));
        assert!((report.accuracy - 0.5).abs() < 0.2);
        assert!((report.mean_predicted_jq - 0.5).abs() < 1e-9);
        assert_eq!(report.mean_cost, 0.0);
    }
}
