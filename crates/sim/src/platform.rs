//! A simulated crowdsourcing platform (the Amazon-Mechanical-Turk substitute
//! described in the [`crate::amt`] module doc).
//!
//! The paper collected its real dataset on AMT (Section 6.2.1): questions are
//! batched into HITs, each HIT is replicated into `m` assignments, and each
//! assignment is answered by one worker for a fixed reward. This module
//! simulates that process end to end: tasks are batched into HITs, workers
//! pick up assignments according to their activity weights (so a few workers
//! answer almost everything and many answer a single HIT, as observed on
//! AMT), and every answer is drawn from the worker's latent quality.

use rand::Rng;

use jury_model::{
    Answer, CrowdDataset, ModelError, ModelResult, Prior, TaskId, TaskRecord, WorkerId, WorkerPool,
};

use crate::answering::draw_vote;

/// Configuration of the simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Number of questions batched into one HIT (the paper uses 20).
    pub questions_per_hit: usize,
    /// Number of assignments per HIT, i.e. how many distinct workers answer
    /// each question (the paper sets `m = 20`).
    pub assignments_per_hit: usize,
    /// Reward per HIT in dollars (the paper pays $0.02); recorded for
    /// reporting, the selection experiments use per-worker costs instead.
    pub reward_per_hit: f64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            questions_per_hit: 20,
            assignments_per_hit: 20,
            reward_per_hit: 0.02,
        }
    }
}

/// One published HIT: a batch of task ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Index of the HIT within the batch run.
    pub index: usize,
    /// The tasks contained in the HIT.
    pub tasks: Vec<TaskId>,
}

/// The simulated platform.
#[derive(Debug, Clone)]
pub struct SimulatedPlatform {
    config: PlatformConfig,
}

impl SimulatedPlatform {
    /// Creates a platform with the given configuration.
    pub fn new(config: PlatformConfig) -> Self {
        SimulatedPlatform { config }
    }

    /// Creates a platform with the paper's AMT settings (20 questions per
    /// HIT, 20 assignments, $0.02 per HIT).
    pub fn paper_settings() -> Self {
        SimulatedPlatform::new(PlatformConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Batches `num_tasks` tasks into HITs of `questions_per_hit`.
    pub fn batch_into_hits(&self, num_tasks: usize) -> Vec<Hit> {
        let per = self.config.questions_per_hit.max(1);
        (0..num_tasks)
            .map(|i| TaskId(i as u64))
            .collect::<Vec<_>>()
            .chunks(per)
            .enumerate()
            .map(|(index, chunk)| Hit {
                index,
                tasks: chunk.to_vec(),
            })
            .collect()
    }

    /// Runs a full crowdsourcing campaign: every task in `truths` is
    /// published, batched into HITs, assigned to `assignments_per_hit`
    /// distinct workers (sampled proportionally to `activity` without
    /// replacement within a HIT), and answered according to each worker's
    /// latent quality.
    ///
    /// `activity[i]` is the relative propensity of worker `i` to pick up a
    /// HIT; uniform activity gives every worker the same expected load.
    pub fn run_campaign<R: Rng + ?Sized>(
        &self,
        workers: &WorkerPool,
        truths: &[Answer],
        activity: &[f64],
        rng: &mut R,
    ) -> ModelResult<CrowdDataset> {
        if workers.is_empty() {
            return Err(ModelError::Empty {
                what: "worker pool",
            });
        }
        if workers.len() != activity.len() {
            return Err(ModelError::VoteCountMismatch {
                votes: activity.len(),
                jurors: workers.len(),
            });
        }
        if self.config.assignments_per_hit > workers.len() {
            return Err(ModelError::Empty {
                what: "worker pool (fewer workers than assignments per HIT)",
            });
        }

        let hits = self.batch_into_hits(truths.len());
        let mut records: Vec<TaskRecord> = truths
            .iter()
            .enumerate()
            .map(|(i, &t)| TaskRecord::new(TaskId(i as u64), Prior::uniform(), t))
            .collect();

        for hit in &hits {
            let assignees = sample_distinct_weighted(
                workers.len(),
                self.config.assignments_per_hit,
                activity,
                rng,
            );
            for &worker_index in &assignees {
                let worker = &workers.workers()[worker_index];
                for &task_id in &hit.tasks {
                    let record = &mut records[task_id.raw() as usize];
                    let vote = draw_vote(worker, record.ground_truth(), rng);
                    record.push_vote(WorkerId(worker.id().raw()), vote);
                }
            }
        }

        CrowdDataset::new(workers.clone(), records)
    }
}

/// Samples `k` distinct indices from `0..n` with probability proportional to
/// `weights`, by repeated weighted draws without replacement.
fn sample_distinct_weighted<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    weights: &[f64],
    rng: &mut R,
) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..n).collect();
    let local_weights: Vec<f64> = weights.iter().map(|w| w.max(1e-12)).collect();
    let mut chosen = Vec::with_capacity(k.min(n));
    for _ in 0..k.min(n) {
        let total: f64 = remaining.iter().map(|&i| local_weights[i]).sum();
        let mut u = rng.gen::<f64>() * total;
        let mut pick_pos = 0usize;
        for (pos, &i) in remaining.iter().enumerate() {
            u -= local_weights[i];
            if u <= 0.0 {
                pick_pos = pos;
                break;
            }
            pick_pos = pos;
        }
        let picked = remaining.swap_remove(pick_pos);
        chosen.push(picked);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truths(n: usize) -> Vec<Answer> {
        (0..n)
            .map(|i| if i % 2 == 0 { Answer::Yes } else { Answer::No })
            .collect()
    }

    #[test]
    fn hits_are_batched_in_order() {
        let platform = SimulatedPlatform::paper_settings();
        let hits = platform.batch_into_hits(45);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].tasks.len(), 20);
        assert_eq!(hits[2].tasks.len(), 5);
        assert_eq!(hits[1].tasks[0], TaskId(20));
        assert_eq!(hits[2].index, 2);
    }

    #[test]
    fn campaign_produces_the_expected_vote_counts() {
        let platform = SimulatedPlatform::new(PlatformConfig {
            questions_per_hit: 10,
            assignments_per_hit: 5,
            reward_per_hit: 0.02,
        });
        let workers = WorkerPool::from_qualities(&[0.9, 0.8, 0.7, 0.6, 0.75, 0.85, 0.65]).unwrap();
        let activity = vec![1.0; workers.len()];
        let mut rng = StdRng::seed_from_u64(1);
        let dataset = platform
            .run_campaign(&workers, &truths(30), &activity, &mut rng)
            .unwrap();
        assert_eq!(dataset.num_tasks(), 30);
        // Every task receives exactly `assignments_per_hit` votes from
        // distinct workers.
        for task in dataset.tasks() {
            assert_eq!(task.num_votes(), 5);
            let mut voters = task.answering_workers();
            voters.sort();
            voters.dedup();
            assert_eq!(voters.len(), 5);
        }
        assert_eq!(dataset.num_votes(), 30 * 5);
    }

    #[test]
    fn campaign_accuracy_tracks_worker_quality() {
        // High-quality workers should answer mostly correctly.
        let platform = SimulatedPlatform::new(PlatformConfig {
            questions_per_hit: 25,
            assignments_per_hit: 3,
            reward_per_hit: 0.02,
        });
        let workers = WorkerPool::from_qualities(&[0.95, 0.9, 0.92]).unwrap();
        let activity = vec![1.0; 3];
        let mut rng = StdRng::seed_from_u64(2);
        let dataset = platform
            .run_campaign(&workers, &truths(200), &activity, &mut rng)
            .unwrap();
        let mean_quality = dataset.mean_empirical_quality();
        assert!(mean_quality > 0.85, "observed quality {mean_quality}");
    }

    #[test]
    fn skewed_activity_skews_participation() {
        let platform = SimulatedPlatform::new(PlatformConfig {
            questions_per_hit: 5,
            assignments_per_hit: 2,
            reward_per_hit: 0.02,
        });
        let workers = WorkerPool::from_qualities(&[0.7; 10]).unwrap();
        // Worker 0 is hundreds of times more active than the rest.
        let mut activity = vec![0.01; 10];
        activity[0] = 5.0;
        let mut rng = StdRng::seed_from_u64(3);
        let dataset = platform
            .run_campaign(&workers, &truths(100), &activity, &mut rng)
            .unwrap();
        let stats = dataset.worker_stats();
        let busiest = stats.iter().max_by_key(|s| s.answered).unwrap();
        assert_eq!(busiest.worker, WorkerId(0));
        assert!(
            busiest.answered >= 90,
            "dominant worker answered {}",
            busiest.answered
        );
    }

    #[test]
    fn configuration_errors_are_reported() {
        let platform = SimulatedPlatform::paper_settings();
        let workers = WorkerPool::from_qualities(&[0.7, 0.8]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // More assignments than workers.
        assert!(platform
            .run_campaign(&workers, &truths(10), &[1.0, 1.0], &mut rng)
            .is_err());
        // Mismatched activity length.
        let platform = SimulatedPlatform::new(PlatformConfig {
            questions_per_hit: 5,
            assignments_per_hit: 2,
            reward_per_hit: 0.02,
        });
        assert!(platform
            .run_campaign(&workers, &truths(10), &[1.0], &mut rng)
            .is_err());
        // Empty pool.
        assert!(platform
            .run_campaign(&WorkerPool::new(), &truths(10), &[], &mut rng)
            .is_err());
    }

    #[test]
    fn weighted_sampling_returns_distinct_indices() {
        let mut rng = StdRng::seed_from_u64(5);
        let weights = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        for _ in 0..100 {
            let mut picked = sample_distinct_weighted(5, 3, &weights, &mut rng);
            picked.sort();
            picked.dedup();
            assert_eq!(picked.len(), 3);
            assert!(picked.iter().all(|&i| i < 5));
        }
        // Asking for more than available returns everything.
        let all = sample_distinct_weighted(3, 10, &[1.0, 1.0, 1.0], &mut rng);
        assert_eq!(all.len(), 3);
    }
}
