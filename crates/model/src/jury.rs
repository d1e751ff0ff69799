//! Juries: subsets of the candidate worker pool.
//!
//! A jury `J ⊆ W` of size `n` is the unit the Jury Selection Problem reasons
//! about: its **jury cost** is the sum of its members' costs, and a jury is
//! *feasible* under budget `B` iff its cost does not exceed `B` (Section 2.2).

use serde::{Deserialize, Serialize};

use crate::answer::Answer;
use crate::error::{ModelError, ModelResult};
use crate::worker::{Worker, WorkerId, WorkerPool};

/// A jury (jury set): an ordered collection of workers drawn from a pool.
///
/// The order of workers matters only for aligning votes with jurors; the JQ
/// of a jury is invariant under permutation of its members.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Jury {
    workers: Vec<Worker>,
}

impl Jury {
    /// Creates a jury from a list of workers.
    pub fn new(workers: Vec<Worker>) -> Self {
        Jury { workers }
    }

    /// The empty jury.
    pub fn empty() -> Self {
        Jury {
            workers: Vec::new(),
        }
    }

    /// Creates a jury of free workers with the given qualities and sequential
    /// ids; convenient for tests and for the JQ-only experiments where costs
    /// play no role (e.g. Figure 8).
    pub fn from_qualities(qualities: &[f64]) -> ModelResult<Self> {
        let workers = qualities
            .iter()
            .enumerate()
            .map(|(i, &q)| Worker::free(WorkerId(i as u32), q))
            .collect::<ModelResult<Vec<_>>>()?;
        Ok(Jury::new(workers))
    }

    /// Creates a jury by selecting the given ids from a pool.
    pub fn from_pool(pool: &WorkerPool, ids: &[WorkerId]) -> ModelResult<Self> {
        Ok(Jury::new(pool.select(ids)?))
    }

    /// Number of jurors `n`.
    #[inline]
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Whether the jury has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The jury cost: the sum of the members' costs.
    pub fn cost(&self) -> f64 {
        self.workers.iter().map(|w| w.cost()).sum()
    }

    /// Whether the jury cost is within the budget `B`.
    pub fn is_feasible(&self, budget: f64) -> bool {
        self.cost() <= budget + 1e-12
    }

    /// The members in order.
    #[inline]
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Iterates over the members.
    pub fn iter(&self) -> impl Iterator<Item = &Worker> {
        self.workers.iter()
    }

    /// The members' qualities, in order.
    pub fn qualities(&self) -> Vec<f64> {
        self.workers.iter().map(|w| w.quality()).collect()
    }

    /// The members' *effective* qualities (`max(q, 1 − q)`), in order.
    pub fn effective_qualities(&self) -> Vec<f64> {
        self.workers.iter().map(|w| w.effective_quality()).collect()
    }

    /// The members' ids, in order.
    pub fn ids(&self) -> Vec<WorkerId> {
        self.workers.iter().map(|w| w.id()).collect()
    }

    /// Whether a worker id belongs to this jury.
    pub fn contains(&self, id: WorkerId) -> bool {
        self.workers.iter().any(|w| w.id() == id)
    }

    /// Adds a worker to the jury (Lemma 1: adding a worker can only improve
    /// the jury quality under Bayesian voting).
    pub fn push(&mut self, worker: Worker) {
        self.workers.push(worker);
    }

    /// Returns a new jury extended with one more worker.
    pub fn with_worker(&self, worker: Worker) -> Self {
        let mut workers = self.workers.clone();
        workers.push(worker);
        Jury::new(workers)
    }

    /// Returns a new jury with the worker identified by `id` removed.
    pub fn without(&self, id: WorkerId) -> Self {
        Jury::new(
            self.workers
                .iter()
                .filter(|w| w.id() != id)
                .cloned()
                .collect(),
        )
    }

    /// Validates that a voting has exactly one vote per juror.
    pub fn check_voting(&self, votes: &[Answer]) -> ModelResult<()> {
        if votes.len() == self.size() {
            Ok(())
        } else {
            Err(ModelError::VoteCountMismatch {
                votes: votes.len(),
                jurors: self.size(),
            })
        }
    }

    /// The probability of observing the voting `V` conditioned on the true
    /// answer `t`, assuming independent workers (Section 3.2):
    ///
    /// * `Pr(V | t = 0) = Π q_i^(1-v_i) (1-q_i)^(v_i)`
    /// * `Pr(V | t = 1) = Π q_i^(v_i) (1-q_i)^(1-v_i)`
    pub fn voting_likelihood(&self, votes: &[Answer], truth: Answer) -> ModelResult<f64> {
        self.check_voting(votes)?;
        let mut p = 1.0;
        for (worker, &vote) in self.workers.iter().zip(votes.iter()) {
            let q = worker.quality();
            p *= if vote == truth { q } else { 1.0 - q };
        }
        Ok(p)
    }
}

impl From<Vec<Worker>> for Jury {
    fn from(workers: Vec<Worker>) -> Self {
        Jury::new(workers)
    }
}

impl<'a> IntoIterator for &'a Jury {
    type Item = &'a Worker;
    type IntoIter = std::slice::Iter<'a, Worker>;

    fn into_iter(self) -> Self::IntoIter {
        self.workers.iter()
    }
}

/// Iterates over every subset of a worker pool whose jury cost does not
/// exceed `budget` — the feasible jury set `C` of Section 2.2.
///
/// Subsets are generated in bitmask order, skipping (entire) subtrees is not
/// attempted; this is the brute-force reference the exhaustive JSP solver's
/// depth-first walk is tested against, and is limited to pools of at most
/// 25 workers.
pub fn feasible_juries(pool: &WorkerPool, budget: f64) -> Vec<Jury> {
    let n = pool.len();
    assert!(
        n <= 25,
        "feasible jury enumeration is limited to 25 candidate workers (got {n})"
    );
    let workers = pool.workers();
    let mut juries = Vec::new();
    for mask in 0u32..(1u32 << n) {
        let mut members = Vec::new();
        let mut cost = 0.0;
        for (i, worker) in workers.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                cost += worker.cost();
                members.push(worker.clone());
            }
        }
        if cost <= budget + 1e-12 {
            juries.push(Jury::new(members));
        }
    }
    juries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::paper_example_pool;

    #[test]
    fn jury_cost_and_feasibility() {
        // The paper's example: {B, E, F} costs 5 + 5 + 2 = 12 ≤ 20.
        let pool = paper_example_pool();
        let jury = Jury::from_pool(&pool, &[WorkerId(1), WorkerId(4), WorkerId(5)]).unwrap();
        assert_eq!(jury.size(), 3);
        assert!((jury.cost() - 12.0).abs() < 1e-12);
        assert!(jury.is_feasible(20.0));
        assert!(jury.is_feasible(12.0));
        assert!(!jury.is_feasible(11.0));
    }

    #[test]
    fn jury_from_qualities_assigns_sequential_ids() {
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        assert_eq!(jury.ids(), vec![WorkerId(0), WorkerId(1), WorkerId(2)]);
        assert_eq!(jury.qualities(), vec![0.9, 0.6, 0.6]);
        assert!((jury.cost() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn jury_membership_operations() {
        let mut jury = Jury::from_qualities(&[0.9, 0.6]).unwrap();
        assert!(jury.contains(WorkerId(0)));
        assert!(!jury.contains(WorkerId(5)));
        jury.push(Worker::free(WorkerId(5), 0.8).unwrap());
        assert_eq!(jury.size(), 3);
        let without = jury.without(WorkerId(0));
        assert_eq!(without.size(), 2);
        assert!(!without.contains(WorkerId(0)));
        let with = without.with_worker(Worker::free(WorkerId(9), 0.7).unwrap());
        assert_eq!(with.size(), 3);
        assert!(with.contains(WorkerId(9)));
        // The original jury is unchanged by the non-consuming builders.
        assert_eq!(jury.size(), 3);
    }

    #[test]
    fn empty_jury() {
        let jury = Jury::empty();
        assert!(jury.is_empty());
        assert_eq!(jury.size(), 0);
        assert_eq!(jury.cost(), 0.0);
        assert!(jury.is_feasible(0.0));
    }

    #[test]
    fn check_voting_validates_length() {
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        assert!(jury
            .check_voting(&[Answer::No, Answer::Yes, Answer::No])
            .is_ok());
        assert!(jury.check_voting(&[Answer::No]).is_err());
    }

    #[test]
    fn voting_likelihood_matches_paper_example() {
        // Example 2: workers with qualities 0.9, 0.6, 0.6 and V = {1, 0, 0}.
        // Pr(V | t = 0) = (1-0.9)·0.6·0.6 = 0.036, and with α = 0.5 the joint
        // probability 0.018 appears in Figure 2.
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let votes = [Answer::Yes, Answer::No, Answer::No];
        let p0 = jury.voting_likelihood(&votes, Answer::No).unwrap();
        let p1 = jury.voting_likelihood(&votes, Answer::Yes).unwrap();
        assert!((p0 - 0.036).abs() < 1e-12);
        assert!((p1 - 0.9 * 0.4 * 0.4).abs() < 1e-12);
    }

    #[test]
    fn voting_likelihoods_sum_to_one_over_all_votings() {
        let jury = Jury::from_qualities(&[0.7, 0.8, 0.65, 0.55]).unwrap();
        for truth in Answer::ALL {
            let total: f64 = crate::answer::enumerate_binary_votings(jury.size())
                .map(|v| jury.voting_likelihood(&v, truth).unwrap())
                .sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "likelihoods for t={truth} sum to {total}"
            );
        }
    }

    #[test]
    fn feasible_juries_enumeration() {
        let pool =
            WorkerPool::from_qualities_and_costs(&[0.9, 0.8, 0.7], &[1.0, 2.0, 4.0]).unwrap();
        let all = feasible_juries(&pool, 3.0);
        // Subsets within budget 3: {}, {0}, {1}, {0,1}.
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|j| j.is_feasible(3.0)));
        let big = feasible_juries(&pool, 100.0);
        assert_eq!(big.len(), 8);
    }

    #[test]
    fn feasible_juries_respects_exact_budget_boundary() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.9, 0.8], &[1.0, 2.0]).unwrap();
        let all = feasible_juries(&pool, 3.0);
        // The full set costing exactly 3.0 must be included.
        assert!(all.iter().any(|j| j.size() == 2));
    }
}
