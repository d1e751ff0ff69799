//! The Jury Selection Problem instance (Section 2.2).
//!
//! Given a candidate worker pool `W`, a budget `B`, and a task prior `α`,
//! JSP asks for the feasible jury maximizing the jury quality under the best
//! voting strategy — which, by Theorem 1, is Bayesian voting.

use jury_model::{Jury, ModelError, ModelResult, Prior, WorkerId, WorkerPool};
use serde::{Deserialize, Serialize};

/// One instance of the Jury Selection Problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JspInstance {
    pool: WorkerPool,
    budget: f64,
    prior: Prior,
}

impl JspInstance {
    /// Creates an instance, validating the budget.
    pub fn new(pool: WorkerPool, budget: f64, prior: Prior) -> ModelResult<Self> {
        if !budget.is_finite() || budget < 0.0 {
            return Err(ModelError::InvalidCost { value: budget });
        }
        Ok(JspInstance {
            pool,
            budget,
            prior,
        })
    }

    /// Creates an instance with the uninformative prior.
    pub fn with_uniform_prior(pool: WorkerPool, budget: f64) -> ModelResult<Self> {
        JspInstance::new(pool, budget, Prior::uniform())
    }

    /// The candidate worker pool `W`.
    #[inline]
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The budget `B`.
    #[inline]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The task prior `α`.
    #[inline]
    pub fn prior(&self) -> Prior {
        self.prior
    }

    /// Number of candidate workers `N`.
    #[inline]
    pub fn num_candidates(&self) -> usize {
        self.pool.len()
    }

    /// Whether a jury drawn from the pool satisfies the budget constraint.
    pub fn is_feasible(&self, jury: &Jury) -> bool {
        jury.is_feasible(self.budget) && jury.ids().iter().all(|&id| self.pool.contains(id))
    }

    /// Whether the whole pool fits in the budget — in that case Lemma 1 says
    /// simply selecting everybody is optimal.
    pub fn whole_pool_is_feasible(&self) -> bool {
        self.pool.total_cost() <= self.budget + 1e-12
    }

    /// Whether every worker charges the same cost (within tolerance) — in
    /// that case Lemma 2 reduces JSP to picking the top-`k` workers by
    /// quality.
    pub fn has_uniform_costs(&self) -> bool {
        let workers = self.pool.workers();
        match workers.first() {
            None => true,
            Some(first) => workers
                .iter()
                .all(|w| (w.cost() - first.cost()).abs() < 1e-12),
        }
    }

    /// Builds the jury consisting of the given worker ids.
    pub fn jury_from_ids(&self, ids: &[WorkerId]) -> ModelResult<Jury> {
        Jury::from_pool(&self.pool, ids)
    }

    /// The cheapest single worker's cost, or `None` for an empty pool; if it
    /// already exceeds the budget the only feasible jury is the empty one.
    pub fn cheapest_cost(&self) -> Option<f64> {
        self.pool
            .iter()
            .map(|w| w.cost())
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// An upper bound `K` on the members any feasible jury can hold:
    /// `min(N, ⌊(B + 1e-12) / c_min⌋)` with `c_min` the cheapest cost, or
    /// `N` when the cheapest worker is free. A jury of `k` members costs at
    /// least `k · c_min`, and [`Self::is_feasible`] admits costs up to
    /// `B + 1e-12`.
    ///
    /// Incremental sessions size their bucket grid for `K` instead of the
    /// whole pool, which keeps the §4.4 error bound for every jury a search
    /// can hold. One pass over the pool, no allocation.
    pub fn max_jury_size(&self) -> usize {
        let n = self.pool.len();
        match self.cheapest_cost() {
            Some(cheapest) if cheapest > 0.0 => {
                // The relative slack covers the rounding of a float sum of
                // `k` costs, which can land a few ulps below `k · c_min`.
                let affordable = ((self.budget + 1e-12) / cheapest * (1.0 + 1e-9)).floor();
                if affordable < n as f64 {
                    affordable as usize
                } else {
                    n
                }
            }
            _ => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_model::paper_example_pool;

    #[test]
    fn construction_and_accessors() {
        let instance = JspInstance::new(paper_example_pool(), 20.0, Prior::uniform()).unwrap();
        assert_eq!(instance.num_candidates(), 7);
        assert!((instance.budget() - 20.0).abs() < 1e-12);
        assert!(instance.prior().is_uniform());
        assert!(JspInstance::new(paper_example_pool(), -1.0, Prior::uniform()).is_err());
        assert!(JspInstance::new(paper_example_pool(), f64::NAN, Prior::uniform()).is_err());
    }

    #[test]
    fn feasibility_checks() {
        let instance = JspInstance::with_uniform_prior(paper_example_pool(), 20.0).unwrap();
        // {B, E, F} costs 12 ≤ 20.
        let jury = instance
            .jury_from_ids(&[WorkerId(1), WorkerId(4), WorkerId(5)])
            .unwrap();
        assert!(instance.is_feasible(&jury));
        // {A, C, D} costs 22 > 20.
        let jury = instance
            .jury_from_ids(&[WorkerId(0), WorkerId(2), WorkerId(3)])
            .unwrap();
        assert!(!instance.is_feasible(&jury));
        // A jury with a worker outside the pool is infeasible.
        let foreign = Jury::new(vec![jury_model::Worker::free(WorkerId(99), 0.9).unwrap()]);
        assert!(!instance.is_feasible(&foreign));
    }

    #[test]
    fn whole_pool_feasibility() {
        let pool = paper_example_pool(); // total cost 37
        assert!(!JspInstance::with_uniform_prior(pool.clone(), 20.0)
            .unwrap()
            .whole_pool_is_feasible());
        assert!(JspInstance::with_uniform_prior(pool, 37.0)
            .unwrap()
            .whole_pool_is_feasible());
    }

    #[test]
    fn uniform_cost_detection() {
        let uniform =
            WorkerPool::from_qualities_and_costs(&[0.7, 0.8, 0.6], &[2.0, 2.0, 2.0]).unwrap();
        assert!(JspInstance::with_uniform_prior(uniform, 4.0)
            .unwrap()
            .has_uniform_costs());
        assert!(!JspInstance::with_uniform_prior(paper_example_pool(), 20.0)
            .unwrap()
            .has_uniform_costs());
        let empty = WorkerPool::new();
        assert!(JspInstance::with_uniform_prior(empty, 1.0)
            .unwrap()
            .has_uniform_costs());
    }

    #[test]
    fn cheapest_cost() {
        let instance = JspInstance::with_uniform_prior(paper_example_pool(), 20.0).unwrap();
        assert!((instance.cheapest_cost().unwrap() - 2.0).abs() < 1e-12);
        let empty = JspInstance::with_uniform_prior(WorkerPool::new(), 1.0).unwrap();
        assert!(empty.cheapest_cost().is_none());
    }

    fn max_jury(costs: &[f64], budget: f64) -> usize {
        let qualities = vec![0.7; costs.len()];
        let pool = WorkerPool::from_qualities_and_costs(&qualities, costs).unwrap();
        JspInstance::with_uniform_prior(pool, budget)
            .unwrap()
            .max_jury_size()
    }

    #[test]
    fn max_jury_size_edge_cases() {
        // Empty pool: no jury has members.
        assert_eq!(max_jury(&[], 5.0), 0);
        // Zero budget: only the empty jury is feasible.
        assert_eq!(max_jury(&[1.0, 2.0, 3.0], 0.0), 0);
        // A free worker makes the cheapest cost 0: only the pool bounds it.
        assert_eq!(max_jury(&[0.0, 2.0, 3.0], 1.0), 3);
        // A budget that buys the whole pool.
        assert_eq!(max_jury(&[1.0, 2.0, 3.0], 100.0), 3);
        // Budget ÷ cheapest, rounded down; an exact fit counts.
        assert_eq!(max_jury(&[1.0, 2.0, 3.0, 1.5, 4.0], 2.5), 2);
        assert_eq!(max_jury(&[2.0; 5], 6.0), 3);
        // Paper pool, budget 15: cheapest cost 2, so at most 7 ⇒ all 7.
        let paper = JspInstance::with_uniform_prior(paper_example_pool(), 15.0).unwrap();
        assert_eq!(paper.max_jury_size(), 7);
        let paper = JspInstance::with_uniform_prior(paper_example_pool(), 5.0).unwrap();
        assert_eq!(paper.max_jury_size(), 2);
    }

    #[test]
    fn max_jury_size_survives_float_sums() {
        // Ten costs of 0.1 sum to 0.9999999999999999 in floating point, a
        // hair below 10 · 0.1: a budget that admits that sum admits ten
        // members, even though the budget ÷ cost quotient rounds below 10.
        let costs = [0.1; 10];
        let sum: f64 = costs.iter().sum();
        let budget = sum - 1e-12;
        let pool = WorkerPool::from_qualities_and_costs(&[0.7; 10], &costs).unwrap();
        let instance = JspInstance::with_uniform_prior(pool.clone(), budget).unwrap();
        assert!(instance.is_feasible(&Jury::new(pool.workers().to_vec())));
        assert_eq!(instance.max_jury_size(), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_pool() -> impl Strategy<Value = WorkerPool> {
        proptest::collection::vec(((0.5f64..0.95), (0.5f64..2.0)), 0..13).prop_map(|pairs| {
            let (qualities, costs): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// No feasible jury of the pool — all 2^n of them enumerated — has
        /// more members than `max_jury_size`.
        #[test]
        fn no_feasible_jury_exceeds_the_bound(pool in small_pool(), budget in 0.0f64..8.0) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let bound = instance.max_jury_size();
            prop_assert!(bound <= instance.num_candidates());
            let workers = instance.pool().workers();
            let mut largest = 0;
            for mask in 0u32..(1u32 << workers.len()) {
                let members: Vec<_> = workers
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & (1 << i) != 0)
                    .map(|(_, w)| w.clone())
                    .collect();
                let jury = Jury::new(members);
                if instance.is_feasible(&jury) {
                    largest = largest.max(jury.size());
                }
            }
            prop_assert!(largest <= bound, "feasible jury of {largest} > bound {bound}");
        }
    }
}
