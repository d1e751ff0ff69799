//! Exhaustive JSP solver: enumerate every feasible jury and keep the best.
//!
//! Exponential in the pool size (JSP is NP-hard, Theorem 4), but exact; it is
//! the reference the simulated-annealing heuristic is measured against in
//! Figure 7(a) / Table 3, where the paper fixes `N = 11` precisely so that
//! this enumeration stays tractable.
//!
//! The enumeration is one depth-first walk through the objective's
//! [`scoring_session`](JuryObjective::scoring_session): it pushes
//! candidates in ascending index order, skips any candidate the running
//! cost cannot afford, reads the value of every feasible jury it reaches
//! and pops on the way back. For BV within the exact cutoff a visit costs
//! one doubling of the exact enumeration's level stack
//! (`jury_jq::ExactBvJq`) instead of a fresh jury and evaluation.
//!
//! Every feasible jury is visited, the dominated ones included. Lemma 1
//! would let BV skip a jury that still has room for another candidate,
//! but a dominated jury can tie its maximal superset exactly ({0.9} and
//! {0.9, 0.6, 0.6} both score 0.9), and skipping them moved the served
//! jury on such ties in the online loop's batches. MV is not monotone at
//! all, so the full sweep is the one rule for every objective.

use std::time::Instant;

use jury_model::{Jury, Worker};

use crate::objective::{IncrementalSession, JuryObjective};
use crate::problem::JspInstance;
use crate::solver::{JurySolver, SolveError, SolverResult};

/// Largest pool size accepted by the exhaustive solver (2^22 subsets).
pub const MAX_EXHAUSTIVE_POOL: usize = 22;

/// The exhaustive (exact) solver.
pub struct ExhaustiveSolver<O: JuryObjective> {
    objective: O,
}

impl<O: JuryObjective> ExhaustiveSolver<O> {
    /// Creates the solver around an objective.
    pub fn new(objective: O) -> Self {
        ExhaustiveSolver { objective }
    }

    /// The underlying objective.
    pub fn objective(&self) -> &O {
        &self.objective
    }
}

/// The depth-first walk: every feasible jury, each one push away from its
/// parent.
struct Walk<'w, 's> {
    workers: &'w [Worker],
    /// `budget + 1e-12`, the feasibility test of [`JspInstance::is_feasible`].
    limit: f64,
    session: Box<dyn IncrementalSession + 's>,
    /// `(mask, value)` of every non-empty jury visited, in visit order.
    visited: Vec<(u32, f64)>,
}

impl Walk<'_, '_> {
    /// Visits every extension of the jury `mask` (costing `cost`, summed
    /// left to right) by candidates from `from` on.
    fn descend(&mut self, from: usize, mask: u32, cost: f64) {
        for (i, worker) in self.workers.iter().enumerate().skip(from) {
            let cost = cost + worker.cost();
            if cost > self.limit {
                continue;
            }
            let mask = mask | 1 << i;
            self.session.push(worker);
            self.visited.push((mask, self.session.value()));
            self.descend(i + 1, mask, cost);
            self.session.pop(worker);
        }
    }
}

impl<O: JuryObjective> ExhaustiveSolver<O> {
    fn enumerate(&self, instance: &JspInstance) -> SolverResult {
        let start = Instant::now();
        let evaluations_before = self.objective.evaluations();
        let workers = instance.pool().workers();

        // The empty jury is scored by `evaluate`, the one store entry that
        // every exhaustive request of a caching objective shares.
        let mut best_value = self.objective.evaluate(&Jury::empty(), instance.prior());
        let mut walk = Walk {
            workers,
            limit: instance.budget() + 1e-12,
            session: self.objective.scoring_session(instance),
            visited: Vec::new(),
        };
        walk.descend(0, 0, 0.0);

        // Costs are non-negative, so every prefix of a feasible jury is
        // feasible and the walk visits exactly the feasible masks. Replaying
        // them in ascending mask order keeps, on a tie within 1e-15, the
        // jury a bitmask sweep keeps.
        let mut visited = walk.visited;
        visited.sort_unstable_by_key(|&(mask, _)| mask);
        let mut best_mask = 0;
        for (mask, value) in visited {
            if value > best_value + 1e-15 {
                best_value = value;
                best_mask = mask;
            }
        }
        let best_jury = Jury::new(
            workers
                .iter()
                .enumerate()
                .filter(|(i, _)| (best_mask >> i) & 1 == 1)
                .map(|(_, w)| w.clone())
                .collect(),
        );

        SolverResult {
            jury: best_jury,
            objective_value: best_value,
            evaluations: self.objective.evaluations() - evaluations_before,
            elapsed: start.elapsed(),
            solver: self.name(),
            truncated: false,
        }
    }
}

impl<O: JuryObjective> JurySolver for ExhaustiveSolver<O> {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        let n = instance.num_candidates();
        assert!(
            n <= MAX_EXHAUSTIVE_POOL,
            "exhaustive JSP is limited to {MAX_EXHAUSTIVE_POOL} candidates (got {n})"
        );
        self.enumerate(instance)
    }

    fn try_solve(&self, instance: &JspInstance) -> Result<SolverResult, SolveError> {
        let n = instance.num_candidates();
        if n > MAX_EXHAUSTIVE_POOL {
            return Err(SolveError::PoolTooLarge {
                size: n,
                max: MAX_EXHAUSTIVE_POOL,
            });
        }
        Ok(self.enumerate(instance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BvObjective, MvObjective};
    use jury_model::{paper_example_pool, Prior, WorkerId, WorkerPool};

    fn paper_instance(budget: f64) -> JspInstance {
        JspInstance::with_uniform_prior(paper_example_pool(), budget).unwrap()
    }

    #[test]
    fn finds_the_figure_1_optimal_juries() {
        // Figure 1's budget-quality table (under BV): budget 5 → 75 % (e.g.
        // {F, G}), budget 10 → 80 % (e.g. {C, G}). Several juries tie at
        // those qualities (a single 0.75 or 0.80 worker achieves the same
        // JQ), so only the optimal value is asserted.
        let solver = ExhaustiveSolver::new(BvObjective::new());

        let result = solver.solve(&paper_instance(5.0));
        assert!((result.objective_value - 0.75).abs() < 1e-9);
        assert!(result.cost() <= 5.0 + 1e-9);

        let result = solver.solve(&paper_instance(10.0));
        assert!((result.objective_value - 0.80).abs() < 1e-9);
        assert!(result.cost() <= 10.0 + 1e-9);
    }

    #[test]
    fn figure_1_budget_15_and_20() {
        let solver = ExhaustiveSolver::new(BvObjective::new());
        // Budget 15 → {B, C, G} at 84.5 % costing 14.
        let result = solver.solve(&paper_instance(15.0));
        let mut ids = result.jury.ids();
        ids.sort();
        assert_eq!(ids, vec![WorkerId(1), WorkerId(2), WorkerId(6)]);
        assert!((result.objective_value - 0.845).abs() < 1e-9);
        assert!((result.cost() - 14.0).abs() < 1e-9);
        // Budget 20 → 86.95 % ({A, C, F, G} in the paper, costing 20).
        let result = solver.solve(&paper_instance(20.0));
        assert!((result.objective_value - 0.8695).abs() < 1e-9);
        assert!(result.cost() <= 20.0 + 1e-9);
    }

    #[test]
    fn zero_budget_returns_the_empty_jury() {
        let solver = ExhaustiveSolver::new(BvObjective::new());
        let result = solver.solve(&paper_instance(0.0));
        assert!(result.jury.is_empty());
        assert!((result.objective_value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mv_objective_selects_a_possibly_different_jury() {
        // The introduction's point: under MV the best feasible jury at
        // B = 20 is {A, C, G}, whose MV quality is 86.95 %; the BV-optimal
        // jury ({A, C, F, G}) achieves at least as much under BV.
        let solver = ExhaustiveSolver::new(MvObjective::new());
        let result = solver.solve(&paper_instance(20.0));
        assert!(
            (result.objective_value - 0.8695).abs() < 1e-9,
            "{}",
            result.objective_value
        );
        assert!(result.cost() <= 20.0 + 1e-9);
        let bv = ExhaustiveSolver::new(BvObjective::new()).solve(&paper_instance(20.0));
        assert!(bv.objective_value >= result.objective_value - 1e-12);
    }

    #[test]
    fn respects_budget_feasibility() {
        let solver = ExhaustiveSolver::new(BvObjective::new());
        for budget in [3.0, 8.0, 14.0, 25.0, 37.0] {
            let instance = paper_instance(budget);
            let result = solver.solve(&instance);
            assert!(instance.is_feasible(&result.jury), "budget {budget}");
        }
    }

    #[test]
    fn unlimited_budget_selects_every_worker() {
        // Lemma 1: with the whole pool affordable, all workers are chosen.
        let solver = ExhaustiveSolver::new(BvObjective::new());
        let result = solver.solve(&paper_instance(37.0));
        assert_eq!(result.size(), 7);
    }

    #[test]
    fn counts_evaluations() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.7, 0.8], &[1.0, 1.0]).unwrap();
        let instance = JspInstance::new(pool, 2.0, Prior::uniform()).unwrap();
        let solver = ExhaustiveSolver::new(BvObjective::new());
        let result = solver.solve(&instance);
        // Empty + 3 non-empty subsets.
        assert_eq!(result.evaluations, 4);
    }

    #[test]
    #[should_panic(expected = "limited")]
    fn oversized_pool_panics() {
        let qualities = vec![0.7; 23];
        let costs = vec![1.0; 23];
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 5.0).unwrap();
        let _ = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
    }

    #[test]
    fn try_solve_reports_oversized_pools_without_panicking() {
        use crate::solver::SolveError;
        let qualities = vec![0.7; 23];
        let costs = vec![1.0; 23];
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 5.0).unwrap();
        let err = ExhaustiveSolver::new(BvObjective::new())
            .try_solve(&instance)
            .unwrap_err();
        assert_eq!(
            err,
            SolveError::PoolTooLarge {
                size: 23,
                max: MAX_EXHAUSTIVE_POOL
            }
        );
        assert!(err.to_string().contains("23"));
        // In-limit instances succeed with the same result as `solve`.
        let ok = ExhaustiveSolver::new(BvObjective::new())
            .try_solve(&paper_instance(15.0))
            .unwrap();
        assert!((ok.objective_value - 0.845).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::objective::{BvObjective, MvObjective};
    use jury_model::{feasible_juries, Prior, WorkerPool};
    use proptest::prelude::*;

    /// Pools of up to 12 candidates with heterogeneous costs; qualities
    /// are drawn from a short list, so duplicates — and with them exact
    /// ties between juries — are common.
    fn pool() -> impl Strategy<Value = WorkerPool> {
        const QUALITIES: [f64; 7] = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.9];
        let quality = (0..QUALITIES.len()).prop_map(|i| QUALITIES[i]);
        proptest::collection::vec((quality, 0.3f64..3.0), 0..=12).prop_map(|pairs| {
            let (qualities, costs): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
        })
    }

    /// The walk against the bitmask sweep it replaced: every feasible jury
    /// in ascending mask order, scored by `evaluate`, under the same 1e-15
    /// tie rule.
    fn assert_same<O: JuryObjective>(
        make: impl Fn() -> O,
        instance: &JspInstance,
    ) -> Result<(), String> {
        let walked = ExhaustiveSolver::new(make()).solve(instance);
        let objective = make();
        let (mut jury, mut value) = (Jury::empty(), f64::NEG_INFINITY);
        for candidate in feasible_juries(instance.pool(), instance.budget()) {
            let score = objective.evaluate(&candidate, instance.prior());
            if score > value + 1e-15 {
                (jury, value) = (candidate, score);
            }
        }
        prop_assert_eq!(walked.jury.ids(), jury.ids());
        prop_assert_eq!(walked.objective_value.to_bits(), value.to_bits());
        prop_assert_eq!(walked.evaluations, objective.evaluations());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The depth-first walk serves the sweep's jury ids, value bits and
        /// evaluation count under BV (uniform and skewed prior) and MV.
        #[test]
        fn the_walk_matches_the_bitmask_sweep(pool in pool(), fraction in 0.0f64..0.8) {
            let budget = fraction * pool.workers().iter().map(|w| w.cost()).sum::<f64>();
            let uniform = JspInstance::with_uniform_prior(pool.clone(), budget).unwrap();
            let skewed = JspInstance::new(pool, budget, Prior::new(0.3).unwrap()).unwrap();
            assert_same(BvObjective::new, &uniform)?;
            assert_same(BvObjective::new, &skewed)?;
            assert_same(MvObjective::new, &uniform)?;
        }
    }
}
