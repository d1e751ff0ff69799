//! Tabu search over the JSP swap neighbourhood.
//!
//! Simulated annealing (Algorithm 3) escapes local optima by *sometimes*
//! accepting a worsening random swap; tabu search does it deterministically:
//! every iteration evaluates a whole neighbourhood — all affordable adds
//! plus all affordable swaps against one outgoing member — and moves to the
//! **best** neighbour even when that worsens the objective, while a
//! Taillard-style tenure list bars recently moved workers from moving again
//! for a fixed number of iterations so the walk cannot cycle back
//! immediately. An **aspiration** rule overrides the tenure: a tabu move
//! that would beat the best jury seen anywhere in the run is always allowed.
//!
//! Like the annealing solver, [`TabuSolver`] probes through the objective's
//! incremental session (each probe is an in-place push/value/pop, costing
//! `O(buckets)` on an engine-backed session), polls its [`SearchBudget`] at
//! every probe, re-scores the winning jury through the batch objective, and
//! races independent restarts from diversified starting juries. It plugs
//! into the same [`JurySolver`] surface as every other solver and is one of
//! the members a `SolverPolicy::Portfolio` can race.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jury_model::Jury;

use crate::annealing::{greedy_candidate_juries, SearchState};
use crate::budget::SearchBudget;
use crate::objective::JuryObjective;
use crate::parallel::SharedBestBound;
use crate::problem::JspInstance;
use crate::solver::{JurySolver, SolverResult};

/// Configuration of the tabu search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TabuConfig {
    /// How many iterations a moved worker stays tabu — barred from entering
    /// or leaving the jury again (Taillard's fixed-tenure rule).
    pub tenure: usize,
    /// Move iterations per run; each evaluates up to `2n` neighbours.
    pub iterations: usize,
    /// Independent runs, each from a different starting jury (run 0 climbs
    /// from the greedy-quality fill, later runs from random fills); the
    /// best result is kept.
    pub restarts: usize,
    /// RNG seed (run `r` uses `seed + r`), so runs are reproducible.
    pub seed: u64,
    /// Whether the greedy top-quality and quality-per-cost fills also
    /// compete as candidate solutions.
    pub use_greedy_candidates: bool,
}

impl Default for TabuConfig {
    fn default() -> Self {
        TabuConfig {
            tenure: 7,
            iterations: 128,
            restarts: 2,
            seed: 0x7AB0,
            use_greedy_candidates: true,
        }
    }
}

impl TabuConfig {
    /// Sets the tenure (at least one iteration).
    pub fn with_tenure(mut self, tenure: usize) -> Self {
        self.tenure = tenure.max(1);
        self
    }

    /// Sets the number of move iterations per run.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the number of independent restarts (at least one).
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the greedy candidate juries.
    pub fn with_greedy_candidates(mut self, enabled: bool) -> Self {
        self.use_greedy_candidates = enabled;
        self
    }
}

/// A candidate move out of the current jury.
#[derive(Clone, Copy)]
enum Move {
    /// Add the unselected worker at this pool position.
    Add(usize),
    /// Swap the selected worker (first) for the unselected one (second).
    Swap(usize, usize),
}

/// The tabu-search JSP solver; see the module docs for the algorithm.
pub struct TabuSolver<O: JuryObjective> {
    objective: O,
    config: TabuConfig,
    budget: SearchBudget,
}

impl<O: JuryObjective> TabuSolver<O> {
    /// Creates a solver with the default configuration.
    pub fn new(objective: O) -> Self {
        TabuSolver {
            objective,
            config: TabuConfig::default(),
            budget: SearchBudget::unlimited(),
        }
    }

    /// Creates a solver with a custom configuration.
    pub fn with_config(objective: O, config: TabuConfig) -> Self {
        TabuSolver {
            objective,
            config,
            budget: SearchBudget::unlimited(),
        }
    }

    /// Bounds the search with a cooperative compute budget: every probe
    /// polls it, and an exhausted budget stops the run while keeping the
    /// best jury found so far ([`SolverResult::truncated`] anytime
    /// semantics).
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The tabu configuration.
    pub fn config(&self) -> &TabuConfig {
        &self.config
    }

    /// The underlying objective.
    pub fn objective(&self) -> &O {
        &self.objective
    }

    /// The starting jury of run `restart`: run 0 climbs from the greedy
    /// quality-ordered fill, later runs diversify from a random-order fill.
    fn start_order(&self, instance: &JspInstance, restart: usize, rng: &mut StdRng) -> Vec<usize> {
        let n = instance.num_candidates();
        let workers = instance.pool().workers();
        let mut order: Vec<usize> = (0..n).collect();
        if restart == 0 {
            order.sort_by(|&a, &b| {
                workers[b]
                    .effective_quality()
                    .partial_cmp(&workers[a].effective_quality())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| workers[a].id().cmp(&workers[b].id()))
            });
        } else {
            // Fisher–Yates off the run's own RNG stream.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
        }
        order
    }

    /// One tabu run. Returns the best jury of the run, its **batch**
    /// objective value, and whether the budget cut the run short.
    ///
    /// Crate-visible so the portfolio solver can race tabu one restart at a
    /// time with exactly the per-restart behaviour of a standalone
    /// [`TabuSolver::solve`] call.
    ///
    /// A cross-lane `bound` is supplied only by a portfolio racing on more
    /// than one lane under a limited budget. It raises the aspiration floor
    /// to the best value published by **any** lane — a tabu move must beat
    /// the global race leader, not just this run, to override its tenure —
    /// and the run's final batch score is published back. With
    /// `bound = None` the run reads no atomics beyond the objective's own.
    pub(crate) fn run_once(
        &self,
        instance: &JspInstance,
        restart: usize,
        bound: Option<&SharedBestBound>,
    ) -> (Jury, f64, bool) {
        let n = instance.num_candidates();
        let workers = instance.pool().workers();
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(restart as u64));
        let mut state = SearchState::new(n);
        let mut session = self.objective.incremental_session(instance);

        for index in self.start_order(instance, restart, &mut rng) {
            if !state.selected[index]
                && state.spent + workers[index].cost() <= instance.budget() + 1e-12
            {
                state.add(index, &workers[index]);
                session.push(&workers[index]);
            }
        }

        let mut best_jury = state.jury();
        let mut best_value = session.value();
        // `tabu_until[i] > iter` bars worker `i` from entering or leaving.
        let mut tabu_until = vec![0usize; n];
        let mut truncated = false;

        'iterations: for iter in 1..=self.config.iterations {
            if n == 0 {
                break;
            }
            // One outgoing member per iteration bounds the neighbourhood to
            // O(n) probes; the random rotation covers all members over the
            // run.
            let selected = state.selected_indices();
            let out_index = if selected.is_empty() {
                None
            } else {
                Some(selected[rng.gen_range(0..selected.len())])
            };

            // With a cross-lane bound, aspiration must clear the whole
            // race's best, not just this run's (one relaxed read per
            // iteration; a single lane passes `None` and never reads it).
            let aspiration_floor = match bound {
                Some(shared) => best_value.max(shared.current()),
                None => best_value,
            };

            let mut best_move: Option<(Move, f64)> = None;
            let mut consider = |mv: Move, value: f64, is_tabu: bool, best_value: f64| {
                // Aspiration: a tabu move good enough to set a new global
                // best is always admissible.
                if is_tabu && value <= best_value + 1e-12 {
                    return;
                }
                if best_move.is_none_or(|(_, best)| value > best) {
                    best_move = Some((mv, value));
                }
            };

            // Adds: every affordable unselected worker.
            for in_index in 0..n {
                if state.selected[in_index]
                    || state.spent + workers[in_index].cost() > instance.budget() + 1e-12
                {
                    continue;
                }
                // Cooperative checkpoint between probes.
                if self.budget.exhausted(self.objective.evaluations()) {
                    truncated = true;
                    break 'iterations;
                }
                let worker = &workers[in_index];
                session.push(worker);
                let value = session.value();
                session.pop(worker);
                consider(
                    Move::Add(in_index),
                    value,
                    tabu_until[in_index] > iter,
                    aspiration_floor,
                );
            }

            // Swaps: every affordable replacement for the outgoing member.
            if let Some(out_index) = out_index {
                let out_worker = &workers[out_index];
                session.pop(out_worker);
                for in_index in 0..n {
                    if state.selected[in_index]
                        || in_index == out_index
                        || state.spent - out_worker.cost() + workers[in_index].cost()
                            > instance.budget() + 1e-12
                    {
                        continue;
                    }
                    if self.budget.exhausted(self.objective.evaluations()) {
                        truncated = true;
                        break 'iterations;
                    }
                    let in_worker = &workers[in_index];
                    session.push(in_worker);
                    let value = session.value();
                    session.pop(in_worker);
                    consider(
                        Move::Swap(out_index, in_index),
                        value,
                        tabu_until[out_index] > iter || tabu_until[in_index] > iter,
                        aspiration_floor,
                    );
                }
                session.restore(out_worker);
            }

            // Move to the best admissible neighbour — even a worsening one;
            // the tenure list is what keeps the walk from cycling back.
            let Some((mv, value)) = best_move else {
                break;
            };
            match mv {
                Move::Add(in_index) => {
                    state.add(in_index, &workers[in_index]);
                    session.push(&workers[in_index]);
                    tabu_until[in_index] = iter + self.config.tenure;
                }
                Move::Swap(out_index, in_index) => {
                    state.swap(out_index, &workers[out_index], in_index, &workers[in_index]);
                    session.pop(&workers[out_index]);
                    session.push(&workers[in_index]);
                    tabu_until[out_index] = iter + self.config.tenure;
                    tabu_until[in_index] = iter + self.config.tenure;
                }
            }
            if value > best_value {
                best_value = value;
                best_jury = state.jury();
            }
        }

        // Session values are quantized search guidance; report the batch
        // objective's score of the run's best jury.
        let value = self.objective.evaluate(&best_jury, instance.prior());
        if let Some(shared) = bound {
            shared.observe(value);
        }
        (best_jury, value, truncated)
    }
}

impl<O: JuryObjective> JurySolver for TabuSolver<O> {
    fn name(&self) -> &'static str {
        "tabu"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        let start = Instant::now();
        let evaluations_before = self.objective.evaluations();

        let mut best_jury = Jury::empty();
        let mut best_value = self.objective.evaluate(&best_jury, instance.prior());
        let mut truncated = false;

        for restart in 0..self.config.restarts.max(1) {
            if self.budget.exhausted(self.objective.evaluations()) {
                truncated = true;
                break;
            }
            let (jury, value, cut) = self.run_once(instance, restart, None);
            truncated |= cut;
            if value > best_value {
                best_value = value;
                best_jury = jury;
            }
        }

        if self.config.use_greedy_candidates {
            for jury in greedy_candidate_juries(instance) {
                let value = self.objective.evaluate(&jury, instance.prior());
                if value > best_value {
                    best_value = value;
                    best_jury = jury;
                }
            }
        }

        SolverResult {
            jury: best_jury,
            objective_value: best_value,
            evaluations: self.objective.evaluations() - evaluations_before,
            elapsed: start.elapsed(),
            solver: self.name(),
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::objective::{BatchOnly, BvObjective};
    use jury_model::paper_example_pool;

    fn paper_instance(budget: f64) -> JspInstance {
        JspInstance::with_uniform_prior(paper_example_pool(), budget).unwrap()
    }

    #[test]
    fn config_builders_clamp_and_update() {
        let config = TabuConfig::default()
            .with_tenure(0)
            .with_iterations(9)
            .with_restarts(0)
            .with_seed(3)
            .with_greedy_candidates(false);
        assert_eq!(config.tenure, 1);
        assert_eq!(config.iterations, 9);
        assert_eq!(config.restarts, 1);
        assert_eq!(config.seed, 3);
        assert!(!config.use_greedy_candidates);
    }

    #[test]
    fn results_are_feasible_and_deterministic() {
        let instance = paper_instance(14.0);
        let a = TabuSolver::new(BvObjective::new()).solve(&instance);
        let b = TabuSolver::new(BvObjective::new()).solve(&instance);
        assert!(instance.is_feasible(&a.jury));
        assert_eq!(a.jury.ids(), b.jury.ids(), "same seed, same jury");
        assert!((a.objective_value - b.objective_value).abs() < 1e-15);
        assert!(a.evaluations > 0);
        assert!(!a.truncated);
    }

    #[test]
    fn matches_the_exhaustive_optimum_on_the_paper_pool() {
        for budget in [5.0, 10.0, 15.0, 20.0] {
            let instance = paper_instance(budget);
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let tabu = TabuSolver::new(BvObjective::new()).solve(&instance);
            assert!(
                tabu.objective_value >= optimal.objective_value - 1e-9,
                "budget {budget}: tabu {} vs optimal {}",
                tabu.objective_value,
                optimal.objective_value
            );
            assert!(tabu.objective_value <= optimal.objective_value + 1e-9);
        }
    }

    #[test]
    fn escapes_the_cheap_worker_trap() {
        // The instance from the annealing suite that strands add-only local
        // search: one excellent expensive worker, many cheap mediocre ones.
        // Tabu's swap neighbourhood (plus the greedy-quality start) must
        // recover the optimum.
        let mut qualities = vec![0.93];
        let mut costs = vec![0.9];
        for _ in 0..8 {
            qualities.push(0.55);
            costs.push(0.12);
        }
        let pool = jury_model::WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 0.95).unwrap();
        let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
        let tabu = TabuSolver::new(BvObjective::new()).solve(&instance);
        assert!(tabu.objective_value >= optimal.objective_value - 1e-9);
    }

    #[test]
    fn evaluation_cap_truncates_with_a_feasible_jury() {
        let instance = paper_instance(15.0);
        let solver = TabuSolver::new(BvObjective::new())
            .with_budget(SearchBudget::unlimited().with_max_evaluations(5));
        let result = solver.solve(&instance);
        assert!(result.truncated);
        assert!(instance.is_feasible(&result.jury));
    }

    #[test]
    fn different_seeds_stay_feasible() {
        let instance = paper_instance(12.0);
        for seed in 0..4u64 {
            let solver =
                TabuSolver::with_config(BvObjective::new(), TabuConfig::default().with_seed(seed));
            let result = solver.solve(&instance);
            assert!(instance.is_feasible(&result.jury), "seed {seed}");
            assert!(result.objective_value >= 0.5);
        }
    }

    #[test]
    fn empty_pool_and_zero_budget_return_empty_juries() {
        let empty = JspInstance::with_uniform_prior(jury_model::WorkerPool::new(), 1.0).unwrap();
        let result = TabuSolver::new(BvObjective::new()).solve(&empty);
        assert!(result.jury.is_empty());

        let broke = paper_instance(0.0);
        let result = TabuSolver::new(BvObjective::new()).solve(&broke);
        assert!(result.jury.is_empty());
    }

    #[test]
    fn incremental_and_classic_probing_agree_on_quality() {
        let qualities: Vec<f64> = (0..24).map(|i| 0.52 + 0.015 * i as f64).collect();
        let costs: Vec<f64> = (0..24).map(|i| 1.0 + (i % 5) as f64).collect();
        let pool = jury_model::WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 10.0).unwrap();
        let incremental = TabuSolver::new(BvObjective::new()).solve(&instance);
        let classic = TabuSolver::new(BatchOnly(BvObjective::new())).solve(&instance);
        assert!(instance.is_feasible(&incremental.jury));
        assert!(instance.is_feasible(&classic.jury));
        assert!(
            (incremental.objective_value - classic.objective_value).abs() < 0.02,
            "incremental {} vs classic {}",
            incremental.objective_value,
            classic.objective_value
        );
    }
}
