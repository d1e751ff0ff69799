//! The simulated-annealing JSP heuristic (Algorithms 3 and 4 of the paper).
//!
//! JSP is NP-hard even with a polynomial JQ oracle (Theorem 4), so the paper
//! uses simulated annealing with a swap-based local neighbourhood:
//!
//! * Start from the empty jury with temperature `T = 1`.
//! * While `T ≥ ε`: perform `N` local searches, each picking a random worker
//!   `r`. If `r` is unselected and affordable, select it (adding a worker
//!   never hurts, by Lemma 1). Otherwise attempt a **swap** between a
//!   selected and an unselected worker: the swap is accepted if it does not
//!   decrease the objective, or with probability `exp(Δ/T)` when it does
//!   (the Boltzmann acceptance rule).
//! * Halve `T` and repeat.
//!
//! One practical limitation of Algorithm 3 as written is that the jury's
//! cardinality never decreases: workers are only added or swapped one-for-one,
//! so a run that greedily fills the budget with cheap workers can be unable
//! to reach an optimum that uses fewer, more expensive workers. The paper's
//! evaluation (Table 3) reports occasional errors of up to 3 % consistent
//! with this. To keep the solver dependable on such instances this
//! implementation adds two engineering refinements, both configurable and
//! both off-by-default-able for ablations: independent restarts with
//! different random orders, and considering the two greedy juries
//! (top-quality and quality-per-cost) as additional candidate solutions. The
//! best jury over all candidates is returned.
//!
//! Every add/swap step goes through the objective's
//! [`crate::objective::IncrementalSession`]. Where the objective has an
//! incremental engine for the pool, a step mutates a live dense-DP state in
//! `O(buckets)` instead of re-evaluating the jury from scratch — the engine
//! behind the paper's "thousands of JQ evaluations per search" hot path;
//! elsewhere the session answers through the batch objective. Final juries
//! are always re-scored through the batch objective, so reported qualities
//! do not depend on the session.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jury_model::{Jury, Worker};

use crate::budget::SearchBudget;
use crate::objective::{IncrementalSession, JuryObjective};
use crate::problem::JspInstance;
use crate::solver::{JurySolver, SolverResult};

/// Configuration of the simulated-annealing search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealingConfig {
    /// Initial temperature `T` (the paper uses 1.0).
    pub initial_temperature: f64,
    /// Stop once the temperature drops below this value (the paper uses
    /// `ε = 10⁻⁸`, i.e. 27 cooling steps).
    pub epsilon: f64,
    /// Multiplicative cooling factor applied after each sweep (the paper
    /// halves the temperature).
    pub cooling_factor: f64,
    /// RNG seed, so experiments are reproducible.
    pub seed: u64,
    /// Number of independent annealing runs (each with its own random
    /// insertion order); the best result is kept. `1` reproduces the paper's
    /// single-run heuristic.
    pub restarts: usize,
    /// Whether to also evaluate the greedy top-quality and quality-per-cost
    /// juries as candidate solutions.
    pub use_greedy_candidates: bool,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            initial_temperature: 1.0,
            epsilon: 1e-8,
            cooling_factor: 0.5,
            seed: 0x5EED,
            restarts: 4,
            use_greedy_candidates: true,
        }
    }
}

impl AnnealingConfig {
    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the stopping temperature `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon.max(f64::MIN_POSITIVE);
        self
    }

    /// Sets the cooling factor (must be in `(0, 1)`).
    pub fn with_cooling_factor(mut self, factor: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&factor),
            "cooling factor must be in (0, 1)"
        );
        self.cooling_factor = factor;
        self
    }

    /// Sets the number of independent restarts (at least one).
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Enables or disables the greedy candidate juries.
    pub fn with_greedy_candidates(mut self, enabled: bool) -> Self {
        self.use_greedy_candidates = enabled;
        self
    }

    /// The paper's plain single-run heuristic: one annealing run, no greedy
    /// candidates. Used by the Figure 7 ablation.
    pub fn paper_single_run() -> Self {
        AnnealingConfig::default()
            .with_restarts(1)
            .with_greedy_candidates(false)
    }

    /// Number of cooling sweeps this configuration performs.
    pub fn num_sweeps(&self) -> usize {
        let mut t = self.initial_temperature;
        let mut sweeps = 0;
        while t >= self.epsilon && sweeps < 10_000 {
            sweeps += 1;
            t *= self.cooling_factor;
        }
        sweeps
    }
}

/// The simulated-annealing JSP solver (Algorithm 3), generic over the
/// objective so it serves both OPTJS (`JQ(BV)`) and the MVJS baseline
/// (`JQ(MV)`).
pub struct AnnealingSolver<O: JuryObjective> {
    objective: O,
    config: AnnealingConfig,
    budget: SearchBudget,
}

/// Mutable search state: selection flags, the selected jury, and its cost
/// (the `X`, `Ĵ`, `H`, `M` variables of Algorithm 3). Shared with the tabu
/// search, which walks the same add/swap neighbourhood.
pub(crate) struct SearchState {
    pub(crate) selected: Vec<bool>,
    pub(crate) jury_members: Vec<Worker>,
    pub(crate) spent: f64,
    pub(crate) current_value: Option<f64>,
}

impl SearchState {
    pub(crate) fn new(n: usize) -> Self {
        SearchState {
            selected: vec![false; n],
            jury_members: Vec::new(),
            spent: 0.0,
            current_value: None,
        }
    }

    pub(crate) fn jury(&self) -> Jury {
        Jury::new(self.jury_members.clone())
    }

    pub(crate) fn selected_indices(&self) -> Vec<usize> {
        self.selected
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| i)
            .collect()
    }

    fn unselected_indices(&self) -> Vec<usize> {
        self.selected
            .iter()
            .enumerate()
            .filter(|(_, &s)| !s)
            .map(|(i, _)| i)
            .collect()
    }

    pub(crate) fn add(&mut self, index: usize, worker: &Worker) {
        self.selected[index] = true;
        self.jury_members.push(worker.clone());
        self.spent += worker.cost();
        self.current_value = None;
    }

    pub(crate) fn swap(
        &mut self,
        out_index: usize,
        out_worker: &Worker,
        in_index: usize,
        in_worker: &Worker,
    ) {
        self.selected[out_index] = false;
        self.selected[in_index] = true;
        self.jury_members.retain(|w| w.id() != out_worker.id());
        self.jury_members.push(in_worker.clone());
        self.spent += in_worker.cost() - out_worker.cost();
        self.current_value = None;
    }
}

/// The greedy candidate juries shared by the annealing, tabu, and portfolio
/// searches: the top-quality-first and best-log-odds-per-cost-first fills of
/// the budget. Cheap (two sorts, no objective evaluations) and a reliable
/// floor on instances that trap swap-based local search.
pub(crate) fn greedy_candidate_juries(instance: &JspInstance) -> Vec<Jury> {
    let budget = instance.budget();
    let mut by_quality = instance.pool().workers().to_vec();
    by_quality.sort_by(|a, b| {
        b.effective_quality()
            .partial_cmp(&a.effective_quality())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id().cmp(&b.id()))
    });
    let mut by_ratio = instance.pool().workers().to_vec();
    by_ratio.sort_by(|a, b| {
        let ra = a.log_odds() / a.cost().max(1e-9);
        let rb = b.log_odds() / b.cost().max(1e-9);
        rb.partial_cmp(&ra)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id().cmp(&b.id()))
    });
    [by_quality, by_ratio]
        .into_iter()
        .map(|order| {
            let mut jury = Jury::empty();
            let mut spent = 0.0;
            for worker in order {
                if spent + worker.cost() <= budget + 1e-12 {
                    spent += worker.cost();
                    jury.push(worker);
                }
            }
            jury
        })
        .collect()
}

impl<O: JuryObjective> AnnealingSolver<O> {
    /// Creates a solver with the default (paper) configuration.
    pub fn new(objective: O) -> Self {
        AnnealingSolver {
            objective,
            config: AnnealingConfig::default(),
            budget: SearchBudget::unlimited(),
        }
    }

    /// Creates a solver with a custom configuration.
    pub fn with_config(objective: O, config: AnnealingConfig) -> Self {
        AnnealingSolver {
            objective,
            config,
            budget: SearchBudget::unlimited(),
        }
    }

    /// Bounds the search with a cooperative compute budget: the temperature
    /// loop and the restart loop poll it and stop early when it is
    /// exhausted, marking the result [`SolverResult::truncated`]. The best
    /// jury found before the cutoff is still returned (anytime semantics).
    /// The default unlimited budget leaves the search bit-identical to a
    /// budget-free solver.
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The annealing configuration.
    pub fn config(&self) -> &AnnealingConfig {
        &self.config
    }

    /// The underlying objective.
    pub fn objective(&self) -> &O {
        &self.objective
    }

    /// One call of Algorithm 4: attempt to swap worker `r` with a randomly
    /// chosen counterpart on the other side of the selection.
    ///
    /// The candidate is evaluated in place — swap in, read the value, and
    /// swap back on rejection — so with an engine-backed session a
    /// neighbour costs `O(buckets)`.
    fn try_swap(
        &self,
        state: &mut SearchState,
        instance: &JspInstance,
        r: usize,
        temperature: f64,
        rng: &mut StdRng,
        session: &mut dyn IncrementalSession,
    ) {
        let workers = instance.pool().workers();
        // Decide which worker leaves (`a`) and which enters (`b`).
        let (out_index, in_index) = if !state.selected[r] {
            let selected = state.selected_indices();
            if selected.is_empty() {
                return;
            }
            (selected[rng.gen_range(0..selected.len())], r)
        } else {
            let unselected = state.unselected_indices();
            if unselected.is_empty() {
                return;
            }
            (r, unselected[rng.gen_range(0..unselected.len())])
        };
        let out_worker = &workers[out_index];
        let in_worker = &workers[in_index];
        if state.spent - out_worker.cost() + in_worker.cost() > instance.budget() + 1e-12 {
            return;
        }

        let current = *state.current_value.get_or_insert_with(|| session.value());
        session.pop(out_worker);
        session.push(in_worker);
        let candidate_value = session.value();
        let delta = candidate_value - current;

        let accept = delta >= 0.0 || rng.gen::<f64>() <= (delta / temperature).exp();
        if accept {
            state.swap(out_index, out_worker, in_index, in_worker);
            state.current_value = Some(candidate_value);
        } else {
            // Revert the in-place trial swap.
            session.pop(in_worker);
            session.restore(out_worker);
            state.current_value = Some(current);
        }
    }

    /// One run of the paper's Algorithm 3, starting from `start` (the empty
    /// jury for a cold run; warm-started budget sweeps hand in the previous
    /// budget's jury).
    ///
    /// The temperature loop steers itself entirely through the objective's
    /// session; the returned value is always a fresh batch evaluation of
    /// the final jury, so callers compare restarts and report results on
    /// the objective's own scale.
    ///
    /// Returns the jury, its batch-objective value, and whether the search
    /// budget cut the temperature loop short.
    ///
    /// Crate-visible so the portfolio solver can race annealing one restart
    /// at a time with exactly the per-restart RNG stream of a standalone
    /// [`AnnealingSolver::solve`] call.
    pub(crate) fn anneal_once(
        &self,
        instance: &JspInstance,
        seed: u64,
        start: &Jury,
    ) -> (Jury, f64, bool) {
        let n = instance.num_candidates();
        let workers = instance.pool().workers();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = SearchState::new(n);
        let mut session = self.objective.incremental_session(instance);

        // Warm start: replay the seed jury into the search state (and the
        // session) before the temperature loop. Members that no longer fit —
        // a foreign id, a duplicate, or a worker the budget cannot afford —
        // are skipped, so any jury is a safe seed.
        for member in start.workers() {
            let Some(index) = workers.iter().position(|w| w.id() == member.id()) else {
                continue;
            };
            if state.selected[index]
                || state.spent + workers[index].cost() > instance.budget() + 1e-12
            {
                continue;
            }
            state.add(index, &workers[index]);
            session.push(&workers[index]);
        }

        let mut truncated = false;
        if n > 0 {
            let mut temperature = self.config.initial_temperature;
            'cooling: while temperature >= self.config.epsilon {
                for _ in 0..n {
                    // Cooperative checkpoint: an unlimited budget answers
                    // without reading the clock, so budget-free runs keep
                    // the exact historical RNG stream and step order.
                    if self.budget.exhausted(self.objective.evaluations()) {
                        truncated = true;
                        break 'cooling;
                    }
                    let r = rng.gen_range(0..n);
                    if !state.selected[r]
                        && state.spent + workers[r].cost() <= instance.budget() + 1e-12
                    {
                        // Adding an affordable worker never hurts (Lemma 1).
                        state.add(r, &workers[r]);
                        session.push(&workers[r]);
                    } else {
                        self.try_swap(
                            &mut state,
                            instance,
                            r,
                            temperature,
                            &mut rng,
                            &mut *session,
                        );
                    }
                }
                temperature *= self.config.cooling_factor;
            }
        }

        let jury = state.jury();
        // Session values are search guidance: quantized for an engine, and
        // summed in session order (which a rejected swap reshuffles) for a
        // batch session. The reported value is a fresh batch evaluation.
        let value = self.objective.evaluate(&jury, instance.prior());
        (jury, value, truncated)
    }

    /// Solves the instance with every annealing restart **seeded** by the
    /// given jury instead of starting empty: the seed is replayed into the
    /// search state (skipping members the pool or budget no longer admits)
    /// before the temperature loop runs. The seed jury itself also competes
    /// as a candidate solution, so a warm-started run never reports a worse
    /// jury than the seed it was handed — the contract behind
    /// [`crate::BudgetQualityTable::build_warm_annealing`]'s monotone rows.
    ///
    /// `solve` is exactly `solve_seeded` with the empty jury.
    pub fn solve_seeded(&self, instance: &JspInstance, seed_jury: &Jury) -> SolverResult {
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
            let (jury, value, cut) = self.anneal_once(
                instance,
                self.config.seed.wrapping_add(restart as u64),
                seed_jury,
            );
            truncated |= cut;
            if value > best_value {
                best_value = value;
                best_jury = jury;
            }
        }

        if !seed_jury.is_empty() && instance.is_feasible(seed_jury) {
            let value = self.objective.evaluate(seed_jury, instance.prior());
            if value > best_value {
                best_value = value;
                best_jury = seed_jury.clone();
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

impl<O: JuryObjective> JurySolver for AnnealingSolver<O> {
    fn name(&self) -> &'static str {
        "simulated-annealing"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        self.solve_seeded(instance, &Jury::empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::objective::{BatchOnly, BvObjective, MvObjective};
    use jury_model::{paper_example_pool, GaussianWorkerGenerator, Prior};

    fn paper_instance(budget: f64) -> JspInstance {
        JspInstance::with_uniform_prior(paper_example_pool(), budget).unwrap()
    }

    #[test]
    fn config_builder_and_sweep_count() {
        let config = AnnealingConfig::default();
        // T halves from 1.0 down to 1e-8: 27 sweeps.
        assert_eq!(config.num_sweeps(), 27);
        let fast = AnnealingConfig::default()
            .with_epsilon(1e-2)
            .with_cooling_factor(0.25);
        assert_eq!(fast.num_sweeps(), 4);
        assert_eq!(AnnealingConfig::default().with_seed(7).seed, 7);
    }

    #[test]
    #[should_panic(expected = "cooling factor")]
    fn invalid_cooling_factor_rejected() {
        let _ = AnnealingConfig::default().with_cooling_factor(1.5);
    }

    #[test]
    fn results_are_feasible_and_reproducible() {
        let instance = paper_instance(14.0);
        let a = AnnealingSolver::new(BvObjective::new()).solve(&instance);
        let b = AnnealingSolver::new(BvObjective::new()).solve(&instance);
        assert!(instance.is_feasible(&a.jury));
        assert_eq!(
            a.jury.ids(),
            b.jury.ids(),
            "same seed must give the same jury"
        );
        assert!(a.evaluations > 0);
    }

    #[test]
    fn matches_the_exhaustive_optimum_on_the_paper_pool() {
        // On the 7-worker example the heuristic should find the optimum for
        // every budget of the Figure 1 table.
        for budget in [5.0, 10.0, 15.0, 20.0] {
            let instance = paper_instance(budget);
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let annealed = AnnealingSolver::new(BvObjective::new()).solve(&instance);
            assert!(
                annealed.objective_value >= optimal.objective_value - 0.02,
                "budget {budget}: annealing {} vs optimal {}",
                annealed.objective_value,
                optimal.objective_value
            );
            assert!(annealed.objective_value <= optimal.objective_value + 1e-9);
        }
    }

    #[test]
    fn restarts_and_greedy_candidates_help_on_hard_instances() {
        // A pool designed to trap the plain single-run heuristic: one
        // excellent expensive worker and many cheap mediocre ones. Once any
        // cheap worker is added the expensive one no longer fits, and
        // Algorithm 3 cannot shrink the jury to recover.
        let mut qualities = vec![0.93];
        let mut costs = vec![0.9];
        for _ in 0..8 {
            qualities.push(0.55);
            costs.push(0.12);
        }
        let pool = jury_model::WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 0.95).unwrap();
        let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
        let robust = AnnealingSolver::new(BvObjective::new()).solve(&instance);
        assert!(
            robust.objective_value >= optimal.objective_value - 1e-9,
            "robust solver {} vs optimal {}",
            robust.objective_value,
            optimal.objective_value
        );
        // The plain paper configuration may or may not find it; it must at
        // least stay feasible and never beat the optimum.
        let plain =
            AnnealingSolver::with_config(BvObjective::new(), AnnealingConfig::paper_single_run())
                .solve(&instance);
        assert!(instance.is_feasible(&plain.jury));
        assert!(plain.objective_value <= optimal.objective_value + 1e-9);
    }

    #[test]
    fn stays_close_to_optimal_on_random_pools() {
        // Figure 7(a): N = 11, budgets in [0.05, 0.5]; the returned JQ nearly
        // coincides with the optimum.
        let generator = GaussianWorkerGenerator::paper_defaults();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..5 {
            let pool = generator.generate(11, &mut rng);
            let budget = 0.05 + 0.1 * trial as f64;
            let instance = JspInstance::new(pool, budget, Prior::uniform()).unwrap();
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let annealed = AnnealingSolver::new(BvObjective::new()).solve(&instance);
            let gap = optimal.objective_value - annealed.objective_value;
            assert!(
                (-1e-9..=0.03).contains(&gap),
                "trial {trial}: gap {gap} too large"
            );
            assert!(instance.is_feasible(&annealed.jury));
        }
    }

    #[test]
    fn works_with_the_mv_objective_too() {
        let instance = paper_instance(20.0);
        let annealed = AnnealingSolver::new(MvObjective::new()).solve(&instance);
        let optimal = ExhaustiveSolver::new(MvObjective::new()).solve(&instance);
        assert!(annealed.objective_value <= optimal.objective_value + 1e-9);
        assert!(annealed.objective_value >= optimal.objective_value - 0.05);
    }

    #[test]
    fn incremental_guidance_keeps_search_quality_above_the_cutoff() {
        // A pool above the exact cutoff engages the BV incremental session;
        // the result must stay feasible, reproducible, and as good as a
        // batch-session search of the same objective (both re-scored by the
        // same batch objective).
        let generator = GaussianWorkerGenerator::paper_defaults();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let pool = generator.generate(24, &mut rng);
        let instance = JspInstance::new(pool, 0.4, Prior::uniform()).unwrap();

        let incremental = AnnealingSolver::new(BvObjective::new()).solve(&instance);
        let incremental_again = AnnealingSolver::new(BvObjective::new()).solve(&instance);
        let classic = AnnealingSolver::new(BatchOnly(BvObjective::new())).solve(&instance);

        assert!(instance.is_feasible(&incremental.jury));
        assert_eq!(
            incremental.jury.ids(),
            incremental_again.jury.ids(),
            "incremental guidance must stay deterministic"
        );
        assert!(
            (incremental.objective_value - classic.objective_value).abs() < 0.02,
            "incremental {} vs classic {}",
            incremental.objective_value,
            classic.objective_value
        );
        assert!(incremental.evaluations > 0);
    }

    #[test]
    fn seeded_solve_matches_cold_solve_semantics() {
        // Seeding with the empty jury is exactly `solve`.
        let instance = paper_instance(15.0);
        let solver = AnnealingSolver::new(BvObjective::new());
        let cold = solver.solve(&instance);
        let seeded = solver.solve_seeded(&instance, &jury_model::Jury::empty());
        assert_eq!(cold.jury.ids(), seeded.jury.ids());
        assert!((cold.objective_value - seeded.objective_value).abs() < 1e-12);
    }

    #[test]
    fn seeded_solve_never_reports_below_the_seed() {
        // Seed with the known optimum at budget 15 ({B, C, G}); the seeded
        // run must report at least its quality, whatever the search does.
        let instance = paper_instance(15.0);
        let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
        let weak = AnnealingSolver::with_config(
            BvObjective::new(),
            AnnealingConfig::paper_single_run().with_epsilon(0.5),
        );
        let seeded = weak.solve_seeded(&instance, &optimal.jury);
        assert!(seeded.objective_value >= optimal.objective_value - 1e-12);
        assert!(instance.is_feasible(&seeded.jury));
    }

    #[test]
    fn infeasible_and_foreign_seeds_are_tolerated() {
        // A seed the budget cannot afford (or whose members are unknown)
        // must be skipped gracefully, not crash or produce infeasible rows.
        let instance = paper_instance(5.0);
        let rich = paper_instance(37.0);
        let full = AnnealingSolver::new(BvObjective::new()).solve(&rich);
        assert!(full.jury.cost() > 5.0);
        let solver = AnnealingSolver::new(BvObjective::new());
        let result = solver.solve_seeded(&instance, &full.jury);
        assert!(instance.is_feasible(&result.jury));
        let foreign = jury_model::Jury::new(vec![jury_model::Worker::new(
            jury_model::WorkerId(999),
            0.9,
            1.0,
        )
        .unwrap()]);
        let result = solver.solve_seeded(&instance, &foreign);
        assert!(instance.is_feasible(&result.jury));
    }

    #[test]
    fn empty_pool_returns_empty_jury() {
        let instance = JspInstance::with_uniform_prior(jury_model::WorkerPool::new(), 1.0).unwrap();
        let result = AnnealingSolver::new(BvObjective::new()).solve(&instance);
        assert!(result.jury.is_empty());
        assert!((result.objective_value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_returns_empty_jury() {
        let instance = paper_instance(0.0);
        let result = AnnealingSolver::new(BvObjective::new()).solve(&instance);
        assert!(result.jury.is_empty());
    }

    #[test]
    fn different_seeds_explore_but_remain_feasible() {
        let instance = paper_instance(12.0);
        for seed in 0..5u64 {
            let solver = AnnealingSolver::with_config(
                BvObjective::new(),
                AnnealingConfig::default().with_seed(seed),
            );
            let result = solver.solve(&instance);
            assert!(instance.is_feasible(&result.jury), "seed {seed}");
            assert!(result.objective_value >= 0.5);
        }
    }
}
