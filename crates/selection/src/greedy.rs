//! Greedy JSP heuristics.
//!
//! Three greedy baselines bracket the simulated-annealing heuristic:
//!
//! * [`GreedyQualitySolver`] — walk the candidates in decreasing quality and
//!   take every worker that still fits in the budget. This is optimal when
//!   all costs are equal (Lemma 2) but can waste budget on expensive workers
//!   otherwise.
//! * [`GreedyRatioSolver`] — the knapsack-style heuristic: walk candidates in
//!   decreasing information-per-cost, where a worker's "information" is her
//!   log-odds weight `φ(max(q, 1 − q))`.
//! * [`GreedyMarginalSolver`] — objective-driven forward selection: each
//!   round scores **every** affordable single-worker extension of the
//!   current jury and commits the best one. Every probe is a push/value/pop
//!   through the objective's incremental session; with an engine-backed
//!   session a round costs pool-many `O(buckets)` probes instead of
//!   pool-many from-scratch JQ computations.
//!
//! The first two also serve as cheap initial solutions for the annealing
//! search.

use std::time::Instant;

use jury_model::{Jury, Worker};

use crate::budget::SearchBudget;
use crate::objective::{IncrementalSession, JuryObjective};
use crate::parallel::{run_lanes, ParallelPolicy};
use crate::problem::JspInstance;
use crate::solver::{JurySolver, SolverResult};

/// Greedily adds workers in decreasing quality while the budget allows.
pub struct GreedyQualitySolver<O: JuryObjective> {
    objective: O,
}

impl<O: JuryObjective> GreedyQualitySolver<O> {
    /// Creates the solver.
    pub fn new(objective: O) -> Self {
        GreedyQualitySolver { objective }
    }
}

/// Greedily adds workers in decreasing `φ(q) / cost` ratio while the budget
/// allows.
pub struct GreedyRatioSolver<O: JuryObjective> {
    objective: O,
}

impl<O: JuryObjective> GreedyRatioSolver<O> {
    /// Creates the solver.
    pub fn new(objective: O) -> Self {
        GreedyRatioSolver { objective }
    }
}

fn greedy_by_key<O, K>(
    solver_name: &'static str,
    objective: &O,
    instance: &JspInstance,
    key: K,
) -> SolverResult
where
    O: JuryObjective,
    K: Fn(&Worker) -> f64,
{
    let start = Instant::now();
    let evaluations_before = objective.evaluations();
    let mut candidates: Vec<Worker> = instance.pool().workers().to_vec();
    candidates.sort_by(|a, b| {
        key(b)
            .partial_cmp(&key(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id().cmp(&b.id()))
    });

    let mut jury = Jury::empty();
    let mut spent = 0.0;
    for worker in candidates {
        if spent + worker.cost() <= instance.budget() + 1e-12 {
            spent += worker.cost();
            jury.push(worker);
        }
    }
    let value = objective.evaluate(&jury, instance.prior());
    SolverResult {
        jury,
        objective_value: value,
        evaluations: objective.evaluations() - evaluations_before,
        elapsed: start.elapsed(),
        solver: solver_name,
        truncated: false,
    }
}

impl<O: JuryObjective> JurySolver for GreedyQualitySolver<O> {
    fn name(&self) -> &'static str {
        "greedy-quality"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        greedy_by_key(self.name(), &self.objective, instance, |w| {
            w.effective_quality()
        })
    }
}

impl<O: JuryObjective> JurySolver for GreedyRatioSolver<O> {
    fn name(&self) -> &'static str {
        "greedy-ratio"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        greedy_by_key(self.name(), &self.objective, instance, |w| {
            // Zero-cost workers are infinitely attractive; order them by
            // quality among themselves.
            let cost = w.cost().max(1e-9);
            w.log_odds() / cost
        })
    }
}

/// Objective-driven forward selection: each round evaluates every affordable
/// single-worker extension of the current jury and keeps the best (ties go
/// to the earlier pool position, so runs are deterministic). Under `JQ(BV)`
/// adding a worker never lowers the objective (Lemma 1), so rounds continue
/// until no candidate fits the remaining budget; objectives that are *not*
/// monotone in the jury size — `JQ(MV)` drops when a weak even-ing member
/// joins — are protected by a stop rule: the search ends as soon as the
/// best extension scores below the current jury.
pub struct GreedyMarginalSolver<O: JuryObjective> {
    objective: O,
    budget: SearchBudget,
    parallel: ParallelPolicy,
}

impl<O: JuryObjective> GreedyMarginalSolver<O> {
    /// Creates the solver.
    pub fn new(objective: O) -> Self {
        GreedyMarginalSolver {
            objective,
            budget: SearchBudget::unlimited(),
            parallel: ParallelPolicy::Sequential,
        }
    }

    /// Bounds the forward selection with a cooperative compute budget: the
    /// probe loop polls it and stops early when it is exhausted, marking
    /// the result [`SolverResult::truncated`] while keeping the jury
    /// committed so far (anytime semantics).
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Spreads each round's pool-many probes across lanes. A single lane
    /// (the default, [`ParallelPolicy::Sequential`]) probes through the
    /// search's own session on the calling thread; each
    /// spawned lane replays the round's jury into its own session, so probe
    /// values do not depend on the lane count, and one pool-order scan over
    /// the collected values picks the round winner. An unbudgeted solve
    /// returns the same jury at every lane count.
    pub fn with_parallelism(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }
}

/// Probe values within this tolerance are treated as tied. JQ plateaus are
/// real — e.g. every second juror added to a strong first one leaves the
/// two-juror BV quality at the stronger quality — and on a plateau the
/// push/value/pop probes return values separated only by floating-point
/// drift of the incremental engine. Without a tolerance that drift, not the
/// deterministic earlier-pool-position rule, would pick the committed
/// worker (and could trip the stop rule on an exact tie).
const PROBE_TIE_TOLERANCE: f64 = 1e-9;

/// Mutable state of a marginal-gain forward selection, shared by
/// [`GreedyMarginalSolver`] and the warm-started budget sweep of
/// [`crate::BudgetQualityTable::build_warm`] (which carries one state — and
/// one session — across consecutive budgets instead of re-solving cold).
pub(crate) struct MarginalSearch<'a, O: JuryObjective> {
    objective: &'a O,
    instance: &'a JspInstance,
    selected: Vec<bool>,
    jury: Jury,
    spent: f64,
    session: Box<dyn IncrementalSession + 'a>,
    current_value: f64,
    budget: SearchBudget,
    truncated: bool,
    parallel: ParallelPolicy,
}

/// The read-only state of one forward-selection round, shared by its lanes.
struct Round<'r> {
    workers: &'r [Worker],
    selected: &'r [bool],
    jury: &'r Jury,
    spent: f64,
    /// The spend limit of this round's extensions.
    limit: f64,
    budget: SearchBudget,
    lanes: usize,
}

impl Round<'_> {
    /// Lane `lane`'s share of the round: every pool position
    /// `index ≡ lane (mod lanes)` that is unselected and affordable, probed
    /// in place through `session` (push, read, pop) as a single-worker
    /// extension of the round's jury. The budget checkpoint is polled
    /// before every owned position; an exhausted budget ends the lane and
    /// reports the cut.
    fn probe<O: JuryObjective>(
        &self,
        objective: &O,
        session: &mut dyn IncrementalSession,
        lane: usize,
    ) -> (Vec<(usize, f64)>, bool) {
        let mut values = Vec::new();
        for index in (lane..self.workers.len()).step_by(self.lanes) {
            if self.budget.exhausted(objective.evaluations()) {
                return (values, true);
            }
            let worker = &self.workers[index];
            if self.selected[index] || self.spent + worker.cost() > self.limit + 1e-12 {
                continue;
            }
            session.push(worker);
            values.push((index, session.value()));
            session.pop(worker);
        }
        (values, false)
    }
}

impl<'a, O: JuryObjective> MarginalSearch<'a, O> {
    /// Opens a search over the instance's pool, with the objective's
    /// session as the probe engine.
    pub(crate) fn new(objective: &'a O, instance: &'a JspInstance) -> Self {
        let session = objective.incremental_session(instance);
        let current_value = session.value();
        MarginalSearch {
            objective,
            instance,
            selected: vec![false; instance.num_candidates()],
            jury: Jury::empty(),
            spent: 0.0,
            session,
            current_value,
            budget: SearchBudget::unlimited(),
            truncated: false,
            parallel: ParallelPolicy::Sequential,
        }
    }

    /// Bounds the probe loop with a cooperative compute budget; see
    /// [`GreedyMarginalSolver::with_budget`].
    pub(crate) fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Spreads each round's probes across lanes (see
    /// [`GreedyMarginalSolver::with_parallelism`]).
    pub(crate) fn with_parallelism(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// The session-guided value of the committed jury (quantized when a
    /// session drives the search). Exposed so a portfolio's restart lane
    /// can compare a planting against the cross-lane bound without paying
    /// a batch evaluation.
    pub(crate) fn current_value(&self) -> f64 {
        self.current_value
    }

    /// Whether a budget checkpoint cut the last `extend_to` short.
    pub(crate) fn truncated(&self) -> bool {
        self.truncated
    }

    /// The jury committed so far.
    pub(crate) fn jury(&self) -> &Jury {
        &self.jury
    }

    /// The budget the committed jury requires.
    pub(crate) fn spent(&self) -> f64 {
        self.spent
    }

    /// Commits the given pool positions outright — no probing, no stop rule
    /// — skipping indices already selected or unaffordable under `budget`.
    /// This is how [`crate::RestartSolver`] diversifies: each randomized
    /// restart plants a few workers before the marginal rounds take over.
    /// Costs at most one session read (to refresh the current value).
    pub(crate) fn preseed(&mut self, indices: &[usize], budget: f64) {
        let workers = self.instance.pool().workers();
        let mut committed = false;
        for &index in indices {
            let worker = &workers[index];
            if self.selected[index] || self.spent + worker.cost() > budget + 1e-12 {
                continue;
            }
            self.selected[index] = true;
            self.spent += worker.cost();
            self.jury.push(worker.clone());
            self.session.push(worker);
            committed = true;
        }
        if committed {
            self.current_value = self.session.value();
        }
    }

    /// Greedy rounds up to `budget`: each round scores **every** affordable
    /// single-worker extension of the current jury and commits the best
    /// one; ties keep the earlier pool position, so runs are deterministic.
    /// The search stops when nothing fits or — protecting objectives that
    /// are not monotone in the jury size, like `JQ(MV)` — when the best
    /// extension scores below the current jury; ties still commit, so the
    /// BV search keeps filling the budget. Calling it again with a larger
    /// budget resumes from the committed state (the warm-start contract).
    ///
    /// A round's probes are dealt onto the policy's lanes by pool position.
    /// A single lane probes through the search's own session; spawned lanes
    /// each open a session (sessions are not `Send`) and replay the round's
    /// jury into it, so a probe value depends only on `(jury, candidate)`.
    /// The winner is then picked by one pool-order scan over the collected
    /// values, which keeps the committed jury invariant in the lane count.
    /// A budget cut seen by any lane abandons the uncommitted round and
    /// keeps the jury built so far (anytime semantics).
    pub(crate) fn extend_to(&mut self, budget: f64) {
        let (objective, instance) = (self.objective, self.instance);
        let workers = instance.pool().workers();
        let lanes = self.parallel.lanes(workers.len());
        loop {
            let round = Round {
                workers,
                selected: &self.selected,
                jury: &self.jury,
                spent: self.spent,
                limit: budget,
                budget: self.budget,
                lanes,
            };
            let lane_probes = if lanes == 1 {
                vec![round.probe(objective, &mut *self.session, 0)]
            } else {
                run_lanes(lanes, |lane| {
                    let mut session = objective.incremental_session(instance);
                    for member in round.jury.workers() {
                        session.push(member);
                    }
                    round.probe(objective, &mut *session, lane)
                })
            };
            let mut probes = Vec::new();
            for (values, cut) in lane_probes {
                if cut {
                    self.truncated = true;
                    return;
                }
                probes.extend(values);
            }
            // The chained tie-tolerance comparison is order-sensitive, so
            // the winner is chosen in pool order, not per lane.
            probes.sort_unstable_by_key(|&(index, _)| index);
            let mut best: Option<(usize, f64)> = None;
            for (index, value) in probes {
                if best.is_none_or(|(_, best_value)| value > best_value + PROBE_TIE_TOLERANCE) {
                    best = Some((index, value));
                }
            }
            let Some((index, best_value)) = best else {
                break;
            };
            if best_value < self.current_value - PROBE_TIE_TOLERANCE {
                break;
            }
            self.selected[index] = true;
            self.spent += workers[index].cost();
            self.jury.push(workers[index].clone());
            self.session.push(&workers[index]);
            self.current_value = best_value;
        }
    }
}

impl<O: JuryObjective> JurySolver for GreedyMarginalSolver<O> {
    fn name(&self) -> &'static str {
        "greedy-marginal"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        let start = Instant::now();
        let evaluations_before = self.objective.evaluations();
        let mut search = MarginalSearch::new(&self.objective, instance)
            .with_budget(self.budget)
            .with_parallelism(self.parallel);
        search.extend_to(instance.budget());

        // Session values are quantized guidance; report the batch
        // objective's score of the final jury.
        let jury = search.jury().clone();
        let value = self.objective.evaluate(&jury, instance.prior());
        SolverResult {
            jury,
            objective_value: value,
            evaluations: self.objective.evaluations() - evaluations_before,
            elapsed: start.elapsed(),
            solver: self.name(),
            truncated: search.truncated(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::objective::{BatchOnly, BvObjective};
    use jury_model::{paper_example_pool, WorkerPool};

    fn paper_instance(budget: f64) -> JspInstance {
        JspInstance::with_uniform_prior(paper_example_pool(), budget).unwrap()
    }

    #[test]
    fn greedy_results_are_feasible() {
        for budget in [0.0, 5.0, 12.0, 20.0, 37.0] {
            let instance = paper_instance(budget);
            let by_quality = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
            let by_ratio = GreedyRatioSolver::new(BvObjective::new()).solve(&instance);
            assert!(
                instance.is_feasible(&by_quality.jury),
                "quality greedy at {budget}"
            );
            assert!(
                instance.is_feasible(&by_ratio.jury),
                "ratio greedy at {budget}"
            );
        }
    }

    #[test]
    fn greedy_is_dominated_by_exhaustive() {
        for budget in [5.0, 10.0, 15.0, 20.0] {
            let instance = paper_instance(budget);
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let by_quality = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
            let by_ratio = GreedyRatioSolver::new(BvObjective::new()).solve(&instance);
            assert!(by_quality.objective_value <= optimal.objective_value + 1e-9);
            assert!(by_ratio.objective_value <= optimal.objective_value + 1e-9);
        }
    }

    #[test]
    fn greedy_quality_is_optimal_under_uniform_costs() {
        // Lemma 2: with equal costs, taking the top-k workers by quality is
        // optimal.
        let pool = WorkerPool::from_qualities_and_costs(
            &[0.9, 0.55, 0.7, 0.8, 0.6],
            &[1.0, 1.0, 1.0, 1.0, 1.0],
        )
        .unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 3.0).unwrap();
        let greedy = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
        let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
        assert!((greedy.objective_value - optimal.objective_value).abs() < 1e-9);
        assert_eq!(greedy.size(), 3);

        // Lemma 1: free workers all fit a zero budget, and all of them is
        // optimal.
        let free = WorkerPool::from_qualities_and_costs(&[0.6, 0.7, 0.8], &[0.0; 3]).unwrap();
        let instance = JspInstance::with_uniform_prior(free, 0.0).unwrap();
        let greedy = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
        let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
        assert!((greedy.objective_value - optimal.objective_value).abs() < 1e-9);
        assert_eq!(greedy.size(), 3);
    }

    #[test]
    fn ratio_greedy_prefers_cheap_informative_workers() {
        // Worker G (0.75, $3) has a much better ratio than A (0.77, $9).
        let instance = paper_instance(3.0);
        let result = GreedyRatioSolver::new(BvObjective::new()).solve(&instance);
        assert_eq!(result.size(), 1);
        assert!((result.jury.workers()[0].quality() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_gives_empty_jury() {
        let instance = paper_instance(0.0);
        let result = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
        assert!(result.jury.is_empty());
        assert!((result.objective_value - 0.5).abs() < 1e-12);
        assert_eq!(result.evaluations, 1);
    }

    #[test]
    fn marginal_greedy_is_feasible_and_dominated_by_exhaustive() {
        for budget in [3.0, 5.0, 10.0, 15.0, 20.0] {
            let instance = paper_instance(budget);
            let marginal = GreedyMarginalSolver::new(BvObjective::new()).solve(&instance);
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            assert!(instance.is_feasible(&marginal.jury), "budget {budget}");
            assert!(marginal.objective_value <= optimal.objective_value + 1e-9);
            // On the paper pool the JQ-driven forward selection does at
            // least as well as the quality-ordered fill.
            let by_quality = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
            assert!(marginal.objective_value >= by_quality.objective_value - 1e-9);
        }
    }

    #[test]
    fn marginal_greedy_stops_when_extensions_hurt_the_mv_objective() {
        // JQ(MV) is not monotone in the jury size: after taking the 0.9
        // worker, extending to {0.9, 0.55} drops the MV quality from 0.9 to
        // 0.725. The stop rule must keep the better one-worker jury instead
        // of blindly filling the budget.
        use crate::objective::MvObjective;
        let pool = WorkerPool::from_qualities_and_costs(&[0.9, 0.55], &[1.0, 1.0]).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 2.0).unwrap();
        let result = GreedyMarginalSolver::new(MvObjective::new()).solve(&instance);
        assert_eq!(result.size(), 1);
        assert!((result.objective_value - 0.9).abs() < 1e-12);
        // BV keeps filling the budget on the same instance (monotone).
        let bv = GreedyMarginalSolver::new(BvObjective::new()).solve(&instance);
        assert_eq!(bv.size(), 2);
    }

    #[test]
    fn marginal_greedy_drives_the_incremental_session_on_large_pools() {
        // 30 candidates is above the exact cutoff, so scoring goes through
        // the incremental push/value/pop probes; results must stay
        // deterministic and land close to a batch-session run of the same
        // strategy (every extension scored by `evaluate`).
        let qualities: Vec<f64> = (0..30).map(|i| 0.52 + 0.015 * i as f64).collect();
        let costs: Vec<f64> = (0..30).map(|i| 1.0 + (i % 5) as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 12.0).unwrap();
        let a = GreedyMarginalSolver::new(BvObjective::new()).solve(&instance);
        let b = GreedyMarginalSolver::new(BvObjective::new()).solve(&instance);
        let batch = GreedyMarginalSolver::new(BatchOnly(BvObjective::new())).solve(&instance);
        assert!(instance.is_feasible(&a.jury));
        assert!(!a.jury.is_empty());
        assert_eq!(a.jury.ids(), b.jury.ids());
        assert!(a.evaluations > 0);
        // The session quantizes to the budget-sized grid; the greedy choice
        // must still land within the grid's error of the evaluate-driven
        // pick.
        assert!(instance.is_feasible(&batch.jury));
        assert!(
            (a.objective_value - batch.objective_value).abs() < 0.02,
            "incremental {} vs batch {}",
            a.objective_value,
            batch.objective_value
        );
    }
}
