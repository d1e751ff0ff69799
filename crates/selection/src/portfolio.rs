//! The anytime solver portfolio: race heterogeneous heuristics under one
//! shared [`SearchBudget`].
//!
//! No single JSP heuristic dominates: annealing explores broadly but can
//! waste its budget re-visiting, tabu exploits a neighbourhood hard, and
//! the randomized marginal restarts are unbeatable on instances greedy
//! forward selection already solves. [`PortfolioSolver`] runs any subset of
//! them ([`PortfolioMember`]) **round-robin at restart granularity**: in
//! round `u`, every racing member executes its `u`-th restart, so a tight
//! budget is spread across strategies instead of exhausted by whichever
//! member happens to run first. All members drive the *same* objective
//! value, which means:
//!
//! * one shared evaluation counter — the portfolio's budget caps the race
//!   as a whole, not each member separately;
//! * with a caching objective (the service's signature-keyed JQ
//!   store), a probe paid by one member is a cache hit for the others.
//!
//! Each member's restart sequence, fold order, and RNG streams are exactly
//! those of a standalone run of that solver, so an **unbudgeted** portfolio
//! returns exactly the jury the best member would have returned alone. On
//! truncation the best-so-far jury across all members is returned (the
//! anytime contract), and the greedy candidate fills folded into every
//! member's finish keep it at or above the greedy floor. The winning
//! member is recorded in [`SolverResult::solver`] as provenance
//! (`"portfolio:tabu"`, `"portfolio:random-restart"`,
//! `"portfolio:simulated-annealing"`).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use jury_jq::SharedJqScratch;
use jury_model::Jury;

use crate::annealing::{greedy_candidate_juries, AnnealingConfig, AnnealingSolver};
use crate::budget::SearchBudget;
use crate::objective::JuryObjective;
use crate::parallel::{run_lanes, ArenaObjective, ParallelPolicy, SharedBestBound};
use crate::problem::JspInstance;
use crate::restart::{RestartConfig, RestartSolver};
use crate::solver::{JurySolver, SolverResult};
use crate::tabu::{TabuConfig, TabuSolver};

/// One racing member of a solver portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortfolioMember {
    /// Tabu search ([`TabuSolver`]): tenure list + aspiration over the
    /// add/swap neighbourhood.
    Tabu,
    /// Randomized restarts around the marginal forward selection
    /// ([`RestartSolver`]).
    Restart,
    /// The paper's simulated-annealing heuristic
    /// ([`AnnealingSolver`], Algorithms 3/4).
    Annealing,
}

impl PortfolioMember {
    /// The default racing lineup: every member, diversification first.
    pub fn default_lineup() -> Vec<PortfolioMember> {
        vec![
            PortfolioMember::Tabu,
            PortfolioMember::Restart,
            PortfolioMember::Annealing,
        ]
    }

    /// The member's solver name (matches the standalone solver's
    /// [`JurySolver::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            PortfolioMember::Tabu => "tabu",
            PortfolioMember::Restart => "random-restart",
            PortfolioMember::Annealing => "simulated-annealing",
        }
    }

    /// The provenance string recorded when this member wins a portfolio
    /// race.
    pub fn provenance(&self) -> &'static str {
        match self {
            PortfolioMember::Tabu => "portfolio:tabu",
            PortfolioMember::Restart => "portfolio:random-restart",
            PortfolioMember::Annealing => "portfolio:simulated-annealing",
        }
    }
}

impl std::fmt::Display for PortfolioMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-member configurations of a portfolio race.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PortfolioConfig {
    /// Configuration of the [`PortfolioMember::Annealing`] member.
    pub annealing: AnnealingConfig,
    /// Configuration of the [`PortfolioMember::Tabu`] member.
    pub tabu: TabuConfig,
    /// Configuration of the [`PortfolioMember::Restart`] member.
    pub restart: RestartConfig,
    /// How the race is spread across lanes. Members are dealt round-robin
    /// onto the lanes, and every lane races its members at restart-unit
    /// granularity. One lane ([`ParallelPolicy::Sequential`], the default)
    /// runs the whole race on the calling thread against the objective
    /// itself. Spawned lanes each probe through a private scratch arena and
    /// share one evaluation counter; under a limited budget they also
    /// share a best-so-far bound that cuts provably losing work.
    pub parallel: ParallelPolicy,
}

impl PortfolioConfig {
    /// Sets the annealing member's configuration.
    pub fn with_annealing(mut self, config: AnnealingConfig) -> Self {
        self.annealing = config;
        self
    }

    /// Sets the tabu member's configuration.
    pub fn with_tabu(mut self, config: TabuConfig) -> Self {
        self.tabu = config;
        self
    }

    /// Sets the restart member's configuration.
    pub fn with_restart(mut self, config: RestartConfig) -> Self {
        self.restart = config;
        self
    }

    /// Sets the thread policy of the race (see
    /// [`PortfolioConfig::parallel`]).
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }
}

/// One member's entry in the race: its best jury so far and how many
/// restart units it runs.
struct MemberRun {
    member: PortfolioMember,
    units: usize,
    best_jury: Jury,
    best_value: f64,
}

/// The racing portfolio solver; see the module docs.
pub struct PortfolioSolver<O: JuryObjective> {
    objective: O,
    members: Vec<PortfolioMember>,
    config: PortfolioConfig,
    budget: SearchBudget,
    /// Parent scratch arena of a multi-lane race: warm buffers are dealt
    /// out to the spawned lanes and absorbed back at retirement, so
    /// repeated multi-lane solves reuse capacity across calls. Untouched by
    /// a one-lane race.
    arena: SharedJqScratch,
}

impl<O: JuryObjective> PortfolioSolver<O> {
    /// Creates a portfolio racing the default lineup.
    pub fn new(objective: O) -> Self {
        PortfolioSolver {
            objective,
            members: PortfolioMember::default_lineup(),
            config: PortfolioConfig::default(),
            budget: SearchBudget::unlimited(),
            arena: SharedJqScratch::new(),
        }
    }

    /// Creates a portfolio racing the given members (an empty list races
    /// the default lineup). Duplicate members race twice — that is allowed
    /// but rarely useful.
    pub fn with_members(objective: O, members: Vec<PortfolioMember>) -> Self {
        let members = if members.is_empty() {
            PortfolioMember::default_lineup()
        } else {
            members
        };
        PortfolioSolver {
            objective,
            members,
            config: PortfolioConfig::default(),
            budget: SearchBudget::unlimited(),
            arena: SharedJqScratch::new(),
        }
    }

    /// Sets the per-member configurations.
    pub fn with_config(mut self, config: PortfolioConfig) -> Self {
        self.config = config;
        self
    }

    /// Bounds the whole race with one cooperative compute budget, shared by
    /// every member through the common objective's evaluation counter.
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The racing members, in race order.
    pub fn members(&self) -> &[PortfolioMember] {
        &self.members
    }

    /// The underlying objective.
    pub fn objective(&self) -> &O {
        &self.objective
    }

    /// How many restart units the member contributes to the race.
    fn units_of(&self, member: PortfolioMember) -> usize {
        match member {
            PortfolioMember::Tabu => self.config.tabu.restarts.max(1),
            PortfolioMember::Restart => self.config.restart.restarts.max(1),
            PortfolioMember::Annealing => self.config.annealing.restarts.max(1),
        }
    }

    /// Whether the member folds the greedy candidate fills into its finish.
    fn member_uses_greedy(&self, member: PortfolioMember) -> bool {
        match member {
            PortfolioMember::Tabu => self.config.tabu.use_greedy_candidates,
            PortfolioMember::Restart => self.config.restart.use_greedy_candidates,
            PortfolioMember::Annealing => self.config.annealing.use_greedy_candidates,
        }
    }
}

impl<O: JuryObjective> JurySolver for PortfolioSolver<O> {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        let start = Instant::now();
        let evaluations_before = self.objective.evaluations();
        let lanes = self.config.parallel.lanes(self.members.len());

        // The bound may only *steer* when several lanes race and the race
        // can be cut short anyway: a budgeted race is anytime by contract,
        // an unbudgeted one must replay its members exactly.
        let bound = (lanes > 1 && !self.budget.is_unlimited()).then(SharedBestBound::new);

        // Spawned lanes each get a private arena, dealt the parent arena's
        // warm buffers, so their hot loops never contend on a shared
        // scratch lock. A single lane drives the objective directly.
        let mut lane_arenas: Vec<SharedJqScratch> = Vec::new();
        if lanes > 1 {
            lane_arenas = (0..lanes).map(|_| SharedJqScratch::new()).collect();
            let mut parent = self.arena.lock();
            for i in 0..parent.buffers_held() {
                let buffer = parent.take_buffer();
                lane_arenas[i % lanes].lock().recycle_buffer(buffer);
            }
        }
        let lane_runs = run_lanes(lanes, |lane| match lane_arenas.get(lane) {
            Some(arena) => self.race_lane(
                &ArenaObjective::new(&self.objective, arena),
                instance,
                lane,
                lanes,
                bound.as_ref(),
            ),
            None => self.race_lane(&self.objective, instance, lane, lanes, bound.as_ref()),
        });
        // Lane retirement: absorb the warm per-lane arenas back into the
        // parent so the next multi-lane solve starts warm.
        for arena in &lane_arenas {
            self.arena.absorb(arena);
        }

        let mut truncated = false;
        let mut runs: Vec<(usize, MemberRun)> = Vec::with_capacity(self.members.len());
        for (lane_members, cut) in lane_runs {
            truncated |= cut;
            runs.extend(lane_members);
        }

        // Finish every member the way its standalone solver finishes: fold
        // the greedy candidate fills. Cheap (two evaluations per member)
        // and done even on truncation — this is what keeps a cut-short race
        // at or above the greedy floor.
        for (_, run) in runs.iter_mut() {
            if !self.member_uses_greedy(run.member) {
                continue;
            }
            for jury in greedy_candidate_juries(instance) {
                let value = self.objective.evaluate(&jury, instance.prior());
                if value > run.best_value {
                    run.best_value = value;
                    run.best_jury = jury;
                }
            }
        }

        // The race winner: strictly better value wins, ties keep the
        // earlier member in race order.
        let (_, winner) = runs
            .iter()
            .max_by(|(ia, a), (ib, b)| {
                a.best_value
                    .partial_cmp(&b.best_value)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| ib.cmp(ia))
            })
            .expect("a portfolio always has at least one member");

        SolverResult {
            jury: winner.best_jury.clone(),
            objective_value: winner.best_value,
            evaluations: self.objective.evaluations() - evaluations_before,
            elapsed: start.elapsed(),
            solver: winner.member.provenance(),
            truncated,
        }
    }
}

impl<O: JuryObjective> PortfolioSolver<O> {
    /// One lane of the race: the members at race positions
    /// `index ≡ lane (mod lanes)`, raced round-robin at restart-unit
    /// granularity — round `u` gives every member its `u`-th restart, so no
    /// member can exhaust a tight budget alone. Sub-solvers borrow
    /// `objective`, so every probe lands in the one shared evaluation
    /// counter — and, through a caching objective, the same memo store —
    /// the budget and the other members see. Returns the members' runs
    /// tagged with their race positions, and whether the budget cut the
    /// lane short.
    fn race_lane<P: JuryObjective>(
        &self,
        objective: &P,
        instance: &JspInstance,
        lane: usize,
        lanes: usize,
        bound: Option<&SharedBestBound>,
    ) -> (Vec<(usize, MemberRun)>, bool) {
        let annealing =
            AnnealingSolver::with_config(objective, self.config.annealing).with_budget(self.budget);
        let tabu = TabuSolver::with_config(objective, self.config.tabu).with_budget(self.budget);
        let restart =
            RestartSolver::with_config(objective, self.config.restart).with_budget(self.budget);

        // Every member starts where its standalone solver would: at the
        // empty jury's value.
        let mut runs: Vec<(usize, MemberRun)> = self
            .members
            .iter()
            .enumerate()
            .filter(|(index, _)| index % lanes == lane)
            .map(|(index, &member)| {
                let run = MemberRun {
                    member,
                    units: self.units_of(member),
                    best_jury: Jury::empty(),
                    best_value: objective.evaluate(&Jury::empty(), instance.prior()),
                };
                (index, run)
            })
            .collect();

        let mut truncated = false;
        let rounds = runs.iter().map(|(_, run)| run.units).max().unwrap_or(0);
        'race: for unit in 0..rounds {
            for (_, run) in runs.iter_mut() {
                if unit >= run.units {
                    continue;
                }
                if self.budget.exhausted(objective.evaluations()) {
                    truncated = true;
                    break 'race;
                }
                let (jury, value, cut) = match run.member {
                    PortfolioMember::Tabu => tabu.run_once(instance, unit, bound),
                    PortfolioMember::Restart => restart.run_once(instance, unit, bound),
                    PortfolioMember::Annealing => annealing.anneal_once(
                        instance,
                        self.config.annealing.seed.wrapping_add(unit as u64),
                        &Jury::empty(),
                    ),
                };
                truncated |= cut;
                if value > run.best_value {
                    run.best_value = value;
                    run.best_jury = jury;
                    if let Some(shared) = bound {
                        shared.observe(value);
                    }
                }
            }
        }
        (runs, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::objective::BvObjective;
    use jury_model::paper_example_pool;

    fn paper_instance(budget: f64) -> JspInstance {
        JspInstance::with_uniform_prior(paper_example_pool(), budget).unwrap()
    }

    /// The expected unbudgeted portfolio outcome, computed from standalone
    /// member runs with the portfolio's own tie-break (first member wins
    /// ties).
    fn expected_winner(
        instance: &JspInstance,
        members: &[PortfolioMember],
    ) -> (Jury, f64, &'static str) {
        let mut best: Option<(Jury, f64, &'static str)> = None;
        for &member in members {
            let result = match member {
                PortfolioMember::Tabu => TabuSolver::new(BvObjective::new()).solve(instance),
                PortfolioMember::Restart => RestartSolver::new(BvObjective::new()).solve(instance),
                PortfolioMember::Annealing => {
                    AnnealingSolver::new(BvObjective::new()).solve(instance)
                }
            };
            if best
                .as_ref()
                .is_none_or(|(_, value, _)| result.objective_value > *value)
            {
                best = Some((result.jury, result.objective_value, member.provenance()));
            }
        }
        best.expect("at least one member")
    }

    #[test]
    fn unbudgeted_race_returns_exactly_the_best_member() {
        for budget in [5.0, 10.0, 15.0, 20.0] {
            let instance = paper_instance(budget);
            let members = PortfolioMember::default_lineup();
            let raced = PortfolioSolver::new(BvObjective::new()).solve(&instance);
            let (jury, value, provenance) = expected_winner(&instance, &members);
            assert_eq!(raced.jury.ids(), jury.ids(), "budget {budget}");
            assert!((raced.objective_value - value).abs() < 1e-15);
            assert_eq!(raced.solver, provenance);
            assert!(!raced.truncated);
        }
    }

    #[test]
    fn matches_the_exhaustive_optimum_on_the_paper_pool() {
        for budget in [5.0, 10.0, 15.0, 20.0] {
            let instance = paper_instance(budget);
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let raced = PortfolioSolver::new(BvObjective::new()).solve(&instance);
            assert!(
                (raced.objective_value - optimal.objective_value).abs() < 1e-9,
                "budget {budget}: portfolio {} vs optimal {}",
                raced.objective_value,
                optimal.objective_value
            );
        }
    }

    #[test]
    fn empty_member_list_races_the_default_lineup() {
        let instance = paper_instance(15.0);
        let defaulted =
            PortfolioSolver::with_members(BvObjective::new(), Vec::new()).solve(&instance);
        let explicit = PortfolioSolver::new(BvObjective::new()).solve(&instance);
        assert_eq!(defaulted.jury.ids(), explicit.jury.ids());
        assert_eq!(defaulted.solver, explicit.solver);
    }

    #[test]
    fn truncated_race_stays_feasible_and_at_the_greedy_floor() {
        use crate::greedy::{GreedyQualitySolver, GreedyRatioSolver};
        let instance = paper_instance(15.0);
        for cap in [1, 3, 10, 50] {
            let raced = PortfolioSolver::new(BvObjective::new())
                .with_budget(SearchBudget::unlimited().with_max_evaluations(cap))
                .solve(&instance);
            assert!(raced.truncated, "cap {cap}");
            assert!(instance.is_feasible(&raced.jury), "cap {cap}");
            let floor = GreedyQualitySolver::new(BvObjective::new())
                .solve(&instance)
                .objective_value
                .max(
                    GreedyRatioSolver::new(BvObjective::new())
                        .solve(&instance)
                        .objective_value,
                );
            assert!(
                raced.objective_value >= floor - 1e-9,
                "cap {cap}: {} below greedy floor {floor}",
                raced.objective_value
            );
        }
    }

    #[test]
    fn member_names_and_provenance_are_stable() {
        assert_eq!(PortfolioMember::Tabu.name(), "tabu");
        assert_eq!(PortfolioMember::Restart.to_string(), "random-restart");
        assert_eq!(
            PortfolioMember::Annealing.provenance(),
            "portfolio:simulated-annealing"
        );
        assert_eq!(PortfolioMember::default_lineup().len(), 3);
    }

    #[test]
    fn members_round_trip_through_serde() {
        use serde::{Deserialize as _, Serialize as _};
        for member in PortfolioMember::default_lineup() {
            let value = member.to_value();
            assert_eq!(PortfolioMember::from_value(&value).unwrap(), member);
        }
    }
}
