//! # jury-selection
//!
//! Solvers for the Jury Selection Problem (JSP) of *"On Optimality of Jury
//! Selection in Crowdsourcing"* (EDBT 2015, Sections 2.2 and 5).
//!
//! Given a candidate worker pool, a budget, and a task prior, JSP asks for
//! the feasible jury maximizing the jury quality under the optimal voting
//! strategy (Bayesian voting, Theorem 1). JSP is NP-hard (Theorem 4), so the
//! crate offers a spectrum of solvers:
//!
//! * [`ExhaustiveSolver`] — exact enumeration (the reference for `N ≤ 22`);
//! * [`AnnealingSolver`] — the paper's simulated-annealing heuristic
//!   (Algorithms 3 and 4), generic over the objective and steered through
//!   the objective's [`IncrementalSession`] so a neighbour jury costs
//!   `O(buckets)` instead of a from-scratch JQ evaluation;
//! * [`GreedyQualitySolver`] / [`GreedyRatioSolver`] — cheap baselines;
//! * [`GreedyMarginalSolver`] — objective-driven forward selection scoring
//!   pool-many single-worker extensions per round via the same sessions;
//! * [`MvjsSolver`] — the Majority-Voting baseline system of Cao et al. \[7\];
//! * [`BudgetQualityTable`] — the Figure 1 budget–quality table;
//! * [`repair_jury`] — online repair of an already-deployed jury whose
//!   worker estimates drifted: greedy swap/push hill climbing under the
//!   original budget, riding the same incremental sessions.
//!
//! ```
//! use jury_model::{paper_example_pool, Prior};
//! use jury_selection::{AnnealingSolver, BvObjective, JspInstance, JurySolver};
//!
//! // The paper's running example: 7 workers, budget 15, uniform prior.
//! let instance =
//!     JspInstance::with_uniform_prior(paper_example_pool(), 15.0).unwrap();
//! let result = AnnealingSolver::new(BvObjective::new()).solve(&instance);
//! assert!(result.jury.cost() <= 15.0);
//! assert!((result.objective_value - 0.845).abs() < 1e-6); // {B, C, G}
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annealing;
pub mod budget;
pub mod budget_table;
pub mod exhaustive;
pub mod greedy;
pub mod multiclass;
pub mod mvjs;
pub mod objective;
pub mod parallel;
pub mod portfolio;
pub mod problem;
pub mod repair;
pub mod restart;
pub mod solver;
pub mod tabu;

pub use annealing::{AnnealingConfig, AnnealingSolver};
pub use budget::SearchBudget;
pub use budget_table::{BudgetQualityRow, BudgetQualityTable};
pub use exhaustive::{ExhaustiveSolver, MAX_EXHAUSTIVE_POOL};
pub use greedy::{GreedyMarginalSolver, GreedyQualitySolver, GreedyRatioSolver};
pub use multiclass::{
    MultiClassBvObjective, MultiClassJsp, DEFAULT_MULTICLASS_EXACT_VOTINGS,
    DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF,
};
pub use mvjs::MvjsSolver;
pub use objective::{
    bv_exact_scoring_session_in, bv_search_session_in, mv_incremental_session_in, BatchSession,
    BvObjective, IncrementalSession, JuryObjective, MvObjective,
};
pub use parallel::{ArenaObjective, ParallelPolicy, SharedBestBound};
pub use portfolio::{PortfolioConfig, PortfolioMember, PortfolioSolver};
pub use problem::JspInstance;
pub use repair::{repair_jury, RepairConfig, RepairResult};
pub use restart::{RestartConfig, RestartSolver};
pub use solver::{JurySolver, SolveError, SolverResult};
pub use tabu::{TabuConfig, TabuSolver};

#[cfg(test)]
mod tests {
    use super::*;
    use jury_model::WorkerPool;

    /// Thread-count invariance where incremental sessions really open: both
    /// pools exceed the BV exact cutoff, so the greedy lanes replay their
    /// base jury into per-lane sessions and the portfolio lanes probe
    /// through their own `ArenaObjective` arenas. Every threaded solve must
    /// return the sequential jury with a bit-equal value.
    #[test]
    fn threaded_solves_match_sequential_on_session_sized_pools() {
        for (n, budget) in [(16usize, 3.5), (20, 4.5)] {
            let qualities: Vec<f64> = (0..n)
                .map(|i| 0.55 + 0.025 * ((i * 7) % 13) as f64)
                .collect();
            let costs: Vec<f64> = (0..n).map(|i| 0.5 + 0.25 * ((i * 5) % 7) as f64).collect();
            let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();

            let solve = |policy: ParallelPolicy| {
                [
                    GreedyMarginalSolver::new(BvObjective::new())
                        .with_parallelism(policy)
                        .solve(&instance),
                    RestartSolver::with_config(
                        BvObjective::new(),
                        RestartConfig::default().with_parallel(policy),
                    )
                    .solve(&instance),
                    PortfolioSolver::new(BvObjective::new())
                        .with_config(PortfolioConfig::default().with_parallel(policy))
                        .solve(&instance),
                ]
            };
            let sequential = solve(ParallelPolicy::Sequential);
            for threads in [1usize, 2, 8] {
                for (threaded, expected) in solve(ParallelPolicy::Threads(threads))
                    .iter()
                    .zip(&sequential)
                {
                    assert_eq!(
                        threaded.jury.ids(),
                        expected.jury.ids(),
                        "n {n}, {} at {threads} threads changed the jury",
                        expected.solver
                    );
                    assert_eq!(
                        threaded.objective_value.to_bits(),
                        expected.objective_value.to_bits(),
                        "n {n}, {} at {threads} threads changed the value",
                        expected.solver
                    );
                }
            }
        }
    }

    /// The budgeted two-lane race, where the cross-lane bound steers the
    /// portfolio (tabu aspiration, the restart acceptance cut): every
    /// capped solve stays feasible and anytime, reports the cut, and the
    /// portfolio never leaks a quantized session value into its result.
    #[test]
    fn budgeted_two_lane_solves_stay_anytime() {
        // A pool where the race beats both greedy fills, so the winning
        // jury comes out of a member's search rather than a greedy fold.
        let qualities: Vec<f64> = (0..20)
            .map(|i| 0.52 + 0.013 * ((i * 7 + 2) % 29) as f64)
            .collect();
        let costs: Vec<f64> = (0..20)
            .map(|i| 0.5 + 0.25 * ((i * 5 + 2) % 7) as f64)
            .collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 4.5).unwrap();
        let floor = GreedyQualitySolver::new(BvObjective::new())
            .solve(&instance)
            .objective_value
            .max(
                GreedyRatioSolver::new(BvObjective::new())
                    .solve(&instance)
                    .objective_value,
            );

        let policy = ParallelPolicy::Threads(2);
        let solve = |budget: SearchBudget| {
            [
                PortfolioSolver::new(BvObjective::new())
                    .with_config(PortfolioConfig::default().with_parallel(policy))
                    .with_budget(budget)
                    .solve(&instance),
                RestartSolver::with_config(
                    BvObjective::new(),
                    RestartConfig::default().with_parallel(policy),
                )
                .with_budget(budget)
                .solve(&instance),
                GreedyMarginalSolver::new(BvObjective::new())
                    .with_parallelism(policy)
                    .with_budget(budget)
                    .solve(&instance),
            ]
        };
        let unbudgeted = solve(SearchBudget::unlimited());
        for cap in [50u64, 200, 800] {
            let [portfolio, restart, greedy] =
                solve(SearchBudget::unlimited().with_max_evaluations(cap));
            for (capped, full) in [&portfolio, &restart, &greedy].into_iter().zip(&unbudgeted) {
                assert!(
                    instance.is_feasible(&capped.jury),
                    "cap {cap}: {}",
                    capped.solver
                );
                if cap < full.evaluations {
                    assert!(capped.truncated, "cap {cap}: {} not truncated", full.solver);
                }
            }
            for capped in [&portfolio, &restart] {
                assert!(
                    capped.objective_value >= floor - 1e-9,
                    "cap {cap}: {} at {} below the greedy floor {floor}",
                    capped.solver,
                    capped.objective_value
                );
            }
            // The marginal search has no greedy fills to fall back on; its
            // anytime jury is the unbudgeted selection cut after whole
            // rounds.
            assert!(
                unbudgeted[2].jury.ids().starts_with(&greedy.jury.ids()),
                "cap {cap}: greedy jury is not a prefix of the unbudgeted one"
            );
            let rescored = BvObjective::new().evaluate(&portfolio.jury, instance.prior());
            assert_eq!(
                portfolio.objective_value.to_bits(),
                rescored.to_bits(),
                "cap {cap}: the portfolio reported a value its jury does not score"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use jury_model::WorkerPool;
    use proptest::prelude::*;

    fn pool_strategy() -> impl Strategy<Value = WorkerPool> {
        proptest::collection::vec(((0.5f64..0.95), (0.05f64..1.0)), 1..9).prop_map(|pairs| {
            let (qualities, costs): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every solver returns a feasible jury and a JQ value in [0.5, 1].
        #[test]
        fn solvers_return_feasible_juries(pool in pool_strategy(), budget in 0.0f64..3.0) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let solvers: Vec<Box<dyn JurySolver>> = vec![
                Box::new(ExhaustiveSolver::new(BvObjective::new())),
                Box::new(AnnealingSolver::new(BvObjective::new())),
                Box::new(GreedyQualitySolver::new(BvObjective::new())),
                Box::new(GreedyRatioSolver::new(BvObjective::new())),
                Box::new(MvjsSolver::new()),
            ];
            for solver in solvers {
                let result = solver.solve(&instance);
                prop_assert!(instance.is_feasible(&result.jury),
                    "{} returned an infeasible jury", result.solver);
                prop_assert!(result.objective_value >= 0.5 - 1e-9);
                prop_assert!(result.objective_value <= 1.0 + 1e-9);
            }
        }

        /// The heuristics never beat the exhaustive optimum, and annealing
        /// lands close to it.
        #[test]
        fn annealing_close_to_optimal(pool in pool_strategy(), budget in 0.2f64..2.0) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let annealed = AnnealingSolver::new(BvObjective::new()).solve(&instance);
            prop_assert!(annealed.objective_value <= optimal.objective_value + 1e-9);
            prop_assert!(optimal.objective_value - annealed.objective_value <= 0.1,
                "gap {} too large", optimal.objective_value - annealed.objective_value);
        }

        /// The OPTJS objective value is never below the MVJS objective value
        /// on the same instance (the system-level claim of Figure 6).
        #[test]
        fn optjs_dominates_mvjs(pool in pool_strategy(), budget in 0.2f64..2.0) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let optjs = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let mvjs = MvjsSolver::new().solve(&instance);
            prop_assert!(optjs.objective_value >= mvjs.objective_value - 1e-9,
                "OPTJS {} below MVJS {}", optjs.objective_value, mvjs.objective_value);
        }

        /// An unbudgeted portfolio race returns exactly the jury its best
        /// member would have returned standalone (value ties keep the
        /// earlier member in race order) — the lanes replay each member's
        /// restart sequence bit-identically, so this is an equality, not a
        /// bound.
        #[test]
        fn portfolio_returns_exactly_the_best_member(
            pool in pool_strategy(),
            budget in 0.0f64..3.0,
        ) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let raced = PortfolioSolver::new(BvObjective::new()).solve(&instance);
            let mut best: Option<SolverResult> = None;
            for member in PortfolioMember::default_lineup() {
                let result: SolverResult = match member {
                    PortfolioMember::Tabu =>
                        TabuSolver::new(BvObjective::new()).solve(&instance),
                    PortfolioMember::Restart =>
                        RestartSolver::new(BvObjective::new()).solve(&instance),
                    PortfolioMember::Annealing =>
                        AnnealingSolver::new(BvObjective::new()).solve(&instance),
                };
                let better = best
                    .as_ref()
                    .is_none_or(|b| result.objective_value > b.objective_value);
                if better {
                    best = Some(result);
                }
            }
            let best = best.expect("three members");
            prop_assert_eq!(raced.jury.ids(), best.jury.ids());
            prop_assert!((raced.objective_value - best.objective_value).abs() < 1e-15);
            prop_assert!(!raced.truncated);
        }

        /// A truncated portfolio race still returns a feasible jury no
        /// worse than the greedy floor, at any evaluation cap.
        #[test]
        fn truncated_portfolio_respects_the_greedy_floor(
            pool in pool_strategy(),
            budget in 0.2f64..3.0,
            cap in 1u64..40,
        ) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let raced = PortfolioSolver::new(BvObjective::new())
                .with_budget(SearchBudget::unlimited().with_max_evaluations(cap))
                .solve(&instance);
            prop_assert!(instance.is_feasible(&raced.jury));
            let floor = GreedyQualitySolver::new(BvObjective::new())
                .solve(&instance)
                .objective_value
                .max(
                    GreedyRatioSolver::new(BvObjective::new())
                        .solve(&instance)
                        .objective_value,
                );
            prop_assert!(raced.objective_value >= floor - 1e-9,
                "cap {}: {} below greedy floor {}", cap, raced.objective_value, floor);
        }

        /// Tabu and restart searches are deterministic under a fixed seed:
        /// solving the same instance twice returns the same jury.
        #[test]
        fn tabu_and_restart_are_seed_deterministic(
            pool in pool_strategy(),
            budget in 0.2f64..3.0,
            seed in 0u64..u64::MAX,
        ) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let tabu_config = TabuConfig::default().with_seed(seed);
            let a = TabuSolver::with_config(BvObjective::new(), tabu_config).solve(&instance);
            let b = TabuSolver::with_config(BvObjective::new(), tabu_config).solve(&instance);
            prop_assert_eq!(a.jury.ids(), b.jury.ids());
            prop_assert!((a.objective_value - b.objective_value).abs() < 1e-15);

            let restart_config = RestartConfig::default().with_seed(seed);
            let a = RestartSolver::with_config(BvObjective::new(), restart_config)
                .solve(&instance);
            let b = RestartSolver::with_config(BvObjective::new(), restart_config)
                .solve(&instance);
            prop_assert_eq!(a.jury.ids(), b.jury.ids());
            prop_assert!((a.objective_value - b.objective_value).abs() < 1e-15);
        }

        /// Threaded solves are invariant in the thread count: at 1, 2, and
        /// 8 lanes an unbudgeted parallel portfolio returns the exact jury
        /// of the sequential race (so its JQ equals some member's
        /// standalone sequential result to 1e-9 and never drops below the
        /// greedy floor), and the parallel restart fan-out and parallel
        /// greedy probe rounds return exactly their sequential juries.
        #[test]
        fn parallel_solves_are_thread_count_invariant(
            pool in pool_strategy(),
            budget in 0.2f64..3.0,
        ) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let sequential_race = PortfolioSolver::new(BvObjective::new()).solve(&instance);
            let sequential_restart = RestartSolver::new(BvObjective::new()).solve(&instance);
            let sequential_greedy =
                GreedyMarginalSolver::new(BvObjective::new()).solve(&instance);
            let member_values: Vec<f64> = PortfolioMember::default_lineup()
                .into_iter()
                .map(|member| match member {
                    PortfolioMember::Tabu =>
                        TabuSolver::new(BvObjective::new()).solve(&instance),
                    PortfolioMember::Restart =>
                        RestartSolver::new(BvObjective::new()).solve(&instance),
                    PortfolioMember::Annealing =>
                        AnnealingSolver::new(BvObjective::new()).solve(&instance),
                }.objective_value)
                .collect();
            let floor = GreedyQualitySolver::new(BvObjective::new())
                .solve(&instance)
                .objective_value
                .max(
                    GreedyRatioSolver::new(BvObjective::new())
                        .solve(&instance)
                        .objective_value,
                );

            for threads in [1usize, 2, 8] {
                let policy = ParallelPolicy::Threads(threads);
                let raced = PortfolioSolver::new(BvObjective::new())
                    .with_config(PortfolioConfig::default().with_parallel(policy))
                    .solve(&instance);
                prop_assert_eq!(raced.jury.ids(), sequential_race.jury.ids(),
                    "threads {} changed the raced jury", threads);
                prop_assert!(
                    member_values
                        .iter()
                        .any(|&v| (raced.objective_value - v).abs() < 1e-9),
                    "threads {}: raced JQ {} matches no member's sequential JQ",
                    threads, raced.objective_value);
                prop_assert!(raced.objective_value >= floor - 1e-9,
                    "threads {}: raced JQ {} below greedy floor {}",
                    threads, raced.objective_value, floor);

                let restarted = RestartSolver::with_config(
                    BvObjective::new(),
                    RestartConfig::default().with_parallel(policy),
                )
                .solve(&instance);
                prop_assert_eq!(restarted.jury.ids(), sequential_restart.jury.ids());
                prop_assert!(
                    (restarted.objective_value - sequential_restart.objective_value).abs()
                        < 1e-15);

                let greedy = GreedyMarginalSolver::new(BvObjective::new())
                    .with_parallelism(policy)
                    .solve(&instance);
                prop_assert_eq!(greedy.jury.ids(), sequential_greedy.jury.ids());
                prop_assert!(
                    (greedy.objective_value - sequential_greedy.objective_value).abs()
                        < 1e-15);
            }
        }

        /// With uniform costs the top-k workers by quality are optimal
        /// (Lemmas 1–2): the quality-greedy jury matches the exhaustive
        /// optimum.
        #[test]
        fn special_cases_are_optimal(
            qualities in proptest::collection::vec(0.5f64..0.95, 1..8),
            cost in 0.05f64..0.5,
            budget in 0.0f64..3.0,
        ) {
            let costs = vec![cost; qualities.len()];
            let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let greedy = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            prop_assert!((greedy.objective_value - optimal.objective_value).abs() < 1e-9);
        }
    }
}
