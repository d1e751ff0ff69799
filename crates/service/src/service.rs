//! The service itself: validated, fallible, batch-first jury selection.
//!
//! Binary and multi-class requests travel through **one** pipeline: a
//! single request body (`serve_one`), a single batch body (`serve_batch`),
//! and a single budget–quality sweep (`budget_table`).
//! What differs between the two kinds — prior validation, the cache-backed
//! objective, the pool the solvers search, the response shape — lives in
//! one `SelectKind` impl per kind; the shared bodies never branch on the
//! kind they serve.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use jury_jq::MultiClassIncrementalConfig;
use jury_model::{CategoricalPrior, MatrixPool, Prior, WorkerPool};
use jury_selection::{
    AnnealingSolver, BudgetQualityRow, BudgetQualityTable, ExhaustiveSolver, GreedyMarginalSolver,
    GreedyQualitySolver, GreedyRatioSolver, JspInstance, JuryObjective, JurySolver, MvjsSolver,
    ParallelPolicy, PortfolioConfig, PortfolioSolver, SearchBudget, SolverResult,
    MAX_EXHAUSTIVE_POOL,
};

use crate::cache::{CacheStats, CachedMultiClassObjective, CachedObjective, JqCache};
use crate::config::{ServiceConfig, SweepPolicy};
use crate::error::ServiceError;
use crate::lanes::run_lanes;
use crate::request::{
    MixedRequest, MultiClassSelectionRequest, RequestOptions, SelectionRequest, SolverPolicy,
    Strategy,
};
use crate::response::{MixedResponse, MultiClassSelectionResponse, SelectionResponse};

/// Renders a caught panic payload for [`ServiceError::Internal`].
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        format!("a solver thread panicked: {message}")
    } else if let Some(message) = payload.downcast_ref::<String>() {
        format!("a solver thread panicked: {message}")
    } else {
        "a solver thread panicked".to_string()
    }
}

/// The jury-selection service: owns the configuration and the shared JQ
/// cache, and serves [`SelectionRequest`]s one at a time or in parallel
/// batches. All request handling is fallible — invalid input comes back as a
/// [`ServiceError`], never as a panic.
///
/// ```
/// use jury_model::paper_example_pool;
/// use jury_service::{JuryService, SelectionRequest};
///
/// let service = JuryService::paper_experiments();
/// let response = service
///     .select(&SelectionRequest::new(paper_example_pool(), 15.0))
///     .unwrap();
/// assert!((response.quality - 0.845).abs() < 1e-9); // the {B, C, G} jury
/// assert!((response.cost - 14.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct JuryService {
    config: ServiceConfig,
    cache: JqCache,
}

impl Default for JuryService {
    fn default() -> Self {
        JuryService::new(ServiceConfig::default())
    }
}

impl JuryService {
    /// Creates a service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        JuryService {
            cache: JqCache::new(config.cache_capacity),
            config,
        }
    }

    /// Creates a service with the paper's experimental configuration.
    pub fn paper_experiments() -> Self {
        JuryService::new(ServiceConfig::paper_experiments())
    }

    /// The service configuration (requests can override it individually).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Counters of the shared JQ-evaluation cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared JQ cache, for the crate's other endpoint modules (the
    /// repair loop scores fresh juries through the same store).
    pub(crate) fn jq_cache(&self) -> &JqCache {
        &self.cache
    }

    /// Serves one selection request.
    ///
    /// The request is validated first — a bad budget, prior, or pool comes
    /// back as a [`ServiceError`] value, never a panic. Valid requests are
    /// dispatched to the solver chosen by the request's
    /// [`SolverPolicy`]; every JQ evaluation goes
    /// through this service's shared signature-keyed cache, and the
    /// neighbourhood searches additionally run on the incremental JQ engine
    /// (`jury_jq::IncrementalJq`), paying `O(buckets)` per candidate jury.
    ///
    /// ```
    /// use jury_model::{paper_example_pool, Prior};
    /// use jury_service::{JuryService, SelectionRequest, ServiceError};
    ///
    /// let service = JuryService::paper_experiments();
    ///
    /// // Budget 15 on the paper's pool selects {B, C, G} at 84.5 %.
    /// let request = SelectionRequest::new(paper_example_pool(), 15.0)
    ///     .with_prior(Prior::uniform());
    /// let response = service.select(&request)?;
    /// assert_eq!(response.jury.size(), 3);
    /// assert!((response.quality - 0.845).abs() < 1e-9);
    ///
    /// // Failures are typed values.
    /// let err = service
    ///     .select(&SelectionRequest::new(paper_example_pool(), f64::NAN))
    ///     .unwrap_err();
    /// assert!(matches!(err, ServiceError::InvalidBudget { .. }));
    /// # Ok::<(), ServiceError>(())
    /// ```
    pub fn select(&self, request: &SelectionRequest) -> Result<SelectionResponse, ServiceError> {
        self.serve_one(request, false)
    }

    /// The one request body behind [`Self::select`],
    /// [`Self::select_multiclass`], and every batch slot:
    /// [`Self::serve_anytime`], with a search its budget cut short reported
    /// as `DeadlineExceeded` carrying the anytime best-so-far.
    fn serve_one<R: SelectKind>(
        &self,
        request: &R,
        sequential_solver: bool,
    ) -> Result<R::Response, ServiceError> {
        match self.serve_anytime(request, sequential_solver)? {
            (response, false) => Ok(response),
            (response, true) => Err(ServiceError::DeadlineExceeded {
                best_so_far: Some(Box::new(R::into_mixed(response))),
            }),
        }
    }

    /// Serves one request of either kind, flagging whether its search
    /// budget cut the search short: resolve the configuration, validate
    /// (the kind's prior checks, then the shared budget checks), build the
    /// kind's cache-backed objective, and dispatch the solver under the
    /// request's search budget. Cold table rows call this directly, so a
    /// truncated row keeps its jury.
    ///
    /// `sequential_solver` applies the batch-over-solver thread priority:
    /// when the surrounding batch has already fanned its slots out across
    /// worker threads, this request's solve runs on one lane instead of
    /// oversubscribing the same cores.
    fn serve_anytime<R: SelectKind>(
        &self,
        request: &R,
        sequential_solver: bool,
    ) -> Result<(R::Response, bool), ServiceError> {
        let started = Instant::now();
        let options = request.options();
        let mut config = options.config.unwrap_or(self.config);
        if sequential_solver {
            config.solver_threads = 1;
        }

        let prior = request.validate()?;
        let budget = options.budget;
        if !budget.is_finite() || budget < 0.0 || (budget == 0.0 && !options.allow_empty) {
            return Err(ServiceError::InvalidBudget { value: budget });
        }
        let cheapest = request
            .costs()
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(cheapest) = cheapest {
            if cheapest > budget && !options.allow_empty {
                return Err(ServiceError::BudgetBelowCheapestWorker { budget, cheapest });
            }
        }

        let (pool, instance_prior, objective) = request.setup(prior, &config, &self.cache)?;
        let instance = JspInstance::new(pool, budget, instance_prior)?;
        let search_budget = Self::effective_budget(started, options, &config);
        let result = self.dispatch_solver(
            &instance,
            &objective,
            options.policy.clone(),
            request.mv_baseline(),
            &config,
            search_budget,
        )?;

        let truncated = result.truncated;
        let response = request.respond(result, &objective, started.elapsed());
        Ok((response, truncated))
    }

    /// The [`SearchBudget`] a request's deadline knobs induce, anchored at
    /// the request's own serve start — so mid-batch peers each count their
    /// deadline from the moment their own search began, not from batch
    /// submission.
    fn request_budget(
        started: Instant,
        deadline: Option<Duration>,
        max_evaluations: Option<u64>,
    ) -> SearchBudget {
        let mut budget = SearchBudget::unlimited();
        if let Some(deadline) = deadline {
            // A deadline too far out to represent is no deadline at all.
            if let Some(at) = started.checked_add(deadline) {
                budget = budget.with_deadline_at(at);
            }
        }
        if let Some(max) = max_evaluations {
            budget = budget.with_max_evaluations(max);
        }
        budget
    }

    /// The budget a request actually runs under: its own deadline knobs
    /// intersected **tightest-wins** with the service-wide defaults
    /// ([`ServiceConfig::default_deadline`],
    /// [`ServiceConfig::default_max_evaluations`]) — whichever side names
    /// the earlier deadline or the smaller evaluation cap governs, and a
    /// limit present on only one side still applies.
    fn effective_budget(
        started: Instant,
        options: &RequestOptions,
        config: &ServiceConfig,
    ) -> SearchBudget {
        let own = Self::request_budget(started, options.deadline, options.max_evaluations);
        own.intersect(Self::request_budget(
            started,
            config.default_deadline,
            config.default_max_evaluations,
        ))
    }

    /// The one [`SolverPolicy`] dispatch behind both the binary and the
    /// multi-class request paths, generic over the (cache-backed)
    /// objective. `mv_baseline` routes large `Auto` pools through the
    /// [`MvjsSolver`] instead of plain annealing — the binary MV strategy's
    /// historical behaviour; multi-class selection never sets it.
    ///
    /// `search_budget` is polled at the cooperative checkpoints of the
    /// annealing and marginal-greedy searches; an exhausted budget comes
    /// back as `truncated: true` on the result, carrying the best feasible
    /// jury found so far. The exact and MVJS paths are not budgeted. `Auto`
    /// and `Portfolio` enumerate only pools within the exact cutoff, but
    /// `Exact` enumerates any pool up to [`MAX_EXHAUSTIVE_POOL`] (2^22
    /// subsets) to completion, whatever the deadline; the MVJS baseline's
    /// candidate scan is a single `O(n log n)` pass.
    pub(crate) fn dispatch_solver<O: JuryObjective>(
        &self,
        instance: &JspInstance,
        objective: &O,
        policy: SolverPolicy,
        mv_baseline: bool,
        config: &ServiceConfig,
        search_budget: SearchBudget,
    ) -> Result<SolverResult, ServiceError> {
        let small_pool = instance.num_candidates() <= config.exact_cutoff.min(MAX_EXHAUSTIVE_POOL);
        let result = match policy {
            SolverPolicy::Exact => ExhaustiveSolver::new(objective).try_solve(instance)?,
            SolverPolicy::Auto if small_pool => {
                ExhaustiveSolver::new(objective).try_solve(instance)?
            }
            SolverPolicy::Auto if mv_baseline => {
                MvjsSolver::with_annealing_config(config.annealing)
                    .solve_with_objective(instance, objective)
            }
            SolverPolicy::Auto | SolverPolicy::Annealing => {
                AnnealingSolver::with_config(objective, config.annealing)
                    .with_budget(search_budget)
                    .solve(instance)
            }
            // Small pools keep the provably-optimal enumeration, exactly
            // like `Auto`; the race only engages where the exact solver
            // cannot go.
            SolverPolicy::Portfolio(_) if small_pool => {
                ExhaustiveSolver::new(objective).try_solve(instance)?
            }
            SolverPolicy::Portfolio(members) => {
                let portfolio = PortfolioConfig::default()
                    .with_annealing(config.annealing)
                    .with_tabu(config.tabu)
                    .with_restart(config.restart)
                    .with_parallel(config.solver_parallelism());
                PortfolioSolver::with_members(objective, members)
                    .with_config(portfolio)
                    .with_budget(search_budget)
                    .solve(instance)
            }
            SolverPolicy::Greedy => {
                // Three greedy flavours, best-of: the two cheap orderings
                // plus the objective-driven marginal greedy, which probes
                // pool-many extensions per round through the incremental
                // session. Ties keep the earlier (cheaper) candidate. Only
                // the marginal search has checkpoints; if the budget cut it
                // short the whole best-of is reported truncated, whichever
                // flavour won.
                let mut best = GreedyQualitySolver::new(objective).solve(instance);
                let ratio = GreedyRatioSolver::new(objective).solve(instance);
                if ratio.objective_value > best.objective_value {
                    best = ratio;
                }
                let marginal = GreedyMarginalSolver::new(objective)
                    .with_budget(search_budget)
                    .with_parallelism(config.solver_parallelism())
                    .solve(instance);
                let truncated = marginal.truncated;
                if marginal.objective_value > best.objective_value {
                    best = marginal;
                }
                best.truncated = truncated;
                best
            }
        };
        Ok(result)
    }

    /// Serves one **multi-class** (confusion-matrix) selection request —
    /// the Section 7 serving path.
    ///
    /// The request runs through the same pipeline as [`Self::select`]: a
    /// bad budget or prior vector comes back as a [`ServiceError`] value,
    /// never a panic (an *empty* pool cannot even be constructed —
    /// [`MatrixPool::new`] rejects it at the model layer). The candidate
    /// set then travels through the same [`SolverPolicy`] dispatch as
    /// binary requests — exhaustive enumeration over the pool's
    /// mean-accuracy **shadow projection**, simulated annealing, or
    /// marginal greedy — while every jury is scored on its full confusion
    /// matrices: exactly for small voting spaces, through the Section 7
    /// tuple-key bucket DP otherwise, and via
    /// `jury_jq::IncrementalMultiClassJq` sessions inside the search loops
    /// once the pool is past the measured scratch/incremental crossover
    /// ([`ServiceConfig::multiclass_session_cutoff`]). Batch evaluations
    /// memoize into this service's shared JQ store under quantized
    /// confusion-matrix signatures (`jury_jq::multiclass_signature`), so
    /// binary and multi-class traffic share one cache.
    ///
    /// A pool that *requires* sessions but whose coarsest possible grid
    /// would overflow the configured dense-box cell budget is refused with
    /// [`ServiceError::MultiClassStateTooLarge`] instead of silently
    /// falling back to the exponential scratch DP.
    ///
    /// ```
    /// use jury_model::MatrixPool;
    /// use jury_service::{JuryService, MultiClassSelectionRequest, ServiceError};
    ///
    /// let pool = MatrixPool::from_qualities_and_costs(
    ///     &[0.9, 0.75, 0.7, 0.65, 0.6],
    ///     &[3.0, 2.0, 1.0, 1.0, 1.0],
    ///     3,
    /// )
    /// .unwrap();
    /// let service = JuryService::paper_experiments();
    /// let response = service
    ///     .select_multiclass(&MultiClassSelectionRequest::new(pool.clone(), 5.0))
    ///     .unwrap();
    /// assert!(response.cost <= 5.0 + 1e-9);
    /// assert_eq!(response.matrix_jury().unwrap().num_choices(), 3);
    ///
    /// // Failures are typed values.
    /// let err = service
    ///     .select_multiclass(&MultiClassSelectionRequest::new(pool, f64::NAN))
    ///     .unwrap_err();
    /// assert!(matches!(err, ServiceError::InvalidBudget { .. }));
    /// ```
    pub fn select_multiclass(
        &self,
        request: &MultiClassSelectionRequest,
    ) -> Result<MultiClassSelectionResponse, ServiceError> {
        self.serve_one(request, false)
    }

    /// The shared thread-parallel batch engine behind [`Self::select_batch`]
    /// and its multi-class and mixed siblings: dynamic scheduling, where
    /// the lanes pull the next unclaimed item from a shared counter, so a
    /// few expensive requests cannot serialize the batch behind one lane
    /// the way static chunking would. One lane serves the batch on the
    /// calling thread, in order.
    ///
    /// Every serve call runs under `catch_unwind`: a panicking solver fills
    /// its own slot with [`ServiceError::Internal`] instead of unwinding
    /// the batch, and the shared store stays usable (its `parking_lot`
    /// locks do not poison).
    pub(crate) fn run_batch<T, R, F>(&self, items: &[T], serve: F) -> Vec<Result<R, ServiceError>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Result<R, ServiceError> + Sync,
    {
        let caught = |item: &T| -> Result<R, ServiceError> {
            std::panic::catch_unwind(AssertUnwindSafe(|| serve(item))).unwrap_or_else(|payload| {
                Err(ServiceError::Internal {
                    reason: panic_reason(payload),
                })
            })
        };
        // Each lane pulls the next unclaimed index until the batch runs
        // dry, and returns the `(index, result)` pairs it served.
        let next = AtomicUsize::new(0);
        let lane_results = run_lanes(self.batch_threads(items.len()), |_| {
            let mut served = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    return served;
                };
                served.push((index, caught(item)));
            }
        });
        let mut slots: Vec<(usize, Result<R, ServiceError>)> =
            lane_results.into_iter().flatten().collect();
        slots.sort_unstable_by_key(|&(index, _)| index);
        slots.into_iter().map(|(_, result)| result).collect()
    }

    /// The one batch body behind every batch entry point, whatever the
    /// slots' kind.
    fn serve_batch<R: Serve>(&self, requests: &[R]) -> Vec<Result<R::Response, ServiceError>> {
        // Batch wins the cores: once the batch itself fans out across
        // worker threads, each slot's solver runs on one lane rather than
        // oversubscribing (see `ServiceConfig::solver_threads`).
        let sequential_solver = self.batch_threads(requests.len()) > 1;
        self.run_batch(requests, |request| request.serve(self, sequential_solver))
    }

    /// Serves a batch of requests, data-parallel across worker threads, all
    /// sharing this service's JQ-evaluation cache.
    ///
    /// Failures are per-request: one invalid request yields an `Err` in its
    /// slot without disturbing the others. The result order matches the
    /// request order.
    pub fn select_batch(
        &self,
        requests: &[SelectionRequest],
    ) -> Vec<Result<SelectionResponse, ServiceError>> {
        self.serve_batch(requests)
    }

    /// Serves a batch of multi-class requests through the same
    /// thread-parallel machinery (and the same shared cache) as
    /// [`Self::select_batch`]; per-request failure semantics and result
    /// ordering are identical.
    pub fn select_multiclass_batch(
        &self,
        requests: &[MultiClassSelectionRequest],
    ) -> Vec<Result<MultiClassSelectionResponse, ServiceError>> {
        self.serve_batch(requests)
    }

    /// Serves a **mixed** batch — binary and multi-class requests side by
    /// side — through the one thread-parallel engine. Both kinds memoize
    /// into the one shared JQ store (their signature key spaces are
    /// disjoint), so overlapping work across kinds is paid once per batch;
    /// [`Self::cache_stats`] reports the per-kind hit accounting.
    ///
    /// ```
    /// use jury_model::{paper_example_pool, MatrixPool};
    /// use jury_service::{JuryService, MixedRequest, MultiClassSelectionRequest, SelectionRequest};
    ///
    /// let service = JuryService::paper_experiments();
    /// let matrix_pool =
    ///     MatrixPool::from_qualities_and_costs(&[0.9, 0.7, 0.6], &[2.0, 1.0, 1.0], 3).unwrap();
    /// let batch: Vec<MixedRequest> = vec![
    ///     SelectionRequest::new(paper_example_pool(), 15.0).into(),
    ///     MultiClassSelectionRequest::new(matrix_pool, 3.0).into(),
    /// ];
    /// let responses = service.select_mixed_batch(&batch);
    /// assert!(responses[0].as_ref().unwrap().as_binary().is_some());
    /// assert!(responses[1].as_ref().unwrap().as_multi_class().is_some());
    /// ```
    pub fn select_mixed_batch(
        &self,
        requests: &[MixedRequest],
    ) -> Vec<Result<MixedResponse, ServiceError>> {
        self.serve_batch(requests)
    }

    fn batch_threads(&self, batch_len: usize) -> usize {
        // Batch fan-out resolves its thread count through the same policy
        // as the intra-solve lanes (`0` = one per core, clamped to the
        // work), so `ServiceConfig::with_worker_threads` means the same
        // thing at both levels.
        ParallelPolicy::Threads(self.config.batch_threads).lanes(batch_len)
    }

    /// Builds the Figure-1 style budget–quality table.
    ///
    /// Pools within the exact cutoff are served one selection per budget
    /// through the batch engine (parallel, cached, BV strategy, `Auto`
    /// policy), so small tables stay exhaustively optimal. Larger pools —
    /// where every budget would otherwise pay a full heuristic search — are
    /// served according to the configured [`SweepPolicy`]:
    ///
    /// * [`SweepPolicy::WarmMarginal`] (default) — one marginal-gain search
    ///   state and one incremental JQ session carried from each budget to
    ///   the next ([`jury_selection::BudgetQualityTable::build_warm`]),
    ///   pushing only the marginal workers instead of re-solving cold;
    /// * [`SweepPolicy::WarmAnnealing`] — each budget's annealing run
    ///   seeded with the previous budget's jury
    ///   ([`jury_selection::BudgetQualityTable::build_warm_annealing`]),
    ///   for quality-critical sweeps on heterogeneous costs;
    /// * [`SweepPolicy::Cold`] — one full solve per budget through the
    ///   batch engine.
    ///
    /// Every warm row is re-scored through this service's cached batch
    /// objective. Budgets below the cheapest worker yield empty-jury rows,
    /// matching the table's exploratory semantics.
    pub fn budget_quality_table(
        &self,
        pool: &WorkerPool,
        budgets: &[f64],
        prior: Prior,
    ) -> Result<BudgetQualityTable, ServiceError> {
        let template = SelectionRequest::new(pool.clone(), 0.0).with_prior(prior);
        self.budget_table(template, budgets, SearchBudget::unlimited())
            .map(|(table, _)| table)
    }

    /// [`Self::budget_quality_table`] under one shared wall-clock deadline
    /// for the whole sweep. Returns the table plus a flag reporting whether
    /// the deadline cut the search short — anytime semantics: a truncated
    /// table's rows are still feasible, budget-respecting juries, they just
    /// may trail what an uncut sweep would have found. The deadline is
    /// polled at the warm sweeps' cooperative checkpoints; on the
    /// small-pool batch path the exhaustive per-budget solves are bounded
    /// by the exact cutoff and run to completion.
    pub fn budget_quality_table_with_deadline(
        &self,
        pool: &WorkerPool,
        budgets: &[f64],
        prior: Prior,
        deadline: Duration,
    ) -> Result<(BudgetQualityTable, bool), ServiceError> {
        let template = SelectionRequest::new(pool.clone(), 0.0).with_prior(prior);
        self.budget_table(
            template,
            budgets,
            SearchBudget::unlimited().with_deadline_in(deadline),
        )
    }

    /// Builds the budget–quality table for a **multi-class**
    /// (confusion-matrix) pool — the same sweep-policy routing as
    /// [`Self::budget_quality_table`], with every row scored as
    /// `JQ(J, BV, ~α)` on the full matrices through this service's shared
    /// cache.
    ///
    /// Large pools ride the warm sweeps on the pool's shadow projection
    /// (the solvers move `(id, cost)` candidates; the cached multi-class
    /// objective looks the matrices back up by id), carrying one search
    /// state — and one `IncrementalMultiClassJq` session, past the
    /// crossover cutoff — across ascending budgets. Small pools are solved
    /// per budget through the batch engine, exhaustively within the exact
    /// cutoff.
    pub fn multiclass_budget_quality_table(
        &self,
        pool: &MatrixPool,
        budgets: &[f64],
        prior: &CategoricalPrior,
    ) -> Result<BudgetQualityTable, ServiceError> {
        let template = MultiClassSelectionRequest::new(pool.clone(), 0.0).with_prior(prior.clone());
        self.budget_table(template, budgets, SearchBudget::unlimited())
            .map(|(table, _)| table)
    }

    /// [`Self::multiclass_budget_quality_table`] under one shared
    /// wall-clock deadline — the multi-class sibling of
    /// [`Self::budget_quality_table_with_deadline`], with the same anytime
    /// semantics for the returned truncation flag.
    pub fn multiclass_budget_quality_table_with_deadline(
        &self,
        pool: &MatrixPool,
        budgets: &[f64],
        prior: &CategoricalPrior,
        deadline: Duration,
    ) -> Result<(BudgetQualityTable, bool), ServiceError> {
        let template = MultiClassSelectionRequest::new(pool.clone(), 0.0).with_prior(prior.clone());
        self.budget_table(
            template,
            budgets,
            SearchBudget::unlimited().with_deadline_in(deadline),
        )
    }

    /// The one budget–quality sweep behind both kinds' table entry points.
    /// `template` carries the pool and the prior; each cold row is the
    /// template at that row's budget.
    fn budget_table<R: SelectKind>(
        &self,
        mut template: R,
        budgets: &[f64],
        search_budget: SearchBudget,
    ) -> Result<(BudgetQualityTable, bool), ServiceError> {
        let beyond_exact =
            template.costs().count() > self.config.exact_cutoff.min(MAX_EXHAUSTIVE_POOL);
        if beyond_exact && self.config.sweep != SweepPolicy::Cold {
            // The warm sweep builders assert on bad budgets (their
            // per-budget instances would); checking them up front keeps the
            // table entry points' no-panic contract.
            if let Some(&value) = budgets.iter().find(|b| !b.is_finite() || **b < 0.0) {
                return Err(ServiceError::InvalidBudget { value });
            }
            let prior = template.validate()?;
            let (pool, prior, objective) = template.setup(prior, &self.config, &self.cache)?;
            return Ok(match self.config.sweep {
                SweepPolicy::WarmMarginal => BudgetQualityTable::build_warm_budgeted(
                    &pool,
                    budgets,
                    prior,
                    &objective,
                    search_budget,
                ),
                SweepPolicy::WarmAnnealing => BudgetQualityTable::build_warm_annealing_budgeted(
                    &pool,
                    budgets,
                    prior,
                    &objective,
                    self.config.annealing,
                    search_budget,
                ),
                SweepPolicy::Cold => unreachable!("cold sweeps take the batch path"),
            });
        }
        // Batch path: per-budget requests, straight to the batch engine.
        // Without a deadline they are served thread-parallel. Under a sweep
        // deadline the rows are served sequentially instead, each granted
        // an equal share of the time *still remaining* — recomputed after
        // every completed row, so time a fast row leaves unspent is
        // reclaimed by the rows behind it and the whole sweep is bounded by
        // the one deadline (handing every row the full remainder up front
        // would let the sweep run for rows × deadline). Rows that exhaust
        // their share keep their anytime jury and flip the truncation flag
        // instead of erroring.
        let options = template.options_mut();
        options.allow_empty = true;
        options.max_evaluations = search_budget.max_evaluations();
        let row_request = |budget: f64| {
            let mut request = template.clone();
            request.options_mut().budget = budget;
            request
        };
        let results: Vec<Result<(R::Response, bool), ServiceError>> = match search_budget.deadline()
        {
            Some(at) => budgets
                .iter()
                .enumerate()
                .map(|(row, &budget)| {
                    let rows_left = (budgets.len() - row) as u32;
                    let mut request = row_request(budget);
                    request.options_mut().deadline =
                        Some(at.saturating_duration_since(Instant::now()) / rows_left);
                    self.serve_anytime(&request, false)
                })
                .collect(),
            None => {
                let requests: Vec<R> = budgets.iter().map(|&budget| row_request(budget)).collect();
                let sequential_solver = self.batch_threads(requests.len()) > 1;
                self.run_batch(&requests, |request| {
                    self.serve_anytime(request, sequential_solver)
                })
            }
        };
        let mut truncated = false;
        let rows = results
            .into_iter()
            .zip(budgets)
            .map(|(result, &budget)| {
                let (response, cut) = result?;
                truncated |= cut;
                Ok(R::table_row(response, budget))
            })
            .collect::<Result<Vec<_>, ServiceError>>()?;
        Ok((BudgetQualityTable::from_rows(rows), truncated))
    }
}

/// The kind-specific half of the one serving pipeline
/// ([`JuryService::serve_anytime`], [`JuryService::budget_table`]): how a
/// request kind validates its prior, builds its cache-backed objective and
/// the candidate pool the solvers search, and shapes its response. Static
/// dispatch throughout — the objective is a concrete type per kind, so the
/// per-evaluation path stays monomorphized.
trait SelectKind: Clone + Sync {
    /// The validated prior.
    type Prior;
    /// The cache-backed objective, borrowing the service's JQ store.
    type Objective<'c>: JuryObjective;
    /// What a served request returns.
    type Response: Send;

    /// The knobs every request kind shares.
    fn options(&self) -> &RequestOptions;
    fn options_mut(&mut self) -> &mut RequestOptions;

    /// The candidates' costs (one per pool member).
    fn costs(&self) -> impl Iterator<Item = f64> + '_;

    /// The kind's checks that precede the shared budget checks, yielding
    /// the validated prior.
    fn validate(&self) -> Result<Self::Prior, ServiceError>;

    /// The objective, plus the pool and binary prior the solvers search.
    fn setup<'c>(
        &self,
        prior: Self::Prior,
        config: &ServiceConfig,
        cache: &'c JqCache,
    ) -> Result<(WorkerPool, Prior, Self::Objective<'c>), ServiceError>;

    /// Whether large `Auto` pools route through the MVJS baseline.
    fn mv_baseline(&self) -> bool {
        false
    }

    /// The response for a solver result scored by `objective`.
    fn respond(
        &self,
        result: SolverResult,
        objective: &Self::Objective<'_>,
        elapsed: Duration,
    ) -> Self::Response;

    /// Wraps a response as the `best_so_far` of a `DeadlineExceeded`.
    fn into_mixed(response: Self::Response) -> MixedResponse;

    /// The budget–quality table row a response fills.
    fn table_row(response: Self::Response, budget: f64) -> BudgetQualityRow;
}

impl SelectKind for SelectionRequest {
    type Prior = Prior;
    type Objective<'c> = CachedObjective<'c>;
    type Response = SelectionResponse;

    fn options(&self) -> &RequestOptions {
        &self.options
    }

    fn options_mut(&mut self) -> &mut RequestOptions {
        &mut self.options
    }

    fn costs(&self) -> impl Iterator<Item = f64> + '_ {
        self.pool().iter().map(|w| w.cost())
    }

    fn validate(&self) -> Result<Prior, ServiceError> {
        let prior = Prior::new(self.prior_alpha()).map_err(|_| ServiceError::InvalidPrior {
            value: self.prior_alpha(),
        })?;
        // An empty pool — like an unaffordable one — only admits the empty
        // jury, so it is an error exactly when empty selections are not
        // allowed (the paper's figure pipelines allow them, e.g. dataset
        // replays over tasks nobody answered).
        if self.pool().is_empty() && !self.empty_selection_allowed() {
            return Err(ServiceError::EmptyPool);
        }
        Ok(prior)
    }

    fn setup<'c>(
        &self,
        prior: Prior,
        config: &ServiceConfig,
        cache: &'c JqCache,
    ) -> Result<(WorkerPool, Prior, CachedObjective<'c>), ServiceError> {
        let objective = CachedObjective::new(config.jq_engine(), self.strategy(), cache);
        Ok((self.pool().clone(), prior, objective))
    }

    fn mv_baseline(&self) -> bool {
        // The MV baseline keeps its odd-size top-quality candidates on
        // large `Auto` pools, exactly like the historical Mvjs system.
        self.strategy() == Strategy::Mv
    }

    fn respond(
        &self,
        result: SolverResult,
        objective: &CachedObjective<'_>,
        elapsed: Duration,
    ) -> SelectionResponse {
        SelectionResponse {
            quality: result.objective_value,
            cost: result.jury.cost(),
            jury: result.jury,
            strategy: self.strategy(),
            policy: self.policy(),
            solver: result.solver,
            evaluations: objective.evaluations(),
            cache_hits: objective.local_hits(),
            elapsed,
        }
    }

    fn into_mixed(response: SelectionResponse) -> MixedResponse {
        MixedResponse::Binary(response)
    }

    fn table_row(response: SelectionResponse, budget: f64) -> BudgetQualityRow {
        BudgetQualityRow {
            budget,
            jury: response.worker_ids(),
            quality: response.quality,
            required_budget: response.cost,
        }
    }
}

impl SelectKind for MultiClassSelectionRequest {
    type Prior = CategoricalPrior;
    type Objective<'c> = CachedMultiClassObjective<'c>;
    type Response = MultiClassSelectionResponse;

    fn options(&self) -> &RequestOptions {
        &self.options
    }

    fn options_mut(&mut self) -> &mut RequestOptions {
        &mut self.options
    }

    fn costs(&self) -> impl Iterator<Item = f64> + '_ {
        self.pool().iter().map(|w| w.cost())
    }

    fn validate(&self) -> Result<CategoricalPrior, ServiceError> {
        // A prior whose label count disagrees with the pool's is rejected
        // by the objective constructor in `setup` and surfaces as
        // `ServiceError::InvalidPriorVector` through the `ModelError`
        // conversion — no duplicate arity check here.
        Ok(match self.prior_probs() {
            Some(probs) => CategoricalPrior::new(probs.to_vec())?,
            None => CategoricalPrior::uniform(self.pool().num_choices())?,
        })
    }

    fn setup<'c>(
        &self,
        prior: CategoricalPrior,
        config: &ServiceConfig,
        cache: &'c JqCache,
    ) -> Result<(WorkerPool, Prior, CachedMultiClassObjective<'c>), ServiceError> {
        let pool = self.pool();
        let objective = CachedMultiClassObjective::new(pool, &prior, config, cache)?;
        // A pool whose search would *require* the incremental engine (past
        // both the session crossover and the exact voting-space cutoff) but
        // whose coarsest grid overflows `max_cells` is refused with a typed
        // error instead of silently running the exponential scratch DP. The
        // objective owns the session-gating rule, the incremental config
        // owns the grid geometry — this only combines them.
        if self.policy() != SolverPolicy::Exact
            && objective.session_required(pool.len())
            && config
                .multiclass_incremental
                .resolve_buckets(pool.len(), pool.num_choices())
                .is_none()
        {
            return Err(ServiceError::MultiClassStateTooLarge {
                cells: MultiClassIncrementalConfig::min_cells(pool.len(), pool.num_choices()),
                max: config.multiclass_incremental.max_cells as u64,
            });
        }
        // The solvers move the shadow projection's `(id, cost)` candidates;
        // its binary prior slot is unused — the categorical prior is part
        // of the objective's identity.
        Ok((pool.shadow_pool(), Prior::uniform(), objective))
    }

    fn respond(
        &self,
        result: SolverResult,
        objective: &CachedMultiClassObjective<'_>,
        elapsed: Duration,
    ) -> MultiClassSelectionResponse {
        // The objective's own resolution (borrowed members, foreign ids
        // dropped) is the single source of truth for what was scored.
        let members = objective
            .members(&result.jury)
            .into_iter()
            .cloned()
            .collect();
        MultiClassSelectionResponse {
            quality: result.objective_value,
            cost: result.jury.cost(),
            members,
            policy: self.policy(),
            solver: result.solver,
            evaluations: objective.evaluations(),
            cache_hits: objective.local_hits(),
            elapsed,
        }
    }

    fn into_mixed(response: MultiClassSelectionResponse) -> MixedResponse {
        MixedResponse::MultiClass(response)
    }

    fn table_row(response: MultiClassSelectionResponse, budget: f64) -> BudgetQualityRow {
        BudgetQualityRow {
            budget,
            jury: response.worker_ids(),
            quality: response.quality,
            required_budget: response.cost,
        }
    }
}

/// A slot of the batch body ([`JuryService::serve_batch`]): either request
/// kind, or a [`MixedRequest`] forwarding to the kind it holds.
trait Serve: Sync {
    /// What a served slot returns.
    type Response: Send;

    /// Serves the slot.
    fn serve(
        &self,
        service: &JuryService,
        sequential_solver: bool,
    ) -> Result<Self::Response, ServiceError>;
}

impl<R: SelectKind> Serve for R {
    type Response = R::Response;

    fn serve(
        &self,
        service: &JuryService,
        sequential_solver: bool,
    ) -> Result<R::Response, ServiceError> {
        service.serve_one(self, sequential_solver)
    }
}

impl Serve for MixedRequest {
    type Response = MixedResponse;

    fn serve(
        &self,
        service: &JuryService,
        sequential_solver: bool,
    ) -> Result<MixedResponse, ServiceError> {
        match self {
            MixedRequest::Binary(request) => request
                .serve(service, sequential_solver)
                .map(MixedResponse::Binary),
            MixedRequest::MultiClass(request) => request
                .serve(service, sequential_solver)
                .map(MixedResponse::MultiClass),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_model::{paper_example_pool, WorkerId, WorkerPool};

    fn paper_service() -> JuryService {
        JuryService::paper_experiments()
    }

    #[test]
    fn paper_example_selects_bcg_at_budget_15() {
        let service = paper_service();
        let response = service
            .select(&SelectionRequest::new(paper_example_pool(), 15.0))
            .unwrap();
        assert_eq!(
            response.worker_ids(),
            vec![WorkerId(1), WorkerId(2), WorkerId(6)]
        );
        assert!((response.quality - 0.845).abs() < 1e-9);
        assert!((response.cost - 14.0).abs() < 1e-9);
        assert_eq!(response.strategy, Strategy::Bv);
        assert_eq!(response.solver, "exhaustive");
        assert!(response.evaluations > 0);
    }

    #[test]
    fn select_batch_matches_select_and_shares_the_cache() {
        let service = paper_service();
        let request = SelectionRequest::new(paper_example_pool(), 15.0);
        let single = service.select(&request).unwrap();

        let batch: Vec<SelectionRequest> = (0..64).map(|_| request.clone()).collect();
        let responses = service.select_batch(&batch);
        assert_eq!(responses.len(), 64);
        for response in responses {
            let response = response.unwrap();
            assert_eq!(response.worker_ids(), single.worker_ids());
            assert!((response.quality - single.quality).abs() < 1e-12);
        }
        let stats = service.cache_stats();
        assert!(
            stats.hits > stats.misses,
            "batch should be cache-dominated: {stats:?}"
        );
    }

    #[test]
    fn mv_strategy_reproduces_the_mvjs_baseline() {
        let service = paper_service();
        let response = service
            .select(&SelectionRequest::new(paper_example_pool(), 20.0).with_strategy(Strategy::Mv))
            .unwrap();
        // The MV-optimal jury at B = 20 is {A, C, G} (the introduction's
        // prior-work solution).
        assert_eq!(
            response.worker_ids(),
            vec![WorkerId(0), WorkerId(2), WorkerId(6)]
        );
        let bv = service
            .select(&SelectionRequest::new(paper_example_pool(), 20.0))
            .unwrap();
        assert!(bv.quality >= response.quality - 1e-9);
    }

    #[test]
    fn policies_agree_on_the_paper_pool() {
        let service = paper_service();
        let mut qualities = Vec::new();
        for policy in [
            SolverPolicy::Auto,
            SolverPolicy::Exact,
            SolverPolicy::Annealing,
            SolverPolicy::Greedy,
        ] {
            let response = service
                .select(
                    &SelectionRequest::new(paper_example_pool(), 15.0).with_policy(policy.clone()),
                )
                .unwrap();
            assert!(response.cost <= 15.0 + 1e-9, "{policy}");
            qualities.push((policy, response.quality));
        }
        let exact = qualities[1].1;
        for (policy, quality) in qualities {
            assert!(quality <= exact + 1e-9, "{policy} beat exact");
        }
    }

    #[test]
    fn exact_policy_fails_cleanly_on_large_pools() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.7; 23], &[1.0; 23]).unwrap();
        let service = paper_service();
        let err = service
            .select(&SelectionRequest::new(pool, 5.0).with_policy(SolverPolicy::Exact))
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::PoolTooLargeForExact {
                size: 23,
                max: MAX_EXHAUSTIVE_POOL
            }
        );
    }

    #[test]
    fn per_request_config_overrides_apply() {
        let service = JuryService::new(ServiceConfig::default());
        // Force the annealing path on the 7-worker pool by lowering the
        // exact cutoff to zero for this request only.
        let response = service
            .select(
                &SelectionRequest::new(paper_example_pool(), 15.0)
                    .with_config(ServiceConfig::default().with_exact_cutoff(0)),
            )
            .unwrap();
        assert_eq!(response.solver, "simulated-annealing");
        assert!((response.quality - 0.845).abs() < 1e-6);
    }

    #[test]
    fn budget_quality_table_reproduces_figure_1() {
        let service = paper_service();
        let table = service
            .budget_quality_table(
                &paper_example_pool(),
                &[5.0, 10.0, 15.0, 20.0],
                Prior::uniform(),
            )
            .unwrap();
        let qualities: Vec<f64> = table.rows().iter().map(|r| r.quality).collect();
        let expected = [0.75, 0.80, 0.845, 0.8695];
        for (got, want) in qualities.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert!((table.rows()[2].required_budget - 14.0).abs() < 1e-9);
    }

    #[test]
    fn empty_jury_allowed_when_opted_in() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.8], &[5.0]).unwrap();
        let service = paper_service();
        let response = service
            .select(&SelectionRequest::new(pool, 1.0).allow_empty_selection(true))
            .unwrap();
        assert!(response.jury.is_empty());
        assert!((response.quality - 0.5).abs() < 1e-12);
        assert_eq!(response.cost, 0.0);
    }

    #[test]
    fn empty_pool_yields_empty_jury_when_opted_in() {
        // The paper's semantics, opted into: an empty candidate set (e.g. a
        // dataset task nobody answered) selects the empty jury instead of
        // erroring.
        let service = paper_service();
        let request = SelectionRequest::new(WorkerPool::new(), 1.0).allow_empty_selection(true);
        let response = service.select(&request).unwrap();
        assert!(response.jury.is_empty());
        assert!((response.quality - 0.5).abs() < 1e-12);
        // Without the opt-in it stays an error.
        let strict = SelectionRequest::new(WorkerPool::new(), 1.0);
        assert_eq!(
            service.select(&strict).unwrap_err(),
            ServiceError::EmptyPool
        );
    }

    #[test]
    fn large_pools_run_the_incremental_search_path() {
        // 40 candidates is well above the exact cutoff, so Auto/Annealing
        // steer through the incremental BV engine and Greedy adds the
        // marginal-gain probes; results must stay feasible, non-trivial, and
        // deterministic.
        let qualities: Vec<f64> = (0..40).map(|i| 0.52 + 0.012 * (i % 30) as f64).collect();
        let costs: Vec<f64> = (0..40).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let service = paper_service();
        for policy in [
            SolverPolicy::Auto,
            SolverPolicy::Annealing,
            SolverPolicy::Greedy,
        ] {
            let request = SelectionRequest::new(pool.clone(), 5.0).with_policy(policy.clone());
            let response = service.select(&request).unwrap();
            assert!(response.cost <= 5.0 + 1e-9, "{policy}");
            assert!(!response.jury.is_empty(), "{policy}");
            assert!(response.quality >= 0.5, "{policy}");
            assert!(response.evaluations > 0, "{policy}");
            let again = service.select(&request).unwrap();
            assert_eq!(response.worker_ids(), again.worker_ids(), "{policy}");
        }
        // The MV strategy drives the incremental Poisson-binomial engine.
        let mv = service
            .select(&SelectionRequest::new(pool, 5.0).with_strategy(Strategy::Mv))
            .unwrap();
        assert!(mv.quality >= 0.5);
    }

    #[test]
    fn warm_sweep_matches_cold_per_budget_solves_on_large_uniform_pools() {
        // Uniform costs and descending qualities: the warm marginal sweep,
        // the cold annealing solves, and Lemma 2's top-k optimum all agree,
        // so the two execution paths must produce the same row qualities.
        let qualities: Vec<f64> = (0..24).map(|i| 0.9 - 0.012 * i as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 24]).unwrap();
        let budgets = [2.0, 4.0, 6.0, 9.0];

        let warm_service = JuryService::new(ServiceConfig::fast());
        let warm = warm_service
            .budget_quality_table(&pool, &budgets, Prior::uniform())
            .unwrap();
        let cold_service =
            JuryService::new(ServiceConfig::fast().with_sweep_policy(SweepPolicy::Cold));
        let cold = cold_service
            .budget_quality_table(&pool, &budgets, Prior::uniform())
            .unwrap();
        // Cold rows are deterministic: repeats on one service, now served
        // from its warm JQ store, reproduce the first table exactly.
        for _ in 0..10 {
            let repeat = cold_service
                .budget_quality_table(&pool, &budgets, Prior::uniform())
                .unwrap();
            assert_eq!(repeat, cold);
        }

        let mut previous = 0.0;
        for (w, c) in warm.rows().iter().zip(cold.rows()) {
            assert!(
                (w.quality - c.quality).abs() < 1e-9,
                "budget {}: warm {} vs cold {}",
                w.budget,
                w.quality,
                c.quality
            );
            assert!(w.required_budget <= w.budget + 1e-9);
            assert!(
                w.quality >= previous - 1e-12,
                "warm rows must stay monotone"
            );
            previous = w.quality;
        }
        // The warm sweep still routes evaluations through the shared cache.
        assert!(warm_service.cache_stats().misses > 0);
    }

    #[test]
    fn warm_sweep_validates_budgets() {
        let qualities: Vec<f64> = (0..20).map(|i| 0.85 - 0.01 * i as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 20]).unwrap();
        let service = JuryService::new(ServiceConfig::fast());
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let err = service
                .budget_quality_table(&pool, &[1.0, bad], Prior::uniform())
                .unwrap_err();
            assert!(matches!(err, ServiceError::InvalidBudget { .. }), "{bad}");
        }
    }

    #[test]
    fn small_pools_keep_the_exhaustive_table_path() {
        // The paper pool is within the exact cutoff, so the warm sweep
        // policy must not change the exhaustively-optimal Figure 1 rows.
        let service = paper_service();
        assert_ne!(service.config().sweep, SweepPolicy::Cold);
        let table = service
            .budget_quality_table(
                &paper_example_pool(),
                &[5.0, 10.0, 15.0, 20.0],
                Prior::uniform(),
            )
            .unwrap();
        assert!((table.rows()[3].quality - 0.8695).abs() < 1e-9);
    }

    #[test]
    fn warm_annealing_sweep_matches_cold_rows_on_large_uniform_pools() {
        // Same Lemma-2 territory as the marginal warm-sweep test: on a
        // uniform-cost pool the seeded annealing sweep, the marginal sweep,
        // and the cold solves must all land on the same row qualities.
        let qualities: Vec<f64> = (0..24).map(|i| 0.9 - 0.012 * i as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 24]).unwrap();
        let budgets = [2.0, 4.0, 6.0, 9.0];

        let annealing_service =
            JuryService::new(ServiceConfig::fast().with_sweep_policy(SweepPolicy::WarmAnnealing));
        let warm = annealing_service
            .budget_quality_table(&pool, &budgets, Prior::uniform())
            .unwrap();
        let cold_service =
            JuryService::new(ServiceConfig::fast().with_sweep_policy(SweepPolicy::Cold));
        let cold = cold_service
            .budget_quality_table(&pool, &budgets, Prior::uniform())
            .unwrap();
        let mut previous = 0.0;
        for (w, c) in warm.rows().iter().zip(cold.rows()) {
            assert!(
                (w.quality - c.quality).abs() < 1e-9,
                "budget {}: warm-annealing {} vs cold {}",
                w.budget,
                w.quality,
                c.quality
            );
            assert!(w.quality >= previous - 1e-12, "rows must stay monotone");
            previous = w.quality;
        }
        // Bad budgets stay typed errors on this path too.
        let err = annealing_service
            .budget_quality_table(&pool, &[1.0, f64::NAN], Prior::uniform())
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidBudget { .. }));
    }

    #[test]
    fn batch_threads_clamp_to_batch_length() {
        let service = JuryService::new(ServiceConfig::default().with_batch_threads(16));
        assert_eq!(service.batch_threads(1), 1);
        assert_eq!(service.batch_threads(4), 4);
        assert_eq!(service.batch_threads(100), 16);
        let auto = JuryService::default();
        assert!(auto.batch_threads(1000) >= 1);
    }

    use jury_model::{CategoricalPrior, MatrixPool};

    fn matrix_pool() -> MatrixPool {
        MatrixPool::from_qualities_and_costs(
            &[0.9, 0.6, 0.7, 0.8, 0.65],
            &[2.0, 2.0, 2.0, 2.0, 2.0],
            3,
        )
        .unwrap()
    }

    #[test]
    fn multiclass_select_round_trips_the_exhaustive_optimum() {
        let service = paper_service();
        let request = MultiClassSelectionRequest::new(matrix_pool(), 6.0);
        let response = service.select_multiclass(&request).unwrap();
        assert_eq!(response.solver, "exhaustive");
        assert_eq!(response.policy, SolverPolicy::Auto);
        assert!(response.cost <= 6.0 + 1e-9);
        assert!(response.quality >= 1.0 / 3.0);
        assert!(response.evaluations > 0);
        let jury = response.matrix_jury().unwrap();
        assert_eq!(jury.num_choices(), 3);
        // Same request again: all evaluations come back from the cache.
        let again = service.select_multiclass(&request).unwrap();
        assert_eq!(again.worker_ids(), response.worker_ids());
        assert!(again.cache_hits > 0);
        let stats = service.cache_stats();
        assert!(stats.multiclass.hits > 0);
        assert_eq!(stats.binary, crate::cache::CacheKindStats::default());
    }

    #[test]
    fn multiclass_batch_matches_single_selects() {
        let service = paper_service();
        let request = MultiClassSelectionRequest::new(matrix_pool(), 6.0);
        let single = service.select_multiclass(&request).unwrap();
        let batch: Vec<MultiClassSelectionRequest> = (0..16).map(|_| request.clone()).collect();
        for response in service.select_multiclass_batch(&batch) {
            let response = response.unwrap();
            assert_eq!(response.worker_ids(), single.worker_ids());
            assert!((response.quality - single.quality).abs() < 1e-12);
        }
    }

    #[test]
    fn mixed_batches_serve_both_kinds_and_share_the_store() {
        let service = paper_service();
        let mut batch: Vec<MixedRequest> = Vec::new();
        for _ in 0..8 {
            batch.push(SelectionRequest::new(paper_example_pool(), 15.0).into());
            batch.push(MultiClassSelectionRequest::new(matrix_pool(), 6.0).into());
        }
        let responses = service.select_mixed_batch(&batch);
        assert_eq!(responses.len(), 16);
        for (i, response) in responses.iter().enumerate() {
            let response = response.as_ref().unwrap();
            if i % 2 == 0 {
                let binary = response.as_binary().unwrap();
                assert!((binary.quality - 0.845).abs() < 1e-9);
            } else {
                let multi = response.as_multi_class().unwrap();
                assert!(multi.quality >= 1.0 / 3.0);
            }
        }
        let stats = service.cache_stats();
        assert!(stats.binary.hits > 0, "{stats:?}");
        assert!(stats.multiclass.hits > 0, "{stats:?}");
        assert_eq!(stats.hits, stats.binary.hits + stats.multiclass.hits);
    }

    #[test]
    fn multiclass_error_paths_are_typed() {
        let service = paper_service();
        // Non-finite and negative budgets.
        for bad in [f64::NAN, f64::INFINITY, -2.0] {
            let err = service
                .select_multiclass(&MultiClassSelectionRequest::new(matrix_pool(), bad))
                .unwrap_err();
            assert!(matches!(err, ServiceError::InvalidBudget { .. }), "{bad}");
        }
        // Invalid prior vectors (not a distribution / wrong arity).
        let err = service
            .select_multiclass(
                &MultiClassSelectionRequest::new(matrix_pool(), 6.0)
                    .with_prior_probs(vec![0.7, 0.7, 0.7]),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidPriorVector { .. }));
        let err = service
            .select_multiclass(
                &MultiClassSelectionRequest::new(matrix_pool(), 6.0)
                    .with_prior_probs(vec![0.5, 0.5]),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidPriorVector { .. }));
        // Budget below the cheapest worker without the empty opt-in.
        let err = service
            .select_multiclass(&MultiClassSelectionRequest::new(matrix_pool(), 1.0))
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::BudgetBelowCheapestWorker { .. }
        ));
        // With the opt-in the empty jury answers the prior argmax.
        let response = service
            .select_multiclass(
                &MultiClassSelectionRequest::new(matrix_pool(), 1.0)
                    .with_prior(CategoricalPrior::new(vec![0.2, 0.5, 0.3]).unwrap())
                    .allow_empty_selection(true),
            )
            .unwrap();
        assert_eq!(response.jury_size(), 0);
        assert!((response.quality - 0.5).abs() < 1e-12);
        assert_eq!(response.cost, 0.0);
    }

    #[test]
    fn multiclass_cell_budget_overflow_is_a_typed_error() {
        // 24 candidates over 4 labels is past both the session crossover and
        // the exact voting cutoff; with a one-cell budget even the coarsest
        // grid cannot fit, so the service must refuse, not panic or silently
        // run the exponential scratch DP.
        let qualities: Vec<f64> = (0..24).map(|i| 0.5 + 0.015 * (i % 20) as f64).collect();
        let costs = vec![1.0; 24];
        let pool = MatrixPool::from_qualities_and_costs(&qualities, &costs, 4).unwrap();
        let config = ServiceConfig::fast().with_multiclass_incremental(
            jury_jq::MultiClassIncrementalConfig::default().with_max_cells(1),
        );
        let service = JuryService::new(config);
        let err = service
            .select_multiclass(&MultiClassSelectionRequest::new(pool.clone(), 6.0))
            .unwrap_err();
        let ServiceError::MultiClassStateTooLarge { cells, max } = err else {
            panic!("expected MultiClassStateTooLarge, got {err}");
        };
        assert_eq!(max, 1);
        assert_eq!(cells, 49u64.pow(3));
        // The same guard protects the warm multi-class sweep.
        let err = service
            .multiclass_budget_quality_table(
                &pool,
                &[2.0, 4.0],
                &CategoricalPrior::uniform(4).unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::MultiClassStateTooLarge { .. }));
    }

    #[test]
    fn multiclass_budget_quality_table_small_pool_is_exhaustive() {
        let service = paper_service();
        let prior = CategoricalPrior::uniform(3).unwrap();
        let table = service
            .multiclass_budget_quality_table(&matrix_pool(), &[2.0, 4.0, 6.0, 10.0], &prior)
            .unwrap();
        assert_eq!(table.rows().len(), 4);
        let mut previous = 0.0;
        for row in table.rows() {
            assert!(row.required_budget <= row.budget + 1e-9);
            assert!(row.quality >= previous - 1e-12);
            previous = row.quality;
        }
    }

    #[test]
    fn a_panicking_batch_slot_reports_internal_and_leaves_the_store_usable() {
        let service = JuryService::new(ServiceConfig::fast().with_batch_threads(4));
        // Warm the shared store so the post-panic request genuinely reads
        // through the same store the panicking threads touched.
        let request = SelectionRequest::new(paper_example_pool(), 15.0);
        let before = service.select(&request).unwrap();

        let results = service.run_batch(&[0usize, 1, 2, 3], |&slot| {
            if slot == 2 {
                panic!("solver blew up on slot {slot}");
            }
            service.select(&request)
        });
        for (slot, result) in results.iter().enumerate() {
            if slot == 2 {
                let Err(ServiceError::Internal { reason }) = result else {
                    panic!("slot 2 should be Internal, got {result:?}");
                };
                assert!(reason.contains("slot 2"), "reason was {reason:?}");
            } else {
                assert!(result.is_ok(), "slot {slot} was {result:?}");
            }
        }

        // parking_lot locks do not poison: the store survives the unwound
        // worker thread and keeps serving identical answers.
        let after = service.select(&request).unwrap();
        assert_eq!(after.worker_ids(), before.worker_ids());
        assert!((after.quality - before.quality).abs() < 1e-12);
        assert!(service.cache_stats().hits > 0);
    }

    #[test]
    fn a_panicking_select_batch_slot_does_not_unwind_the_batch() {
        // An end-to-end variant through the public batch API: a pool whose
        // construction invariants hold but whose serve panics is hard to
        // fabricate from outside, so this pins the seam run_batch itself
        // guards — every public batch entry point shares it.
        let service = JuryService::new(ServiceConfig::fast().with_batch_threads(2));
        let results = service.run_batch(&[0usize, 1], |&slot| {
            if slot == 0 {
                panic!("boom");
            }
            service.select(&SelectionRequest::new(paper_example_pool(), 15.0))
        });
        assert!(matches!(results[0], Err(ServiceError::Internal { .. })));
        assert!(results[1].is_ok());
    }

    /// Unwraps a serve result that may have been truncated by a search
    /// budget: both the `Ok` response and the anytime best-so-far carried
    /// by `DeadlineExceeded` count as served.
    fn salvage_binary(result: Result<SelectionResponse, ServiceError>) -> SelectionResponse {
        match result {
            Ok(response) => response,
            Err(ServiceError::DeadlineExceeded {
                best_so_far: Some(best),
            }) => match *best {
                MixedResponse::Binary(response) => response,
                other => panic!("unexpected best-so-far kind: {other:?}"),
            },
            Err(err) => panic!("unexpected error: {err}"),
        }
    }

    fn large_pool(n: usize) -> WorkerPool {
        let qualities: Vec<f64> = (0..n).map(|i| 0.52 + 0.012 * (i % 30) as f64).collect();
        let costs: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
        WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
    }

    #[test]
    fn portfolio_policy_matches_exact_on_small_pools() {
        // The paper pool has 10 candidates — within the exact cutoff, so
        // the portfolio arm routes to the same exhaustive enumeration Auto
        // uses and must match the exact optimum to 1e-9 at every budget.
        let service = paper_service();
        for budget in [5.0, 10.0, 15.0, 20.0] {
            let raced = service
                .select(
                    &SelectionRequest::new(paper_example_pool(), budget)
                        .with_policy(SolverPolicy::Portfolio(Vec::new())),
                )
                .unwrap();
            let exact = service
                .select(
                    &SelectionRequest::new(paper_example_pool(), budget)
                        .with_policy(SolverPolicy::Exact),
                )
                .unwrap();
            assert!(
                (raced.quality - exact.quality).abs() < 1e-9,
                "budget {budget}: portfolio {} vs exact {}",
                raced.quality,
                exact.quality
            );
            assert_eq!(raced.solver, "exhaustive");
            assert_eq!(raced.policy, SolverPolicy::Portfolio(Vec::new()));
        }
    }

    #[test]
    fn portfolio_races_on_large_pools_and_records_the_winner() {
        let service = paper_service();
        let request = SelectionRequest::new(large_pool(40), 5.0)
            .with_policy(SolverPolicy::Portfolio(Vec::new()));
        let response = service.select(&request).unwrap();
        assert!(
            response.solver.starts_with("portfolio:"),
            "provenance records the winning member, got {}",
            response.solver
        );
        assert!(response.cost <= 5.0 + 1e-9);
        assert!(!response.jury.is_empty());
        // Deterministic: the members' RNG streams are seeded.
        let again = service.select(&request).unwrap();
        assert_eq!(response.worker_ids(), again.worker_ids());
        assert_eq!(response.solver, again.solver);
        // The race can only improve on plain annealing when unbudgeted:
        // its annealing lane replays the same restarts.
        let annealed = service
            .select(
                &SelectionRequest::new(large_pool(40), 5.0).with_policy(SolverPolicy::Annealing),
            )
            .unwrap();
        assert!(response.quality >= annealed.quality - 1e-9);
    }

    #[test]
    fn solver_threads_do_not_change_the_served_jury() {
        // The unbudgeted parallel race keeps every lane a pure replay, so a
        // threaded service serves exactly the sequential service's jury.
        let sequential = JuryService::paper_experiments();
        let threaded = JuryService::new(ServiceConfig::paper_experiments().with_solver_threads(2));
        let request = SelectionRequest::new(large_pool(40), 5.0)
            .with_policy(SolverPolicy::Portfolio(Vec::new()));
        let base = sequential.select(&request).unwrap();
        let raced = threaded.select(&request).unwrap();
        assert_eq!(base.worker_ids(), raced.worker_ids());
        assert_eq!(base.solver, raced.solver);
        assert!((base.quality - raced.quality).abs() < 1e-12);

        // Batch wins the cores: whether or not the batch fans out on this
        // machine (forcing the slots' solvers sequential), every slot still
        // serves the same jury as the single select.
        let batch = vec![request.clone(); 4];
        for slot in threaded.select_batch(&batch) {
            let slot = slot.unwrap();
            assert_eq!(slot.worker_ids(), base.worker_ids());
            assert!((slot.quality - base.quality).abs() < 1e-12);
        }
    }

    #[test]
    fn portfolio_beats_or_ties_annealing_at_equal_evaluation_budgets() {
        // The quality-per-evaluation claim behind the portfolio: at the
        // same evaluation cap, racing heterogeneous members returns a jury
        // at least as good as spending the whole cap on annealing alone.
        // Evaluation caps never read the clock, so this is deterministic.
        let service = paper_service();
        let pool = large_pool(60);
        for cap in [200u64, 800, 2_000] {
            let raced = salvage_binary(
                service.select(
                    &SelectionRequest::new(pool.clone(), 6.0)
                        .with_policy(SolverPolicy::Portfolio(Vec::new()))
                        .with_evaluation_limit(cap),
                ),
            );
            let annealed = salvage_binary(
                service.select(
                    &SelectionRequest::new(pool.clone(), 6.0)
                        .with_policy(SolverPolicy::Annealing)
                        .with_evaluation_limit(cap),
                ),
            );
            assert!(
                raced.quality >= annealed.quality - 1e-9,
                "cap {cap}: portfolio {} below annealing {}",
                raced.quality,
                annealed.quality
            );
        }
    }

    #[test]
    fn service_and_request_budget_limits_merge_tightest_wins() {
        // All four combinations of (request cap, service default cap),
        // exercised with evaluation caps so the outcome is deterministic.
        let pool = large_pool(200);
        let tight = 200u64;
        let loose = 1_000_000u64;
        let slack = 16; // batch evaluations outside the checkpoints

        // Neither side caps: the solve runs to completion.
        let service = paper_service();
        let request = SelectionRequest::new(pool.clone(), 8.0);
        let uncapped = service.select(&request).unwrap();
        assert!(uncapped.evaluations > tight + slack);

        // Only the request caps.
        let capped = salvage_binary(service.select(&request.clone().with_evaluation_limit(tight)));
        assert!(
            capped.evaluations <= tight + slack,
            "{}",
            capped.evaluations
        );

        // Only the service config caps.
        let config = ServiceConfig::paper_experiments().with_default_evaluation_limit(Some(tight));
        let capped = salvage_binary(JuryService::new(config).select(&request));
        assert!(
            capped.evaluations <= tight + slack,
            "{}",
            capped.evaluations
        );

        // Both sides cap: the tighter one governs, whichever side it is on.
        let loose_config =
            ServiceConfig::paper_experiments().with_default_evaluation_limit(Some(loose));
        let capped = salvage_binary(
            JuryService::new(loose_config).select(&request.clone().with_evaluation_limit(tight)),
        );
        assert!(
            capped.evaluations <= tight + slack,
            "{}",
            capped.evaluations
        );
        let tight_config =
            ServiceConfig::paper_experiments().with_default_evaluation_limit(Some(tight));
        let capped = salvage_binary(
            JuryService::new(tight_config).select(&request.with_evaluation_limit(loose)),
        );
        assert!(
            capped.evaluations <= tight + slack,
            "{}",
            capped.evaluations
        );
    }

    #[test]
    fn table_deadline_is_shared_across_rows_not_multiplied() {
        // Regression test for the per-row deadline split: the old logic
        // handed every row the full remaining deadline anchored at its own
        // serve start, so a 12-row sweep whose rows each exhaust their time
        // ran for ~12 × deadline. The fix serves rows sequentially with the
        // remaining time re-divided before each row, bounding the whole
        // sweep by the one deadline (plus per-row checkpoint overrun).
        let deadline = Duration::from_millis(50);
        let budgets: Vec<f64> = (1..=12).map(|b| b as f64).collect();
        // Cold sweeps route per-row requests through the batch path, and a
        // 400-candidate pool makes each uncapped row solve far exceed its
        // slice — exactly the shape that multiplied the deadline before.
        let service = JuryService::new(
            ServiceConfig::paper_experiments().with_sweep_policy(SweepPolicy::Cold),
        );
        let started = Instant::now();
        let (table, truncated) = service
            .budget_quality_table_with_deadline(
                &large_pool(400),
                &budgets,
                Prior::uniform(),
                deadline,
            )
            .unwrap();
        let elapsed = started.elapsed();
        assert!(truncated, "every row should have been cut short");
        assert_eq!(table.rows().len(), budgets.len());
        assert!(
            elapsed < 6 * deadline,
            "sweep took {elapsed:?}; the old per-row split would run for ~12 × {deadline:?}"
        );
    }
}
