//! Service configuration: the knobs shared by every request, overridable
//! per request via [`crate::SelectionRequest::with_config`].
//!
//! The same bucket/annealing/cutoff knobs drive both the OPTJS and MVJS
//! strategies, plus the service-level batch and cache settings and the
//! multi-class (confusion-matrix) engine configuration.

use std::time::Duration;

use jury_jq::{
    BucketCount, BucketJqConfig, JqEngine, MultiClassBucketConfig, MultiClassIncrementalConfig,
};
use jury_selection::{
    AnnealingConfig, ParallelPolicy, RestartConfig, TabuConfig,
    DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF,
};

/// How [`crate::JuryService::budget_quality_table`] (and its multi-class
/// sibling) serves pools beyond the exact cutoff — the **sweep policy**.
///
/// This enum unifies what used to be independent boolean knobs (a warm-sweep
/// switch, and the warm-annealing follow-up that would have been a second
/// flag): every variant is a valid policy, so no combination of switches can
/// contradict itself — the validation is the type. Pools within the exact
/// cutoff always use the cold exhaustive path regardless of the policy,
/// because those tables are provably optimal.
///
/// * [`Cold`](SweepPolicy::Cold) — solve every budget independently through
///   the batched request path. The most expensive and the reference
///   behaviour (one full heuristic search per budget).
/// * [`WarmMarginal`](SweepPolicy::WarmMarginal) — carry one marginal-gain
///   search state (and one incremental JQ session) across ascending budgets
///   ([`jury_selection::BudgetQualityTable::build_warm`]); each budget step
///   only pushes the marginal workers. Fastest; on heterogeneous costs the
///   carried jury may trail a cold solve because the sweep never un-commits
///   a worker. The default.
/// * [`WarmAnnealing`](SweepPolicy::WarmAnnealing) — seed each budget's
///   annealing run with the previous budget's jury
///   ([`jury_selection::BudgetQualityTable::build_warm_annealing`]).
///   Quality-critical sweeps: the search can still restructure the jury
///   (un-commit cheap workers for an expensive one), while the carried seed
///   keeps it from re-solving cold and makes rows monotone by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepPolicy {
    /// Solve every budget independently (cold), through the batch path.
    Cold,
    /// Warm-started marginal-gain sweep across ascending budgets.
    WarmMarginal,
    /// Warm-started annealing sweep: budget `b + 1` seeded with the
    /// budget-`b` jury.
    WarmAnnealing,
}

/// Configuration of a [`crate::JuryService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Bucket configuration for the approximate JQ(BV) computation.
    pub bucket: BucketJqConfig,
    /// Simulated-annealing configuration for the JSP search.
    pub annealing: AnnealingConfig,
    /// Tabu-search configuration for the portfolio's
    /// [`jury_selection::TabuSolver`] member.
    pub tabu: TabuConfig,
    /// Randomized-restart configuration for the portfolio's
    /// [`jury_selection::RestartSolver`] member.
    pub restart: RestartConfig,
    /// A service-wide wall-clock ceiling applied to every request: merged
    /// with any per-request deadline **tightest-wins** (via
    /// [`jury_selection::SearchBudget::intersect`]). `None` (the default)
    /// imposes no service-side deadline.
    pub default_deadline: Option<Duration>,
    /// A service-wide objective-evaluation ceiling applied to every
    /// request, merged with any per-request cap tightest-wins. `None` (the
    /// default) imposes no service-side cap.
    pub default_max_evaluations: Option<u64>,
    /// Pools of at most this size are solved exactly by enumeration instead
    /// of by annealing (under [`crate::SolverPolicy::Auto`]); juries of at
    /// most this size also use exact JQ enumeration inside the engine.
    pub exact_cutoff: usize,
    /// Maximum number of memoized JQ evaluations kept in the service's
    /// shared cache; `0` disables caching. When the cache fills up, the
    /// stalest half of the entries (segmented LRU by last-used stamp) is
    /// evicted, so hot entries survive overflow. Binary and multi-class
    /// evaluations share this one store (their signature key spaces are
    /// disjoint); [`crate::CacheStats`] reports per-kind counters.
    pub cache_capacity: usize,
    /// Worker threads used by [`crate::JuryService::select_batch`] and the
    /// other batch entry points; `0` means one per available CPU core.
    pub batch_threads: usize,
    /// Lanes (scoped OS threads) a *single* solve may use: the portfolio
    /// deals its members onto the lanes and the greedy fallback splits its
    /// probe rounds across them. `1` (the default) runs every solve on one
    /// lane, on the calling thread; `0` means one per available CPU core.
    /// **Batch parallelism has priority**: a batch already running more
    /// than one worker thread serves each slot's solver on one lane, so
    /// the two levels never oversubscribe the machine
    /// (`batch_threads × solver_threads` stays bounded by the larger of
    /// the two knobs).
    pub solver_threads: usize,
    /// The budget–quality sweep policy for pools beyond the exact cutoff
    /// (see [`SweepPolicy`]). Pools within the cutoff always use the cold
    /// exhaustive path.
    pub sweep: SweepPolicy,
    /// Scratch bucket configuration for batch evaluations of the
    /// multi-class (Section 7) objective.
    pub multiclass_bucket: MultiClassBucketConfig,
    /// Incremental-engine configuration for multi-class search sessions,
    /// including the dense-box `max_cells` budget that guards against
    /// exponential grids.
    pub multiclass_incremental: MultiClassIncrementalConfig,
    /// Multi-class pools of at most this many candidates run their searches
    /// on the sparse scratch DP, through a batch session, instead of the
    /// incremental engine (the measured crossover; see
    /// [`jury_selection::DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF`]).
    pub multiclass_session_cutoff: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            bucket: BucketJqConfig::default(),
            annealing: AnnealingConfig::default(),
            tabu: TabuConfig::default(),
            restart: RestartConfig::default(),
            default_deadline: None,
            default_max_evaluations: None,
            exact_cutoff: 14,
            cache_capacity: 1 << 20,
            batch_threads: 0,
            solver_threads: 1,
            sweep: SweepPolicy::WarmMarginal,
            multiclass_bucket: MultiClassBucketConfig::default(),
            multiclass_incremental: MultiClassIncrementalConfig::default(),
            multiclass_session_cutoff: DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF,
        }
    }
}

impl ServiceConfig {
    /// The configuration used to reproduce the paper's experiments:
    /// `numBuckets = 50` for JQ estimation and `ε = 10⁻⁸` for the annealing.
    pub fn paper_experiments() -> Self {
        ServiceConfig {
            bucket: BucketJqConfig::paper_experiments(),
            ..ServiceConfig::default()
        }
    }

    /// A fast configuration for unit tests and examples: coarser buckets and
    /// a shorter annealing schedule.
    pub fn fast() -> Self {
        ServiceConfig {
            bucket: BucketJqConfig::default().with_buckets(BucketCount::Fixed(50)),
            annealing: AnnealingConfig::default()
                .with_epsilon(1e-4)
                .with_restarts(2),
            exact_cutoff: 12,
            multiclass_bucket: MultiClassBucketConfig { num_buckets: 50 },
            ..ServiceConfig::default()
        }
    }

    /// Sets the bucket configuration.
    pub fn with_bucket(mut self, bucket: BucketJqConfig) -> Self {
        self.bucket = bucket;
        self
    }

    /// Sets the annealing configuration.
    pub fn with_annealing(mut self, annealing: AnnealingConfig) -> Self {
        self.annealing = annealing;
        self
    }

    /// Sets the tabu-search configuration (the portfolio's tabu member).
    pub fn with_tabu(mut self, tabu: TabuConfig) -> Self {
        self.tabu = tabu;
        self
    }

    /// Sets the randomized-restart configuration (the portfolio's restart
    /// member).
    pub fn with_restart(mut self, restart: RestartConfig) -> Self {
        self.restart = restart;
        self
    }

    /// Sets (or clears) the service-wide default deadline; it merges with
    /// any per-request deadline tightest-wins.
    pub fn with_default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Sets (or clears) the service-wide default evaluation cap; it merges
    /// with any per-request cap tightest-wins.
    pub fn with_default_evaluation_limit(mut self, max_evaluations: Option<u64>) -> Self {
        self.default_max_evaluations = max_evaluations;
        self
    }

    /// Sets the exact-enumeration cutoff.
    pub fn with_exact_cutoff(mut self, cutoff: usize) -> Self {
        self.exact_cutoff = cutoff;
        self
    }

    /// Sets the JQ cache capacity (`0` disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the batch thread count (`0` = one per CPU core).
    pub fn with_batch_threads(mut self, threads: usize) -> Self {
        self.batch_threads = threads;
        self
    }

    /// Sets the per-solve thread count (see
    /// [`solver_threads`](Self::solver_threads); `1` = sequential,
    /// `0` = one per CPU core).
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        self.solver_threads = threads;
        self
    }

    /// Routes **both** levels of parallelism through one knob: batch slots
    /// and single-solve lanes each get `threads` workers (`0` = one per
    /// CPU core). The batch > solver priority still applies — when a batch
    /// actually fans out, its slots solve sequentially — so this sets "how
    /// many cores may this service use" regardless of which level the work
    /// arrives at.
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.batch_threads = threads;
        self.solver_threads = threads;
        self
    }

    /// The [`jury_selection::ParallelPolicy`] induced by
    /// [`solver_threads`](Self::solver_threads).
    pub fn solver_parallelism(&self) -> ParallelPolicy {
        match self.solver_threads {
            1 => ParallelPolicy::Sequential,
            n => ParallelPolicy::Threads(n),
        }
    }

    /// Sets the budget–quality sweep policy.
    pub fn with_sweep_policy(mut self, sweep: SweepPolicy) -> Self {
        self.sweep = sweep;
        self
    }

    /// Sets the multi-class scratch bucket configuration.
    pub fn with_multiclass_bucket(mut self, bucket: MultiClassBucketConfig) -> Self {
        self.multiclass_bucket = bucket;
        self
    }

    /// Sets the multi-class incremental-engine configuration.
    pub fn with_multiclass_incremental(mut self, incremental: MultiClassIncrementalConfig) -> Self {
        self.multiclass_incremental = incremental;
        self
    }

    /// Sets the multi-class session crossover cutoff.
    pub fn with_multiclass_session_cutoff(mut self, cutoff: usize) -> Self {
        self.multiclass_session_cutoff = cutoff;
        self
    }

    /// The JQ engine this configuration induces.
    pub fn jq_engine(&self) -> JqEngine {
        JqEngine::new(self.bucket).with_exact_cutoff(self.exact_cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = ServiceConfig::default();
        assert!(config.exact_cutoff >= 10);
        assert!(config.annealing.restarts >= 1);
        assert!(config.cache_capacity > 0);
        assert_eq!(config.batch_threads, 0);
        assert_eq!(
            config.solver_threads, 1,
            "single solves default to the sequential (bit-identical) path"
        );
        assert_eq!(config.solver_parallelism(), ParallelPolicy::Sequential);
        assert_eq!(config.sweep, SweepPolicy::WarmMarginal);
        assert!(config.default_deadline.is_none());
        assert!(config.default_max_evaluations.is_none());
        assert_eq!(config.tabu, TabuConfig::default());
        assert_eq!(config.restart, RestartConfig::default());
        assert_eq!(
            config.multiclass_session_cutoff,
            DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF
        );
    }

    #[test]
    fn builders_update_fields() {
        let config = ServiceConfig::default()
            .with_exact_cutoff(5)
            .with_bucket(BucketJqConfig::paper_experiments())
            .with_annealing(AnnealingConfig::default().with_seed(9))
            .with_cache_capacity(128)
            .with_batch_threads(2)
            .with_solver_threads(3)
            .with_sweep_policy(SweepPolicy::Cold)
            .with_multiclass_bucket(MultiClassBucketConfig { num_buckets: 77 })
            .with_multiclass_incremental(
                MultiClassIncrementalConfig::default().with_max_cells(1 << 10),
            )
            .with_multiclass_session_cutoff(9)
            .with_tabu(TabuConfig::default().with_tenure(3))
            .with_restart(RestartConfig::default().with_restarts(7))
            .with_default_deadline(Some(Duration::from_millis(250)))
            .with_default_evaluation_limit(Some(10_000));
        assert_eq!(config.exact_cutoff, 5);
        assert_eq!(config.tabu.tenure, 3);
        assert_eq!(config.restart.restarts, 7);
        assert_eq!(config.default_deadline, Some(Duration::from_millis(250)));
        assert_eq!(config.default_max_evaluations, Some(10_000));
        assert_eq!(config.annealing.seed, 9);
        assert_eq!(config.bucket, BucketJqConfig::paper_experiments());
        assert_eq!(config.cache_capacity, 128);
        assert_eq!(config.batch_threads, 2);
        assert_eq!(config.solver_threads, 3);
        assert_eq!(config.solver_parallelism(), ParallelPolicy::Threads(3));
        assert_eq!(config.sweep, SweepPolicy::Cold);
        assert_eq!(config.multiclass_bucket.num_buckets, 77);
        assert_eq!(config.multiclass_incremental.max_cells, 1 << 10);
        assert_eq!(config.multiclass_session_cutoff, 9);
    }

    #[test]
    fn worker_threads_set_both_levels() {
        let config = ServiceConfig::default().with_worker_threads(4);
        assert_eq!(config.batch_threads, 4);
        assert_eq!(config.solver_threads, 4);
        assert_eq!(config.solver_parallelism(), ParallelPolicy::Threads(4));

        let per_core = ServiceConfig::default().with_worker_threads(0);
        assert_eq!(per_core.batch_threads, 0);
        assert_eq!(per_core.solver_threads, 0);
        assert_eq!(per_core.solver_parallelism(), ParallelPolicy::Threads(0));
    }

    #[test]
    fn paper_and_fast_presets_differ() {
        assert_ne!(
            ServiceConfig::paper_experiments().annealing.epsilon,
            ServiceConfig::fast().annealing.epsilon
        );
    }
}
