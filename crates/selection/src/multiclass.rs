//! Multi-class (confusion-matrix) jury selection — Section 7 driven through
//! the binary JSP machinery.
//!
//! The solvers in this crate are generic over a [`JuryObjective`] and
//! operate on plain [`Jury`]s of `(quality, cost)` workers. Confusion-matrix
//! selection reuses them wholesale via a *shadow pool*: the
//! [`jury_model::MatrixPool`] projects each worker onto her mean diagonal
//! accuracy (same ids, same costs), the solvers mutate shadow juries, and
//! [`MultiClassBvObjective`] looks the full matrices back up by id to score
//! `JQ(J, BV, ~α)` — exactly enumerated for tiny juries, otherwise via the
//! Section 7 tuple-key bucket DP.
//!
//! On pools past the session crossover the objective's
//! [`JuryObjective::incremental_session`] runs on
//! [`jury_jq::IncrementalMultiClassJq`], so [`crate::AnnealingSolver`] and
//! [`crate::GreedyMarginalSolver`] drive confusion-matrix search through the
//! same push/pop/swap hot path as the binary engines: an annealing neighbour
//! or a greedy extension probe updates `ℓ` live dense DPs instead of
//! rebuilding them from scratch. Smaller pools get a
//! [`BatchSession`] over the scratch DP.
//!
//! ```
//! use jury_model::{CategoricalPrior, MatrixPool};
//! use jury_selection::{AnnealingSolver, JurySolver, MultiClassJsp};
//!
//! let pool = MatrixPool::from_qualities_and_costs(
//!     &[0.9, 0.75, 0.7, 0.65, 0.6],
//!     &[3.0, 2.0, 1.0, 1.0, 1.0],
//!     3,
//! )
//! .unwrap();
//! let prior = CategoricalPrior::uniform(3).unwrap();
//! let problem = MultiClassJsp::new(pool, 5.0, prior).unwrap();
//! let result = AnnealingSolver::new(problem.objective()).solve(problem.instance());
//! assert!(result.jury.cost() <= 5.0 + 1e-9);
//! assert!(result.objective_value >= 1.0 / 3.0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use jury_jq::{
    approx_multiclass_bv_jq, exact_multiclass_bv_jq, IncrementalMultiClassJq,
    MultiClassBucketConfig, MultiClassIncrementalConfig,
};
use jury_model::{
    CategoricalPrior, Jury, MatrixJury, MatrixPool, ModelError, ModelResult, Prior, Worker,
};

use crate::objective::{BatchSession, IncrementalSession, JuryObjective};
use crate::problem::JspInstance;

/// Voting-space sizes up to this bound are scored by exact enumeration
/// inside [`MultiClassBvObjective::evaluate`]; larger juries use the bucket
/// DP.
pub const DEFAULT_MULTICLASS_EXACT_VOTINGS: u64 = 1 << 12;

/// Pools of at most this many candidates get a [`BatchSession`] rather than
/// the incremental engine by default. The engine's dense per-target boxes
/// cost `O((pool · buckets)^{ℓ−1})` per mutation while the scratch tuple DP's
/// sparse map stays tiny for small juries, so the engine only wins beyond
/// a crossover (the `multiclass` criterion bench on this repo's reference
/// box measures the scratch DP ~86× *faster* at 10 candidates and ~22×
/// *slower* at 30). Tune per workload with
/// [`MultiClassBvObjective::with_session_pool_cutoff`].
pub const DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF: usize = 20;

/// A multi-class JSP instance: a confusion-matrix candidate pool, a budget,
/// and a categorical prior, bridged onto the binary solver machinery via
/// the pool's shadow projection.
#[derive(Debug, Clone)]
pub struct MultiClassJsp {
    pool: MatrixPool,
    prior: CategoricalPrior,
    instance: JspInstance,
}

impl MultiClassJsp {
    /// Creates the instance, validating the budget and that the prior's
    /// label count matches the pool's.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPriorVector`] on a label-count mismatch
    /// and [`ModelError::InvalidCost`] on a bad budget.
    pub fn new(pool: MatrixPool, budget: f64, prior: CategoricalPrior) -> ModelResult<Self> {
        if prior.num_choices() != pool.num_choices() {
            return Err(ModelError::InvalidPriorVector {
                reason: format!(
                    "prior has {} classes but the pool votes over {}",
                    prior.num_choices(),
                    pool.num_choices()
                ),
            });
        }
        // The shadow instance carries ids, costs, and the budget; the binary
        // prior slot is unused (the objective owns the categorical prior).
        let instance = JspInstance::new(pool.shadow_pool(), budget, Prior::uniform())?;
        Ok(MultiClassJsp {
            pool,
            prior,
            instance,
        })
    }

    /// The shadow [`JspInstance`] the binary solvers operate on.
    pub fn instance(&self) -> &JspInstance {
        &self.instance
    }

    /// The confusion-matrix candidate pool.
    pub fn pool(&self) -> &MatrixPool {
        &self.pool
    }

    /// The categorical prior.
    pub fn prior(&self) -> &CategoricalPrior {
        &self.prior
    }

    /// Builds the multi-class BV objective for this instance (with default
    /// bucket and incremental configurations).
    pub fn objective(&self) -> MultiClassBvObjective {
        MultiClassBvObjective::new(self.pool.clone(), self.prior.clone())
            .expect("instance construction already validated the dimensions")
    }

    /// Resolves a shadow jury returned by a solver back into the full
    /// confusion-matrix jury.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownWorker`] for foreign ids and
    /// [`ModelError::Empty`] for the empty jury.
    pub fn matrix_jury(&self, jury: &Jury) -> ModelResult<MatrixJury> {
        self.pool.jury(&jury.ids())
    }
}

/// The Section 7 objective `JQ(J, BV, ~α)` over a [`MatrixPool`], usable by
/// every solver in this crate through the shadow-jury convention described
/// in the [module docs](crate::multiclass).
///
/// The binary `prior` argument of [`JuryObjective::evaluate`] is ignored —
/// the categorical prior is part of the objective's identity.
#[derive(Debug)]
pub struct MultiClassBvObjective {
    pool: MatrixPool,
    prior: CategoricalPrior,
    bucket: MultiClassBucketConfig,
    incremental: MultiClassIncrementalConfig,
    exact_votings: u64,
    session_pool_cutoff: usize,
    evaluations: AtomicU64,
}

impl MultiClassBvObjective {
    /// Creates the objective with default configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPriorVector`] when the prior's label
    /// count does not match the pool's.
    pub fn new(pool: MatrixPool, prior: CategoricalPrior) -> ModelResult<Self> {
        if prior.num_choices() != pool.num_choices() {
            return Err(ModelError::InvalidPriorVector {
                reason: format!(
                    "prior has {} classes but the pool votes over {}",
                    prior.num_choices(),
                    pool.num_choices()
                ),
            });
        }
        Ok(MultiClassBvObjective {
            pool,
            prior,
            bucket: MultiClassBucketConfig::default(),
            incremental: MultiClassIncrementalConfig::default(),
            exact_votings: DEFAULT_MULTICLASS_EXACT_VOTINGS,
            session_pool_cutoff: DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF,
            evaluations: AtomicU64::new(0),
        })
    }

    /// Sets the scratch bucket configuration used by batch evaluations.
    pub fn with_bucket_config(mut self, bucket: MultiClassBucketConfig) -> Self {
        self.bucket = bucket;
        self
    }

    /// Sets the incremental engine configuration used by sessions.
    pub fn with_incremental_config(mut self, incremental: MultiClassIncrementalConfig) -> Self {
        self.incremental = incremental;
        self
    }

    /// Sets the exact-enumeration cutoff (`ℓ^n` votings) of batch
    /// evaluations.
    pub fn with_exact_votings(mut self, votings: u64) -> Self {
        self.exact_votings = votings;
        self
    }

    /// Sets the largest pool size that gets a [`BatchSession`] instead of
    /// the incremental engine (see [`DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF`]
    /// for the crossover rationale).
    pub fn with_session_pool_cutoff(mut self, cutoff: usize) -> Self {
        self.session_pool_cutoff = cutoff;
        self
    }

    /// The confusion-matrix candidate pool this objective scores against.
    pub fn pool(&self) -> &MatrixPool {
        &self.pool
    }

    /// The categorical prior (part of the objective's identity).
    pub fn prior(&self) -> &CategoricalPrior {
        &self.prior
    }

    /// The scratch bucket configuration batch evaluations use.
    pub fn bucket_config(&self) -> MultiClassBucketConfig {
        self.bucket
    }

    /// The incremental engine configuration sessions use.
    pub fn incremental_config(&self) -> MultiClassIncrementalConfig {
        self.incremental
    }

    /// The exact-enumeration voting-space cutoff of batch evaluations.
    pub fn exact_votings(&self) -> u64 {
        self.exact_votings
    }

    /// The largest pool size that gets a [`BatchSession`] instead of the
    /// incremental engine.
    pub fn session_pool_cutoff(&self) -> usize {
        self.session_pool_cutoff
    }

    /// `ℓ^n`, saturating.
    fn votings(&self, jurors: usize) -> u64 {
        (self.pool.num_choices() as u64).saturating_pow(jurors.min(u32::MAX as usize) as u32)
    }

    /// Whether a search over `candidates` pool members runs on the
    /// incremental engine under this objective's configuration — true
    /// exactly when the pool is past both the session crossover cutoff and
    /// the exact voting-space cutoff. This is the single source of the
    /// gating that [`JuryObjective::incremental_session`] applies; serving
    /// layers use it to decide whether a pool *requires* the incremental
    /// engine.
    pub fn session_required(&self, candidates: usize) -> bool {
        candidates > self.session_pool_cutoff && self.votings(candidates) > self.exact_votings
    }

    /// The JQ of the empty jury: Bayesian voting answers the prior argmax.
    fn prior_argmax_mass(&self) -> f64 {
        self.prior.probs().iter().copied().fold(0.0f64, f64::max)
    }
}

impl JuryObjective for MultiClassBvObjective {
    fn name(&self) -> &'static str {
        "JQ(BV, multi-class)"
    }

    fn evaluate(&self, jury: &Jury, _prior: Prior) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        // Shadow juries reference pool members by id; foreign ids cannot be
        // scored and contribute nothing.
        let members: Vec<_> = jury
            .ids()
            .into_iter()
            .filter_map(|id| self.pool.get(id).ok().cloned())
            .collect();
        if members.is_empty() {
            return self.prior_argmax_mass();
        }
        let votings = self.votings(members.len());
        let matrix_jury = match MatrixJury::new(members) {
            Ok(jury) => jury,
            Err(_) => return self.prior_argmax_mass(),
        };
        let value = if votings <= self.exact_votings {
            exact_multiclass_bv_jq(&matrix_jury, &self.prior).ok()
        } else {
            None
        };
        value
            .or_else(|| approx_multiclass_bv_jq(&matrix_jury, &self.prior, self.bucket).ok())
            .unwrap_or_else(|| self.prior_argmax_mass())
    }

    fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Box<dyn IncrementalSession + 'a> {
        // Pools whose whole voting space fits the exact cutoff score every
        // candidate by exact enumeration anyway, and below the crossover
        // pool size the sparse scratch DP beats the dense boxes outright —
        // the quantized session only pays off beyond both bounds.
        let batch = BatchSession::new(self, instance.prior());
        if !self.session_required(instance.num_candidates()) {
            return Box::new(batch);
        }
        match IncrementalMultiClassJq::for_pool(self.pool.workers(), &self.prior, self.incremental)
        {
            Ok(engine) => Box::new(MultiClassSession {
                engine: Some(engine),
                twin: batch,
                objective: self,
            }),
            Err(_) => Box::new(batch),
        }
    }
}

/// [`IncrementalSession`] over `JQ(J, BV, ~α)` via
/// [`IncrementalMultiClassJq`]. Shadow workers are resolved back to their
/// confusion matrices by id. A push or pop the engine cannot honour
/// (foreign id or cell-budget overflow — neither can happen for juries
/// drawn from the pool the session was sized for) drops the engine; the
/// session then answers from a [`BatchSession`] twin it keeps in step, so
/// it never loses track of the jury.
struct MultiClassSession<'a> {
    engine: Option<IncrementalMultiClassJq>,
    twin: BatchSession<'a, MultiClassBvObjective>,
    objective: &'a MultiClassBvObjective,
}

impl MultiClassSession<'_> {
    fn push_engine(&mut self, worker: &Worker) {
        if let Some(engine) = &mut self.engine {
            let pushed = match self.objective.pool.get(worker.id()) {
                Ok(member) => engine.push_worker(member).is_ok(),
                Err(_) => false,
            };
            if !pushed {
                self.engine = None;
            }
        }
    }
}

impl IncrementalSession for MultiClassSession<'_> {
    fn push(&mut self, worker: &Worker) {
        self.twin.push(worker);
        self.push_engine(worker);
    }

    fn restore(&mut self, worker: &Worker) {
        self.twin.restore(worker);
        self.push_engine(worker);
    }

    fn pop(&mut self, worker: &Worker) -> bool {
        if !self.twin.pop(worker) {
            return false;
        }
        if let Some(engine) = &mut self.engine {
            if engine.pop_id(worker.id()).is_err() {
                self.engine = None;
            }
        }
        true
    }

    fn value(&self) -> f64 {
        match &self.engine {
            Some(engine) => {
                self.objective.evaluations.fetch_add(1, Ordering::Relaxed);
                engine.jq()
            }
            None => self.twin.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annealing::{AnnealingConfig, AnnealingSolver};
    use crate::exhaustive::ExhaustiveSolver;
    use crate::greedy::GreedyMarginalSolver;
    use crate::solver::JurySolver;
    use crate::tabu::TabuSolver;

    /// A deliberately coarse-but-fast configuration for unit tests.
    fn fast_incremental() -> MultiClassIncrementalConfig {
        MultiClassIncrementalConfig::default().with_num_buckets(12)
    }

    /// A session-enabled objective on a coarse grid: the 14-candidate test
    /// pool sits below the production crossover cutoff, so tests lower it
    /// to exercise the session path cheaply.
    fn session_objective(problem: &MultiClassJsp) -> MultiClassBvObjective {
        problem
            .objective()
            .with_incremental_config(fast_incremental())
            .with_session_pool_cutoff(8)
    }

    fn fast_annealing() -> AnnealingConfig {
        AnnealingConfig::default()
            .with_epsilon(1e-4)
            .with_restarts(2)
    }

    fn big_pool() -> MatrixPool {
        let qualities: Vec<f64> = (0..14).map(|i| 0.5 + 0.03 * (i % 12) as f64).collect();
        let costs: Vec<f64> = (0..14).map(|i| 1.0 + (i % 4) as f64 * 0.5).collect();
        MatrixPool::from_qualities_and_costs(&qualities, &costs, 3).unwrap()
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let pool = MatrixPool::from_qualities_and_costs(&[0.8, 0.7], &[1.0, 1.0], 3).unwrap();
        let prior = CategoricalPrior::uniform(4).unwrap();
        assert!(MultiClassJsp::new(pool.clone(), 2.0, prior.clone()).is_err());
        assert!(MultiClassBvObjective::new(pool.clone(), prior).is_err());
        assert!(MultiClassJsp::new(pool, -1.0, CategoricalPrior::uniform(3).unwrap()).is_err());
    }

    #[test]
    fn empty_and_foreign_juries_score_the_prior_argmax() {
        let pool = MatrixPool::from_qualities_and_costs(&[0.8, 0.7], &[1.0, 1.0], 3).unwrap();
        let prior = CategoricalPrior::new(vec![0.2, 0.5, 0.3]).unwrap();
        let objective = MultiClassBvObjective::new(pool, prior).unwrap();
        assert!((objective.evaluate(&Jury::empty(), Prior::uniform()) - 0.5).abs() < 1e-12);
        let foreign = Jury::new(vec![Worker::free(jury_model::WorkerId(99), 0.9).unwrap()]);
        assert!((objective.evaluate(&foreign, Prior::uniform()) - 0.5).abs() < 1e-12);
        assert_eq!(objective.evaluations(), 2);
        assert_eq!(objective.name(), "JQ(BV, multi-class)");
    }

    #[test]
    fn exhaustive_beats_or_matches_every_heuristic_on_a_small_pool() {
        let pool = MatrixPool::from_qualities_and_costs(&[0.9, 0.6, 0.7, 0.8, 0.65], &[2.0; 5], 3)
            .unwrap();
        let prior = CategoricalPrior::uniform(3).unwrap();
        let problem = MultiClassJsp::new(pool, 6.0, prior).unwrap();
        let optimal = ExhaustiveSolver::new(problem.objective()).solve(problem.instance());
        let annealed = AnnealingSolver::with_config(problem.objective(), fast_annealing())
            .solve(problem.instance());
        let greedy = GreedyMarginalSolver::new(problem.objective()).solve(problem.instance());
        assert!(problem.instance().is_feasible(&optimal.jury));
        assert!(annealed.objective_value <= optimal.objective_value + 1e-9);
        assert!(greedy.objective_value <= optimal.objective_value + 1e-9);
        // Uniform costs: the annealing search (with its greedy top-quality
        // candidate) finds the exact optimum on this tiny pool. Marginal
        // greedy may tie-break onto a weaker third member — two-juror BV
        // plateaus at the stronger juror's accuracy, so round-two extensions
        // can all look equal — but must stay within a few points.
        assert!((annealed.objective_value - optimal.objective_value).abs() < 1e-9);
        assert!(greedy.objective_value >= optimal.objective_value - 0.05);
        // The selected jury resolves back to its confusion matrices.
        let matrix_jury = problem.matrix_jury(&optimal.jury).unwrap();
        assert_eq!(matrix_jury.size(), optimal.jury.size());
    }

    #[test]
    fn annealing_drives_the_incremental_session_on_large_pools() {
        let problem =
            MultiClassJsp::new(big_pool(), 4.0, CategoricalPrior::uniform(3).unwrap()).unwrap();
        let n = problem.instance().num_candidates();
        let prior = problem.instance().prior();
        let members = &problem.instance().pool().workers()[..5];
        let jury = Jury::new(members.to_vec());

        // Above the (lowered) crossover cutoff the session runs the engine:
        // its reads match a bare engine fed the same members bit for bit,
        // and the coarse test grid keeps those apart from `evaluate`.
        let objective = session_objective(&problem);
        assert!(objective.session_required(n));
        let mut session = objective.incremental_session(problem.instance());
        let mut engine = IncrementalMultiClassJq::for_pool(
            objective.pool.workers(),
            &objective.prior,
            fast_incremental(),
        )
        .unwrap();
        for worker in members {
            session.push(worker);
            engine
                .push_worker(objective.pool.get(worker.id()).unwrap())
                .unwrap();
        }
        assert_eq!(session.value().to_bits(), engine.jq().to_bits());
        assert_ne!(
            engine.jq().to_bits(),
            objective.evaluate(&jury, prior).to_bits()
        );

        // At the production default this pool gets a batch session.
        let classic_objective = problem.objective();
        assert!(!classic_objective.session_required(n));
        let mut batch = classic_objective.incremental_session(problem.instance());
        for worker in members {
            batch.push(worker);
        }
        assert_eq!(
            batch.value().to_bits(),
            classic_objective.evaluate(&jury, prior).to_bits()
        );

        let incremental =
            AnnealingSolver::with_config(session_objective(&problem), fast_annealing())
                .solve(problem.instance());
        let incremental_again =
            AnnealingSolver::with_config(session_objective(&problem), fast_annealing())
                .solve(problem.instance());
        let classic = AnnealingSolver::with_config(problem.objective(), fast_annealing())
            .solve(problem.instance());

        assert!(problem.instance().is_feasible(&incremental.jury));
        assert!(!incremental.jury.is_empty());
        assert_eq!(
            incremental.jury.ids(),
            incremental_again.jury.ids(),
            "incremental guidance must stay deterministic"
        );
        // Both searches are re-scored by the same batch objective; the
        // session only steers, so the results must land close together.
        assert!(
            (incremental.objective_value - classic.objective_value).abs() < 0.05,
            "incremental {} vs classic {}",
            incremental.objective_value,
            classic.objective_value
        );
        assert!(incremental.evaluations > 0);
    }

    #[test]
    fn a_session_whose_engine_fails_answers_by_batch_evaluation() {
        let problem =
            MultiClassJsp::new(big_pool(), 4.0, CategoricalPrior::uniform(3).unwrap()).unwrap();
        let objective = session_objective(&problem);
        assert!(objective.session_required(problem.instance().num_candidates()));
        let workers = problem.instance().pool().workers();
        // A shadow worker the matrix pool lacks: the engine cannot push it.
        let foreign = Worker::new(jury_model::WorkerId(999), 0.95, 1.0).unwrap();

        let mut session = objective.incremental_session(problem.instance());
        let mut members = vec![workers[0].clone(), workers[1].clone(), foreign.clone()];
        for worker in &members {
            session.push(worker);
        }
        let check = |session: &dyn IncrementalSession, members: &[Worker]| {
            let direct = objective.evaluate(&Jury::new(members.to_vec()), Prior::uniform());
            assert_eq!(session.value().to_bits(), direct.to_bits());
        };
        check(&*session, &members);
        session.push(&workers[2]);
        members.push(workers[2].clone());
        check(&*session, &members);
        assert!(session.pop(&workers[1]));
        members.remove(1);
        check(&*session, &members);
        assert!(session.pop(&foreign));
        members.retain(|w| w.id() != foreign.id());
        check(&*session, &members);
        assert!(!session.pop(&foreign), "double pop must fail");
        drop(session);

        // Searches over a pool holding that worker recover the same way.
        let mut shadow = workers.to_vec();
        shadow.push(foreign);
        let pool = jury_model::WorkerPool::from_workers(shadow).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 4.0).unwrap();
        let results = [
            AnnealingSolver::with_config(session_objective(&problem), fast_annealing())
                .solve(&instance),
            TabuSolver::new(session_objective(&problem)).solve(&instance),
        ];
        for result in results {
            assert!(instance.is_feasible(&result.jury), "{}", result.solver);
            let direct = objective.evaluate(&result.jury, Prior::uniform());
            assert_eq!(result.objective_value.to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn marginal_greedy_probes_through_the_session() {
        let problem =
            MultiClassJsp::new(big_pool(), 5.0, CategoricalPrior::uniform(3).unwrap()).unwrap();
        let a = GreedyMarginalSolver::new(session_objective(&problem)).solve(problem.instance());
        let b = GreedyMarginalSolver::new(session_objective(&problem)).solve(problem.instance());
        assert!(problem.instance().is_feasible(&a.jury));
        assert!(!a.jury.is_empty());
        assert_eq!(a.jury.ids(), b.jury.ids());
        assert!(a.evaluations > 0);
        assert!(a.objective_value >= 1.0 / 3.0);
    }

    #[test]
    fn two_class_pools_agree_with_the_binary_objective() {
        use crate::objective::BvObjective;
        let qualities = [0.9, 0.6, 0.6, 0.75];
        let costs = [1.0; 4];
        let pool = MatrixPool::from_qualities_and_costs(&qualities, &costs, 2).unwrap();
        let problem = MultiClassJsp::new(pool, 3.0, CategoricalPrior::uniform(2).unwrap()).unwrap();
        let multi = ExhaustiveSolver::new(problem.objective()).solve(problem.instance());

        let binary_pool =
            jury_model::WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let binary_instance = JspInstance::with_uniform_prior(binary_pool, 3.0).unwrap();
        let binary = ExhaustiveSolver::new(BvObjective::new()).solve(&binary_instance);

        assert_eq!(multi.jury.ids(), binary.jury.ids());
        assert!(
            (multi.objective_value - binary.objective_value).abs() < 1e-9,
            "multi {} vs binary {}",
            multi.objective_value,
            binary.objective_value
        );
    }
}
