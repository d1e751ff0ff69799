//! Objectives: the quantity a JSP solver maximizes over feasible juries.
//!
//! OPTJS maximizes the jury quality under Bayesian voting (the optimal
//! strategy, Theorem 1); the MVJS baseline of Cao et al. maximizes the jury
//! quality under majority voting. Both are exposed behind one trait so the
//! search algorithms (exhaustive, greedy, simulated annealing) are agnostic
//! to the strategy being optimized — which is precisely the ablation the
//! paper's Figure 6 performs.
//!
//! Besides the batch [`JuryObjective::evaluate`] entry point, every
//! objective opens an [`IncrementalSession`]: a stateful evaluator that
//! mutates one worker at a time. Where an engine pays off
//! (`jury_jq::IncrementalJq` / `jury_jq::IncrementalMvJq` underneath), a
//! neighbourhood search pays `O(buckets)` per candidate jury instead of
//! rebuilding the whole JQ dynamic program; BV pools within the exact
//! cutoff run `jury_jq::ExactBvJq`, which keeps exact enumeration's bits;
//! everywhere else the session is a [`BatchSession`] that answers through
//! `evaluate`. Solvers therefore have one probe path — push, value, pop —
//! whatever the objective. [`JuryObjective::scoring_session`] is the
//! session exhaustive enumeration walks: its values are the objective's
//! own, bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};

use jury_jq::{
    BucketJqConfig, ExactBvJq, IncrementalJq, IncrementalJqConfig, IncrementalMvJq, JqEngine,
    JqScratch, SharedJqScratch,
};
use jury_model::{Jury, Prior, Worker, WorkerId};

use crate::problem::JspInstance;

/// A stateful, incremental evaluation session opened from a
/// [`JuryObjective`].
///
/// The session tracks one jury; `push`/`pop` mutate it by a single worker
/// and `value` reports the objective of the *current* state. Engine-backed
/// sessions exist to accelerate neighbourhood searches: their values may be
/// quantized (the BV engine works on a fixed bucket grid), so solvers score
/// final candidates through [`JuryObjective::evaluate`] and use the session
/// only to steer the search.
pub trait IncrementalSession {
    /// Adds one worker to the tracked jury.
    fn push(&mut self, worker: &Worker);

    /// Removes a previously pushed worker. Returns `false`, leaving the
    /// state untouched, for a worker the session does not hold. Solvers pop
    /// only what they pushed, so for them a pop always succeeds.
    fn pop(&mut self, worker: &Worker) -> bool;

    /// Pushes back `worker`, which the caller popped to probe a neighbour,
    /// undoing that pop. The default is [`push`](Self::push);
    /// [`BatchSession`] also puts the worker back in the place it left, so
    /// a probe leaves its member order — and with it the summation order of
    /// `value` — as it was.
    fn restore(&mut self, worker: &Worker) {
        self.push(worker);
    }

    /// The objective value of the current jury state.
    fn value(&self) -> f64;
}

/// The session of an objective without an incremental engine for the pool:
/// it keeps the members in push order (a restored worker goes back to its
/// old place) and answers [`value`] through the objective's own
/// [`JuryObjective::evaluate`], so every read is counted (and, for a
/// caching objective, memoized) like any batch evaluation.
///
/// [`value`]: IncrementalSession::value
pub struct BatchSession<'a, O: JuryObjective + ?Sized> {
    objective: &'a O,
    prior: Prior,
    members: Vec<Worker>,
    /// Where each popped worker was, for [`IncrementalSession::restore`]
    /// (the latest pop per id).
    vacated: Vec<(WorkerId, usize)>,
}

impl<'a, O: JuryObjective + ?Sized> BatchSession<'a, O> {
    /// An empty session scoring juries under `prior`.
    pub fn new(objective: &'a O, prior: Prior) -> Self {
        BatchSession {
            objective,
            prior,
            members: Vec::new(),
            vacated: Vec::new(),
        }
    }

    /// The tracked members, in push order.
    pub fn members(&self) -> &[Worker] {
        &self.members
    }
}

impl<O: JuryObjective + ?Sized> IncrementalSession for BatchSession<'_, O> {
    fn push(&mut self, worker: &Worker) {
        self.members.push(worker.clone());
    }

    fn pop(&mut self, worker: &Worker) -> bool {
        // `remove`, not `swap_remove`: the survivors keep their push order,
        // which fixes the summation order of `value`.
        match self.members.iter().rposition(|m| m.id() == worker.id()) {
            Some(position) => {
                self.members.remove(position);
                self.vacated.retain(|&(id, _)| id != worker.id());
                self.vacated.push((worker.id(), position));
                true
            }
            None => false,
        }
    }

    fn restore(&mut self, worker: &Worker) {
        match self.vacated.iter().position(|&(id, _)| id == worker.id()) {
            Some(slot) => {
                let (_, position) = self.vacated.swap_remove(slot);
                let position = position.min(self.members.len());
                self.members.insert(position, worker.clone());
            }
            None => self.push(worker),
        }
    }

    fn value(&self) -> f64 {
        self.objective
            .evaluate(&Jury::new(self.members.clone()), self.prior)
    }
}

/// An objective function over juries.
pub trait JuryObjective: Send + Sync {
    /// Short name used in reports (e.g. `"JQ(BV)"`).
    fn name(&self) -> &'static str;

    /// Evaluates the objective for a jury under the given prior. Larger is
    /// better; values are jury qualities in `[0, 1]`.
    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64;

    /// Number of evaluations performed so far (used to report search
    /// effort); incremental-session evaluations count too.
    fn evaluations(&self) -> u64;

    /// Opens an incremental evaluation session for juries drawn from the
    /// instance's pool. Objectives with an engine that pays off for the
    /// pool return an engine-backed session; the rest — and this default —
    /// return a [`BatchSession`] over `self`.
    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Box<dyn IncrementalSession + 'a> {
        Box::new(BatchSession::new(self, instance.prior()))
    }

    /// Opens a session whose [`value`](IncrementalSession::value) is the
    /// objective's own computation for the members in push order: what
    /// [`evaluate`](Self::evaluate) of an uncached objective returns for
    /// that jury, bit for bit. Exhaustive enumeration walks juries through
    /// it. The default is a [`BatchSession`] over `self`; objectives with
    /// an exact push/pop engine for the instance return that instead.
    fn scoring_session<'a>(&'a self, instance: &JspInstance) -> Box<dyn IncrementalSession + 'a> {
        Box::new(BatchSession::new(self, instance.prior()))
    }

    /// Like [`incremental_session`](Self::incremental_session), but draws
    /// the engine's buffers from a caller-owned arena instead of the
    /// objective's shared one — the hook the parallel solvers use to give
    /// each lane its own warm `JqScratch` (no lock contention between
    /// lanes' hot loops). The default ignores the arena and opens a plain
    /// session, which is correct for objectives without arena-backed
    /// engines.
    fn incremental_session_in<'a>(
        &'a self,
        instance: &JspInstance,
        _arena: &'a SharedJqScratch,
    ) -> Box<dyn IncrementalSession + 'a> {
        self.incremental_session(instance)
    }
}

// Objectives work by shared reference too, so one (stateful, counting)
// objective can be handed to several solvers in sequence — e.g.
// `jury-service` running exhaustive and greedy candidates against a single
// cache-backed objective and reading the combined counters afterwards.
impl<O: JuryObjective + ?Sized> JuryObjective for &O {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        (**self).evaluate(jury, prior)
    }

    fn evaluations(&self) -> u64 {
        (**self).evaluations()
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Box<dyn IncrementalSession + 'a> {
        (**self).incremental_session(instance)
    }

    fn scoring_session<'a>(&'a self, instance: &JspInstance) -> Box<dyn IncrementalSession + 'a> {
        (**self).scoring_session(instance)
    }

    fn incremental_session_in<'a>(
        &'a self,
        instance: &JspInstance,
        arena: &'a SharedJqScratch,
    ) -> Box<dyn IncrementalSession + 'a> {
        (**self).incremental_session_in(instance, arena)
    }
}

/// Test wrapper that forwards only `name`, `evaluate` and `evaluations`,
/// so it gets the trait's default [`BatchSession`]: the same objective
/// with every probe scored by batch evaluation.
#[cfg(test)]
pub(crate) struct BatchOnly<O>(pub(crate) O);

#[cfg(test)]
impl<O: JuryObjective> JuryObjective for BatchOnly<O> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        self.0.evaluate(jury, prior)
    }

    fn evaluations(&self) -> u64 {
        self.0.evaluations()
    }
}

/// A JQ engine an arena-backed session drives: one worker at a time in,
/// one out, and its buffers back to the arena at the end.
trait SessionEngine: Sized + 'static {
    fn push(&mut self, worker: &Worker);
    fn pop(&mut self, worker: &Worker) -> bool;
    fn restore(&mut self, worker: &Worker) {
        self.push(worker);
    }
    fn value(&self, prior: Prior) -> f64;
    fn recycle(self, arena: &mut JqScratch);
}

impl SessionEngine for IncrementalJq {
    fn push(&mut self, worker: &Worker) {
        self.push_worker(worker);
    }

    fn pop(&mut self, worker: &Worker) -> bool {
        self.pop_worker(worker).is_ok()
    }

    /// The prior is folded in at construction.
    fn value(&self, _prior: Prior) -> f64 {
        self.jq()
    }

    fn recycle(self, arena: &mut JqScratch) {
        IncrementalJq::recycle(self, arena);
    }
}

impl SessionEngine for IncrementalMvJq {
    fn push(&mut self, worker: &Worker) {
        self.push_worker(worker);
    }

    fn pop(&mut self, worker: &Worker) -> bool {
        self.pop_worker(worker).is_ok()
    }

    fn value(&self, prior: Prior) -> f64 {
        self.jq(prior)
    }

    fn recycle(self, arena: &mut JqScratch) {
        IncrementalMvJq::recycle(self, arena);
    }
}

impl SessionEngine for ExactBvJq {
    fn push(&mut self, worker: &Worker) {
        self.push_worker(worker);
    }

    fn pop(&mut self, worker: &Worker) -> bool {
        self.pop_worker(worker).is_ok()
    }

    fn restore(&mut self, worker: &Worker) {
        self.restore_worker(worker);
    }

    fn value(&self, prior: Prior) -> f64 {
        self.jq(prior)
    }

    fn recycle(self, arena: &mut JqScratch) {
        ExactBvJq::recycle(self, arena);
    }
}

/// [`IncrementalSession`] over a [`SessionEngine`], with evaluations
/// ticking a caller-owned counter.
///
/// The engine lives in an `Option` only so `Drop` can move it back into the
/// shared scratch arena; it is `Some` for the whole usable life of the
/// session.
struct EngineSession<'a, E: SessionEngine> {
    engine: Option<E>,
    scratch: &'a SharedJqScratch,
    prior: Prior,
    evaluations: &'a AtomicU64,
}

impl<'a, E: SessionEngine> EngineSession<'a, E> {
    fn boxed(
        engine: E,
        scratch: &'a SharedJqScratch,
        prior: Prior,
        evaluations: &'a AtomicU64,
    ) -> Box<dyn IncrementalSession + 'a> {
        Box::new(EngineSession {
            engine: Some(engine),
            scratch,
            prior,
            evaluations,
        })
    }

    fn engine_mut(&mut self) -> &mut E {
        self.engine.as_mut().expect("engine is present until drop")
    }
}

impl<E: SessionEngine> IncrementalSession for EngineSession<'_, E> {
    fn push(&mut self, worker: &Worker) {
        self.engine_mut().push(worker);
    }

    fn pop(&mut self, worker: &Worker) -> bool {
        self.engine_mut().pop(worker)
    }

    fn restore(&mut self, worker: &Worker) {
        self.engine_mut().restore(worker);
    }

    fn value(&self) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.engine
            .as_ref()
            .expect("engine is present until drop")
            .value(self.prior)
    }
}

impl<E: SessionEngine> Drop for EngineSession<'_, E> {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            engine.recycle(&mut self.scratch.lock());
        }
    }
}

/// The BV search session for `instance`, ticking `evaluations` on every
/// `value` call — the one place that routes BV neighbourhood searches.
/// Pools within `engine`'s exact cutoff get the exact session: their juries
/// evaluate by exact enumeration anyway, and a quantized grid would only
/// trade precision for nothing there. Larger pools get the bucket-grid
/// incremental session. Both engines' buffers come from `arena` and go back
/// to it when the session drops. Shared by [`BvObjective`] and other
/// crates' BV objectives (e.g. `jury-service`'s cache-backed one).
pub fn bv_search_session_in<'a>(
    engine: &JqEngine,
    instance: &JspInstance,
    evaluations: &'a AtomicU64,
    arena: &'a SharedJqScratch,
) -> Box<dyn IncrementalSession + 'a> {
    if instance.num_candidates() <= engine.exact_cutoff() {
        return exact_bv_session_in(instance, evaluations, arena);
    }
    bv_incremental_session_in(
        instance,
        *engine.bucket_estimator().config(),
        evaluations,
        arena,
    )
}

/// The exact BV scoring session for `instance`, when it reproduces
/// `engine` bit for bit: when no affordable jury exceeds the exact cutoff,
/// every value is exact enumeration, which the exact session computes
/// without signing or storing a jury. `None` otherwise — the caller then
/// scores through its batch path. The one place that routes BV scoring.
pub fn bv_exact_scoring_session_in<'a>(
    engine: &JqEngine,
    instance: &JspInstance,
    evaluations: &'a AtomicU64,
    arena: &'a SharedJqScratch,
) -> Option<Box<dyn IncrementalSession + 'a>> {
    (instance.max_jury_size() <= engine.exact_cutoff())
        .then(|| exact_bv_session_in(instance, evaluations, arena))
}

/// Builds a BV incremental session for the instance's juries on the grid
/// induced by `bucket`, ticking `evaluations` on every `value` call. The
/// grid is resolved for [`JspInstance::max_jury_size`] — every jury a
/// search over the instance can hold — not for the whole pool. The engine's
/// buffers come from a shared scratch arena and go back to it when the
/// session drops, so with a warm arena opening and closing sessions is
/// allocation-free (up to the session `Box` itself).
fn bv_incremental_session_in<'a>(
    instance: &JspInstance,
    bucket: BucketJqConfig,
    evaluations: &'a AtomicU64,
    scratch: &'a SharedJqScratch,
) -> Box<dyn IncrementalSession + 'a> {
    let config = IncrementalJqConfig::default()
        .with_buckets(bucket.buckets)
        .with_kernel_mode(bucket.kernel);
    let engine = IncrementalJq::for_pool_in(
        instance.pool(),
        instance.prior(),
        config,
        instance.max_jury_size(),
        &mut scratch.lock(),
    );
    EngineSession::boxed(engine, scratch, instance.prior(), evaluations)
}

/// Builds an MV incremental session, arena-backed like
/// [`bv_search_session_in`]. The MV engine is exact, so it has no grid to
/// size.
pub fn mv_incremental_session_in<'a>(
    prior: Prior,
    evaluations: &'a AtomicU64,
    scratch: &'a SharedJqScratch,
) -> Box<dyn IncrementalSession + 'a> {
    let engine = IncrementalMvJq::new_in(&mut scratch.lock());
    EngineSession::boxed(engine, scratch, prior, evaluations)
}

/// Builds an exact BV session ([`ExactBvJq`]), arena-backed like
/// [`bv_incremental_session_in`] and sized for
/// [`JspInstance::max_jury_size`]. Its values are `exact_bv_jq` of the
/// members in order, bit for bit — what [`JqEngine::bv_jq`] returns for
/// every jury within its exact cutoff.
fn exact_bv_session_in<'a>(
    instance: &JspInstance,
    evaluations: &'a AtomicU64,
    scratch: &'a SharedJqScratch,
) -> Box<dyn IncrementalSession + 'a> {
    let engine = ExactBvJq::new_in(instance.max_jury_size(), &mut scratch.lock());
    EngineSession::boxed(engine, scratch, instance.prior(), evaluations)
}

/// The OPTJS objective: `JQ(J, BV, α)`, computed by the [`JqEngine`]
/// (exact enumeration for tiny juries, bucket approximation otherwise).
#[derive(Debug, Default)]
pub struct BvObjective {
    engine: JqEngine,
    evaluations: AtomicU64,
    scratch: SharedJqScratch,
}

impl BvObjective {
    /// Creates the objective with the default engine.
    pub fn new() -> Self {
        BvObjective::default()
    }

    /// Creates the objective with a specific bucket configuration — the
    /// experiments use the paper's `numBuckets = 50`.
    pub fn with_config(config: BucketJqConfig) -> Self {
        BvObjective {
            engine: JqEngine::new(config),
            evaluations: AtomicU64::new(0),
            scratch: SharedJqScratch::new(),
        }
    }

    /// Creates the objective around an existing engine.
    pub fn with_engine(engine: JqEngine) -> Self {
        BvObjective {
            engine,
            evaluations: AtomicU64::new(0),
            scratch: SharedJqScratch::new(),
        }
    }
}

impl JuryObjective for BvObjective {
    fn name(&self) -> &'static str {
        "JQ(BV)"
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.engine.bv_jq(jury, prior).value
    }

    fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Box<dyn IncrementalSession + 'a> {
        self.incremental_session_in(instance, &self.scratch)
    }

    fn scoring_session<'a>(&'a self, instance: &JspInstance) -> Box<dyn IncrementalSession + 'a> {
        bv_exact_scoring_session_in(&self.engine, instance, &self.evaluations, &self.scratch)
            .unwrap_or_else(|| Box::new(BatchSession::new(self, instance.prior())))
    }

    fn incremental_session_in<'a>(
        &'a self,
        instance: &JspInstance,
        arena: &'a SharedJqScratch,
    ) -> Box<dyn IncrementalSession + 'a> {
        bv_search_session_in(&self.engine, instance, &self.evaluations, arena)
    }
}

/// The MVJS objective: `JQ(J, MV, α)` via the exact Poisson-binomial dynamic
/// program.
#[derive(Debug, Default)]
pub struct MvObjective {
    engine: JqEngine,
    evaluations: AtomicU64,
    scratch: SharedJqScratch,
}

impl MvObjective {
    /// Creates the objective.
    pub fn new() -> Self {
        MvObjective::default()
    }
}

impl JuryObjective for MvObjective {
    fn name(&self) -> &'static str {
        "JQ(MV)"
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.engine.mv_jq(jury, prior).value
    }

    fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Box<dyn IncrementalSession + 'a> {
        self.incremental_session_in(instance, &self.scratch)
    }

    fn incremental_session_in<'a>(
        &'a self,
        instance: &JspInstance,
        arena: &'a SharedJqScratch,
    ) -> Box<dyn IncrementalSession + 'a> {
        // The MV session is exact (no quantization) and strictly cheaper
        // than the scratch Poisson-binomial DP, so it is always worthwhile.
        mv_incremental_session_in(instance.prior(), &self.evaluations, arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bv_objective_matches_paper_example() {
        let obj = BvObjective::new();
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let jq = obj.evaluate(&jury, Prior::uniform());
        assert!((jq - 0.9).abs() < 1e-9);
        assert_eq!(obj.evaluations(), 1);
        assert_eq!(obj.name(), "JQ(BV)");
    }

    #[test]
    fn mv_objective_matches_paper_example() {
        let obj = MvObjective::new();
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let jq = obj.evaluate(&jury, Prior::uniform());
        assert!((jq - 0.792).abs() < 1e-12);
        assert_eq!(obj.evaluations(), 1);
        assert_eq!(obj.name(), "JQ(MV)");
    }

    #[test]
    fn bv_dominates_mv_on_the_same_jury() {
        let bv = BvObjective::new();
        let mv = MvObjective::new();
        let jury = Jury::from_qualities(&[0.85, 0.6, 0.55, 0.7, 0.9]).unwrap();
        for alpha in [0.3, 0.5, 0.7] {
            let prior = Prior::new(alpha).unwrap();
            assert!(bv.evaluate(&jury, prior) >= mv.evaluate(&jury, prior) - 1e-9);
        }
    }

    #[test]
    fn evaluation_counter_accumulates() {
        let obj = BvObjective::with_config(BucketJqConfig::paper_experiments());
        let jury = Jury::from_qualities(&[0.7, 0.8]).unwrap();
        for _ in 0..5 {
            obj.evaluate(&jury, Prior::uniform());
        }
        assert_eq!(obj.evaluations(), 5);
    }

    #[test]
    fn bv_sessions_are_gated_by_the_exact_cutoff() {
        // Within the cutoff the session is the exact one: its values are
        // `exact_bv_jq` of the members in order — the objective's own, bit
        // for bit — and its buffers go back to the objective's arena.
        let obj = BvObjective::new();
        let small =
            JspInstance::with_uniform_prior(jury_model::paper_example_pool(), 15.0).unwrap();
        let members = &small.pool().workers()[..3];
        {
            let mut session = obj.incremental_session(&small);
            for worker in members {
                session.push(worker);
            }
            let jury = Jury::new(members.to_vec());
            let exact = jury_jq::exact_bv_jq(&jury, Prior::uniform()).unwrap();
            assert_eq!(session.value().to_bits(), exact.to_bits());
            let direct = obj.evaluate(&jury, Prior::uniform());
            assert_eq!(session.value().to_bits(), direct.to_bits());
        }
        let held = obj.scratch.lock().buffers_held();
        assert!(held > 0);

        // Past it the session runs the bucket engine, whose buffers go back
        // to the objective's arena on drop too.
        let big_pool =
            jury_model::WorkerPool::from_qualities_and_costs(&[0.7; 20], &[1.0; 20]).unwrap();
        let big = JspInstance::with_uniform_prior(big_pool, 5.0).unwrap();
        drop(obj.incremental_session(&big));
        assert!(obj.scratch.lock().buffers_held() >= held);
    }

    #[test]
    fn scoring_sessions_are_gated_by_the_largest_affordable_jury() {
        // 20 candidates, but no affordable jury exceeds the exact cutoff:
        // the scoring session is exact and matches `evaluate` bit for bit.
        let qualities: Vec<f64> = (0..20).map(|i| 0.55 + 0.02 * i as f64).collect();
        let pool =
            jury_model::WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 20]).unwrap();
        let obj = BvObjective::new();
        for budget in [5.0, 12.0, 15.0] {
            let instance = JspInstance::with_uniform_prior(pool.clone(), budget).unwrap();
            let members = &pool.workers()[3..3 + instance.max_jury_size().min(9)];
            let mut session = obj.scoring_session(&instance);
            for worker in members {
                session.push(worker);
            }
            let direct = obj.evaluate(&Jury::new(members.to_vec()), Prior::uniform());
            assert_eq!(
                session.value().to_bits(),
                direct.to_bits(),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn batch_session_keeps_member_order_and_rejects_unknown_pops() {
        let obj = MvObjective::new();
        let workers = jury_model::paper_example_pool().workers().to_vec();
        let mut session = BatchSession::new(&obj, Prior::uniform());
        for worker in &workers[..4] {
            session.push(worker);
        }
        assert!(session.pop(&workers[1]));
        assert!(!session.pop(&workers[1]), "double pop must fail");
        assert!(!session.pop(&workers[5]));
        let expected = [&workers[0], &workers[2], &workers[3]].map(|w| w.id());
        let held: Vec<_> = session.members().iter().map(|w| w.id()).collect();
        assert_eq!(held, expected);
        // A probe that pops a member, tries a newcomer and takes both back
        // leaves the order as it was.
        assert!(session.pop(&workers[2]));
        session.push(&workers[4]);
        assert!(session.pop(&workers[4]));
        session.restore(&workers[2]);
        let held: Vec<_> = session.members().iter().map(|w| w.id()).collect();
        assert_eq!(held, expected);
        let direct = obj.evaluate(&Jury::new(session.members().to_vec()), Prior::uniform());
        assert_eq!(session.value().to_bits(), direct.to_bits());
        assert_eq!(obj.evaluations(), 2, "session reads count as evaluations");
    }

    #[test]
    fn bv_session_tracks_evaluate_and_ticks_the_counter() {
        let obj = BvObjective::new();
        let pool = jury_model::WorkerPool::from_qualities_and_costs(
            &[
                0.9, 0.63, 0.6, 0.7, 0.8, 0.65, 0.75, 0.55, 0.72, 0.68, 0.81, 0.59, 0.62,
            ],
            &[1.0; 13],
        )
        .unwrap();
        let instance = JspInstance::with_uniform_prior(pool.clone(), 3.0).unwrap();
        let mut session = obj.incremental_session(&instance);
        let members = &pool.workers()[..3];
        for worker in members {
            session.push(worker);
        }
        let incremental = session.value();
        let exact = {
            let jury = Jury::new(members.to_vec());
            jury_jq::exact_bv_jq(&jury, Prior::uniform()).unwrap()
        };
        // Quantized guidance: within the (loose) analytic grid error.
        assert!(
            (incremental - exact).abs() < 1e-2,
            "session {incremental} vs exact {exact}"
        );
        assert!(session.pop(&members[2]));
        assert!(!session.pop(&members[2]), "double pop must fail");
        assert!(obj.evaluations() >= 1, "session values must be counted");
    }

    #[test]
    fn mv_session_is_exact_and_always_available() {
        let obj = MvObjective::new();
        let instance =
            JspInstance::with_uniform_prior(jury_model::paper_example_pool(), 15.0).unwrap();
        let mut session = obj.incremental_session(&instance);
        let workers = instance.pool().workers().to_vec();
        for worker in &workers[..3] {
            session.push(worker);
        }
        let jury = Jury::new(workers[..3].to_vec());
        let direct = obj.evaluate(&jury, Prior::uniform());
        assert!((session.value() - direct).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use jury_jq::bounds::{error_bound_per_worker, PAPER_RECOMMENDED_MULTIPLIER};
    use jury_model::{log_odds, WorkerPool};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Pools of 15–20 candidates: above `BvObjective::new()`'s exact
    /// cutoff (12), so it opens a bucket session.
    fn session_pool() -> impl Strategy<Value = WorkerPool> {
        proptest::collection::vec(((0.3f64..0.95), (0.5f64..2.0)), 15..21).prop_map(|pairs| {
            let (qualities, costs): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
        })
    }

    /// Walks random feasible juries through a budget-sized session and
    /// checks every value against exact enumeration within the §4.4 bound
    /// `e^{φ_max / 800} − 1` of the default `PerWorker(200)` grid.
    fn check_walk(instance: &JspInstance, seed: u64) -> Result<(), String> {
        let prior = instance.prior();
        let workers = instance.pool().workers();
        let mut phi_max = workers
            .iter()
            .map(|w| log_odds(w.effective_quality()))
            .fold(0.0f64, f64::max);
        if !prior.is_uniform() {
            phi_max = phi_max.max(log_odds(prior.alpha().max(1.0 - prior.alpha())));
        }
        let bound = error_bound_per_worker(phi_max, PAPER_RECOMMENDED_MULTIPLIER);

        let objective = BvObjective::new();
        let mut session = objective.incremental_session(instance);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut members: Vec<Worker> = Vec::new();
        let mut spent = 0.0;
        for _ in 0..24 {
            let grow = members.is_empty() || rng.gen_bool(0.65);
            if grow {
                let affordable: Vec<&Worker> = workers
                    .iter()
                    .filter(|w| {
                        !members.iter().any(|m| m.id() == w.id())
                            && spent + w.cost() <= instance.budget() + 1e-12
                    })
                    .collect();
                if affordable.is_empty() {
                    continue;
                }
                let worker = affordable[rng.gen_range(0..affordable.len())].clone();
                session.push(&worker);
                spent += worker.cost();
                members.push(worker);
            } else {
                let worker = members.swap_remove(rng.gen_range(0..members.len()));
                if !session.pop(&worker) {
                    return Err("session lost a member".into());
                }
                spent -= worker.cost();
            }
            let jury = Jury::new(members.clone());
            if !instance.is_feasible(&jury) || jury.size() > instance.max_jury_size() {
                return Err(format!(
                    "walk left the feasible set at {} members",
                    jury.size()
                ));
            }
            let exact = jury_jq::exact_bv_jq(&jury, prior).map_err(|e| e.to_string())?;
            let error = (session.value() - exact).abs();
            if error >= bound {
                return Err(format!(
                    "{} members: |session − exact| = {error} ≥ bound {bound}",
                    jury.size()
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn budget_sized_sessions_keep_the_paper_bound(
            pool in session_pool(),
            budget in 1.0f64..7.0,
            seed in 0u64..1_000_000,
        ) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            check_walk(&instance, seed)?;
        }

        #[test]
        fn budget_sized_sessions_keep_the_paper_bound_under_a_prior(
            pool in session_pool(),
            budget in 1.0f64..7.0,
            alpha in 0.1f64..0.9,
            seed in 0u64..1_000_000,
        ) {
            let prior = Prior::new(alpha).unwrap();
            let instance = JspInstance::new(pool, budget, prior).unwrap();
            check_walk(&instance, seed)?;
        }
    }
}
