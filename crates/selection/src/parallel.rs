//! Intra-solve parallel execution: the lane policy, the lane runner shared
//! by every threaded path, the cross-lane best-so-far bound, and the
//! per-lane arena adapter.
//!
//! The serving stack has been data-parallel across *requests* since the
//! batch engine landed; this module makes a *single* large solve
//! multi-core. Three solvers take a [`ParallelPolicy`], and each has **one**
//! search body written against the lane runner, whatever the lane count:
//!
//! * [`crate::PortfolioSolver`] deals its members round-robin onto lanes;
//!   each lane races its members at restart-unit granularity. A single lane
//!   drives the solver's own objective; spawned lanes each drive an
//!   [`ArenaObjective`] over a private [`jury_jq::JqScratch`] arena, all
//!   sharing one evaluation counter;
//! * [`crate::RestartSolver`] runs restarts `t, t + lanes, …` on lane `t` —
//!   a restart's planting is a pure function of its index, so the candidate
//!   set never depends on the lane count, and one fold replays the restart
//!   order;
//! * [`crate::GreedyMarginalSolver`] splits each forward-selection round's
//!   probes across lanes and picks the round winner by one pool-order scan
//!   over the collected values.
//!
//! [`ParallelPolicy::Sequential`] is simply the one-lane case: the runner
//! calls the body on the calling thread, with no spawn, no atomics and no
//! extra clock reads.
//!
//! **Determinism contract.** An *unbudgeted* run returns the same jury and
//! value at every lane count: each lane replays its units exactly as one
//! lane would, and the folds restore the one-lane order. A *budgeted* run
//! is anytime by contract, not a replay. On more than one lane under a
//! limited budget, the portfolio also publishes a [`SharedBestBound`] that
//! lets lanes cut work that provably cannot win: tabu aspiration against
//! the cross-lane best, and a restart member skipping the final re-score
//! of a provably losing planting. One lane never reads the bound.

use std::sync::atomic::{AtomicU64, Ordering};

use jury_jq::SharedJqScratch;
use jury_model::{Jury, Prior};

use crate::objective::{IncrementalSession, JuryObjective};
use crate::problem::JspInstance;

mod lanes;
pub(crate) use lanes::run_lanes;

/// How a solver spreads one solve across lanes (scoped OS threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParallelPolicy {
    /// One lane, run on the calling thread (no thread spawns, no atomic
    /// or clock reads beyond the solver's own). The default.
    #[default]
    Sequential,
    /// Spread the solve's independent units (portfolio members, restart
    /// units, greedy probes) across this many lanes, one scoped OS thread
    /// each; `0` means one per available CPU core. A policy that resolves
    /// to one lane — `Threads(1)`, or `Threads(0)` on a one-core host — is
    /// exactly [`Sequential`](Self::Sequential).
    Threads(usize),
}

impl ParallelPolicy {
    /// The number of lanes for `work_items` independent units: 1 for
    /// [`Sequential`](Self::Sequential), otherwise the configured count
    /// (`0` resolved to the available parallelism), clamped to the unit
    /// count so no lane starts idle.
    #[must_use]
    pub fn lanes(&self, work_items: usize) -> usize {
        match *self {
            ParallelPolicy::Sequential => 1,
            ParallelPolicy::Threads(n) => {
                let configured = if n == 0 {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                } else {
                    n
                };
                configured.clamp(1, work_items.max(1))
            }
        }
    }
}

/// A cross-lane best-so-far JQ bound: lanes publish each batch-scored
/// improvement, so other lanes can cut work that provably cannot win.
///
/// JQ values live in `[0, 1]`, where the IEEE-754 bit pattern of an `f64`
/// is monotone in the value — `fetch_max` on the raw bits is a lock-free
/// floating-point max. The bound starts at `0.0` (below any real jury
/// quality), so no cut can trigger before a lane has published a real
/// batch value.
///
/// Publishing uses `Relaxed` ordering: the bound is a heuristic pruning
/// hint, never a synchronization edge — a stale read only costs a wasted
/// probe, never correctness.
#[derive(Debug, Default)]
pub struct SharedBestBound {
    bits: AtomicU64,
}

impl SharedBestBound {
    /// Creates a bound at `0.0` (below every reachable jury quality).
    #[must_use]
    pub fn new() -> Self {
        SharedBestBound::default()
    }

    /// Publishes a batch-scored jury quality; keeps the running maximum.
    /// Negative or NaN values are ignored (their bit patterns would not
    /// order monotonically).
    pub fn observe(&self, value: f64) {
        if value >= 0.0 {
            self.bits.fetch_max(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The best value published so far (`0.0` before any publication).
    #[must_use]
    pub fn current(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A per-lane view of a shared objective: delegates evaluation (and the
/// shared evaluation counter) to the inner objective, but hands out
/// incremental sessions backed by this lane's **own** scratch arena.
///
/// This is what gives each portfolio lane its private `JqScratch`: the
/// inner objective's shared arena is never locked from the lane's hot
/// loop, and once a lane has paid its warm-up, reopening sessions across
/// restart units is allocation-free within the lane (asserted by
/// `crates/selection/tests/zero_alloc.rs`).
#[derive(Debug)]
pub struct ArenaObjective<'o, O: JuryObjective> {
    inner: &'o O,
    arena: &'o SharedJqScratch,
}

impl<'o, O: JuryObjective> ArenaObjective<'o, O> {
    /// Wraps the shared objective with a lane-owned arena. The arena is
    /// borrowed (not owned) so the spawning side can keep it past the
    /// lane's lifetime and hand its warm buffers back to a parent arena
    /// via [`SharedJqScratch::absorb`] when the lane retires.
    pub fn new(inner: &'o O, arena: &'o SharedJqScratch) -> Self {
        ArenaObjective { inner, arena }
    }

    /// The lane's arena.
    pub fn arena(&self) -> &SharedJqScratch {
        self.arena
    }
}

impl<O: JuryObjective> JuryObjective for ArenaObjective<'_, O> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        self.inner.evaluate(jury, prior)
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Box<dyn IncrementalSession + 'a> {
        self.inner.incremental_session_in(instance, self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::BvObjective;
    use jury_model::WorkerPool;

    #[test]
    fn sequential_policy_never_spawns() {
        assert_eq!(ParallelPolicy::Sequential.lanes(100), 1);
        assert_eq!(ParallelPolicy::default(), ParallelPolicy::Sequential);
        // One lane runs on the calling thread.
        let caller = std::thread::current().id();
        assert_eq!(
            run_lanes(1, |lane| (lane, std::thread::current().id())),
            vec![(0, caller)]
        );
    }

    #[test]
    fn thread_lanes_clamp_to_the_work() {
        assert_eq!(ParallelPolicy::Threads(8).lanes(3), 3);
        assert_eq!(ParallelPolicy::Threads(2).lanes(100), 2);
        assert_eq!(ParallelPolicy::Threads(4).lanes(0), 1);
        assert!(ParallelPolicy::Threads(0).lanes(64) >= 1);
        // Lane results come back in lane order.
        assert_eq!(run_lanes(3, |lane| lane * 10), vec![0, 10, 20]);
    }

    #[test]
    fn bound_is_a_lock_free_float_max() {
        let bound = SharedBestBound::new();
        assert_eq!(bound.current(), 0.0);
        bound.observe(0.7);
        bound.observe(0.6);
        assert!((bound.current() - 0.7).abs() < 1e-15);
        bound.observe(0.93);
        assert!((bound.current() - 0.93).abs() < 1e-15);
        // Garbage is ignored rather than corrupting the maximum.
        bound.observe(f64::NAN);
        bound.observe(-1.0);
        assert!((bound.current() - 0.93).abs() < 1e-15);
    }

    #[test]
    fn arena_objective_delegates_and_uses_its_own_arena() {
        let qualities: Vec<f64> = (0..20).map(|i| 0.55 + 0.02 * (i % 10) as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 20]).unwrap();
        let instance = JspInstance::with_uniform_prior(pool.clone(), 8.0).unwrap();
        let inner = BvObjective::new();
        let arena = SharedJqScratch::new();
        let lane = ArenaObjective::new(&inner, &arena);

        assert_eq!(lane.name(), inner.name());
        let jury = Jury::new(pool.workers()[..3].to_vec());
        let direct = inner.evaluate(&jury, Prior::uniform());
        let via_lane = lane.evaluate(&jury, Prior::uniform());
        assert!((direct - via_lane).abs() < 1e-15);
        assert_eq!(lane.evaluations(), inner.evaluations());

        // Sessions exist past the exact cutoff and recycle into the lane's
        // arena, not the inner objective's.
        {
            let mut session = lane.incremental_session(&instance);
            session.push(&pool.workers()[0]);
            assert!(session.value() > 0.0);
            assert!(session.pop(&pool.workers()[0]));
        }
        assert!(lane.arena().lock().buffers_held() > 0);
    }
}
