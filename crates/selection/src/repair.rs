//! Online jury repair: greedy swap search over incremental sessions.
//!
//! A long-running service hands out juries and keeps streaming worker
//! answers; when the quality estimates drift, a previously optimal jury can
//! go stale. Re-solving from scratch answers "what is the best jury *now*"
//! but throws away the work already invested in the deployed jury — and in
//! practice drift is concentrated in a few degraded members. [`repair_jury`]
//! instead hill-climbs from the deployed jury under its original budget:
//! each round probes every single-worker **swap** (evict a member, admit an
//! outsider) and every affordable **push** (admit an outsider outright), and
//! commits the best strictly improving move. Every probe is a push, value,
//! pop on the objective's [`IncrementalSession`](crate::IncrementalSession),
//! which costs `O(buckets)` instead of a from-scratch JQ evaluation where
//! the objective has an engine for the pool, mirroring
//! [`crate::GreedyMarginalSolver`].
//!
//! The search is a local one: it terminates at a swap-stable jury, which on
//! uniform-cost pools (Lemma 2 territory) is the global optimum, but on
//! adversarial cost structures may not be. Callers that need a guarantee
//! compare the repaired value against a cold re-solve and keep the better
//! jury — that is exactly what `jury-service`'s repair endpoint does.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use jury_model::{Jury, ModelError, ModelResult, Worker, WorkerId};

use crate::budget::SearchBudget;
use crate::objective::JuryObjective;
use crate::problem::JspInstance;

/// Tuning knobs for [`repair_jury`].
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// Maximum number of committed moves (each round commits at most one
    /// swap or push). The default is far above what drift repair needs —
    /// hill climbing on real instances settles in a handful of moves.
    pub max_rounds: usize,
    /// A move must beat the current value by more than this to commit;
    /// matches the probe-tie tolerance of the greedy searches, so JQ
    /// plateaus (which are real) cannot make the search cycle.
    pub tolerance: f64,
    /// Cooperative compute budget checked between repair rounds. Because
    /// rounds only ever commit improving (or tie-push) moves, a repair cut
    /// short by the budget still never hands back a jury worse than the
    /// one it was given.
    pub budget: SearchBudget,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            max_rounds: 64,
            tolerance: 1e-9,
            budget: SearchBudget::unlimited(),
        }
    }
}

impl RepairConfig {
    /// Bounds the swap search with a cooperative compute budget; see
    /// [`RepairConfig::budget`].
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// What [`repair_jury`] did to the jury.
#[derive(Debug, Clone)]
pub struct RepairResult {
    /// The repaired jury (identical membership to the input when no move
    /// improved it).
    pub jury: Jury,
    /// Objective value of the repaired jury, scored through the batch
    /// objective (sessions are quantized guidance only).
    pub objective_value: f64,
    /// Objective value the *input* jury scores on the same (fresh) pool.
    pub initial_value: f64,
    /// Number of committed member-for-outsider swaps.
    pub swaps: usize,
    /// Number of committed budget-filling pushes.
    pub pushes: usize,
    /// Objective evaluations spent, incremental probes included.
    pub evaluations: u64,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// Whether [`RepairConfig::budget`] cut the swap search short. The
    /// jury is still at least as good as the input (only improving moves
    /// commit), just possibly not yet swap-stable.
    pub truncated: bool,
}

impl RepairResult {
    /// Whether the search changed the jury at all.
    pub fn changed(&self) -> bool {
        self.swaps + self.pushes > 0
    }

    /// Quality gained over the input jury (non-negative by construction).
    pub fn delta(&self) -> f64 {
        self.objective_value - self.initial_value
    }
}

/// A candidate move of one repair round.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Evict the member at jury position `member`, admit pool worker
    /// `candidate`.
    Swap { member: usize, candidate: usize },
    /// Admit pool worker `candidate` outright (budget still allows it).
    Push { candidate: usize },
}

/// Repairs a deployed jury against the instance's (fresh) pool under the
/// instance's budget: greedy hill climbing over single-worker swaps and
/// pushes, committing only strictly improving moves, until swap-stable.
///
/// `members` are the deployed jury's worker ids; every id must exist in the
/// instance's pool (the fresh snapshot re-estimates qualities but keeps
/// ids), otherwise [`ModelError::UnknownWorker`] is returned. Duplicate ids
/// are collapsed. The input jury may exceed the budget (costs can change
/// between snapshots); the search then only commits moves that do not
/// increase the overspend.
pub fn repair_jury<O: JuryObjective>(
    objective: &O,
    instance: &JspInstance,
    members: &[WorkerId],
    config: RepairConfig,
) -> ModelResult<RepairResult> {
    let start = Instant::now();
    let evaluations_before = objective.evaluations();
    let prior = instance.prior();
    let budget = instance.budget();
    let pool_workers = instance.pool().workers();

    let index_of: BTreeMap<WorkerId, usize> = pool_workers
        .iter()
        .enumerate()
        .map(|(i, w)| (w.id(), i))
        .collect();
    let mut in_jury = vec![false; pool_workers.len()];
    let mut jury_idx: Vec<usize> = Vec::with_capacity(members.len());
    for &id in members {
        let &index = index_of
            .get(&id)
            .ok_or(ModelError::UnknownWorker { id: id.raw() })?;
        if !in_jury[index] {
            in_jury[index] = true;
            jury_idx.push(index);
        }
    }
    let current_workers = |jury_idx: &[usize]| -> Vec<Worker> {
        jury_idx.iter().map(|&i| pool_workers[i].clone()).collect()
    };
    let mut spent: f64 = jury_idx.iter().map(|&i| pool_workers[i].cost()).sum();

    let initial_value = objective.evaluate(&Jury::new(current_workers(&jury_idx)), prior);

    // The session tracks the current jury; probes mutate it by one worker
    // and restore. Its grid is sized for the largest jury it will hold:
    // pushes stay within the budget and swaps keep the size, so that is the
    // larger of the largest affordable jury and the deployed one, which may
    // exceed the budget. A deployed jury of `m` members then gets the session of
    // an instance whose budget buys `m` of the cheapest worker. (Such a
    // jury admits no move: no push fits the budget, and a swap would need
    // a feasible jury of `m` members. Only the session's opening value
    // reads it, and that value stays within the bound.)
    let widened;
    let session_instance = match instance.cheapest_cost() {
        Some(cheapest) if jury_idx.len() > instance.max_jury_size() => {
            let covering = budget.max(jury_idx.len() as f64 * cheapest);
            widened = JspInstance::new(instance.pool().clone(), covering, prior)?;
            &widened
        }
        _ => instance,
    };
    let mut session = objective.incremental_session(session_instance);
    for &i in &jury_idx {
        session.push(&pool_workers[i]);
    }
    let mut current_value = session.value();

    let mut swaps = 0usize;
    let mut pushes = 0usize;
    let mut truncated = false;
    for _round in 0..config.max_rounds {
        // Cooperative checkpoint between rounds: the committed jury is
        // always a valid (never-worse) answer, so stopping here keeps the
        // anytime contract.
        if config.budget.exhausted(objective.evaluations()) {
            truncated = true;
            break;
        }
        let mut best: Option<(Move, f64)> = None;
        let mut best_push: Option<(Move, f64)> = None;
        let consider = |slot: &mut Option<(Move, f64)>, mv: Move, value: f64| {
            if slot.is_none_or(|(_, best_value)| value > best_value + config.tolerance) {
                *slot = Some((mv, value));
            }
        };

        // Phase 1: pushes — the budget may have head-room (a member got
        // cheaper, or the deployed jury never filled it).
        for (candidate, worker) in pool_workers.iter().enumerate() {
            if in_jury[candidate] || spent + worker.cost() > budget + 1e-12 {
                continue;
            }
            session.push(worker);
            let value = session.value();
            session.pop(worker);
            consider(&mut best, Move::Push { candidate }, value);
            consider(&mut best_push, Move::Push { candidate }, value);
        }

        // Phase 2: swaps — evict one member, admit one outsider, under the
        // original budget.
        for member in 0..jury_idx.len() {
            let member_worker = &pool_workers[jury_idx[member]];
            session.pop(member_worker);
            for (candidate, worker) in pool_workers.iter().enumerate() {
                if in_jury[candidate]
                    || spent - member_worker.cost() + worker.cost() > budget + 1e-12
                {
                    continue;
                }
                session.push(worker);
                let value = session.value();
                session.pop(worker);
                consider(&mut best, Move::Swap { member, candidate }, value);
            }
            session.restore(member_worker);
        }

        // A swap commits only when it strictly improves — a swap search
        // that commits ties could cycle between equal-valued juries. A
        // push, though, only grows the jury (no cycle possible) and JQ
        // plateaus are real, so like the forward selection a push still
        // commits on a tie; that keeps BV repairs filling the budget.
        let improving = best.filter(|&(_, value)| value > current_value + config.tolerance);
        let tie_push = best_push.filter(|&(_, value)| value >= current_value - config.tolerance);
        let Some((mv, _best_value)) = improving.or(tie_push) else {
            break;
        };
        match mv {
            Move::Push { candidate } => {
                in_jury[candidate] = true;
                spent += pool_workers[candidate].cost();
                jury_idx.push(candidate);
                session.push(&pool_workers[candidate]);
                pushes += 1;
            }
            Move::Swap { member, candidate } => {
                let evicted = jury_idx[member];
                in_jury[evicted] = false;
                in_jury[candidate] = true;
                spent += pool_workers[candidate].cost() - pool_workers[evicted].cost();
                jury_idx[member] = candidate;
                // The probe loop restored the member; re-apply the move
                // for real.
                session.pop(&pool_workers[evicted]);
                session.push(&pool_workers[candidate]);
                swaps += 1;
            }
        }
        current_value = session.value();
    }

    let jury = Jury::new(current_workers(&jury_idx));
    let objective_value = objective.evaluate(&jury, prior);
    Ok(RepairResult {
        jury,
        objective_value,
        initial_value,
        swaps,
        pushes,
        evaluations: objective.evaluations() - evaluations_before,
        elapsed: start.elapsed(),
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::objective::{BvObjective, MvObjective};
    use crate::solver::JurySolver;
    use jury_model::WorkerPool;

    fn uniform_pool(qualities: &[f64]) -> WorkerPool {
        WorkerPool::from_qualities_and_costs(qualities, &vec![1.0; qualities.len()]).unwrap()
    }

    #[test]
    fn repair_recovers_the_optimum_after_degradation() {
        // Deployed jury {0, 1, 2} was top-3 before worker 1 degraded to
        // 0.52; the fresh optimum is {0, 2, 3}. One swap must recover it.
        let fresh = uniform_pool(&[0.9, 0.52, 0.8, 0.85, 0.6]);
        let instance = JspInstance::with_uniform_prior(fresh, 3.0).unwrap();
        let objective = BvObjective::new();
        let result = repair_jury(
            &objective,
            &instance,
            &[WorkerId(0), WorkerId(1), WorkerId(2)],
            RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(result.swaps, 1);
        assert_eq!(result.pushes, 0);
        assert!(result.changed());
        assert!(result.delta() > 0.0);
        let mut ids = result.jury.ids();
        ids.sort();
        assert_eq!(ids, vec![WorkerId(0), WorkerId(2), WorkerId(3)]);
        let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
        assert!(
            (result.objective_value - optimal.objective_value).abs() < 1e-9,
            "repaired {} vs optimal {}",
            result.objective_value,
            optimal.objective_value
        );
    }

    #[test]
    fn repair_leaves_an_optimal_jury_unchanged() {
        let pool = uniform_pool(&[0.9, 0.8, 0.85, 0.6, 0.55]);
        let instance = JspInstance::with_uniform_prior(pool, 3.0).unwrap();
        let objective = BvObjective::new();
        let result = repair_jury(
            &objective,
            &instance,
            &[WorkerId(0), WorkerId(1), WorkerId(2)],
            RepairConfig::default(),
        )
        .unwrap();
        assert!(!result.changed());
        assert!((result.delta()).abs() < 1e-12);
        let mut ids = result.jury.ids();
        ids.sort();
        assert_eq!(ids, vec![WorkerId(0), WorkerId(1), WorkerId(2)]);
    }

    #[test]
    fn repair_fills_unused_budget_with_pushes() {
        // Deployed jury used 2 of 5 budget units on a pool where adding
        // more (BV-monotone) workers always helps.
        let pool = uniform_pool(&[0.9, 0.8, 0.7, 0.65, 0.6]);
        let instance = JspInstance::with_uniform_prior(pool, 5.0).unwrap();
        let objective = BvObjective::new();
        let result = repair_jury(
            &objective,
            &instance,
            &[WorkerId(0), WorkerId(1)],
            RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(result.jury.size(), 5);
        assert!(result.pushes >= 3);
        assert!(result.delta() > 0.0);
    }

    #[test]
    fn repair_rejects_unknown_members() {
        let pool = uniform_pool(&[0.9, 0.8]);
        let instance = JspInstance::with_uniform_prior(pool, 2.0).unwrap();
        let objective = BvObjective::new();
        let err = repair_jury(
            &objective,
            &instance,
            &[WorkerId(0), WorkerId(42)],
            RepairConfig::default(),
        );
        assert!(matches!(err, Err(ModelError::UnknownWorker { id: 42 })));
    }

    #[test]
    fn repair_drives_the_incremental_session_on_large_pools() {
        // 30 candidates is above the exact cutoff, so probes ride the
        // incremental session; the search must stay deterministic and only
        // improve on the deployed jury.
        let qualities: Vec<f64> = (0..30)
            .map(|i| {
                if i == 3 {
                    0.51
                } else {
                    0.55 + 0.012 * i as f64
                }
            })
            .collect();
        let pool = uniform_pool(&qualities);
        let instance = JspInstance::with_uniform_prior(pool, 4.0).unwrap();
        let objective = BvObjective::new();
        let members = [WorkerId(0), WorkerId(1), WorkerId(2), WorkerId(3)];
        let a = repair_jury(&objective, &instance, &members, RepairConfig::default()).unwrap();
        let b = repair_jury(&objective, &instance, &members, RepairConfig::default()).unwrap();
        assert_eq!(a.jury.ids(), b.jury.ids());
        assert!(instance.is_feasible(&a.jury));
        assert!(a.objective_value >= a.initial_value - 1e-9);
        assert!(a.swaps >= 1, "the 0.51 member should be evicted");
        assert!(a.evaluations > 0);
    }

    #[test]
    fn repair_respects_non_uniform_costs() {
        // Swapping in the 0.9 worker would blow the budget: the only
        // affordable improvement is the cheap 0.75 one.
        let pool =
            WorkerPool::from_qualities_and_costs(&[0.9, 0.6, 0.65, 0.75], &[10.0, 1.0, 1.0, 1.0])
                .unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 2.0).unwrap();
        let objective = BvObjective::new();
        let result = repair_jury(
            &objective,
            &instance,
            &[WorkerId(1), WorkerId(2)],
            RepairConfig::default(),
        )
        .unwrap();
        assert!(instance.is_feasible(&result.jury));
        assert!(result.jury.contains(WorkerId(3)));
        assert!(!result.jury.contains(WorkerId(0)));
    }

    #[test]
    fn repair_handles_the_mv_objective_and_empty_members() {
        // Empty deployment degenerates to forward selection; MV's session
        // is always available.
        let pool = uniform_pool(&[0.9, 0.55]);
        let instance = JspInstance::with_uniform_prior(pool, 2.0).unwrap();
        let objective = MvObjective::new();
        let result = repair_jury(&objective, &instance, &[], RepairConfig::default()).unwrap();
        assert!(!result.jury.is_empty());
        assert!(result.objective_value >= 0.9 - 1e-9);
    }

    #[test]
    fn duplicate_member_ids_collapse() {
        let pool = uniform_pool(&[0.9, 0.8, 0.7]);
        let instance = JspInstance::with_uniform_prior(pool, 2.0).unwrap();
        let objective = BvObjective::new();
        let result = repair_jury(
            &objective,
            &instance,
            &[WorkerId(0), WorkerId(0), WorkerId(1)],
            RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(result.jury.size(), 2);
    }
}
