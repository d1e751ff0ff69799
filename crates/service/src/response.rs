//! Selection responses: what the service reports back for a request —
//! binary ([`SelectionResponse`]), multi-class
//! ([`MultiClassSelectionResponse`]), either-kind batch slots
//! ([`MixedResponse`]), and the online repair loop's [`RepairResponse`].

use std::time::Duration;

use jury_model::{Jury, MatrixJury, MatrixWorker, WorkerId};
use jury_stream::SelectionId;

use crate::request::{SolverPolicy, Strategy};

/// The outcome of a successfully served [`crate::SelectionRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionResponse {
    /// The selected jury (empty only when the request allowed it).
    pub jury: Jury,
    /// The jury's estimated quality under the requested strategy.
    pub quality: f64,
    /// The jury's cost (what the caller actually pays).
    pub cost: f64,
    /// The strategy the selection optimized.
    pub strategy: Strategy,
    /// The policy the request asked for.
    pub policy: SolverPolicy,
    /// The concrete solver that ran (e.g. `"exhaustive"`).
    pub solver: &'static str,
    /// Objective evaluations requested by the search.
    pub evaluations: u64,
    /// How many of those evaluations were served by the shared JQ cache.
    pub cache_hits: u64,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

impl SelectionResponse {
    /// The selected workers' ids, sorted.
    pub fn worker_ids(&self) -> Vec<WorkerId> {
        let mut ids = self.jury.ids();
        ids.sort();
        ids
    }

    /// Number of selected workers.
    pub fn jury_size(&self) -> usize {
        self.jury.size()
    }
}

/// The outcome of a successfully served
/// [`crate::MultiClassSelectionRequest`] — shaped exactly like
/// [`SelectionResponse`], with confusion-matrix members instead of a binary
/// jury (and no strategy field: multi-class selection always optimizes
/// Bayesian voting).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClassSelectionResponse {
    /// The selected workers with their confusion matrices (empty only when
    /// the request allowed it).
    pub members: Vec<MatrixWorker>,
    /// The jury's estimated `JQ(J, BV, ~α)`.
    pub quality: f64,
    /// The jury's cost (what the caller actually pays).
    pub cost: f64,
    /// The policy the request asked for.
    pub policy: SolverPolicy,
    /// The concrete solver that ran (e.g. `"simulated-annealing"`).
    pub solver: &'static str,
    /// Objective evaluations requested by the search (incremental-session
    /// probes included).
    pub evaluations: u64,
    /// How many of those evaluations were served by the shared JQ cache.
    pub cache_hits: u64,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

impl MultiClassSelectionResponse {
    /// The selected workers' ids, sorted.
    pub fn worker_ids(&self) -> Vec<WorkerId> {
        let mut ids: Vec<WorkerId> = self.members.iter().map(|w| w.id()).collect();
        ids.sort();
        ids
    }

    /// Number of selected workers.
    pub fn jury_size(&self) -> usize {
        self.members.len()
    }

    /// The selected jury as a [`MatrixJury`], or `None` for the empty jury
    /// (which `MatrixJury` cannot represent).
    pub fn matrix_jury(&self) -> Option<MatrixJury> {
        MatrixJury::new(self.members.clone()).ok()
    }
}

/// A response of either kind, matching the [`crate::MixedRequest`] slot it
/// answers.
#[derive(Debug, Clone, PartialEq)]
pub enum MixedResponse {
    /// The outcome of a binary request slot.
    Binary(SelectionResponse),
    /// The outcome of a multi-class request slot.
    MultiClass(MultiClassSelectionResponse),
}

impl MixedResponse {
    /// The binary response, if this slot held a binary request.
    pub fn as_binary(&self) -> Option<&SelectionResponse> {
        match self {
            MixedResponse::Binary(response) => Some(response),
            MixedResponse::MultiClass(_) => None,
        }
    }

    /// The multi-class response, if this slot held a multi-class request.
    pub fn as_multi_class(&self) -> Option<&MultiClassSelectionResponse> {
        match self {
            MixedResponse::MultiClass(response) => Some(response),
            MixedResponse::Binary(_) => None,
        }
    }
}

/// What a [`crate::JuryService::repair`] call did to a tracked jury.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The jury was left as handed out — either its fresh quality is still
    /// within the drift threshold of the baseline, or no swap or push could
    /// improve it.
    Unchanged,
    /// The incremental swap session patched the jury in place, within the
    /// original budget.
    Patched {
        /// Member-for-candidate swaps committed by the repair search.
        swaps: usize,
        /// Additional members pushed into unused budget.
        pushes: usize,
    },
    /// The greedy patch stayed stuck below the drift threshold, so the
    /// instance was re-solved cold and the re-solve won.
    Resolved,
}

/// The outcome of repairing one tracked selection against fresh registry
/// estimates ([`crate::JuryService::repair`] /
/// [`crate::JuryService::repair_batch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairResponse {
    /// The drift-detector ledger id of the repaired selection.
    pub id: SelectionId,
    /// What the repair did.
    pub outcome: RepairOutcome,
    /// The jury after repair (identical members when
    /// [`RepairOutcome::Unchanged`]).
    pub jury: Jury,
    /// The jury's quality under the fresh estimates.
    pub quality: f64,
    /// The quality the selection was promised at before this repair (its
    /// previous baseline).
    pub previous_baseline: f64,
    /// The repaired jury's cost (never exceeds the tracked budget).
    pub cost: f64,
    /// The registry epoch of the estimates the repair ran against — the
    /// selection's new baseline epoch.
    pub epoch: u64,
    /// Objective evaluations requested by the repair (incremental-session
    /// probes included).
    pub evaluations: u64,
    /// How many of those evaluations were served by the shared JQ cache.
    pub cache_hits: u64,
    /// Whether a repair deadline cut the swap search short (see
    /// [`crate::JuryService::repair_with_deadline`]). The committed jury is
    /// still never worse than the pre-repair baseline — the search only
    /// commits improving moves — it just may have stopped before finding
    /// every improvement.
    pub truncated: bool,
    /// Wall-clock time of the repair.
    pub elapsed: Duration,
}

impl RepairResponse {
    /// The repaired jury's worker ids, sorted.
    pub fn worker_ids(&self) -> Vec<WorkerId> {
        let mut ids = self.jury.ids();
        ids.sort();
        ids
    }

    /// Number of members after repair.
    pub fn jury_size(&self) -> usize {
        self.jury.size()
    }

    /// Whether the repair changed the jury's members.
    pub fn changed(&self) -> bool {
        !matches!(self.outcome, RepairOutcome::Unchanged)
    }

    /// Signed quality movement committed by this repair:
    /// `quality − previous_baseline`.
    pub fn delta(&self) -> f64 {
        self.quality - self.previous_baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_reflect_the_jury() {
        let jury = Jury::from_qualities(&[0.9, 0.6]).unwrap();
        let response = SelectionResponse {
            jury,
            quality: 0.9,
            cost: 0.0,
            strategy: Strategy::Bv,
            policy: SolverPolicy::Auto,
            solver: "exhaustive",
            evaluations: 4,
            cache_hits: 0,
            elapsed: Duration::from_millis(1),
        };
        assert_eq!(response.jury_size(), 2);
        assert_eq!(response.worker_ids().len(), 2);
    }

    #[test]
    fn multiclass_accessors_reflect_the_members() {
        let pool =
            jury_model::MatrixPool::from_qualities_and_costs(&[0.9, 0.7], &[2.0, 1.0], 3).unwrap();
        let response = MultiClassSelectionResponse {
            members: pool.workers().to_vec(),
            quality: 0.8,
            cost: 3.0,
            policy: SolverPolicy::Auto,
            solver: "exhaustive",
            evaluations: 7,
            cache_hits: 1,
            elapsed: Duration::from_millis(1),
        };
        assert_eq!(response.jury_size(), 2);
        assert_eq!(response.worker_ids().len(), 2);
        let jury = response.matrix_jury().unwrap();
        assert_eq!(jury.size(), 2);
        assert_eq!(jury.num_choices(), 3);

        let empty = MultiClassSelectionResponse {
            members: Vec::new(),
            ..response.clone()
        };
        assert!(empty.matrix_jury().is_none());
        assert_eq!(empty.jury_size(), 0);

        let mixed = MixedResponse::MultiClass(response);
        assert!(mixed.as_multi_class().is_some());
        assert!(mixed.as_binary().is_none());
    }

    #[test]
    fn repair_accessors_report_change_and_delta() {
        let response = RepairResponse {
            id: SelectionId(3),
            outcome: RepairOutcome::Patched {
                swaps: 1,
                pushes: 0,
            },
            jury: Jury::from_qualities(&[0.9, 0.8]).unwrap(),
            quality: 0.9,
            previous_baseline: 0.8,
            cost: 0.0,
            epoch: 12,
            evaluations: 5,
            cache_hits: 1,
            truncated: false,
            elapsed: Duration::from_millis(1),
        };
        assert!(response.changed());
        assert!((response.delta() - 0.1).abs() < 1e-12);
        assert_eq!(response.jury_size(), 2);

        let unchanged = RepairResponse {
            outcome: RepairOutcome::Unchanged,
            ..response
        };
        assert!(!unchanged.changed());
    }
}
