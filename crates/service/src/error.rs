//! The service's error type: every way a selection request can fail,
//! reported as a value — the request path never panics.

use jury_model::ModelError;
use jury_selection::SolveError;

use crate::response::MixedResponse;

/// Why a [`crate::SelectionRequest`] could not be served.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The candidate pool contained no workers.
    EmptyPool,
    /// The budget was not a finite, strictly positive number.
    InvalidBudget {
        /// The offending budget.
        value: f64,
    },
    /// No single worker is affordable, so every feasible jury is empty.
    /// Only reported when the request does not opt into empty selections
    /// (see [`crate::SelectionRequest::allow_empty_selection`]).
    BudgetBelowCheapestWorker {
        /// The requested budget.
        budget: f64,
        /// The cheapest worker's cost.
        cheapest: f64,
    },
    /// The prior `α` was not a probability in `[0, 1]`.
    InvalidPrior {
        /// The offending value.
        value: f64,
    },
    /// A categorical prior vector was invalid (not a distribution, or its
    /// label count does not match the pool's).
    InvalidPriorVector {
        /// Why the vector was rejected.
        reason: String,
    },
    /// A multi-class request needs the incremental engine (the pool is past
    /// both the session crossover and the exact-enumeration cutoff), but
    /// even a one-bucket-per-worker grid would overflow the configured
    /// dense-box cell budget. Raise
    /// [`crate::ServiceConfig::multiclass_incremental`]'s `max_cells`, or
    /// shrink the pool.
    MultiClassStateTooLarge {
        /// Cells the coarsest possible grid would need.
        cells: u64,
        /// The configured cell budget.
        max: u64,
    },
    /// The request demanded the exact solver on a pool too large to
    /// enumerate.
    PoolTooLargeForExact {
        /// Number of candidates in the pool.
        size: usize,
        /// Largest pool the exact solver accepts.
        max: usize,
    },
    /// A repair was requested for a selection id the drift detector does
    /// not track (never handed out, or already untracked).
    UntrackedJury {
        /// The raw ledger id (see `jury_stream::SelectionId`).
        id: u64,
    },
    /// A tracked jury can no longer be scored or repaired against the
    /// current registry snapshot — typically a member disappeared from the
    /// registry since the jury was handed out.
    StaleJury {
        /// The raw ledger id (see `jury_stream::SelectionId`).
        id: u64,
        /// Why the jury went stale.
        reason: String,
    },
    /// The request's deadline (or evaluation cap) expired before the search
    /// finished. The search stops at its next cooperative checkpoint and
    /// hands back the best feasible jury found so far — the **anytime**
    /// contract: the partial answer is a valid, budget-respecting selection,
    /// just not necessarily the one an uncut search would have returned.
    DeadlineExceeded {
        /// The best feasible response found before the cutoff, when the
        /// search got far enough to have one (boxed: a full response is
        /// much larger than the other variants).
        best_so_far: Option<Box<MixedResponse>>,
    },
    /// A service-internal invariant broke while serving the request — e.g.
    /// a solver panicked on a batch worker thread. The shared store is
    /// unaffected (its locks do not poison) and the service stays usable;
    /// the panic is reported as this value instead of unwinding the batch.
    Internal {
        /// What broke, for diagnostics.
        reason: String,
    },
    /// A lower-level model invariant was violated.
    Model(ModelError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::EmptyPool => write!(f, "candidate pool is empty"),
            ServiceError::InvalidBudget { value } => {
                write!(f, "budget {value} must be a finite, positive number")
            }
            ServiceError::BudgetBelowCheapestWorker { budget, cheapest } => write!(
                f,
                "budget {budget} cannot afford any worker (cheapest costs {cheapest})"
            ),
            ServiceError::InvalidPrior { value } => {
                write!(f, "prior {value} is not a probability in [0, 1]")
            }
            ServiceError::InvalidPriorVector { reason } => {
                write!(f, "invalid categorical prior: {reason}")
            }
            ServiceError::MultiClassStateTooLarge { cells, max } => write!(
                f,
                "multi-class incremental state needs at least {cells} cells, \
                 exceeding the configured budget of {max}"
            ),
            ServiceError::PoolTooLargeForExact { size, max } => write!(
                f,
                "exact solving is limited to {max} candidates, the pool has {size}"
            ),
            ServiceError::UntrackedJury { id } => {
                write!(f, "selection#{id} is not tracked by the drift detector")
            }
            ServiceError::StaleJury { id, reason } => {
                write!(f, "selection#{id} is stale: {reason}")
            }
            ServiceError::DeadlineExceeded { best_so_far } => write!(
                f,
                "deadline exceeded before the search finished ({} partial result)",
                if best_so_far.is_some() {
                    "with a"
                } else {
                    "no"
                }
            ),
            ServiceError::Internal { reason } => {
                write!(f, "internal service error: {reason}")
            }
            ServiceError::Model(err) => write!(f, "model error: {err}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Model(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ModelError> for ServiceError {
    fn from(err: ModelError) -> Self {
        match err {
            ModelError::InvalidCost { value } => ServiceError::InvalidBudget { value },
            ModelError::InvalidPrior { value } => ServiceError::InvalidPrior { value },
            ModelError::InvalidPriorVector { reason } => {
                ServiceError::InvalidPriorVector { reason }
            }
            other => ServiceError::Model(other),
        }
    }
}

impl From<SolveError> for ServiceError {
    fn from(err: SolveError) -> Self {
        match err {
            SolveError::PoolTooLarge { size, max } => {
                ServiceError::PoolTooLargeForExact { size, max }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(ServiceError, &str)> = vec![
            (ServiceError::EmptyPool, "empty"),
            (ServiceError::InvalidBudget { value: -1.0 }, "budget"),
            (
                ServiceError::BudgetBelowCheapestWorker {
                    budget: 1.0,
                    cheapest: 2.0,
                },
                "cheapest",
            ),
            (ServiceError::InvalidPrior { value: 1.5 }, "prior"),
            (
                ServiceError::InvalidPriorVector {
                    reason: "3 classes vs 4".into(),
                },
                "categorical",
            ),
            (
                ServiceError::MultiClassStateTooLarge {
                    cells: 1 << 30,
                    max: 1 << 20,
                },
                "cells",
            ),
            (
                ServiceError::PoolTooLargeForExact { size: 30, max: 22 },
                "exact",
            ),
            (ServiceError::UntrackedJury { id: 4 }, "not tracked"),
            (
                ServiceError::StaleJury {
                    id: 4,
                    reason: "worker 7 left the registry".into(),
                },
                "stale",
            ),
            (
                ServiceError::DeadlineExceeded { best_so_far: None },
                "deadline",
            ),
            (
                ServiceError::Internal {
                    reason: "worker thread panicked".into(),
                },
                "internal",
            ),
            (
                ServiceError::Model(ModelError::Empty { what: "jury" }),
                "model error",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }

    #[test]
    fn conversions_map_to_specific_variants() {
        assert_eq!(
            ServiceError::from(ModelError::InvalidCost { value: -2.0 }),
            ServiceError::InvalidBudget { value: -2.0 }
        );
        assert_eq!(
            ServiceError::from(ModelError::InvalidPrior { value: 2.0 }),
            ServiceError::InvalidPrior { value: 2.0 }
        );
        assert_eq!(
            ServiceError::from(SolveError::PoolTooLarge { size: 30, max: 22 }),
            ServiceError::PoolTooLargeForExact { size: 30, max: 22 }
        );
        assert!(matches!(
            ServiceError::from(ModelError::Empty { what: "pool" }),
            ServiceError::Model(_)
        ));
        assert!(matches!(
            ServiceError::from(ModelError::InvalidPriorVector {
                reason: "mismatch".into()
            }),
            ServiceError::InvalidPriorVector { .. }
        ));
    }

    #[test]
    fn model_errors_expose_a_source() {
        use std::error::Error;
        let err = ServiceError::Model(ModelError::Empty { what: "pool" });
        assert!(err.source().is_some());
        assert!(ServiceError::EmptyPool.source().is_none());
    }
}
