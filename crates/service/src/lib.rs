//! # jury-service
//!
//! The fallible, batch-first selection service API over the Jury Selection
//! Problem solvers of *"On Optimality of Jury Selection in Crowdsourcing"*
//! (EDBT 2015).
//!
//! The historical system layer exposed two near-duplicate structs (`Optjs` /
//! `Mvjs`) that solved one instance at a time and panicked on invalid
//! budgets. This crate replaces that surface with a request/response API
//! designed for serving:
//!
//! * [`SelectionRequest`] (a binary-accuracy pool, prior, and
//!   [`Strategy`] `Bv`/`Mv`) and [`MultiClassSelectionRequest`] (the
//!   Section 7 confusion-matrix [`jury_model::MatrixPool`] and categorical
//!   prior) — builders sharing one set of serving knobs: budget,
//!   [`SolverPolicy`] (`Auto`/`Exact`/`Annealing`/`Greedy`/`Portfolio`),
//!   optional per-request [`ServiceConfig`] overrides, deadline, and
//!   evaluation cap;
//! * [`JuryService::select`] / [`JuryService::select_multiclass`] — **one
//!   serving pipeline** for both kinds, returning a `Result` whose error is
//!   a [`ServiceError`]; **nothing on the request path panics**. The kinds
//!   differ only in prior validation, the cache-backed objective (the
//!   multi-class one scores full confusion matrices while the solvers move
//!   the pool's shadow projection, with `IncrementalMultiClassJq` sessions
//!   past the measured crossover), and the response shape;
//! * [`JuryService::select_batch`] / [`JuryService::select_multiclass_batch`]
//!   / [`JuryService::select_mixed_batch`] — one data-parallel batch body
//!   across worker threads for either kind or both side by side, with
//!   per-request error reporting and one shared JQ evaluation store: one
//!   map behind one read/write lock, keyed by quantized jury signature
//!   ([`jury_jq::signature`]) — binary entries under
//!   [`jury_jq::jury_signature`], multi-class entries under
//!   [`jury_jq::multiclass_signature`], disjoint by construction and
//!   accounted per kind in [`CacheStats`] ([`JuryService::cache_stats`]);
//! * **deadline-aware serving** — every request can carry a wall-clock
//!   deadline ([`SelectionRequest::with_deadline`]) or an evaluation cap;
//!   solvers poll a cheap [`SearchBudget`] token at cooperative checkpoints
//!   and stop early with the best feasible jury found so far, surfaced as
//!   [`ServiceError::DeadlineExceeded`] with an **anytime** `best_so_far`
//!   payload (and as a truncation flag on sweeps and repairs);
//! * [`JuryService::budget_quality_table`] and
//!   [`JuryService::multiclass_budget_quality_table`] — one Figure 1
//!   budget–quality sweep for both kinds, routed by [`SweepPolicy`]: cold
//!   per-budget solves, a warm marginal sweep, or a warm **annealing**
//!   sweep that seeds each budget with the previous budget's jury;
//! * [`JuryService::drift_scan`] / [`JuryService::repair`] /
//!   [`JuryService::repair_batch`] — the **online serving loop** over
//!   `jury-stream`: answers fold into a streaming
//!   [`jury_stream::WorkerRegistry`], a [`jury_stream::DriftDetector`]
//!   re-scores handed-out juries against fresh snapshots through the shared
//!   JQ cache, and flagged juries are patched in place by the incremental
//!   swap search (`jury_selection::repair_jury`) under their original
//!   budget, with a cold re-solve fallback — outcomes come back as typed
//!   [`RepairOutcome`]s.
//!
//! Both paper systems are now *configurations* of one generic engine: the
//! solvers are generic over `jury_selection::JuryObjective`, and the service
//! provides a single cache-backed objective per request kind (the binary
//! one covering both strategies): OPTJS is a request under
//! [`Strategy::Bv`], MVJS the same request under [`Strategy::Mv`].
//!
//! ```
//! use jury_model::{paper_example_pool, Prior};
//! use jury_service::{JuryService, SelectionRequest, Strategy};
//!
//! let service = JuryService::paper_experiments();
//!
//! // The paper's running example: budget 15 selects {B, C, G} at 84.5 %.
//! let request = SelectionRequest::new(paper_example_pool(), 15.0)
//!     .with_prior(Prior::uniform());
//! let response = service.select(&request).unwrap();
//! assert!((response.quality - 0.845).abs() < 1e-9);
//!
//! // Invalid input is an error value, not a panic.
//! let bad = SelectionRequest::new(paper_example_pool(), -1.0);
//! assert!(service.select(&bad).is_err());
//!
//! // Batches run in parallel and share the JQ cache.
//! let batch = vec![request.clone(), bad, request];
//! let results = service.select_batch(&batch);
//! assert!(results[0].is_ok() && results[1].is_err() && results[2].is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod error;
pub mod repair;
pub mod request;
pub mod response;
pub mod service;

// The batch engine fans out through the same lane runner as the threaded
// solvers: one source file, compiled privately into both crates.
#[path = "../../selection/src/parallel/lanes.rs"]
mod lanes;

pub use cache::{CacheKindStats, CacheStats};
pub use config::{ServiceConfig, SweepPolicy};
pub use error::ServiceError;
pub use jury_selection::SearchBudget;
pub use request::{
    MixedRequest, MultiClassSelectionRequest, SelectionRequest, SolverPolicy, Strategy,
};
pub use response::{
    MixedResponse, MultiClassSelectionResponse, RepairOutcome, RepairResponse, SelectionResponse,
};
pub use service::JuryService;
