//! Layer-by-layer replays of served requests, for the traced run.
//!
//! The crates carry no instrumentation, so attribution replays each served
//! request through the public functions of the layers below the service,
//! inside spans: the instance build and the responding solver (`selection`,
//! on an uncached objective), then session operations and one from-scratch
//! evaluation on the served jury (`jq`).

use std::hint::black_box;

use jury_jq::{
    approx_multiclass_bv_jq, exact_multiclass_bv_jq, IncrementalJq, IncrementalJqConfig,
    IncrementalMultiClassJq,
};
use jury_model::{CategoricalPrior, Jury, MatrixJury, MatrixWorker, Prior, WorkerPool};
use jury_selection::{
    AnnealingSolver, BvObjective, ExhaustiveSolver, GreedyMarginalSolver, GreedyQualitySolver,
    GreedyRatioSolver, JspInstance, JuryObjective, JurySolver, MultiClassBvObjective,
    MultiClassJsp, PortfolioConfig, PortfolioSolver, SolverResult,
    DEFAULT_MULTICLASS_EXACT_VOTINGS, MAX_EXHAUSTIVE_POOL,
};
use jury_service::{MultiClassSelectionRequest, ServiceConfig, SolverPolicy};

use crate::trace::Tracer;

/// Counts gathered by one replay (times live in the tracer's spans).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayCounts {
    /// Objective evaluations of the replayed solve.
    pub evaluations: u64,
    /// Session operations timed in the `*.session_op` span (0 when no
    /// session was replayed).
    pub session_ops: usize,
    /// Per-worker bucket count of the binary session grid.
    pub grid_buckets: usize,
    /// Deconvolution fallbacks the replayed session hit.
    pub rebuilds: u64,
    /// Dense-box cells of one multi-class session target.
    pub grid_cells: u64,
}

/// The solver the service's policy dispatch picks, run on `objective`.
fn dispatch<O: JuryObjective>(
    objective: &O,
    instance: &JspInstance,
    policy: &SolverPolicy,
    config: &ServiceConfig,
) -> Result<SolverResult, String> {
    let small = instance.num_candidates() <= config.exact_cutoff.min(MAX_EXHAUSTIVE_POOL);
    let exhaustive = || {
        ExhaustiveSolver::new(objective)
            .try_solve(instance)
            .map_err(|err| err.to_string())
    };
    Ok(match policy {
        SolverPolicy::Exact => exhaustive()?,
        SolverPolicy::Auto | SolverPolicy::Portfolio(_) if small => exhaustive()?,
        SolverPolicy::Auto | SolverPolicy::Annealing => {
            AnnealingSolver::with_config(objective, config.annealing).solve(instance)
        }
        SolverPolicy::Portfolio(members) => {
            let portfolio = PortfolioConfig::default()
                .with_annealing(config.annealing)
                .with_tabu(config.tabu)
                .with_restart(config.restart)
                .with_parallel(config.solver_parallelism());
            PortfolioSolver::with_members(objective, members.clone())
                .with_config(portfolio)
                .solve(instance)
        }
        SolverPolicy::Greedy => {
            let mut best = GreedyQualitySolver::new(objective).solve(instance);
            let ratio = GreedyRatioSolver::new(objective).solve(instance);
            if ratio.objective_value > best.objective_value {
                best = ratio;
            }
            let marginal = GreedyMarginalSolver::new(objective)
                .with_parallelism(config.solver_parallelism())
                .solve(instance);
            if marginal.objective_value > best.objective_value {
                best = marginal;
            }
            best
        }
    })
}

/// Replays `selection` for a binary request: the instance build and the
/// responding solver on an uncached `BvObjective`.
pub fn binary_selection(
    tracer: &mut Tracer,
    call: u64,
    config: &ServiceConfig,
    pool: &WorkerPool,
    budget: f64,
    prior: Prior,
    policy: &SolverPolicy,
) -> Result<ReplayCounts, String> {
    let instance = tracer
        .span("selection.instance_build", call, |_| {
            JspInstance::new(pool.clone(), budget, prior)
        })
        .map_err(|err| err.to_string())?;
    let objective = BvObjective::with_engine(config.jq_engine());
    tracer.span("selection.solve", call, |_| {
        dispatch(&objective, &instance, policy, config)
    })?;
    Ok(ReplayCounts {
        evaluations: objective.evaluations(),
        ..ReplayCounts::default()
    })
}

/// Replays a `jq` session on a served binary jury: a session over the
/// pool's grid, the jury pushed in, and every member swapped out for a
/// non-member and back (reading the value after each swap).
pub fn binary_session(
    tracer: &mut Tracer,
    call: u64,
    config: &ServiceConfig,
    pool: &WorkerPool,
    prior: Prior,
    jury: &Jury,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let session = IncrementalJqConfig::default()
        .with_buckets(config.bucket.buckets)
        .with_kernel_mode(config.bucket.kernel);
    counts.grid_buckets = session.resolve_buckets(pool.len());
    let mut engine = tracer.span("jq.session_open", call, |_| {
        IncrementalJq::for_pool(pool, prior, session)
    });
    let outsider = pool.iter().find(|w| !jury.contains(w.id()));
    counts.session_ops = tracer.span("jq.session_op", call, |_| {
        let mut ops = 0;
        let mut sink = 0.0;
        for worker in jury.iter() {
            engine.push_worker(worker);
            ops += 1;
        }
        if let Some(outsider) = outsider {
            for worker in jury.iter() {
                engine
                    .swap_worker(worker, outsider)
                    .map_err(|e| e.to_string())?;
                sink += engine.jq();
                engine
                    .swap_worker(outsider, worker)
                    .map_err(|e| e.to_string())?;
                ops += 2;
            }
        }
        black_box(sink);
        Ok::<_, String>(ops)
    })?;
    counts.rebuilds = engine.stats().rebuilds;
    Ok(())
}

/// Replays one from-scratch `JQ(BV)` evaluation of a served binary jury on
/// the service's engine.
pub fn binary_eval(
    tracer: &mut Tracer,
    call: u64,
    config: &ServiceConfig,
    prior: Prior,
    jury: &Jury,
) {
    let engine = config.jq_engine();
    tracer.span("jq.eval", call, |_| {
        black_box(engine.bv_jq(jury, prior).value)
    });
}

/// Replays a served multi-class request layer by layer: instance build and
/// the responding solver on an uncached `MultiClassBvObjective`, one
/// from-scratch evaluation of the served jury, and, on pools that serve
/// through sessions, the same session operations as [`binary_session`].
pub fn multiclass(
    tracer: &mut Tracer,
    call: u64,
    config: &ServiceConfig,
    request: &MultiClassSelectionRequest,
    prior: &CategoricalPrior,
    members: &[MatrixWorker],
) -> Result<ReplayCounts, String> {
    let pool = request.pool();
    let budget = request.budget();
    let problem = tracer
        .span("selection.instance_build", call, |_| {
            MultiClassJsp::new(pool.clone(), budget, prior.clone())
        })
        .map_err(|err| err.to_string())?;
    let objective = MultiClassBvObjective::new(pool.clone(), prior.clone())
        .map_err(|err| err.to_string())?
        .with_bucket_config(config.multiclass_bucket)
        .with_incremental_config(config.multiclass_incremental)
        .with_session_pool_cutoff(config.multiclass_session_cutoff);
    tracer.span("selection.solve", call, |_| {
        dispatch(&objective, problem.instance(), &request.policy(), config)
    })?;
    let mut counts = ReplayCounts {
        evaluations: objective.evaluations(),
        ..ReplayCounts::default()
    };

    let jury = MatrixJury::new(members.to_vec()).map_err(|err| err.to_string())?;
    let votings = (pool.num_choices() as u64).saturating_pow(members.len() as u32);
    tracer.span("jq.mc_eval", call, |_| {
        let value = if votings <= DEFAULT_MULTICLASS_EXACT_VOTINGS {
            exact_multiclass_bv_jq(&jury, prior).map_err(|err| err.to_string())
        } else {
            approx_multiclass_bv_jq(&jury, prior, config.multiclass_bucket)
                .map_err(|err| err.to_string())
        };
        value.map(black_box)
    })?;

    if objective.session_required(pool.len()) {
        let incremental = config.multiclass_incremental;
        let buckets = incremental
            .resolve_buckets(pool.len(), pool.num_choices())
            .ok_or("multi-class grid exceeds the cell budget")?;
        let side = 2 * pool.len() as u64 * buckets as u64 + 1;
        counts.grid_cells = side.saturating_pow(pool.num_choices() as u32 - 1);
        let mut engine = tracer
            .span("jq.mc_session_open", call, |_| {
                IncrementalMultiClassJq::for_pool(pool.workers(), prior, incremental)
            })
            .map_err(|err| err.to_string())?;
        let outsider = pool
            .iter()
            .find(|w| members.iter().all(|m| m.id() != w.id()));
        counts.session_ops = tracer.span("jq.mc_session_op", call, |_| {
            let mut ops = 0;
            let mut sink = 0.0;
            for member in members {
                engine.push_worker(member).map_err(|e| e.to_string())?;
                ops += 1;
            }
            if let Some(outsider) = outsider {
                for member in members {
                    engine
                        .swap_worker(member, outsider)
                        .map_err(|e| e.to_string())?;
                    sink += engine.jq();
                    engine
                        .swap_worker(outsider, member)
                        .map_err(|e| e.to_string())?;
                    ops += 2;
                }
            }
            black_box(sink);
            Ok::<_, String>(ops)
        })?;
        counts.rebuilds = engine.stats().rebuilds;
    }
    Ok(counts)
}
