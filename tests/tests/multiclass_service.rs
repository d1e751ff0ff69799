//! Integration tests for the multi-class serving path of `jury-service`:
//! `MatrixPool` requests round-tripping through `select_multiclass`,
//! `select_multiclass_batch`, mixed batches, and
//! `multiclass_budget_quality_table`, pinned against direct
//! `jury_selection::MultiClassJsp` solves — plus the per-kind cache
//! accounting of the shared store and every documented error path.

use std::time::{Duration, Instant};

use jury_jq::exact_multiclass_bv_jq;
use jury_model::{CategoricalPrior, MatrixPool, ModelError};
use jury_selection::{
    AnnealingSolver, ExhaustiveSolver, GreedyMarginalSolver, GreedyQualitySolver,
    GreedyRatioSolver, JurySolver, MultiClassJsp,
};
use jury_service::{
    JuryService, MixedRequest, MixedResponse, MultiClassSelectionRequest,
    MultiClassSelectionResponse, SelectionRequest, ServiceConfig, ServiceError, SolverPolicy,
    SweepPolicy,
};

fn small_pool() -> MatrixPool {
    MatrixPool::from_qualities_and_costs(
        &[0.9, 0.6, 0.7, 0.8, 0.65, 0.75],
        &[3.0, 1.0, 1.5, 2.5, 1.0, 2.0],
        3,
    )
    .unwrap()
}

fn large_pool(n: usize) -> MatrixPool {
    let qualities: Vec<f64> = (0..n).map(|i| 0.52 + 0.017 * (i % 22) as f64).collect();
    let costs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64 * 0.5).collect();
    MatrixPool::from_qualities_and_costs(&qualities, &costs, 3).unwrap()
}

fn uniform3() -> CategoricalPrior {
    CategoricalPrior::uniform(3).unwrap()
}

#[test]
fn select_matches_the_direct_exhaustive_solve_to_1e9() {
    // Small pool → the Auto policy enumerates exhaustively; the service
    // answer must match a direct MultiClassJsp + ExhaustiveSolver run on
    // both the jury and the quality.
    let service = JuryService::paper_experiments();
    for budget in [2.0, 4.0, 6.5] {
        let response = service
            .select_multiclass(&MultiClassSelectionRequest::new(small_pool(), budget))
            .unwrap();
        let problem = MultiClassJsp::new(small_pool(), budget, uniform3()).unwrap();
        let direct = ExhaustiveSolver::new(problem.objective()).solve(problem.instance());
        let mut direct_ids = direct.jury.ids();
        direct_ids.sort();
        assert_eq!(response.worker_ids(), direct_ids, "budget {budget}");
        assert!(
            (response.quality - direct.objective_value).abs() < 1e-9,
            "budget {budget}: service {} vs direct {}",
            response.quality,
            direct.objective_value
        );
        assert!((response.cost - direct.jury.cost()).abs() < 1e-9);
    }
}

#[test]
fn every_policy_matches_its_direct_solver_counterpart() {
    // The policy dispatch must be exactly the documented solver per policy;
    // the shared cache may change *when* values are computed, never what
    // they are.
    let service = JuryService::paper_experiments();
    let budget = 5.0;
    let problem = MultiClassJsp::new(small_pool(), budget, uniform3()).unwrap();

    let exact = service
        .select_multiclass(
            &MultiClassSelectionRequest::new(small_pool(), budget).with_policy(SolverPolicy::Exact),
        )
        .unwrap();
    let direct = ExhaustiveSolver::new(problem.objective()).solve(problem.instance());
    assert!((exact.quality - direct.objective_value).abs() < 1e-9);

    let annealed = service
        .select_multiclass(
            &MultiClassSelectionRequest::new(small_pool(), budget)
                .with_policy(SolverPolicy::Annealing),
        )
        .unwrap();
    let direct_annealed =
        AnnealingSolver::with_config(problem.objective(), service.config().annealing)
            .solve(problem.instance());
    assert!((annealed.quality - direct_annealed.objective_value).abs() < 1e-9);
    assert_eq!(annealed.solver, "simulated-annealing");

    let greedy = service
        .select_multiclass(
            &MultiClassSelectionRequest::new(small_pool(), budget)
                .with_policy(SolverPolicy::Greedy),
        )
        .unwrap();
    let direct_greedy = [
        GreedyQualitySolver::new(problem.objective()).solve(problem.instance()),
        GreedyRatioSolver::new(problem.objective()).solve(problem.instance()),
        GreedyMarginalSolver::new(problem.objective()).solve(problem.instance()),
    ]
    .into_iter()
    .max_by(|a, b| a.objective_value.partial_cmp(&b.objective_value).unwrap())
    .unwrap();
    assert!((greedy.quality - direct_greedy.objective_value).abs() < 1e-9);
}

#[test]
fn batch_parity_and_mixed_kind_cache_accounting() {
    // A mixed batch of repeated binary and multi-class requests: every slot
    // must match its single-request answer, and the shared store must show
    // reuse for *both* kinds (the acceptance criterion for the one-store
    // design).
    let service = JuryService::paper_experiments();
    let binary_request = SelectionRequest::new(jury_model::paper_example_pool(), 15.0);
    let multi_request = MultiClassSelectionRequest::new(small_pool(), 5.0);
    let binary_single = service.select(&binary_request).unwrap();
    let multi_single = service.select_multiclass(&multi_request).unwrap();

    let before = service.cache_stats();
    let mut batch: Vec<MixedRequest> = Vec::new();
    for _ in 0..12 {
        batch.push(binary_request.clone().into());
        batch.push(multi_request.clone().into());
    }
    let responses = service.select_mixed_batch(&batch);
    assert_eq!(responses.len(), 24);
    for pair in responses.chunks(2) {
        let binary = pair[0].as_ref().unwrap().as_binary().unwrap();
        assert_eq!(binary.worker_ids(), binary_single.worker_ids());
        assert!((binary.quality - binary_single.quality).abs() < 1e-12);
        let multi = pair[1].as_ref().unwrap().as_multi_class().unwrap();
        assert_eq!(multi.worker_ids(), multi_single.worker_ids());
        assert!((multi.quality - multi_single.quality).abs() < 1e-12);
    }
    let after = service.cache_stats();
    assert!(
        after.binary.hits > before.binary.hits,
        "binary entries must be re-served from the shared store: {after:?}"
    );
    assert!(
        after.multiclass.hits > before.multiclass.hits,
        "multi-class entries must be re-served from the shared store: {after:?}"
    );
    // The single-request warm-up already inserted every signature the batch
    // needs, so the batch adds no misses of either kind — proof the two
    // kinds share one store rather than shadowing each other.
    assert_eq!(after.binary.misses, before.binary.misses);
    assert_eq!(after.multiclass.misses, before.multiclass.misses);
    assert_eq!(after.hits, after.binary.hits + after.multiclass.hits);
    assert_eq!(after.misses, after.binary.misses + after.multiclass.misses);
}

#[test]
fn large_pools_run_the_multiclass_session_path_deterministically() {
    // Past the (lowered) session crossover the searches ride the
    // incremental multi-class engine; results must stay feasible,
    // deterministic, and within the documented tolerance of a direct
    // session-enabled solve.
    let pool = large_pool(14);
    // Coarse session grid + lowered crossover: exercises the session path
    // cheaply (the production defaults only engage it past 20 candidates,
    // where debug-mode tests would crawl).
    let config = ServiceConfig::fast()
        .with_multiclass_session_cutoff(8)
        .with_multiclass_incremental(
            jury_jq::MultiClassIncrementalConfig::default().with_num_buckets(12),
        );
    let service = JuryService::new(config);
    for policy in [SolverPolicy::Annealing, SolverPolicy::Greedy] {
        let request = MultiClassSelectionRequest::new(pool.clone(), 4.0)
            .with_policy(policy.clone())
            .with_config(config);
        let a = service.select_multiclass(&request).unwrap();
        let b = service.select_multiclass(&request).unwrap();
        assert_eq!(a.worker_ids(), b.worker_ids(), "{policy}");
        assert!(!a.members.is_empty(), "{policy}");
        assert!(a.cost <= 4.0 + 1e-9, "{policy}");
        assert!(a.quality >= 1.0 / 3.0, "{policy}");
        assert!(a.evaluations > 0, "{policy}");
    }
}

#[test]
fn empty_matrix_pools_cannot_exist_and_other_errors_are_typed() {
    // The "empty MatrixPool" error path lives at the model layer: the pool
    // type itself refuses to be empty, so no service request can ever carry
    // one.
    let err = MatrixPool::new(Vec::new()).unwrap_err();
    assert!(matches!(err, ModelError::Empty { .. }));

    let service = JuryService::paper_experiments();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let err = service
            .select_multiclass(&MultiClassSelectionRequest::new(small_pool(), bad))
            .unwrap_err();
        // (No `assert_eq!` against the NaN case — NaN never compares equal.)
        let ServiceError::InvalidBudget { value } = err else {
            panic!("expected InvalidBudget for {bad}, got {err}");
        };
        assert!(value == bad || (value.is_nan() && bad.is_nan()));
    }
    // Zero budget without the empty opt-in.
    assert!(matches!(
        service
            .select_multiclass(&MultiClassSelectionRequest::new(small_pool(), 0.0))
            .unwrap_err(),
        ServiceError::InvalidBudget { .. }
    ));
    // Prior arity mismatch and non-distribution vectors.
    for bad_prior in [
        vec![0.5, 0.5],
        vec![0.9, 0.9, 0.9],
        vec![f64::NAN, 0.5, 0.5],
    ] {
        let err = service
            .select_multiclass(
                &MultiClassSelectionRequest::new(small_pool(), 5.0)
                    .with_prior_probs(bad_prior.clone()),
            )
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::InvalidPriorVector { .. }),
            "{bad_prior:?} → {err}"
        );
    }
    // Exact policy on a pool too large to enumerate.
    let err = service
        .select_multiclass(
            &MultiClassSelectionRequest::new(large_pool(23), 5.0).with_policy(SolverPolicy::Exact),
        )
        .unwrap_err();
    assert!(matches!(err, ServiceError::PoolTooLargeForExact { .. }));
}

#[test]
fn cell_budget_overflow_is_a_typed_error_not_a_panic() {
    // 24 four-label candidates need the incremental engine (past both the
    // session crossover and the exact voting cutoff); with a one-cell
    // budget even a one-bucket grid cannot fit — the service must refuse
    // with the dedicated error, and batches must carry it per slot.
    let qualities: Vec<f64> = (0..24).map(|i| 0.5 + 0.015 * (i % 20) as f64).collect();
    let pool = MatrixPool::from_qualities_and_costs(&qualities, &[1.0; 24], 4).unwrap();
    let config = ServiceConfig::fast().with_multiclass_incremental(
        jury_jq::MultiClassIncrementalConfig::default().with_max_cells(1),
    );
    let service = JuryService::new(config);
    let request = MultiClassSelectionRequest::new(pool, 6.0);
    let err = service.select_multiclass(&request).unwrap_err();
    assert!(matches!(err, ServiceError::MultiClassStateTooLarge { .. }));

    let slots = service.select_multiclass_batch(&[request.clone(), request]);
    for slot in slots {
        assert!(matches!(
            slot.unwrap_err(),
            ServiceError::MultiClassStateTooLarge { .. }
        ));
    }
}

#[test]
fn budget_quality_table_matches_direct_solves_on_small_pools() {
    let service = JuryService::paper_experiments();
    let budgets = [2.0, 4.0, 6.0, 9.0];
    let table = service
        .multiclass_budget_quality_table(&small_pool(), &budgets, &uniform3())
        .unwrap();
    assert_eq!(table.rows().len(), budgets.len());
    for (row, &budget) in table.rows().iter().zip(&budgets) {
        let problem = MultiClassJsp::new(small_pool(), budget, uniform3()).unwrap();
        let direct = ExhaustiveSolver::new(problem.objective()).solve(problem.instance());
        assert!(
            (row.quality - direct.objective_value).abs() < 1e-9,
            "budget {budget}: row {} vs direct {}",
            row.quality,
            direct.objective_value
        );
        assert!(row.required_budget <= row.budget + 1e-9);
    }
}

#[test]
fn warm_and_cold_multiclass_sweeps_agree_on_uniform_costs() {
    // Uniform costs: greedy prefixes nest, so the warm marginal sweep, the
    // warm annealing sweep, and cold per-budget solves must produce the
    // same row qualities on a large pool.
    let qualities: Vec<f64> = (0..16).map(|i| 0.88 - 0.02 * i as f64).collect();
    let pool = MatrixPool::from_qualities_and_costs(&qualities, &[1.0; 16], 3).unwrap();
    let budgets = [2.0, 4.0, 7.0];

    let tables: Vec<_> = [
        SweepPolicy::WarmMarginal,
        SweepPolicy::WarmAnnealing,
        SweepPolicy::Cold,
    ]
    .into_iter()
    .map(|sweep| {
        let service = JuryService::new(ServiceConfig::fast().with_sweep_policy(sweep));
        (
            sweep,
            service
                .multiclass_budget_quality_table(&pool, &budgets, &uniform3())
                .unwrap(),
        )
    })
    .collect();

    let (_, cold) = tables.last().unwrap();
    // Cold rows are deterministic: repeats on one service, now served
    // from its warm JQ store, reproduce the first table exactly.
    let cold_service = JuryService::new(ServiceConfig::fast().with_sweep_policy(SweepPolicy::Cold));
    for _ in 0..10 {
        let repeat = cold_service
            .multiclass_budget_quality_table(&pool, &budgets, &uniform3())
            .unwrap();
        assert_eq!(&repeat, cold);
    }
    for (sweep, table) in &tables {
        let mut previous = 0.0;
        for (row, reference) in table.rows().iter().zip(cold.rows()) {
            assert!(
                (row.quality - reference.quality).abs() < 1e-9,
                "{sweep:?} at budget {}: {} vs cold {}",
                row.budget,
                row.quality,
                reference.quality
            );
            assert!(row.quality >= previous - 1e-12, "{sweep:?} monotone");
            previous = row.quality;
        }
    }

    // The warm paths validate budgets and prior arity as typed errors too.
    let warm = JuryService::new(ServiceConfig::fast());
    assert!(matches!(
        warm.multiclass_budget_quality_table(&pool, &[1.0, f64::NAN], &uniform3())
            .unwrap_err(),
        ServiceError::InvalidBudget { .. }
    ));
    assert!(matches!(
        warm.multiclass_budget_quality_table(
            &pool,
            &budgets,
            &CategoricalPrior::uniform(4).unwrap()
        )
        .unwrap_err(),
        ServiceError::InvalidPriorVector { .. }
    ));
}

/// Asserts a multi-class response is a valid selection from `pool` under
/// `budget`: distinct pool members, the reported cost is their cost, and
/// the reported quality is their exact `JQ(BV)` (budget ≤ 4 on
/// `large_pool` keeps juries at most four strong, well inside the exact
/// voting cutoff the objective enumerates under).
fn assert_feasible(response: &MultiClassSelectionResponse, pool: &MatrixPool, budget: f64) {
    let ids = response.worker_ids();
    let mut distinct = ids.clone();
    distinct.dedup();
    assert_eq!(distinct, ids, "members must be distinct");
    let cost: f64 = ids.iter().map(|&id| pool.get(id).unwrap().cost()).sum();
    assert!((cost - response.cost).abs() < 1e-9);
    assert!(response.cost <= budget + 1e-9);
    let jury = response.matrix_jury().expect("a non-empty jury");
    let exact = exact_multiclass_bv_jq(&jury, &uniform3()).unwrap();
    assert!(
        (response.quality - exact).abs() < 1e-9,
        "reported {} vs exact {exact}",
        response.quality
    );
}

#[test]
fn evaluation_cap_beyond_the_cutoff_returns_a_feasible_multiclass_best_so_far() {
    // Past the exact cutoff the annealing search polls its budget; a tiny
    // evaluation cap trips it deterministically (no clock involved).
    let pool = large_pool(16);
    let service = JuryService::new(ServiceConfig::fast());
    let full = service
        .select_multiclass(&MultiClassSelectionRequest::new(pool.clone(), 4.0))
        .unwrap();
    let err = service
        .select_multiclass(
            &MultiClassSelectionRequest::new(pool.clone(), 4.0).with_evaluation_limit(3),
        )
        .unwrap_err();
    let ServiceError::DeadlineExceeded {
        best_so_far: Some(best),
    } = err
    else {
        panic!("expected DeadlineExceeded with a partial result, got {err}");
    };
    let MixedResponse::MultiClass(partial) = *best else {
        panic!("a multi-class request must yield a multi-class partial result");
    };
    assert_eq!(partial.policy, SolverPolicy::Auto);
    assert_eq!(partial.solver, "simulated-annealing");
    assert_feasible(&partial, &pool, 4.0);
    assert!(
        partial.evaluations < full.evaluations,
        "truncated search spent {} evaluations, full solve {}",
        partial.evaluations,
        full.evaluations
    );
    assert!(full.quality >= partial.quality - 1e-9);
}

#[test]
fn multiclass_table_deadline_is_shared_across_rows_not_multiplied() {
    // The multi-class twin of the binary table-deadline regression test:
    // cold rows are served sequentially, each granted a share of the time
    // still remaining, so the whole sweep stays bounded by the one
    // deadline (plus per-row checkpoint overrun) instead of rows × deadline.
    let deadline = Duration::from_millis(50);
    let budgets: Vec<f64> = (1..=12).map(|b| 1.0 + 0.25 * b as f64).collect();
    let pool = large_pool(400);
    let service = JuryService::new(
        ServiceConfig::fast()
            .with_sweep_policy(SweepPolicy::Cold)
            .with_multiclass_session_cutoff(pool.len()),
    );
    let started = Instant::now();
    let (table, truncated) = service
        .multiclass_budget_quality_table_with_deadline(&pool, &budgets, &uniform3(), deadline)
        .unwrap();
    let elapsed = started.elapsed();
    assert!(truncated, "rows should have been cut short");
    assert_eq!(table.rows().len(), budgets.len());
    for row in table.rows() {
        assert!(row.required_budget <= row.budget + 1e-9);
    }
    assert!(
        elapsed < 6 * deadline,
        "sweep took {elapsed:?}; a per-row deadline would run for ~12 × {deadline:?}"
    );
}
