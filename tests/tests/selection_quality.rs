//! Integration tests for the JSP solvers: the annealing heuristic against
//! the exhaustive optimum (the Figure 7(a) / Table 3 experiment in miniature)
//! and the uniform-cost case of Lemmas 1–2.

use jury_integration_tests::random_pool;
use jury_jq::BucketJqConfig;
use jury_model::{stats, Prior, WorkerPool};
use jury_selection::{
    AnnealingConfig, AnnealingSolver, BvObjective, ExhaustiveSolver, GreedyQualitySolver,
    JspInstance, JurySolver, MvjsSolver,
};

fn bv_objective() -> BvObjective {
    BvObjective::with_config(BucketJqConfig::paper_experiments())
}

#[test]
fn annealing_error_distribution_mirrors_table_3() {
    // N = 11 candidates, budgets in [0.05, 0.5]: collect the error
    // JQ(J*) − JQ(Ĵ) in percent over many runs and bucket it into the
    // paper's Table 3 ranges. The paper finds >90 % of runs below 0.01 % and
    // nothing above 3 %; the robust solver configuration reproduces that.
    let mut errors_percent = Vec::new();
    for seed in 0..30u64 {
        let pool = random_pool(11, seed);
        let budget = 0.05 + 0.05 * (seed % 10) as f64;
        let instance = JspInstance::new(pool, budget, Prior::uniform()).unwrap();
        let optimal = ExhaustiveSolver::new(bv_objective()).solve(&instance);
        let annealed = AnnealingSolver::new(bv_objective()).solve(&instance);
        errors_percent.push((optimal.objective_value - annealed.objective_value).max(0.0) * 100.0);
    }
    let edges = [0.0, 0.01, 0.1, 1.0, 3.0, f64::INFINITY];
    let counts = stats::range_counts(&errors_percent, &edges);
    let total: u64 = counts.iter().sum();
    assert_eq!(total as usize, errors_percent.len());
    // Most runs must be essentially exact, and none catastrophically wrong.
    assert!(
        counts[0] as f64 / total as f64 >= 0.8,
        "only {}/{} runs were within 0.01%",
        counts[0],
        total
    );
    assert_eq!(
        counts[4], 0,
        "some runs were more than 3% away from optimal"
    );
}

#[test]
fn annealing_respects_budgets_across_scales() {
    for &n in &[11usize, 30, 60] {
        let pool = random_pool(n, n as u64);
        for budget in [0.1, 0.5] {
            let instance = JspInstance::new(pool.clone(), budget, Prior::uniform()).unwrap();
            let result = AnnealingSolver::new(bv_objective()).solve(&instance);
            assert!(instance.is_feasible(&result.jury), "n={n}, budget={budget}");
            assert!(result.objective_value >= 0.5 - 1e-9);
        }
    }
}

#[test]
fn mvjs_baseline_never_beats_optjs_objective() {
    for seed in 100..110u64 {
        let pool = random_pool(20, seed);
        let instance = JspInstance::new(pool, 0.5, Prior::uniform()).unwrap();
        let optjs = AnnealingSolver::new(bv_objective()).solve(&instance);
        let mvjs = MvjsSolver::new().solve(&instance);
        assert!(
            optjs.objective_value >= mvjs.objective_value - 0.01,
            "seed {seed}: OPTJS {} vs MVJS {}",
            optjs.objective_value,
            mvjs.objective_value
        );
    }
}

#[test]
fn special_cases_shortcut_the_search() {
    // Uniform costs: the top-k jury by quality (Lemmas 1–2), which the
    // quality greedy picks, matches the exhaustive optimum and the
    // annealing result.
    let pool = WorkerPool::from_qualities_and_costs(
        &[0.9, 0.62, 0.74, 0.81, 0.58, 0.69],
        &[0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
    )
    .unwrap();
    let instance = JspInstance::with_uniform_prior(pool, 0.35).unwrap();
    let greedy = GreedyQualitySolver::new(bv_objective()).solve(&instance);
    let optimal = ExhaustiveSolver::new(bv_objective()).solve(&instance);
    let annealed = AnnealingSolver::new(bv_objective()).solve(&instance);
    assert!((greedy.objective_value - optimal.objective_value).abs() < 1e-9);
    assert!(annealed.objective_value <= optimal.objective_value + 1e-9);
    assert!(annealed.objective_value >= optimal.objective_value - 0.01);
}

#[test]
fn greedy_is_a_lower_bound_for_annealing_with_candidates_enabled() {
    // With greedy candidates enabled (the default), the annealing result is
    // at least as good as the plain greedy-by-quality result.
    for seed in 200..205u64 {
        let pool = random_pool(30, seed);
        let instance = JspInstance::new(pool, 0.4, Prior::uniform()).unwrap();
        let annealed = AnnealingSolver::new(bv_objective()).solve(&instance);
        let greedy = GreedyQualitySolver::new(bv_objective()).solve(&instance);
        assert!(annealed.objective_value >= greedy.objective_value - 1e-9);
    }
}

#[test]
fn single_run_configuration_matches_the_paper_schedule() {
    let config = AnnealingConfig::paper_single_run();
    assert_eq!(config.restarts, 1);
    assert!(!config.use_greedy_candidates);
    assert_eq!(config.num_sweeps(), 27);
    // It still produces feasible, sensible juries.
    let pool = random_pool(25, 9);
    let instance = JspInstance::new(pool, 0.5, Prior::uniform()).unwrap();
    let result = AnnealingSolver::with_config(bv_objective(), config).solve(&instance);
    assert!(instance.is_feasible(&result.jury));
    assert!(result.objective_value >= 0.5);
}
