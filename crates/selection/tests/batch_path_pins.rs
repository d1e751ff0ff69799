//! Pins the results of every local search on pools that open no
//! incremental engine: binary pools within `BvObjective::new()`'s exact
//! cutoff (12), and a three-label pool below the default multi-class
//! session cutoff (20). On these pools each probe is a batch `evaluate` of
//! the probed jury, so the served jury and its value bits are fixed by the
//! search order alone.
//!
//! The table pins jury ids, in order, and `objective_value` bits — not
//! evaluation counts, which depend on how many reads the probe path makes,
//! not on what it finds.

use jury_model::{CategoricalPrior, Jury, MatrixPool, Prior, WorkerId, WorkerPool};
use jury_selection::{
    repair_jury, AnnealingSolver, BvObjective, GreedyMarginalSolver, JspInstance, JuryObjective,
    JurySolver, MultiClassJsp, MvObjective, PortfolioSolver, RepairConfig, RestartSolver,
    TabuSolver,
};

fn binary_pool(n: usize) -> WorkerPool {
    let qualities: Vec<f64> = (0..n)
        .map(|i| 0.53 + 0.037 * ((i * 7) % 11) as f64)
        .collect();
    let costs: Vec<f64> = (0..n).map(|i| 0.6 + 0.3 * ((i * 5) % 7) as f64).collect();
    WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
}

/// One row per solver: `(label, jury ids, objective value)`.
fn solve_all<O: JuryObjective>(
    label: &str,
    make: impl Fn() -> O,
    instance: &JspInstance,
    deployed: &[WorkerId],
) -> Vec<(String, Vec<u32>, f64)> {
    let row = |solver: &str, jury: &Jury, value: f64| {
        let ids = jury.ids().iter().map(|id| id.raw()).collect();
        (format!("{label} {solver}"), ids, value)
    };
    let mut rows = Vec::new();
    for (solver, result) in [
        ("annealing", AnnealingSolver::new(make()).solve(instance)),
        ("tabu", TabuSolver::new(make()).solve(instance)),
        ("restart", RestartSolver::new(make()).solve(instance)),
        (
            "marginal",
            GreedyMarginalSolver::new(make()).solve(instance),
        ),
        ("portfolio", PortfolioSolver::new(make()).solve(instance)),
    ] {
        assert!(instance.is_feasible(&result.jury), "{label} {solver}");
        rows.push(row(solver, &result.jury, result.objective_value));
    }
    let repaired = repair_jury(&make(), instance, deployed, RepairConfig::default()).unwrap();
    rows.push(row("repair", &repaired.jury, repaired.objective_value));
    rows
}

fn computed_rows() -> Vec<(String, Vec<u32>, f64)> {
    let mut rows = Vec::new();
    for n in [6usize, 10] {
        let pool = binary_pool(n);
        let budget = 0.4 * pool.workers().iter().map(|w| w.cost()).sum::<f64>();
        let deployed: Vec<WorkerId> = pool.workers()[..3].iter().map(|w| w.id()).collect();
        for (name, prior) in [
            ("bv", Prior::uniform()),
            ("bv-0.3", Prior::new(0.3).unwrap()),
        ] {
            let instance = JspInstance::new(pool.clone(), budget, prior).unwrap();
            rows.extend(solve_all(
                &format!("n={n} {name}"),
                BvObjective::new,
                &instance,
                &deployed,
            ));
        }
        let instance = JspInstance::with_uniform_prior(pool.clone(), budget).unwrap();
        rows.extend(solve_all(
            &format!("n={n} mv"),
            MvObjective::new,
            &instance,
            &deployed,
        ));
    }

    let qualities: Vec<f64> = (0..12)
        .map(|i| 0.45 + 0.04 * ((i * 7) % 11) as f64)
        .collect();
    let costs: Vec<f64> = (0..12).map(|i| 1.0 + 0.5 * ((i * 3) % 4) as f64).collect();
    let matrix_pool = MatrixPool::from_qualities_and_costs(&qualities, &costs, 3).unwrap();
    let problem =
        MultiClassJsp::new(matrix_pool, 4.0, CategoricalPrior::uniform(3).unwrap()).unwrap();
    assert!(!problem.objective().session_required(12));
    let deployed = [WorkerId(0), WorkerId(1)];
    rows.extend(solve_all(
        "n=12 multiclass",
        || problem.objective(),
        problem.instance(),
        &deployed,
    ));
    rows
}

/// `(label, jury ids, objective_value bits)` at the time the table was
/// written.
const PINS: &[(&str, &[u32], u64)] = &[
    ("n=6 bv annealing", &[3, 0, 5], 0x3fecccccccccccce),
    ("n=6 bv tabu", &[3, 1, 0], 0x3fecccccccccccce),
    ("n=6 bv restart", &[3, 0, 1], 0x3fecccccccccccce),
    ("n=6 bv marginal", &[3, 0, 1], 0x3fecccccccccccce),
    ("n=6 bv portfolio", &[3, 1, 0], 0x3fecccccccccccce),
    ("n=6 bv repair", &[0, 3, 2], 0x3fecccccccccccce),
    ("n=6 bv-0.3 annealing", &[3, 0, 1], 0x3fece13f4a98aa86),
    ("n=6 bv-0.3 tabu", &[3, 1, 0], 0x3fece13f4a98aa86),
    ("n=6 bv-0.3 restart", &[3, 0, 1], 0x3fece13f4a98aa86),
    ("n=6 bv-0.3 marginal", &[3, 0, 1], 0x3fece13f4a98aa86),
    ("n=6 bv-0.3 portfolio", &[3, 1, 0], 0x3fece13f4a98aa86),
    ("n=6 bv-0.3 repair", &[0, 1, 3], 0x3fece13f4a98aa86),
    ("n=6 mv annealing", &[3, 0, 1], 0x3feb48344c37e6f8),
    ("n=6 mv tabu", &[3, 1, 0], 0x3feb48344c37e6f8),
    ("n=6 mv restart", &[3], 0x3feccccccccccccd),
    ("n=6 mv marginal", &[3], 0x3feccccccccccccd),
    ("n=6 mv portfolio", &[3], 0x3feccccccccccccd),
    ("n=6 mv repair", &[0, 1, 3], 0x3feb48344c37e6f8),
    ("n=10 bv annealing", &[3, 6, 9, 2, 7], 0x3fee79ce82adddab),
    ("n=10 bv tabu", &[3, 6, 7, 9, 2], 0x3fee79ce82adddab),
    ("n=10 bv restart", &[3, 6, 7, 9, 2], 0x3fee79ce82adddab),
    ("n=10 bv marginal", &[3, 0, 1, 6, 7], 0x3fee2b852d8c6246),
    ("n=10 bv portfolio", &[3, 6, 7, 9, 2], 0x3fee79ce82adddab),
    ("n=10 bv repair", &[6, 1, 9, 3], 0x3fee747548e88d59),
    ("n=10 bv-0.3 annealing", &[3, 6, 9, 1], 0x3feeb03c3cac0bc0),
    ("n=10 bv-0.3 tabu", &[3, 6, 9, 1], 0x3feeb03c3cac0bc0),
    ("n=10 bv-0.3 restart", &[1, 3, 6, 9], 0x3feeb03c3cac0bc2),
    ("n=10 bv-0.3 marginal", &[3, 6, 9, 1], 0x3feeb03c3cac0bc0),
    ("n=10 bv-0.3 portfolio", &[1, 3, 6, 9], 0x3feeb03c3cac0bc2),
    ("n=10 bv-0.3 repair", &[6, 1, 9, 3], 0x3feeb03c3cac0bc2),
    ("n=10 mv annealing", &[2, 3, 6, 9, 7], 0x3fee1608bf5ee732),
    ("n=10 mv tabu", &[3, 6, 7, 9, 2], 0x3fee1608bf5ee732),
    ("n=10 mv restart", &[1, 3, 6], 0x3fee2579364cc328),
    ("n=10 mv marginal", &[3], 0x3feccccccccccccd),
    ("n=10 mv portfolio", &[1, 3, 6], 0x3fee2579364cc328),
    ("n=10 mv repair", &[3, 9, 6], 0x3fee65010b98ba77),
    ("n=12 multiclass annealing", &[3, 4, 7], 0x3febe0902de00d1a),
    ("n=12 multiclass tabu", &[3, 4, 7], 0x3febe0902de00d1a),
    ("n=12 multiclass restart", &[3, 4, 7], 0x3febe0902de00d1a),
    ("n=12 multiclass marginal", &[3, 0, 4], 0x3feb333333333337),
    ("n=12 multiclass portfolio", &[3, 4, 7], 0x3febe0902de00d1a),
    ("n=12 multiclass repair", &[3, 1], 0x3feb333333333333),
];

#[test]
fn batch_path_results_are_pinned() {
    let rows = computed_rows();
    assert_eq!(rows.len(), PINS.len());
    for ((label, ids, value), (pin_label, pin_ids, pin_bits)) in rows.iter().zip(PINS) {
        assert_eq!(label, pin_label);
        assert_eq!(ids, pin_ids, "{label}: jury");
        assert_eq!(
            value.to_bits(),
            *pin_bits,
            "{label}: value {value} vs pinned {}",
            f64::from_bits(*pin_bits)
        );
    }
}
