//! End-to-end integration tests: OPTJS (service requests under
//! `Strategy::Bv`) against the paper's worked examples and against the MVJS
//! baseline (`Strategy::Mv`), across crates.

use jury_bench::{run_on_dataset, run_simulated_task, select_jury};
use jury_integration_tests::random_pool;
use jury_model::{paper_example_pool, Answer, GaussianWorkerGenerator, Prior, WorkerId};
use jury_service::{JuryService, ServiceConfig, Strategy};
use jury_sim::{AmtCampaignConfig, AmtSimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn figure_1_budget_quality_table_is_reproduced_end_to_end() {
    let service = JuryService::paper_experiments();
    let table = service
        .budget_quality_table(
            &paper_example_pool(),
            &[5.0, 10.0, 15.0, 20.0],
            Prior::uniform(),
        )
        .expect("the Figure 1 budgets are valid");
    let expected_quality = [0.75, 0.80, 0.845, 0.8695];
    let expected_required = [5.0, 9.0, 14.0, 20.0];
    for ((row, &quality), &required) in table
        .rows()
        .iter()
        .zip(expected_quality.iter())
        .zip(expected_required.iter())
    {
        assert!(
            (row.quality - quality).abs() < 1e-9,
            "budget {}: quality {} vs paper {}",
            row.budget,
            row.quality,
            quality
        );
        // Several juries can tie on quality, so the required budget may be at
        // most the paper's figure (never more).
        assert!(
            row.required_budget <= required + 1e-9,
            "budget {}: required {} exceeds paper {}",
            row.budget,
            row.required_budget,
            required
        );
    }
}

#[test]
fn figure_1_budget_15_jury_is_b_c_g() {
    let service = JuryService::paper_experiments();
    let outcome = select_jury(
        &service,
        &paper_example_pool(),
        15.0,
        Prior::uniform(),
        Strategy::Bv,
    )
    .unwrap();
    assert_eq!(
        outcome.worker_ids(),
        vec![WorkerId(1), WorkerId(2), WorkerId(6)]
    );
    assert!((outcome.cost - 14.0).abs() < 1e-9);
    assert!((outcome.quality - 0.845).abs() < 1e-9);
}

#[test]
fn mvjs_selects_under_mv_and_is_dominated() {
    // On the paper pool, the jury chosen under JQ(BV) is never worse than
    // the one MVJS chooses under JQ(MV), each scored under its own strategy.
    let service = JuryService::paper_experiments();
    let pool = paper_example_pool();
    for budget in [10.0, 15.0, 20.0] {
        let [o, m] = [Strategy::Bv, Strategy::Mv].map(|strategy| {
            select_jury(&service, &pool, budget, Prior::uniform(), strategy).unwrap()
        });
        assert_eq!(m.strategy, Strategy::Mv);
        assert!(
            o.quality >= m.quality - 1e-9,
            "budget {budget}: OPTJS {} < MVJS {}",
            o.quality,
            m.quality
        );
        assert!(o.cost <= budget + 1e-9);
        assert!(m.cost <= budget + 1e-9);
    }
}

#[test]
fn prior_changes_the_selection_quality() {
    // A confident prior acts as an extra high-quality worker (Theorem 3),
    // so the achievable quality can only go up.
    let service = JuryService::paper_experiments();
    let pool = paper_example_pool();
    let [uniform, confident] = [Prior::uniform(), Prior::new(0.9).unwrap()]
        .map(|prior| select_jury(&service, &pool, 10.0, prior, Strategy::Bv).unwrap());
    assert!(confident.quality >= uniform.quality - 1e-9);
}

#[test]
fn optjs_beats_or_matches_mvjs_on_synthetic_pools() {
    // The Figure 6 claim at the system level, across several random pools
    // and budgets, with each system scored under its own strategy.
    let service = JuryService::new(ServiceConfig::fast());
    for seed in 0..5u64 {
        let pool = random_pool(40, seed);
        for budget in [0.2, 0.5, 0.8] {
            let [o, m] = [Strategy::Bv, Strategy::Mv].map(|strategy| {
                select_jury(&service, &pool, budget, Prior::uniform(), strategy).unwrap()
            });
            assert_eq!(o.strategy, Strategy::Bv);
            assert_eq!(m.strategy, Strategy::Mv);
            assert!(
                o.quality >= m.quality - 0.01,
                "seed {seed} budget {budget}: OPTJS {} < MVJS {}",
                o.quality,
                m.quality
            );
            assert!(o.cost <= budget + 1e-9);
            assert!(m.cost <= budget + 1e-9);
        }
    }
}

#[test]
fn systems_scale_to_the_synthetic_default_pool() {
    // The synthetic default: N = 50 workers, B = 0.5 (Section 6.1.1),
    // solved with the fast test configuration.
    let generator = GaussianWorkerGenerator::paper_defaults();
    let pool = generator.generate(50, &mut StdRng::seed_from_u64(123));
    let service = JuryService::new(ServiceConfig::fast());
    let [o, m] = [Strategy::Bv, Strategy::Mv]
        .map(|strategy| select_jury(&service, &pool, 0.5, Prior::uniform(), strategy).unwrap());
    assert!(
        o.quality >= m.quality - 0.01,
        "OPTJS {} vs MVJS {}",
        o.quality,
        m.quality
    );
    assert!(o.quality > 0.8);
    assert!(o.cost <= 0.5 + 1e-9);
    assert!(m.cost <= 0.5 + 1e-9);
}

#[test]
fn simulated_task_pipeline_is_calibrated() {
    // Selecting, collecting simulated votes, and aggregating with BV yields
    // an empirical accuracy close to the predicted JQ.
    let service = JuryService::new(ServiceConfig::fast());
    let pool = paper_example_pool();
    let mut rng = StdRng::seed_from_u64(77);
    let trials = 400;
    let mut correct = 0;
    let mut predicted = 0.0;
    for i in 0..trials {
        let truth = if i % 2 == 0 { Answer::Yes } else { Answer::No };
        let outcome =
            run_simulated_task(&service, &pool, 20.0, Prior::uniform(), truth, &mut rng).unwrap();
        assert!(outcome.cost <= 20.0 + 1e-9);
        if outcome.is_correct() {
            correct += 1;
        }
        predicted += outcome.predicted_jq;
    }
    let accuracy = correct as f64 / trials as f64;
    let predicted = predicted / trials as f64;
    assert!(
        (accuracy - predicted).abs() < 0.06,
        "accuracy {accuracy} should track predicted JQ {predicted}"
    );
}

#[test]
fn amt_campaign_replay_improves_with_budget() {
    let simulator = AmtSimulator::new(AmtCampaignConfig::small());
    let mut rng = StdRng::seed_from_u64(5);
    let dataset = simulator.run(&mut rng).unwrap();
    let service = JuryService::new(ServiceConfig::fast());
    let low = run_on_dataset(&service, &dataset, 0.1).unwrap();
    let high = run_on_dataset(&service, &dataset, 1.0).unwrap();
    assert!(high.mean_predicted_jq >= low.mean_predicted_jq - 1e-9);
    assert!(high.mean_cost >= low.mean_cost - 1e-9);
    assert!(high.accuracy >= low.accuracy - 0.1);
    assert_eq!(low.outcomes.len(), dataset.num_tasks());
}

#[test]
fn selections_never_include_workers_outside_the_pool() {
    let service = JuryService::new(ServiceConfig::fast());
    for seed in 0..3u64 {
        let pool = random_pool(25, seed);
        let outcome = select_jury(&service, &pool, 0.4, Prior::uniform(), Strategy::Bv).unwrap();
        for id in outcome.worker_ids() {
            assert!(pool.contains(id), "selected unknown worker {id}");
        }
    }
}
