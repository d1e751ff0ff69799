//! The paper's two systems (Figure 1) as service requests: OPTJS selects
//! under [`Strategy::Bv`], the MVJS baseline under [`Strategy::Mv`], both
//! through one [`JuryService`].

use jury_model::{Prior, WorkerPool};
use jury_service::{JuryService, SelectionRequest, SelectionResponse, ServiceError, Strategy};

/// Selects a jury the way the paper's systems do: OPTJS under
/// [`Strategy::Bv`], MVJS under [`Strategy::Mv`]. A budget that affords no
/// worker returns the empty jury (quality `max(α, 1 − α)`) rather than an
/// error, which the figures' small-budget points rely on.
pub fn select_jury(
    service: &JuryService,
    pool: &WorkerPool,
    budget: f64,
    prior: Prior,
    strategy: Strategy,
) -> Result<SelectionResponse, ServiceError> {
    service.select(
        &SelectionRequest::new(pool.clone(), budget)
            .with_prior(prior)
            .with_strategy(strategy)
            .allow_empty_selection(true),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_model::{paper_example_pool, WorkerId};

    #[test]
    fn optjs_reproduces_the_figure_1_table() {
        let service = JuryService::paper_experiments();
        let table = service
            .budget_quality_table(
                &paper_example_pool(),
                &[5.0, 10.0, 15.0, 20.0],
                Prior::uniform(),
            )
            .unwrap();
        let qualities: Vec<f64> = table.rows().iter().map(|r| r.quality).collect();
        let expected = [0.75, 0.80, 0.845, 0.8695];
        for (got, want) in qualities.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn optjs_selection_outcome_is_consistent() {
        let service = JuryService::paper_experiments();
        let outcome = select_jury(
            &service,
            &paper_example_pool(),
            15.0,
            Prior::uniform(),
            Strategy::Bv,
        )
        .unwrap();
        assert_eq!(outcome.strategy, Strategy::Bv);
        assert!((outcome.quality - 0.845).abs() < 1e-9);
        assert!((outcome.cost - 14.0).abs() < 1e-9);
        assert_eq!(
            outcome.worker_ids(),
            vec![WorkerId(1), WorkerId(2), WorkerId(6)]
        );
        // The served quality matches re-evaluating the jury with the
        // service's engine.
        let engine = service.config().jq_engine();
        let recheck = engine.bv_jq(&outcome.jury, Prior::uniform()).value;
        assert!((recheck - outcome.quality).abs() < 1e-9);
    }

    #[test]
    fn invalid_budgets_are_errors_not_panics() {
        let service = JuryService::paper_experiments();
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            for strategy in [Strategy::Bv, Strategy::Mv] {
                assert!(
                    select_jury(
                        &service,
                        &paper_example_pool(),
                        bad,
                        Prior::uniform(),
                        strategy
                    )
                    .is_err(),
                    "{strategy:?} accepted budget {bad}"
                );
            }
        }
    }

    #[test]
    fn repeated_selections_share_the_service_cache() {
        let service = JuryService::paper_experiments();
        let [first, second] = [(); 2].map(|()| {
            select_jury(
                &service,
                &paper_example_pool(),
                15.0,
                Prior::uniform(),
                Strategy::Bv,
            )
            .unwrap()
        });
        assert_eq!(first.worker_ids(), second.worker_ids());
        let stats = service.cache_stats();
        assert!(stats.hits > 0, "second run should hit the cache: {stats:?}");
    }
}
