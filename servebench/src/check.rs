//! The benchmark's reference checker: every served jury is checked for
//! feasibility against its own request and re-scored by exact enumeration,
//! independently of the quality the service reports.

use jury_jq::{exact_bv_jq, exact_multiclass_bv_jq};
use jury_model::{
    paper_example_pool, CategoricalPrior, Jury, MatrixJury, MatrixPool, MatrixWorker, Prior,
    WorkerId, WorkerPool,
};
use jury_service::{JuryService, SelectionRequest};

/// Largest gap allowed between the quality the service reports and the
/// exact re-score. The service scores juries above its exact cutoff with
/// the bucket approximation, whose error the paper bounds by 1 %.
pub const JQ_TOLERANCE: f64 = 0.01;

/// Slack for floating-point cost sums.
const COST_SLACK: f64 = 1e-9;

/// A served jury as the checker sees it, whatever endpoint produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served<'a> {
    /// Member ids, in the order served.
    pub members: &'a [WorkerId],
    /// The cost the service reported.
    pub cost: f64,
    /// The quality the service reported.
    pub quality: f64,
    /// The budget the jury had to fit.
    pub budget: f64,
}

/// Ids must be distinct and all drawn from the candidate pool.
fn check_membership(
    members: &[WorkerId],
    in_pool: impl Fn(WorkerId) -> bool,
) -> Result<(), String> {
    let mut seen = members.to_vec();
    seen.sort();
    seen.dedup();
    if seen.len() != members.len() {
        return Err(format!("jury {members:?} repeats a member"));
    }
    match members.iter().find(|&&id| !in_pool(id)) {
        Some(id) => Err(format!("member {id:?} is not in the request's pool")),
        None => Ok(()),
    }
}

/// Cost within budget and equal to what the service reported; exact JQ
/// within [`JQ_TOLERANCE`] of the reported quality.
fn check_scores(served: &Served<'_>, true_cost: f64, exact: f64) -> Result<f64, String> {
    if true_cost > served.budget + COST_SLACK {
        return Err(format!(
            "jury costs {true_cost} over budget {}",
            served.budget
        ));
    }
    if (true_cost - served.cost).abs() > COST_SLACK {
        return Err(format!(
            "reported cost {} but the members cost {true_cost}",
            served.cost
        ));
    }
    if (exact - served.quality).abs() > JQ_TOLERANCE {
        return Err(format!(
            "reported JQ {} but the exact JQ is {exact}",
            served.quality
        ));
    }
    Ok(exact)
}

/// Checks a binary jury drawn from `pool` and returns its exact `JQ(BV)`.
pub fn check_binary(pool: &WorkerPool, prior: Prior, served: &Served<'_>) -> Result<f64, String> {
    check_membership(served.members, |id| pool.contains(id))?;
    let jury = Jury::from_pool(pool, served.members).map_err(|err| err.to_string())?;
    let exact = exact_bv_jq(&jury, prior).map_err(|err| err.to_string())?;
    check_scores(served, jury.cost(), exact)
}

/// Checks a multi-class jury drawn from `pool` and returns its exact
/// multi-class `JQ(BV)`. The served members must carry the pool's own
/// confusion matrices.
pub fn check_multiclass(
    pool: &MatrixPool,
    prior: &CategoricalPrior,
    members: &[MatrixWorker],
    served: &Served<'_>,
) -> Result<f64, String> {
    check_membership(served.members, |id| pool.get(id).is_ok())?;
    if members.iter().any(|m| pool.get(m.id()).ok() != Some(m)) {
        return Err("a served member differs from the pool's worker".into());
    }
    let jury = MatrixJury::new(members.to_vec()).map_err(|err| err.to_string())?;
    let exact = exact_multiclass_bv_jq(&jury, prior).map_err(|err| err.to_string())?;
    let cost = members.iter().map(|m| m.cost()).sum();
    check_scores(served, cost, exact)
}

/// The paper's running example: budget 15 on the Figure 1 pool selects
/// {B, C, G} at JQ 0.845 and cost 14.
pub fn paper_pin(service: &JuryService) -> Result<(), String> {
    let request = SelectionRequest::new(paper_example_pool(), 15.0).with_prior(Prior::uniform());
    let response = service.select(&request).map_err(|err| err.to_string())?;
    let expected = [WorkerId(1), WorkerId(2), WorkerId(6)];
    if response.worker_ids() != expected
        || (response.quality - 0.845).abs() > 1e-9
        || (response.cost - 14.0).abs() > 1e-9
    {
        return Err(format!(
            "paper pin: got {:?} at JQ {} cost {}",
            response.worker_ids(),
            response.quality,
            response.cost
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_service::ServiceConfig;

    fn served_for(pool: &WorkerPool, budget: f64) -> (Vec<WorkerId>, f64, f64) {
        let service = JuryService::new(ServiceConfig::default());
        let response = service
            .select(&SelectionRequest::new(pool.clone(), budget))
            .unwrap();
        (response.jury.ids(), response.cost, response.quality)
    }

    #[test]
    fn accepts_a_genuine_response_and_the_paper_pin() {
        let pool = paper_example_pool();
        let (members, cost, quality) = served_for(&pool, 15.0);
        let served = Served {
            members: &members,
            cost,
            quality,
            budget: 15.0,
        };
        let exact = check_binary(&pool, Prior::uniform(), &served).unwrap();
        assert!((exact - 0.845).abs() < 1e-9);
        paper_pin(&JuryService::new(ServiceConfig::default())).unwrap();
    }

    #[test]
    fn rejects_tampered_responses() {
        let pool = paper_example_pool();
        let (members, cost, quality) = served_for(&pool, 15.0);
        let genuine = Served {
            members: &members,
            cost,
            quality,
            budget: 15.0,
        };
        // The same jury claimed under a budget it does not fit.
        let over_budget = Served {
            budget: 13.0,
            ..genuine
        };
        assert!(check_binary(&pool, Prior::uniform(), &over_budget)
            .unwrap_err()
            .contains("over budget"));
        // A quality the jury does not have.
        let wrong_jq = Served {
            quality: quality + 0.05,
            ..genuine
        };
        assert!(check_binary(&pool, Prior::uniform(), &wrong_jq)
            .unwrap_err()
            .contains("exact JQ"));
        // A misreported cost.
        let wrong_cost = Served {
            cost: cost - 1.0,
            ..genuine
        };
        assert!(check_binary(&pool, Prior::uniform(), &wrong_cost).is_err());
        // A member from outside the pool, and a repeated member.
        let foreign = [WorkerId(1), WorkerId(99)];
        let stranger = Served {
            members: &foreign,
            ..genuine
        };
        assert!(check_binary(&pool, Prior::uniform(), &stranger)
            .unwrap_err()
            .contains("not in the request's pool"));
        let twice = [WorkerId(1), WorkerId(1)];
        let repeated = Served {
            members: &twice,
            ..genuine
        };
        assert!(check_binary(&pool, Prior::uniform(), &repeated).is_err());
    }

    #[test]
    fn rejects_a_tampered_multiclass_response() {
        let pool = MatrixPool::from_qualities_and_costs(
            &[0.9, 0.75, 0.7, 0.65, 0.6],
            &[3.0, 2.0, 1.0, 1.0, 1.0],
            3,
        )
        .unwrap();
        let prior = CategoricalPrior::uniform(3).unwrap();
        let members: Vec<MatrixWorker> = pool.workers()[..2].to_vec();
        let ids: Vec<WorkerId> = members.iter().map(|m| m.id()).collect();
        let exact =
            exact_multiclass_bv_jq(&MatrixJury::new(members.clone()).unwrap(), &prior).unwrap();
        let genuine = Served {
            members: &ids,
            cost: 5.0,
            quality: exact,
            budget: 5.0,
        };
        assert!(check_multiclass(&pool, &prior, &members, &genuine).is_ok());
        let over = Served {
            budget: 4.0,
            ..genuine
        };
        assert!(check_multiclass(&pool, &prior, &members, &over).is_err());
        let wrong = Served {
            quality: exact - 0.1,
            ..genuine
        };
        assert!(check_multiclass(&pool, &prior, &members, &wrong).is_err());
    }
}
