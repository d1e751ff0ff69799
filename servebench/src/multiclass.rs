//! `multiclass_select`: sequential `select_multiclass` calls over
//! three-label confusion-matrix pools, budget 4, default policy. Seven in
//! ten pools sit at or below the session cutoff (served by the scratch DP)
//! and three in ten above it (served by dense incremental sessions), so the
//! median and the tail land on different `jq` engines.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_model::{CategoricalPrior, MatrixPool, WorkerId};
use jury_selection::DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF;
use jury_service::{
    JuryService, MultiClassSelectionRequest, MultiClassSelectionResponse, ServiceConfig,
};

use crate::binary::QUALITY_RANGE;
use crate::check::{self, Served};
use crate::inputs::{shuffle, stratified};
use crate::layers::{median_per_op_us, median_self, CallTrace, Layers};
use crate::replay;
use crate::report::Phase;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{ms_since, Workload};

/// Labels per task.
pub const NUM_CHOICES: usize = 3;
/// Budget of every request.
pub const BUDGET: f64 = 4.0;
/// Worker costs of pools at or below the session cutoff are drawn from
/// U(0.85, 0.95) (stratified): the budget always buys exactly four workers,
/// which makes each scratch-DP call take about 10 ms rather than 3 ms and
/// less sensitive to timer and scheduling noise.
pub const SMALL_POOL_COSTS: (f64, f64) = (0.85, 0.95);
/// Worker costs of larger pools are drawn from U(1.05, 1.3) (stratified):
/// the budget always buys exactly three workers, which keeps one
/// dense-session call near 2.5 s instead of 4–6 s.
pub const LARGE_POOL_COSTS: (f64, f64) = (1.05, 1.3);

/// Pool sizes of one round: 70 % in {12, 16, 20}, 30 % in {21, 24}, across
/// `DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF` (20). Three faster pools, four
/// identical n = 20 pools, three dense-session pools: the median falls in
/// the middle of the n = 20 calls and, over four rounds, the tail among the
/// dense-session calls.
const ROUND: [usize; 10] = [12, 16, 16, 20, 20, 20, 20, 21, 21, 24];

/// Rounds of requests generated up front.
const ROUNDS_GENERATED: usize = 100;

/// Seed of the warm-up request, independent of the workload seed.
const WARMUP_SEED: u64 = 0x5eed_0002;

fn prior() -> CategoricalPrior {
    CategoricalPrior::uniform(NUM_CHOICES).expect("three labels")
}

/// Rounds of requests in seeded order, each round holding every pool size
/// once, shuffled.
pub fn generate(seed: u64, rounds: usize) -> Vec<MultiClassSelectionRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests = Vec::with_capacity(rounds * ROUND.len());
    for _ in 0..rounds {
        let mut order = ROUND;
        shuffle(&mut rng, &mut order);
        for n in order {
            let qualities = stratified(&mut rng, n, QUALITY_RANGE);
            let costs = if n <= DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF {
                stratified(&mut rng, n, SMALL_POOL_COSTS)
            } else {
                stratified(&mut rng, n, LARGE_POOL_COSTS)
            };
            let pool = MatrixPool::from_qualities_and_costs(&qualities, &costs, NUM_CHOICES)
                .expect("generated qualities and costs are valid");
            requests.push(MultiClassSelectionRequest::new(pool, BUDGET).with_prior(prior()));
        }
    }
    requests
}

/// The `multiclass_select` workload.
#[derive(Debug)]
pub struct MulticlassSelect {
    service: JuryService,
    paper: JuryService,
    requests: Vec<MultiClassSelectionRequest>,
    next: usize,
    traced: CallTrace,
}

impl MulticlassSelect {
    fn check(
        request: &MultiClassSelectionRequest,
        response: &MultiClassSelectionResponse,
    ) -> Result<f64, String> {
        let members: Vec<WorkerId> = response.members.iter().map(|m| m.id()).collect();
        check::check_multiclass(
            request.pool(),
            &prior(),
            &response.members,
            &Served {
                members: &members,
                cost: response.cost,
                quality: response.quality,
                budget: request.budget(),
            },
        )
    }

    fn trace_call(
        &mut self,
        tracer: &mut Tracer,
        call: u64,
        request: &MultiClassSelectionRequest,
        response: &MultiClassSelectionResponse,
        service_ms: f64,
    ) -> Result<(), String> {
        let config = *self.service.config();
        let counts = tracer.span("replay", call, |t| {
            replay::multiclass(t, call, &config, request, &prior(), &response.members)
        })?;
        let started = Instant::now();
        tracer
            .span("service.paper_config", call, |_| {
                self.paper.select_multiclass(request)
            })
            .map_err(|err| format!("paper config: {err}"))?;
        let traced = &mut self.traced;
        traced.paper_ms.push(ms_since(started));
        traced.service_ms.push(service_ms);
        traced.service_evaluations.push(response.evaluations as f64);
        traced.solvers.push(response.solver);
        traced.counts.push(counts);
        Ok(())
    }
}

impl Workload for MulticlassSelect {
    const ROUND: usize = ROUND.len();
    const RUN_ROUNDS: usize = 4;

    fn setup(seed: u64) -> Result<Self, String> {
        let requests = generate(seed, ROUNDS_GENERATED);
        let service = JuryService::new(ServiceConfig::default());
        let paper = JuryService::new(ServiceConfig::paper_experiments());
        check::paper_pin(&service)?;
        let warmup = generate(WARMUP_SEED, 1)
            .into_iter()
            .find(|r| r.pool().len() == 12)
            .expect("every round holds a 12-worker pool");
        let response = service
            .select_multiclass(&warmup)
            .map_err(|err| err.to_string())?;
        Self::check(&warmup, &response)?;
        let traced = CallTrace {
            cache_at_start: service.cache_stats(),
            ..CallTrace::default()
        };
        Ok(MulticlassSelect {
            service,
            paper,
            requests,
            next: 0,
            traced,
        })
    }

    fn run(&mut self, rounds: usize, tracer: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        for done in 0..rounds * Self::ROUND {
            let request = self.requests[self.next % self.requests.len()].clone();
            self.next += 1;
            let call = done as u64;
            phase.attempted += 1;
            let t0 = Instant::now();
            let result = tracer.span("service.select_multiclass", call, |_| {
                self.service.select_multiclass(&request)
            });
            let ms = ms_since(t0);
            phase.unit_ms.push(ms);
            let response = match result {
                Ok(response) => response,
                Err(err) => {
                    phase.fail(format!("select_multiclass: {err}"));
                    continue;
                }
            };
            match Self::check(&request, &response) {
                Ok(exact) => phase.accept(exact),
                Err(err) => phase.fail(err),
            }
            if tracer.enabled() {
                if let Err(err) = self.trace_call(tracer, call, &request, &response, ms) {
                    phase.fail(err);
                }
            }
        }
        phase
    }

    fn layers(&self, tracer: &Tracer) -> Layers {
        let counts = &self.traced.counts;
        let session_ops: Vec<usize> = counts
            .iter()
            .map(|c| c.session_ops)
            .filter(|&ops| ops > 0)
            .collect();
        let cells: Vec<f64> = counts
            .iter()
            .filter(|c| c.grid_cells > 0)
            .map(|c| c.grid_cells as f64)
            .collect();
        Layers {
            jq_rebuilds: counts.iter().map(|c| c.rebuilds as f64).sum(),
            jq_mc_eval_ms: median_self(tracer, "jq.mc_eval", 1.0),
            jq_mc_session_op_us: median_per_op_us(tracer, "jq.mc_session_op", &session_ops),
            jq_mc_grid_cells: stats::median(&cells),
            ..self.traced.layers(tracer, self.service.cache_stats())
        }
    }
}
