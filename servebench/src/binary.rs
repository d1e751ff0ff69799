//! `binary_select`: sequential `select` calls, each on its own freshly
//! generated binary pool, so no two requests share a jury and the JQ cache
//! only ever serves a search's revisits of its own juries. This is where
//! the binary `jq` sessions and the `selection` searches do nearly all the
//! work.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_model::{Prior, WorkerPool};
use jury_service::{JuryService, SelectionRequest, SelectionResponse, ServiceConfig, SolverPolicy};

use crate::check::{self, Served};
use crate::inputs::{shuffle, stratified};
use crate::layers::{median_per_op_us, median_self, CallTrace, Layers};
use crate::replay;
use crate::report::Phase;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{ms_since, Workload};

/// Worker qualities are drawn from U(0.55, 0.8) (stratified): low enough
/// that the served JQ stays below 1 and carries signal.
pub const QUALITY_RANGE: (f64, f64) = (0.55, 0.8);
/// Worker costs are drawn from U(0.9, 1.1) (stratified). With budgets
/// half-way between integers, a budget `k + 0.5` then always buys exactly
/// `k` workers, so the cost of one request varies little between pools of
/// the same cell.
pub const COST_RANGE: (f64, f64) = (0.9, 1.1);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Auto,
    Greedy,
    Portfolio,
}

/// One round: pool size, policy and budget of each request. Six Auto, two
/// Greedy and two Portfolio calls; Portfolio stays at n ≤ 50. Two Greedy
/// calls take under 0.2 s, five calls 0.35–0.55 s and three calls 1–1.6 s,
/// so over four rounds the median falls in the middle of the 0.35–0.55 s
/// band and the tail among the slow calls, rather than in a gap between
/// cells.
const ROUND: [(usize, Kind, f64); 10] = [
    (30, Kind::Greedy, 7.5),
    (100, Kind::Greedy, 6.5),
    (30, Kind::Auto, 3.5),
    (30, Kind::Auto, 4.5),
    (50, Kind::Auto, 2.5),
    (50, Kind::Auto, 2.5),
    (30, Kind::Portfolio, 4.5),
    (50, Kind::Auto, 3.5),
    (50, Kind::Portfolio, 3.5),
    (100, Kind::Auto, 2.5),
];

/// Rounds of requests generated up front; a run that outlasts them starts
/// over (and would then see cache hits).
const ROUNDS_GENERATED: usize = 200;

/// Seed of the warm-up request, fixed so that set-up work does not depend
/// on the workload seed.
const WARMUP_SEED: u64 = 0x5eed_0001;

fn policy(kind: Kind) -> SolverPolicy {
    match kind {
        Kind::Auto => SolverPolicy::Auto,
        Kind::Greedy => SolverPolicy::Greedy,
        Kind::Portfolio => SolverPolicy::Portfolio(Vec::new()),
    }
}

/// Rounds of requests in seeded order: every round holds each cell once,
/// shuffled, with a fresh pool per request.
pub fn generate(seed: u64, rounds: usize) -> Vec<SelectionRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests = Vec::with_capacity(rounds * ROUND.len());
    for _ in 0..rounds {
        let mut order = ROUND;
        shuffle(&mut rng, &mut order);
        for (n, kind, budget) in order {
            let qualities = stratified(&mut rng, n, QUALITY_RANGE);
            let costs = stratified(&mut rng, n, COST_RANGE);
            let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs)
                .expect("generated qualities and costs are valid");
            requests.push(SelectionRequest::new(pool, budget).with_policy(policy(kind)));
        }
    }
    requests
}

/// The `binary_select` workload.
#[derive(Debug)]
pub struct BinarySelect {
    service: JuryService,
    paper: JuryService,
    requests: Vec<SelectionRequest>,
    next: usize,
    traced: CallTrace,
}

impl BinarySelect {
    /// Checks one response against its request; returns the exact JQ.
    fn check(request: &SelectionRequest, response: &SelectionResponse) -> Result<f64, String> {
        let members = response.jury.ids();
        check::check_binary(
            request.pool(),
            Prior::uniform(),
            &Served {
                members: &members,
                cost: response.cost,
                quality: response.quality,
                budget: request.budget(),
            },
        )
    }

    /// Replays one served request layer by layer and times the same
    /// request at the paper's configuration.
    fn trace_call(
        &mut self,
        tracer: &mut Tracer,
        call: u64,
        request: &SelectionRequest,
        response: &SelectionResponse,
        service_ms: f64,
    ) -> Result<(), String> {
        let config = *self.service.config();
        let prior = Prior::uniform();
        let counts = tracer.span("replay", call, |t| {
            let mut counts = replay::binary_selection(
                t,
                call,
                &config,
                request.pool(),
                request.budget(),
                prior,
                &request.policy(),
            )?;
            replay::binary_session(
                t,
                call,
                &config,
                request.pool(),
                prior,
                &response.jury,
                &mut counts,
            )?;
            replay::binary_eval(t, call, &config, prior, &response.jury);
            Ok::<_, String>(counts)
        })?;
        let started = Instant::now();
        tracer
            .span("service.paper_config", call, |_| self.paper.select(request))
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

impl Workload for BinarySelect {
    const ROUND: usize = ROUND.len();
    const RUN_ROUNDS: usize = 4;

    fn setup(seed: u64) -> Result<Self, String> {
        let requests = generate(seed, ROUNDS_GENERATED);
        let service = JuryService::new(ServiceConfig::default());
        let paper = JuryService::new(ServiceConfig::paper_experiments());
        check::paper_pin(&service)?;
        let warmup = generate(WARMUP_SEED, 1)
            .into_iter()
            .find(|r| r.policy() == SolverPolicy::Greedy)
            .expect("every round holds a Greedy request");
        let response = service.select(&warmup).map_err(|err| err.to_string())?;
        Self::check(&warmup, &response)?;
        let traced = CallTrace {
            cache_at_start: service.cache_stats(),
            ..CallTrace::default()
        };
        Ok(BinarySelect {
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
            let result = tracer.span("service.select", call, |_| self.service.select(&request));
            let ms = ms_since(t0);
            phase.unit_ms.push(ms);
            let response = match result {
                Ok(response) => response,
                Err(err) => {
                    phase.fail(format!("select: {err}"));
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
        let ops: Vec<usize> = counts.iter().map(|c| c.session_ops).collect();
        let buckets: Vec<f64> = counts.iter().map(|c| c.grid_buckets as f64).collect();
        Layers {
            jq_grid_buckets: stats::median(&buckets),
            jq_session_open_us: median_self(tracer, "jq.session_open", 1e3),
            jq_session_op_us: median_per_op_us(tracer, "jq.session_op", &ops),
            jq_rebuilds: counts.iter().map(|c| c.rebuilds as f64).sum(),
            jq_eval_us: median_self(tracer, "jq.eval", 1e3),
            ..self.traced.layers(tracer, self.service.cache_stats())
        }
    }
}
