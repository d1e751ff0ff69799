//! `online_loop`: the streaming serving loop over a 40-worker registry.
//! One cycle streams a golden answer batch into the registry, serves a
//! batch of 32 tasks over overlapping 12-candidate windows of the fresh
//! snapshot (exhaustive solves through the shared cache), tracks the
//! juries in a bounded drift ledger, scans it, and repairs what the scan
//! flags. A fixed schedule degrades a few workers and later restores them,
//! so some cycles carry repairs.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jury_model::{Answer, Prior, TaskId, WorkerId, WorkerPool};
use jury_service::{
    JuryService, RepairOutcome, RepairResponse, SelectionRequest, SelectionResponse, ServiceConfig,
    ServiceError, SolverPolicy,
};
use jury_stream::{
    AnswerEvent, DriftDetector, DriftStatus, RegistryConfig, SelectionId, WorkerRegistry,
};

use crate::check::{self, Served};
use crate::inputs::{shuffle, stratified};
use crate::layers::{median_per_op_us, median_self, CallTrace, Layers};
use crate::replay::{self, ReplayCounts};
use crate::report::Phase;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{ms_since, Workload};

/// Registered workers.
pub const WORKERS: usize = 40;
/// Tasks served per cycle by one `select_batch`.
pub const TASKS: usize = 32;
/// Candidates per task: a window of consecutive worker ids, within the
/// default exact cutoff (14), so every slot is an exhaustive solve.
pub const WINDOW: usize = 12;
/// Drift threshold of the ledger.
pub const THRESHOLD: f64 = 0.03;
/// Ledger capacity: the juries of the last three cycles.
pub const LEDGER_CAPACITY: usize = 3 * TASKS;
/// Seeded worker qualities are drawn from U(0.58, 0.8) (stratified).
pub const SEED_QUALITY: (f64, f64) = (0.58, 0.8);
/// Worker costs are drawn from U(0.5, 1.5) (stratified).
pub const COST_RANGE: (f64, f64) = (0.5, 1.5);
/// Pseudo-observations behind each seeded quality.
pub const SEED_STRENGTH: f64 = 40.0;
/// Task budgets, drawn per task from this list.
pub const BUDGETS: [f64; 2] = [3.5, 4.5];
/// Cycles per degrade-and-restore period; a phase always runs whole
/// periods.
pub const PERIOD: usize = 16;
/// Workers degraded in each period, drawn from the seed.
pub const DEGRADED: usize = 3;
/// Periods of schedule generated up front; longer runs repeat it.
const PERIODS: usize = 8;
/// Cycles of the period in which the degraded workers answer at 0.5.
const DEGRADE_AT: [usize; 2] = [2, 3];
/// Cycles of the period in which they answer at their own quality again.
const RESTORE_AT: [usize; 2] = [9, 10];
/// Golden answers each degraded worker streams in a degrade or restore
/// cycle.
const BURST_ANSWERS: usize = 24;
/// Workers that stream routine answers every cycle, and answers each.
const ROUTINE: (usize, usize) = (10, 2);
/// Batch slots per cycle replayed layer by layer in the traced run.
const REPLAYED_SLOTS: usize = 4;

/// One cycle's inputs.
#[derive(Debug, Clone)]
struct Cycle {
    events: Vec<AnswerEvent>,
    /// (first worker id of the candidate window, budget) per task.
    tasks: Vec<(usize, f64)>,
}

/// The generated inputs: worker costs and seeded qualities, and the cycle
/// schedule.
#[derive(Debug, Clone)]
struct Inputs {
    qualities: Vec<f64>,
    costs: Vec<f64>,
    schedule: Vec<Cycle>,
}

fn golden(rng: &mut StdRng, worker: usize, task: u64, accuracy: f64) -> AnswerEvent {
    let truth = if rng.gen_bool(0.5) {
        Answer::Yes
    } else {
        Answer::No
    };
    let wrong = match truth {
        Answer::Yes => Answer::No,
        Answer::No => Answer::Yes,
    };
    let vote = if rng.gen_bool(accuracy) { truth } else { wrong };
    AnswerEvent::golden(WorkerId(worker as u32), TaskId(task), vote, truth)
}

fn generate(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let qualities = stratified(&mut rng, WORKERS, SEED_QUALITY);
    let costs = stratified(&mut rng, WORKERS, COST_RANGE);
    let mut schedule = Vec::with_capacity(PERIODS * PERIOD);
    let mut task = 0u64;
    for _ in 0..PERIODS {
        let mut degraded: Vec<usize> = (0..WORKERS).collect();
        shuffle(&mut rng, &mut degraded);
        degraded.truncate(DEGRADED);
        for step in 0..PERIOD {
            let mut events = Vec::new();
            for _ in 0..ROUTINE.0 {
                let worker = rng.gen_range(0..WORKERS);
                for _ in 0..ROUTINE.1 {
                    task += 1;
                    events.push(golden(&mut rng, worker, task, qualities[worker]));
                }
            }
            for &worker in &degraded {
                let accuracy = if DEGRADE_AT.contains(&step) {
                    0.5
                } else if RESTORE_AT.contains(&step) {
                    qualities[worker]
                } else {
                    continue;
                };
                for _ in 0..BURST_ANSWERS {
                    task += 1;
                    events.push(golden(&mut rng, worker, task, accuracy));
                }
            }
            let tasks = (0..TASKS)
                .map(|_| {
                    (
                        rng.gen_range(0..WORKERS),
                        BUDGETS[rng.gen_range(0..BUDGETS.len())],
                    )
                })
                .collect();
            schedule.push(Cycle { events, tasks });
        }
    }
    Inputs {
        qualities,
        costs,
        schedule,
    }
}

/// What one served cycle returned.
struct CycleOut {
    requests: Vec<SelectionRequest>,
    results: Vec<Result<SelectionResponse, ServiceError>>,
    scanned: usize,
    stale: usize,
    flagged: usize,
    repairs: Vec<Result<RepairResponse, ServiceError>>,
    batch_ms: f64,
}

/// One request per task, over the task's candidate window of `snapshot`.
fn window_requests(
    snapshot: &WorkerPool,
    tasks: &[(usize, f64)],
) -> Result<Vec<SelectionRequest>, String> {
    tasks
        .iter()
        .map(|&(start, budget)| {
            let ids: Vec<WorkerId> = (0..WINDOW)
                .map(|k| WorkerId(((start + k) % WORKERS) as u32))
                .collect();
            let pool = WorkerPool::from_workers(snapshot.select(&ids)?)?;
            Ok(SelectionRequest::new(pool, budget))
        })
        .collect::<Result<Vec<_>, jury_model::ModelError>>()
        .map_err(|err| format!("candidate window: {err}"))
}

/// Serves one cycle: stream writes, snapshot, batch, track, scan, repair.
fn serve_cycle(
    t: &mut Tracer,
    call: u64,
    service: &JuryService,
    registry: &mut WorkerRegistry,
    detector: &mut DriftDetector,
    cycle: &Cycle,
) -> Result<CycleOut, String> {
    t.span("stream.observe", call, |_| {
        cycle
            .events
            .iter()
            .try_for_each(|&event| registry.observe(event))
    })
    .map_err(|err| format!("observe: {err}"))?;
    let snapshot = t
        .span("stream.snapshot", call, |_| registry.snapshot_pool())
        .map_err(|err| format!("snapshot: {err}"))?;
    let requests = window_requests(&snapshot, &cycle.tasks)?;
    let batch_started = Instant::now();
    let results = t.span("service.select_batch", call, |_| {
        service.select_batch(&requests)
    });
    let batch_ms = ms_since(batch_started);
    let epoch = registry.epoch();
    for (request, result) in requests.iter().zip(&results) {
        if let Ok(response) = result {
            detector.track(
                response.jury.ids(),
                request.budget(),
                Prior::uniform(),
                response.quality,
                epoch,
            );
        }
    }
    let reports = t
        .span("service.drift_scan", call, |_| {
            service.drift_scan(registry, detector)
        })
        .map_err(|err| format!("drift_scan: {err}"))?;
    let flagged: Vec<SelectionId> = reports
        .iter()
        .filter(|r| r.status == DriftStatus::Drifted)
        .map(|r| r.id)
        .collect();
    let repairs = if flagged.is_empty() {
        Vec::new()
    } else {
        t.span("service.repair_batch", call, |_| {
            service.repair_batch(registry, detector, &flagged)
        })
    };
    Ok(CycleOut {
        requests,
        results,
        scanned: reports.len(),
        stale: reports
            .iter()
            .filter(|r| r.status == DriftStatus::Stale)
            .count(),
        flagged: flagged.len(),
        repairs,
        batch_ms,
    })
}

#[derive(Debug, Default)]
struct Traced {
    /// The replayed batch slots, one call each.
    slots: CallTrace,
    repair_counts: Vec<ReplayCounts>,
    batch_efficiency: Vec<f64>,
    events: Vec<usize>,
    drifted_frac: Vec<f64>,
    outcomes: [usize; 3],
}

/// The `online_loop` workload.
#[derive(Debug)]
pub struct OnlineLoop {
    service: JuryService,
    registry: WorkerRegistry,
    detector: DriftDetector,
    schedule: Vec<Cycle>,
    next: usize,
    traced: Traced,
}

impl OnlineLoop {
    /// Replays sampled batch slots (selection and a from-scratch eval) and
    /// every changed repair (a session over the 40-worker snapshot).
    fn trace_cycle(
        &mut self,
        tracer: &mut Tracer,
        call: u64,
        out: &CycleOut,
        snapshot: &WorkerPool,
        events: usize,
    ) -> Result<(), String> {
        let config = *self.service.config();
        let prior = Prior::uniform();
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(TASKS);
        let traced = &mut self.traced;
        let slot_total_ms: f64 = out
            .results
            .iter()
            .flatten()
            .map(|r| r.elapsed.as_secs_f64() * 1e3)
            .sum();
        traced
            .batch_efficiency
            .push(slot_total_ms / (out.batch_ms * threads as f64));
        traced.events.push(events);
        traced
            .drifted_frac
            .push(out.flagged as f64 / out.scanned.max(1) as f64);
        let stride = TASKS / REPLAYED_SLOTS;
        for (slot, (request, result)) in out.requests.iter().zip(&out.results).enumerate() {
            let Ok(response) = result else { continue };
            if slot % stride != call as usize % stride {
                continue;
            }
            let counts = tracer.span("replay", call, |t| {
                let counts = replay::binary_selection(
                    t,
                    call,
                    &config,
                    request.pool(),
                    request.budget(),
                    prior,
                    &SolverPolicy::Auto,
                )?;
                replay::binary_eval(t, call, &config, prior, &response.jury);
                Ok::<_, String>(counts)
            })?;
            let slots = &mut traced.slots;
            slots.service_ms.push(response.elapsed.as_secs_f64() * 1e3);
            slots.service_evaluations.push(response.evaluations as f64);
            slots.solvers.push(response.solver);
            slots.counts.push(counts);
        }
        for response in out.repairs.iter().flatten() {
            traced.outcomes[match response.outcome {
                RepairOutcome::Unchanged => 0,
                RepairOutcome::Patched { .. } => 1,
                RepairOutcome::Resolved => 2,
            }] += 1;
            if !response.changed() {
                continue;
            }
            let mut counts = ReplayCounts::default();
            tracer.span("replay", call, |t| {
                replay::binary_session(
                    t,
                    call,
                    &config,
                    snapshot,
                    prior,
                    &response.jury,
                    &mut counts,
                )
            })?;
            traced.repair_counts.push(counts);
        }
        Ok(())
    }
}

impl Workload for OnlineLoop {
    const ROUND: usize = PERIOD;
    // About 1400 cycles, 30 s. The shared JQ cache fills (2^20 entries)
    // after about 160 cycles, so most of the run also pays its eviction
    // sweeps, as a long-running service would.
    const RUN_ROUNDS: usize = 86;

    fn setup(seed: u64) -> Result<Self, String> {
        let inputs = generate(seed);
        let service = JuryService::new(ServiceConfig::default());
        check::paper_pin(&service)?;
        let mut registry =
            WorkerRegistry::new(RegistryConfig::default()).map_err(|err| err.to_string())?;
        for (w, (&quality, &cost)) in inputs.qualities.iter().zip(&inputs.costs).enumerate() {
            registry
                .register_with_quality(WorkerId(w as u32), quality, SEED_STRENGTH, cost)
                .map_err(|err| err.to_string())?;
        }
        // Warm-up: the first cycle's batch on the seeded snapshot.
        let snapshot = registry.snapshot_pool().map_err(|err| err.to_string())?;
        let warmup = window_requests(&snapshot, &inputs.schedule[0].tasks)?;
        for result in service.select_batch(&warmup) {
            result.map_err(|err| format!("warm-up: {err}"))?;
        }
        let traced = Traced {
            slots: CallTrace {
                cache_at_start: service.cache_stats(),
                ..CallTrace::default()
            },
            ..Traced::default()
        };
        Ok(OnlineLoop {
            service,
            registry,
            detector: DriftDetector::new(THRESHOLD).with_capacity(LEDGER_CAPACITY),
            schedule: inputs.schedule,
            next: 0,
            traced,
        })
    }

    fn run(&mut self, rounds: usize, tracer: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        for done in 0..rounds * Self::ROUND {
            let cycle = self.schedule[self.next % self.schedule.len()].clone();
            self.next += 1;
            let call = done as u64;
            let t0 = Instant::now();
            let served = tracer.span("cycle", call, |t| {
                serve_cycle(
                    t,
                    call,
                    &self.service,
                    &mut self.registry,
                    &mut self.detector,
                    &cycle,
                )
            });
            phase.unit_ms.push(ms_since(t0));
            // The stream write batch and the scan are one call each.
            phase.attempted += 2;
            let out = match served {
                Ok(out) => out,
                Err(err) => {
                    phase.fail(err);
                    continue;
                }
            };
            phase.attempted += (out.results.len() + out.repairs.len()) as u64;
            for _ in 0..out.stale {
                phase.fail("drift scan reported a stale jury");
            }
            for (request, result) in out.requests.iter().zip(&out.results) {
                let checked = result
                    .as_ref()
                    .map_err(|err| format!("select_batch slot: {err}"))
                    .and_then(|response| {
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
                    });
                match checked {
                    Ok(exact) => phase.accept(exact),
                    Err(err) => phase.fail(err),
                }
            }
            let snapshot = match self.registry.snapshot_pool() {
                Ok(snapshot) => snapshot,
                Err(err) => {
                    phase.fail(format!("snapshot: {err}"));
                    continue;
                }
            };
            for result in &out.repairs {
                let checked = result
                    .as_ref()
                    .map_err(|err| format!("repair: {err}"))
                    .and_then(|response| {
                        let budget = self
                            .detector
                            .get(response.id)
                            .ok_or("repaired jury left the ledger")?
                            .budget();
                        let members = response.jury.ids();
                        check::check_binary(
                            &snapshot,
                            Prior::uniform(),
                            &Served {
                                members: &members,
                                cost: response.cost,
                                quality: response.quality,
                                budget,
                            },
                        )
                    });
                match checked {
                    Ok(exact) => phase.accept(exact),
                    Err(err) => phase.fail(err),
                }
            }
            if tracer.enabled() {
                if let Err(err) =
                    self.trace_cycle(tracer, call, &out, &snapshot, cycle.events.len())
                {
                    phase.fail(err);
                }
            }
        }
        phase
    }

    fn layers(&self, tracer: &Tracer) -> Layers {
        let traced = &self.traced;
        let repair_ops: Vec<usize> = traced.repair_counts.iter().map(|c| c.session_ops).collect();
        let buckets: Vec<f64> = traced
            .repair_counts
            .iter()
            .map(|c| c.grid_buckets as f64)
            .collect();
        let repairs = traced.outcomes.iter().sum::<usize>().max(1) as f64;
        Layers {
            jq_grid_buckets: stats::median(&buckets),
            jq_session_open_us: median_self(tracer, "jq.session_open", 1e3),
            jq_session_op_us: median_per_op_us(tracer, "jq.session_op", &repair_ops),
            jq_rebuilds: traced.repair_counts.iter().map(|c| c.rebuilds as f64).sum(),
            jq_eval_us: median_self(tracer, "jq.eval", 1e3),
            service_batch_ms: median_self(tracer, "service.select_batch", 1.0),
            service_batch_efficiency: stats::median(&traced.batch_efficiency),
            service_drift_scan_ms: median_self(tracer, "service.drift_scan", 1.0),
            service_repair_ms: median_self(tracer, "service.repair_batch", 1.0),
            repair_unchanged: traced.outcomes[0] as f64 / repairs,
            repair_patched: traced.outcomes[1] as f64 / repairs,
            repair_resolved: traced.outcomes[2] as f64 / repairs,
            stream_observe_us: median_per_op_us(tracer, "stream.observe", &traced.events),
            stream_snapshot_us: median_self(tracer, "stream.snapshot", 1e3),
            stream_drifted_frac: stats::mean(&traced.drifted_frac),
            ..traced.slots.layers(tracer, self.service.cache_stats())
        }
    }
}
