//! The per-layer metrics of the traced run. Every workload reports every
//! metric; a layer a workload does not exercise reads `0` there.

use jury_service::CacheStats;

use crate::replay::ReplayCounts;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;

/// Solver names a response can carry, in report order. Anything else is
/// counted as `other`.
pub const SOLVERS: [&str; 8] = [
    "exhaustive",
    "simulated-annealing",
    "greedy-quality",
    "greedy-ratio",
    "greedy-marginal",
    "portfolio:tabu",
    "portfolio:random-restart",
    "portfolio:simulated-annealing",
];

/// Per-layer measurements of one traced phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Median per-worker bucket count of replayed binary sessions.
    pub jq_grid_buckets: f64,
    /// Median time to open a binary session, µs.
    pub jq_session_open_us: f64,
    /// Median time per binary session operation, µs.
    pub jq_session_op_us: f64,
    /// Deconvolution fallbacks over all replayed sessions.
    pub jq_rebuilds: f64,
    /// Median from-scratch binary JQ evaluation of a served jury, µs.
    pub jq_eval_us: f64,
    /// Median from-scratch multi-class JQ evaluation of a served jury, ms.
    pub jq_mc_eval_ms: f64,
    /// Median time per multi-class session operation, µs.
    pub jq_mc_session_op_us: f64,
    /// Median dense-box cells of one multi-class session target.
    pub jq_mc_grid_cells: f64,
    /// Median instance build, µs.
    pub selection_instance_build_us: f64,
    /// Median replayed uncached solve, ms.
    pub selection_solve_ms: f64,
    /// Median objective evaluations of the replayed solve.
    pub selection_evaluations: f64,
    /// Names of the solvers that answered, one per served request.
    pub solvers: Vec<&'static str>,
    /// Median service time outside the replayed build and solve, ms.
    pub service_self_ms: f64,
    /// Median objective evaluations the service reported per request.
    pub service_evaluations: f64,
    /// Share of JQ cache lookups served from the cache during the phase.
    pub service_cache_hit_frac: f64,
    /// Cache entries evicted during the phase.
    pub service_cache_evictions: f64,
    /// Median `select_batch` wall time, ms.
    pub service_batch_ms: f64,
    /// Median Σ slot time / (batch wall × batch threads).
    pub service_batch_efficiency: f64,
    /// Median `drift_scan` wall time, ms.
    pub service_drift_scan_ms: f64,
    /// Median `repair_batch` wall time over cycles that repaired, ms.
    pub service_repair_ms: f64,
    /// Share of repairs that left the jury unchanged.
    pub repair_unchanged: f64,
    /// Share of repairs patched in place.
    pub repair_patched: f64,
    /// Share of repairs re-solved cold.
    pub repair_resolved: f64,
    /// Median time per registry write, µs.
    pub stream_observe_us: f64,
    /// Median registry snapshot time, µs.
    pub stream_snapshot_us: f64,
    /// Mean share of tracked juries a scan flags.
    pub stream_drifted_frac: f64,
    /// Median latency of the same requests at the paper's configuration, ms.
    pub service_paper_config_p50_ms: f64,
}

/// What a traced phase records per replayed service call, besides spans.
#[derive(Debug, Default)]
pub struct CallTrace {
    /// Wall time of each replayed call as the service served it, ms.
    pub service_ms: Vec<f64>,
    /// Objective evaluations the service reported for each call.
    pub service_evaluations: Vec<f64>,
    /// What each call's replay counted.
    pub counts: Vec<ReplayCounts>,
    /// The solver that answered each call.
    pub solvers: Vec<&'static str>,
    /// Each call repeated at the paper's configuration, ms (empty when the
    /// workload does not repeat its calls there).
    pub paper_ms: Vec<f64>,
    /// The service's cache counters when the phase started.
    pub cache_at_start: CacheStats,
}

impl CallTrace {
    /// The `selection` and `service` metrics of the replayed calls, given
    /// the cache counters at the end of the phase. `service.self_ms` pairs
    /// each call with its replay's build and solve spans, in order.
    pub fn layers(&self, tracer: &Tracer, cache: CacheStats) -> Layers {
        let build = tracer.self_ms("selection.instance_build");
        let solve = tracer.self_ms("selection.solve");
        let self_ms: Vec<f64> = self
            .service_ms
            .iter()
            .zip(build.iter().zip(&solve))
            .map(|(call, (build, solve))| call - build - solve)
            .collect();
        let evaluations: Vec<f64> = self.counts.iter().map(|c| c.evaluations as f64).collect();
        let start = self.cache_at_start;
        let lookups = (cache.hits + cache.misses).saturating_sub(start.hits + start.misses);
        Layers {
            selection_instance_build_us: stats::median(&build) * 1e3,
            selection_solve_ms: stats::median(&solve),
            selection_evaluations: stats::median(&evaluations),
            solvers: self.solvers.clone(),
            service_self_ms: stats::median(&self_ms),
            service_evaluations: stats::median(&self.service_evaluations),
            service_cache_hit_frac: (cache.hits - start.hits) as f64 / lookups.max(1) as f64,
            service_cache_evictions: (cache.evictions - start.evictions) as f64,
            service_paper_config_p50_ms: stats::median(&self.paper_ms),
            ..Layers::default()
        }
    }
}

/// Median self time of the spans named `name`, scaled from ms by `scale`.
pub fn median_self(tracer: &Tracer, name: &str, scale: f64) -> f64 {
    stats::median(&tracer.self_ms(name)) * scale
}

/// Median of `span self time / count`, pairing the spans named `name` with
/// `counts` in order (one count per span), in µs.
pub fn median_per_op_us(tracer: &Tracer, name: &str, counts: &[usize]) -> f64 {
    let per_op: Vec<f64> = tracer
        .self_ms(name)
        .into_iter()
        .zip(counts)
        .filter(|(_, &ops)| ops > 0)
        .map(|(ms, &ops)| ms * 1e3 / ops as f64)
        .collect();
    stats::median(&per_op)
}

/// Metric-name form of a solver name (`:` is not allowed in names).
fn solver_metric(solver: &str) -> String {
    format!("selection.solver_share.{}", solver.replace(':', "-"))
}

impl Layers {
    /// Appends every per-layer metric, in a fixed order.
    pub fn report(&self, report: &mut Report) {
        report.push("jq.grid_buckets", self.jq_grid_buckets, "count");
        report.push("jq.session_open_us", self.jq_session_open_us, "us");
        report.push("jq.session_op_us", self.jq_session_op_us, "us");
        report.push("jq.rebuilds", self.jq_rebuilds, "count");
        report.push("jq.eval_us", self.jq_eval_us, "us");
        report.push("jq.mc_eval_ms", self.jq_mc_eval_ms, "ms");
        report.push("jq.mc_session_op_us", self.jq_mc_session_op_us, "us");
        report.push("jq.mc_grid_cells", self.jq_mc_grid_cells, "count");
        report.push(
            "selection.instance_build_us",
            self.selection_instance_build_us,
            "us",
        );
        report.push("selection.solve_ms", self.selection_solve_ms, "ms");
        report.push("selection.evaluations", self.selection_evaluations, "count");
        let total = self.solvers.len().max(1) as f64;
        for solver in SOLVERS {
            let share = self.solvers.iter().filter(|&&s| s == solver).count() as f64 / total;
            report.push(solver_metric(solver), share, "ratio");
        }
        let other = self.solvers.iter().filter(|s| !SOLVERS.contains(s)).count() as f64;
        report.push(solver_metric("other"), other / total, "ratio");
        report.push("service.self_ms", self.service_self_ms, "ms");
        report.push("service.evaluations", self.service_evaluations, "count");
        report.push(
            "service.cache_hit_frac",
            self.service_cache_hit_frac,
            "ratio",
        );
        report.push(
            "service.cache_evictions",
            self.service_cache_evictions,
            "count",
        );
        report.push("service.batch_ms", self.service_batch_ms, "ms");
        report.push(
            "service.batch_efficiency",
            self.service_batch_efficiency,
            "ratio",
        );
        report.push("service.drift_scan_ms", self.service_drift_scan_ms, "ms");
        report.push("service.repair_ms", self.service_repair_ms, "ms");
        report.push(
            "service.repair_outcome.unchanged",
            self.repair_unchanged,
            "ratio",
        );
        report.push(
            "service.repair_outcome.patched",
            self.repair_patched,
            "ratio",
        );
        report.push(
            "service.repair_outcome.resolved",
            self.repair_resolved,
            "ratio",
        );
        report.push("stream.observe_us", self.stream_observe_us, "us");
        report.push("stream.snapshot_us", self.stream_snapshot_us, "us");
        report.push("stream.drifted_frac", self.stream_drifted_frac, "ratio");
        report.push(
            "service.paper_config_p50_ms",
            self.service_paper_config_p50_ms,
            "ms",
        );
    }
}
