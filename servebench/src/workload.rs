//! What every workload provides, and how long a phase runs.

use std::time::Instant;

use crate::layers::Layers;
use crate::report::Phase;
use crate::trace::Tracer;

/// One workload: seeded inputs and the service state they run against.
pub trait Workload: Sized {
    /// Units of work in one round: the schedule a phase always completes
    /// whole, so every phase sees the same mix of request kinds.
    const ROUND: usize;

    /// Rounds served by a run of [`REFERENCE_SECONDS`]; a run of `--seconds
    /// s` serves `s / REFERENCE_SECONDS` times as many (at least one). The
    /// work is fixed rather than timed, so every run of the same code does
    /// the same work and reads every percentile at the same rank.
    const RUN_ROUNDS: usize;

    /// Generates the inputs from `seed`, builds the service, seeds any
    /// state and warms up. Runs the paper pin, so an error here is a
    /// failed output check.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Serves `rounds` whole rounds, checking every output. With tracing
    /// on, each served request is also replayed layer by layer.
    fn run(&mut self, rounds: usize, tracer: &mut Tracer) -> Phase;

    /// The per-layer metrics of the traced phase that just ran.
    fn layers(&self, tracer: &Tracer) -> Layers;
}

/// The run length `RUN_ROUNDS` is sized for, in seconds.
pub const REFERENCE_SECONDS: f64 = 30.0;

/// Rounds of workload `W` in a run of `seconds`.
pub fn rounds_for<W: Workload>(seconds: f64) -> usize {
    ((W::RUN_ROUNDS as f64 * seconds / REFERENCE_SECONDS).round() as usize).max(1)
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}
