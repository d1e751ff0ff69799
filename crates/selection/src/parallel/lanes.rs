//! The lane runner: the one place a threaded path spawns OS threads.
//!
//! This file is shared source. `jury-selection` compiles it as
//! `parallel::lanes`, and `jury-service` includes it privately for its
//! batch engine, so every scoped-thread fan-out in the workspace goes
//! through the same body.

/// Runs `f(lane)` for every `lane in 0..lanes` and returns the results in
/// lane order.
///
/// One lane (or zero) calls `f(0)` on the calling thread: no spawn, no
/// atomics, no clock reads. More lanes run `f` on scoped threads, one per
/// lane, all joined before the call returns. A panicking lane re-raises its
/// panic on the calling thread once every lane has finished.
pub(crate) fn run_lanes<R, F>(lanes: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if lanes <= 1 {
        return vec![f(0)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| scope.spawn(move || f(lane)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}
