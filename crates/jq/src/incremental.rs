//! Incremental Jury Quality evaluation — the solvers' hot path.
//!
//! The JSP searches (`jury-selection`) evaluate `JQ(J, BV, α)` thousands of
//! times on *neighbouring* juries: greedy search scores pool-many
//! single-worker extensions per round, and each simulated-annealing step
//! mutates exactly one member. Rebuilding the whole Algorithm 1 dynamic
//! program from scratch for every candidate — `O(n · numBuckets)` per
//! evaluation — wastes almost all of that work, the same bottleneck that
//! quality-driven worker selection systems hit at scale.
//!
//! [`IncrementalJq`] keeps the *dense* bucket distribution of
//! [`crate::bucket`] alive between evaluations:
//!
//! * [`IncrementalJq::push_worker`] convolves one worker's two-spike
//!   distribution in — `O(buckets)`;
//! * [`IncrementalJq::pop_worker`] removes one by **exact deconvolution** —
//!   also `O(buckets)`. The backward recurrence divides by the effective
//!   quality `q ≥ ½`, so it is a numerical contraction; a stability check
//!   (no significant negative mass, total mass ≈ 1) guards it, falling back
//!   to a from-scratch rebuild when floating-point drift accumulates;
//! * [`IncrementalJq::swap_worker`] composes the two, so an annealing
//!   neighbour costs `O(buckets)` instead of `O(n · buckets)`.
//!
//! The engine works on a **fixed bucket grid** chosen once per session
//! ([`IncrementalJq::for_pool_in`]), unlike the scratch estimator whose grid
//! is re-derived per jury; with the same grid the two produce identical
//! results (see the property tests at the bottom of this module). The grid
//! spans the pool's largest log-odds weight and is resolved for the largest
//! jury the session will hold: the whole pool for [`IncrementalJq::for_pool`],
//! the largest affordable jury for the selection layer's sessions.
//!
//! [`IncrementalMvJq`] is the majority-voting counterpart: it maintains the
//! Poisson-binomial vote-count distributions of [`crate::mv`] under the same
//! push/pop/swap contract, which keeps the MVJS baseline search incremental
//! too.
//!
//! ```
//! use jury_jq::{IncrementalJq, IncrementalJqConfig};
//! use jury_model::{paper_example_pool, Prior};
//!
//! let pool = paper_example_pool();
//! let mut engine =
//!     IncrementalJq::for_pool(&pool, Prior::uniform(), IncrementalJqConfig::default());
//!
//! // Build the {B, C, G} jury one push at a time.
//! for id in [1u32, 2, 6] {
//!     engine.push_worker(pool.get(jury_model::WorkerId(id)).unwrap());
//! }
//! assert!((engine.jq() - 0.845).abs() < 1e-3);
//!
//! // A neighbour jury costs O(buckets): swap C out for A, then undo it.
//! let c = pool.get(jury_model::WorkerId(2)).unwrap().clone();
//! let a = pool.get(jury_model::WorkerId(0)).unwrap().clone();
//! engine.swap_worker(&c, &a).unwrap();
//! let neighbour = engine.jq();
//! engine.swap_worker(&a, &c).unwrap();
//! assert!((engine.jq() - 0.845).abs() < 1e-3);
//! assert!(neighbour < 0.87);
//! ```

use jury_model::{log_odds, Prior, Worker, WorkerPool};

use crate::bucket::{bucket_index, BucketCount};
use crate::error::{JqError, JqResult};
use crate::kernel::{self, JqScratch, KernelMode};

/// Configuration of the incremental JQ engine's bucket grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalJqConfig {
    /// Grid resolution, resolved against the largest jury a session will
    /// hold (the grid must stay fixed while juries mutate, so it cannot
    /// follow the current jury size the way the scratch estimator's does).
    pub buckets: BucketCount,
    /// Upper bound on the total bucket weight `Σ b_i` the largest jury may
    /// reach; the per-worker bucket count is capped so the dense array never
    /// outgrows this many slots per side.
    pub max_total_weight: i64,
    /// Deconvolution stability tolerance: negative mass below `-tolerance`
    /// or total-mass drift above `tolerance` triggers a from-scratch
    /// rebuild. `0.0` forces a rebuild on effectively every pop (useful for
    /// exercising the fallback).
    pub stability_tolerance: f64,
    /// Which implementation of the convolution/deconvolution kernels the
    /// engine runs: the vectorized production path or the scalar reference
    /// loops (see [`KernelMode`]).
    pub kernel: KernelMode,
}

impl Default for IncrementalJqConfig {
    fn default() -> Self {
        IncrementalJqConfig {
            buckets: BucketCount::PerWorker(crate::bounds::PAPER_RECOMMENDED_MULTIPLIER),
            max_total_weight: 1 << 21,
            stability_tolerance: 1e-10,
            kernel: KernelMode::default(),
        }
    }
}

impl IncrementalJqConfig {
    /// Sets the grid resolution.
    pub fn with_buckets(mut self, buckets: BucketCount) -> Self {
        self.buckets = buckets;
        self
    }

    /// Sets the stability tolerance of the deconvolution guard.
    pub fn with_stability_tolerance(mut self, tolerance: f64) -> Self {
        self.stability_tolerance = tolerance.max(0.0);
        self
    }

    /// Selects the kernel implementation (vectorized vs scalar reference).
    pub fn with_kernel_mode(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// The number of buckets per maximal log-odds weight for juries of at
    /// most `n` terms (workers, plus the prior's pseudo-worker when one is
    /// folded in), after applying the total-weight cap.
    pub fn resolve_buckets(&self, n: usize) -> usize {
        let uncapped = self.buckets.resolve(n);
        let cap = (self.max_total_weight / n.max(1) as i64).max(1) as usize;
        uncapped.min(cap).max(1)
    }
}

/// Counters describing the work an incremental engine performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Workers convolved in.
    pub pushes: u64,
    /// Workers deconvolved out (including those resolved by rebuild).
    pub pops: u64,
    /// Swap operations served.
    pub swaps: u64,
    /// Times the stability guard rejected a deconvolution and the state was
    /// rebuilt from scratch instead.
    pub rebuilds: u64,
}

/// One jury member as tracked by the incremental state: its (effective)
/// quality and its fixed bucket index on the engine's grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Member {
    bucket: i64,
    quality: f64,
}

/// Stateful, incrementally-updatable estimator of `JQ(J, BV, α)` on a fixed
/// bucket grid (see the [module docs](crate::incremental) for the contract
/// and the solver-facing walkthrough).
///
/// ```
/// use jury_jq::IncrementalJq;
///
/// // An explicit grid: qualities quantize to log-odds multiples of 0.05.
/// let mut engine = IncrementalJq::new(0.05);
/// engine.push_quality(0.9);
/// engine.push_quality(0.6);
/// engine.push_quality(0.6);
/// assert!((engine.jq() - 0.9).abs() < 5e-3); // Example 3 of the paper
///
/// // Popping a worker by exact deconvolution restores the smaller jury.
/// engine.pop_quality(0.9).unwrap();
/// let two_sixties = engine.jq();
/// assert!((two_sixties - 0.6).abs() < 5e-3);
/// assert!((engine.jq() - engine.from_scratch_jq()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalJq {
    bucket_size: f64,
    tolerance: f64,
    members: Vec<Member>,
    /// Dense probability mass over keys `[-total, total]`, offset-indexed:
    /// slot `total + key` holds the mass of `key`.
    dist: Vec<f64>,
    /// Double-buffer for convolution/deconvolution targets, swapped with
    /// `dist` on success so the hot path never allocates once the buffers
    /// have grown to the working size.
    scratch: Vec<f64>,
    total: i64,
    kernel: KernelMode,
    stats: IncrementalStats,
}

impl IncrementalJq {
    /// Creates an empty engine on an explicit grid of width `bucket_size`
    /// (`0.0` collapses every worker to bucket 0) with the default stability
    /// tolerance and a uniform prior.
    pub fn new(bucket_size: f64) -> Self {
        let mut arena = JqScratch::new();
        Self::new_in(bucket_size, &mut arena)
    }

    /// [`Self::new`], drawing the engine's buffers from `arena` instead of
    /// allocating. With a warm arena (one that previously received this
    /// grid's buffers via [`Self::recycle`]) construction is allocation-free.
    pub fn new_in(bucket_size: f64, arena: &mut JqScratch) -> Self {
        let mut dist = arena.take_buffer();
        dist.push(1.0);
        IncrementalJq {
            bucket_size: bucket_size.max(0.0),
            tolerance: IncrementalJqConfig::default().stability_tolerance,
            members: arena.take_members(),
            dist,
            scratch: arena.take_buffer(),
            total: 0,
            kernel: KernelMode::default(),
            stats: IncrementalStats::default(),
        }
    }

    /// Creates an engine whose grid is sized for any jury drawn from `pool`,
    /// with the prior already folded in as the Theorem 3 pseudo-worker.
    ///
    /// The grid width is the pool's largest effective log-odds weight (or
    /// the prior's, if larger) divided by the bucket count resolved for the
    /// whole pool, so every jury of the pool quantizes onto the same grid.
    pub fn for_pool(pool: &WorkerPool, prior: Prior, config: IncrementalJqConfig) -> Self {
        let mut arena = JqScratch::new();
        Self::for_pool_in(pool, prior, config, pool.len(), &mut arena)
    }

    /// [`Self::for_pool`] for juries of at most `max_jury_size` workers,
    /// drawing the engine's buffers from `arena` instead of allocating.
    ///
    /// The bucket count (and its total-weight cap) is resolved for
    /// `max_jury_size` terms, plus one for a non-uniform prior's
    /// pseudo-worker, so the §4.4 bound `e^{upper / (4d)} − 1` of a
    /// `PerWorker(d)` grid holds for every jury of at most that size. The
    /// selection layer passes the largest affordable jury, keeps one arena
    /// per objective and recycles session engines into it, so only the
    /// first session on a given grid pays the allocations.
    pub fn for_pool_in(
        pool: &WorkerPool,
        prior: Prior,
        config: IncrementalJqConfig,
        max_jury_size: usize,
        arena: &mut JqScratch,
    ) -> Self {
        let prior_quality = prior.alpha().max(1.0 - prior.alpha());
        let mut phi_max = if prior.is_uniform() {
            0.0f64
        } else {
            log_odds(prior_quality)
        };
        for worker in pool.iter() {
            phi_max = phi_max.max(log_odds(worker.effective_quality()));
        }
        let terms = max_jury_size + usize::from(!prior.is_uniform());
        let buckets = config.resolve_buckets(terms) as f64;
        let bucket_size = if phi_max > 0.0 {
            phi_max / buckets
        } else {
            0.0
        };
        let mut engine = IncrementalJq::new_in(bucket_size, arena);
        engine.tolerance = config.stability_tolerance;
        engine.kernel = config.kernel;
        if !prior.is_uniform() {
            engine.push_quality(prior.alpha());
        }
        engine
    }

    /// Returns the engine's buffers to `arena`, consuming it. The next
    /// engine built from the arena (via [`Self::new_in`] /
    /// [`Self::for_pool_in`]) reuses their capacity instead of allocating.
    pub fn recycle(self, arena: &mut JqScratch) {
        arena.recycle_buffer(self.dist);
        arena.recycle_buffer(self.scratch);
        arena.recycle_members(self.members);
    }

    /// Overrides the deconvolution stability tolerance.
    pub fn with_stability_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance.max(0.0);
        self
    }

    /// Overrides the kernel implementation (vectorized vs scalar reference).
    pub fn with_kernel_mode(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// The grid width `δ` in effect.
    pub fn bucket_size(&self) -> f64 {
        self.bucket_size
    }

    /// Number of workers currently folded into the state (including the
    /// prior pseudo-worker, when one was folded at construction).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no worker has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Work counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Convolves a worker's two-spike distribution into the state:
    /// `O(buckets)`.
    pub fn push_worker(&mut self, worker: &Worker) {
        self.push_quality(worker.quality());
    }

    /// [`Self::push_worker`] by raw quality. Qualities below ½ are
    /// reinterpreted as their effective quality `max(q, 1 − q)`
    /// (Section 3.3), exactly like the scratch estimator.
    pub fn push_quality(&mut self, quality: f64) {
        let q = quality.max(1.0 - quality);
        let b = bucket_index(log_odds(q), self.bucket_size);
        self.convolve_in(b, q);
        self.members.push(Member {
            bucket: b,
            quality: q,
        });
        self.stats.pushes += 1;
    }

    /// Removes a worker by exact deconvolution: `O(buckets)`, with a
    /// from-scratch rebuild fallback when the stability guard fires.
    ///
    /// # Errors
    ///
    /// Returns [`JqError::NotAMember`] when no tracked member has the
    /// worker's effective quality; the state is left untouched in that case.
    pub fn pop_worker(&mut self, worker: &Worker) -> JqResult<()> {
        self.pop_quality(worker.quality())
    }

    /// [`Self::pop_worker`] by raw quality.
    ///
    /// # Errors
    ///
    /// Returns [`JqError::NotAMember`] when the quality was never pushed.
    pub fn pop_quality(&mut self, quality: f64) -> JqResult<()> {
        let q = quality.max(1.0 - quality);
        let position = self
            .members
            .iter()
            .rposition(|m| m.quality.to_bits() == q.to_bits())
            .ok_or(JqError::NotAMember { quality })?;
        let member = self.members.swap_remove(position);
        self.stats.pops += 1;
        if member.bucket == 0 {
            // A zero-bucket factor is the identity convolution regardless of
            // its quality: `q·d[k] + (1−q)·d[k] = d[k]`.
            return Ok(());
        }
        if !self.deconvolve_out(member.bucket, member.quality) {
            self.rebuild();
        }
        Ok(())
    }

    /// Replaces one member with another: a pop followed by a push, the
    /// `O(buckets)` annealing-neighbour operation.
    ///
    /// # Errors
    ///
    /// Returns [`JqError::NotAMember`] (leaving the state untouched) when
    /// `out` is not part of the current jury.
    pub fn swap_worker(&mut self, out: &Worker, incoming: &Worker) -> JqResult<()> {
        self.swap_quality(out.quality(), incoming.quality())
    }

    /// [`Self::swap_worker`] by raw qualities.
    ///
    /// # Errors
    ///
    /// Returns [`JqError::NotAMember`] when `out_quality` was never pushed.
    pub fn swap_quality(&mut self, out_quality: f64, in_quality: f64) -> JqResult<()> {
        self.pop_quality(out_quality)?;
        self.push_quality(in_quality);
        self.stats.swaps += 1;
        Ok(())
    }

    /// The current JQ estimate — the positive-key mass plus half the tied
    /// mass, exactly as in Algorithm 1. `O(buckets)`.
    pub fn jq(&self) -> f64 {
        let offset = self.total as usize;
        let tail: f64 = self.dist[offset + 1..].iter().sum();
        (tail + 0.5 * self.dist[offset]).clamp(0.0, 1.0)
    }

    /// Recomputes the JQ of the current member multiset from scratch on the
    /// same grid, without touching the incremental state. This is the value
    /// the incremental path must agree with; the property tests below pin
    /// the two together.
    pub fn from_scratch_jq(&self) -> f64 {
        let mut fresh = self.clone();
        fresh.rebuild();
        fresh.jq()
    }

    /// Rebuilds the dense distribution from the tracked member list — the
    /// fallback the deconvolution guard escalates to, also usable to shed
    /// accumulated floating-point drift after very long push/pop sequences.
    pub fn rebuild(&mut self) {
        // Reset through the scratch buffer (capacity is retained) so the
        // fallback path stays allocation-free in the steady state.
        self.scratch.clear();
        self.scratch.push(1.0);
        std::mem::swap(&mut self.dist, &mut self.scratch);
        self.total = 0;
        let members = std::mem::take(&mut self.members);
        for member in &members {
            self.convolve_in(member.bucket, member.quality);
        }
        self.members = members;
        self.stats.rebuilds += 1;
    }

    /// `new[k] = q·old[k−b] + (1−q)·old[k+b]` on the dense array. Old slot
    /// `i` holds key `k = i − total`; key `k + b` lands in new slot
    /// `i + 2b`, key `k − b` in new slot `i`.
    fn convolve_in(&mut self, bucket: i64, quality: f64) {
        if bucket == 0 {
            return; // identity: q·d[k] + (1−q)·d[k] = d[k]
        }
        let step = bucket as usize;
        match self.kernel {
            KernelMode::Vectorized => {
                kernel::convolve_spikes(&self.dist, &mut self.scratch, step, quality)
            }
            KernelMode::ScalarReference => {
                kernel::convolve_spikes_scalar(&self.dist, &mut self.scratch, step, quality)
            }
        }
        std::mem::swap(&mut self.dist, &mut self.scratch);
        self.total += bucket;
    }

    /// Inverts [`Self::convolve_in`]: solves `old` from
    /// `new[k] = q·old[k−b] + (1−q)·old[k+b]` top-down
    /// (`old[k] = (new[k+b] − (1−q)·old[k+2b]) / q`). Returns `false` when
    /// the stability guard rejects the result, leaving the state unchanged.
    fn deconvolve_out(&mut self, bucket: i64, quality: f64) -> bool {
        let step = bucket as usize;
        let ok = match self.kernel {
            KernelMode::Vectorized => kernel::deconvolve_spikes(
                &self.dist,
                &mut self.scratch,
                step,
                quality,
                self.tolerance,
            ),
            KernelMode::ScalarReference => kernel::deconvolve_spikes_scalar(
                &self.dist,
                &mut self.scratch,
                step,
                quality,
                self.tolerance,
            ),
        };
        if ok {
            std::mem::swap(&mut self.dist, &mut self.scratch);
            self.total -= bucket;
        }
        ok
    }
}

/// Stateful, incrementally-updatable computation of `JQ(J, MV, α)` — the
/// exact Poisson-binomial dynamic program of [`crate::mv`] under the same
/// push/pop/swap contract as [`IncrementalJq`].
///
/// Unlike the BV engine there is no quantization: the maintained vote-count
/// distributions are exact, so the values agree with [`crate::mv_jq`] to
/// floating-point noise. A neighbour evaluation costs `O(n)` instead of the
/// scratch DP's `O(n²)`.
#[derive(Debug, Clone)]
pub struct IncrementalMvJq {
    tolerance: f64,
    qualities: Vec<f64>,
    /// `Pr(#No votes = k | t = No)`; per-worker success probability `q_i`.
    dist_no: Vec<f64>,
    /// `Pr(#No votes = k | t = Yes)`; success probability `1 − q_i`.
    dist_yes: Vec<f64>,
    /// Double-buffers for the out-of-place kernels and the deconvolution
    /// targets, swapped with the distributions on success so pops never
    /// allocate once the buffers have grown to the working size.
    scratch_no: Vec<f64>,
    scratch_yes: Vec<f64>,
    kernel: KernelMode,
    stats: IncrementalStats,
}

impl Default for IncrementalMvJq {
    fn default() -> Self {
        IncrementalMvJq::new()
    }
}

impl IncrementalMvJq {
    /// Creates an empty engine.
    pub fn new() -> Self {
        let mut arena = JqScratch::new();
        Self::new_in(&mut arena)
    }

    /// [`Self::new`], drawing the engine's buffers from `arena` instead of
    /// allocating. With a warm arena (one that previously received this
    /// workload's buffers via [`Self::recycle`]) construction is
    /// allocation-free.
    pub fn new_in(arena: &mut JqScratch) -> Self {
        // Taken in descending order of expected size (the arena hands out
        // its largest buffer first), with the short `qualities` list last.
        let mut dist_no = arena.take_buffer();
        dist_no.push(1.0);
        let mut dist_yes = arena.take_buffer();
        dist_yes.push(1.0);
        let scratch_no = arena.take_buffer();
        let scratch_yes = arena.take_buffer();
        IncrementalMvJq {
            tolerance: IncrementalJqConfig::default().stability_tolerance,
            qualities: arena.take_buffer(),
            dist_no,
            dist_yes,
            scratch_no,
            scratch_yes,
            kernel: KernelMode::default(),
            stats: IncrementalStats::default(),
        }
    }

    /// Returns the engine's buffers to `arena`, consuming it.
    pub fn recycle(self, arena: &mut JqScratch) {
        arena.recycle_buffer(self.qualities);
        arena.recycle_buffer(self.dist_no);
        arena.recycle_buffer(self.dist_yes);
        arena.recycle_buffer(self.scratch_no);
        arena.recycle_buffer(self.scratch_yes);
    }

    /// Overrides the kernel implementation (vectorized vs scalar reference).
    pub fn with_kernel_mode(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Number of workers currently folded in.
    pub fn len(&self) -> usize {
        self.qualities.len()
    }

    /// Whether no worker has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.qualities.is_empty()
    }

    /// Work counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Folds one worker into both vote-count distributions: `O(n)`.
    pub fn push_worker(&mut self, worker: &Worker) {
        self.push_quality(worker.quality());
    }

    /// [`Self::push_worker`] by raw quality.
    pub fn push_quality(&mut self, quality: f64) {
        self.convolve_step(quality);
        self.qualities.push(quality);
        self.stats.pushes += 1;
    }

    /// Folds one Bernoulli trial into both distributions under the active
    /// kernel mode.
    fn convolve_step(&mut self, quality: f64) {
        match self.kernel {
            KernelMode::Vectorized => {
                kernel::convolve_bernoulli_out(&self.dist_no, &mut self.scratch_no, quality);
                std::mem::swap(&mut self.dist_no, &mut self.scratch_no);
                kernel::convolve_bernoulli_out(
                    &self.dist_yes,
                    &mut self.scratch_yes,
                    1.0 - quality,
                );
                std::mem::swap(&mut self.dist_yes, &mut self.scratch_yes);
            }
            KernelMode::ScalarReference => {
                convolve_bernoulli(&mut self.dist_no, quality);
                convolve_bernoulli(&mut self.dist_yes, 1.0 - quality);
            }
        }
    }

    /// Removes a worker by deconvolving both distributions, with a rebuild
    /// fallback under the stability guard.
    ///
    /// # Errors
    ///
    /// Returns [`JqError::NotAMember`] when the quality was never pushed.
    pub fn pop_worker(&mut self, worker: &Worker) -> JqResult<()> {
        self.pop_quality(worker.quality())
    }

    /// [`Self::pop_worker`] by raw quality.
    ///
    /// # Errors
    ///
    /// Returns [`JqError::NotAMember`] when the quality was never pushed.
    pub fn pop_quality(&mut self, quality: f64) -> JqResult<()> {
        let position = self
            .qualities
            .iter()
            .rposition(|q| q.to_bits() == quality.to_bits())
            .ok_or(JqError::NotAMember { quality })?;
        self.qualities.swap_remove(position);
        self.stats.pops += 1;
        // Both deconvolutions write into engine-owned scratch buffers; the
        // state is only swapped over when both pass the stability guard.
        let ok = kernel::deconvolve_bernoulli_into(
            &self.dist_no,
            quality,
            self.tolerance,
            &mut self.scratch_no,
        ) && kernel::deconvolve_bernoulli_into(
            &self.dist_yes,
            1.0 - quality,
            self.tolerance,
            &mut self.scratch_yes,
        );
        if ok {
            std::mem::swap(&mut self.dist_no, &mut self.scratch_no);
            std::mem::swap(&mut self.dist_yes, &mut self.scratch_yes);
        } else {
            self.rebuild();
        }
        Ok(())
    }

    /// Replaces one member with another in `O(n)`.
    ///
    /// # Errors
    ///
    /// Returns [`JqError::NotAMember`] when `out` is not a member.
    pub fn swap_worker(&mut self, out: &Worker, incoming: &Worker) -> JqResult<()> {
        self.pop_quality(out.quality())?;
        self.push_quality(incoming.quality());
        self.stats.swaps += 1;
        Ok(())
    }

    /// The current `JQ(J, MV, α)`: MV answers `No` iff at least
    /// `⌈(n+1)/2⌉` members voted `No` (see [`crate::mv`]).
    pub fn jq(&self, prior: Prior) -> f64 {
        let threshold = self.len() / 2 + 1;
        let alpha = prior.alpha();
        let correct_given_no: f64 = self.dist_no.iter().skip(threshold).sum();
        let correct_given_yes: f64 = self.dist_yes.iter().take(threshold).sum();
        (alpha * correct_given_no + (1.0 - alpha) * correct_given_yes).clamp(0.0, 1.0)
    }

    /// Rebuilds both distributions from the tracked qualities. Resets
    /// through the scratch buffers (capacity retained), so the fallback is
    /// allocation-free in the steady state.
    pub fn rebuild(&mut self) {
        self.scratch_no.clear();
        self.scratch_no.push(1.0);
        std::mem::swap(&mut self.dist_no, &mut self.scratch_no);
        self.scratch_yes.clear();
        self.scratch_yes.push(1.0);
        std::mem::swap(&mut self.dist_yes, &mut self.scratch_yes);
        let qualities = std::mem::take(&mut self.qualities);
        for &q in &qualities {
            self.convolve_step(q);
        }
        self.qualities = qualities;
        self.stats.rebuilds += 1;
    }
}

/// In-place Poisson-binomial update: adds one Bernoulli(`p`) trial — the
/// scalar reference for [`kernel::convolve_bernoulli_out`]. The inverse
/// (shared by both kernel modes, since its carry chain is inherently
/// sequential) lives in [`kernel::deconvolve_bernoulli_into`].
fn convolve_bernoulli(dist: &mut Vec<f64>, p: f64) {
    let n = dist.len();
    dist.push(0.0);
    for k in (0..=n).rev() {
        let stay = if k < n { dist[k] * (1.0 - p) } else { 0.0 };
        let step = if k > 0 { dist[k - 1] * p } else { 0.0 };
        dist[k] = stay + step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{BucketJqConfig, BucketJqEstimator};
    use crate::exact::exact_bv_jq;
    use crate::mv::mv_jq;
    use jury_model::{quality_from_log_odds, Jury};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Grid width the scratch estimator would use for this jury under a
    /// uniform prior and a fixed bucket count.
    fn scratch_grid(qualities: &[f64], num_buckets: usize) -> f64 {
        let upper = qualities
            .iter()
            .map(|&q| log_odds(q.max(1.0 - q)))
            .fold(0.0f64, f64::max);
        if upper > 0.0 {
            upper / num_buckets as f64
        } else {
            0.0
        }
    }

    #[test]
    fn matches_the_scratch_estimator_on_its_own_grid() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..40 {
            let n = rng.gen_range(1..=20);
            let qualities: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..0.98)).collect();
            let num_buckets = rng.gen_range(10..=400);
            let scratch = BucketJqEstimator::new(
                BucketJqConfig::default()
                    .with_buckets(BucketCount::Fixed(num_buckets))
                    .with_high_quality_shortcut(false),
            );
            let jury = Jury::from_qualities(&qualities).unwrap();
            let expected = scratch.jq(&jury, Prior::uniform());
            let mut engine = IncrementalJq::new(scratch_grid(&qualities, num_buckets));
            for &q in &qualities {
                engine.push_quality(q);
            }
            assert!(
                (engine.jq() - expected).abs() < 1e-9,
                "incremental {} vs scratch {} for {qualities:?} at {num_buckets} buckets",
                engine.jq(),
                expected
            );
        }
    }

    #[test]
    fn lattice_qualities_match_exact_jq_to_nine_digits() {
        // Qualities whose log-odds are exact multiples of the grid width
        // make the bucket quantization lossless, so the incremental dense DP
        // must agree with the exponential exact enumeration to fp noise.
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..60 {
            let n = rng.gen_range(1..=11);
            let delta = rng.gen_range(0.05..0.4);
            let qualities: Vec<f64> = (0..n)
                .map(|_| quality_from_log_odds(rng.gen_range(0..=10) as f64 * delta))
                .collect();
            let jury = Jury::from_qualities(&qualities).unwrap();
            let exact = exact_bv_jq(&jury, Prior::uniform()).unwrap();
            let mut engine = IncrementalJq::new(delta);
            for &q in &qualities {
                engine.push_quality(q);
            }
            assert!(
                (engine.jq() - exact).abs() < 1e-9,
                "incremental {} vs exact {exact} for lattice qualities {qualities:?}",
                engine.jq()
            );
        }
    }

    #[test]
    fn push_pop_swap_sequences_never_diverge_from_rebuild() {
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..12u64 {
            let mut engine = IncrementalJq::new(0.04 + 0.01 * (trial % 5) as f64);
            let mut live: Vec<f64> = Vec::new();
            for op_index in 0..80 {
                let op = rng.gen_range(0..3);
                if op == 0 || live.is_empty() {
                    let q = rng.gen_range(0.5..0.995);
                    engine.push_quality(q);
                    live.push(q);
                } else if op == 1 {
                    let idx = rng.gen_range(0..live.len());
                    let q = live.swap_remove(idx);
                    engine.pop_quality(q).unwrap();
                } else {
                    let idx = rng.gen_range(0..live.len());
                    let incoming = rng.gen_range(0.5..0.995);
                    let out = std::mem::replace(&mut live[idx], incoming);
                    engine.swap_quality(out, incoming).unwrap();
                }
                // A full from-scratch comparison is O(n · buckets); probing
                // every few ops (and after the last one) keeps the test fast
                // while still catching drift anywhere in the sequence.
                if op_index % 4 == 3 || op_index == 79 {
                    let incremental = engine.jq();
                    let scratch = engine.from_scratch_jq();
                    assert!(
                        (incremental - scratch).abs() < 1e-9,
                        "trial {trial}: incremental {incremental} vs rebuild {scratch} \
                         after {:?} ops",
                        engine.stats()
                    );
                }
            }
            assert_eq!(engine.len(), live.len());
        }
    }

    #[test]
    fn forced_rebuild_fallback_gives_identical_values() {
        // Tolerance 0 makes the stability guard reject essentially every
        // deconvolution, so every pop goes through the rebuild path — the
        // values must not change.
        let mut rng = StdRng::seed_from_u64(43);
        let mut strict = IncrementalJq::new(0.02).with_stability_tolerance(0.0);
        let mut relaxed = IncrementalJq::new(0.02);
        let mut live: Vec<f64> = Vec::new();
        for _ in 0..60 {
            if live.len() < 3 || rng.gen_bool(0.6) {
                let q = rng.gen_range(0.5..0.99);
                strict.push_quality(q);
                relaxed.push_quality(q);
                live.push(q);
            } else {
                let q = live.swap_remove(rng.gen_range(0..live.len()));
                strict.pop_quality(q).unwrap();
                relaxed.pop_quality(q).unwrap();
            }
            assert!((strict.jq() - relaxed.jq()).abs() < 1e-9);
        }
        assert!(
            strict.stats().rebuilds > relaxed.stats().rebuilds,
            "zero tolerance should force rebuilds: {:?} vs {:?}",
            strict.stats(),
            relaxed.stats()
        );
    }

    #[test]
    fn pop_of_a_stranger_is_a_typed_error_and_a_noop() {
        let mut engine = IncrementalJq::new(0.05);
        engine.push_quality(0.8);
        let before = engine.jq();
        let err = engine.pop_quality(0.7).unwrap_err();
        assert!(matches!(err, JqError::NotAMember { .. }));
        assert_eq!(engine.jq(), before);
        assert_eq!(engine.len(), 1);
        // Adversarial aliases resolve to the same effective member.
        engine.pop_quality(0.2).unwrap();
        assert!(engine.is_empty());
        assert!((engine.jq() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn for_pool_folds_the_prior_like_theorem_3() {
        let pool = jury_model::paper_example_pool();
        for alpha in [0.2, 0.5, 0.8] {
            let prior = Prior::new(alpha).unwrap();
            let mut engine = IncrementalJq::for_pool(&pool, prior, IncrementalJqConfig::default());
            for worker in pool.iter().take(3) {
                engine.push_worker(worker);
            }
            let jury = Jury::new(pool.workers()[..3].to_vec());
            let exact = exact_bv_jq(&jury, prior).unwrap();
            assert!(
                (engine.jq() - exact).abs() < 2e-3,
                "alpha {alpha}: incremental {} vs exact {exact}",
                engine.jq()
            );
        }
    }

    #[test]
    fn jury_sized_grids_resolve_for_the_jury_and_the_prior_term() {
        let pool = jury_model::paper_example_pool();
        let config = IncrementalJqConfig::default();
        let phi_max = pool
            .iter()
            .map(|w| log_odds(w.effective_quality()))
            .fold(0.0f64, f64::max);
        let mut arena = JqScratch::new();
        let jury = IncrementalJq::for_pool_in(&pool, Prior::uniform(), config, 3, &mut arena);
        assert_eq!(
            jury.bucket_size(),
            phi_max / config.resolve_buckets(3) as f64
        );
        let whole = IncrementalJq::for_pool(&pool, Prior::uniform(), config);
        assert_eq!(
            whole.bucket_size(),
            phi_max / config.resolve_buckets(pool.len()) as f64
        );
        // A folded prior is one more term of the Equation 8 sum.
        let prior = Prior::new(0.6).unwrap();
        let folded = IncrementalJq::for_pool_in(&pool, prior, config, 3, &mut arena);
        assert_eq!(
            folded.bucket_size(),
            phi_max / config.resolve_buckets(4) as f64
        );
        assert_eq!(folded.len(), 1);
    }

    #[test]
    fn degenerate_grids_are_handled() {
        // All coin flips: grid collapses to zero width, JQ stays ½.
        let pool = jury_model::WorkerPool::from_qualities(&[0.5, 0.5]).unwrap();
        let mut engine =
            IncrementalJq::for_pool(&pool, Prior::uniform(), IncrementalJqConfig::default());
        assert_eq!(engine.bucket_size(), 0.0);
        for worker in pool.iter() {
            engine.push_worker(worker);
        }
        assert!((engine.jq() - 0.5).abs() < 1e-12);
        engine.pop_quality(0.5).unwrap();
        assert!((engine.jq() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn config_caps_the_grid_for_huge_pools() {
        let config = IncrementalJqConfig::default();
        // 200 workers at 200 buckets per worker would want 40 000 buckets;
        // the cap keeps pool_len · buckets within max_total_weight.
        let resolved = config.resolve_buckets(200);
        assert!(resolved as i64 * 200 <= config.max_total_weight);
        assert!(config.resolve_buckets(5) >= 200);
        // The builder clamps negative tolerances.
        assert_eq!(
            config.with_stability_tolerance(-1.0).stability_tolerance,
            0.0
        );
    }

    #[test]
    fn incremental_mv_matches_the_dynamic_program() {
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..30 {
            let mut engine = IncrementalMvJq::new();
            let mut live: Vec<f64> = Vec::new();
            for _ in 0..60 {
                if live.len() < 2 || rng.gen_bool(0.55) {
                    let q = rng.gen_range(0.05..0.99);
                    engine.push_quality(q);
                    live.push(q);
                } else {
                    let q = live.swap_remove(rng.gen_range(0..live.len()));
                    engine.pop_quality(q).unwrap();
                }
                let jury = Jury::from_qualities(&live).unwrap();
                for alpha in [0.3, 0.5, 0.8] {
                    let prior = Prior::new(alpha).unwrap();
                    let expected = mv_jq(&jury, prior).unwrap();
                    assert!(
                        (engine.jq(prior) - expected).abs() < 1e-9,
                        "incremental MV {} vs DP {expected} for {live:?}, alpha {alpha}",
                        engine.jq(prior)
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_mv_rejects_strangers_and_survives_extremes() {
        let mut engine = IncrementalMvJq::new();
        engine.push_quality(1.0);
        engine.push_quality(0.0);
        engine.push_quality(0.6);
        let jury = Jury::from_qualities(&[1.0, 0.0, 0.6]).unwrap();
        let expected = mv_jq(&jury, Prior::uniform()).unwrap();
        assert!((engine.jq(Prior::uniform()) - expected).abs() < 1e-12);
        assert!(matches!(
            engine.pop_quality(0.42).unwrap_err(),
            JqError::NotAMember { .. }
        ));
        engine.pop_quality(1.0).unwrap();
        engine.pop_quality(0.0).unwrap();
        let single = mv_jq(&Jury::from_qualities(&[0.6]).unwrap(), Prior::uniform()).unwrap();
        assert!((engine.jq(Prior::uniform()) - single).abs() < 1e-12);
    }

    #[test]
    fn arena_round_trip_matches_fresh_construction() {
        let pool = jury_model::paper_example_pool();
        let mut arena = JqScratch::new();
        let config = IncrementalJqConfig::default();
        let mut warm =
            IncrementalJq::for_pool_in(&pool, Prior::uniform(), config, pool.len(), &mut arena);
        for worker in pool.iter() {
            warm.push_worker(worker);
        }
        let expected = warm.jq();
        warm.recycle(&mut arena);
        assert!(arena.buffers_held() >= 2);
        // A second engine from the warm arena reproduces the value exactly.
        let mut again =
            IncrementalJq::for_pool_in(&pool, Prior::uniform(), config, pool.len(), &mut arena);
        for worker in pool.iter() {
            again.push_worker(worker);
        }
        assert_eq!(again.jq(), expected);
    }

    /// Drives a fixed op sequence against both kernel modes (and, for the
    /// binary engine, both stability tolerances so the forced rebuild
    /// fallback is covered) and demands agreement to 1e-12 after every op.
    mod kernel_equivalence {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Push(f64),
            Pop(usize),
            Swap(usize, f64),
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                prop_oneof![
                    (0.5f64..0.995).prop_map(Op::Push),
                    (0usize..1000).prop_map(Op::Pop),
                    ((0usize..1000), 0.5f64..0.995).prop_map(|(i, q)| Op::Swap(i, q)),
                ],
                1..50,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Tentpole invariant: vectorized push/pop/swap == scalar
            /// reference == forced from-scratch rebuild, to 1e-12, on the
            /// binary bucket engine.
            #[test]
            fn binary_vectorized_matches_scalar_and_rebuild(
                ops in ops(),
                delta in 0.02f64..0.1,
            ) {
                let mut fast = IncrementalJq::new(delta);
                let mut slow = IncrementalJq::new(delta)
                    .with_kernel_mode(KernelMode::ScalarReference);
                // Tolerance 0 rejects every deconvolution, so this engine
                // answers every pop through the rebuild fallback.
                let mut rebuilt = IncrementalJq::new(delta).with_stability_tolerance(0.0);
                let mut live: Vec<f64> = Vec::new();
                for op in &ops {
                    match *op {
                        Op::Push(q) => {
                            fast.push_quality(q);
                            slow.push_quality(q);
                            rebuilt.push_quality(q);
                            live.push(q);
                        }
                        Op::Pop(i) => {
                            if live.is_empty() { continue; }
                            let q = live.swap_remove(i % live.len());
                            fast.pop_quality(q).unwrap();
                            slow.pop_quality(q).unwrap();
                            rebuilt.pop_quality(q).unwrap();
                        }
                        Op::Swap(i, incoming) => {
                            if live.is_empty() { continue; }
                            let idx = i % live.len();
                            let out = std::mem::replace(&mut live[idx], incoming);
                            fast.swap_quality(out, incoming).unwrap();
                            slow.swap_quality(out, incoming).unwrap();
                            rebuilt.swap_quality(out, incoming).unwrap();
                        }
                    }
                    prop_assert!((fast.jq() - slow.jq()).abs() <= 1e-12,
                        "vectorized {} vs scalar {}", fast.jq(), slow.jq());
                    prop_assert!((fast.jq() - rebuilt.jq()).abs() <= 1e-12,
                        "vectorized {} vs rebuild {}", fast.jq(), rebuilt.jq());
                }
                prop_assert!((fast.jq() - fast.from_scratch_jq()).abs() <= 1e-12);
            }

            /// The same invariant for the MV Poisson-binomial engine.
            #[test]
            fn mv_vectorized_matches_scalar_and_rebuild(ops in ops()) {
                let mut fast = IncrementalMvJq::new();
                let mut slow = IncrementalMvJq::new()
                    .with_kernel_mode(KernelMode::ScalarReference);
                let mut live: Vec<f64> = Vec::new();
                let prior = Prior::new(0.6).unwrap();
                for op in &ops {
                    match *op {
                        Op::Push(q) => {
                            fast.push_quality(q);
                            slow.push_quality(q);
                            live.push(q);
                        }
                        Op::Pop(i) => {
                            if live.is_empty() { continue; }
                            let q = live.swap_remove(i % live.len());
                            fast.pop_quality(q).unwrap();
                            slow.pop_quality(q).unwrap();
                        }
                        Op::Swap(i, incoming) => {
                            if live.is_empty() { continue; }
                            let idx = i % live.len();
                            let out = std::mem::replace(&mut live[idx], incoming);
                            fast.swap_worker(
                                &jury_model::Worker::free(jury_model::WorkerId(0), out).unwrap(),
                                &jury_model::Worker::free(jury_model::WorkerId(0), incoming)
                                    .unwrap(),
                            ).unwrap();
                            slow.pop_quality(out).unwrap();
                            slow.push_quality(incoming);
                        }
                    }
                    prop_assert!((fast.jq(prior) - slow.jq(prior)).abs() <= 1e-12,
                        "vectorized {} vs scalar {}", fast.jq(prior), slow.jq(prior));
                    // Rebuild (shared by both modes) must agree too.
                    let mut scratch = fast.clone();
                    scratch.rebuild();
                    prop_assert!((fast.jq(prior) - scratch.jq(prior)).abs() <= 1e-12);
                }
            }
        }
    }
}
