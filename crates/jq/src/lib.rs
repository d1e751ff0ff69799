//! # jury-jq
//!
//! Jury Quality computation for *"On Optimality of Jury Selection in
//! Crowdsourcing"* (EDBT 2015).
//!
//! The Jury Quality `JQ(J, S, α) = Pr(S(V) = t)` (Definition 3) measures how
//! likely a voting strategy is to recover the true answer from a jury's
//! votes. This crate provides every JQ back-end the paper needs:
//!
//! * [`exact::exact_jq`] — exhaustive enumeration for any strategy
//!   (exponential; ground truth for tests and small experiments);
//! * [`exact::exact_bv_jq`] — the `Σ_V max(P_0, P_1)` formulation for
//!   Bayesian voting, and [`exact::ExactBvJq`], its push/pop form;
//! * [`mv::mv_jq`] — exact polynomial JQ for Majority Voting via a
//!   Poisson-binomial dynamic program (the quantity the MVJS baseline
//!   optimizes);
//! * [`bucket::BucketJqEstimator`] — Algorithm 1: the bucket-based
//!   approximation of `JQ(J, BV, α)` with Algorithm 2 pruning, Theorem 3
//!   prior folding, and the Section 4.4 error bound, over a dense,
//!   offset-indexed bucket array;
//! * [`incremental::IncrementalJq`] / [`incremental::IncrementalMvJq`] —
//!   stateful engines that `push`/`pop`/`swap` one worker at a time, so the
//!   JSP searches pay `O(buckets)` per neighbour jury instead of rebuilding
//!   the dynamic program from scratch;
//! * [`multiclass`] — Section 7's extension to multiple-choice tasks and
//!   confusion-matrix workers;
//! * [`multiclass_incremental::IncrementalMultiClassJq`] — the Section 7
//!   tuple-key DP under the same push/pop/swap contract, so multi-class
//!   selection shares the solvers' incremental hot path;
//! * [`estimator::JqEngine`] — a facade picking the right back-end.
//!
//! Size preconditions are reported as typed [`JqError`] values — no JQ entry
//! point panics on oversized input.
//!
//! ```
//! use jury_model::{Jury, Prior};
//! use jury_jq::{exact_bv_jq, mv_jq, BucketJqEstimator};
//!
//! // Figure 2's jury: qualities 0.9, 0.6, 0.6 under a uniform prior.
//! let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
//! let mv = mv_jq(&jury, Prior::uniform()).unwrap();
//! let bv = exact_bv_jq(&jury, Prior::uniform()).unwrap();
//! assert!((mv - 0.792).abs() < 1e-12);   // Example 2
//! assert!((bv - 0.900).abs() < 1e-12);   // Example 3
//!
//! // The polynomial-time approximation agrees to within its error bound.
//! let approx = BucketJqEstimator::default().jq(&jury, Prior::uniform());
//! assert!((approx - bv).abs() < 0.01);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod bucket;
pub mod error;
pub mod estimator;
pub mod exact;
pub mod hardness;
pub mod incremental;
pub mod kernel;
pub mod multiclass;
pub mod multiclass_incremental;
pub mod mv;
pub mod prior;
pub mod prune;
pub mod signature;

pub use bounds::{error_bound, recommended_buckets, recommended_multiplier};
pub use bucket::{bucket_index, bv_jq, BucketCount, BucketJqConfig, BucketJqEstimator, JqEstimate};
pub use error::{JqError, JqResult};
pub use estimator::{JqBackend, JqEngine, JqValue};
pub use exact::{exact_bv_jq, exact_jq, ExactBvJq, MAX_EXACT_JURY};
pub use hardness::{has_equal_partition, partition_gadget};
pub use incremental::{IncrementalJq, IncrementalJqConfig, IncrementalMvJq, IncrementalStats};
pub use kernel::{JqScratch, KernelMode, SharedJqScratch};
pub use multiclass::{
    approx_multiclass_bv_jq, exact_multiclass_bv_jq, exact_multiclass_jq, multiclass_grid_deltas,
    MultiClassBucketConfig,
};
pub use multiclass_incremental::{IncrementalMultiClassJq, MultiClassIncrementalConfig};
pub use mv::mv_jq;
pub use prior::{fold_prior, PRIOR_PSEUDO_WORKER_ID};
pub use prune::PruneStats;
pub use signature::{jury_signature, multiclass_signature, JurySignature, SIGNATURE_RESOLUTION};

#[cfg(test)]
mod proptests {
    use super::*;
    use jury_model::{Jury, Prior, Worker, WorkerId};
    use jury_voting::all_strategies;
    use proptest::prelude::*;

    fn quality_vec() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            (0.5f64..0.98).prop_map(|q| (q * 100.0).round() / 100.0),
            1..8,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Corollary 1: BV dominates every strategy in the catalogue, for
        /// random juries and priors.
        #[test]
        fn bv_is_optimal(qualities in quality_vec(), alpha in 0.05f64..0.95) {
            let jury = Jury::from_qualities(&qualities).unwrap();
            let prior = Prior::new(alpha).unwrap();
            let bv = exact_bv_jq(&jury, prior).unwrap();
            for entry in all_strategies() {
                let other = exact_jq(&jury, entry.strategy.as_ref(), prior).unwrap();
                prop_assert!(other <= bv + 1e-9,
                    "{} beat BV: {other} > {bv}", entry.name());
            }
        }

        /// Lemma 1: adding a worker never decreases JQ(BV).
        #[test]
        fn jq_is_monotone_in_jury_size(
            qualities in quality_vec(),
            extra in 0.5f64..0.99,
            alpha in 0.05f64..0.95,
        ) {
            let jury = Jury::from_qualities(&qualities).unwrap();
            let prior = Prior::new(alpha).unwrap();
            let before = exact_bv_jq(&jury, prior).unwrap();
            let bigger = jury.with_worker(
                Worker::free(WorkerId(1000), extra).unwrap());
            let after = exact_bv_jq(&bigger, prior).unwrap();
            prop_assert!(after >= before - 1e-9,
                "adding a {extra} worker dropped JQ from {before} to {after}");
        }

        /// Lemma 2: raising a worker's quality never decreases JQ(BV).
        #[test]
        fn jq_is_monotone_in_worker_quality(
            qualities in quality_vec(),
            bump in 0.0f64..0.3,
            alpha in 0.05f64..0.95,
        ) {
            let jury = Jury::from_qualities(&qualities).unwrap();
            let prior = Prior::new(alpha).unwrap();
            let before = exact_bv_jq(&jury, prior).unwrap();
            let mut improved = qualities.clone();
            improved[0] = (improved[0] + bump).min(1.0);
            let better = Jury::from_qualities(&improved).unwrap();
            let after = exact_bv_jq(&better, prior).unwrap();
            prop_assert!(after >= before - 1e-9,
                "raising quality {} -> {} dropped JQ {before} -> {after}",
                qualities[0], improved[0]);
        }

        /// The bucket approximation honours its analytic error bound and the
        /// paper's 1 % guarantee at the recommended setting.
        #[test]
        fn bucket_error_is_bounded(qualities in quality_vec(), alpha in 0.05f64..0.95) {
            let jury = Jury::from_qualities(&qualities).unwrap();
            let prior = Prior::new(alpha).unwrap();
            let exact = exact_bv_jq(&jury, prior).unwrap();
            let est = BucketJqEstimator::default().estimate(&jury, prior);
            prop_assert!((exact - est.value).abs() <= est.error_bound.max(0.01) + 1e-9,
                "error {} exceeds bound {}", (exact - est.value).abs(), est.error_bound);
            prop_assert!((exact - est.value).abs() <= 0.01 + 1e-9);
        }

        /// Theorem 3 at the approximation level: folding the prior into a
        /// pseudo-worker gives the same estimate as passing the prior.
        #[test]
        fn prior_folding_is_consistent(qualities in quality_vec(), alpha in 0.05f64..0.95) {
            let jury = Jury::from_qualities(&qualities).unwrap();
            let prior = Prior::new(alpha).unwrap();
            let est = BucketJqEstimator::default();
            let direct = est.jq(&jury, prior);
            let folded = est.jq(&fold_prior(&jury, prior), Prior::uniform());
            prop_assert!((direct - folded).abs() < 1e-9);
        }

        /// The MV dynamic program always returns a probability and never
        /// exceeds the optimal strategy's quality.
        #[test]
        fn mv_jq_is_dominated_by_bv(qualities in quality_vec(), alpha in 0.05f64..0.95) {
            let jury = Jury::from_qualities(&qualities).unwrap();
            let prior = Prior::new(alpha).unwrap();
            let mv = mv_jq(&jury, prior).unwrap();
            let bv = exact_bv_jq(&jury, prior).unwrap();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&mv));
            prop_assert!(mv <= bv + 1e-9);
        }

        /// Deconvolution-fallback safety: random push/pop/swap sequences on
        /// the incremental engine never diverge from a from-scratch rebuild
        /// of the same member multiset.
        #[test]
        fn incremental_never_diverges_from_rebuild(
            qualities in quality_vec(),
            swaps in proptest::collection::vec(0.5f64..0.98, 1..6),
        ) {
            let mut engine = IncrementalJq::new(0.03);
            for &q in &qualities {
                engine.push_quality(q);
            }
            let mut live = qualities.clone();
            for &incoming in &swaps {
                let out = live.remove(0);
                live.push(incoming);
                engine.swap_quality(out, incoming).unwrap();
                prop_assert!(
                    (engine.jq() - engine.from_scratch_jq()).abs() < 1e-9,
                    "incremental {} vs rebuild {} after stats {:?}",
                    engine.jq(), engine.from_scratch_jq(), engine.stats());
            }
            // Pop everything back down to the empty state.
            for &q in &live {
                engine.pop_quality(q).unwrap();
            }
            prop_assert!((engine.jq() - 0.5).abs() < 1e-9);
        }

        /// On the grid the scratch estimator derives for a jury, the
        /// incremental engine reproduces the scratch bucket DP.
        #[test]
        fn incremental_matches_scratch_dp(qualities in quality_vec()) {
            let num_buckets = 64usize;
            let jury = Jury::from_qualities(&qualities).unwrap();
            let scratch = BucketJqEstimator::new(
                BucketJqConfig::default()
                    .with_buckets(BucketCount::Fixed(num_buckets))
                    .with_high_quality_shortcut(false),
            )
            .jq(&jury, Prior::uniform());
            let upper = qualities
                .iter()
                .map(|&q| jury_model::log_odds(q.max(1.0 - q)))
                .fold(0.0f64, f64::max);
            let delta = if upper > 0.0 { upper / num_buckets as f64 } else { 0.0 };
            let mut engine = IncrementalJq::new(delta);
            for &q in &qualities {
                engine.push_quality(q);
            }
            prop_assert!((engine.jq() - scratch).abs() < 1e-9,
                "incremental {} vs scratch {scratch}", engine.jq());
        }
    }
}
