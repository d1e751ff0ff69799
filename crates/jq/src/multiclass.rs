//! Jury Quality for multiple-choice tasks under the confusion-matrix worker
//! model (Section 7).
//!
//! The definition generalizes Equation 9: `JQ = Σ_{t'} α_{t'} H(t')` with
//! `H(t') = Σ_V Pr(V | t = t') · E[1_{S(V) = t'}]`. Bayesian voting remains
//! optimal (Equation 10), and its JQ can be computed either exactly by
//! enumerating the `ℓ^n` votings, or approximately by the tuple-key
//! generalization of Algorithm 1 sketched at the end of Section 7: for every
//! candidate answer `t'`, track the bucketed vector of log posterior ratios
//! against every other label and accumulate `Pr(V | t')` per key; a voting is
//! decided for `t'` iff all components are non-negative.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use jury_model::{
    enumerate_label_votings, CategoricalPrior, Label, MatrixJury, ModelError, ModelResult,
};
use jury_voting::MultiClassVotingStrategy;

use crate::error::{JqError, JqResult};

/// Largest voting-space size accepted by the exact enumeration.
const MAX_ENUMERATION: u64 = 1 << 22;

/// Checks the `ℓ^n` voting-space limit of the exact enumerations.
fn check_enumeration_size(jury: &MatrixJury) -> JqResult<()> {
    let space = (jury.num_choices() as u64).saturating_pow(jury.size() as u32);
    if space <= MAX_ENUMERATION {
        Ok(())
    } else {
        Err(JqError::EnumerationTooLarge {
            votings: space,
            max: MAX_ENUMERATION,
        })
    }
}

/// Probabilities are clamped to this floor before taking logarithms so that
/// zero entries of a confusion matrix stay finite.
const LOG_FLOOR: f64 = 1e-12;

/// `ln p − ln q` with both probabilities clamped to [`LOG_FLOOR`], the
/// log-ratio increment used by every multi-class bucket DP in this crate.
/// Shared between the scratch DP below and
/// [`crate::multiclass_incremental::IncrementalMultiClassJq`] so the two
/// quantize identically on the same grid.
#[inline]
pub(crate) fn clamped_log_ratio(p: f64, q: f64) -> f64 {
    p.max(LOG_FLOOR).ln() - q.max(LOG_FLOOR).ln()
}

/// The largest absolute log-ratio any vote of any of `workers` (or the
/// prior) can contribute to the tuple key of target label `target` — the
/// quantity whose division by the bucket count yields the grid width.
pub(crate) fn target_max_abs_ratio(
    workers: &[jury_model::MatrixWorker],
    prior: &CategoricalPrior,
    target: Label,
) -> f64 {
    let l = prior.num_choices();
    let mut max_abs: f64 = 0.0;
    for i in (0..l).filter(|&i| i != target.index()) {
        max_abs = max_abs.max(clamped_log_ratio(prior.prob(target), prior.prob(Label(i))).abs());
        for worker in workers {
            for k in 0..l {
                let r = clamped_log_ratio(
                    worker.prob(target, Label(k)),
                    worker.prob(Label(i), Label(k)),
                );
                max_abs = max_abs.max(r.abs());
            }
        }
    }
    max_abs
}

/// The per-target grid widths `δ_{t'}` the tuple-key DP derives for a jury:
/// the largest absolute log-ratio reachable for that target (workers and
/// prior included) divided by the configured bucket count, or `0.0` when
/// every ratio is zero. [`approx_multiclass_bv_jq`] quantizes on exactly
/// these grids, so an incremental engine constructed with the same deltas
/// reproduces the scratch DP bucket for bucket.
///
/// # Errors
///
/// Returns [`ModelError::InvalidPriorVector`] when the prior's label count
/// does not match the jury's.
pub fn multiclass_grid_deltas(
    jury: &MatrixJury,
    prior: &CategoricalPrior,
    config: MultiClassBucketConfig,
) -> ModelResult<Vec<f64>> {
    check_dimensions(jury, prior)?;
    Ok((0..jury.num_choices())
        .map(|t| {
            let max_abs = target_max_abs_ratio(jury.workers(), prior, Label(t));
            if max_abs > 0.0 {
                max_abs / config.num_buckets.max(1) as f64
            } else {
                0.0
            }
        })
        .collect())
}

/// Exact JQ of an arbitrary multi-class strategy by enumerating all `ℓ^n`
/// votings (Equation 9).
///
/// # Errors
///
/// Returns [`JqError::EnumerationTooLarge`] when `ℓ^n` exceeds the supported
/// voting-space size, and [`JqError::Model`] on dimension mismatches.
pub fn exact_multiclass_jq(
    jury: &MatrixJury,
    strategy: &dyn MultiClassVotingStrategy,
    prior: &CategoricalPrior,
) -> JqResult<f64> {
    check_dimensions(jury, prior)?;
    check_enumeration_size(jury)?;
    let l = jury.num_choices();
    let n = jury.size();
    let mut jq = 0.0;
    for votes in enumerate_label_votings(n, l) {
        for t in 0..l {
            let truth = Label(t);
            let p_v = jury.voting_likelihood(&votes, truth)?;
            if p_v == 0.0 {
                continue;
            }
            let h = strategy.prob_label(jury, &votes, prior, truth)?;
            jq += prior.prob(truth) * p_v * h;
        }
    }
    Ok(jq)
}

/// Exact JQ of multi-class Bayesian voting using the `max` formulation:
/// `JQ(BV) = Σ_V max_{t'} α_{t'} Pr(V | t = t')`.
///
/// # Errors
///
/// Returns [`JqError::EnumerationTooLarge`] when `ℓ^n` exceeds the supported
/// voting-space size, and [`JqError::Model`] on dimension mismatches.
pub fn exact_multiclass_bv_jq(jury: &MatrixJury, prior: &CategoricalPrior) -> JqResult<f64> {
    check_dimensions(jury, prior)?;
    check_enumeration_size(jury)?;
    let l = jury.num_choices();
    let n = jury.size();
    let mut jq = 0.0;
    for votes in enumerate_label_votings(n, l) {
        let mut best = 0.0f64;
        for t in 0..l {
            let w = prior.prob(Label(t)) * jury.voting_likelihood(&votes, Label(t))?;
            best = best.max(w);
        }
        jq += best;
    }
    Ok(jq)
}

/// Configuration of the approximate multi-class JQ computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiClassBucketConfig {
    /// Number of buckets used to quantize each log-ratio dimension.
    pub num_buckets: usize,
}

impl Default for MultiClassBucketConfig {
    fn default() -> Self {
        MultiClassBucketConfig { num_buckets: 400 }
    }
}

/// Approximate `JQ(J, BV, ~α)` for the confusion-matrix model via the
/// tuple-key dynamic program of Section 7.
///
/// For every candidate answer `t'`, the key of the map is the vector (over
/// the other labels `i ≠ t'`) of bucketed values of
/// `ln (α_{t'} Pr(V | t')) − ln (α_i Pr(V | i))`; the associated probability
/// accumulates `Pr(V | t')`. After all workers are folded in, the mass of
/// keys whose components are all non-negative (strictly positive for labels
/// smaller than `t'`, matching the deterministic tie-break of
/// [`jury_voting::BayesianMultiClassVoting`]) is `H(t')`.
pub fn approx_multiclass_bv_jq(
    jury: &MatrixJury,
    prior: &CategoricalPrior,
    config: MultiClassBucketConfig,
) -> ModelResult<f64> {
    let deltas = multiclass_grid_deltas(jury, prior, config)?;
    let mut jq = 0.0;
    for (t, &delta) in deltas.iter().enumerate() {
        jq += prior.prob(Label(t)) * h_for_target(jury, prior, Label(t), delta);
    }
    Ok(jq.clamp(0.0, 1.0))
}

fn check_dimensions(jury: &MatrixJury, prior: &CategoricalPrior) -> ModelResult<()> {
    if prior.num_choices() != jury.num_choices() {
        return Err(ModelError::InvalidPriorVector {
            reason: format!(
                "prior has {} classes but the jury votes over {}",
                prior.num_choices(),
                jury.num_choices()
            ),
        });
    }
    Ok(())
}

/// Bucketed key → probability mass of the tuple DP. The hasher is fixed so
/// that iteration order, and with it the order of the float sums in
/// [`h_for_target`], depends on the keys alone; a `RandomState` map seeds
/// each instance afresh, which would change the result's last bits from
/// call to call.
type KeyMass = HashMap<Vec<i32>, f64, BuildHasherDefault<DefaultHasher>>;

/// `H(t') = Σ_V Pr(V | t') 1{BV(V) = t'}` via the bucketed tuple DP on the
/// grid of width `delta` (see [`multiclass_grid_deltas`]).
fn h_for_target(jury: &MatrixJury, prior: &CategoricalPrior, target: Label, delta: f64) -> f64 {
    let l = jury.num_choices();
    let others: Vec<usize> = (0..l).filter(|&i| i != target.index()).collect();

    // Pre-compute, per worker and per vote, the probability Pr(v | t') and
    // the log-ratio increments against every other label.
    struct WorkerIncrements {
        /// `Pr(vote = k | t = target)` for every k.
        prob_given_target: Vec<f64>,
        /// `ln Pr(k | target) − ln Pr(k | other)` for every k and other-label.
        log_ratios: Vec<Vec<f64>>,
    }

    let mut increments = Vec::with_capacity(jury.size());
    for worker in jury.workers() {
        let mut prob_given_target = Vec::with_capacity(l);
        let mut log_ratios = Vec::with_capacity(l);
        for k in 0..l {
            let p_t = worker.prob(target, Label(k));
            prob_given_target.push(p_t);
            let ratios: Vec<f64> = others
                .iter()
                .map(|&i| clamped_log_ratio(p_t, worker.prob(Label(i), Label(k))))
                .collect();
            log_ratios.push(ratios);
        }
        increments.push(WorkerIncrements {
            prob_given_target,
            log_ratios,
        });
    }

    // The prior contributes the initial key ln α_{t'} − ln α_i.
    let initial_ratios: Vec<f64> = others
        .iter()
        .map(|&i| clamped_log_ratio(prior.prob(target), prior.prob(Label(i))))
        .collect();

    let quantize = |x: f64| -> i32 {
        if delta > 0.0 {
            (x / delta).round() as i32
        } else {
            0
        }
    };

    let initial_key: Vec<i32> = initial_ratios.iter().map(|&r| quantize(r)).collect();
    let mut current: KeyMass = [(initial_key, 1.0f64)].into_iter().collect();

    for inc in &increments {
        let mut next = KeyMass::with_capacity_and_hasher(current.len() * l, Default::default());
        for (key, &prob) in &current {
            for k in 0..l {
                let p = inc.prob_given_target[k];
                if p <= 0.0 {
                    continue;
                }
                let mut new_key = key.clone();
                for (slot, &r) in new_key.iter_mut().zip(inc.log_ratios[k].iter()) {
                    *slot += quantize(r);
                }
                *next.entry(new_key).or_insert(0.0) += prob * p;
            }
        }
        current = next;
    }

    // BV ties break towards the smaller label: against a smaller label the
    // target must win strictly, against a larger label a tie suffices.
    let mut h = 0.0;
    'keys: for (key, &prob) in &current {
        for (slot, &other) in key.iter().zip(others.iter()) {
            let wins = if other < target.index() {
                *slot > 0
            } else {
                *slot >= 0
            };
            if !wins {
                continue 'keys;
            }
        }
        h += prob;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_model::{Jury, Prior};
    use jury_voting::{BayesianMultiClassVoting, PluralityVoting};

    use crate::exact::exact_bv_jq;
    use crate::multiclass_incremental::IncrementalMultiClassJq;

    #[test]
    fn two_class_exact_matches_binary_exact() {
        // With ℓ = 2 and symmetric confusion matrices the multi-class JQ must
        // coincide with the binary JQ.
        let qualities = [0.9, 0.6, 0.6];
        let matrix_jury = MatrixJury::from_qualities(&qualities, 2).unwrap();
        let binary_jury = Jury::from_qualities(&qualities).unwrap();
        for alpha in [0.3, 0.5, 0.8] {
            let prior2 = CategoricalPrior::new(vec![alpha, 1.0 - alpha]).unwrap();
            let multi = exact_multiclass_bv_jq(&matrix_jury, &prior2).unwrap();
            let binary = exact_bv_jq(&binary_jury, Prior::new(alpha).unwrap()).unwrap();
            assert!(
                (multi - binary).abs() < 1e-10,
                "alpha={alpha}: {multi} vs {binary}"
            );
        }
    }

    #[test]
    fn bv_formulations_agree() {
        let jury = MatrixJury::from_qualities(&[0.8, 0.65, 0.6], 3).unwrap();
        let prior = CategoricalPrior::new(vec![0.5, 0.3, 0.2]).unwrap();
        let via_strategy =
            exact_multiclass_jq(&jury, &BayesianMultiClassVoting::new(), &prior).unwrap();
        let via_max = exact_multiclass_bv_jq(&jury, &prior).unwrap();
        assert!(
            (via_strategy - via_max).abs() < 1e-10,
            "{via_strategy} vs {via_max}"
        );
    }

    #[test]
    fn bv_dominates_plurality() {
        let jury = MatrixJury::from_qualities(&[0.9, 0.5, 0.45, 0.7], 3).unwrap();
        let prior = CategoricalPrior::uniform(3).unwrap();
        let bv = exact_multiclass_bv_jq(&jury, &prior).unwrap();
        let plurality = exact_multiclass_jq(&jury, &PluralityVoting::new(), &prior).unwrap();
        assert!(
            bv >= plurality - 1e-12,
            "BV {bv} must dominate plurality {plurality}"
        );
        assert!((0.0..=1.0 + 1e-12).contains(&bv));
    }

    #[test]
    fn approximation_matches_exact_on_small_juries() {
        let configs = [
            (vec![0.8, 0.65, 0.6], 3, vec![0.5, 0.3, 0.2]),
            (vec![0.7, 0.7], 3, vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),
            (vec![0.9, 0.6, 0.55, 0.5], 4, vec![0.25, 0.25, 0.25, 0.25]),
            (vec![0.6; 5], 2, vec![0.4, 0.6]),
        ];
        for (qualities, l, prior_vec) in configs {
            let jury = MatrixJury::from_qualities(&qualities, l).unwrap();
            let prior = CategoricalPrior::new(prior_vec).unwrap();
            let exact = exact_multiclass_bv_jq(&jury, &prior).unwrap();
            let approx =
                approx_multiclass_bv_jq(&jury, &prior, MultiClassBucketConfig::default()).unwrap();
            assert!(
                (exact - approx).abs() < 5e-3,
                "qualities {qualities:?} l={l}: exact {exact} vs approx {approx}"
            );
        }
    }

    #[test]
    fn approximation_handles_asymmetric_confusion_matrices() {
        use jury_model::{ConfusionMatrix, MatrixWorker, WorkerId};
        let workers = vec![
            MatrixWorker::new(
                WorkerId(0),
                ConfusionMatrix::new(3, vec![0.8, 0.1, 0.1, 0.2, 0.7, 0.1, 0.05, 0.15, 0.8])
                    .unwrap(),
                1.0,
            )
            .unwrap(),
            MatrixWorker::new(
                WorkerId(1),
                ConfusionMatrix::new(3, vec![0.6, 0.2, 0.2, 0.3, 0.5, 0.2, 0.1, 0.3, 0.6]).unwrap(),
                1.0,
            )
            .unwrap(),
            MatrixWorker::new(
                WorkerId(2),
                ConfusionMatrix::from_quality(0.7, 3).unwrap(),
                1.0,
            )
            .unwrap(),
        ];
        let jury = MatrixJury::new(workers).unwrap();
        let prior = CategoricalPrior::new(vec![0.2, 0.5, 0.3]).unwrap();
        let exact = exact_multiclass_bv_jq(&jury, &prior).unwrap();
        let approx =
            approx_multiclass_bv_jq(&jury, &prior, MultiClassBucketConfig::default()).unwrap();
        assert!(
            (exact - approx).abs() < 5e-3,
            "exact {exact} vs approx {approx}"
        );
    }

    #[test]
    fn approximation_scales_beyond_enumeration() {
        // 14 workers over 3 labels is the smallest ℓ = 3 jury past the exact
        // enumeration limit (3^14 > 2^22 votings). On a coarse grid the
        // tuple DP must match the dense incremental engine built on the
        // same grid.
        let qualities: Vec<f64> = (0..14).map(|i| 0.55 + 0.01 * i as f64).collect();
        let jury = MatrixJury::from_qualities(&qualities, 3).unwrap();
        let prior = CategoricalPrior::uniform(3).unwrap();
        assert!(matches!(
            exact_multiclass_bv_jq(&jury, &prior),
            Err(JqError::EnumerationTooLarge { .. })
        ));
        let config = MultiClassBucketConfig { num_buckets: 8 };
        let approx = approx_multiclass_bv_jq(&jury, &prior, config).unwrap();
        let deltas = multiclass_grid_deltas(&jury, &prior, config).unwrap();
        let mut engine = IncrementalMultiClassJq::new(&prior, &deltas).unwrap();
        for worker in jury.workers() {
            engine.push_worker(worker).unwrap();
        }
        assert!(
            (approx - engine.jq()).abs() < 1e-9,
            "scratch {approx} vs incremental {}",
            engine.jq()
        );
    }

    #[test]
    fn approximation_is_bit_identical_across_calls() {
        use jury_model::{ConfusionMatrix, MatrixWorker, WorkerId};
        // Eight workers with asymmetric 3 × 3 confusion matrices: enough
        // distinct keys that the order of the DP's float sums matters.
        let workers: Vec<MatrixWorker> = (0..8)
            .map(|i| {
                let mut entries = Vec::with_capacity(9);
                for t in 0..3 {
                    let diag = 0.45 + 0.05 * ((3 * i + 5 * t) % 7) as f64;
                    let split = 0.15 + 0.15 * ((i + 2 * t) % 5) as f64;
                    let mut off = [(1.0 - diag) * split, (1.0 - diag) * (1.0 - split)].into_iter();
                    entries.extend((0..3).map(|k| if k == t { diag } else { off.next().unwrap() }));
                }
                let confusion = ConfusionMatrix::new(3, entries).unwrap();
                MatrixWorker::new(WorkerId(i as u32), confusion, 1.0).unwrap()
            })
            .collect();
        let jury = MatrixJury::new(workers).unwrap();
        let prior = CategoricalPrior::new(vec![0.2, 0.5, 0.3]).unwrap();
        let config = MultiClassBucketConfig::default();
        let first = approx_multiclass_bv_jq(&jury, &prior, config).unwrap();
        for _ in 0..30 {
            let again = approx_multiclass_bv_jq(&jury, &prior, config).unwrap();
            assert_eq!(again.to_bits(), first.to_bits(), "{again} vs {first}");
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let jury = MatrixJury::from_qualities(&[0.7, 0.7], 3).unwrap();
        let prior = CategoricalPrior::uniform(2).unwrap();
        assert!(exact_multiclass_bv_jq(&jury, &prior).is_err());
        assert!(approx_multiclass_bv_jq(&jury, &prior, MultiClassBucketConfig::default()).is_err());
        assert!(exact_multiclass_jq(&jury, &PluralityVoting::new(), &prior).is_err());
    }

    #[test]
    fn prior_certainty_gives_perfect_jq() {
        let jury = MatrixJury::from_qualities(&[0.6, 0.6], 3).unwrap();
        let prior = CategoricalPrior::new(vec![1.0, 0.0, 0.0]).unwrap();
        let exact = exact_multiclass_bv_jq(&jury, &prior).unwrap();
        assert!((exact - 1.0).abs() < 1e-9);
        let approx =
            approx_multiclass_bv_jq(&jury, &prior, MultiClassBucketConfig::default()).unwrap();
        assert!((approx - 1.0).abs() < 1e-6);
    }
}
