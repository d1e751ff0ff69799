//! Exact Jury Quality by exhaustive enumeration (Definition 3).
//!
//! `JQ(J, S, α) = α Σ_V Pr(V | t=0) h(V) + (1−α) Σ_V Pr(V | t=1) (1 − h(V))`
//! where `h(V) = E[1_{S(V)=0}]`. The sum ranges over all `2^n` votings, so
//! these functions are exponential in the jury size; they are the ground
//! truth that the polynomial MV dynamic program and the bucket-based BV
//! approximation are validated against, and they also serve the small-jury
//! experiments (Figure 8 uses `n ≤ 11`).
//!
//! [`ExactBvJq`] is the push/pop form of [`exact_bv_jq`]: it keeps the
//! per-voting likelihoods of every prefix of its jury, so a depth-first
//! walk over juries pays one doubling per push instead of a fresh
//! enumeration per jury, and still reproduces [`exact_bv_jq`] bit for bit.

use jury_model::{enumerate_binary_votings, Answer, Jury, Prior, Worker};
use jury_voting::{BayesianVoting, VotingStrategy};

use crate::error::{JqError, JqResult};
use crate::kernel::JqScratch;

/// Largest jury size accepted by the exact enumerations (2^20 votings).
pub const MAX_EXACT_JURY: usize = 20;

/// Checks the enumeration size limit shared by the exact back-ends.
fn check_jury_size(jury: &Jury) -> JqResult<()> {
    if jury.size() <= MAX_EXACT_JURY {
        Ok(())
    } else {
        Err(JqError::JuryTooLarge {
            size: jury.size(),
            max: MAX_EXACT_JURY,
        })
    }
}

/// Exact JQ of an arbitrary voting strategy, by enumerating all `2^n`
/// votings (Definition 3).
///
/// # Errors
///
/// Returns [`JqError::JuryTooLarge`] if the jury has more than
/// [`MAX_EXACT_JURY`] members (use the approximation in [`crate::bucket`] or
/// [`crate::incremental`] for larger juries), and [`JqError::Model`] if the
/// strategy rejects the generated votings.
pub fn exact_jq(jury: &Jury, strategy: &dyn VotingStrategy, prior: Prior) -> JqResult<f64> {
    check_jury_size(jury)?;
    let alpha = prior.alpha();
    let mut jq = 0.0;
    for votes in enumerate_binary_votings(jury.size()) {
        let h = strategy.prob_no(jury, &votes, prior)?;
        let p_given_no = jury.voting_likelihood(&votes, Answer::No)?;
        let p_given_yes = jury.voting_likelihood(&votes, Answer::Yes)?;
        jq += alpha * p_given_no * h + (1.0 - alpha) * p_given_yes * (1.0 - h);
    }
    Ok(jq)
}

/// Exact JQ of Bayesian Voting, using the fact that BV picks the answer with
/// the larger unnormalized posterior, so its per-voting contribution is
/// simply `max(P_0(V), P_1(V))`:
///
/// `JQ(J, BV, α) = Σ_V max(α Pr(V|t=0), (1−α) Pr(V|t=1))`.
///
/// This is the same exponential enumeration as [`exact_jq`] but roughly twice
/// as fast because it skips the strategy dispatch; it also makes the
/// optimality of BV (Theorem 1) syntactically obvious: every other strategy's
/// contribution is a convex combination of `P_0(V)` and `P_1(V)`.
///
/// # Errors
///
/// Returns [`JqError::JuryTooLarge`] if the jury has more than
/// [`MAX_EXACT_JURY`] members.
pub fn exact_bv_jq(jury: &Jury, prior: Prior) -> JqResult<f64> {
    check_jury_size(jury)?;
    let alpha = prior.alpha();
    let mut jq = 0.0;
    for votes in enumerate_binary_votings(jury.size()) {
        let p0 = alpha * jury.voting_likelihood(&votes, Answer::No)?;
        let p1 = (1.0 - alpha) * jury.voting_likelihood(&votes, Answer::Yes)?;
        jq += p0.max(p1);
    }
    Ok(jq)
}

/// Exact JQ of Bayesian Voting computed the slow way — by delegating to
/// [`exact_jq`] with a [`BayesianVoting`] instance. Exposed so tests and
/// benchmarks can cross-validate the two formulations.
///
/// # Errors
///
/// Returns the same errors as [`exact_jq`].
pub fn exact_bv_jq_via_strategy(jury: &Jury, prior: Prior) -> JqResult<f64> {
    exact_jq(jury, &BayesianVoting::new(), prior)
}

/// Offset of level `k` (the votings of the first `k` members) in the level
/// stacks of [`ExactBvJq`]: levels `0..k` hold `2^0 + … + 2^(k−1)` entries.
fn level_start(k: usize) -> usize {
    (1 << k) - 1
}

/// Appends level `k + 1` to a level stack: every voting of level `k`
/// splits into "member `k` votes No" (index `2j`) and "votes Yes"
/// (`2j + 1`), so worker 0 stays the most significant voting bit, as in
/// [`enumerate_binary_votings`].
fn grow_level(levels: &mut Vec<f64>, k: usize, if_no: f64, if_yes: f64) {
    let (from, to) = (level_start(k), level_start(k + 1));
    levels.resize(level_start(k + 2), 0.0);
    let (prefix, next) = levels.split_at_mut(to);
    for (pair, &p) in next.chunks_exact_mut(2).zip(&prefix[from..]) {
        pair[0] = p * if_no;
        pair[1] = p * if_yes;
    }
}

/// Exact `JQ(J, BV, α)` of a jury that changes one worker at a time — the
/// push/pop form of [`exact_bv_jq`].
///
/// The state is a stack of levels: level `k` holds `Pr(V | t=0)` and
/// `Pr(V | t=1)` of the `2^k` votings of the first `k` members, in
/// [`enumerate_binary_votings`] order. A push doubles the top level, a pop
/// of the top member drops it, and popping a deeper member (or restoring
/// one to its old place) rebuilds the levels from that depth. The
/// products are taken and summed in the same order as [`exact_bv_jq`]
/// over the members in order, so [`Self::jq`] equals it bit for bit.
///
/// Members are identified by worker id. Like the batch sessions of the
/// selection layer, a pop remembers where the worker sat, and
/// [`Self::restore_worker`] puts it back there. All four buffers are
/// `f64` buffers drawn from a [`JqScratch`] arena (ids are `u32`, exact in
/// an `f64`), so a warm arena opens engines without allocating.
///
/// ```
/// use jury_jq::{exact_bv_jq, ExactBvJq, JqScratch};
/// use jury_model::{Jury, Prior};
///
/// let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
/// let mut engine = ExactBvJq::new_in(3, &mut JqScratch::new());
/// for worker in jury.workers() {
///     engine.push_worker(worker);
/// }
/// let scratch = exact_bv_jq(&jury, Prior::uniform()).unwrap();
/// assert_eq!(engine.jq(Prior::uniform()).to_bits(), scratch.to_bits()); // 0.9
///
/// // Dropping the 0.9 worker leaves {0.6, 0.6}.
/// engine.pop_worker(&jury.workers()[0]).unwrap();
/// assert!((engine.jq(Prior::uniform()) - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ExactBvJq {
    /// Level stack of `Pr(V | t=0)`.
    given_no: Vec<f64>,
    /// Level stack of `Pr(V | t=1)`.
    given_yes: Vec<f64>,
    /// `[id, quality]` per member, in member order.
    members: Vec<f64>,
    /// `[id, position]` of the latest pop of each popped worker.
    vacated: Vec<f64>,
}

impl ExactBvJq {
    /// An empty jury whose buffers come from `arena`, reserved for
    /// `max_members` members (capped at [`MAX_EXACT_JURY`]). Return them
    /// with [`Self::recycle`].
    pub fn new_in(max_members: usize, arena: &mut JqScratch) -> Self {
        let max_members = max_members.min(MAX_EXACT_JURY);
        // Largest first, as the arena hands out its largest buffer first:
        // vacancies can outnumber members, since every popped id keeps one.
        let given_no = arena.take_buffer();
        let given_yes = arena.take_buffer();
        let vacated = arena.take_buffer();
        let mut engine = ExactBvJq {
            given_no,
            given_yes,
            members: arena.take_buffer(),
            vacated,
        };
        let levels = level_start(max_members + 1);
        engine.given_no.reserve(levels);
        engine.given_yes.reserve(levels);
        engine.members.reserve(2 * max_members);
        engine.vacated.reserve(2 * max_members);
        engine.given_no.push(1.0);
        engine.given_yes.push(1.0);
        engine
    }

    /// Hands the engine's buffers back to `arena`.
    pub fn recycle(self, arena: &mut JqScratch) {
        for buffer in [self.given_no, self.given_yes, self.members, self.vacated] {
            arena.recycle_buffer(buffer);
        }
    }

    fn len(&self) -> usize {
        self.members.len() / 2
    }

    /// Recomputes levels `depth + 1 ..= len` from the members at and after
    /// `depth`; the levels up to `depth` only depend on earlier members.
    fn rebuild_from(&mut self, depth: usize) {
        self.given_no.truncate(level_start(depth + 1));
        self.given_yes.truncate(level_start(depth + 1));
        for k in depth..self.len() {
            let q = self.members[2 * k + 1];
            // A vote that matches the truth has probability q.
            grow_level(&mut self.given_no, k, q, 1.0 - q);
            grow_level(&mut self.given_yes, k, 1.0 - q, q);
        }
    }

    /// Adds a worker as the last member.
    ///
    /// # Panics
    ///
    /// Panics if the jury already holds [`MAX_EXACT_JURY`] members.
    pub fn push_worker(&mut self, worker: &Worker) {
        self.insert_member(self.len(), worker);
    }

    fn insert_member(&mut self, position: usize, worker: &Worker) {
        assert!(
            self.len() < MAX_EXACT_JURY,
            "exact enumeration is limited to {MAX_EXACT_JURY} members"
        );
        self.members.splice(
            2 * position..2 * position,
            [f64::from(worker.id().raw()), worker.quality()],
        );
        self.rebuild_from(position);
    }

    /// Removes a member (the latest one with the worker's id), remembering
    /// its position for [`Self::restore_worker`].
    ///
    /// # Errors
    ///
    /// Returns [`JqError::NotAJuryMember`] for a worker the jury does not
    /// hold; the state is left untouched.
    pub fn pop_worker(&mut self, worker: &Worker) -> JqResult<()> {
        let id = f64::from(worker.id().raw());
        let position = self
            .members
            .chunks_exact(2)
            .rposition(|m| m[0] == id)
            .ok_or(JqError::NotAJuryMember { id: worker.id() })?;
        self.members.drain(2 * position..2 * position + 2);
        if let Some(old) = self.vacated.chunks_exact(2).position(|v| v[0] == id) {
            self.vacated.drain(2 * old..2 * old + 2);
        }
        self.vacated.extend([id, position as f64]);
        self.rebuild_from(position);
        Ok(())
    }

    /// Puts back a popped worker at the position it left (or at the end,
    /// if fewer members remain), so a probe that popped it leaves the
    /// member order — and with it the summation order — as it was. A
    /// worker with no recorded pop is pushed.
    ///
    /// # Panics
    ///
    /// Panics if the jury already holds [`MAX_EXACT_JURY`] members.
    pub fn restore_worker(&mut self, worker: &Worker) {
        let id = f64::from(worker.id().raw());
        let Some(slot) = self.vacated.chunks_exact(2).position(|v| v[0] == id) else {
            return self.push_worker(worker);
        };
        let position = (self.vacated[2 * slot + 1] as usize).min(self.len());
        self.vacated.drain(2 * slot..2 * slot + 2);
        self.insert_member(position, worker);
    }

    /// `JQ(J, BV, α) = Σ_V max(α Pr(V|t=0), (1−α) Pr(V|t=1))` of the
    /// current members, summed in voting order — [`exact_bv_jq`]'s value
    /// for the same members in the same order, bit for bit.
    pub fn jq(&self, prior: Prior) -> f64 {
        let alpha = prior.alpha();
        let top = level_start(self.len());
        let mut jq = 0.0;
        for (&no, &yes) in self.given_no[top..].iter().zip(&self.given_yes[top..]) {
            jq += (alpha * no).max((1.0 - alpha) * yes);
        }
        jq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_voting::{
        all_strategies, MajorityVoting, RandomBallotVoting, RandomizedMajorityVoting,
    };

    fn example_jury() -> Jury {
        Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap()
    }

    #[test]
    fn figure_2_majority_voting_jq() {
        // Example 2: JQ(J, MV, 0.5) = 79.2 %.
        let jq = exact_jq(&example_jury(), &MajorityVoting::new(), Prior::uniform()).unwrap();
        assert!((jq - 0.792).abs() < 1e-12, "got {jq}");
    }

    #[test]
    fn figure_2_bayesian_voting_jq() {
        // Example 3: JQ(J, BV, 0.5) = 90 %.
        let jq = exact_bv_jq(&example_jury(), Prior::uniform()).unwrap();
        assert!((jq - 0.9).abs() < 1e-12, "got {jq}");
        let via = exact_bv_jq_via_strategy(&example_jury(), Prior::uniform()).unwrap();
        assert!((via - 0.9).abs() < 1e-12, "got {via}");
    }

    #[test]
    fn introduction_example_mv_jq() {
        // Section 1: the jury {B, E, F} with qualities 0.7, 0.6, 0.6 has
        // JQ(MV) = 69.6 %.
        let jury = Jury::from_qualities(&[0.7, 0.6, 0.6]).unwrap();
        let jq = exact_jq(&jury, &MajorityVoting::new(), Prior::uniform()).unwrap();
        assert!((jq - 0.696).abs() < 1e-12, "got {jq}");
    }

    #[test]
    fn random_ballot_voting_is_a_coin() {
        let jq = exact_jq(
            &example_jury(),
            &RandomBallotVoting::new(),
            Prior::uniform(),
        )
        .unwrap();
        assert!((jq - 0.5).abs() < 1e-12);
    }

    #[test]
    fn randomized_mv_is_dominated_by_mv_here() {
        let prior = Prior::uniform();
        let mv = exact_jq(&example_jury(), &MajorityVoting::new(), prior).unwrap();
        let rmv = exact_jq(&example_jury(), &RandomizedMajorityVoting::new(), prior).unwrap();
        assert!(
            rmv <= mv + 1e-12,
            "RMV {rmv} should not beat MV {mv} on average"
        );
    }

    #[test]
    fn bv_is_optimal_among_the_catalogue() {
        // Corollary 1 on a concrete jury: BV's JQ is the maximum over the
        // whole strategy catalogue, for several priors.
        let jury = Jury::from_qualities(&[0.85, 0.7, 0.65, 0.55, 0.9]).unwrap();
        for alpha in [0.2, 0.5, 0.8] {
            let prior = Prior::new(alpha).unwrap();
            let bv = exact_bv_jq(&jury, prior).unwrap();
            for entry in all_strategies() {
                let other = exact_jq(&jury, entry.strategy.as_ref(), prior).unwrap();
                assert!(
                    other <= bv + 1e-12,
                    "{} achieves {other} > BV's {bv} at alpha={alpha}",
                    entry.name()
                );
            }
        }
    }

    #[test]
    fn single_worker_bv_jq_is_max_of_quality_and_prior_certainty() {
        // For one worker and a uniform prior, JQ(BV) = max(q, 1 − q).
        for q in [0.3, 0.5, 0.8, 0.95] {
            let jury = Jury::from_qualities(&[q]).unwrap();
            let jq = exact_bv_jq(&jury, Prior::uniform()).unwrap();
            assert!((jq - q.max(1.0 - q)).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_jury_jq_follows_the_prior() {
        // With no votes BV answers the prior's mode, so JQ = max(α, 1 − α).
        let jury = Jury::empty();
        for alpha in [0.0, 0.3, 0.5, 0.9] {
            let prior = Prior::new(alpha).unwrap();
            let jq = exact_bv_jq(&jury, prior).unwrap();
            assert!((jq - alpha.max(1.0 - alpha)).abs() < 1e-12);
        }
    }

    #[test]
    fn jq_is_within_unit_interval() {
        let jury = Jury::from_qualities(&[0.55, 0.95, 0.7, 0.6]).unwrap();
        for entry in all_strategies() {
            for alpha in [0.0, 0.25, 0.5, 1.0] {
                let jq =
                    exact_jq(&jury, entry.strategy.as_ref(), Prior::new(alpha).unwrap()).unwrap();
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&jq),
                    "{} gave {jq}",
                    entry.name()
                );
            }
        }
    }

    #[test]
    fn prior_shifts_bv_jq() {
        // A more confident prior can only help BV.
        let jury = Jury::from_qualities(&[0.6, 0.6]).unwrap();
        let uniform = exact_bv_jq(&jury, Prior::uniform()).unwrap();
        let confident = exact_bv_jq(&jury, Prior::new(0.9).unwrap()).unwrap();
        assert!(confident >= uniform - 1e-12);
    }

    #[test]
    fn oversized_jury_is_a_typed_error_not_a_panic() {
        let jury = Jury::from_qualities(&[0.6; 21]).unwrap();
        let err = exact_bv_jq(&jury, Prior::uniform()).unwrap_err();
        assert_eq!(
            err,
            JqError::JuryTooLarge {
                size: 21,
                max: MAX_EXACT_JURY
            }
        );
        let err = exact_jq(&jury, &MajorityVoting::new(), Prior::uniform()).unwrap_err();
        assert!(matches!(err, JqError::JuryTooLarge { .. }));
        // At the boundary the enumeration still runs.
        let boundary = Jury::from_qualities(&[0.6; MAX_EXACT_JURY]).unwrap();
        assert!(exact_bv_jq(&boundary, Prior::uniform()).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use jury_model::WorkerId;
    use proptest::prelude::*;

    /// One step of a session walk: `0` pushes an outsider, `1` pops a
    /// member (at any depth), `2` restores a popped outsider; the index
    /// picks which one.
    fn ops() -> impl Strategy<Value = Vec<(u8, usize)>> {
        proptest::collection::vec((0u8..3, 0usize..64), 1..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every state of a random push/pop/restore walk scores exactly
        /// what [`exact_bv_jq`] computes over the members in order, where
        /// the order follows the batch-session rules: pops keep the
        /// survivors' order, a restore returns the worker to its slot.
        #[test]
        fn exact_engine_matches_scratch_enumeration_bit_for_bit(
            qualities in proptest::collection::vec(0.3f64..0.97, 1..=14),
            duplicate in proptest::bool::ANY,
            alpha in 0.01f64..0.99,
            steps in ops(),
        ) {
            let mut qualities = qualities;
            if duplicate && qualities.len() > 1 {
                // Equal qualities under different ids.
                qualities[1] = qualities[0];
            }
            let pool: Vec<Worker> = qualities
                .iter()
                .enumerate()
                .map(|(i, &q)| Worker::free(WorkerId(i as u32 + 7), q).unwrap())
                .collect();
            let prior = Prior::new(alpha).unwrap();
            let mut engine = ExactBvJq::new_in(pool.len() / 2, &mut JqScratch::new());
            prop_assert_eq!(engine.jq(prior).to_bits(), alpha.max(1.0 - alpha).to_bits());

            let mut members: Vec<Worker> = Vec::new();
            let mut vacated: Vec<(WorkerId, usize)> = Vec::new();
            for (op, pick) in steps {
                let outsiders: Vec<&Worker> = pool
                    .iter()
                    .filter(|w| !members.iter().any(|m| m.id() == w.id()))
                    .collect();
                match op {
                    0 if !outsiders.is_empty() => {
                        let worker = outsiders[pick % outsiders.len()].clone();
                        engine.push_worker(&worker);
                        members.push(worker);
                    }
                    1 if !members.is_empty() => {
                        let position = pick % members.len();
                        let worker = members.remove(position);
                        engine.pop_worker(&worker).unwrap();
                        vacated.retain(|&(id, _)| id != worker.id());
                        vacated.push((worker.id(), position));
                    }
                    2 if !outsiders.is_empty() => {
                        let worker = outsiders[pick % outsiders.len()].clone();
                        engine.restore_worker(&worker);
                        match vacated.iter().position(|&(id, _)| id == worker.id()) {
                            Some(slot) => {
                                let (_, position) = vacated.swap_remove(slot);
                                members.insert(position.min(members.len()), worker);
                            }
                            None => members.push(worker),
                        }
                    }
                    _ => continue,
                }
                let scratch = exact_bv_jq(&Jury::new(members.clone()), prior).unwrap();
                prop_assert_eq!(engine.jq(prior).to_bits(), scratch.to_bits(),
                    "{} members", members.len());
                prop_assert_eq!(engine.len(), members.len());
            }
        }
    }
}
