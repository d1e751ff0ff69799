//! The shared, memoizing JQ-evaluation cache and the cache-backed
//! objectives.
//!
//! JSP searches spend essentially all their time evaluating `JQ(J, S, α)`,
//! and across a batch of requests over overlapping pools the same
//! `(jury-quality multiset, prior, strategy)` evaluation recurs constantly —
//! every budget point of a budget–quality sweep re-examines mostly the same
//! juries. The cache keys evaluations by the quantized
//! [`jury_signature`] (sound: JQ depends only on the quality multiset and
//! the prior; see `jury_jq::signature`) plus the strategy.
//!
//! The store is one map behind one `parking_lot` read/write lock with a
//! segmented-LRU budget over the whole capacity; `JqCache::stats` is its
//! one counter view.
//!
//! Multi-class (confusion-matrix) evaluations live in the **same store**,
//! keyed by [`multiclass_signature`] — a quantized matrix digest whose key
//! space is disjoint from the binary signatures by construction — so one
//! segmented-LRU budget covers a mixed binary/multi-class workload and hot
//! entries of either kind compete fairly for residency. [`CacheStats`]
//! reports hits and misses per kind on top of the combined totals.
//!
//! The cache is the *outer* memoization layer; underneath it the objectives
//! also hand the solvers incremental push/pop/swap sessions
//! (`jury_jq::IncrementalJq` / `IncrementalMvJq` /
//! `IncrementalMultiClassJq`), so the inner search loop of annealing and
//! marginal greedy never pays a from-scratch JQ computation either — batch
//! memoization outside, incremental updates inside. BV pools within the
//! exact cutoff get an exact session (`jury_jq::ExactBvJq`), which scores
//! a probe for less than a store lookup costs; pools without an engine get
//! a [`BatchSession`] over the cached objective itself, so their probes
//! are served by the store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use jury_jq::{jury_signature, multiclass_signature, JqEngine, JurySignature, SharedJqScratch};
use jury_model::{CategoricalPrior, Jury, MatrixPool, MatrixWorker, ModelResult, Prior};
use jury_selection::{
    bv_exact_scoring_session_in, bv_search_session_in, mv_incremental_session_in, BatchSession,
    IncrementalSession, JspInstance, JuryObjective, MultiClassBvObjective,
};

use crate::config::ServiceConfig;
use crate::request::Strategy;

/// Hit/miss counters of one key kind within the shared store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheKindStats {
    /// Lifetime lookups of this kind served from the cache.
    pub hits: u64,
    /// Lifetime lookups of this kind that had to compute the value.
    pub misses: u64,
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently stored (all kinds).
    pub entries: usize,
    /// Lifetime lookups served from the cache (all kinds).
    pub hits: u64,
    /// Lifetime lookups that had to compute the value (all kinds).
    pub misses: u64,
    /// Lifetime entries dropped by the segmented-LRU eviction.
    pub evictions: u64,
    /// Counters of the binary-accuracy entries.
    pub binary: CacheKindStats,
    /// Counters of the multi-class (confusion-matrix) entries.
    pub multiclass: CacheKindStats,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    /// A binary-accuracy evaluation. The engine fingerprint (bucket
    /// settings, exact cutoff) is part of the key: JQ values computed under
    /// different configurations are different numbers, and per-request
    /// config overrides share this cache.
    Binary {
        strategy: Strategy,
        bucket: jury_jq::BucketJqConfig,
        exact_cutoff: usize,
        signature: JurySignature,
    },
    /// A multi-class BV evaluation. The scratch bucket resolution and the
    /// exact-enumeration voting cutoff are the engine fingerprint here (the
    /// incremental config only steers searches, never reported values).
    MultiClass {
        num_buckets: usize,
        exact_votings: u64,
        signature: JurySignature,
    },
}

/// One memoized evaluation: the value plus a last-used stamp, bumped on
/// every hit (atomically, so hits only ever take the read lock).
#[derive(Debug)]
struct CacheEntry {
    value: f64,
    last_used: AtomicU64,
}

/// The shared evaluation cache. One per [`crate::JuryService`]; it outlives
/// individual requests, so repeated and batched calls keep re-using it.
///
/// One map behind one `parking_lot` lock, with one set of per-kind
/// hit/miss counters and one eviction counter. A hit only takes the read
/// lock (its last-used stamp is bumped atomically), so concurrent batch
/// lanes share it; only a miss's insert takes the write lock.
///
/// Overflow is handled by **segmented LRU eviction**: when an insert finds
/// the store full, the stalest half of its entries (by last-used stamp) is
/// dropped in one sweep. Hot entries — the ones batches and sweeps keep
/// re-reading — survive, while the half-at-a-time segmentation keeps the
/// amortized bookkeeping cost per insert `O(1)` (a full LRU list would pay
/// pointer churn on every hit). Binary and multi-class entries share the
/// capacity and the eviction sweep.
#[derive(Debug)]
pub(crate) struct JqCache {
    capacity: usize,
    map: RwLock<HashMap<CacheKey, CacheEntry>>,
    binary_hits: AtomicU64,
    binary_misses: AtomicU64,
    multiclass_hits: AtomicU64,
    multiclass_misses: AtomicU64,
    evictions: AtomicU64,
    /// Monotonic logical clock handing out last-used stamps.
    tick: AtomicU64,
}

impl JqCache {
    /// Creates a store of `capacity` entries; `capacity == 0` disables
    /// caching entirely.
    pub(crate) fn new(capacity: usize) -> Self {
        JqCache {
            capacity,
            map: RwLock::new(HashMap::new()),
            binary_hits: AtomicU64::new(0),
            binary_misses: AtomicU64::new(0),
            multiclass_hits: AtomicU64::new(0),
            multiclass_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tick: AtomicU64::new(0),
        }
    }

    /// The hit/miss counters of the key's kind (its `CacheKey` variant).
    fn counters(&self, key: &CacheKey) -> (&AtomicU64, &AtomicU64) {
        match key {
            CacheKey::Binary { .. } => (&self.binary_hits, &self.binary_misses),
            CacheKey::MultiClass { .. } => (&self.multiclass_hits, &self.multiclass_misses),
        }
    }

    /// The memoized evaluation behind both cached objectives: a hit is
    /// counted on `local_hits` and returned; a miss runs `compute` and
    /// stores its value. Concurrent threads may compute the same value
    /// twice; the insert is idempotent, so that only costs time, never
    /// correctness.
    fn memoize(&self, key: CacheKey, local_hits: &AtomicU64, compute: impl FnOnce() -> f64) -> f64 {
        if let Some(value) = self.get(&key) {
            local_hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        let value = compute();
        self.insert(key, value);
        value
    }

    fn get(&self, key: &CacheKey) -> Option<f64> {
        if self.capacity == 0 {
            return None;
        }
        let (hits, misses) = self.counters(key);
        let map = self.map.read();
        match map.get(key) {
            Some(entry) => {
                entry
                    .last_used
                    .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value)
            }
            None => {
                misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: CacheKey, value: f64) {
        if self.capacity == 0 {
            return;
        }
        let mut map = self.map.write();
        if map.len() >= self.capacity && !map.contains_key(&key) {
            // Evict the stalest segment: everything at or below the median
            // last-used stamp. Stamps are unique (every hit and insert draws
            // a fresh tick), so this removes exactly `len − keep` entries.
            let keep = self.capacity / 2;
            let mut stamps: Vec<u64> = map
                .values()
                .map(|entry| entry.last_used.load(Ordering::Relaxed))
                .collect();
            let evict = stamps.len() - keep;
            let (_, cutoff, _) = stamps.select_nth_unstable(evict - 1);
            let cutoff = *cutoff;
            map.retain(|_, entry| entry.last_used.load(Ordering::Relaxed) > cutoff);
            self.evictions.fetch_add(evict as u64, Ordering::Relaxed);
        }
        map.insert(
            key,
            CacheEntry {
                value,
                last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
            },
        );
    }

    /// A snapshot of the store's counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let binary = CacheKindStats {
            hits: self.binary_hits.load(Ordering::Relaxed),
            misses: self.binary_misses.load(Ordering::Relaxed),
        };
        let multiclass = CacheKindStats {
            hits: self.multiclass_hits.load(Ordering::Relaxed),
            misses: self.multiclass_misses.load(Ordering::Relaxed),
        };
        CacheStats {
            entries: self.map.read().len(),
            hits: binary.hits + multiclass.hits,
            misses: binary.misses + multiclass.misses,
            evictions: self.evictions.load(Ordering::Relaxed),
            binary,
            multiclass,
        }
    }
}

/// The service's unified binary objective: one implementation of
/// [`JuryObjective`] covering both strategies, with every evaluation routed
/// through the shared cache. The solvers are generic over the objective,
/// so a strategy is a field, not a type.
pub(crate) struct CachedObjective<'a> {
    engine: JqEngine,
    strategy: Strategy,
    cache: &'a JqCache,
    requests: AtomicU64,
    local_hits: AtomicU64,
    scratch: SharedJqScratch,
}

impl<'a> CachedObjective<'a> {
    pub(crate) fn new(engine: JqEngine, strategy: Strategy, cache: &'a JqCache) -> Self {
        CachedObjective {
            engine,
            strategy,
            cache,
            requests: AtomicU64::new(0),
            local_hits: AtomicU64::new(0),
            scratch: SharedJqScratch::new(),
        }
    }

    /// Cache hits observed by this objective instance (i.e. this solve).
    pub(crate) fn local_hits(&self) -> u64 {
        self.local_hits.load(Ordering::Relaxed)
    }

    fn compute(&self, jury: &Jury, prior: Prior) -> f64 {
        match self.strategy {
            Strategy::Bv => self.engine.bv_jq(jury, prior).value,
            Strategy::Mv => self.engine.mv_jq(jury, prior).value,
        }
    }
}

impl JuryObjective for CachedObjective<'_> {
    fn name(&self) -> &'static str {
        match self.strategy {
            Strategy::Bv => "JQ(BV)",
            Strategy::Mv => "JQ(MV)",
        }
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = CacheKey::Binary {
            strategy: self.strategy,
            bucket: *self.engine.bucket_estimator().config(),
            exact_cutoff: self.engine.exact_cutoff(),
            signature: jury_signature(jury, prior),
        };
        self.cache
            .memoize(key, &self.local_hits, || self.compute(jury, prior))
    }

    fn evaluations(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Box<dyn IncrementalSession + 'a> {
        self.incremental_session_in(instance, &self.scratch)
    }

    fn scoring_session<'a>(&'a self, instance: &JspInstance) -> Box<dyn IncrementalSession + 'a> {
        // An exact BV session, where one fits, scores without signing or
        // storing a jury; everything else is scored through the store.
        let exact = match self.strategy {
            Strategy::Bv => {
                bv_exact_scoring_session_in(&self.engine, instance, &self.requests, &self.scratch)
            }
            Strategy::Mv => None,
        };
        exact.unwrap_or_else(|| Box::new(BatchSession::new(self, instance.prior())))
    }

    fn incremental_session_in<'a>(
        &'a self,
        instance: &JspInstance,
        arena: &'a SharedJqScratch,
    ) -> Box<dyn IncrementalSession + 'a> {
        // The engine buffers come from the given arena: this objective's
        // own scratch for plain sessions, or a lane's arena — which is what
        // lets each portfolio lane reopen sessions without contending on
        // the shared scratch (`jury_selection::ArenaObjective`).
        match self.strategy {
            Strategy::Bv => bv_search_session_in(&self.engine, instance, &self.requests, arena),
            Strategy::Mv => mv_incremental_session_in(instance.prior(), &self.requests, arena),
        }
    }
}

/// The cache-backed multi-class objective: wraps
/// [`jury_selection::MultiClassBvObjective`] (which owns the confusion-
/// matrix pool, the categorical prior, and the incremental sessions) and
/// routes every batch evaluation through the shared store under a
/// [`multiclass_signature`] key. Shadow juries are resolved back to their
/// matrices by id before signing, so the key describes exactly what the
/// inner objective scores.
pub(crate) struct CachedMultiClassObjective<'a> {
    /// Owns the (only copies of the) pool and prior, exposed via its
    /// `pool()`/`prior()` accessors.
    inner: MultiClassBvObjective,
    /// Pool position by worker id, built once so the per-evaluation member
    /// resolution is `O(jury)` map hits instead of `O(jury · pool)` scans.
    index: HashMap<jury_model::WorkerId, usize>,
    cache: &'a JqCache,
    local_hits: AtomicU64,
}

impl<'a> CachedMultiClassObjective<'a> {
    /// Builds the objective for a pool/prior pair under the given service
    /// configuration.
    ///
    /// # Errors
    ///
    /// Fails when the prior's label count does not match the pool's.
    pub(crate) fn new(
        pool: &MatrixPool,
        prior: &CategoricalPrior,
        config: &ServiceConfig,
        cache: &'a JqCache,
    ) -> ModelResult<Self> {
        let inner = MultiClassBvObjective::new(pool.clone(), prior.clone())?
            .with_bucket_config(config.multiclass_bucket)
            .with_incremental_config(config.multiclass_incremental)
            .with_session_pool_cutoff(config.multiclass_session_cutoff);
        let index = pool
            .iter()
            .enumerate()
            .map(|(position, worker)| (worker.id(), position))
            .collect();
        Ok(CachedMultiClassObjective {
            inner,
            index,
            cache,
            local_hits: AtomicU64::new(0),
        })
    }

    /// Cache hits observed by this objective instance (i.e. this solve).
    pub(crate) fn local_hits(&self) -> u64 {
        self.local_hits.load(Ordering::Relaxed)
    }

    /// Whether a pool of `candidates` members requires the incremental engine
    /// under this objective's configuration (see
    /// [`MultiClassBvObjective::session_required`]).
    pub(crate) fn session_required(&self, candidates: usize) -> bool {
        self.inner.session_required(candidates)
    }

    /// The jury members the inner objective will score for this shadow
    /// jury: pool matrices looked up by id (borrowed, no matrix clones),
    /// unknown ids dropped — exactly the inner objective's resolution
    /// policy, shared so response members can never disagree with what was
    /// scored.
    pub(crate) fn members(&self, jury: &Jury) -> Vec<&MatrixWorker> {
        let workers = self.inner.pool().workers();
        jury.ids()
            .into_iter()
            .filter_map(|id| self.index.get(&id).map(|&pos| &workers[pos]))
            .collect()
    }
}

impl JuryObjective for CachedMultiClassObjective<'_> {
    fn name(&self) -> &'static str {
        "JQ(BV, multi-class, cached)"
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        let key = CacheKey::MultiClass {
            num_buckets: self.inner.bucket_config().num_buckets,
            exact_votings: self.inner.exact_votings(),
            signature: multiclass_signature(self.members(jury), self.inner.prior()),
        };
        self.cache
            .memoize(key, &self.local_hits, || self.inner.evaluate(jury, prior))
    }

    fn evaluations(&self) -> u64 {
        // The inner objective counts batch computations and session probes;
        // cache hits short-circuit before reaching it, so they are added
        // here — every request for a value is counted exactly once.
        self.inner.evaluations() + self.local_hits.load(Ordering::Relaxed)
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Box<dyn IncrementalSession + 'a> {
        // Below the engine crossover every probe is a batch evaluation, so
        // it goes through `self` and the shared store.
        if !self.session_required(instance.num_candidates()) {
            return Box::new(BatchSession::new(self, instance.prior()));
        }
        self.inner.incremental_session(instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_jq::{exact_bv_jq, exact_multiclass_bv_jq};

    fn engine() -> JqEngine {
        crate::ServiceConfig::default().jq_engine()
    }

    #[test]
    fn cached_values_match_direct_evaluation() {
        let cache = JqCache::new(1024);
        let objective = CachedObjective::new(engine(), Strategy::Bv, &cache);
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let first = objective.evaluate(&jury, Prior::uniform());
        let second = objective.evaluate(&jury, Prior::uniform());
        assert_eq!(first, second);
        assert!((first - exact_bv_jq(&jury, Prior::uniform()).unwrap()).abs() < 1e-12);
        assert_eq!(objective.evaluations(), 2);
        assert_eq!(objective.local_hits(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.binary.hits, stats.binary.misses), (1, 1));
        assert_eq!(stats.multiclass, CacheKindStats::default());
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strategies_do_not_collide() {
        let cache = JqCache::new(1024);
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let bv = CachedObjective::new(engine(), Strategy::Bv, &cache);
        let mv = CachedObjective::new(engine(), Strategy::Mv, &cache);
        let bv_value = bv.evaluate(&jury, Prior::uniform());
        let mv_value = mv.evaluate(&jury, Prior::uniform());
        assert!((bv_value - 0.9).abs() < 1e-12);
        assert!((mv_value - 0.792).abs() < 1e-12);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn engine_configurations_do_not_collide() {
        use jury_jq::{BucketCount, BucketJqConfig, JqEngine};
        let cache = JqCache::new(1024);
        // Same jury and prior, but one objective enumerates exactly while the
        // other is forced onto a deliberately coarse bucket approximation:
        // the values differ, so the cache must keep them apart.
        let exact_engine = JqEngine::new(BucketJqConfig::default()).with_exact_cutoff(12);
        let coarse_engine = JqEngine::approximate_only(
            BucketJqConfig::default().with_buckets(BucketCount::Fixed(3)),
        );
        let exact = CachedObjective::new(exact_engine, Strategy::Bv, &cache);
        let coarse = CachedObjective::new(coarse_engine, Strategy::Bv, &cache);
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let exact_value = exact.evaluate(&jury, Prior::uniform());
        let coarse_value = coarse.evaluate(&jury, Prior::uniform());
        assert_eq!(
            cache.stats().entries,
            2,
            "configs must get separate entries"
        );
        assert!((exact_value - 0.9).abs() < 1e-12);
        // Re-evaluating under each engine returns its own cached value.
        assert_eq!(exact.evaluate(&jury, Prior::uniform()), exact_value);
        assert_eq!(coarse.evaluate(&jury, Prior::uniform()), coarse_value);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = JqCache::new(0);
        let objective = CachedObjective::new(engine(), Strategy::Bv, &cache);
        let jury = Jury::from_qualities(&[0.8, 0.7]).unwrap();
        objective.evaluate(&jury, Prior::uniform());
        objective.evaluate(&jury, Prior::uniform());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (0, 0, 0));
        assert_eq!(objective.local_hits(), 0);
    }

    #[test]
    fn capacity_overflow_never_grows_the_cache() {
        let cache = JqCache::new(2);
        let objective = CachedObjective::new(engine(), Strategy::Bv, &cache);
        for q in [0.6, 0.65, 0.7, 0.75, 0.8] {
            let jury = Jury::from_qualities(&[q]).unwrap();
            objective.evaluate(&jury, Prior::uniform());
        }
        assert!(cache.stats().entries <= 2);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn eviction_drops_the_stalest_entries_first() {
        let cache = JqCache::new(4);
        let objective = CachedObjective::new(engine(), Strategy::Bv, &cache);
        let juries: Vec<Jury> = [0.6, 0.65, 0.7, 0.75, 0.8]
            .iter()
            .map(|&q| Jury::from_qualities(&[q]).unwrap())
            .collect();
        // Fill to capacity, then touch the oldest entry so it becomes the
        // most recently used.
        for jury in &juries[..4] {
            objective.evaluate(jury, Prior::uniform());
        }
        objective.evaluate(&juries[0], Prior::uniform());
        // Overflow: the stalest half (entries 1 and 2) must go; the touched
        // entry 0 and the fresher entry 3 must survive.
        objective.evaluate(&juries[4], Prior::uniform());
        assert_eq!(cache.stats().evictions, 2);

        let hits_before = cache.stats().hits;
        objective.evaluate(&juries[0], Prior::uniform());
        objective.evaluate(&juries[3], Prior::uniform());
        objective.evaluate(&juries[4], Prior::uniform());
        assert_eq!(
            cache.stats().hits,
            hits_before + 3,
            "recently used entries must survive the eviction"
        );

        let misses_before = cache.stats().misses;
        objective.evaluate(&juries[1], Prior::uniform());
        assert_eq!(
            cache.stats().misses,
            misses_before + 1,
            "the stalest entry must have been evicted"
        );
    }

    fn multiclass_fixture() -> (MatrixPool, CategoricalPrior) {
        let pool =
            MatrixPool::from_qualities_and_costs(&[0.9, 0.7, 0.6], &[1.0, 1.0, 1.0], 3).unwrap();
        let prior = CategoricalPrior::uniform(3).unwrap();
        (pool, prior)
    }

    #[test]
    fn multiclass_cached_values_match_direct_evaluation() {
        let cache = JqCache::new(1024);
        let (pool, prior) = multiclass_fixture();
        let objective =
            CachedMultiClassObjective::new(&pool, &prior, &ServiceConfig::default(), &cache)
                .unwrap();
        let shadow = pool.shadow_pool();
        let jury = Jury::new(shadow.workers()[..2].to_vec());
        let first = objective.evaluate(&jury, Prior::uniform());
        let second = objective.evaluate(&jury, Prior::uniform());
        assert_eq!(first, second);
        let direct = exact_multiclass_bv_jq(&pool.jury(&jury.ids()).unwrap(), &prior).unwrap();
        assert!((first - direct).abs() < 1e-12);
        assert_eq!(objective.local_hits(), 1);
        assert_eq!(objective.evaluations(), 2);
        let stats = cache.stats();
        assert_eq!((stats.multiclass.hits, stats.multiclass.misses), (1, 1));
        assert_eq!(stats.binary, CacheKindStats::default());
    }

    #[test]
    fn binary_and_multiclass_entries_share_the_store_without_colliding() {
        let cache = JqCache::new(1024);
        let (pool, prior) = multiclass_fixture();
        let multi =
            CachedMultiClassObjective::new(&pool, &prior, &ServiceConfig::default(), &cache)
                .unwrap();
        let binary = CachedObjective::new(engine(), Strategy::Bv, &cache);
        let shadow = pool.shadow_pool();
        let jury = Jury::new(shadow.workers().to_vec());
        let multi_value = multi.evaluate(&jury, Prior::uniform());
        let binary_value = binary.evaluate(&jury, Prior::uniform());
        // A 3-class matrix jury and its mean-accuracy shadow are different
        // statistical objects — both must coexist in the one store.
        assert_ne!(multi_value, binary_value);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.binary.misses, 1);
        assert_eq!(stats.multiclass.misses, 1);
        // Re-reads hit their own kind only.
        multi.evaluate(&jury, Prior::uniform());
        binary.evaluate(&jury, Prior::uniform());
        let stats = cache.stats();
        assert_eq!(stats.binary.hits, 1);
        assert_eq!(stats.multiclass.hits, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn multiclass_entries_participate_in_eviction() {
        let cache = JqCache::new(2);
        let (pool, prior) = multiclass_fixture();
        let objective =
            CachedMultiClassObjective::new(&pool, &prior, &ServiceConfig::default(), &cache)
                .unwrap();
        let shadow = pool.shadow_pool();
        for k in 1..=3 {
            let jury = Jury::new(shadow.workers()[..k].to_vec());
            objective.evaluate(&jury, Prior::uniform());
        }
        assert!(cache.stats().entries <= 2);
        assert!(cache.stats().evictions > 0);
    }

    /// A binary cache key for a single-member jury of quality `q`. The
    /// signature quantizes at `2⁻⁴⁰`, so qualities spaced `≥ 1e-3` apart
    /// always produce distinct keys.
    fn binary_key(q: f64) -> CacheKey {
        CacheKey::Binary {
            strategy: Strategy::Bv,
            bucket: jury_jq::BucketJqConfig::default(),
            exact_cutoff: 14,
            signature: jury_signature(&Jury::from_qualities(&[q]).unwrap(), Prior::uniform()),
        }
    }

    #[test]
    fn per_kind_counters_stay_exact_under_concurrent_mixed_traffic() {
        // N threads × M requests of both kinds, disjoint key sets per
        // thread, capacity ample: every counter is exactly predictable.
        const THREADS: usize = 8;
        const KEYS_PER_THREAD: usize = 25;
        let cache = JqCache::new(1 << 16);
        let (pool, cat_prior) = multiclass_fixture();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                let pool = &pool;
                let cat_prior = &cat_prior;
                scope.spawn(move || {
                    for i in 0..KEYS_PER_THREAD {
                        let q = 0.5 + 0.002 * (t * KEYS_PER_THREAD + i) as f64;
                        let key = binary_key(q);
                        // miss, insert, hit — exactly once each.
                        assert_eq!(cache.get(&key), None);
                        cache.insert(key.clone(), q);
                        assert_eq!(cache.get(&key), Some(q));
                        // The multi-class key space is disjoint by
                        // construction; give it the same traffic.
                        let members: Vec<&MatrixWorker> =
                            pool.workers().iter().take(1 + (i % 3)).collect();
                        let mc_key = CacheKey::MultiClass {
                            num_buckets: 64 + t * KEYS_PER_THREAD + i,
                            exact_votings: 1 << 12,
                            signature: multiclass_signature(members, cat_prior),
                        };
                        assert_eq!(cache.get(&mc_key), None);
                        cache.insert(mc_key.clone(), q + 1.0);
                        assert_eq!(cache.get(&mc_key), Some(q + 1.0));
                    }
                });
            }
        });

        let per_kind = (THREADS * KEYS_PER_THREAD) as u64;
        let exact = CacheKindStats {
            hits: per_kind,
            misses: per_kind,
        };
        assert_eq!(
            cache.stats(),
            CacheStats {
                entries: 2 * per_kind as usize,
                hits: 2 * per_kind,
                misses: 2 * per_kind,
                evictions: 0,
                binary: exact,
                multiclass: exact,
            }
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    // The glob above also pulls in proptest's `Strategy` trait; the explicit
    // import keeps the request enum the one the keys are built from.
    use crate::request::Strategy;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(32)
        ))]

        /// Every lookup is counted exactly once: storing then reading any
        /// key set keeps `hits + misses` equal to the lookups issued, and
        /// the per-kind counters sum to the totals.
        #[test]
        fn hits_plus_misses_equal_the_lookups_issued(
            qualities in proptest::collection::vec(0.5f64..0.95, 1..20),
        ) {
            let cache = JqCache::new(1 << 12);
            for (i, &q) in qualities.iter().enumerate() {
                let jury = Jury::from_qualities(&[q]).unwrap();
                let key = CacheKey::Binary {
                    strategy: Strategy::Bv,
                    bucket: jury_jq::BucketJqConfig::default(),
                    exact_cutoff: 14,
                    signature: jury_signature(&jury, Prior::uniform()),
                };
                if cache.get(&key).is_none() {
                    cache.insert(key, i as f64);
                }
            }
            let total = cache.stats();
            prop_assert_eq!(total.hits + total.misses, qualities.len() as u64);
            prop_assert_eq!(total.hits, total.binary.hits + total.multiclass.hits);
            prop_assert_eq!(total.misses, total.binary.misses + total.multiclass.misses);
            prop_assert_eq!(total.entries as u64, total.misses);
        }
    }
}
