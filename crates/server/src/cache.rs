//! Content-addressed, LRU-bounded cache of derived artifacts.
//!
//! Building a job's environment is dominated by work that is a pure
//! function of its *topology* — the interaction graph's CSR rows and their
//! colouring (for the parallel-revision schedule); the payoffs play no
//! part. A multi-tenant server sees the same handful of topologies over
//! and over, so these are computed once per topology hash
//! ([`JobSpec::topology_key`](crate::JobSpec::topology_key)), shared as
//! `Arc`s across concurrent jobs, whatever game they play, and evicted
//! least-recently-used once the cache is full. Jobs hold the same `Arc`s:
//! their games and schedules point at the cached CSR and colouring instead
//! of copying them. β-ladders get the same treatment in a second, smaller
//! cache.

use logit_graphs::{Coloring, CsrGraph};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Hit/miss/eviction counters of one cache, snapshotted for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

struct LruInner<K, V> {
    /// value + last-touch tick per key.
    map: HashMap<K, (V, u64)>,
    tick: u64,
    stats: CacheStats,
}

/// A small mutex-guarded LRU map. Throughput is bounded by job admission,
/// not by this lock: the expensive builder runs *outside* the critical
/// section, so concurrent admissions never serialise on artifact
/// construction. Nor do they share it: every admission that misses builds
/// the artifact itself, so `k` concurrent misses of one key build it `k`
/// times, and all but the first value inserted are dropped.
pub struct LruCache<K: Eq + Hash + Clone, V: Clone> {
    inner: Mutex<LruInner<K, V>>,
    capacity: usize,
    /// Live registry counters mirroring [`CacheStats`]
    /// (`server.cache.{hits,misses,evictions}{cache="<name>"}`), present
    /// only on caches built with [`named`](Self::named). The mutex-held
    /// `stats` stay the ground truth — they exist in every build; these
    /// feed the STATS surface.
    telemetry: Option<CacheTelemetry>,
}

/// The registered per-cache instruments (zero-sized without the
/// `telemetry` feature).
struct CacheTelemetry {
    hits: logit_telemetry::Counter,
    misses: logit_telemetry::Counter,
    evictions: logit_telemetry::Counter,
}

impl CacheTelemetry {
    fn register(name: &str) -> Self {
        let registry = logit_telemetry::global();
        CacheTelemetry {
            hits: registry.counter_labelled("server.cache.hits", ("cache", name)),
            misses: registry.counter_labelled("server.cache.misses", ("cache", name)),
            evictions: registry.counter_labelled("server.cache.evictions", ("cache", name)),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU cache needs room for one entry");
        Self {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            capacity,
            telemetry: None,
        }
    }

    /// [`new`](Self::new), additionally mirroring the hit/miss/eviction
    /// counters into the telemetry registry under `{cache="<name>"}`.
    pub fn named(capacity: usize, name: &str) -> Self {
        Self {
            telemetry: Some(CacheTelemetry::register(name)),
            ..Self::new(capacity)
        }
    }

    /// Looks up `key`, building the value with `build` on a miss. Returns
    /// the value and whether it was a hit. `build` runs without the lock
    /// held; on a racing double-build the first inserted value wins so
    /// every holder shares one `Arc`.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        {
            let mut inner = self.inner.lock().unwrap();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((value, touched)) = inner.map.get_mut(&key) {
                *touched = tick;
                let value = value.clone();
                inner.stats.hits += 1;
                if let Some(t) = &self.telemetry {
                    t.hits.inc();
                }
                return Ok((value, true));
            }
            inner.stats.misses += 1;
            if let Some(t) = &self.telemetry {
                t.misses.inc();
            }
        }
        let built = build()?;
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((value, touched)) = inner.map.get_mut(&key) {
            // Another tenant built it while we did: share theirs.
            *touched = tick;
            return Ok((value.clone(), false));
        }
        if inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                inner.stats.evictions += 1;
                if let Some(t) = &self.telemetry {
                    t.evictions.inc();
                }
            }
        }
        inner.map.insert(key, (built.clone(), tick));
        Ok((built, false))
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats
    }
}

/// Everything derived from one topology that jobs can share: the
/// interaction graph and its colouring, each behind its own `Arc` so a
/// job's game and schedule share them without a copy.
#[derive(Debug)]
pub struct GameArtifacts {
    /// The interaction graph the topology describes, frozen to CSR — the
    /// only adjacency the job's game holds.
    pub csr: Arc<CsrGraph>,
    /// Colouring of the graph — the `schedule=coloured` revision classes.
    pub coloring: Arc<Coloring>,
}

/// The server's artifact store: game artifacts keyed by the topology's
/// hash, β-ladders keyed by the hash of their spec.
pub struct ArtifactCache {
    /// Topology artifacts ([`GameArtifacts`]).
    pub games: LruCache<u64, Arc<GameArtifacts>>,
    /// Realised β-ladders (`betas` vectors) of tempered jobs.
    pub ladders: LruCache<u64, Arc<Vec<f64>>>,
}

impl ArtifactCache {
    /// Creates the store with `games_capacity` topology entries and a
    /// proportionally small ladder cache.
    pub fn new(games_capacity: usize) -> Self {
        Self {
            games: LruCache::named(games_capacity, "games"),
            ladders: LruCache::named(games_capacity.max(4), "ladders"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    #[test]
    fn lru_shares_hits_and_evicts_the_coldest() {
        let cache: LruCache<u64, Arc<u64>> = LruCache::new(2);
        let build = |v: u64| move || Ok::<_, Infallible>(Arc::new(v));

        let (a1, hit) = cache.get_or_try_insert_with(1, build(10)).unwrap();
        assert!(!hit);
        let (a2, hit) = cache.get_or_try_insert_with(1, build(99)).unwrap();
        assert!(hit, "second lookup of the same key is a hit");
        assert!(Arc::ptr_eq(&a1, &a2), "hits share one Arc");
        assert_eq!(*a2, 10, "the first build wins");

        cache.get_or_try_insert_with(2, build(20)).unwrap();
        // Touch 1 so 2 is now the coldest, then insert 3 → 2 evicted.
        cache.get_or_try_insert_with(1, build(0)).unwrap();
        cache.get_or_try_insert_with(3, build(30)).unwrap();
        assert_eq!(cache.len(), 2);
        let (_, hit) = cache.get_or_try_insert_with(1, build(0)).unwrap();
        assert!(hit, "recently touched entry survived");
        let (v, hit) = cache.get_or_try_insert_with(2, build(21)).unwrap();
        assert!(!hit, "coldest entry was evicted");
        assert_eq!(*v, 21);

        let stats = cache.stats();
        assert_eq!(stats.evictions, 2, "3 evicted 2, then 2 evicted a victim");
        assert!(stats.hits >= 3 && stats.misses >= 3);
    }

    #[test]
    fn build_errors_do_not_poison_the_cache() {
        let cache: LruCache<u64, Arc<u64>> = LruCache::new(2);
        let err: Result<(Arc<u64>, bool), &str> = cache.get_or_try_insert_with(7, || Err("nope"));
        assert_eq!(err.unwrap_err(), "nope");
        assert!(cache.is_empty());
        let (v, hit) = cache
            .get_or_try_insert_with(7, || Ok::<_, &str>(Arc::new(70)))
            .unwrap();
        assert!(!hit);
        assert_eq!(*v, 70);
    }
}
