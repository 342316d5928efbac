//! A lock-sharded concurrent map.
//!
//! Replaces the pattern of one global `Mutex<BTreeMap>` protecting a
//! memoization cache: lookups hash-select one of 16 shards (so concurrent
//! workers rarely collide on a lock, and each probe is O(1) instead of a
//! tree walk). The map offers single-key access only — no view of more
//! than one entry — so no caller can depend on hash order.
//!
//! Every lock acquisition's wait time is recorded in a [`crate::hist`]
//! histogram, the schema of the runner's wall-time histograms, so
//! cache-lock contention is observable wherever the map is embedded.

use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::hist::AtomicHist;
use crate::{FastHashMap, FastHasher};

const SHARDS: usize = 16;

/// A concurrent map sharded over 16 hash-selected mutexes.
#[derive(Debug)]
pub struct ShardMap<K, V> {
    shards: Vec<Mutex<FastHashMap<K, V>>>,
    /// Lock-wait histogram per shard (summed on read): workers touch only
    /// their shard's counters, so observability never recreates the
    /// single contended cache line the sharding removed.
    wait_hist: Vec<AtomicHist>,
}

impl<K: Hash + Eq, V: Clone> ShardMap<K, V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> ShardMap<K, V> {
        ShardMap {
            shards: (0..SHARDS).map(|_| Mutex::new(FastHashMap::default())).collect(),
            wait_hist: (0..SHARDS).map(|_| AtomicHist::default()).collect(),
        }
    }

    fn lock_shard(&self, key: &K) -> MutexGuard<'_, FastHashMap<K, V>> {
        let mut h = FastHasher::default();
        key.hash(&mut h);
        let shard = (h.finish() as usize) % SHARDS;
        // Fast path: an uncontended acquisition waits ~0 ms, so it lands in
        // the first bucket without paying for two clock reads per probe.
        // Only a blocked acquisition is actually timed.
        match self.shards[shard].try_lock() {
            Ok(guard) => {
                self.wait_hist[shard].record(Duration::ZERO);
                return guard;
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("shard lock poisoned"),
            Err(std::sync::TryLockError::WouldBlock) => {}
        }
        let t0 = Instant::now();
        let guard = self.shards[shard].lock().expect("shard lock poisoned");
        self.wait_hist[shard].record(t0.elapsed());
        guard
    }

    /// Clones the value for `key` out of the map (the shard guard is
    /// dropped before returning, so callers never hold a lock across their
    /// own work).
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.lock_shard(key).get(key).cloned()
    }

    /// Whether `key` is present.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.lock_shard(key).contains_key(key)
    }

    /// Inserts `make()` if `key` is absent; returns a clone of the stored
    /// value either way. `make` runs under the shard lock, so callers doing
    /// expensive work compute it *before* calling and pass a cheap clone.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V {
        self.lock_shard(&key).entry(key).or_insert_with(make).clone()
    }

    /// Removes and returns the value for `key`, if present (cache
    /// eviction).
    pub fn remove(&self, key: &K) -> Option<V> {
        self.lock_shard(key).remove(key)
    }

    /// Total entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("shard lock poisoned").len()).sum()
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lock-wait histogram, summed over the shards.
    #[must_use]
    pub fn wait_hist(&self) -> [u64; 8] {
        let shards: Vec<[u64; 8]> = self.wait_hist.iter().map(AtomicHist::snapshot).collect();
        std::array::from_fn(|i| shards.iter().map(|h| h[i]).sum())
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardMap<K, V> {
    fn default() -> ShardMap<K, V> {
        ShardMap::new()
    }
}

/// `BuildHasher` used by the shard maps (exposed for tests that want to
/// pre-hash keys the same way).
pub type ShardBuildHasher = BuildHasherDefault<FastHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_insert_returns_first_value() {
        let m: ShardMap<u64, u64> = ShardMap::new();
        assert_eq!(m.get(&3), None);
        assert_eq!(m.get_or_insert_with(3, || 30), 30);
        assert_eq!(m.get_or_insert_with(3, || 99), 30);
        assert_eq!(m.get(&3), Some(30));
        assert!(m.contains(&3));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&3), Some(30));
        assert_eq!(m.remove(&3), None);
        assert!(!m.contains(&3));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn wait_histogram_counts_acquisitions() {
        let m: ShardMap<u64, u64> = ShardMap::new();
        let _ = m.get(&1);
        let _ = m.get_or_insert_with(2, || 2);
        let hist = m.wait_hist();
        assert_eq!(hist.iter().sum::<u64>(), 2);
    }

    #[test]
    fn concurrent_inserts_land_exactly_once() {
        let m: ShardMap<u64, u64> = ShardMap::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = &m;
                s.spawn(move || {
                    for k in 0..200u64 {
                        let _ = m.get_or_insert_with(k, || k + t * 1000);
                    }
                });
            }
        });
        assert_eq!(m.len(), 200);
        for k in 0..200u64 {
            assert_eq!(m.get(&k).map(|v| v % 1000), Some(k));
        }
    }
}
