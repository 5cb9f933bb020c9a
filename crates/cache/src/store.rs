//! The sharded in-memory tier: `RwLock` shards, logical-clock LRU,
//! byte-budget eviction.
//!
//! Recency is tracked with a global *logical* clock (an `AtomicU64`
//! bumped on every touch), not wall time — clippy's `disallowed-methods`
//! keeps `Instant::now` out of non-clock crates, and a logical clock
//! makes eviction order reproducible for a serial access sequence. The
//! shards are [`Rank::Shard`] locks, the innermost rank of the
//! workspace's lock order, and no thread holds two at once.

#![expect(clippy::disallowed_types, reason = "relaxed LRU clock and stamps")]

use crate::disk::DiskTier;
use crate::hash::CacheKey;
use dcn_obs::lock::{Rank, Ranked};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Shard count; keys pick a shard from their high word.
const N_SHARDS: usize = 16;

struct Stored {
    value: Box<dyn Any + Send + Sync>,
    bytes: usize,
    last_used: AtomicU64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Stored>,
    bytes: usize,
}

/// The process-wide cache state behind a [`crate::CacheHandle`].
pub(crate) struct Store {
    shards: Vec<Ranked<RwLock<Shard>>>,
    clock: AtomicU64,
    /// Per-shard byte budget (total budget / shard count).
    shard_budget: usize,
    pub(crate) disk: Option<DiskTier>,
}

impl Store {
    pub(crate) fn new(max_bytes: usize, disk: Option<DiskTier>) -> Store {
        let mut shards = Vec::with_capacity(N_SHARDS);
        shards.resize_with(N_SHARDS, || {
            Ranked::new(Rank::Shard, RwLock::new(Shard::default()))
        });
        Store {
            shards,
            clock: AtomicU64::new(0),
            shard_budget: (max_bytes / N_SHARDS).max(1),
            disk,
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up `key`, cloning the stored value out under the read lock
    /// and refreshing its recency stamp. A stored value of the wrong
    /// concrete type (possible only on a 128-bit key collision across
    /// domains) is treated as a miss.
    pub(crate) fn get<T: Clone + 'static>(&self, key: CacheKey) -> Option<T> {
        let shard = self.shards[key.shard(N_SHARDS)].read();
        let stored = shard.map.get(&key)?;
        let value = stored.value.downcast_ref::<T>()?.clone();
        stored.last_used.store(self.tick(), Ordering::Relaxed);
        Some(value)
    }

    /// Inserts (or overwrites) `key`, then evicts least-recently-used
    /// entries until the shard is back under its byte budget. The entry
    /// just inserted is never evicted, so a single oversized value still
    /// caches (and is replaced by the next insert into its shard).
    pub(crate) fn insert<T: Send + Sync + 'static>(&self, key: CacheKey, value: T, bytes: usize) {
        let evictions = dcn_obs::counter!(dcn_obs::names::CACHE_EVICT);
        let stamp = self.tick();
        let mut shard = self.shards[key.shard(N_SHARDS)].write();
        if let Some(old) = shard.map.insert(
            key,
            Stored {
                value: Box::new(value),
                bytes,
                last_used: AtomicU64::new(stamp),
            },
        ) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        while shard.bytes > self.shard_budget && shard.map.len() > 1 {
            let victim = shard
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(evicted) = shard.map.remove(&victim) {
                shard.bytes -= evicted.bytes;
                evictions.inc();
            }
        }
    }

    /// Total entries across all shards (test support).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeyBuilder;

    fn key(i: u64) -> CacheKey {
        KeyBuilder::new("store-test").u64(i).finish()
    }

    #[test]
    fn get_after_insert_round_trips() {
        let store = Store::new(1 << 20, None);
        store.insert(key(1), 42.0f64, 8);
        assert_eq!(store.get::<f64>(key(1)), Some(42.0));
        assert_eq!(store.get::<f64>(key(2)), None);
    }

    #[test]
    fn wrong_type_is_a_miss_not_a_panic() {
        let store = Store::new(1 << 20, None);
        store.insert(key(1), 42.0f64, 8);
        assert_eq!(store.get::<u64>(key(1)), None);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        // Per-shard budget of 100 bytes: room for two 40-byte entries,
        // not three, so the third insert must evict exactly one.
        let store = Store::new(N_SHARDS * 100, None);
        // Find three keys in the same shard so the budget actually binds.
        let mut same_shard = Vec::new();
        let mut i = 0u64;
        while same_shard.len() < 3 {
            let k = key(i);
            if k.shard(N_SHARDS) == 0 {
                same_shard.push(k);
            }
            i += 1;
        }
        store.insert(same_shard[0], 0u64, 40);
        store.insert(same_shard[1], 1u64, 40);
        // Touch entry 0 so entry 1 is now the LRU.
        assert_eq!(store.get::<u64>(same_shard[0]), Some(0));
        store.insert(same_shard[2], 2u64, 40);
        assert_eq!(store.get::<u64>(same_shard[1]), None, "LRU entry evicted");
        assert_eq!(store.get::<u64>(same_shard[0]), Some(0));
        assert_eq!(store.get::<u64>(same_shard[2]), Some(2));
    }

    #[test]
    fn oversized_entry_still_caches() {
        let store = Store::new(N_SHARDS, None); // 1 byte per shard
        store.insert(key(1), 7u64, 1 << 20);
        assert_eq!(store.get::<u64>(key(1)), Some(7));
        assert_eq!(store.len(), 1);
    }
}
