//! dcn-cache: a content-addressed memoization layer for solver results.
//!
//! The paper's evaluation re-solves the same (topology, traffic matrix,
//! solver parameters) triples thousands of times — frontier probes rebuild
//! identical topologies while binary-searching server counts, resilience
//! trials revisit the same degraded fabrics, and K-sweeps re-enumerate
//! path sets. This crate caches those results behind a [`CacheHandle`]
//! carried alongside the `&Budget` at every hot call site.
//!
//! # Design
//!
//! - **Keys** ([`CacheKey`], [`KeyBuilder`]): 128-bit splitmix64-based
//!   content hashes of the *labelled* inputs. Graph isomorphism is an
//!   explicit **non-goal** — differently-numbered but isomorphic
//!   topologies cache separately (see [`hash`](KeyBuilder::topology)).
//! - **Memory tier**: a sharded `RwLock` store with logical-clock LRU
//!   eviction under a byte budget (`DCN_CACHE_BYTES`, default 256 MiB;
//!   `0` disables caching entirely).
//! - **Disk tier** (optional, `DCN_CACHE_DIR`): versioned hand-rolled
//!   JSON records reusing [`dcn_obs::json`]. Corrupt or stale records are
//!   *quarantined* (renamed `*.quarantined`, counted under
//!   `cache.quarantined`) and treated as misses — never a panic. When
//!   `DCN_VALIDATE` is on, deserialized entries re-run their
//!   [`CacheEntry::validate`] certificate checks before being served.
//! - **Metrics**: every lookup bumps `cache.hit` / `cache.miss` (plus
//!   `cache.disk.hit`, `cache.evict`); [`publish_hit_rate`] folds them
//!   into the `cache.hit_rate` gauge so run manifests record the rate.
//!
//! # Determinism contract
//!
//! Every cached computation in this workspace is deterministic in its
//! key inputs, so serving a hit is byte-identical to recomputing — warm
//! and cold runs of a sweep produce identical output at any
//! `DCN_EXEC_THREADS`. One caveat: the *budget* is deliberately **not**
//! part of the key. A result computed under a generous budget can be
//! served to a call running under a tight one (a strictly better
//! outcome than a fallback or truncation, but observable in provenance
//! fields). Budget-sensitivity tests should use [`CacheHandle::disabled`].

mod ctx;
mod disk;
mod hash;
mod store;

pub use ctx::SolveCtx;
pub use hash::{CacheKey, KeyBuilder, FORMAT_VERSION};

use dcn_obs::json::Json;
use std::path::PathBuf;
use std::sync::Arc;

/// Default in-memory byte budget when `DCN_CACHE_BYTES` is unset.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// A value that can live in the cache.
///
/// Implementations live in the crate that owns the type (e.g. `TubResult`
/// implements this in `dcn-core`), keeping `dcn-cache` free of solver
/// dependencies. `Clone` should be cheap — wrap bulky payloads in `Arc`.
pub trait CacheEntry: Clone + Send + Sync + 'static {
    /// Short kind tag, used in on-disk file names and record headers.
    /// Must be stable across versions and unique per cached type.
    const KIND: &'static str;

    /// Whether entries of this type are written to the disk tier.
    /// Memory-only types (e.g. `Arc`-shared path sets whose serialized
    /// form would dwarf the recompute cost) set this to `false`.
    const PERSIST: bool = true;

    /// Rough in-memory footprint in bytes, used for the LRU byte budget.
    /// An estimate is fine; it only needs to rank entries sensibly.
    fn approx_bytes(&self) -> usize;

    /// Serializes the value for the disk tier.
    fn to_json(&self) -> Json;

    /// Deserializes a disk record's `value` field. Errors quarantine the
    /// record and fall back to recomputing.
    fn from_json(json: &Json) -> Result<Self, String>;

    /// Re-runs the result's certificate checks after deserialization
    /// (invoked only when `DCN_VALIDATE` enables validation). The default
    /// accepts everything.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A cheaply-cloneable handle to the (possibly disabled) cache, passed
/// alongside `&Budget` through solver entry points and shared across
/// `dcn-exec` tasks.
///
/// ```
/// use dcn_cache::{CacheEntry, CacheHandle, KeyBuilder};
/// use dcn_obs::json::Json;
/// use std::cell::Cell;
///
/// #[derive(Clone)]
/// struct Answer(f64);
/// impl CacheEntry for Answer {
///     const KIND: &'static str = "doc-answer";
///     const PERSIST: bool = false;
///     fn approx_bytes(&self) -> usize { 8 }
///     fn to_json(&self) -> Json { Json::Num(self.0) }
///     fn from_json(j: &Json) -> Result<Self, String> {
///         j.as_f64().map(Answer).ok_or_else(|| "expected a number".into())
///     }
/// }
///
/// let cache = CacheHandle::in_memory(1 << 20);
/// let solves = Cell::new(0);
/// for _ in 0..3 {
///     let v: Result<Answer, ()> = cache.get_or_compute(
///         || KeyBuilder::new("doc-answer").u64(42).finish(),
///         || { solves.set(solves.get() + 1); Ok(Answer(42.0)) },
///     );
///     assert_eq!(v.unwrap().0, 42.0);
/// }
/// assert_eq!(solves.get(), 1, "two of the three lookups were hits");
/// ```
#[derive(Clone, Default)]
pub struct CacheHandle {
    inner: Option<Arc<store::Store>>,
}

impl std::fmt::Debug for CacheHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl CacheHandle {
    /// A no-op handle: every lookup computes, nothing is stored, no
    /// metrics are emitted. Zero overhead beyond an `Option` check.
    pub fn disabled() -> CacheHandle {
        CacheHandle { inner: None }
    }

    /// An enabled memory-only cache with the given byte budget.
    pub fn in_memory(max_bytes: usize) -> CacheHandle {
        CacheHandle {
            inner: Some(Arc::new(store::Store::new(max_bytes, None))),
        }
    }

    /// An enabled cache with a disk tier rooted at `dir` (created if
    /// missing; falls back to memory-only if creation fails).
    pub fn with_disk(max_bytes: usize, dir: impl Into<PathBuf>) -> CacheHandle {
        let disk = disk::DiskTier::open(dir.into());
        CacheHandle {
            inner: Some(Arc::new(store::Store::new(max_bytes, disk))),
        }
    }

    /// Builds a handle from the environment:
    ///
    /// - `DCN_CACHE_BYTES` — in-memory byte budget (plain integer bytes;
    ///   default [`DEFAULT_CACHE_BYTES`]); `0` returns a disabled handle.
    /// - `DCN_CACHE_DIR` — when set and non-empty, enables the on-disk
    ///   tier rooted at that directory.
    ///
    /// Unparseable values fall back to the default rather than erroring:
    /// the cache is an accelerator and must never fail a run.
    pub fn from_env() -> CacheHandle {
        let bytes = dcn_obs::env::CACHE_BYTES
            .parsed::<usize>()
            .unwrap_or(DEFAULT_CACHE_BYTES);
        if bytes == 0 {
            return CacheHandle::disabled();
        }
        match dcn_obs::env::CACHE_DIR.get() {
            Some(dir) if !dir.trim().is_empty() => CacheHandle::with_disk(bytes, dir),
            _ => CacheHandle::in_memory(bytes),
        }
    }

    /// Whether lookups can ever hit (i.e. the handle is not
    /// [`disabled`](CacheHandle::disabled)).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The memoization primitive: returns the cached value for `key`, or
    /// runs `compute`, stores its success, and returns it.
    ///
    /// `key` is a closure so a disabled handle skips hashing entirely.
    /// Lookup order is memory tier, then disk tier (for persistent
    /// kinds), then `compute`. Errors from `compute` are returned
    /// untouched and never cached.
    pub fn get_or_compute<T: CacheEntry, E>(
        &self,
        key: impl FnOnce() -> CacheKey,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let Some(store) = &self.inner else {
            return compute();
        };
        let key = key();
        let hits = dcn_obs::counter!(dcn_obs::names::CACHE_HIT);
        if let Some(value) = store.get::<T>(key) {
            hits.inc();
            dcn_obs::trace_instant(dcn_obs::names::CACHE_HIT);
            return Ok(value);
        }
        if T::PERSIST {
            if let Some(disk) = &store.disk {
                if let Some(value) = disk.load::<T>(key) {
                    dcn_obs::counter!(dcn_obs::names::CACHE_DISK_HIT).inc();
                    hits.inc();
                    dcn_obs::trace_instant(dcn_obs::names::CACHE_DISK_HIT);
                    store.insert(key, value.clone(), value.approx_bytes());
                    return Ok(value);
                }
            }
        }
        dcn_obs::counter!(dcn_obs::names::CACHE_MISS).inc();
        dcn_obs::trace_instant(dcn_obs::names::CACHE_MISS);
        let value = compute()?;
        store.insert(key, value.clone(), value.approx_bytes());
        if T::PERSIST {
            if let Some(disk) = &store.disk {
                disk.store(key, &value);
            }
        }
        Ok(value)
    }

    /// A non-computing probe: the cached value for `key`, if any tier
    /// holds one. A memory- or disk-tier hit bumps the same counters as
    /// [`CacheHandle::get_or_compute`]; an absent value bumps nothing —
    /// a peek is not an attempt to solve, so it must not dilute the
    /// `cache.hit_rate` gauge. Used by `dcnd` admission control to serve
    /// warm queries after the global budget is exhausted.
    pub fn peek<T: CacheEntry>(&self, key: CacheKey) -> Option<T> {
        let store = self.inner.as_ref()?;
        let hits = dcn_obs::counter!(dcn_obs::names::CACHE_HIT);
        if let Some(value) = store.get::<T>(key) {
            hits.inc();
            dcn_obs::trace_instant(dcn_obs::names::CACHE_HIT);
            return Some(value);
        }
        if T::PERSIST {
            if let Some(disk) = &store.disk {
                if let Some(value) = disk.load::<T>(key) {
                    dcn_obs::counter!(dcn_obs::names::CACHE_DISK_HIT).inc();
                    hits.inc();
                    dcn_obs::trace_instant(dcn_obs::names::CACHE_DISK_HIT);
                    store.insert(key, value.clone(), value.approx_bytes());
                    return Some(value);
                }
            }
        }
        None
    }
}

/// Folds the hit/miss counters into the `cache.hit_rate` gauge
/// (`hits / (hits + misses)`, or `0` before any lookup). Called by the
/// bench harness just before capturing a run manifest so every manifest
/// records the rate.
pub fn publish_hit_rate() {
    let hits = dcn_obs::counter_value(dcn_obs::names::CACHE_HIT) as f64;
    let misses = dcn_obs::counter_value(dcn_obs::names::CACHE_MISS) as f64;
    let gauge = dcn_obs::gauge!(dcn_obs::names::CACHE_HIT_RATE);
    if hits + misses > 0.0 {
        gauge.set(hits / (hits + misses));
    } else {
        gauge.set(0.0);
    }
}

/// Convenience imports for call sites: `use dcn_cache::prelude::*;`.
pub mod prelude {
    pub use crate::{CacheEntry, CacheHandle, CacheKey, KeyBuilder, SolveCtx};
    use dcn_guard::Budget;

    /// A disabled [`CacheHandle`] — the cache analogue of
    /// `dcn_guard::prelude::unlimited()`, for tests and call sites that
    /// must observe uncached behavior.
    pub fn nocache() -> CacheHandle {
        CacheHandle::disabled()
    }

    /// Builds a [`SolveCtx`] from explicit parts:
    /// `solve(&ctx(&cache, &budget))`.
    pub fn ctx<'a>(cache: &'a CacheHandle, budget: &'a Budget) -> SolveCtx<'a> {
        SolveCtx::new(cache, budget)
    }

    /// The "don't care" context: disabled cache, unlimited budget.
    /// Replaces the old `&nocache(), &unlimited()` twin tail at test and
    /// example call sites: `solve(&unlimited_ctx())`.
    pub fn unlimited_ctx() -> SolveCtx<'static> {
        SolveCtx::new(crate::ctx::disabled_ref(), Budget::unlimited_ref())
    }

    /// A context with the cache disabled but a real budget, for
    /// budget-sensitivity tests: `solve(&nocache_ctx(&tight))`.
    pub fn nocache_ctx(budget: &Budget) -> SolveCtx<'_> {
        SolveCtx::new(crate::ctx::disabled_ref(), budget)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::nocache;
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Val(f64);

    impl CacheEntry for Val {
        const KIND: &'static str = "test-val";
        fn approx_bytes(&self) -> usize {
            8
        }
        fn to_json(&self) -> Json {
            Json::Num(self.0)
        }
        fn from_json(json: &Json) -> Result<Self, String> {
            json.as_f64().map(Val).ok_or_else(|| "not a number".into())
        }
        fn validate(&self) -> Result<(), String> {
            if self.0.is_finite() {
                Ok(())
            } else {
                Err("non-finite".into())
            }
        }
    }

    fn key(i: u64) -> CacheKey {
        KeyBuilder::new("lib-test").u64(i).finish()
    }

    #[test]
    fn disabled_handle_always_computes() {
        let cache = nocache();
        let mut calls = 0;
        for _ in 0..3 {
            let v: Result<Val, ()> = cache.get_or_compute(
                || key(1),
                || {
                    calls += 1;
                    Ok(Val(1.0))
                },
            );
            assert_eq!(v.unwrap(), Val(1.0));
        }
        assert_eq!(calls, 3);
        assert!(!cache.is_enabled());
    }

    #[test]
    fn enabled_handle_computes_once() {
        let cache = CacheHandle::in_memory(1 << 20);
        let mut calls = 0;
        for _ in 0..3 {
            let v: Result<Val, ()> = cache.get_or_compute(
                || key(2),
                || {
                    calls += 1;
                    Ok(Val(2.0))
                },
            );
            assert_eq!(v.unwrap(), Val(2.0));
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn errors_are_never_cached() {
        let cache = CacheHandle::in_memory(1 << 20);
        let mut calls = 0;
        for want_err in [true, false, false] {
            let v: Result<Val, &str> = cache.get_or_compute(
                || key(3),
                || {
                    calls += 1;
                    if want_err {
                        Err("transient")
                    } else {
                        Ok(Val(3.0))
                    }
                },
            );
            assert_eq!(v.is_err(), want_err);
        }
        // First call errs (not cached), second succeeds (cached), third hits.
        assert_eq!(calls, 2);
    }

    #[test]
    fn clones_share_the_store() {
        let cache = CacheHandle::in_memory(1 << 20);
        let clone = cache.clone();
        let _: Result<Val, ()> = cache.get_or_compute(|| key(4), || Ok(Val(4.0)));
        let v: Result<Val, ()> = clone.get_or_compute(|| key(4), || panic!("should hit"));
        assert_eq!(v.unwrap(), Val(4.0));
    }

    #[test]
    fn disk_round_trip_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("dcn-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Warm pass: miss, compute, persist.
        let cache = CacheHandle::with_disk(1 << 20, &dir);
        let _: Result<Val, ()> = cache.get_or_compute(|| key(5), || Ok(Val(5.0)));

        // Fresh handle, same dir: memory is cold, disk serves the hit.
        let cache2 = CacheHandle::with_disk(1 << 20, &dir);
        let v: Result<Val, ()> = cache2.get_or_compute(|| key(5), || panic!("disk should hit"));
        assert_eq!(v.unwrap(), Val(5.0));

        // Corrupt the record: the next cold lookup must quarantine it and
        // recompute, never panic.
        let record = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "json"))
            .expect("record written");
        std::fs::write(&record, "{ not json").unwrap();
        let before = dcn_obs::counter_value(dcn_obs::names::CACHE_QUARANTINED);
        let cache3 = CacheHandle::with_disk(1 << 20, &dir);
        let v: Result<Val, ()> = cache3.get_or_compute(|| key(5), || Ok(Val(5.5)));
        assert_eq!(v.unwrap(), Val(5.5), "quarantined record recomputes");
        assert_eq!(
            dcn_obs::counter_value(dcn_obs::names::CACHE_QUARANTINED),
            before + 1
        );
        // The corrupt bytes were moved aside and the recompute wrote a
        // fresh, loadable record in their place.
        let quarantined: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "quarantined"))
            .collect();
        assert_eq!(quarantined.len(), 1);
        let cache4 = CacheHandle::with_disk(1 << 20, &dir);
        let v: Result<Val, ()> = cache4.get_or_compute(|| key(5), || panic!("rewritten record"));
        assert_eq!(v.unwrap(), Val(5.5));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hit_rate_gauge_publishes() {
        publish_hit_rate();
        // Only asserts it does not panic and the gauge exists; exact value
        // depends on test interleaving within the process.
    }
}
