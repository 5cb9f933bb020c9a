//! `dcn-exec`: a deterministic parallel fan-out engine.
//!
//! The paper's evaluation is dominated by embarrassingly-parallel sweeps —
//! TUB over topology families, resilience curves over hundreds of random
//! failure samples, per-commodity KSP path enumeration, frontier cells.
//! Every one of those is a list of independent solves, and this
//! crate is the one place in the workspace allowed to spawn threads to run
//! them concurrently.
//!
//! # Determinism contract
//!
//! [`Pool::par_map`] guarantees **byte-identical output at any thread
//! count**, including 1:
//!
//! * Results are merged in input order, never completion order.
//! * Task closures receive their input index, so randomized tasks derive a
//!   private RNG stream from [`task_seed`]`(run_seed, index)` instead of
//!   sharing a sequential generator whose state would depend on
//!   scheduling.
//! * On failure, the error returned is the one the lowest-index failing
//!   task produced — exactly the error a serial in-order loop would have
//!   stopped at. (Task indices are claimed in increasing order, so when
//!   any task fails, every lower-index task has also run to completion.)
//!
//! # Budget propagation
//!
//! Every fan-out takes a [`Budget`]. Workers checkpoint the deadline and
//! [`CancelFlag`] before claiming each task and short-circuit the whole
//! pool on the first error or cancellation: in-flight tasks finish, queued
//! tasks are never started. Budgets with wall-clock deadlines are
//! inherently time-dependent; determinism is guaranteed for budgets that
//! do not expire mid-run (the common case: [`dcn_guard::prelude::unlimited`]).
//!
//! [`CancelFlag`]: dcn_guard::CancelFlag
//!
//! # Span attribution
//!
//! Workers inherit the submitting thread's span path as their thread span
//! parent ([`dcn_obs::set_thread_span_parent`]), and every task runs
//! under an `exec.pool.task` span on both the serial and parallel paths —
//! so span paths and counts are identical at any thread count, and
//! per-event traces (`dcn_obs::trace`) show tasks nested under the fan-out
//! that submitted them. Attribution is observability-only: it never
//! affects task results or output bytes.
//!
//! # Thread count
//!
//! [`Pool::from_env`] reads `DCN_EXEC_THREADS` (re-read on every call, so
//! tests can flip it); unset or invalid falls back to the machine's
//! available parallelism. [`Pool::new`] pins an explicit count.
//!
//! ```
//! use dcn_exec::Pool;
//! use dcn_guard::prelude::*;
//!
//! let squares = Pool::new(4)
//!     .par_map(&unlimited(), &[1u64, 2, 3, 4], |_, &x| Ok::<_, BudgetError>(x * x))
//!     .unwrap();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use dcn_guard::{Budget, BudgetError};
#[expect(clippy::disallowed_types, reason = "the pool's cursor and stop flag")]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// A fan-out execution context: a fixed worker count applied to scoped
/// thread teams. Creating a `Pool` is free — threads are spawned per
/// [`Pool::par_map`] call and joined before it returns, so borrows of the
/// caller's stack flow into tasks without `'static` bounds.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by the `DCN_EXEC_THREADS` environment variable, read
    /// afresh on every call (so a test or harness can change it between
    /// fan-outs). Unset, empty, zero, or unparsable values fall back to
    /// the machine's available parallelism.
    pub fn from_env() -> Self {
        let from_var = dcn_obs::env::EXEC_THREADS
            .parsed::<usize>()
            .filter(|&n| n > 0);
        let threads =
            from_var.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Pool::new(threads)
    }

    /// The worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, preserving input order.
    ///
    /// `f(index, &item)` must be deterministic in its arguments for the
    /// determinism contract to hold; randomized tasks should seed from
    /// [`task_seed`]`(run_seed, index)`. The first error (by input index)
    /// short-circuits the pool and is returned; `budget` deadlines and
    /// cancellation are checked before each task claim and surface as
    /// `E::from(BudgetError)`.
    ///
    /// ```
    /// use dcn_exec::Pool;
    /// use dcn_guard::prelude::*;
    ///
    /// // Output order tracks *input* order, not completion order, so the
    /// // result is identical for any worker count — including 1.
    /// let doubled = Pool::from_env()
    ///     .par_map(&unlimited(), &[10u32, 20, 30], |i, &x| {
    ///         Ok::<_, BudgetError>(x * 2 + i as u32)
    ///     })
    ///     .unwrap();
    /// assert_eq!(doubled, vec![20, 41, 62]);
    ///
    /// // Errors propagate as the lowest failing input index would.
    /// let err = Pool::new(4)
    ///     .par_map(&unlimited(), &[1u64, 2, 3], |_, &x| {
    ///         if x % 2 == 0 {
    ///             Err(BudgetError::IterationsExceeded { cap: x })
    ///         } else {
    ///             Ok(x)
    ///         }
    ///     })
    ///     .unwrap_err();
    /// assert_eq!(err, BudgetError::IterationsExceeded { cap: 2 });
    /// ```
    pub fn par_map<I, T, E, F>(&self, budget: &Budget, items: &[I], f: F) -> Result<Vec<T>, E>
    where
        I: Sync,
        T: Send,
        E: Send + From<BudgetError>,
        F: Fn(usize, &I) -> Result<T, E> + Sync,
    {
        dcn_obs::counter!(dcn_obs::names::EXEC_POOL_RUNS).inc();
        dcn_obs::gauge!(dcn_obs::names::EXEC_POOL_THREADS).set(self.threads as f64);
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return self.serial_map(budget, items, f);
        }
        let tasks_ctr = dcn_obs::counter!(dcn_obs::names::EXEC_POOL_TASKS);
        let busy_hist = dcn_obs::histogram!(dcn_obs::names::EXEC_POOL_WORKER_BUSY_NS);
        // Cross-thread span attribution: each worker inherits the
        // submitting thread's span path as its thread span parent, so a
        // task's spans report under the same hierarchical path at any
        // worker count (the serial path below nests naturally on the
        // caller thread). Observability-only; never affects results.
        let span_parent = dcn_obs::current_span_path();
        // Relaxed suffices for both: the cursor only hands out distinct
        // indices, the stop flag only cuts the queue short, and the
        // scope's join publishes every result to the merging thread.
        #[expect(clippy::disallowed_types, reason = "the task cursor")]
        let next = AtomicUsize::new(0);
        #[expect(clippy::disallowed_types, reason = "the latched stop flag")]
        let stop = AtomicBool::new(false);
        // Each worker claims monotonically increasing indices and collects
        // (index, result) pairs locally; the caller thread merges them back
        // into input order. No shared mutable slots, no unsafe.
        #[expect(clippy::disallowed_methods, reason = "only dcn-exec spawns threads")]
        let locals: Vec<Vec<(usize, Result<T, E>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let _ = dcn_obs::set_thread_span_parent(span_parent.clone());
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "worker busy time feeds only the utilization histogram"
                        )]
                        let started = Instant::now();
                        let mut local: Vec<(usize, Result<T, E>)> = Vec::new();
                        loop {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            // Deadline/cancellation checkpoint before each
                            // claim: a cancelled pool stops within one task
                            // per worker.
                            if let Err(e) = budget.meter().checkpoint() {
                                stop.store(true, Ordering::Relaxed);
                                dcn_obs::counter!(dcn_obs::names::EXEC_POOL_SHORT_CIRCUITS).inc();
                                local.push((i, Err(E::from(e))));
                                break;
                            }
                            let r = {
                                let _task = dcn_obs::span!(dcn_obs::names::EXEC_POOL_TASK);
                                f(i, &items[i])
                            };
                            tasks_ctr.inc();
                            let failed = r.is_err();
                            local.push((i, r));
                            if failed {
                                stop.store(true, Ordering::Relaxed);
                                dcn_obs::counter!(dcn_obs::names::EXEC_POOL_SHORT_CIRCUITS).inc();
                                break;
                            }
                        }
                        busy_hist.record_u64(started.elapsed().as_nanos() as u64);
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(local) => local,
                    // A panicking task is a bug in the caller's closure
                    // (solver code is panic-free by lint); re-raise it on
                    // the caller thread rather than inventing an error.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut slots: Vec<Option<Result<T, E>>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for (i, r) in locals.into_iter().flatten() {
            slots[i] = Some(r);
        }
        // Lowest-index error wins: identical to what a serial in-order
        // loop would have returned, at any worker count.
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            match slot {
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => return Err(e),
                // Unreached only when an error short-circuited the pool,
                // and that error returns above before any hole is visited.
                None => unreachable!("hole below the first error in par_map merge"),
            }
        }
        Ok(out)
    }

    /// The single-worker path: a plain in-order loop with the same budget
    /// checkpoints as the parallel path, so `DCN_EXEC_THREADS=1` exercises
    /// identical semantics without spawning.
    fn serial_map<I, T, E, F>(&self, budget: &Budget, items: &[I], f: F) -> Result<Vec<T>, E>
    where
        E: From<BudgetError>,
        F: Fn(usize, &I) -> Result<T, E>,
    {
        let tasks_ctr = dcn_obs::counter!(dcn_obs::names::EXEC_POOL_TASKS);
        #[expect(
            clippy::disallowed_methods,
            reason = "worker busy time feeds only the utilization histogram"
        )]
        let started = Instant::now();
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            if let Err(e) = budget.meter().checkpoint() {
                dcn_obs::counter!(dcn_obs::names::EXEC_POOL_SHORT_CIRCUITS).inc();
                return Err(E::from(e));
            }
            let r = {
                let _task = dcn_obs::span!(dcn_obs::names::EXEC_POOL_TASK);
                f(i, item)
            };
            tasks_ctr.inc();
            match r {
                Ok(v) => out.push(v),
                Err(e) => {
                    dcn_obs::counter!(dcn_obs::names::EXEC_POOL_SHORT_CIRCUITS).inc();
                    return Err(e);
                }
            }
        }
        dcn_obs::histogram!(dcn_obs::names::EXEC_POOL_WORKER_BUSY_NS)
            .record_u64(started.elapsed().as_nanos() as u64);
        Ok(out)
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Derives the RNG seed for task `task_index` of a run seeded with
/// `run_seed` (a splitmix64 finalizer over the pair). Tasks that seed
/// `StdRng::seed_from_u64(task_seed(seed, i))` draw from statistically
/// independent streams whose values do not depend on scheduling — the
/// keystone of the determinism contract for randomized sweeps.
pub fn task_seed(run_seed: u64, task_index: u64) -> u64 {
    let mut z =
        run_seed.wrapping_add((task_index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_guard::CancelFlag;

    #[test]
    fn maps_in_input_order() {
        for threads in [1, 2, 4, 7] {
            let items: Vec<u64> = (0..100).collect();
            let out = Pool::new(threads)
                .par_map(&Budget::unlimited(), &items, |i, &x| {
                    Ok::<_, BudgetError>(x * 2 + i as u64)
                })
                .unwrap();
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out: Vec<u64> = Pool::new(4)
            .par_map(&Budget::unlimited(), &[] as &[u64], |_, &x| {
                Ok::<_, BudgetError>(x)
            })
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn lowest_index_error_wins_at_any_thread_count() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let err = Pool::new(threads)
                .par_map(&Budget::unlimited(), &items, |_, &x| {
                    if x >= 10 {
                        Err(BudgetError::IterationsExceeded { cap: x })
                    } else {
                        Ok(x)
                    }
                })
                .unwrap_err();
            assert_eq!(err, BudgetError::IterationsExceeded { cap: 10 });
        }
    }

    #[test]
    fn cancellation_short_circuits_the_pool() {
        let flag = CancelFlag::new();
        flag.cancel();
        let budget = Budget::unlimited().with_cancel(flag);
        let items: Vec<u64> = (0..1000).collect();
        let err = Pool::new(4)
            .par_map(&budget, &items, |_, &x| Ok::<_, BudgetError>(x))
            .unwrap_err();
        assert!(matches!(err, BudgetError::Cancelled { .. }));
    }

    #[test]
    fn poisoned_worker_stops_queued_tasks() {
        // One task fails immediately; every other worker observes the stop
        // flag before its *next* claim, so the overwhelming majority of the
        // queue is never started (at most ~one in-flight task per worker
        // runs to completion after the poison).
        #[expect(clippy::disallowed_types, reason = "counts tasks across workers")]
        let executed = AtomicUsize::new(0);
        let items: Vec<u64> = (0..10_000).collect();
        let err = Pool::new(4)
            .par_map(&Budget::unlimited(), &items, |i, &x| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    Err(BudgetError::IterationsExceeded { cap: 0 })
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    Ok(x)
                }
            })
            .unwrap_err();
        assert_eq!(err, BudgetError::IterationsExceeded { cap: 0 });
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < items.len(), "pool kept draining after poison: {ran}");
    }

    #[test]
    fn task_seed_streams_differ() {
        let s: Vec<u64> = (0..100).map(|i| task_seed(42, i)).collect();
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), s.len());
        // And differ from a neighboring run seed's streams.
        assert_ne!(task_seed(42, 0), task_seed(43, 0));
    }

    #[test]
    fn from_env_reads_each_call() {
        // Not asserting a specific count (the variable may be set by the
        // CI matrix); just that the pool is well-formed.
        assert!(Pool::from_env().threads() >= 1);
        assert_eq!(Pool::new(0).threads(), 1);
    }
}
