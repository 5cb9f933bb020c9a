//! Ranked locks: the workspace's one lock order, checked at run time.
//!
//! The shared locks are the metric registry, the span table, the trace
//! drain buffer and the cache shards. A thread that nests them takes them
//! in that order, outermost first, so no two threads can wait on each
//! other. In debug builds every [`Ranked`] acquisition asserts that the
//! thread holds no ranked lock of the same or a higher [`Rank`], and the
//! file-writing helpers call [`assert_unlocked`], so no thread stalls the
//! others behind disk I/O. Release builds compile none of the checks.
//!
//! A poisoned lock is recovered rather than propagated: the guarded
//! values are accumulators and whole cache entries, which stay usable
//! after a panic on another thread.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Position of a lock in the acquisition order, outermost first.
#[derive(Debug, Clone, Copy)]
pub enum Rank {
    /// The metric registry.
    Registry,
    /// The span statistics table.
    Spans,
    /// The trace drain buffer.
    Drained,
    /// A shard of the solver cache's memory tier.
    Shard,
}

/// A lock at a [`Rank`] of the acquisition order.
#[derive(Debug)]
pub struct Ranked<L> {
    rank: Rank,
    lock: L,
}

/// A guard of a [`Ranked`] lock. It unlocks, then releases the rank.
pub struct Held<G> {
    guard: G,
    _rank: Token,
}

impl<L> Ranked<L> {
    /// Wraps `lock` at position `rank` of the acquisition order.
    pub const fn new(rank: Rank, lock: L) -> Self {
        Ranked { rank, lock }
    }

    fn held<'a, G>(&'a self, take: impl FnOnce(&'a L) -> G) -> Held<G> {
        let _rank = acquire(self.rank);
        Held {
            guard: take(&self.lock),
            _rank,
        }
    }
}

impl<T> Ranked<Mutex<T>> {
    /// Locks the mutex.
    pub fn lock(&self) -> Held<MutexGuard<'_, T>> {
        self.held(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T> Ranked<RwLock<T>> {
    /// Takes the lock for reading.
    pub fn read(&self) -> Held<RwLockReadGuard<'_, T>> {
        self.held(|l| l.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Takes the lock for writing.
    pub fn write(&self) -> Held<RwLockWriteGuard<'_, T>> {
        self.held(|l| l.write().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<G: Deref> Deref for Held<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Held<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

#[cfg(not(debug_assertions))]
struct Token;

#[cfg(not(debug_assertions))]
#[inline(always)]
fn acquire(_: Rank) -> Token {
    Token
}

/// The rank bit a held guard sets in [`HELD`].
#[cfg(debug_assertions)]
struct Token(u8);

#[cfg(debug_assertions)]
impl Drop for Token {
    fn drop(&mut self) {
        let _ = HELD.try_with(|h| h.set(h.get() & !self.0));
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Bit `r` is set while this thread holds the lock of rank `r`.
    static HELD: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

// A panic hook that flushes the run's files takes locks while the
// unwinding thread may still hold some, and a second panic would abort,
// so neither check fires during a panic.
#[cfg(debug_assertions)]
fn acquire(rank: Rank) -> Token {
    let bit = 1u8 << rank as u8;
    let _ = HELD.try_with(|h| {
        let held = h.get();
        assert!(
            held < bit || std::thread::panicking(),
            "lock order violated: {rank:?} acquired while holding {:?}; the order is \
             Registry → Spans → Drained → Shard",
            ranks(held)
        );
        h.set(held | bit);
    });
    Token(bit)
}

/// Asserts, in debug builds, that this thread holds no ranked lock.
/// `what` names the caller, which is about to block on file I/O.
pub fn assert_unlocked(what: &str) {
    #[cfg(debug_assertions)]
    let _ = HELD.try_with(|h| {
        let held = h.get();
        assert!(
            held == 0 || std::thread::panicking(),
            "{what} does file I/O while holding {:?}",
            ranks(held)
        );
    });
    #[cfg(not(debug_assertions))]
    let _ = what;
}

#[cfg(debug_assertions)]
fn ranks(mask: u8) -> Vec<Rank> {
    [Rank::Registry, Rank::Spans, Rank::Drained, Rank::Shard]
        .into_iter()
        .filter(|&r| mask & (1 << r as u8) != 0)
        .collect()
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    static OUTER: Ranked<Mutex<u32>> = Ranked::new(Rank::Spans, Mutex::new(0));
    static INNER: Ranked<RwLock<u32>> = Ranked::new(Rank::Shard, RwLock::new(0));

    #[test]
    fn acquisitions_in_rank_order_nest_and_release() {
        let mut outer = OUTER.lock();
        *outer += 1;
        *INNER.write() += *outer;
        drop(outer);
        assert!(*INNER.read() >= 1, "a released rank can be taken again");
        assert_unlocked("a test that released its locks");
    }

    #[test]
    #[should_panic(expected = "lock order violated: Spans acquired while holding [Shard]")]
    fn out_of_order_acquisition_panics() {
        let _inner = INNER.read();
        let _outer = OUTER.lock();
    }

    #[test]
    #[should_panic(expected = "the writer does file I/O while holding [Spans]")]
    fn file_io_under_a_lock_panics() {
        let _outer = OUTER.lock();
        assert_unlocked("the writer");
    }
}
