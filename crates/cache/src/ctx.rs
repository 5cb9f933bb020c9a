//! [`SolveCtx`]: the unified per-request solver context.
//!
//! Before this module existed, every solver entry point in the workspace
//! ended in the same twin-parameter tail — `cache: &CacheHandle,
//! budget: &Budget` — and every cross-cutting concern (PR-5's cache, PR-2's
//! budgets) meant another workspace-wide signature churn. `SolveCtx`
//! collapses the tail into one borrowed context so a long-running service
//! (`dcnd`) can thread a *per-request* cache/budget/provenance bundle
//! through the whole solver stack, and future request-scoped fields
//! (request ids, trace attribution) extend the struct instead of every
//! signature.
//!
//! The struct lives in `dcn-cache` rather than `dcn-guard` because the
//! dependency arrow points this way: `dcn-cache` already depends on
//! `dcn-guard` (for the env registry and validation hooks), so a context
//! that borrows both a [`CacheHandle`] and a [`Budget`] must sit at the
//! cache layer or above. `dcn-cache` is the lowest crate that can see
//! both types, and everything that used the twin tail already depends
//! on it.
//!
//! Call-site vocabulary (all re-exported via [`crate::prelude`]):
//!
//! * [`ctx(&cache, &budget)`](crate::prelude::ctx) — explicit parts, the
//!   daemon/CLI form.
//! * [`unlimited_ctx()`](crate::prelude::unlimited_ctx) — disabled cache,
//!   unlimited budget: the test/default form (replaces the old
//!   `&nocache(), &unlimited()` pair).
//! * [`nocache_ctx(&budget)`](crate::prelude::nocache_ctx) — disabled
//!   cache with a real budget: budget-sensitivity tests.

use crate::CacheHandle;
use dcn_guard::Budget;

/// The unified solver request context: the memoization handle and the
/// execution budget every solver entry point threads together.
///
/// `SolveCtx` is `Copy` (two references), cheap to pass by value into
/// `dcn-exec` closures, and passed as `&SolveCtx` through solver entry
/// points (the form `dcn-lint`'s `budget-coverage` rule accepts as
/// budget coverage).
///
/// ```
/// use dcn_cache::prelude::*;
/// use dcn_guard::prelude::*;
///
/// fn solve(ctx: &SolveCtx<'_>) -> Result<u64, BudgetError> {
///     let mut meter = ctx.budget.meter();
///     meter.tick()?;
///     assert!(!ctx.cache.is_enabled());
///     Ok(meter.used())
/// }
///
/// assert_eq!(solve(&unlimited_ctx()), Ok(1));
/// let tight = Budget::unlimited().with_iter_cap(0);
/// assert!(solve(&nocache_ctx(&tight)).is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SolveCtx<'a> {
    /// Cache consulted (and filled) by every memoized solver on the path
    /// of this request. A disabled handle forces recomputation.
    pub cache: &'a CacheHandle,
    /// Budget metering every iterative kernel on the path of this
    /// request; exhaustion surfaces as a typed `BudgetError`.
    pub budget: &'a Budget,
}

impl<'a> SolveCtx<'a> {
    /// Builds a context from explicit parts (prefer the
    /// [`ctx`](crate::prelude::ctx) prelude shorthand at call sites).
    pub fn new(cache: &'a CacheHandle, budget: &'a Budget) -> SolveCtx<'a> {
        SolveCtx { cache, budget }
    }

    /// A context over `cache` with an unlimited budget — the common
    /// one-shot CLI/bench form where the cache matters but no deadline
    /// is configured.
    pub fn unlimited(cache: &'a CacheHandle) -> SolveCtx<'a> {
        SolveCtx {
            cache,
            budget: Budget::unlimited_ref(),
        }
    }

}

/// A `&'static` disabled cache handle backing the `*_ctx` constructors.
pub(crate) fn disabled_ref() -> &'static CacheHandle {
    static DISABLED: CacheHandle = CacheHandle { inner: None };
    &DISABLED
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn unlimited_ctx_is_disabled_and_unlimited() {
        let c = unlimited_ctx();
        assert!(!c.cache.is_enabled());
        assert!(c.budget.is_unlimited());
    }

    #[test]
    fn ctx_borrows_parts() {
        let cache = CacheHandle::in_memory(1 << 16);
        let budget = Budget::unlimited().with_iter_cap(3);
        let c = ctx(&cache, &budget);
        assert!(c.cache.is_enabled());
        assert!(!c.budget.is_unlimited());
    }

    #[test]
    fn nocache_ctx_keeps_budget() {
        let budget = Budget::unlimited().with_iter_cap(1);
        let c = nocache_ctx(&budget);
        assert!(!c.cache.is_enabled());
        let mut m = c.budget.meter();
        assert!(m.tick().is_ok());
        assert!(m.tick().is_err());
    }
}
