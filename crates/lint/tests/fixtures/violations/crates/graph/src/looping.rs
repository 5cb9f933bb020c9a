//! Fixture: unbudgeted public loops, a stale allow and a bare one.

/// Fixture: documented unbudgeted loop.
pub fn spin(n: u32) -> u32 {
    let mut i = 0;
    while i < n {
        i += 1;
    }
    i
}

// dcn-lint: allow(float-eq) — fixture: stale annotation with nothing to suppress
/// Fixture: documented idle fn under a stale allow.
pub fn idle() {}

/// Fixture: documented legacy twin-tail signature.
pub fn solve_pair(n: u32, cache: &CacheHandle, budget: &Budget) -> u32 {
    n + cache.len() as u32 + budget.len() as u32
}

/// Fixture: documented budgeted loop via the unified context.
pub fn spin_ctx(n: u32, ctx: &SolveCtx<'_>) -> u32 {
    let mut i = 0;
    while i < n {
        i += 1;
    }
    i + ctx.tag
}

/// Fixture: documented loop under an allow with no justification.
// dcn-lint: allow(budget-coverage)
pub fn spin_bare(n: u32) -> u32 {
    let mut i = 0;
    while i < n {
        i += 1;
    }
    i
}
