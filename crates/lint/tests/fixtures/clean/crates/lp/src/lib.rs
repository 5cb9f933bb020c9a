//! Fixture: every violation below carries a justified allow.

/// Fixture: documented sentinel comparison helper.
pub fn is_zero(x: f64) -> bool {
    // dcn-lint: allow(float-eq) — fixture: exact sentinel comparison is intended
    x == 0.0
}

/// Fixture: the doc comment sits above the allow annotation.
// dcn-lint: allow(budget-coverage) — fixture: loop exits on the first iteration
pub fn spin() -> u32 {
    loop {
        return 7;
    }
}

/// Fixture: documented twin tail under a justified allow.
// dcn-lint: allow(budget-coverage) — fixture: migration staging point, twin tail retired next pass
pub fn solve_pair(n: u32, cache: &CacheHandle, budget: &Budget) -> u32 {
    n + cache.len() as u32 + budget.len() as u32
}

/// Fixture: documented loop covered by the unified `&SolveCtx` context.
pub fn spin_ctx(n: u32, ctx: &SolveCtx<'_>) -> u32 {
    let mut i = 0;
    while i < n {
        i += 1;
    }
    i + ctx.tag
}
