//! `dcn-guard`: budgeted, panic-free solver execution.
//!
//! The iterative kernels of this workspace — the two-phase simplex, the
//! Garg–Könemann FPTAS, Yen's spur search, the Hungarian matcher, the FM
//! partitioner — can spin for a very long time on degenerate or adversarial
//! inputs. This crate provides the shared machinery that turns "might hang"
//! into "returns a typed error":
//!
//! * [`Budget`] — a wall-clock deadline, an iteration cap, and a
//!   cooperative cancellation flag, threaded by reference through every
//!   long-running kernel. Kernels obtain a [`BudgetMeter`] and call
//!   [`BudgetMeter::tick`] once per unit of work; when the budget is
//!   exhausted the kernel returns a [`BudgetError`] instead of spinning.
//! * [`validate`] — post-solve certificate checks (finiteness screening,
//!   bracket ordering, capacity residuals, demand service, hose
//!   feasibility, duality gap) behind a debug-on/opt-in flag
//!   ([`validate::validation_enabled`]).
//! * [`adversarial`] — a dependency-free generator of hostile inputs
//!   (NaN/negative demands, degenerate LPs, near-expired budgets) used by
//!   the workspace-level fault-injection harness.
//!
//! Budget exhaustion and certificate failures bump `guard.*` counters in
//! the `dcn-obs` registry, so every run manifest records whether a result
//! came from a clean solve, a degraded fallback, or a truncated attempt.
//!
//! ```
//! use dcn_guard::{Budget, BudgetError};
//! use std::time::Duration;
//!
//! let budget = Budget::unlimited().with_iter_cap(100);
//! let mut meter = budget.meter();
//! let mut spins = 0u64;
//! let err = loop {
//!     if let Err(e) = meter.tick() {
//!         break e;
//!     }
//!     spins += 1;
//! };
//! assert_eq!(spins, 100);
//! assert!(matches!(err, BudgetError::IterationsExceeded { cap: 100, .. }));
//! ```

pub mod adversarial;
pub mod tol;
pub mod validate;

pub use validate::{validation_enabled, CertError};

/// Convenience re-exports for call sites of the budgeted solver API.
///
/// Every solver entry point in the workspace takes a `&Budget`; callers
/// that don't care about deadlines write `&unlimited()` at the call site:
///
/// ```
/// use dcn_guard::prelude::*;
///
/// fn run(budget: &Budget) -> Result<u64, BudgetError> {
///     let mut meter = budget.meter();
///     meter.tick()?;
///     Ok(meter.used())
/// }
///
/// assert!(run(&unlimited()).is_ok());
/// ```
pub mod prelude {
    pub use crate::{Budget, BudgetError, BudgetMeter, CancelFlag};

    /// Shorthand for [`Budget::unlimited`], for call sites without a
    /// deadline: `solve(&unlimited())`.
    pub fn unlimited() -> Budget {
        Budget::unlimited()
    }
}

#[expect(clippy::disallowed_types, reason = "a latched flag needs no lock")]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag, cheap to clone and share across
/// threads. Setting it makes every kernel metering a [`Budget`] that
/// carries the flag return [`BudgetError::Cancelled`] at its next tick.
#[derive(Debug, Clone, Default)]
#[expect(clippy::disallowed_types, reason = "a latched flag needs no lock")]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// Creates a new, un-cancelled flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelFlag::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// An execution budget: wall-clock deadline, iteration cap, and optional
/// cooperative cancellation.
///
/// A `Budget` is immutable configuration; kernels derive a [`BudgetMeter`]
/// from it (one per solve) and tick the meter once per unit of work. The
/// deadline is anchored when `with_wall` is called, so a budget passed
/// down a fallback chain (exact → FPTAS) naturally shares one deadline
/// across both attempts.
///
/// ```
/// use dcn_guard::{Budget, BudgetError};
///
/// // An iteration cap fires deterministically on the (cap + 1)-th tick.
/// let budget = Budget::unlimited().with_iter_cap(2);
/// let mut meter = budget.meter();
/// assert_eq!(meter.tick(), Ok(()));
/// assert_eq!(meter.tick(), Ok(()));
/// assert_eq!(meter.tick(), Err(BudgetError::IterationsExceeded { cap: 2 }));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    wall: Option<Duration>,
    iter_cap: Option<u64>,
    cancel: Option<CancelFlag>,
}

impl Budget {
    /// A budget with no limits: every tick succeeds.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A `&'static` unlimited budget, for contexts that must outlive any
    /// stack frame — notably `dcn_cache::SolveCtx` constructors such as
    /// `unlimited_ctx()`, which bundle this reference with a static
    /// disabled cache handle.
    pub fn unlimited_ref() -> &'static Budget {
        static UNLIMITED: Budget = Budget {
            deadline: None,
            wall: None,
            iter_cap: None,
            cancel: None,
        };
        &UNLIMITED
    }

    /// Adds a wall-clock limit of `wall` from *now*.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadlines are measured from the wall clock; dcn-guard owns that read"
    )]
    pub fn with_wall(mut self, wall: Duration) -> Self {
        self.wall = Some(wall);
        self.deadline = Instant::now().checked_add(wall);
        self
    }

    /// Adds a cap on the total number of meter ticks.
    pub fn with_iter_cap(mut self, cap: u64) -> Self {
        self.iter_cap = Some(cap);
        self
    }

    /// Attaches a cooperative cancellation flag.
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// True when no deadline, cap, or cancellation flag is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.iter_cap.is_none() && self.cancel.is_none()
    }

    /// True once the attached flag (if any) has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }

    /// Derives a fresh meter that checks the clock at every tick.
    ///
    /// Use this when each tick covers substantial work (a simplex pivot, an
    /// FPTAS augmentation, a spur-path BFS): the `Instant::now()` read is
    /// then negligible against the work it meters.
    pub fn meter(&self) -> BudgetMeter<'_> {
        self.meter_every(1)
    }

    /// Derives a meter that checks the deadline and cancellation flag only
    /// every `stride` ticks (the iteration cap is always exact). Use for
    /// very light tick sites such as DFS node expansions, where a clock
    /// read per tick would dominate.
    pub fn meter_every(&self, stride: u32) -> BudgetMeter<'_> {
        BudgetMeter {
            budget: self,
            used: 0,
            stride: stride.max(1) as u64,
        }
    }
}

/// Typed budget-exhaustion errors: the guaranteed alternative to a hang.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// The configured wall limit.
        limit: Duration,
        /// Meter ticks consumed before the deadline fired.
        used_iters: u64,
    },
    /// The iteration cap was consumed.
    IterationsExceeded {
        /// The configured cap.
        cap: u64,
    },
    /// The cooperative cancellation flag was set.
    Cancelled {
        /// Meter ticks consumed before cancellation was observed.
        used_iters: u64,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::DeadlineExceeded { limit, used_iters } => write!(
                f,
                "wall-clock budget of {limit:?} exceeded after {used_iters} iterations"
            ),
            BudgetError::IterationsExceeded { cap } => {
                write!(f, "iteration budget of {cap} exceeded")
            }
            BudgetError::Cancelled { used_iters } => {
                write!(f, "cancelled after {used_iters} iterations")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

/// Per-solve metering state derived from a [`Budget`].
///
/// `tick()` is the only hot-path call: one increment, one compare against
/// the cap, and (every `stride` ticks) a clock read and a relaxed atomic
/// load. An unlimited budget reduces tick to the increment plus two
/// `None` checks.
#[derive(Debug)]
pub struct BudgetMeter<'a> {
    budget: &'a Budget,
    used: u64,
    stride: u64,
}

impl BudgetMeter<'_> {
    /// Accounts one unit of work. Returns an error once the budget is
    /// exhausted; the caller must propagate it (never ignore and keep
    /// looping — that reintroduces the hang this crate exists to prevent).
    #[inline]
    pub fn tick(&mut self) -> Result<(), BudgetError> {
        self.used += 1;
        if let Some(cap) = self.budget.iter_cap {
            if self.used > cap {
                dcn_obs::counter!(dcn_obs::names::GUARD_BUDGET_ITERATIONS_EXCEEDED).inc();
                return Err(BudgetError::IterationsExceeded { cap });
            }
        }
        if self.used.is_multiple_of(self.stride) {
            self.checkpoint()
        } else {
            Ok(())
        }
    }

    /// Forces a deadline + cancellation check regardless of stride. Useful
    /// right before starting an expensive indivisible step.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadlines are measured from the wall clock; dcn-guard owns that read"
    )]
    pub fn checkpoint(&self) -> Result<(), BudgetError> {
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                dcn_obs::counter!(dcn_obs::names::GUARD_BUDGET_DEADLINE_EXCEEDED).inc();
                return Err(BudgetError::DeadlineExceeded {
                    limit: self.budget.wall.unwrap_or_default(),
                    used_iters: self.used,
                });
            }
        }
        if self.budget.is_cancelled() {
            dcn_obs::counter!(dcn_obs::names::GUARD_BUDGET_CANCELLED).inc();
            return Err(BudgetError::Cancelled {
                used_iters: self.used,
            });
        }
        Ok(())
    }

    /// Ticks consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_errors() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        let mut m = b.meter();
        for _ in 0..10_000 {
            m.tick().unwrap();
        }
        assert_eq!(m.used(), 10_000);
    }

    #[test]
    fn iteration_cap_is_exact() {
        let b = Budget::unlimited().with_iter_cap(5);
        let mut m = b.meter_every(64); // stride must not delay the cap
        for _ in 0..5 {
            m.tick().unwrap();
        }
        assert_eq!(m.tick(), Err(BudgetError::IterationsExceeded { cap: 5 }));
    }

    #[test]
    fn expired_deadline_fires_on_first_tick() {
        let b = Budget::unlimited().with_wall(Duration::ZERO);
        let mut m = b.meter();
        assert!(matches!(
            m.tick(),
            Err(BudgetError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn cancellation_observed_at_tick() {
        let flag = CancelFlag::new();
        let b = Budget::unlimited().with_cancel(flag.clone());
        let mut m = b.meter();
        m.tick().unwrap();
        flag.cancel();
        assert!(b.is_cancelled());
        assert_eq!(m.tick(), Err(BudgetError::Cancelled { used_iters: 2 }));
    }

    #[test]
    fn stride_delays_clock_checks_but_not_cap() {
        let flag = CancelFlag::new();
        flag.cancel();
        let b = Budget::unlimited().with_cancel(flag);
        let mut m = b.meter_every(4);
        // Ticks 1..3 skip the slow check; tick 4 observes cancellation.
        m.tick().unwrap();
        m.tick().unwrap();
        m.tick().unwrap();
        assert!(matches!(m.tick(), Err(BudgetError::Cancelled { .. })));
    }

    #[test]
    fn errors_display_usefully() {
        let e = BudgetError::DeadlineExceeded {
            limit: Duration::from_millis(10),
            used_iters: 7,
        };
        assert!(e.to_string().contains("10ms"));
        assert!(BudgetError::IterationsExceeded { cap: 3 }
            .to_string()
            .contains('3'));
        assert!(BudgetError::Cancelled { used_iters: 1 }
            .to_string()
            .contains("cancelled"));
    }
}
