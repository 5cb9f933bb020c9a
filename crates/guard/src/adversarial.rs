//! Adversarial-input generation for the fault-injection harness.
//!
//! This crate sits below the graph/model crates in the dependency order,
//! so it cannot construct topologies directly. Instead it provides:
//!
//! * [`hostile_floats`] — the scalar corpus every numeric entry point must
//!   survive (NaN, infinities, negatives, denormals, huge magnitudes);
//! * [`CaseSpec`] — an enumeration of the structural attack classes; the
//!   workspace-level harness (`tests/fault_injection.rs`) materializes
//!   each spec into concrete topologies, traffic matrices, and LPs;
//! * [`Xorshift`] — a tiny deterministic PRNG so fuzz-ish sweeps stay
//!   reproducible without pulling the `rand` crate into this layer.

/// The scalar corpus: every value a demand, capacity, eps, or objective
/// coefficient could be poisoned with.
pub fn hostile_floats() -> [f64; 10] {
    [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        1e300,
        -1e300,
    ]
}

/// Structural attack classes the fault-injection harness must cover.
/// Each variant names one way real deployments have corrupted solver
/// inputs; the harness asserts a typed error (never a panic or hang) for
/// every class on every public solver entry point it applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseSpec {
    /// A demand entry with a NaN volume.
    NanDemand,
    /// A demand entry with a negative volume.
    NegativeDemand,
    /// A demand entry with zero volume.
    ZeroDemand,
    /// A demand whose source equals its destination.
    SelfLoopDemand,
    /// An edge with zero capacity on a path the solver must use.
    ZeroCapacityEdge,
    /// A self-loop edge in the topology graph.
    SelfLoopEdge,
    /// A disconnected graph with cross-component demands.
    DisconnectedGraph,
    /// An empty traffic matrix.
    EmptyTraffic,
    /// A degenerate LP (many redundant constraints through one vertex).
    DegenerateLp,
    /// An infeasible LP.
    InfeasibleLp,
    /// An unbounded LP.
    UnboundedLp,
    /// A budget that expires almost immediately.
    NearExpiredBudget,
    /// A budget with a tiny iteration cap.
    TinyIterationCap,
    /// A pre-cancelled budget.
    PreCancelled,
}

/// All attack classes, for exhaustive harness sweeps.
pub fn all_cases() -> &'static [CaseSpec] {
    &[
        CaseSpec::NanDemand,
        CaseSpec::NegativeDemand,
        CaseSpec::ZeroDemand,
        CaseSpec::SelfLoopDemand,
        CaseSpec::ZeroCapacityEdge,
        CaseSpec::SelfLoopEdge,
        CaseSpec::DisconnectedGraph,
        CaseSpec::EmptyTraffic,
        CaseSpec::DegenerateLp,
        CaseSpec::InfeasibleLp,
        CaseSpec::UnboundedLp,
        CaseSpec::NearExpiredBudget,
        CaseSpec::TinyIterationCap,
        CaseSpec::PreCancelled,
    ]
}

/// A tiny xorshift64* PRNG: deterministic, seedable, dependency-free.
/// Not for statistics — only for generating reproducible hostile inputs.
#[derive(Debug, Clone)]
pub struct Xorshift(u64);

impl Xorshift {
    /// Creates a generator from a non-zero seed (zero is mapped to a
    /// fixed constant, since xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        Xorshift(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// Next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Next value in `0..bound` (`bound > 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Next `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_the_classics() {
        let c = hostile_floats();
        assert!(c.iter().any(|v| v.is_nan()));
        assert!(c.contains(&f64::INFINITY));
        assert!(c.contains(&f64::NEG_INFINITY));
        assert!(c.iter().any(|&v| v < 0.0));
        assert!(c.contains(&0.0));
    }

    #[test]
    fn all_cases_is_exhaustive_enough() {
        assert!(all_cases().len() >= 12);
    }

    #[test]
    fn xorshift_is_deterministic_and_in_range() {
        let mut a = Xorshift::new(42);
        let mut b = Xorshift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..100 {
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(a.next_below(7) < 7);
        }
        // Zero seed does not get stuck.
        let mut z = Xorshift::new(0);
        assert_ne!(z.next_u64(), z.next_u64());
    }
}
