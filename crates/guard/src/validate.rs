//! Post-solve certificate validation.
//!
//! Every solver in the workspace produces an answer with a checkable
//! certificate: an LP solution must satisfy its constraints, an MCF flow
//! must respect capacities and serve `θ·T`, an FPTAS bracket must be
//! ordered, a hose matrix must respect per-switch rates. The checks here
//! are `O(solution size)` — far cheaper than the solve — but they are still
//! off the hot path by default in release builds.
//!
//! # Enabling
//!
//! Validation runs when [`validation_enabled`] returns true:
//!
//! * `DCN_VALIDATE=1` / `on` / `true` — always on;
//! * `DCN_VALIDATE=0` / `off` / `false` — always off;
//! * unset — on in debug builds (`debug_assertions`), off in release.
//!
//! Each failed check bumps the `guard.validate.failures` counter before
//! returning, so manifests record certificate trouble even when the caller
//! swallows the error.

use std::sync::OnceLock;

/// Default tolerance for feasibility residuals. Matches the simplex pivot
/// epsilon scale with headroom for accumulated rounding.
pub const DEFAULT_TOL: f64 = 1e-6;

static ENABLED: OnceLock<bool> = OnceLock::new();

/// True when certificate checks should run (see module docs for the
/// `DCN_VALIDATE` / debug-build policy). Read once per process.
pub fn validation_enabled() -> bool {
    *ENABLED.get_or_init(|| match dcn_obs::env::VALIDATE.get().as_deref() {
        Some("1") | Some("on") | Some("true") => true,
        Some("0") | Some("off") | Some("false") => false,
        _ => cfg!(debug_assertions),
    })
}

/// A failed post-solve certificate check.
#[derive(Debug, Clone, PartialEq)]
pub enum CertError {
    /// A value that must be finite is NaN or infinite.
    NotFinite {
        /// What the value was (e.g. `"lp objective"`).
        context: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A lower/upper bound pair is inverted beyond tolerance.
    BracketInverted {
        /// Reported lower bound.
        lb: f64,
        /// Reported upper bound.
        ub: f64,
    },
    /// A flow exceeds an edge capacity beyond tolerance.
    CapacityViolated {
        /// Directed edge index.
        edge: usize,
        /// Load placed on the edge.
        load: f64,
        /// Edge capacity.
        cap: f64,
    },
    /// A commodity is served less than the claimed `θ · demand`.
    DemandUnderServed {
        /// Commodity index.
        commodity: usize,
        /// Flow actually routed.
        served: f64,
        /// Flow the certificate claims (`θ · demand`).
        required: f64,
    },
    /// A hose-model rate cap is violated.
    HoseViolated {
        /// Switch index.
        node: usize,
        /// Aggregate send or receive rate.
        rate: f64,
        /// The switch's hose cap.
        cap: f64,
    },
    /// Primal and dual objective values disagree beyond tolerance.
    DualityGap {
        /// Primal objective.
        primal: f64,
        /// Dual objective.
        dual: f64,
    },
    /// An LP constraint is violated by the returned point.
    ConstraintViolated {
        /// Constraint row index.
        row: usize,
        /// Residual (positive = violation magnitude).
        residual: f64,
    },
    /// The recorded simplex basis is numerically singular — the tableau
    /// drifted far enough that the basis bookkeeping no longer describes
    /// an invertible system, so no trustworthy solution can be extracted.
    SingularBasis {
        /// The basis column that could not be pivoted to a unit vector.
        col: usize,
    },
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::NotFinite { context, value } => {
                write!(f, "certificate: {context} is not finite ({value})")
            }
            CertError::BracketInverted { lb, ub } => {
                write!(f, "certificate: bracket inverted (lb {lb} > ub {ub})")
            }
            CertError::CapacityViolated { edge, load, cap } => write!(
                f,
                "certificate: edge {edge} overloaded (load {load} > cap {cap})"
            ),
            CertError::DemandUnderServed {
                commodity,
                served,
                required,
            } => write!(
                f,
                "certificate: commodity {commodity} under-served ({served} < {required})"
            ),
            CertError::HoseViolated { node, rate, cap } => write!(
                f,
                "certificate: hose cap violated at switch {node} (rate {rate} > cap {cap})"
            ),
            CertError::DualityGap { primal, dual } => write!(
                f,
                "certificate: duality gap (primal {primal} vs dual {dual})"
            ),
            CertError::ConstraintViolated { row, residual } => write!(
                f,
                "certificate: constraint {row} violated by {residual}"
            ),
            CertError::SingularBasis { col } => write!(
                f,
                "certificate: simplex basis is numerically singular at column {col}"
            ),
        }
    }
}

impl std::error::Error for CertError {}

fn fail(e: CertError) -> Result<(), CertError> {
    dcn_obs::counter!(dcn_obs::names::GUARD_VALIDATE_FAILURES).inc();
    Err(e)
}

/// Screens a slice for NaN/inf. `context` names the quantity in the error.
pub fn ensure_finite(context: &'static str, values: &[f64]) -> Result<(), CertError> {
    for &v in values {
        if !v.is_finite() {
            return fail(CertError::NotFinite { context, value: v });
        }
    }
    Ok(())
}

/// Screens a single scalar for NaN/inf.
pub fn ensure_finite_scalar(context: &'static str, value: f64) -> Result<(), CertError> {
    if !value.is_finite() {
        return fail(CertError::NotFinite { context, value });
    }
    Ok(())
}

/// Checks `lb <= ub` (within `tol`, relative to `ub`) and that both are
/// finite and non-negative — the invariant of every certified bracket.
pub fn check_bracket(lb: f64, ub: f64, tol: f64) -> Result<(), CertError> {
    ensure_finite("bracket lower bound", &[lb])?;
    if ub.is_nan() {
        return fail(CertError::NotFinite {
            context: "bracket upper bound",
            value: ub,
        });
    }
    if lb < -tol || lb > ub * (1.0 + tol) + tol {
        return fail(CertError::BracketInverted { lb, ub });
    }
    Ok(())
}

/// Checks `load[e] <= cap[e] * (1 + tol)` for every edge.
pub fn check_capacity(loads: &[f64], caps: &[f64], tol: f64) -> Result<(), CertError> {
    for (e, (&load, &cap)) in loads.iter().zip(caps.iter()).enumerate() {
        if !load.is_finite() {
            return fail(CertError::NotFinite {
                context: "edge load",
                value: load,
            });
        }
        if load > cap * (1.0 + tol) + tol {
            return fail(CertError::CapacityViolated { edge: e, load, cap });
        }
    }
    Ok(())
}

/// Checks that every commodity receives at least `theta * demand`
/// (within `tol`, relative).
pub fn check_demands_served(
    served: &[f64],
    demands: &[f64],
    theta: f64,
    tol: f64,
) -> Result<(), CertError> {
    for (j, (&s, &d)) in served.iter().zip(demands.iter()).enumerate() {
        let required = theta * d;
        if s < required * (1.0 - tol) - tol {
            return fail(CertError::DemandUnderServed {
                commodity: j,
                served: s,
                required,
            });
        }
    }
    Ok(())
}

/// Checks the hose model: per-node send (`tx`) and receive (`rx`) rates
/// must not exceed `caps` (within `tol`, relative).
pub fn check_hose(tx: &[f64], rx: &[f64], caps: &[f64], tol: f64) -> Result<(), CertError> {
    for (u, &cap) in caps.iter().enumerate() {
        let limit = cap * (1.0 + tol) + tol;
        if tx[u] > limit {
            return fail(CertError::HoseViolated {
                node: u,
                rate: tx[u],
                cap,
            });
        }
        if rx[u] > limit {
            return fail(CertError::HoseViolated {
                node: u,
                rate: rx[u],
                cap,
            });
        }
    }
    Ok(())
}

/// Checks primal/dual agreement: `|primal - dual| <= tol * max(1, |primal|)`.
/// At simplex optimality the duality gap is exactly zero in exact
/// arithmetic; anything beyond rounding noise means a wrong certificate.
pub fn check_duality_gap(primal: f64, dual: f64, tol: f64) -> Result<(), CertError> {
    ensure_finite("primal objective", &[primal])?;
    ensure_finite("dual objective", &[dual])?;
    if (primal - dual).abs() > tol * primal.abs().max(1.0) {
        return fail(CertError::DualityGap { primal, dual });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_screening() {
        assert!(ensure_finite("x", &[0.0, 1.5, -2.0]).is_ok());
        assert!(matches!(
            ensure_finite("x", &[0.0, f64::NAN]),
            Err(CertError::NotFinite { .. })
        ));
        assert!(ensure_finite_scalar("y", f64::INFINITY).is_err());
    }

    #[test]
    fn bracket_ordering() {
        assert!(check_bracket(0.5, 0.6, 1e-9).is_ok());
        assert!(check_bracket(0.5, 0.5, 1e-9).is_ok());
        // +inf upper bound is a valid (vacuous) certificate.
        assert!(check_bracket(0.5, f64::INFINITY, 1e-9).is_ok());
        assert!(matches!(
            check_bracket(0.7, 0.5, 1e-9),
            Err(CertError::BracketInverted { .. })
        ));
        assert!(check_bracket(f64::NAN, 1.0, 1e-9).is_err());
        assert!(check_bracket(0.1, f64::NAN, 1e-9).is_err());
        assert!(check_bracket(-1.0, 1.0, 1e-9).is_err());
    }

    #[test]
    fn capacity_residuals() {
        assert!(check_capacity(&[0.9, 1.0], &[1.0, 1.0], 1e-6).is_ok());
        assert!(matches!(
            check_capacity(&[1.1], &[1.0], 1e-6),
            Err(CertError::CapacityViolated { edge: 0, .. })
        ));
        assert!(check_capacity(&[f64::NAN], &[1.0], 1e-6).is_err());
    }

    #[test]
    fn demand_service() {
        assert!(check_demands_served(&[0.5], &[1.0], 0.5, 1e-6).is_ok());
        assert!(matches!(
            check_demands_served(&[0.4], &[1.0], 0.5, 1e-6),
            Err(CertError::DemandUnderServed { .. })
        ));
    }

    #[test]
    fn hose_caps() {
        let caps = [2.0, 2.0];
        assert!(check_hose(&[2.0, 1.0], &[1.0, 2.0], &caps, 1e-6).is_ok());
        assert!(matches!(
            check_hose(&[2.5, 0.0], &[0.0, 0.0], &caps, 1e-6),
            Err(CertError::HoseViolated { node: 0, .. })
        ));
    }

    #[test]
    fn duality() {
        assert!(check_duality_gap(10.0, 10.0 + 1e-9, 1e-6).is_ok());
        assert!(matches!(
            check_duality_gap(10.0, 11.0, 1e-6),
            Err(CertError::DualityGap { .. })
        ));
    }
}
