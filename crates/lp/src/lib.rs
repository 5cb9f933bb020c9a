//! A small, dependency-free linear-programming solver.
//!
//! The paper solves path-based multi-commodity flow LPs with Gurobi; no
//! comparable solver is available as an offline crate, so this workspace
//! carries its own. The implementation is a classic dense **two-phase
//! primal simplex** on the full tableau with Dantzig pricing and a Bland's
//! rule fallback for anti-cycling. It is meant for the *exact* solves on
//! small instances (hundreds of variables/constraints) that ground-truth
//! the scalable FPTAS in `dcn-mcf`; it is not a sparse industrial solver.
//!
//! Model: maximize `c · x` subject to linear constraints and `x >= 0`.
//!
//! ```
//! use dcn_guard::prelude::*;
//! use dcn_lp::{Cmp, LinearProgram, LpStatus};
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2
//! let mut lp = LinearProgram::new(2);
//! lp.set_objective(&[(0, 3.0), (1, 2.0)]);
//! lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 4.0);
//! lp.add_constraint(&[(0, 1.0)], Cmp::Le, 2.0);
//! let sol = lp.solve(&unlimited()).unwrap();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective - 10.0).abs() < 1e-9); // x=2, y=2
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod simplex;

pub use simplex::solve_tableau;

use dcn_guard::{Budget, BudgetError, CertError};

/// A failure of the guarded solve path ([`LinearProgram::solve`]).
///
/// `Infeasible`/`Unbounded` are *outcomes*, reported through
/// [`LpSolution::status`]; this enum covers only the cases where no usable
/// solution object exists at all.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The execution budget (deadline, iteration cap, or cancellation)
    /// was exhausted mid-solve.
    Budget(BudgetError),
    /// The program contains a non-finite coefficient or RHS; solving it
    /// would only propagate NaN/inf into the tableau.
    BadInput(CertError),
    /// The solver claimed optimality but the solution failed a post-solve
    /// certificate check (feasibility residual or duality gap).
    Certificate(CertError),
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Budget(e) => write!(f, "lp solve aborted: {e}"),
            LpError::BadInput(e) => write!(f, "lp input rejected: {e}"),
            LpError::Certificate(e) => write!(f, "lp certificate failed: {e}"),
        }
    }
}

impl std::error::Error for LpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LpError::Budget(e) => Some(e),
            LpError::BadInput(e) | LpError::Certificate(e) => Some(e),
        }
    }
}

impl From<BudgetError> for LpError {
    fn from(e: BudgetError) -> Self {
        LpError::Budget(e)
    }
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Less-than-or-equal constraint.
    Le,
    /// Greater-than-or-equal constraint.
    Ge,
    /// Equality constraint.
    Eq,
}

/// Solver outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
}

/// A linear program: maximize `c · x`, `x >= 0`, subject to constraints.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    n_vars: usize,
    objective: Vec<f64>,
    rows: Vec<ConstraintRow>,
}

#[derive(Debug, Clone)]
struct ConstraintRow {
    coeffs: Vec<(usize, f64)>,
    cmp: Cmp,
    rhs: f64,
}

/// Solution of a [`LinearProgram`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Solver outcome.
    pub status: LpStatus,
    /// Objective value (meaningful only when `status == Optimal`).
    pub objective: f64,
    /// Primal variable values (meaningful only when `status == Optimal`).
    pub x: Vec<f64>,
}

impl LinearProgram {
    /// Creates a program over `n_vars` non-negative variables with a zero
    /// objective.
    pub fn new(n_vars: usize) -> Self {
        LinearProgram {
            n_vars,
            objective: vec![0.0; n_vars],
            rows: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of constraints.
    pub fn n_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Sets objective coefficients (sparse; unspecified entries stay 0).
    /// Panics if a variable index is out of range.
    pub fn set_objective(&mut self, coeffs: &[(usize, f64)]) {
        for &(j, c) in coeffs {
            assert!(j < self.n_vars, "objective variable {j} out of range");
            self.objective[j] = c;
        }
    }

    /// Adds a sparse constraint row. Panics if a variable index is out of
    /// range. Duplicate indices are summed.
    pub fn add_constraint(&mut self, coeffs: &[(usize, f64)], cmp: Cmp, rhs: f64) {
        let mut acc: Vec<(usize, f64)> = Vec::with_capacity(coeffs.len());
        for &(j, c) in coeffs {
            assert!(j < self.n_vars, "constraint variable {j} out of range");
            if let Some(e) = acc.iter_mut().find(|(i, _)| *i == j) {
                e.1 += c;
            } else {
                acc.push((j, c));
            }
        }
        self.rows.push(ConstraintRow {
            coeffs: acc,
            cmp,
            rhs,
        });
    }

    /// Solves the program with two-phase primal simplex under an execution
    /// [`Budget`].
    ///
    /// The input is screened for NaN/inf coefficients up front (rejected
    /// as [`LpError::BadInput`]); the simplex loop ticks the budget once
    /// per pivot, so a deadline, iteration cap, or cancellation surfaces
    /// as [`LpError::Budget`] instead of a stall. When certificate
    /// validation is enabled (`DCN_VALIDATE`, or by default in debug
    /// builds) the returned optimum is re-checked against the constraints
    /// and the duality gap.
    ///
    /// ```
    /// use dcn_guard::Budget;
    /// use dcn_lp::{Cmp, LinearProgram, LpError};
    /// let mut lp = LinearProgram::new(1);
    /// lp.set_objective(&[(0, 1.0)]);
    /// lp.add_constraint(&[(0, 1.0)], Cmp::Le, 2.0);
    /// let sol = lp.solve(&Budget::unlimited()).unwrap();
    /// assert!((sol.objective - 2.0).abs() < 1e-9);
    /// ```
    pub fn solve(&self, budget: &Budget) -> Result<LpSolution, LpError> {
        self.screen_finite()?;
        simplex::solve(self, budget, dcn_guard::validation_enabled())
    }

    fn screen_finite(&self) -> Result<(), LpError> {
        for (j, &c) in self.objective.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::BadInput(CertError::NotFinite {
                    context: "objective coefficient",
                    value: self.objective[j],
                }));
            }
        }
        for row in &self.rows {
            if !row.rhs.is_finite() {
                return Err(LpError::BadInput(CertError::NotFinite {
                    context: "constraint rhs",
                    value: row.rhs,
                }));
            }
            for &(_, c) in &row.coeffs {
                if !c.is_finite() {
                    return Err(LpError::BadInput(CertError::NotFinite {
                        context: "constraint coefficient",
                        value: c,
                    }));
                }
            }
        }
        Ok(())
    }

    pub(crate) fn rows(&self) -> &[ConstraintRow] {
        &self.rows
    }

    pub(crate) fn objective(&self) -> &[f64] {
        &self.objective
    }
}



#[cfg(test)]
mod tests {
    use super::*;

    #[expect(
        clippy::type_complexity,
        reason = "the constraint triples read better inline than behind a test-only alias"
    )]
    fn solve3(
        n: usize,
        obj: &[(usize, f64)],
        cons: &[(&[(usize, f64)], Cmp, f64)],
    ) -> LpSolution {
        let mut lp = LinearProgram::new(n);
        lp.set_objective(obj);
        for (c, cmp, b) in cons {
            lp.add_constraint(c, *cmp, *b);
        }
        lp.solve(&Budget::unlimited()).unwrap()
    }

    #[test]
    fn basic_maximization() {
        // max 3x + 5y; x <= 4; 2y <= 12; 3x + 2y <= 18 → z = 36 at (2, 6).
        let sol = solve3(
            2,
            &[(0, 3.0), (1, 5.0)],
            &[
                (&[(0, 1.0)], Cmp::Le, 4.0),
                (&[(1, 2.0)], Cmp::Le, 12.0),
                (&[(0, 3.0), (1, 2.0)], Cmp::Le, 18.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 36.0).abs() < 1e-9);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!((sol.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn ge_and_eq_constraints() {
        // max x + y; x + y <= 10; x >= 3; y = 2 → z = 5+... x=8,y=2 → 10.
        let sol = solve3(
            2,
            &[(0, 1.0), (1, 1.0)],
            &[
                (&[(0, 1.0), (1, 1.0)], Cmp::Le, 10.0),
                (&[(0, 1.0)], Cmp::Ge, 3.0),
                (&[(1, 1.0)], Cmp::Eq, 2.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 10.0).abs() < 1e-9);
        assert!((sol.x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let sol = solve3(
            1,
            &[(0, 1.0)],
            &[
                (&[(0, 1.0)], Cmp::Le, 1.0),
                (&[(0, 1.0)], Cmp::Ge, 2.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let sol = solve3(2, &[(0, 1.0)], &[(&[(1, 1.0)], Cmp::Le, 5.0)]);
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_handled() {
        // x - y <= -2  with max x, x + y <= 10 → y >= x + 2; best x = 4.
        let sol = solve3(
            2,
            &[(0, 1.0)],
            &[
                (&[(0, 1.0), (1, -1.0)], Cmp::Le, -2.0),
                (&[(0, 1.0), (1, 1.0)], Cmp::Le, 10.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the same vertex.
        let sol = solve3(
            2,
            &[(0, 1.0), (1, 1.0)],
            &[
                (&[(0, 1.0)], Cmp::Le, 1.0),
                (&[(1, 1.0)], Cmp::Le, 1.0),
                (&[(0, 1.0), (1, 1.0)], Cmp::Le, 2.0),
                (&[(0, 2.0), (1, 2.0)], Cmp::Le, 4.0),
                (&[(0, 1.0), (1, 2.0)], Cmp::Le, 3.0),
                (&[(0, 2.0), (1, 1.0)], Cmp::Le, 3.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let sol = solve3(1, &[], &[(&[(0, 1.0)], Cmp::Eq, 3.0)]);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.x[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_indices_summed() {
        // x + x <= 4 means 2x <= 4.
        let sol = solve3(1, &[(0, 1.0)], &[(&[(0, 1.0), (0, 1.0)], Cmp::Le, 4.0)]);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_var_panics() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[(3, 1.0)]);
    }

    #[test]
    fn budget_cap_aborts_solve() {
        // An LP that needs several pivots, but a cap of 1 tick.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 3.0), (1, 5.0)]);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Cmp::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Cmp::Le, 18.0);
        let budget = Budget::unlimited().with_iter_cap(1);
        assert!(matches!(
            lp.solve(&budget),
            Err(LpError::Budget(BudgetError::IterationsExceeded { cap: 1 }))
        ));
        // With room to finish, the same program solves.
        let sol = lp.solve(&Budget::unlimited()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 36.0).abs() < 1e-9);
    }

    #[test]
    fn expired_deadline_aborts_solve() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 1.0);
        let budget = Budget::unlimited().with_wall(std::time::Duration::ZERO);
        assert!(matches!(
            lp.solve(&budget),
            Err(LpError::Budget(BudgetError::DeadlineExceeded { .. }))
        ));
    }

    #[test]
    fn non_finite_input_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut lp = LinearProgram::new(1);
            lp.set_objective(&[(0, bad)]);
            assert!(matches!(
                lp.solve(&Budget::unlimited()),
                Err(LpError::BadInput(_))
            ));

            let mut lp = LinearProgram::new(1);
            lp.add_constraint(&[(0, 1.0)], Cmp::Le, bad);
            assert!(matches!(
                lp.solve(&Budget::unlimited()),
                Err(LpError::BadInput(_))
            ));

            let mut lp = LinearProgram::new(1);
            lp.add_constraint(&[(0, bad)], Cmp::Le, 1.0);
            assert!(matches!(
                lp.solve(&Budget::unlimited()),
                Err(LpError::BadInput(_))
            ));
        }
    }

    #[test]
    fn repeated_solves_agree() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 1.0), (1, 1.0)]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 10.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Ge, 3.0);
        lp.add_constraint(&[(1, 1.0)], Cmp::Eq, 2.0);
        let plain = lp.solve(&Budget::unlimited()).unwrap();
        let guarded = lp.solve(&Budget::unlimited()).unwrap();
        assert_eq!(plain.status, guarded.status);
        assert!((plain.objective - guarded.objective).abs() < 1e-9);
    }

    #[test]
    fn concurrent_flow_shape() {
        // Miniature of the MCF LP: maximize theta with two paths sharing an
        // edge. Variables: f1, f2, theta. Demands 1 each:
        //   f1 - theta >= 0; f2 - theta >= 0; f1 + f2 <= 1.
        // Optimal theta = 0.5.
        let sol = solve3(
            3,
            &[(2, 1.0)],
            &[
                (&[(0, 1.0), (2, -1.0)], Cmp::Ge, 0.0),
                (&[(1, 1.0), (2, -1.0)], Cmp::Ge, 0.0),
                (&[(0, 1.0), (1, 1.0)], Cmp::Le, 1.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 0.5).abs() < 1e-9);
    }
}
