//! Two-phase primal simplex with a sparse refactorization base.
//!
//! The tableau has one row per constraint plus an objective row, and one
//! column per variable (decision + slack/surplus + artificial) plus the
//! RHS. Pricing is Dantzig (most negative reduced cost); after a large
//! number of iterations the solver switches to Bland's rule, which
//! guarantees termination on degenerate problems.
//!
//! The pristine standard-form rows are stored **sparsely** (path LPs are
//! over 95% zeros) and every refactorization streams them back into the
//! dense working tableau, so the periodic drift-shedding rebuild costs
//! O(nnz) instead of O(rows × cols) per row scatter.
//!
//! Both phases meter a [`dcn_guard::Budget`]: one tick per pivot
//! iteration, so a deadline or iteration cap turns a pathological solve
//! into a typed [`LpError::Budget`] instead of a multi-minute stall.

use crate::{Cmp, LinearProgram, LpError, LpSolution, LpStatus};
use dcn_guard::tol::approx_zero;
use dcn_guard::{validate, Budget, BudgetMeter};

const EPS: f64 = 1e-9;
/// Minimum magnitude for a ratio-test pivot element. Accumulated
/// cancellation noise in the tableau sits just above `EPS`; pivoting on it
/// (dividing the row by ~1e-8) amplifies that noise into O(1) primal error
/// on degenerate problems. Entries below this are treated as zero.
const PIVOT_TOL: f64 = 1e-7;
/// Per-row normalization applied at tableau setup: rows with negative RHS
/// are sign-flipped so all RHS are non-negative.
#[derive(Clone, Copy)]
struct RowInfo {
    flip: bool,
    cmp: Cmp,
}

/// Sparse copy of the pristine standard-form constraint rows (without the
/// objective row): refactorization rebuilds the working tableau from
/// these. Stored as per-row `(col, value)` runs — the standard form of a
/// path LP is overwhelmingly sparse, so scattering beats a dense copy.
struct Pristine {
    rows: Vec<Vec<(u32, f64)>>,
    cols: usize,
}

impl Pristine {
    fn from_dense(a: &[f64], rows: usize, cols: usize) -> Pristine {
        let rows = (0..rows)
            .map(|r| {
                a[r * cols..(r + 1) * cols]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(c, &v)| (c as u32, v))
                    .collect()
            })
            .collect();
        Pristine { rows, cols }
    }

    /// Scatters the pristine rows back into `a` (the first `rows × cols`
    /// entries of a working tableau).
    fn write_into(&self, a: &mut [f64]) {
        let n = self.rows.len() * self.cols;
        a[..n].fill(0.0);
        for (r, row) in self.rows.iter().enumerate() {
            let base = r * self.cols;
            for &(c, v) in row {
                a[base + c as usize] = v;
            }
        }
    }
}

struct Tableau {
    rows: usize, // constraint rows
    cols: usize, // total columns including RHS
    a: Vec<f64>, // (rows + 1) x cols, last row = objective
    basis: Vec<usize>,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.cols + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.cols + c] = v;
    }

    #[inline]
    fn rhs_col(&self) -> usize {
        self.cols - 1
    }

    fn pivot(&mut self, pr: usize, pc: usize) {
        let cols = self.cols;
        let piv = self.at(pr, pc);
        debug_assert!(piv.abs() > EPS);
        let inv = 1.0 / piv;
        for c in 0..cols {
            self.a[pr * cols + c] *= inv;
        }
        for r in 0..=self.rows {
            if r == pr {
                continue;
            }
            let factor = self.at(r, pc);
            if factor.abs() <= EPS {
                continue;
            }
            for c in 0..cols {
                let v = self.a[pr * cols + c];
                self.a[r * cols + c] -= factor * v;
            }
        }
        self.basis[pr] = pc;
    }

    /// Runs simplex iterations on the current objective row until optimal
    /// or unbounded. `n_price` columns are eligible for entering.
    /// Returns the iteration count alongside the status so callers can
    /// attribute work to phase 1 vs phase 2. One budget tick per pivot.
    ///
    /// `refresh` carries the pristine standard-form rows plus the phase
    /// objective; when present the tableau is refactorized from them every
    /// ~`rows` pivots, so pivot decisions are always made within one
    /// refresh period of a numerically clean tableau. Without this, long
    /// degenerate runs (thousands of pivots on path LPs) accumulate enough
    /// drift to admit linearly dependent columns into the basis.
    fn optimize(
        &mut self,
        n_price: usize,
        meter: &mut BudgetMeter<'_>,
        refresh: Option<(&Pristine, &[f64])>,
    ) -> Result<(LpStatus, u64), LpError> {
        let mut iters = 0usize;
        let bland_after = 50 * (self.rows + n_price).max(64);
        let refresh_every = self.rows.max(64);
        // Hoisted registry handles: the per-pivot cost stays at a couple
        // of relaxed atomic adds, no locks.
        let pivots_ctr = dcn_obs::counter!(dcn_obs::names::LP_SIMPLEX_PIVOTS);
        let degen_ctr = dcn_obs::counter!(dcn_obs::names::LP_SIMPLEX_DEGENERATE_PIVOTS);
        let bland_ctr = dcn_obs::counter!(dcn_obs::names::LP_SIMPLEX_BLAND_ACTIVATIONS);
        let refactor_ctr = dcn_obs::counter!(dcn_obs::names::LP_SIMPLEX_REFACTORIZATIONS);
        let mut bland_counted = false;
        loop {
            meter.tick()?;
            iters += 1;
            if iters > bland_after && !bland_counted {
                bland_ctr.inc();
                bland_counted = true;
            }
            if let Some((pristine, objective)) = refresh {
                if iters.is_multiple_of(refresh_every) {
                    self.refactor(pristine, objective).map_err(|col| {
                        LpError::Certificate(dcn_guard::CertError::SingularBasis { col })
                    })?;
                    refactor_ctr.inc();
                }
            }
            // Entering column.
            let obj_row = self.rows;
            let mut enter: Option<usize> = None;
            if iters <= bland_after {
                // Dantzig: most negative reduced cost.
                let mut best = -EPS;
                for c in 0..n_price {
                    let rc = self.at(obj_row, c);
                    if rc < best {
                        best = rc;
                        enter = Some(c);
                    }
                }
            } else {
                // Bland: smallest index with negative reduced cost.
                for c in 0..n_price {
                    if self.at(obj_row, c) < -EPS {
                        enter = Some(c);
                        break;
                    }
                }
            }
            let pc = match enter {
                Some(c) => c,
                None => return Ok((LpStatus::Optimal, iters as u64 - 1)),
            };
            // Two-pass ratio test. Pass 1: minimum ratio over eligible
            // pivots (magnitude above PIVOT_TOL, so tableau noise never
            // becomes a divisor).
            let rhs = self.rhs_col();
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows {
                let a = self.at(r, pc);
                if a > PIVOT_TOL {
                    best_ratio = best_ratio.min(self.at(r, rhs) / a);
                }
            }
            // Pass 2 over near-ties: smallest basis index (the
            // anti-cycling tie-break; a stability tie-break on pivot
            // magnitude stalls on these highly degenerate path LPs).
            let mut pr: Option<usize> = None;
            if best_ratio.is_finite() {
                for r in 0..self.rows {
                    let a = self.at(r, pc);
                    if a > PIVOT_TOL
                        && self.at(r, rhs) / a <= best_ratio + EPS
                        && pr.is_none_or(|p| self.basis[r] < self.basis[p])
                    {
                        pr = Some(r);
                    }
                }
            }
            match pr {
                Some(r) => {
                    pivots_ctr.inc();
                    if best_ratio <= EPS {
                        degen_ctr.inc();
                    }
                    self.pivot(r, pc)
                }
                None => return Ok((LpStatus::Unbounded, iters as u64 - 1)),
            }
        }
    }

    /// Rebuilds the tableau from the pristine standard-form rows for the
    /// current basis (Gauss–Jordan with partial pivoting), discarding the
    /// floating-point drift accumulated over the pivot history, and
    /// installs `objective` as a freshly canonicalized objective row.
    /// Rank-revealing: returns the basis column that cannot be reduced to
    /// a unit vector if the recorded basis is numerically singular.
    fn refactor(&mut self, pristine: &Pristine, objective: &[f64]) -> Result<(), usize> {
        let cols = self.cols;
        let m = self.rows;
        pristine.write_into(&mut self.a);
        for c in 0..cols {
            self.a[m * cols + c] = 0.0;
        }
        for (j, &cj) in objective.iter().enumerate() {
            self.a[m * cols + j] = -cj;
        }
        let basis_cols = std::mem::take(&mut self.basis);
        let mut owned = vec![false; m];
        let mut new_basis = vec![usize::MAX; m];
        for &bc in &basis_cols {
            // Partial pivoting: the free row with the largest magnitude.
            let mut pr = usize::MAX;
            let mut best = 1e-10;
            for (r, &taken) in owned.iter().enumerate() {
                if !taken {
                    let v = self.at(r, bc).abs();
                    if v > best {
                        best = v;
                        pr = r;
                    }
                }
            }
            if pr == usize::MAX {
                self.basis = basis_cols;
                return Err(bc);
            }
            owned[pr] = true;
            new_basis[pr] = bc;
            let inv = 1.0 / self.at(pr, bc);
            for c in 0..cols {
                self.a[pr * cols + c] *= inv;
            }
            for r in 0..=m {
                if r == pr {
                    continue;
                }
                let factor = self.at(r, bc);
                // Eliminating sub-EPS factors would only write noise already
                // below the validation tolerance into the row.
                if !approx_zero(factor, EPS) {
                    for c in 0..cols {
                        let v = self.a[pr * cols + c];
                        self.a[r * cols + c] -= factor * v;
                    }
                }
            }
        }
        self.basis = new_basis;
        Ok(())
    }
}

/// The standard-form expansion of a [`LinearProgram`]: the working
/// tableau with its identity basis, the sparse pristine rows, and the
/// column bookkeeping.
struct StandardForm {
    t: Tableau,
    infos: Vec<RowInfo>,
    /// Identity column introduced for each row (slack for Le, artificial
    /// for Ge/Eq): its phase-2 reduced cost is the row's dual value.
    id_col: Vec<usize>,
    pristine: Pristine,
    n: usize,
    n_art: usize,
    art_start: usize,
    total: usize,
}

fn standard_form(lp: &LinearProgram) -> StandardForm {
    let n = lp.n_vars();
    let m = lp.rows().len();

    // Count auxiliary columns. Rows with negative RHS are sign-flipped
    // first so that all RHS are non-negative.
    let mut infos = Vec::with_capacity(m);
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for row in lp.rows() {
        let flip = row.rhs < 0.0;
        let cmp = match (row.cmp, flip) {
            (Cmp::Le, false) | (Cmp::Ge, true) => Cmp::Le,
            (Cmp::Ge, false) | (Cmp::Le, true) => Cmp::Ge,
            (Cmp::Eq, _) => Cmp::Eq,
        };
        match cmp {
            Cmp::Le => n_slack += 1,
            Cmp::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Cmp::Eq => n_art += 1,
        }
        infos.push(RowInfo { flip, cmp });
    }

    let total = n + n_slack + n_art;
    let cols = total + 1;
    let mut t = Tableau {
        rows: m,
        cols,
        a: vec![0.0; (m + 1) * cols],
        basis: vec![usize::MAX; m],
    };

    let mut slack_at = n;
    let mut art_at = n + n_slack;
    let art_start = n + n_slack;
    let mut id_col = vec![0usize; m];
    for (r, (row, info)) in lp.rows().iter().zip(infos.iter()).enumerate() {
        let sign = if info.flip { -1.0 } else { 1.0 };
        for &(j, c) in &row.coeffs {
            let cur = t.at(r, j);
            t.set(r, j, cur + sign * c);
        }
        t.set(r, cols - 1, sign * row.rhs);
        match info.cmp {
            Cmp::Le => {
                t.set(r, slack_at, 1.0);
                t.basis[r] = slack_at;
                id_col[r] = slack_at;
                slack_at += 1;
            }
            Cmp::Ge => {
                t.set(r, slack_at, -1.0);
                slack_at += 1;
                t.set(r, art_at, 1.0);
                t.basis[r] = art_at;
                id_col[r] = art_at;
                art_at += 1;
            }
            Cmp::Eq => {
                t.set(r, art_at, 1.0);
                t.basis[r] = art_at;
                id_col[r] = art_at;
                art_at += 1;
            }
        }
    }

    // Pristine copy of the standard-form constraint rows: refactorization
    // rebuilds the tableau from these to shed accumulated rounding drift.
    let pristine = Pristine::from_dense(&t.a, m, cols);

    StandardForm {
        t,
        infos,
        id_col,
        pristine,
        n,
        n_art,
        art_start,
        total,
    }
}

/// Solves `lp` (maximize `c · x`, `x >= 0`) under `budget` on the
/// two-phase path: phase 1 with artificials, drive-out, then phase 2. When
/// `validate_certs` is set, the returned optimum is checked against its
/// certificates (finiteness, primal feasibility, duality gap) before being
/// handed back.
pub(crate) fn solve(
    lp: &LinearProgram,
    budget: &Budget,
    validate_certs: bool,
) -> Result<LpSolution, LpError> {
    let _span = dcn_obs::span!(dcn_obs::names::LP_SIMPLEX_SOLVE);
    let mut meter = budget.meter();
    let mut sf = standard_form(lp);
    let m = sf.t.rows;
    let cols = sf.t.cols;

    // Phase 1: minimize sum of artificials == maximize -sum.
    if sf.n_art > 0 {
        // Objective row: +1 for each artificial (reduced costs of the
        // maximization of -sum(artificials)), then make basic columns
        // canonical by subtracting their rows.
        for c in sf.art_start..sf.total {
            sf.t.set(m, c, 1.0);
        }
        for r in 0..m {
            if sf.t.basis[r] >= sf.art_start {
                for c in 0..cols {
                    let v = sf.t.at(r, c);
                    let cur = sf.t.at(m, c);
                    sf.t.set(m, c, cur - v);
                }
            }
        }
        let mut p1_obj = vec![0.0; sf.total];
        p1_obj[sf.art_start..sf.total].fill(-1.0);
        let (status, p1_iters) =
            sf.t.optimize(sf.total, &mut meter, Some((&sf.pristine, &p1_obj)))?;
        dcn_obs::counter!(dcn_obs::names::LP_SIMPLEX_PHASE1_ITERS).add(p1_iters);
        debug_assert_ne!(status, LpStatus::Unbounded, "phase 1 cannot be unbounded");
        let phase1 = -sf.t.at(m, cols - 1);
        if phase1 > 1e-7 {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                objective: 0.0,
                x: vec![0.0; sf.n],
            });
        }
        // Drive remaining artificials out of the basis where possible.
        for r in 0..m {
            if sf.t.basis[r] >= sf.art_start {
                let pc = (0..sf.art_start).find(|&c| sf.t.at(r, c).abs() > PIVOT_TOL);
                if let Some(pc) = pc {
                    sf.t.pivot(r, pc);
                }
                // If no pivot column exists the row is redundant (all-zero
                // over real variables); the artificial stays basic at 0.
            }
        }
    }

    // Phase 2: rebuild the tableau from pristine data with the real
    // objective. Refactorization both canonicalizes the objective row over
    // the phase-1 basis and discards phase-1 rounding drift. (Artificial
    // columns never re-enter: pricing below excludes them.)
    let singular = |col: usize| LpError::Certificate(dcn_guard::CertError::SingularBasis { col });
    sf.t.refactor(&sf.pristine, lp.objective())
        .map_err(singular)?;
    let mut resumes = 0u32;
    let status = loop {
        // Price real + slack columns only; periodic refreshes rebuild the
        // tableau from pristine data mid-run.
        let (status, p2_iters) = sf.t.optimize(
            sf.art_start,
            &mut meter,
            Some((&sf.pristine, lp.objective())),
        )?;
        dcn_obs::counter!(dcn_obs::names::LP_SIMPLEX_PHASE2_ITERS).add(p2_iters);
        if status != LpStatus::Optimal {
            break status;
        }
        // Refresh the tableau for the final basis. If the drift-free
        // reduced costs still price out non-negative the basis is truly
        // optimal; otherwise drift mis-terminated the run — keep pivoting
        // from the refreshed (numerically clean) tableau.
        sf.t.refactor(&sf.pristine, lp.objective())
            .map_err(singular)?;
        dcn_obs::counter!(dcn_obs::names::LP_SIMPLEX_REFACTORIZATIONS).inc();
        if (0..sf.art_start).all(|c| sf.t.at(m, c) >= -EPS) {
            break status;
        }
        resumes += 1;
        if resumes > 20 {
            // Never observed; a backstop so a pathological oscillation
            // cannot hang an unbudgeted solve. The certificate checks
            // below judge whatever this basis yields.
            break status;
        }
        dcn_obs::counter!(dcn_obs::names::LP_SIMPLEX_REFACTOR_RESUMES).inc();
    };
    if status == LpStatus::Unbounded {
        return Ok(LpSolution {
            status,
            objective: f64::INFINITY,
            x: vec![0.0; sf.n],
        });
    }
    extract(lp, &sf, validate_certs)
}

/// Reads the optimal solution out of the final tableau and runs the
/// certificate checks.
fn extract(
    lp: &LinearProgram,
    sf: &StandardForm,
    validate_certs: bool,
) -> Result<LpSolution, LpError> {
    let m = sf.t.rows;
    let cols = sf.t.cols;
    let mut x = vec![0.0; sf.n];
    for r in 0..m {
        let b = sf.t.basis[r];
        if b < sf.n {
            x[b] = sf.t.at(r, cols - 1);
        }
    }
    let objective: f64 = lp
        .objective()
        .iter()
        .zip(x.iter())
        .map(|(c, v)| c * v)
        .sum();
    let sol = LpSolution {
        status: LpStatus::Optimal,
        objective,
        x,
    };
    if validate_certs {
        verify_certificate(lp, &sol, &sf.t, &sf.infos, &sf.id_col).map_err(LpError::Certificate)?;
    }
    Ok(sol)
}

/// Post-solve certificate checks for an `Optimal` solution: finiteness,
/// primal feasibility of every constraint, and the strong-duality gap
/// recovered from the final tableau's reduced costs.
fn verify_certificate(
    lp: &LinearProgram,
    sol: &LpSolution,
    t: &Tableau,
    infos: &[RowInfo],
    id_col: &[usize],
) -> Result<(), dcn_guard::CertError> {
    const TOL: f64 = 1e-6;
    validate::ensure_finite("lp solution", &sol.x)?;
    validate::ensure_finite_scalar("lp objective", sol.objective)?;
    let m = lp.rows().len();
    // Primal feasibility.
    for (r, row) in lp.rows().iter().enumerate() {
        let lhs: f64 = row.coeffs.iter().map(|&(j, c)| c * sol.x[j]).sum();
        let slack_tol = TOL * (1.0 + row.rhs.abs());
        let residual = match row.cmp {
            Cmp::Le => lhs - row.rhs,
            Cmp::Ge => row.rhs - lhs,
            Cmp::Eq => (lhs - row.rhs).abs(),
        };
        if residual > slack_tol {
            dcn_obs::counter!(dcn_obs::names::GUARD_VALIDATE_FAILURES).inc();
            return Err(dcn_guard::CertError::ConstraintViolated { row: r, residual });
        }
    }
    // Strong duality: the reduced cost of each row's identity column is
    // its dual value; the dual objective over the (sign-flipped) RHS must
    // equal the primal objective at optimality.
    let obj_row = t.rows;
    let dual: f64 = (0..m)
        .map(|r| {
            let y = t.at(obj_row, id_col[r]);
            let sign = if infos[r].flip { -1.0 } else { 1.0 };
            y * sign * lp.rows()[r].rhs
        })
        .sum();
    validate::check_duality_gap(sol.objective, dual, TOL)
}

/// Solves a raw dense tableau problem: maximize `c · x` s.t. `A x <= b`,
/// `x >= 0`, with all `b >= 0`. A convenience for tests and simple callers
/// that avoids the [`LinearProgram`] builder.
pub fn solve_tableau(
    c: &[f64],
    a: &[Vec<f64>],
    b: &[f64],
    budget: &Budget,
) -> Result<LpSolution, LpError> {
    let mut lp = LinearProgram::new(c.len());
    let obj: Vec<(usize, f64)> = c.iter().copied().enumerate().collect();
    lp.set_objective(&obj);
    for (row, &rhs) in a.iter().zip(b.iter()) {
        let coeffs: Vec<(usize, f64)> = row.iter().copied().enumerate().collect();
        lp.add_constraint(&coeffs, Cmp::Le, rhs);
    }
    lp.solve(budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_tableau_convenience() {
        let sol = solve_tableau(
            &[1.0, 1.0],
            &[vec![1.0, 0.0], vec![0.0, 1.0]],
            &[3.0, 4.0],
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 7.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 stated twice plus x = 1: solution x=1, y=1.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(1, 1.0)]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 2.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 2.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Eq, 1.0);
        let sol = lp.solve(&Budget::unlimited()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.x[0] - 1.0).abs() < 1e-8);
        assert!((sol.x[1] - 1.0).abs() < 1e-8);
    }
}
