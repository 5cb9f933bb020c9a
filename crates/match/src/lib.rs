//! Maximum-weight perfect matching on implicit complete bipartite graphs.
//!
//! The paper's throughput upper bound (Equation 1) is minimized by the
//! *maximal permutation traffic matrix*: the permutation of switch pairs
//! maximizing total shortest-path length, i.e. a maximum-weight perfect
//! matching in a complete bipartite graph whose edge weights are pairwise
//! distances. The paper uses igraph's Hungarian implementation; this crate
//! provides:
//!
//! * [`hungarian_max`] — exact `O(n^3)` Hungarian algorithm (the
//!   Jonker–Volgenant potentials formulation). Weights are supplied by a
//!   closure, called once per pair to fill the solver's dense matrix.
//! * [`greedy_max`] — the paper's own Algorithm 1 (Appendix D): repeatedly
//!   pair an arbitrary unmatched node with the farthest unmatched node.
//!   Linear passes; any permutation yields a *valid* (if looser) upper
//!   bound in Equation 1, so this is the scalable fallback.
//! * [`improve_2swap`] — local-search improvement for the greedy result.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use dcn_guard::{Budget, BudgetError};

/// A permutation assignment: `assignment[u] = v` means `u` sends to `v`.
/// Entries with `assignment[u] == u` represent unmatched nodes (possible
/// only for [`greedy_max`] with odd `n`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// `assignment[u] = v`: `u` is matched to `v`.
    pub assignment: Vec<usize>,
    /// Total weight of the matching (self-assignments excluded).
    pub total_weight: i64,
}

impl Matching {
    /// Recomputes the total weight from the assignment, skipping
    /// self-assignments.
    pub fn weight_under(&self, w: impl Fn(usize, usize) -> i64) -> i64 {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(u, &v)| u != v)
            .map(|(u, &v)| w(u, v))
            .sum()
    }

    /// True if the assignment is a permutation of `0..n`.
    pub fn is_permutation(&self) -> bool {
        let n = self.assignment.len();
        let mut seen = vec![false; n];
        for &v in &self.assignment {
            if v >= n || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        true
    }
}

/// Exact maximum-weight perfect matching via the Hungarian algorithm with
/// potentials, `O(n^3)` time and `O(n^2)` extra memory: the weights are
/// read once per pair into a dense matrix, at 2 bytes a pair when every
/// weight lies in `0..=u16::MAX` (as every TUB weight
/// `L_uv · min(H_u, H_v)` does) and 8 otherwise.
///
/// `w(u, v)` may be any i64 (negative allowed). The returned assignment is
/// a full permutation (self-assignment allowed only if `w` makes it
/// optimal, which cannot happen when `w(u, u)` is minimal, e.g. 0 distances
/// — and even then it remains a valid permutation).
///
/// Meters one tick per shortest-augmenting-path step (each an `O(n)`
/// column scan), so the `O(n^3)` exact matcher can be deadline-capped and
/// fall back to [`greedy_max`] — which is the paper's own Algorithm 1 and
/// still yields a valid (looser) TUB witness.
///
/// ```
/// use dcn_match::hungarian_max;
/// use dcn_guard::prelude::*;
/// let w = [[1i64, 10], [10, 1]];
/// let m = hungarian_max(2, |i, j| w[i][j], &unlimited()).unwrap();
/// assert_eq!(m.total_weight, 20);
/// assert_eq!(m.assignment, vec![1, 0]);
/// ```
pub fn hungarian_max(
    n: usize,
    w: impl Fn(usize, usize) -> i64,
    budget: &Budget,
) -> Result<Matching, BudgetError> {
    hungarian_max_stateful(n, w, budget).map(|(m, _)| m)
}

/// [`hungarian_max`] that also exports the solver's [`HungarianState`]
/// (dual potentials + column assignment) so a perturbed sibling instance
/// can be re-solved incrementally with [`HungarianState::rematch`].
///
/// ```
/// use dcn_match::hungarian_max_stateful;
/// use dcn_guard::prelude::*;
/// let w = [[1i64, 10], [10, 1]];
/// let (m, state) = hungarian_max_stateful(2, |i, j| w[i][j], &unlimited()).unwrap();
/// assert_eq!(m.total_weight, 20);
/// assert_eq!(state.n(), 2);
/// assert_eq!(state.steps(), 2);
/// ```
pub fn hungarian_max_stateful(
    n: usize,
    w: impl Fn(usize, usize) -> i64,
    budget: &Budget,
) -> Result<(Matching, HungarianState), BudgetError> {
    let state = HungarianState {
        u: vec![0i64; n + 1],
        v: vec![0i64; n + 1],
        p: vec![0usize; n + 1],
        steps: 0,
    };
    match Weights::read(n, w) {
        Weights::Narrow(m) => state.augment(1..=n, &m, budget),
        Weights::Wide(m) => state.augment(1..=n, &m, budget),
    }
}

/// A dense row-major `n × n` weight matrix.
struct Dense<T> {
    n: usize,
    cells: Vec<T>,
}

/// A weight matrix in its storage type.
enum Weights {
    /// Every weight lies in `0..=u16::MAX`. At 2 bytes a pair, the matrix
    /// of the largest exact TUB instance (1023 switches) takes 2 MiB.
    Narrow(Dense<u16>),
    /// Any other weights.
    Wide(Dense<i64>),
}

/// A matrix cell type the kernel is generic over.
trait Cell: Copy {
    fn weight(self) -> i64;
}

impl Cell for u16 {
    #[inline]
    fn weight(self) -> i64 {
        i64::from(self)
    }
}

impl Cell for i64 {
    #[inline]
    fn weight(self) -> i64 {
        self
    }
}

impl Weights {
    /// Calls `w` once per pair, in row-major order. The matrix starts
    /// narrow and is widened once, at the first weight `u16` cannot hold.
    fn read(n: usize, w: impl Fn(usize, usize) -> i64) -> Weights {
        let mut pairs = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
        let mut narrow = Vec::with_capacity(n * n);
        for (i, j) in pairs.by_ref() {
            let x = w(i, j);
            match u16::try_from(x) {
                Ok(x) => narrow.push(x),
                Err(_) => {
                    let mut wide = Vec::with_capacity(n * n);
                    wide.extend(narrow.iter().map(|&x| i64::from(x)));
                    wide.push(x);
                    wide.extend(pairs.map(|(i, j)| w(i, j)));
                    return Weights::Wide(Dense { n, cells: wide });
                }
            }
        }
        Weights::Narrow(Dense { n, cells: narrow })
    }
}

impl<T> Dense<T> {
    /// Row `i` (0-indexed).
    fn row(&self, i: usize) -> &[T] {
        &self.cells[i * self.n..(i + 1) * self.n]
    }
}

/// Scratch of the shortest-augmenting-path search, allocated once per
/// solve and reused by every row.
struct Search {
    /// Lowest reduced cost into each column, plus the step offset (see
    /// [`HungarianState::augment_row`]).
    minv: Vec<i64>,
    /// Column through which each column was reached.
    way: Vec<usize>,
    /// Columns in the search tree.
    used: Vec<bool>,
}

/// The internal state of a solved Hungarian instance: dual potentials
/// `u`/`v` and the column assignment `p`, in the solver's 1-indexed
/// layout with a virtual column 0.
///
/// After a perturbation that changes weights only *within* a set of
/// dirty rows/columns (the edge-failure case: distance changes are
/// confined to pairs of affected switches), the potentials of every
/// clean row remain dual-feasible, so [`HungarianState::rematch`]
/// re-augments just the dirty rows — `O(dirty · n²)` instead of the full
/// `O(n³)` — and still lands on an exact optimum.
#[derive(Debug, Clone)]
pub struct HungarianState {
    u: Vec<i64>,
    v: Vec<i64>,
    /// `p[j]` = 1-indexed row assigned to column `j` (0 = unassigned).
    p: Vec<usize>,
    steps: u64,
}

impl HungarianState {
    /// Instance size (number of rows = columns).
    pub fn n(&self) -> usize {
        self.p.len() - 1
    }

    /// Shortest-path steps (one per budget tick, each an `O(n)` column
    /// scan) taken by the solve that produced this state: the whole
    /// instance for [`hungarian_max_stateful`], only the re-augmented rows
    /// for [`HungarianState::rematch`] and [`HungarianState::rematch_auto`].
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Augments `rows` (1-indexed) in order on `m`, then reads out the
    /// matching: the kernel every solve runs.
    fn augment<T: Cell>(
        mut self,
        rows: impl IntoIterator<Item = usize>,
        m: &Dense<T>,
        budget: &Budget,
    ) -> Result<(Matching, HungarianState), BudgetError> {
        let n = self.n();
        let mut meter = budget.meter();
        let mut search = Search {
            minv: vec![0; n + 1],
            way: vec![0; n + 1],
            used: vec![false; n + 1],
        };
        for i in rows {
            self.augment_row(i, m, &mut search, &mut meter)?;
        }
        self.steps = meter.used();
        let mut assignment = vec![0usize; n];
        for j in 1..=n {
            assignment[self.p[j] - 1] = j - 1;
        }
        let total_weight = assignment
            .iter()
            .enumerate()
            .map(|(i, &j)| m.row(i)[j].weight())
            .sum();
        let matching = Matching {
            assignment,
            total_weight,
        };
        Ok((matching, self))
    }

    /// Shortest augmenting path for (1-indexed) row `i` under the current
    /// potentials: the inner Dijkstra of the JV formulation on the
    /// minimization costs `-w`. One budget tick per step. Requires dual
    /// feasibility on all *assigned* rows; the root row's stale potential
    /// only offsets every path cost uniformly (each alternating path
    /// crosses the root edge exactly once, and the arithmetic is
    /// integer-exact), so the chosen paths — and therefore the final
    /// matching — are unaffected by it.
    ///
    /// The potentials are settled lazily. Each textbook step takes the
    /// minimum `delta` of the scan, adds it to `u` and subtracts it from
    /// `v` for every column reached so far and its row, and subtracts it
    /// from `minv` of every other column. Here `offset`, the sum of the
    /// deltas so far, is added to each new `minv` entry instead, so every
    /// comparison is the textbook's shifted by a common amount and makes
    /// the same choice, lowest column first among equal minima. A column
    /// is reached when its `minv` entry is the step's minimum, which is
    /// the new offset, so that entry records the offset from which the
    /// column owes its updates; column 0 owes them from the start.
    /// Settling every reached column once, after the last step, leaves
    /// `u` and `v` exactly as the textbook's updates would.
    fn augment_row<T: Cell>(
        &mut self,
        i: usize,
        m: &Dense<T>,
        search: &mut Search,
        meter: &mut dcn_guard::BudgetMeter<'_>,
    ) -> Result<(), BudgetError> {
        const INF: i64 = i64::MAX / 4;
        let n = m.n;
        let HungarianState { u, v, p, .. } = self;
        let Search { minv, way, used } = search;
        minv.fill(INF);
        minv[0] = 0;
        used.fill(false);
        p[0] = i;
        let mut j0 = 0usize;
        let mut offset = 0i64;
        loop {
            meter.tick()?;
            used[j0] = true;
            let i0 = p[j0];
            let base = offset - u[i0];
            let (row, vs) = (m.row(i0 - 1), &v[1..=n]);
            let (mins, ways, useds) = (&mut minv[1..=n], &mut way[1..=n], &used[1..=n]);
            let mut best = INF;
            let mut j1 = 0usize;
            for j in 0..n {
                if !useds[j] {
                    let cur = base - row[j].weight() - vs[j];
                    if cur < mins[j] {
                        mins[j] = cur;
                        ways[j] = j0;
                    }
                    if mins[j] < best {
                        best = mins[j];
                        j1 = j + 1;
                    }
                }
            }
            offset = best;
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        for j in 0..=n {
            if used[j] {
                let owed = offset - minv[j];
                u[p[j]] += owed;
                v[j] -= owed;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
        Ok(())
    }

    /// Incremental re-solve after a perturbation whose weight changes are
    /// confined to `dirty × dirty` (0-indexed row indices): unassigns
    /// every dirty row, then re-augments each one under the new weights
    /// `w`, reusing the clean rows' still-feasible potentials. Returns an
    /// exact optimum of the perturbed instance and the updated state.
    ///
    /// The caller is responsible for the confinement precondition — for
    /// distance-weight matchings it holds because BFS distances from an
    /// unaffected switch are unchanged and the metric is symmetric. The
    /// resulting `total_weight` equals the from-scratch optimum exactly;
    /// the assignment itself may be a different optimal permutation.
    ///
    /// ```
    /// use dcn_match::{hungarian_max, hungarian_max_stateful};
    /// use dcn_guard::prelude::*;
    /// let old = [[1i64, 10], [10, 1]];
    /// let (_, state) = hungarian_max_stateful(2, |i, j| old[i][j], &unlimited()).unwrap();
    /// // Perturb both rows (dirty set = {0, 1}); re-solve incrementally.
    /// let new = [[9i64, 2], [2, 9]];
    /// let (warm, _) = state.rematch(&[0, 1], |i, j| new[i][j], &unlimited()).unwrap();
    /// let cold = hungarian_max(2, |i, j| new[i][j], &unlimited()).unwrap();
    /// assert_eq!(warm.total_weight, cold.total_weight);
    /// ```
    pub fn rematch(
        &self,
        dirty: &[usize],
        w: impl Fn(usize, usize) -> i64,
        budget: &Budget,
    ) -> Result<(Matching, HungarianState), BudgetError> {
        match Weights::read(self.n(), w) {
            Weights::Narrow(m) => self.rematch_on(dirty, &m, budget),
            Weights::Wide(m) => self.rematch_on(dirty, &m, budget),
        }
    }

    fn rematch_on<T: Cell>(
        &self,
        dirty: &[usize],
        m: &Dense<T>,
        budget: &Budget,
    ) -> Result<(Matching, HungarianState), BudgetError> {
        let n = self.n();
        let mut state = self.clone();
        // Deduplicated ascending dirty rows, 1-indexed.
        let mut rows: Vec<usize> = dirty
            .iter()
            .filter(|&&r| r < n)
            .map(|&r| r + 1)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        // Unassign every column currently held by a dirty row, then
        // re-augment those rows in ascending order (deterministic).
        for j in 1..=n {
            if rows.binary_search(&state.p[j]).is_ok() {
                state.p[j] = 0;
            }
        }
        state.augment(rows, m, budget)
    }

    /// Like [`rematch`], but derives the dirty set itself: a row needs
    /// re-augmenting iff, under the new weights, its dual feasibility
    /// (`u[i] + v[j] <= cost(i, j)` somewhere in the row) or the tightness
    /// of its assigned edge is violated. Sound for *arbitrary* weight
    /// changes — no confinement precondition — at the cost of one `O(n²)`
    /// weight scan, over the same matrix the re-augmentations then read;
    /// rows whose changes are absorbed by existing dual slack
    /// are left untouched, which is what makes warm re-matching pay off
    /// when many weights move a little but few move past their slack
    /// (edge failures: distances only grow, usually by less than the
    /// slack). Returns the exact optimum, the updated state, and how many
    /// rows were re-augmented.
    ///
    /// [`rematch`]: HungarianState::rematch
    ///
    /// ```
    /// use dcn_match::{hungarian_max, hungarian_max_stateful};
    /// use dcn_guard::prelude::*;
    /// let old = [[5i64, 10], [10, 5]];
    /// let (_, state) = hungarian_max_stateful(2, |i, j| old[i][j], &unlimited()).unwrap();
    /// // Arbitrary perturbation, no dirty set supplied by the caller.
    /// let new = [[9i64, 4], [11, 5]];
    /// let (warm, _, _) = state.rematch_auto(|i, j| new[i][j], &unlimited()).unwrap();
    /// let cold = hungarian_max(2, |i, j| new[i][j], &unlimited()).unwrap();
    /// assert_eq!(warm.total_weight, cold.total_weight);
    /// ```
    pub fn rematch_auto(
        &self,
        w: impl Fn(usize, usize) -> i64,
        budget: &Budget,
    ) -> Result<(Matching, HungarianState, usize), BudgetError> {
        match Weights::read(self.n(), w) {
            Weights::Narrow(m) => self.rematch_auto_on(&m, budget),
            Weights::Wide(m) => self.rematch_auto_on(&m, budget),
        }
    }

    fn rematch_auto_on<T: Cell>(
        &self,
        m: &Dense<T>,
        budget: &Budget,
    ) -> Result<(Matching, HungarianState, usize), BudgetError> {
        let n = self.n();
        // Column currently assigned to each row (perfect matching: every
        // row holds exactly one column).
        let mut col_of = vec![0usize; n + 1];
        for j in 1..=n {
            col_of[self.p[j]] = j;
        }
        let mut dirty: Vec<usize> = Vec::new();
        for (i, &ji) in col_of.iter().enumerate().skip(1) {
            let row = m.row(i - 1);
            let cost = |j: usize| -row[j - 1].weight();
            let bad = ji == 0
                || cost(ji) != self.u[i] + self.v[ji]
                || (1..=n).any(|j| cost(j) - self.u[i] - self.v[j] < 0);
            if bad {
                dirty.push(i - 1);
            }
        }
        let n_dirty = dirty.len();
        let (matching, state) = self.rematch_on(&dirty, m, budget)?;
        Ok((matching, state, n_dirty))
    }
}

/// The paper's Algorithm 1 (Appendix D): greedy farthest-pair matching.
///
/// Iterates over nodes in index order; each unmatched node `u` is paired
/// with the unmatched node `v` maximizing `w(u, v)`, producing the
/// *symmetric* traffic pattern `(u → v, v → u)` the proof of Theorem 4.1
/// constructs. With odd `n`, the final node stays self-assigned.
pub fn greedy_max(n: usize, w: impl Fn(usize, usize) -> i64) -> Matching {
    let mut assignment: Vec<usize> = (0..n).collect();
    let mut matched = vec![false; n];
    for u in 0..n {
        if matched[u] {
            continue;
        }
        let mut best: Option<(usize, i64)> = None;
        #[expect(clippy::needless_range_loop, reason = "v is passed to w(u, v) as well")]
        for v in 0..n {
            if v != u && !matched[v] {
                let wt = w(u, v);
                if best.is_none_or(|(_, bw)| wt > bw) {
                    best = Some((v, wt));
                }
            }
        }
        if let Some((v, _)) = best {
            assignment[u] = v;
            assignment[v] = u;
            matched[u] = true;
            matched[v] = true;
        }
    }
    let total_weight = assignment
        .iter()
        .enumerate()
        .filter(|&(u, &v)| u != v)
        .map(|(u, &v)| w(u, v))
        .sum();
    Matching {
        assignment,
        total_weight,
    }
}

/// Local-search improvement: repeatedly considers pairs of assignments
/// `(a → b, c → d)` and rewires to `(a → d, c → b)` when that increases
/// total weight. Runs `passes` full sweeps (each `O(n^2)` weight lookups).
/// Preserves permutation-ness; self-assignments never participate.
pub fn improve_2swap(
    n: usize,
    w: impl Fn(usize, usize) -> i64,
    matching: &mut Matching,
    passes: usize,
) {
    for _ in 0..passes {
        let mut improved = false;
        for a in 0..n {
            let mut b = matching.assignment[a];
            if a == b {
                continue;
            }
            for c in (a + 1)..n {
                let d = matching.assignment[c];
                if c == d || d == a || b == c {
                    continue;
                }
                let cur = w(a, b) + w(c, d);
                let alt = w(a, d) + w(c, b);
                if alt > cur {
                    matching.assignment[a] = d;
                    matching.assignment[c] = b;
                    matching.total_weight += alt - cur;
                    b = d;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force maximum over all permutations (n <= 8).
    fn brute_force(n: usize, w: &dyn Fn(usize, usize) -> i64) -> i64 {
        fn go(
            n: usize,
            w: &dyn Fn(usize, usize) -> i64,
            row: usize,
            used: &mut Vec<bool>,
            acc: i64,
            best: &mut i64,
        ) {
            if row == n {
                *best = (*best).max(acc);
                return;
            }
            for col in 0..n {
                if !used[col] {
                    used[col] = true;
                    go(n, w, row + 1, used, acc + w(row, col), best);
                    used[col] = false;
                }
            }
        }
        let mut best = i64::MIN;
        go(n, w, 0, &mut vec![false; n], 0, &mut best);
        best
    }

    #[test]
    fn hungarian_matches_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..30 {
            let n = rng.gen_range(1..=7);
            let mat: Vec<Vec<i64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(-20..50)).collect())
                .collect();
            let w = |i: usize, j: usize| mat[i][j];
            let m = hungarian_max(n, w, &Budget::unlimited()).unwrap();
            assert!(m.is_permutation(), "trial {trial}");
            let bf = brute_force(n, &w);
            assert_eq!(m.total_weight, bf, "trial {trial}: n={n} {mat:?}");
        }
    }

    #[test]
    fn hungarian_simple_cases() {
        // 2x2: pick the anti-diagonal.
        let mat = [[1i64, 10], [10, 1]];
        let m = hungarian_max(2, |i, j| mat[i][j], &Budget::unlimited()).unwrap();
        assert_eq!(m.total_weight, 20);
        assert_eq!(m.assignment, vec![1, 0]);
        // n = 0 and n = 1.
        assert_eq!(hungarian_max(0, |_, _| 0, &Budget::unlimited()).unwrap().total_weight, 0);
        let one = hungarian_max(1, |_, _| 7, &Budget::unlimited()).unwrap();
        assert_eq!(one.total_weight, 7);
        assert_eq!(one.assignment, vec![0]);
    }

    #[test]
    fn greedy_is_valid_permutation_and_close() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let n = rng.gen_range(2..=16);
            // Symmetric weights (distances).
            let mut mat = vec![vec![0i64; n]; n];
            #[expect(clippy::needless_range_loop, reason = "i also bounds the column range")]
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = rng.gen_range(1..10);
                    mat[i][j] = d;
                    mat[j][i] = d;
                }
            }
            let w = |i: usize, j: usize| mat[i][j];
            let g = greedy_max(n, w);
            assert!(g.is_permutation());
            if n % 2 == 0 {
                assert!(g.assignment.iter().enumerate().all(|(u, &v)| u != v));
            }
            let h = hungarian_max(n, w, &Budget::unlimited()).unwrap();
            assert!(g.total_weight <= h.total_weight);
            // Any permutation is a valid TUB witness; greedy should not be
            // pathologically bad on random symmetric weights.
            assert!(g.total_weight > 0);
        }
    }

    #[test]
    fn greedy_odd_n_leaves_one_self_assigned() {
        let m = greedy_max(5, |i, j| (i + j) as i64);
        assert!(m.is_permutation());
        let selfies = m
            .assignment
            .iter()
            .enumerate()
            .filter(|&(u, &v)| u == v)
            .count();
        assert_eq!(selfies, 1);
    }

    #[test]
    fn two_swap_improves_greedy_toward_optimal() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 14;
        let mut mat = vec![vec![0i64; n]; n];
        #[expect(clippy::needless_range_loop, reason = "i also bounds the column range")]
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    mat[i][j] = rng.gen_range(1..100);
                }
            }
        }
        let w = |i: usize, j: usize| mat[i][j];
        let mut g = greedy_max(n, w);
        let before = g.total_weight;
        improve_2swap(n, w, &mut g, 20);
        assert!(g.is_permutation());
        assert!(g.total_weight >= before);
        assert_eq!(g.total_weight, g.weight_under(w));
        let h = hungarian_max(n, w, &Budget::unlimited()).unwrap();
        assert!(g.total_weight <= h.total_weight);
    }

    #[test]
    fn budget_caps_hungarian() {
        let mat = [[1i64, 10], [10, 1]];
        let tiny = Budget::unlimited().with_iter_cap(1);
        assert!(matches!(
            hungarian_max(2, |i, j| mat[i][j], &tiny),
            Err(BudgetError::IterationsExceeded { cap: 1 })
        ));
        let roomy = Budget::unlimited().with_iter_cap(1000);
        let m = hungarian_max(2, |i, j| mat[i][j], &roomy).unwrap();
        assert_eq!(m.total_weight, 20);
    }

    #[test]
    fn rematch_equals_cold_on_confined_perturbations() {
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..25 {
            let n = rng.gen_range(2..=12);
            // Symmetric base weights (distances).
            let mut mat = vec![vec![0i64; n]; n];
            #[expect(clippy::needless_range_loop, reason = "i also bounds the column range")]
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = rng.gen_range(1..40);
                    mat[i][j] = d;
                    mat[j][i] = d;
                }
            }
            let base = mat.clone();
            let (_, state) =
                hungarian_max_stateful(n, |i, j| base[i][j], &Budget::unlimited()).unwrap();
            // Perturb weights confined to dirty × dirty, keeping symmetry.
            let n_dirty = rng.gen_range(1..=n);
            let mut dirty: Vec<usize> = (0..n).collect();
            for k in 0..n_dirty {
                let pick = rng.gen_range(k..n);
                dirty.swap(k, pick);
            }
            dirty.truncate(n_dirty);
            for a in 0..n_dirty {
                for b in (a + 1)..n_dirty {
                    let (i, j) = (dirty[a], dirty[b]);
                    let d = rng.gen_range(1..40);
                    mat[i][j] = d;
                    mat[j][i] = d;
                }
            }
            let (warm, _) = state
                .rematch(&dirty, |i, j| mat[i][j], &Budget::unlimited())
                .unwrap();
            let cold = hungarian_max(n, |i, j| mat[i][j], &Budget::unlimited()).unwrap();
            assert!(warm.is_permutation(), "trial {trial}");
            assert_eq!(
                warm.total_weight, cold.total_weight,
                "trial {trial}: n={n} dirty={dirty:?}"
            );
        }
    }

    #[test]
    fn rematch_empty_dirty_set_is_identity() {
        let mat = [[1i64, 10], [10, 1]];
        let (cold, state) =
            hungarian_max_stateful(2, |i, j| mat[i][j], &Budget::unlimited()).unwrap();
        let (same, _) = state
            .rematch(&[], |i, j| mat[i][j], &Budget::unlimited())
            .unwrap();
        assert_eq!(same.assignment, cold.assignment);
        assert_eq!(same.total_weight, cold.total_weight);
        // Out-of-range dirty indices are ignored rather than panicking.
        let (still, _) = state
            .rematch(&[99], |i, j| mat[i][j], &Budget::unlimited())
            .unwrap();
        assert_eq!(still.total_weight, cold.total_weight);
    }

    #[test]
    fn rematch_respects_budget() {
        let mat = [[1i64, 10], [10, 1]];
        let (_, state) =
            hungarian_max_stateful(2, |i, j| mat[i][j], &Budget::unlimited()).unwrap();
        let tiny = Budget::unlimited().with_iter_cap(1);
        assert!(matches!(
            state.rematch(&[0, 1], |i, j| mat[i][j], &tiny),
            Err(BudgetError::IterationsExceeded { cap: 1 })
        ));
    }

    #[test]
    fn weight_under_skips_self_assignments() {
        let m = Matching {
            assignment: vec![1, 0, 2],
            total_weight: 0,
        };
        assert_eq!(m.weight_under(|_, _| 5), 10);
    }
}

/// The eager Hungarian kernel the dense one replaced, kept as a test
/// oracle: it calls the weight closure inside every column scan and
/// updates every potential and `minv` entry at every step. The dense
/// kernel must reproduce its `u`, `v`, `p` and step count exactly.
#[cfg(test)]
mod reference {
    use super::*;
    use dcn_guard::BudgetMeter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The eager kernel's state after a solve.
    #[derive(Debug, Clone)]
    struct Eager {
        u: Vec<i64>,
        v: Vec<i64>,
        p: Vec<usize>,
        way: Vec<usize>,
        steps: u64,
    }

    impl Eager {
        fn solve(
            n: usize,
            w: &dyn Fn(usize, usize) -> i64,
            budget: &Budget,
        ) -> Result<Eager, BudgetError> {
            let mut meter = budget.meter();
            let cost = |i: usize, j: usize| -w(i - 1, j - 1);
            let mut state = Eager {
                u: vec![0i64; n + 1],
                v: vec![0i64; n + 1],
                p: vec![0usize; n + 1],
                way: vec![0usize; n + 1],
                steps: 0,
            };
            for i in 1..=n {
                state.augment_row(n, i, &cost, &mut meter)?;
            }
            state.steps = meter.used();
            Ok(state)
        }

        fn augment_row(
            &mut self,
            n: usize,
            i: usize,
            cost: &impl Fn(usize, usize) -> i64,
            meter: &mut BudgetMeter<'_>,
        ) -> Result<(), BudgetError> {
            const INF: i64 = i64::MAX / 4;
            let (u, v, p, way) = (&mut self.u, &mut self.v, &mut self.p, &mut self.way);
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![INF; n + 1];
            let mut used = vec![false; n + 1];
            loop {
                meter.tick()?;
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..=n {
                    if !used[j] {
                        let cur = cost(i0, j) - u[i0] - v[j];
                        if cur < minv[j] {
                            minv[j] = cur;
                            way[j] = j0;
                        }
                        if minv[j] < delta {
                            delta = minv[j];
                            j1 = j;
                        }
                    }
                }
                for j in 0..=n {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
            Ok(())
        }

        fn rematch(
            &self,
            dirty: &[usize],
            w: &dyn Fn(usize, usize) -> i64,
            budget: &Budget,
        ) -> Result<Eager, BudgetError> {
            let n = self.p.len() - 1;
            let mut meter = budget.meter();
            let cost = |i: usize, j: usize| -w(i - 1, j - 1);
            let mut state = self.clone();
            let mut rows: Vec<usize> = dirty.iter().filter(|&&r| r < n).map(|&r| r + 1).collect();
            rows.sort_unstable();
            rows.dedup();
            for j in 1..=n {
                if rows.binary_search(&state.p[j]).is_ok() {
                    state.p[j] = 0;
                }
            }
            for &r in &rows {
                state.augment_row(n, r, &cost, &mut meter)?;
            }
            state.steps = meter.used();
            Ok(state)
        }

        fn rematch_auto(
            &self,
            w: &dyn Fn(usize, usize) -> i64,
            budget: &Budget,
        ) -> Result<(Eager, usize), BudgetError> {
            let n = self.p.len() - 1;
            let cost = |i: usize, j: usize| -w(i - 1, j - 1);
            let mut col_of = vec![0usize; n + 1];
            for j in 1..=n {
                col_of[self.p[j]] = j;
            }
            let mut dirty: Vec<usize> = Vec::new();
            for (i, &ji) in col_of.iter().enumerate().take(n + 1).skip(1) {
                let mut bad = ji == 0 || cost(i, ji) != self.u[i] + self.v[ji];
                if !bad {
                    for j in 1..=n {
                        if cost(i, j) - self.u[i] - self.v[j] < 0 {
                            bad = true;
                            break;
                        }
                    }
                }
                if bad {
                    dirty.push(i - 1);
                }
            }
            let n_dirty = dirty.len();
            Ok((self.rematch(&dirty, w, budget)?, n_dirty))
        }
    }

    /// Asserts the dense state equals the eager one field by field.
    fn assert_same(dense: &HungarianState, eager: &Eager, what: &str) {
        assert_eq!(dense.p, eager.p, "{what}: p");
        assert_eq!(dense.u, eager.u, "{what}: u");
        assert_eq!(dense.v, eager.v, "{what}: v");
        assert_eq!(dense.steps, eager.steps, "{what}: steps");
    }

    /// An `n × n` matrix of weights drawn from `lo..hi`; symmetric with a zero
    /// diagonal (a distance matrix's shape) when `symmetric`.
    fn random_matrix(rng: &mut StdRng, n: usize, lo: i64, hi: i64, symmetric: bool) -> Vec<Vec<i64>> {
        let mut mat: Vec<Vec<i64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if symmetric && j <= i {
                            0
                        } else {
                            rng.gen_range(lo..hi)
                        }
                    })
                    .collect()
            })
            .collect();
        if symmetric {
            for (i, j) in (0..n).flat_map(|i| (0..i).map(move |j| (i, j))) {
                mat[i][j] = mat[j][i];
            }
        }
        mat
    }

    /// Solves `mat` with both kernels, checks they agree, and returns both
    /// states for warm re-solves.
    fn solve_both(mat: &[Vec<i64>], what: &str) -> (HungarianState, Eager) {
        let n = mat.len();
        let w = |i: usize, j: usize| mat[i][j];
        let (m, dense) = hungarian_max_stateful(n, w, &Budget::unlimited()).unwrap();
        let eager = Eager::solve(n, &w, &Budget::unlimited()).unwrap();
        assert_same(&dense, &eager, what);
        assert!(m.is_permutation(), "{what}");
        assert_eq!(m.total_weight, total(&m, w), "{what}");
        (dense, eager)
    }

    /// The total weight of `m`'s assignment, self-assignments included.
    fn total(m: &Matching, w: impl Fn(usize, usize) -> i64) -> i64 {
        m.assignment.iter().enumerate().map(|(i, &j)| w(i, j)).sum()
    }

    fn is_narrow(mat: &[Vec<i64>]) -> bool {
        matches!(
            Weights::read(mat.len(), |i, j| mat[i][j]),
            Weights::Narrow(_)
        )
    }

    #[test]
    fn small_tied_weights_match_the_eager_kernel() {
        let mut rng = StdRng::seed_from_u64(15);
        for trial in 0..300 {
            let n = match trial % 3 {
                0 => rng.gen_range(1..=12),
                1 => rng.gen_range(13..=48),
                _ => rng.gen_range(49..=100),
            };
            // Few distinct values, so most column scans see tied minima.
            let hi = [2, 3, 4, 6, 9][trial % 5];
            let mat = random_matrix(&mut rng, n, 0, hi, trial % 2 == 0);
            assert!(is_narrow(&mat));
            solve_both(&mat, &format!("trial {trial}: n={n} hi={hi}"));
        }
    }

    #[test]
    fn wide_weights_match_the_eager_kernel() {
        let mut rng = StdRng::seed_from_u64(16);
        for trial in 0..60 {
            let n = rng.gen_range(2..=60);
            let (lo, hi) = match trial % 3 {
                // Negative weights.
                0 => (-20, 5),
                // Weights above u16::MAX, many tied.
                1 => (70_000, 70_004),
                // Both, spread wide.
                _ => (-1_000_000, 1_000_000),
            };
            let mut mat = random_matrix(&mut rng, n, lo, hi, trial % 2 == 0);
            if trial % 4 == 3 {
                // Narrow everywhere but the last pair: the matrix widens at
                // the very end of the read.
                for row in mat.iter_mut() {
                    for x in row.iter_mut() {
                        *x = x.rem_euclid(4);
                    }
                }
                mat[n - 1][n - 1] = i64::from(u16::MAX) + 1;
            }
            assert!(!is_narrow(&mat), "trial {trial}");
            solve_both(&mat, &format!("trial {trial}: n={n} lo={lo} hi={hi}"));
        }
    }

    #[test]
    fn narrow_bounds_are_inclusive() {
        let top = vec![vec![0, i64::from(u16::MAX)], vec![i64::from(u16::MAX), 0]];
        assert!(is_narrow(&top));
        solve_both(&top, "u16::MAX");
        let neg = vec![vec![0, -1], vec![-1, 0]];
        assert!(!is_narrow(&neg));
        solve_both(&neg, "-1");
    }

    #[test]
    fn warm_resolves_match_the_eager_kernel() {
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..120 {
            let n = rng.gen_range(2..=80);
            let symmetric = trial % 2 == 0;
            let hi = if trial % 5 == 4 {
                80_000
            } else {
                [3, 5, 12][trial % 3]
            };
            let base = random_matrix(&mut rng, n, 0, hi, symmetric);
            let what = format!("trial {trial}: n={n} hi={hi}");
            let (dense, eager) = solve_both(&base, &what);

            // Confined perturbation for `rematch`: only dirty × dirty moves.
            let n_dirty = rng.gen_range(1..=n);
            let mut dirty: Vec<usize> = (0..n).collect();
            for k in 0..n_dirty {
                let pick = rng.gen_range(k..n);
                dirty.swap(k, pick);
            }
            dirty.truncate(n_dirty);
            let mut confined = base.clone();
            for &i in &dirty {
                for &j in &dirty {
                    if !symmetric || i < j {
                        confined[i][j] = rng.gen_range(0..hi);
                        if symmetric {
                            confined[j][i] = confined[i][j];
                        }
                    }
                }
            }
            let w = |i: usize, j: usize| confined[i][j];
            let (m, d) = dense.rematch(&dirty, w, &Budget::unlimited()).unwrap();
            let e = eager.rematch(&dirty, &w, &Budget::unlimited()).unwrap();
            assert_same(&d, &e, &format!("{what}: rematch {dirty:?}"));
            assert_eq!(m.total_weight, total(&m, w));

            // Arbitrary perturbation for `rematch_auto`: distances that grow
            // by a little (an edge failure's shape) plus a few that drop.
            let mut moved = base.clone();
            for _ in 0..rng.gen_range(1..=2 * n) {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let x = (moved[i][j] + rng.gen_range(-1i64..3)).max(0);
                moved[i][j] = x;
                if symmetric {
                    moved[j][i] = x;
                }
            }
            let w = |i: usize, j: usize| moved[i][j];
            let (m, d, d_dirty) = dense.rematch_auto(w, &Budget::unlimited()).unwrap();
            let (e, e_dirty) = eager.rematch_auto(&w, &Budget::unlimited()).unwrap();
            assert_same(&d, &e, &format!("{what}: rematch_auto"));
            assert_eq!(d_dirty, e_dirty, "{what}: rematch_auto dirty rows");
            assert_eq!(m.total_weight, total(&m, w));
        }
    }

    #[test]
    fn budget_runs_out_at_the_same_step() {
        let mut rng = StdRng::seed_from_u64(18);
        let mat = random_matrix(&mut rng, 30, 0, 4, true);
        let w = |i: usize, j: usize| mat[i][j];
        let (_, full) = hungarian_max_stateful(30, w, &Budget::unlimited()).unwrap();
        let steps = full.steps();
        for cap in [0, 1, steps / 2, steps - 1, steps] {
            let budget = Budget::unlimited().with_iter_cap(cap);
            let dense = hungarian_max_stateful(30, w, &budget).map(|(_, s)| s);
            let eager = Eager::solve(30, &w, &budget);
            match (dense, eager) {
                (Ok(d), Ok(e)) => assert_same(&d, &e, &format!("cap {cap}")),
                (Err(d), Err(e)) => assert_eq!(d, e, "cap {cap}"),
                (d, e) => panic!("cap {cap}: dense {:?} vs eager {:?}", d.is_ok(), e.is_ok()),
            }
        }
    }
}
