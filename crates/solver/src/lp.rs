//! Dense two-phase primal simplex.
//!
//! Solves `max/min c·x  s.t.  A x {≤,=,≥} b,  x ≥ 0` on a dense
//! tableau with Bland's anti-cycling rule. Intended for the small,
//! dense LP relaxations produced by CGRA-mapping ILP encodings (a few
//! hundred variables); no sparse machinery, no scaling heuristics.

/// Constraint comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Le,
    Eq,
    Ge,
}

/// A linear program.
#[derive(Debug, Clone)]
pub struct Lp {
    num_vars: usize,
    /// (coefficients over `0..num_vars`, cmp, rhs)
    constraints: Vec<(Vec<f64>, Cmp, f64)>,
    objective: Vec<f64>,
    maximize: bool,
    interrupt: crate::interrupt::Interrupt,
}

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpResult {
    Optimal {
        x: Vec<f64>,
        objective: f64,
    },
    Infeasible,
    Unbounded,
    /// The attached [`Interrupt`](crate::interrupt::Interrupt) fired
    /// mid-pivot; the tableau was abandoned, no result is available.
    Interrupted,
}

/// Why [`Lp::iterate`] stopped before reaching optimality.
enum IterStop {
    Unbounded,
    Interrupted,
}

/// Working tableau: columns `[orig 0..n | slack/surplus | artificial]`
/// plus the rhs, and which column is basic in each row.
struct Tableau {
    t: Vec<Vec<f64>>,
    basis: Vec<usize>,
    total: usize,
    n: usize,
    num_slack: usize,
    /// Per row: its artificial column, if any.
    art_col: Vec<Option<usize>>,
}

impl Tableau {
    #[inline]
    fn is_artificial(&self, col: usize) -> bool {
        col >= self.n + self.num_slack
    }
}

const EPS: f64 = 1e-9;

/// Magnitudes below this are snapped to an exact `0.0` during pivots,
/// keeping the tableau sparse (and denormal-free) so the per-pivot
/// row-skip guard keeps paying off. Kept well under [`EPS`] so nothing
/// a feasibility or optimality test could see is ever altered.
const DROP_TOL: f64 = 1e-11;

impl Lp {
    /// An LP over `num_vars` non-negative variables.
    pub fn new(num_vars: usize, maximize: bool) -> Self {
        Lp {
            num_vars,
            constraints: Vec::new(),
            objective: vec![0.0; num_vars],
            maximize,
            interrupt: crate::interrupt::Interrupt::none(),
        }
    }

    /// Attach a stop signal polled once per pivot — one simplex solve
    /// on a few hundred columns can take long enough that a caller's
    /// cancellation must be able to land mid-solve, not just between
    /// solves.
    pub fn set_interrupt(&mut self, interrupt: crate::interrupt::Interrupt) {
        self.interrupt = interrupt;
    }

    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Set the objective coefficient of variable `v`.
    pub fn set_objective(&mut self, v: usize, c: f64) {
        self.objective[v] = c;
    }

    /// Add `sum coeffs[i]·x_i  cmp  rhs`. `coeffs` is a sparse list of
    /// `(var, coeff)` pairs.
    pub fn add_constraint(&mut self, coeffs: &[(usize, f64)], cmp: Cmp, rhs: f64) {
        let mut row = vec![0.0; self.num_vars];
        for &(v, c) in coeffs {
            assert!(v < self.num_vars, "variable out of range");
            row[v] += c;
        }
        self.constraints.push((row, cmp, rhs));
    }

    /// Build the initial tableau: normalise to `b ≥ 0`, lay columns out
    /// as `[orig 0..n | slack/surplus | artificial] + rhs`, and seat the
    /// canonical starting basis (slack for `≤`, artificial for `≥`/`=`).
    fn build_tableau(&self) -> Tableau {
        let m = self.constraints.len();
        let n = self.num_vars;

        let mut rows: Vec<(Vec<f64>, Cmp, f64)> = self.constraints.clone();
        for (row, cmp, rhs) in &mut rows {
            if *rhs < 0.0 {
                for c in row.iter_mut() {
                    *c = -*c;
                }
                *rhs = -*rhs;
                *cmp = match *cmp {
                    Cmp::Le => Cmp::Ge,
                    Cmp::Ge => Cmp::Le,
                    Cmp::Eq => Cmp::Eq,
                };
            }
        }

        let num_slack = rows
            .iter()
            .filter(|(_, c, _)| matches!(c, Cmp::Le | Cmp::Ge))
            .count();
        let num_art = rows
            .iter()
            .filter(|(_, c, _)| matches!(c, Cmp::Eq | Cmp::Ge))
            .count();
        let total = n + num_slack + num_art;
        let mut t = vec![vec![0.0; total + 1]; m];
        let mut basis = vec![0usize; m];
        let mut s_off = n;
        let mut a_off = n + num_slack;
        let mut art_col = vec![None; m];

        for (i, (row, cmp, rhs)) in rows.iter().enumerate() {
            t[i][..n].copy_from_slice(row);
            t[i][total] = *rhs;
            match cmp {
                Cmp::Le => {
                    t[i][s_off] = 1.0;
                    basis[i] = s_off;
                    s_off += 1;
                }
                Cmp::Ge => {
                    t[i][s_off] = -1.0;
                    s_off += 1;
                    t[i][a_off] = 1.0;
                    basis[i] = a_off;
                    art_col[i] = Some(a_off);
                    a_off += 1;
                }
                Cmp::Eq => {
                    t[i][a_off] = 1.0;
                    basis[i] = a_off;
                    art_col[i] = Some(a_off);
                    a_off += 1;
                }
            }
        }

        Tableau {
            t,
            basis,
            total,
            n,
            num_slack,
            art_col,
        }
    }

    /// Solve with two-phase primal simplex.
    pub fn solve(&self) -> LpResult {
        match self.phase1(self.build_tableau()) {
            Ok(tab) => self.phase2(tab),
            Err(r) => r,
        }
    }

    /// Phase 1: minimise the sum of artificials from the tableau's
    /// current basis; errors are terminal solve outcomes.
    fn phase1(&self, mut tab: Tableau) -> Result<Tableau, LpResult> {
        let m = tab.t.len();
        let total = tab.total;
        let has_art = tab.art_col.iter().any(|c| c.is_some());
        if !has_art {
            return Ok(tab);
        }
        // Cost +1 per artificial, priced out over rows whose basic
        // variable is an artificial (those are exactly the rows where
        // the phase-1 objective is nonzero on the basis).
        let mut z = vec![0.0; total + 1];
        for c in tab.art_col.iter().flatten() {
            z[*c] = 1.0;
        }
        for i in 0..m {
            if tab.is_artificial(tab.basis[i]) {
                for (zj, tij) in z.iter_mut().zip(&tab.t[i]).take(total + 1) {
                    *zj -= tij;
                }
            }
        }
        match self.iterate(&mut tab.t, &mut z, &mut tab.basis, total) {
            Ok(()) => {}
            // Unbounded phase 1 cannot happen with bounded objective.
            Err(IterStop::Unbounded) => return Err(LpResult::Infeasible),
            Err(IterStop::Interrupted) => return Err(LpResult::Interrupted),
        }
        if z[total] < -EPS {
            return Err(LpResult::Infeasible);
        }
        // Drive any artificial still in the basis out (degenerate).
        for i in 0..m {
            if tab.is_artificial(tab.basis[i]) {
                // Find a non-artificial column with nonzero pivot.
                if let Some(j) = (0..tab.n + tab.num_slack).find(|&j| tab.t[i][j].abs() > EPS) {
                    Self::pivot(&mut tab.t, &mut z, &mut tab.basis, i, j, total);
                }
                // Otherwise the row is redundant (all zero): leave it.
            }
        }
        Ok(tab)
    }

    /// Phase 2: optimise the original objective from a primal-feasible
    /// basis, then extract the solution.
    fn phase2(&self, mut tab: Tableau) -> LpResult {
        let m = tab.t.len();
        let total = tab.total;
        let n = tab.n;
        let sign = if self.maximize { 1.0 } else { -1.0 };
        let mut z = vec![0.0; total + 1];
        for (j, &c) in self.objective.iter().enumerate() {
            z[j] = -sign * c;
        }
        // Forbid artificials from re-entering by pricing them +inf-ish:
        // simply zero their columns out of consideration by setting a
        // large positive reduced cost.
        for c in tab.art_col.iter().flatten() {
            z[*c] = 1e18;
        }
        // Price out the current basis.
        for i in 0..m {
            let b = tab.basis[i];
            if z[b].abs() > EPS && z[b] < 1e17 {
                let factor = z[b];
                for (zj, tij) in z.iter_mut().zip(&tab.t[i]).take(total + 1) {
                    *zj -= factor * tij;
                }
            }
        }
        match self.iterate(&mut tab.t, &mut z, &mut tab.basis, total) {
            Ok(()) => {}
            Err(IterStop::Unbounded) => return LpResult::Unbounded,
            Err(IterStop::Interrupted) => return LpResult::Interrupted,
        }

        let mut x = vec![0.0; n];
        for i in 0..m {
            if tab.basis[i] < n {
                x[tab.basis[i]] = tab.t[i][total];
            }
        }
        let objective: f64 = self.objective.iter().zip(&x).map(|(c, xv)| c * xv).sum();
        LpResult::Optimal { x, objective }
    }

    /// Run simplex iterations until optimal (`Ok`), unbounded, or the
    /// attached interrupt fires (`Err`).
    fn iterate(
        &self,
        t: &mut [Vec<f64>],
        z: &mut [f64],
        basis: &mut [usize],
        total: usize,
    ) -> Result<(), IterStop> {
        let m = t.len();
        // Dantzig pricing (most negative reduced cost) until a run of
        // degenerate pivots suggests cycling; then Bland's rule until a
        // nondegenerate pivot breaks the stall. Bland alone is safe but
        // crawls on the heavily degenerate assignment-shaped LPs the
        // mappers produce.
        const STALL_LIMIT: u32 = 24;
        let mut stalled = 0u32;
        // Generous iteration cap; the stall switch to Bland's rule
        // makes unbounded cycling practically impossible.
        for _ in 0..100_000 {
            if self.interrupt.should_stop() {
                return Err(IterStop::Interrupted);
            }
            let enter = if stalled < STALL_LIMIT {
                let mut best_j = None;
                let mut best_v = -EPS;
                for (j, &zj) in z.iter().enumerate().take(total) {
                    if zj < best_v {
                        best_v = zj;
                        best_j = Some(j);
                    }
                }
                best_j
            } else {
                (0..total).find(|&j| z[j] < -EPS)
            };
            let Some(enter) = enter else {
                return Ok(());
            };
            // Leaving row: min ratio, ties by smallest basis index.
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for i in 0..m {
                if t[i][enter] > EPS {
                    let ratio = t[i][total] / t[i][enter];
                    if ratio < best - EPS
                        || (ratio < best + EPS
                            && leave.map(|l| basis[i] < basis[l]).unwrap_or(false))
                    {
                        best = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(leave) = leave else {
                return Err(IterStop::Unbounded);
            };
            if best <= EPS {
                stalled += 1;
            } else {
                stalled = 0;
            }
            Self::pivot(t, z, basis, leave, enter, total);
        }
        // Numerical trouble: treat as optimal-at-current-point.
        Ok(())
    }

    #[allow(clippy::needless_range_loop)] // indexes two tableau rows at once
    fn pivot(
        t: &mut [Vec<f64>],
        z: &mut [f64],
        basis: &mut [usize],
        row: usize,
        col: usize,
        total: usize,
    ) {
        let p = t[row][col];
        debug_assert!(p.abs() > EPS);
        for j in 0..=total {
            t[row][j] /= p;
            if t[row][j].abs() < DROP_TOL {
                t[row][j] = 0.0;
            }
        }
        for i in 0..t.len() {
            if i != row && t[i][col].abs() > EPS {
                let f = t[i][col];
                for j in 0..=total {
                    t[i][j] -= f * t[row][j];
                    // Snap round-off back to an exact zero: the
                    // `t[i][col] > EPS` guard above short-circuits whole
                    // rows only while the tableau stays genuinely
                    // sparse; round-off would otherwise fill it with
                    // near-zero junk whose updates — many on denormals
                    // — dominate the solve.
                    if t[i][j].abs() < DROP_TOL {
                        t[i][j] = 0.0;
                    }
                }
            }
        }
        if z[col].abs() > EPS {
            let f = z[col];
            for j in 0..=total {
                z[j] -= f * t[row][j];
            }
        }
        basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_maximisation() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  -> x=4, y=0, obj 12.
        let mut lp = Lp::new(2, true);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 2.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(&[(0, 1.0), (1, 3.0)], Cmp::Le, 6.0);
        match lp.solve() {
            LpResult::Optimal { x, objective } => {
                assert_near(objective, 12.0);
                assert_near(x[0], 4.0);
                assert_near(x[1], 0.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn minimisation_with_ge() {
        // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> intersection (1.6, 1.2), obj 2.8.
        let mut lp = Lp::new(2, false);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 2.0)], Cmp::Ge, 4.0);
        lp.add_constraint(&[(0, 3.0), (1, 1.0)], Cmp::Ge, 6.0);
        match lp.solve() {
            LpResult::Optimal { x, objective } => {
                assert_near(objective, 2.8);
                assert_near(x[0], 1.6);
                assert_near(x[1], 1.2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 3, x <= 2 -> obj 3.
        let mut lp = Lp::new(2, true);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 3.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 2.0);
        match lp.solve() {
            LpResult::Optimal { objective, .. } => assert_near(objective, 3.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2.
        let mut lp = Lp::new(1, true);
        lp.set_objective(0, 1.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // max x with no constraints.
        let mut lp = Lp::new(1, true);
        lp.set_objective(0, 1.0);
        assert_eq!(lp.solve(), LpResult::Unbounded);
    }

    #[test]
    fn negative_rhs_normalised() {
        // max -x s.t. -x <= -2 (i.e. x >= 2) -> x = 2, obj -2.
        let mut lp = Lp::new(1, true);
        lp.set_objective(0, -1.0);
        lp.add_constraint(&[(0, -1.0)], Cmp::Le, -2.0);
        match lp.solve() {
            LpResult::Optimal { x, objective } => {
                assert_near(x[0], 2.0);
                assert_near(objective, -2.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate vertex: multiple constraints through origin.
        let mut lp = Lp::new(2, true);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 0.0);
        lp.add_constraint(&[(1, 1.0)], Cmp::Le, 0.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 0.0);
        match lp.solve() {
            LpResult::Optimal { objective, .. } => assert_near(objective, 0.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relaxation_of_binary_assignment() {
        // Assignment relaxation: two items, two bins, each item in
        // exactly one bin, each bin at most one item; max total profit.
        // Profits: p(0,0)=5 p(0,1)=1 p(1,0)=2 p(1,1)=4 -> 9 (integral).
        let var = |i: usize, b: usize| i * 2 + b;
        let mut lp = Lp::new(4, true);
        for (v, p) in [
            (var(0, 0), 5.0),
            (var(0, 1), 1.0),
            (var(1, 0), 2.0),
            (var(1, 1), 4.0),
        ] {
            lp.set_objective(v, p);
        }
        for i in 0..2 {
            lp.add_constraint(&[(var(i, 0), 1.0), (var(i, 1), 1.0)], Cmp::Eq, 1.0);
        }
        for b in 0..2 {
            lp.add_constraint(&[(var(0, b), 1.0), (var(1, b), 1.0)], Cmp::Le, 1.0);
        }
        match lp.solve() {
            LpResult::Optimal { objective, x } => {
                assert_near(objective, 9.0);
                assert_near(x[var(0, 0)], 1.0);
                assert_near(x[var(1, 1)], 1.0);
            }
            other => panic!("{other:?}"),
        }
    }
}
