//! Bounded-variable dual simplex on a dense tableau.
//!
//! Solves `max/min c·x  s.t.  A x {≤,=,≥} b,  l ≤ x ≤ u` for the LP
//! relaxations of the CGRA-mapping ILP encodings (a few hundred 0/1
//! columns). Row `i` gets one logical column `s_i`, `a_i·x + s_i = b_i`,
//! bounded by the row's sense (`≤`: `s_i ≥ 0`, `≥`: `s_i ≤ 0`, `=`:
//! `s_i = 0`); a column's bounds are bounds, not rows. When every
//! column is boxed, the all-logical basis with each column at the bound
//! its cost prefers is dual feasible, so there are no artificials and
//! no phase 1: dual simplex pivots primal infeasible rows out until
//! none is left. A bound change leaves the reduced costs, and so dual
//! feasibility, as they were, which is what lets branch-and-bound
//! ([`crate::ilp`]) re-solve a child from its parent's optimal tableau
//! in a few pivots.
//!
//! The leaving row is the infeasible one whose basic column has the
//! smallest index: a branched column first, then rows in the order they
//! were added. The entering column has the smallest ratio
//! `|d_j / α_rj|`, ties to the larger `|α_rj|`. Ties in cost make most
//! of the mappers' dual pivots degenerate, in runs of up to ~150; full
//! dual Bland (ties to the smallest index too) ran them into cycles, so
//! `MAX_PIVOTS` is what ends a solve that does not finish. Elimination
//! is sparse in the pivot row, and magnitudes under `DROP_TOL` snap to 0.
//!
//! An [`Lp`]'s columns are `x ≥ 0` without an upper bound. A solve
//! boxes them at `BOX`. A boxed optimum with every column under
//! `BOX / 2` is strictly inside the box, so it is optimal without the
//! box too. Otherwise a second boxed LP over the recession directions
//! (`A r {≤,=,≥} 0`, `0 ≤ r ≤ 1`) decides whether the LP is unbounded:
//! a feasible LP is unbounded iff such a direction improves the
//! objective, and then its boxed optimum always has a column at `BOX`.

use crate::interrupt::Interrupt;
use std::cell::Cell;

/// Constraint comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Le,
    Eq,
    Ge,
}

/// One constraint row: sparse `(column, coefficient)` terms,
/// comparator, right-hand side.
pub(crate) type Row = (Vec<(usize, f64)>, Cmp, f64);

/// A linear program over non-negative variables.
#[derive(Debug, Clone)]
pub struct Lp {
    num_vars: usize,
    constraints: Vec<Row>,
    objective: Vec<f64>,
    maximize: bool,
    /// Pivots performed by every solve so far (see [`Lp::pivots`]).
    pivots: Cell<u64>,
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
    /// A solve reached `MAX_PIVOTS`; no result is available.
    Interrupted,
}

const EPS: f64 = 1e-9;

/// Primal feasibility tolerance, and the smallest entry a pivot may use.
/// A long chain of warm re-solves leaves round-off near 1e-9 in the
/// tableau; a basic value that far outside its bound, or a pivot on an
/// entry that small, is noise, not a verdict.
const TOL: f64 = 1e-7;

/// Magnitudes below this are snapped to an exact `0.0` during pivots,
/// keeping the tableau sparse (and denormal-free) so the pivot's
/// row-skip guard keeps paying off. Kept well under [`EPS`] so nothing
/// a feasibility or optimality test could see is ever altered.
const DROP_TOL: f64 = 1e-11;

/// Pivots after which a solve gives up.
const MAX_PIVOTS: u32 = 100_000;

/// The upper bound an [`Lp`] solve gives its columns. An LP whose
/// every optimum leaves this box is answered from inside it.
const BOX: f64 = 1e6;

impl Lp {
    /// An LP over `num_vars` non-negative variables.
    pub fn new(num_vars: usize, maximize: bool) -> Self {
        Lp {
            num_vars,
            constraints: Vec::new(),
            objective: vec![0.0; num_vars],
            maximize,
            pivots: Cell::new(0),
        }
    }

    /// Simplex pivots performed by every [`Lp::solve`] of this LP so
    /// far, the unboundedness check's included — the LP's unit of work,
    /// independent of what a pivot costs.
    pub fn pivots(&self) -> u64 {
        self.pivots.get()
    }

    /// Set the objective coefficient of variable `v`.
    pub fn set_objective(&mut self, v: usize, c: f64) {
        self.objective[v] = c;
    }

    /// Add `sum coeffs[i]·x_i  cmp  rhs`. `coeffs` is a sparse list of
    /// `(var, coeff)` pairs.
    pub fn add_constraint(&mut self, coeffs: &[(usize, f64)], cmp: Cmp, rhs: f64) {
        assert!(
            coeffs.iter().all(|&(v, _)| v < self.num_vars),
            "variable out of range"
        );
        self.constraints.push((coeffs.to_vec(), cmp, rhs));
    }

    /// Solve: the boxed LP first, then, when its optimum reaches past
    /// half the box, its recession directions.
    pub fn solve(&self) -> LpResult {
        let sign = if self.maximize { -1.0 } else { 1.0 };
        let cost: Vec<f64> = self.objective.iter().map(|&c| sign * c).collect();
        let mut boxed = Simplex::new(self.num_vars, &self.constraints, cost.clone(), BOX);
        let none = Interrupt::none();
        match boxed.solve(&none, &self.pivots, f64::INFINITY) {
            Status::Optimal => {}
            Status::Infeasible => return LpResult::Infeasible,
            _ => return LpResult::Interrupted,
        }
        let x = boxed.x();
        // An optimum strictly inside the box is optimal without it.
        if x.iter().any(|&v| v > BOX / 2.0) {
            let rays: Vec<Row> = (self.constraints.iter())
                .map(|(row, cmp, _)| (row.clone(), *cmp, 0.0))
                .collect();
            let mut ray = Simplex::new(self.num_vars, &rays, cost, 1.0);
            match ray.solve(&none, &self.pivots, f64::INFINITY) {
                Status::Stopped => return LpResult::Interrupted,
                // `r = 0` is feasible, so the answer is optimal; a ray
                // that improves at all improves by far more than
                // round-off.
                _ if ray.z < -1e-6 => return LpResult::Unbounded,
                _ => {}
            }
        }
        let objective = dot(&self.objective, &x);
        LpResult::Optimal { x, objective }
    }
}

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| a * b).sum()
}

/// Where a [`Simplex::solve`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Optimal,
    Infeasible,
    /// The objective reached the cutoff.
    Cutoff,
    /// Interrupted, or out of pivots.
    Stopped,
}

/// No row: the column is nonbasic.
const NONBASIC: usize = usize::MAX;

/// A bounded-variable dual simplex over `n` structural columns and one
/// logical per row: the tableau `B⁻¹[A | I | b]` with the reduced
/// costs (minimisation form), bounds and basis that go with it.
#[derive(Debug, Clone)]
pub(crate) struct Simplex {
    n: usize,
    /// Row stride: `n` structurals, one logical per row, then `B⁻¹b`.
    w: usize,
    t: Vec<f64>,
    d: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// A nonbasic column's side: at `hi` if set, at `lo` if not.
    at_hi: Vec<bool>,
    basis: Vec<usize>,
    /// Each column's row if basic, else [`NONBASIC`].
    row_of: Vec<usize>,
    /// The basic columns' values, row by row.
    beta: Vec<f64>,
    /// The structural columns' costs, and the objective at `beta`.
    cost: Vec<f64>,
    z: f64,
    /// Scratch: the pivot row's nonzeros, or the nonzero nonbasic
    /// values, as `(column, value)`.
    nz: Vec<(usize, f64)>,
}

impl Simplex {
    /// `rows` over structurals in `[0, hi]` priced by `cost`, in the
    /// all-logical basis.
    pub(crate) fn new(n: usize, rows: &[Row], cost: Vec<f64>, hi: f64) -> Self {
        let (m, w) = (rows.len(), n + rows.len() + 1);
        let mut t = vec![0.0; m * w];
        let (mut lo, mut up) = (vec![0.0; n + m], vec![hi; n + m]);
        for (i, (row, cmp, rhs)) in rows.iter().enumerate() {
            let r = &mut t[i * w..(i + 1) * w];
            for &(v, c) in row {
                r[v] += c;
            }
            r[n + i] = 1.0;
            r[w - 1] = *rhs;
            (lo[n + i], up[n + i]) = match cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
        }
        let mut d = cost.clone();
        d.resize(n + m, 0.0);
        let row_of = (0..n + m)
            .map(|j| j.checked_sub(n).unwrap_or(NONBASIC))
            .collect();
        Simplex {
            n,
            w,
            t,
            d,
            lo,
            hi: up,
            at_hi: vec![false; n + m],
            basis: (n..n + m).collect(),
            row_of,
            beta: vec![0.0; m],
            cost,
            z: 0.0,
            nz: Vec::new(),
        }
    }

    /// Bound structural column `j` to `[lo, hi]` from the next solve on.
    pub(crate) fn set_bounds(&mut self, j: usize, lo: f64, hi: f64) {
        (self.lo[j], self.hi[j]) = (lo, hi);
    }

    /// The structural columns' values.
    pub(crate) fn x(&self) -> Vec<f64> {
        (0..self.n)
            .map(|j| match self.row_of[j] {
                NONBASIC => self.value(j),
                r => self.beta[r],
            })
            .collect()
    }

    /// Column `j`'s upper bound if `hi`, its lower if not.
    fn bound(&self, j: usize, hi: bool) -> f64 {
        if hi {
            self.hi[j]
        } else {
            self.lo[j]
        }
    }

    /// A nonbasic column's value.
    fn value(&self, j: usize) -> f64 {
        self.bound(j, self.at_hi[j])
    }

    /// Dual simplex from the current basis, polling `interrupt` once a
    /// pivot and counting pivots into `pivots`. The objective only rises
    /// as it goes, so once it reaches `cutoff` the solve stops there.
    pub(crate) fn solve(
        &mut self,
        interrupt: &Interrupt,
        pivots: &Cell<u64>,
        cutoff: f64,
    ) -> Status {
        // Each nonbasic column to the bound its reduced cost prefers, or
        // to its finite one.
        for j in 0..self.d.len() {
            if self.row_of[j] == NONBASIC {
                let up = self.d[j] < -EPS || (self.d[j] <= EPS && self.at_hi[j]);
                self.at_hi[j] = if up {
                    self.hi[j] < f64::INFINITY
                } else {
                    self.lo[j].is_infinite()
                };
            }
        }
        self.refresh();
        let mut fresh = true;
        for _ in 0..MAX_PIVOTS {
            if interrupt.should_stop() {
                return Status::Stopped;
            }
            let step = if self.z >= cutoff {
                Err(Status::Cutoff)
            } else if let Some((r, to_hi)) = self.leaving() {
                (self.entering(r, to_hi))
                    .map(|q| (r, q, to_hi))
                    .ok_or(Status::Infeasible)
            } else {
                Err(Status::Optimal)
            };
            match step {
                Ok((r, q, to_hi)) => {
                    pivots.set(pivots.get() + 1);
                    self.pivot(r, q, to_hi);
                    fresh = false;
                }
                Err(verdict) if fresh => return verdict,
                // The values are updated pivot by pivot; a verdict is
                // only given on values recomputed from `B⁻¹b`.
                Err(_) => {
                    self.refresh();
                    fresh = true;
                }
            }
        }
        Status::Stopped
    }

    /// The basic values from `B⁻¹b` and the nonbasic columns' values,
    /// and the objective from those.
    fn refresh(&mut self) {
        self.nz.clear();
        for j in 0..self.d.len() {
            if self.row_of[j] == NONBASIC && self.value(j) != 0.0 {
                self.nz.push((j, self.value(j)));
            }
        }
        for (b, row) in self.beta.iter_mut().zip(self.t.chunks(self.w)) {
            *b = row[self.w - 1] - self.nz.iter().map(|&(j, v)| row[j] * v).sum::<f64>();
        }
        self.z = dot(&self.cost, &self.x());
    }

    /// The row to pivot out and whether its basic column leaves to its
    /// upper bound: of the infeasible rows, the one whose basic column
    /// has the smallest index. `None` when all are feasible.
    fn leaving(&self) -> Option<(usize, bool)> {
        let mut best: Option<(usize, usize, bool)> = None;
        for (i, (&b, &k)) in self.beta.iter().zip(&self.basis).enumerate() {
            let (below, above) = (self.lo[k] - b, b - self.hi[k]);
            if below.max(above) > TOL && best.is_none_or(|(_, j, _)| k < j) {
                best = Some((i, k, above > below));
            }
        }
        best.map(|(r, _, to_hi)| (r, to_hi))
    }

    /// The column to pivot in on row `r`: among nonbasic, unfixed
    /// columns whose move off their bound pushes row `r`'s basic column
    /// toward the bound it leaves to, the smallest `|d_j / α_rj|`.
    /// `None` proves the LP infeasible.
    fn entering(&self, r: usize, to_hi: bool) -> Option<usize> {
        let row = &self.t[r * self.w..r * self.w + self.d.len()];
        let mut best: Option<(usize, f64, f64)> = None;
        for (j, &a) in row.iter().enumerate() {
            // Rising from `lo` lowers the basic column when `a > 0`,
            // falling from `hi` raises it.
            if a.abs() <= TOL
                || self.row_of[j] != NONBASIC
                || self.lo[j] == self.hi[j]
                || (a > 0.0) != (self.at_hi[j] != to_hi)
            {
                continue;
            }
            let ratio = self.d[j].abs() / a.abs();
            let take =
                best.is_none_or(|(_, r, p)| ratio < r - EPS || (ratio <= r + EPS && a.abs() > p));
            if take {
                best = Some((j, ratio, a.abs()));
            }
        }
        best.map(|(j, ..)| j)
    }

    /// Pivot column `q` into row `r`, whose basic column leaves to its
    /// upper bound if `to_hi`, its lower if not. Elimination is sparse
    /// in the pivot row.
    fn pivot(&mut self, r: usize, q: usize, to_hi: bool) {
        let (w, cols) = (self.w, self.d.len());
        let leave = self.basis[r];
        let p = self.t[r * w + q];
        // `q` moves until the leaving column reaches its bound.
        let step = (self.beta[r] - self.bound(leave, to_hi)) / p;
        self.z += self.d[q] * step;
        for (b, row) in self.beta.iter_mut().zip(self.t.chunks(w)) {
            *b -= row[q] * step;
        }
        self.beta[r] = self.value(q) + step;
        self.at_hi[leave] = to_hi;
        (self.row_of[leave], self.row_of[q], self.basis[r]) = (NONBASIC, r, q);

        self.nz.clear();
        for (j, v) in self.t[r * w..(r + 1) * w].iter_mut().enumerate() {
            *v /= p;
            if v.abs() < DROP_TOL {
                *v = 0.0;
            } else {
                self.nz.push((j, *v));
            }
        }
        for (i, ti) in self.t.chunks_mut(w).enumerate() {
            let f = ti[q];
            if i != r && f != 0.0 {
                for &(j, v) in &self.nz {
                    // Snap round-off back to an exact zero, so rows and
                    // columns stay genuinely sparse.
                    let x = ti[j] - f * v;
                    ti[j] = if x.abs() < DROP_TOL { 0.0 } else { x };
                }
            }
        }
        let f = self.d[q];
        for &(j, v) in self.nz.iter().filter(|&&(j, _)| j < cols) {
            self.d[j] -= f * v;
        }
        self.d[q] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{IlpModel, IlpResult, IlpVar};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The two-phase primal simplex [`Simplex`] replaced, kept as the
    /// reference it must agree with on status and objective: a cold
    /// dense tableau per solve, `b ≥ 0` by negating rows, one artificial
    /// per `≥`/`=` row, phase 1 minimising their sum, Dantzig pricing
    /// with the Bland fallback, ratio-test ties to the smallest basic
    /// column.
    mod two_phase {
        use super::super::{Cmp, Lp, LpResult, DROP_TOL, EPS};

        /// Columns `[orig 0..n | slack/surplus | artificial]` plus the
        /// rhs, and which column is basic in each row.
        struct Tableau {
            t: Vec<Vec<f64>>,
            basis: Vec<usize>,
            total: usize,
            n: usize,
            num_slack: usize,
            art_col: Vec<Option<usize>>,
        }

        /// Degenerate pivots in a row after which pricing switches from
        /// Dantzig's rule to Bland's.
        const STALL_LIMIT: u32 = 24;

        pub(crate) fn solve(lp: &Lp) -> LpResult {
            let mut tab = build(lp);
            match phase1(&mut tab) {
                Ok(()) => phase2(lp, &mut tab),
                Err(r) => r,
            }
        }

        fn build(lp: &Lp) -> Tableau {
            let n = lp.num_vars;
            let mut rows: Vec<(Vec<f64>, Cmp, f64)> = Vec::new();
            for (coeffs, cmp, rhs) in &lp.constraints {
                let mut row = vec![0.0; n];
                for &(v, c) in coeffs {
                    row[v] += c;
                }
                let (sign, cmp) = match (*rhs < 0.0, *cmp) {
                    (false, cmp) => (1.0, cmp),
                    (true, Cmp::Le) => (-1.0, Cmp::Ge),
                    (true, Cmp::Ge) => (-1.0, Cmp::Le),
                    (true, Cmp::Eq) => (-1.0, Cmp::Eq),
                };
                rows.push((row.iter().map(|c| sign * c).collect(), cmp, sign * rhs));
            }
            let num_slack = rows.iter().filter(|r| r.1 != Cmp::Eq).count();
            let num_art = rows.iter().filter(|r| r.1 != Cmp::Le).count();
            let total = n + num_slack + num_art;
            let mut t = vec![vec![0.0; total + 1]; rows.len()];
            let mut basis = vec![0; rows.len()];
            let mut art_col = vec![None; rows.len()];
            let (mut s_off, mut a_off) = (n, n + num_slack);
            for (i, (row, cmp, rhs)) in rows.iter().enumerate() {
                t[i][..n].copy_from_slice(row);
                t[i][total] = *rhs;
                if *cmp != Cmp::Eq {
                    t[i][s_off] = if *cmp == Cmp::Le { 1.0 } else { -1.0 };
                    basis[i] = s_off;
                    s_off += 1;
                }
                if *cmp != Cmp::Le {
                    t[i][a_off] = 1.0;
                    basis[i] = a_off;
                    art_col[i] = Some(a_off);
                    a_off += 1;
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

        /// Minimise the sum of artificials; errors are terminal.
        fn phase1(tab: &mut Tableau) -> Result<(), LpResult> {
            let (m, total) = (tab.t.len(), tab.total);
            if tab.art_col.iter().all(Option::is_none) {
                return Ok(());
            }
            let mut z = vec![0.0; total + 1];
            for c in tab.art_col.iter().flatten() {
                z[*c] = 1.0;
            }
            for i in 0..m {
                if tab.basis[i] >= tab.n + tab.num_slack {
                    for (zj, tij) in z.iter_mut().zip(&tab.t[i]) {
                        *zj -= tij;
                    }
                }
            }
            if !iterate(tab, &mut z) || z[total] < -EPS {
                return Err(LpResult::Infeasible);
            }
            // Drive degenerate artificials out of the basis.
            for i in 0..m {
                if tab.basis[i] >= tab.n + tab.num_slack {
                    if let Some(j) = (0..tab.n + tab.num_slack).find(|&j| tab.t[i][j].abs() > EPS) {
                        pivot(tab, &mut z, i, j);
                    }
                }
            }
            Ok(())
        }

        /// Optimise the objective from a feasible basis.
        fn phase2(lp: &Lp, tab: &mut Tableau) -> LpResult {
            let (m, total, n) = (tab.t.len(), tab.total, tab.n);
            let sign = if lp.maximize { 1.0 } else { -1.0 };
            let mut z = vec![0.0; total + 1];
            for (j, &c) in lp.objective.iter().enumerate() {
                z[j] = -sign * c;
            }
            for c in tab.art_col.iter().flatten() {
                z[*c] = 1e18;
            }
            for i in 0..m {
                let factor = z[tab.basis[i]];
                if factor.abs() > EPS && factor < 1e17 {
                    for (zj, tij) in z.iter_mut().zip(&tab.t[i]) {
                        *zj -= factor * tij;
                    }
                }
            }
            if !iterate(tab, &mut z) {
                return LpResult::Unbounded;
            }
            let mut x = vec![0.0; n];
            for i in 0..m {
                if tab.basis[i] < n {
                    x[tab.basis[i]] = tab.t[i][total];
                }
            }
            let objective = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
            LpResult::Optimal { x, objective }
        }

        /// Primal simplex to optimality (`true`) or unboundedness.
        fn iterate(tab: &mut Tableau, z: &mut [f64]) -> bool {
            let (m, total) = (tab.t.len(), tab.total);
            let mut stalled = 0u32;
            for _ in 0..100_000 {
                let enter = if stalled < STALL_LIMIT {
                    let mut best = (None, -EPS);
                    for (j, &zj) in z.iter().enumerate().take(total) {
                        if zj < best.1 {
                            best = (Some(j), zj);
                        }
                    }
                    best.0
                } else {
                    (0..total).find(|&j| z[j] < -EPS)
                };
                let Some(enter) = enter else {
                    return true;
                };
                let (t, basis) = (&tab.t, &tab.basis);
                let (mut leave, mut best): (Option<usize>, f64) = (None, f64::INFINITY);
                for i in 0..m {
                    if t[i][enter] > EPS {
                        let ratio = t[i][total] / t[i][enter];
                        if ratio < best - EPS
                            || (ratio < best + EPS && leave.is_some_and(|l| basis[i] < basis[l]))
                        {
                            (best, leave) = (ratio, Some(i));
                        }
                    }
                }
                let Some(leave) = leave else {
                    return false;
                };
                stalled = if best <= EPS { stalled + 1 } else { 0 };
                pivot(tab, z, leave, enter);
            }
            true
        }

        /// Dense elimination on `(row, col)`, objective row included.
        #[allow(clippy::needless_range_loop)] // indexes two tableau rows at once
        fn pivot(tab: &mut Tableau, z: &mut [f64], row: usize, col: usize) {
            let t = &mut tab.t;
            let p = t[row][col];
            for v in t[row].iter_mut() {
                *v /= p;
                if v.abs() < DROP_TOL {
                    *v = 0.0;
                }
            }
            for i in 0..t.len() {
                let f = t[i][col];
                if i != row && f.abs() > EPS {
                    for j in 0..=tab.total {
                        t[i][j] -= f * t[row][j];
                        if t[i][j].abs() < DROP_TOL {
                            t[i][j] = 0.0;
                        }
                    }
                }
            }
            let f = z[col];
            if f.abs() > EPS {
                for (zj, r) in z.iter_mut().zip(&t[row]) {
                    *zj -= f * r;
                }
            }
            tab.basis[row] = col;
        }
    }

    /// A nonzero coefficient in `-3..=3`.
    fn coeff(rng: &mut StdRng) -> f64 {
        let c = rng.random_range(1..=3i32) as f64;
        if rng.random_bool(0.5) {
            -c
        } else {
            c
        }
    }

    /// A random LP: `≤`/`≥`/`=` rows of small integer coefficients,
    /// most of them zero, with right-hand sides of either sign, many
    /// rows tight at a random integer point (degenerate vertices), some
    /// repeated or negated (redundant rows), and upper bounds on some
    /// variables. One in four is assignment-shaped like the mappers'
    /// relaxations instead.
    fn random_lp(seed: u64) -> Lp {
        let mut rng = StdRng::seed_from_u64(seed);
        if rng.random_bool(0.25) {
            return assignment_lp(&mut rng);
        }
        let n = rng.random_range(1..=16usize);
        let m = rng.random_range(1..=16usize);
        let mut lp = Lp::new(n, rng.random_bool(0.5));
        for v in 0..n {
            lp.set_objective(v, rng.random_range(-4..=4i32) as f64);
        }
        let point: Vec<f64> = (0..n).map(|_| rng.random_range(0..=2i32) as f64).collect();
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        for _ in 0..m {
            let row: Vec<(usize, f64)> = match rows.len() {
                k if k > 0 && rng.random_bool(0.15) => {
                    let sign = if rng.random_bool(0.5) { -1.0 } else { 1.0 };
                    let copy = &rows[rng.random_range(0..k)];
                    copy.iter().map(|&(v, c)| (v, sign * c)).collect()
                }
                _ => {
                    let mut row = Vec::new();
                    for v in 0..n {
                        if rng.random_bool(0.3) {
                            row.push((v, coeff(&mut rng)));
                        }
                    }
                    row
                }
            };
            let at_point: f64 = row.iter().map(|&(v, c)| c * point[v]).sum();
            let slack = rng.random_range(0..=2i32) as f64;
            let (cmp, rhs) = match rng.random_range(0..3u32) {
                0 => (Cmp::Le, at_point + slack),
                1 => (Cmp::Ge, at_point - slack),
                _ => (Cmp::Eq, at_point),
            };
            let rhs = if rng.random_bool(0.1) {
                rng.random_range(-6..=6i32) as f64
            } else {
                rhs
            };
            lp.add_constraint(&row, cmp, rhs);
            rows.push(row);
        }
        for v in 0..n {
            if rng.random_bool(0.5) {
                lp.add_constraint(&[(v, 1.0)], Cmp::Le, rng.random_range(1..=4i32) as f64);
            }
        }
        lp
    }

    /// The relaxation of a random placement: per op exactly one of its
    /// positions, at most one op per shared slot, implications
    /// `x ≤ Σ successors` with right-hand side zero, and `x ≤ 1` bounds.
    fn assignment_lp(rng: &mut StdRng) -> Lp {
        let (ops, per) = (rng.random_range(2..=8usize), rng.random_range(2..=6usize));
        let slots = rng.random_range(2..=ops * per);
        let n = ops * per;
        let mut lp = Lp::new(n, false);
        for v in 0..n {
            lp.set_objective(v, rng.random_range(0..=6i32) as f64);
        }
        for op in 0..ops {
            let row: Vec<(usize, f64)> = (0..per).map(|k| (op * per + k, 1.0)).collect();
            lp.add_constraint(&row, Cmp::Eq, 1.0);
        }
        let slot: Vec<usize> = (0..n).map(|_| rng.random_range(0..slots)).collect();
        for s in 0..slots {
            let row: Vec<(usize, f64)> =
                (0..n).filter(|&v| slot[v] == s).map(|v| (v, 1.0)).collect();
            if row.len() > 1 {
                lp.add_constraint(&row, Cmp::Le, 1.0);
            }
        }
        for op in 1..ops {
            for k in 0..per {
                let mut row = vec![((op - 1) * per + k, 1.0)];
                row.extend(
                    (0..per)
                        .filter(|_| rng.random_bool(0.5))
                        .map(|j| (op * per + j, -1.0)),
                );
                lp.add_constraint(&row, Cmp::Le, 0.0);
            }
        }
        for v in 0..n {
            lp.add_constraint(&[(v, 1.0)], Cmp::Le, 1.0);
        }
        lp
    }

    /// A random 0/1 ILP built from the mappers' row shapes, as
    /// `(maximise, objective, rows)`: exactly-one and at-most-one
    /// groups, implications `a ≤ Σ b`, and knapsack rows. Costs are in
    /// quarters, as the mapper's are fractional, so an optimum can beat
    /// an incumbent by less than 1.
    fn random_ilp_rows(seed: u64) -> (bool, Vec<f64>, Vec<Row>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let maximize = rng.random_bool(0.5);
        let n = rng.random_range(2..=16usize);
        let objective: Vec<f64> = (0..n)
            .map(|_| rng.random_range(-12..=24i32) as f64 / 4.0)
            .collect();
        let mut rows = Vec::new();
        for _ in 0..rng.random_range(1..=12usize) {
            let k = rng.random_range(2..=n.min(4));
            let mut group: Vec<usize> = Vec::new();
            while group.len() < k {
                let v = rng.random_range(0..n);
                if !group.contains(&v) {
                    group.push(v);
                }
            }
            let ones = group.iter().map(|&v| (v, 1.0)).collect();
            rows.push(match rng.random_range(0..4u32) {
                0 => (ones, Cmp::Eq, 1.0),
                1 => (ones, Cmp::Le, 1.0),
                2 => {
                    let rest = group[1..].iter().map(|&v| (v, -1.0));
                    (
                        [(group[0], 1.0)].into_iter().chain(rest).collect(),
                        Cmp::Le,
                        0.0,
                    )
                }
                _ => {
                    let row = (group.iter())
                        .map(|&v| (v, rng.random_range(1..=5i32) as f64))
                        .collect();
                    (row, Cmp::Le, rng.random_range(2..=8i32) as f64)
                }
            });
        }
        (maximize, objective, rows)
    }

    fn random_ilp(seed: u64) -> IlpModel {
        let (maximize, objective, rows) = random_ilp_rows(seed);
        let mut m = IlpModel::new(maximize);
        let vars: Vec<IlpVar> = objective.iter().map(|&c| m.add_var(c)).collect();
        for (row, cmp, rhs) in &rows {
            let row: Vec<(IlpVar, f64)> = row.iter().map(|&(v, c)| (vars[v], c)).collect();
            m.add_constraint(&row, *cmp, *rhs);
        }
        m
    }

    /// Branch-and-bound as it was: depth-first, each node a cold
    /// two-phase solve of the relaxation with one `x ≤ 1` row per free
    /// variable and one equality row per fixing. The optimum, or `None`
    /// if the ILP is infeasible.
    fn two_phase_branch_and_bound(maximize: bool, objective: &[f64], rows: &[Row]) -> Option<f64> {
        let n = objective.len();
        let better = |a: f64, b: f64| if maximize { a > b + 1e-6 } else { a < b - 1e-6 };
        let mut best: Option<f64> = None;
        let mut stack = vec![vec![None; n]];
        while let Some(fixed) = stack.pop() {
            let mut lp = Lp::new(n, maximize);
            for (v, &c) in objective.iter().enumerate() {
                lp.set_objective(v, c);
            }
            for (row, cmp, rhs) in rows {
                lp.add_constraint(row, *cmp, *rhs);
            }
            for (v, fix) in fixed.iter().enumerate() {
                match fix {
                    Some(b) => lp.add_constraint(&[(v, 1.0)], Cmp::Eq, f64::from(*b)),
                    None => lp.add_constraint(&[(v, 1.0)], Cmp::Le, 1.0),
                }
            }
            let LpResult::Optimal {
                x,
                objective: bound,
            } = two_phase::solve(&lp)
            else {
                continue;
            };
            if best.is_some_and(|b| !better(bound, b)) {
                continue;
            }
            let frac = (0..n)
                .filter(|&v| fixed[v].is_none())
                .map(|v| (v, (x[v] - x[v].round()).abs()))
                .filter(|&(_, f)| f > 1e-6)
                .max_by(|a, b| a.1.total_cmp(&b.1));
            match frac {
                None => {
                    let obj = dot(objective, &x.iter().map(|v| v.round()).collect::<Vec<_>>());
                    if best.is_none_or(|b| better(obj, b)) {
                        best = Some(obj);
                    }
                }
                Some((v, _)) => {
                    for value in [x[v] <= 0.5, x[v] > 0.5] {
                        let mut child = fixed.clone();
                        child[v] = Some(value);
                        stack.push(child);
                    }
                }
            }
        }
        best
    }

    /// Same status, and for optima the same objective (1e-6) and an `x`
    /// that keeps every row of `lp`.
    fn agree(lp: &Lp, got: &LpResult, want: &LpResult) -> bool {
        match (got, want) {
            (LpResult::Optimal { x, objective: a }, LpResult::Optimal { objective: b, .. }) => {
                let keeps = |(row, cmp, rhs): &Row| {
                    let lhs: f64 = row.iter().map(|&(v, c)| c * x[v]).sum();
                    match cmp {
                        Cmp::Le => lhs <= rhs + 1e-6,
                        Cmp::Ge => lhs >= rhs - 1e-6,
                        Cmp::Eq => (lhs - rhs).abs() <= 1e-6,
                    }
                };
                (a - b).abs() < 1e-6
                    && x.iter().all(|&v| v >= -1e-6)
                    && lp.constraints.iter().all(keeps)
            }
            _ => std::mem::discriminant(got) == std::mem::discriminant(want),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        #[test]
        fn dual_simplex_matches_the_two_phase_reference(seed in any::<u64>()) {
            let lp = random_lp(seed);
            let (got, want) = (lp.solve(), two_phase::solve(&lp));
            prop_assert!(agree(&lp, &got, &want), "{:?} vs {:?}, seed {}", got, want, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        #[test]
        fn branch_and_bound_matches_the_two_phase_reference(seed in any::<u64>()) {
            let (maximize, objective, rows) = random_ilp_rows(seed);
            let want = two_phase_branch_and_bound(maximize, &objective, &rows);
            match (random_ilp(seed).solve(), want) {
                (IlpResult::Optimal { objective, .. }, Some(best)) => {
                    prop_assert!((objective - best).abs() < 1e-6, "{} vs {}, seed {}", objective, best, seed)
                }
                (IlpResult::Infeasible, None) => {}
                (got, want) => prop_assert!(false, "{:?} vs {:?}, seed {}", got, want, seed),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// Rounds of bound changes (fix to 0, fix to 1, free again),
        /// each re-solved from the previous round's tableau, whatever
        /// that round ended in.
        #[test]
        fn a_warm_resolve_after_bound_changes_matches_a_cold_solve(seed in any::<u64>()) {
            let (maximize, objective, rows) = random_ilp_rows(seed);
            let n = objective.len();
            let sign = if maximize { -1.0 } else { 1.0 };
            let cost: Vec<f64> = objective.iter().map(|&c| sign * c).collect();
            let (none, pivots) = (Interrupt::none(), Cell::new(0));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bounds = vec![(0.0, 1.0); n];
            let mut warm = Simplex::new(n, &rows, cost.clone(), 1.0);
            for round in 0..6 {
                let mut cold = Simplex::new(n, &rows, cost.clone(), 1.0);
                for (v, &(lo, hi)) in bounds.iter().enumerate() {
                    cold.set_bounds(v, lo, hi);
                }
                let inf = f64::INFINITY;
                let (got, want) = (warm.solve(&none, &pivots, inf), cold.solve(&none, &pivots, inf));
                prop_assert_eq!(got, want, "round {}, seed {}", round, seed);
                if got == Status::Optimal {
                    let (a, b) = (dot(&cost, &warm.x()), dot(&cost, &cold.x()));
                    prop_assert!((a - b).abs() < 1e-6, "{} vs {}, round {}, seed {}", a, b, round, seed);
                }
                for _ in 0..rng.random_range(1..=3) {
                    let v = rng.random_range(0..n);
                    bounds[v] = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)][rng.random_range(0..3)];
                    warm.set_bounds(v, bounds[v].0, bounds[v].1);
                }
            }
        }
    }

    /// `examples/kernels/fir4.mc`'s ILP at II 6 on a 3×3 mesh, as the
    /// mapper lowers it: 132 columns, 178 rows. Its fractional bases
    /// leave round-off near 1e-9 in a warm tableau within a few dives.
    fn fir4_ii6() -> (Vec<f64>, Vec<Row>) {
        let text = include_str!("../tests/data/fir4_ii6_ilp.txt");
        let mut lines = text.lines().skip(1);
        let num = |s: &str| s.parse::<f64>().unwrap();
        let cost = lines.next().unwrap().split(' ').map(num).collect();
        let rows = lines
            .map(|line| {
                let mut words = line.split(' ');
                let cmp = match words.next().unwrap() {
                    "<=" => Cmp::Le,
                    ">=" => Cmp::Ge,
                    _ => Cmp::Eq,
                };
                let rhs = num(words.next().unwrap());
                let terms = words.map(|w| {
                    let (v, c) = w.split_once(':').unwrap();
                    (v.parse().unwrap(), num(c))
                });
                (terms.collect(), cmp, rhs)
            })
            .collect();
        (cost, rows)
    }

    #[test]
    fn warm_dives_on_a_mapper_model_match_cold_solves() {
        // A search's dives: fix the most fractional column to its
        // rounded value; once a dive ends, free the deepest fixing and
        // fix its column the other way. Every warm verdict and optimum
        // must be a cold solve's. A feasibility tolerance of 1e-9 here
        // called feasible relaxations infeasible on round-off.
        let (cost, rows) = fir4_ii6();
        let n = cost.len();
        let (none, pivots, inf) = (Interrupt::none(), Cell::new(0), f64::INFINITY);
        let mut warm = Simplex::new(n, &rows, cost.clone(), 1.0);
        let mut path: Vec<(usize, f64)> = Vec::new();
        for round in 0..150 {
            let mut cold = Simplex::new(n, &rows, cost.clone(), 1.0);
            for &(v, b) in &path {
                cold.set_bounds(v, b, b);
            }
            let (got, want) = (
                warm.solve(&none, &pivots, inf),
                cold.solve(&none, &pivots, inf),
            );
            assert_eq!(got, want, "round {round}");
            let x = warm.x();
            if got == Status::Optimal {
                let (a, b) = (dot(&cost, &x), dot(&cost, &cold.x()));
                assert!((a - b).abs() < 1e-6, "{a} vs {b}, round {round}");
            }
            let free = |v: &usize| path.iter().all(|&(u, _)| u != *v);
            let frac = (0..n)
                .filter(|v| got == Status::Optimal && free(v))
                .map(|v| (v, (x[v] - x[v].round()).abs()))
                .filter(|&(_, f)| f > 1e-6)
                .max_by(|a, b| a.1.total_cmp(&b.1));
            match (frac, path.pop()) {
                (Some((v, _)), last) => {
                    path.extend(last);
                    path.push((v, x[v].round()));
                }
                (None, Some((v, b))) => {
                    warm.set_bounds(v, 0.0, 1.0);
                    path.push((v, 1.0 - b));
                }
                (None, None) => break,
            }
            let &(v, b) = path.last().unwrap();
            warm.set_bounds(v, b, b);
        }
    }

    #[test]
    fn the_random_lps_reach_every_outcome_at_degenerate_vertices() {
        // The equivalence above means little unless its inputs end every
        // way a solve can end, and many optima sit at degenerate
        // vertices (a basic column at a bound), where the ratio test
        // meets ties.
        let (mut optimal, mut infeasible, mut unbounded, mut degenerate) = (0, 0, 0, 0);
        for seed in 0..512 {
            let lp = random_lp(seed);
            match lp.solve() {
                LpResult::Optimal { .. } => optimal += 1,
                LpResult::Infeasible => infeasible += 1,
                LpResult::Unbounded => unbounded += 1,
                LpResult::Interrupted => unreachable!(),
            }
            let sign = if lp.maximize { -1.0 } else { 1.0 };
            let cost = lp.objective.iter().map(|&c| sign * c).collect();
            let mut s = Simplex::new(lp.num_vars, &lp.constraints, cost, BOX);
            if s.solve(&Interrupt::none(), &Cell::new(0), f64::INFINITY) == Status::Optimal {
                let at_bound = |(&b, &k): (&f64, &usize)| {
                    (b - s.lo[k]).abs() <= EPS || (b - s.hi[k]).abs() <= EPS
                };
                degenerate += usize::from(s.beta.iter().zip(&s.basis).any(at_bound));
            }
        }
        for (what, count, least) in [
            ("optimal", optimal, 64),
            ("infeasible", infeasible, 64),
            ("unbounded", unbounded, 64),
            ("degenerate", degenerate, 128),
        ] {
            assert!(count >= least, "{what}: {count} of 512");
        }
    }

    #[test]
    fn the_random_ilps_branch_and_end_both_ways() {
        let (mut optimal, mut infeasible, mut branched) = (0, 0, 0);
        for seed in 0..128 {
            let m = random_ilp(seed);
            match m.solve() {
                IlpResult::Optimal { .. } => optimal += 1,
                IlpResult::Infeasible => infeasible += 1,
                other => panic!("{other:?}"),
            }
            branched += usize::from(m.stats().decisions > 1);
        }
        assert!(optimal >= 64 && infeasible >= 8, "{optimal} / {infeasible}");
        assert!(branched >= 16, "{branched} of 128 branched");
    }

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
    fn pivots_count_every_solve_and_the_artificial_drive_out() {
        // `-y = 0` holds with y at its lower bound and no artificial;
        // `x ≤ 3` starts infeasible with x at the box, and one dual
        // pivot brings x to 3. That optimum is well inside the box, so
        // no direction LP runs.
        let mut lp = Lp::new(2, true);
        lp.set_objective(0, 1.0);
        lp.add_constraint(&[(1, -1.0)], Cmp::Eq, 0.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 3.0);
        assert_eq!(lp.pivots(), 0);
        match lp.solve() {
            LpResult::Optimal { objective, .. } => assert_near(objective, 3.0),
            other => panic!("{other:?}"),
        }
        assert_eq!(lp.pivots(), 1);
        lp.solve();
        assert_eq!(lp.pivots(), 2, "pivots accumulate across solves");
    }

    #[test]
    fn an_optimum_past_half_the_box_is_checked_by_the_direction_lp() {
        // max x s.t. x ≤ 0.75·BOX: bounded, but its optimum is past
        // BOX / 2, so the direction LP runs (one pivot each) and finds
        // no improving ray.
        let mut lp = Lp::new(1, true);
        lp.set_objective(0, 1.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 0.75 * BOX);
        match lp.solve() {
            LpResult::Optimal { objective, .. } => assert_near(objective, 0.75 * BOX),
            other => panic!("{other:?}"),
        }
        assert_eq!(lp.pivots(), 2);
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
