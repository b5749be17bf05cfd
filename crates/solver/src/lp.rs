//! Two-phase primal simplex on a dense tableau.
//!
//! Solves `max/min c·x  s.t.  A x {≤,=,≥} b,  x ≥ 0` for the LP
//! relaxations of the CGRA-mapping ILP encodings (a few hundred
//! variables); no scaling heuristics, no bound handling beyond rows.
//! Pricing is Dantzig's (most negative reduced cost), switching to
//! Bland's rule after `STALL_LIMIT` (24) degenerate pivots in a row
//! until a nondegenerate pivot; ratio-test ties go to the smallest basic
//! column.
//!
//! The tableau is stored dense, but elimination is sparse in the pivot
//! row: a pivot updates each touched row, and the objective row, over
//! the pivot row's nonzero columns only (13–18 % of them on the mappers'
//! relaxations). A skipped column would have received `x − f·0`, which
//! is `x` up to the sign of a zero, and no comparison here can see that
//! sign. So, provided every coefficient and right-hand side handed in
//! is either zero or at least `DROP_TOL` (1e-11) in magnitude (the
//! ILP's rows are small integers), every pivot, and every number a
//! solve returns up to the sign of a zero, is what full dense
//! elimination produces; the tests hold the kernel to the dense one on
//! random LPs and ILPs.

use std::cell::Cell;

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
    /// The last pivot row's nonzeros as `(column, value)`, reused
    /// across pivots.
    nz: Vec<(usize, f64)>,
}

/// A pivot kernel: pivot the tableau on `(row, col)`, carrying the
/// objective row along.
type Kernel<'a> = &'a mut dyn FnMut(&mut Tableau, &mut [f64], usize, usize);

impl Tableau {
    #[inline]
    fn is_artificial(&self, col: usize) -> bool {
        col >= self.n + self.num_slack
    }
}

const EPS: f64 = 1e-9;

/// Degenerate pivots in a row after which pricing switches from
/// Dantzig's rule to Bland's. Bland alone is safe but crawls on the
/// heavily degenerate assignment-shaped LPs the mappers produce.
const STALL_LIMIT: u32 = 24;

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
            pivots: Cell::new(0),
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

    /// Simplex pivots performed by every [`Lp::solve`] of this LP so
    /// far, phase 1's drive-out of degenerate artificials included — the
    /// LP's unit of work, independent of what a pivot costs.
    pub fn pivots(&self) -> u64 {
        self.pivots.get()
    }

    fn count_pivot(&self) {
        self.pivots.set(self.pivots.get() + 1);
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
            nz: Vec::new(),
        }
    }

    /// Solve with two-phase primal simplex.
    pub fn solve(&self) -> LpResult {
        self.solve_by(&mut Tableau::pivot)
    }

    /// [`Lp::solve`] with `pivot` as the elimination kernel; the tests
    /// run the dense reference kernel through the same phases.
    fn solve_by(&self, pivot: Kernel<'_>) -> LpResult {
        let mut tab = self.build_tableau();
        match self.phase1(&mut tab, pivot) {
            Ok(()) => self.phase2(&mut tab, pivot),
            Err(r) => r,
        }
    }

    /// Phase 1: minimise the sum of artificials from the tableau's
    /// current basis; errors are terminal solve outcomes.
    fn phase1(&self, tab: &mut Tableau, pivot: Kernel<'_>) -> Result<(), LpResult> {
        let m = tab.t.len();
        let total = tab.total;
        let has_art = tab.art_col.iter().any(|c| c.is_some());
        if !has_art {
            return Ok(());
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
        match self.iterate(tab, &mut z, pivot) {
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
                    self.count_pivot();
                    pivot(tab, &mut z, i, j);
                }
                // Otherwise the row is redundant (all zero): leave it.
            }
        }
        Ok(())
    }

    /// Phase 2: optimise the original objective from a primal-feasible
    /// basis, then extract the solution.
    fn phase2(&self, tab: &mut Tableau, pivot: Kernel<'_>) -> LpResult {
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
        match self.iterate(tab, &mut z, pivot) {
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
    fn iterate(&self, tab: &mut Tableau, z: &mut [f64], pivot: Kernel<'_>) -> Result<(), IterStop> {
        let m = tab.t.len();
        let total = tab.total;
        // Dantzig pricing (most negative reduced cost) until a run of
        // STALL_LIMIT degenerate pivots suggests cycling; then Bland's
        // rule until a nondegenerate pivot breaks the stall.
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
            let (t, basis) = (&tab.t, &tab.basis);
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
            self.count_pivot();
            pivot(tab, z, leave, enter);
        }
        // Numerical trouble: treat as optimal-at-current-point.
        Ok(())
    }
}

impl Tableau {
    /// Pivot on `(row, col)`: divide the pivot row by its pivot, then
    /// eliminate `col` from every other row and from the objective row
    /// `z` over the pivot row's nonzero columns only, which computes
    /// what dense elimination computes (module doc).
    fn pivot(&mut self, z: &mut [f64], row: usize, col: usize) {
        let p = self.t[row][col];
        debug_assert!(p.abs() > EPS);
        self.nz.clear();
        for (j, v) in self.t[row].iter_mut().enumerate() {
            *v /= p;
            if v.abs() < DROP_TOL {
                *v = 0.0;
            } else {
                self.nz.push((j, *v));
            }
        }
        for (i, ti) in self.t.iter_mut().enumerate() {
            let f = ti[col];
            if i != row && f.abs() > EPS {
                for &(j, r) in &self.nz {
                    // Snap round-off back to an exact zero: the
                    // `t[i][col] > EPS` guard above short-circuits whole
                    // rows only while the tableau stays genuinely
                    // sparse; round-off would otherwise fill it with
                    // near-zero junk whose updates — many on denormals
                    // — dominate the solve.
                    let v = ti[j] - f * r;
                    ti[j] = if v.abs() < DROP_TOL { 0.0 } else { v };
                }
            }
        }
        if z[col].abs() > EPS {
            let f = z[col];
            for &(j, r) in &self.nz {
                z[j] -= f * r;
            }
        }
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{IlpConfig, IlpModel, IlpResult, IlpVar};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The dense elimination [`Tableau::pivot`] replaced, verbatim but
    /// for reading the tableau's fields: every column of every touched
    /// row. The reference the sparse kernel must reproduce bit for bit.
    #[allow(clippy::needless_range_loop)] // indexes two tableau rows at once
    fn dense_pivot(tab: &mut Tableau, z: &mut [f64], row: usize, col: usize) {
        let (t, total) = (&mut tab.t, tab.total);
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
        tab.basis[row] = col;
    }

    type KernelFn = fn(&mut Tableau, &mut [f64], usize, usize);

    /// `lp` solved through `kernel`, with its `(leave, enter)` pivots in
    /// order.
    fn traced(lp: &Lp, kernel: KernelFn) -> (LpResult, Vec<(usize, usize)>) {
        let mut pivots = Vec::new();
        let result = lp.solve_by(&mut |tab: &mut Tableau, z: &mut [f64], row, col| {
            pivots.push((row, col));
            kernel(tab, z, row, col)
        });
        (result, pivots)
    }

    /// The bits of an optimum's `x` and objective, `-0.0` read as `0.0`.
    fn bits(r: &LpResult) -> Option<(Vec<u64>, u64)> {
        let canon = |v: f64| (v + 0.0).to_bits();
        match r {
            LpResult::Optimal { x, objective } => {
                Some((x.iter().map(|&v| canon(v)).collect(), canon(*objective)))
            }
            _ => None,
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
    /// repeated or negated (redundant rows, artificials left basic after
    /// phase 1), and upper bounds on some variables. One in four is
    /// assignment-shaped like the mappers' relaxations instead.
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

    /// A random 0/1 ILP built from the mappers' row shapes: exactly-one
    /// and at-most-one groups, implications `a ≤ Σ b`, and knapsack rows.
    fn random_ilp(seed: u64) -> IlpModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = IlpModel::new(rng.random_bool(0.5));
        let n = rng.random_range(2..=16usize);
        let vars: Vec<IlpVar> = (0..n)
            .map(|_| m.add_var(rng.random_range(-3..=6i32) as f64))
            .collect();
        let pick = |rng: &mut StdRng| -> Vec<IlpVar> {
            let k = rng.random_range(2..=n.min(4));
            let mut group: Vec<IlpVar> = Vec::new();
            while group.len() < k {
                let v = vars[rng.random_range(0..n)];
                if !group.contains(&v) {
                    group.push(v);
                }
            }
            group
        };
        for _ in 0..rng.random_range(1..=12usize) {
            let group = pick(&mut rng);
            match rng.random_range(0..4u32) {
                0 => m.exactly_one(&group),
                1 => m.at_most_one(&group),
                2 => {
                    let mut row = vec![(group[0], 1.0)];
                    row.extend(group[1..].iter().map(|&v| (v, -1.0)));
                    m.add_constraint(&row, Cmp::Le, 0.0);
                }
                _ => {
                    let row: Vec<(IlpVar, f64)> = group
                        .iter()
                        .map(|&v| (v, rng.random_range(1..=5i32) as f64))
                        .collect();
                    m.add_constraint(&row, Cmp::Le, rng.random_range(2..=8i32) as f64);
                }
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        #[test]
        fn sparse_pivots_replay_the_dense_reference(seed in any::<u64>()) {
            let lp = random_lp(seed);
            let (sparse, sparse_seq) = traced(&lp, Tableau::pivot);
            let (dense, dense_seq) = traced(&lp, dense_pivot);
            prop_assert_eq!(sparse_seq, dense_seq, "pivot sequence, seed {}", seed);
            prop_assert_eq!(
                std::mem::discriminant(&sparse),
                std::mem::discriminant(&dense),
                "{:?} vs {:?}, seed {}", sparse, dense, seed
            );
            prop_assert_eq!(bits(&sparse), bits(&dense), "seed {}", seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        #[test]
        fn branch_and_bound_is_the_same_with_the_dense_reference(seed in any::<u64>()) {
            let sparse = random_ilp(seed);
            let dense = sparse.clone();
            let cfg = IlpConfig::default();
            let a = sparse.branch_and_bound(cfg, Lp::solve);
            let b = dense.branch_and_bound(cfg, |lp| lp.solve_by(&mut dense_pivot));
            prop_assert_eq!(a, b, "seed {}", seed);
            prop_assert_eq!(sparse.stats(), dense.stats(), "seed {}", seed);
        }
    }

    #[test]
    fn the_random_lps_reach_every_outcome_through_degenerate_pivots() {
        // The equivalence above means little unless its inputs pivot,
        // degenerately too (long enough runs for the Bland fallback),
        // and end every way a solve can end.
        let (mut optimal, mut infeasible, mut unbounded) = (0, 0, 0);
        let (mut degenerate, mut bland) = (0, 0);
        for seed in 0..512 {
            let lp = random_lp(seed);
            let (mut run, mut longest) = (0u32, 0);
            let result = lp.solve_by(&mut |tab: &mut Tableau, z: &mut [f64], row, col| {
                run = if tab.t[row][tab.total] <= EPS {
                    run + 1
                } else {
                    0
                };
                longest = longest.max(run);
                tab.pivot(z, row, col)
            });
            match result {
                LpResult::Optimal { .. } => optimal += 1,
                LpResult::Infeasible => infeasible += 1,
                LpResult::Unbounded => unbounded += 1,
                LpResult::Interrupted => unreachable!(),
            }
            degenerate += usize::from(longest > 0);
            bland += usize::from(longest > STALL_LIMIT);
        }
        for (what, count, least) in [
            ("optimal", optimal, 64),
            ("infeasible", infeasible, 64),
            ("unbounded", unbounded, 64),
            ("degenerate", degenerate, 256),
            ("Bland", bland, 4),
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
        // Phase 1 starts optimal with `-y = 0`'s artificial basic at
        // zero: one pivot drives it out, one more in phase 2 raises x.
        let mut lp = Lp::new(2, true);
        lp.set_objective(0, 1.0);
        lp.add_constraint(&[(1, -1.0)], Cmp::Eq, 0.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 3.0);
        assert_eq!(lp.pivots(), 0);
        match lp.solve() {
            LpResult::Optimal { objective, .. } => assert_near(objective, 3.0),
            other => panic!("{other:?}"),
        }
        assert_eq!(lp.pivots(), 2);
        lp.solve();
        assert_eq!(lp.pivots(), 4, "pivots accumulate across solves");
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
