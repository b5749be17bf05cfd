//! 0/1 integer linear programming by branch-and-bound over LP
//! relaxations — the oracle behind ILP-based CGRA mappers (Chin &
//! Anderson's architecture-agnostic formulation, Guo et al.'s
//! synchronizer ILP, …).
//!
//! Depth-first branch-and-bound: each node solves the [`Lp`] relaxation
//! with branching decisions added as equality fixings; nodes are pruned
//! when the relaxation is infeasible or its bound cannot beat the
//! incumbent. Branching picks the most fractional variable and explores
//! the rounded value first.

use crate::lp::{Cmp, Lp, LpResult};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Handle to a binary variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IlpVar(pub usize);

/// Search-effort cells. Interior mutability keeps `solve(&self)`
/// observable without changing its signature; models are built and
/// solved on one thread, so `Cell` is safe here.
#[derive(Debug, Clone, Default)]
struct IlpStats {
    /// Branch-and-bound nodes expanded across solves.
    nodes: Cell<u64>,
    /// LP relaxations solved across solves.
    lp_solves: Cell<u64>,
    /// Nodes cut (infeasible relaxation or bound-pruned) across solves.
    cuts: Cell<u64>,
    /// Simplex pivots across every relaxation solved.
    lp_pivots: Cell<u64>,
}

/// One linear constraint: sparse `(var, coeff)` terms, comparator, rhs.
type Constraint = (Vec<(usize, f64)>, Cmp, f64);

/// A 0/1 ILP.
#[derive(Debug, Clone)]
pub struct IlpModel {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    /// Diagnostic group tag per row, parallel to `constraints`. Rows
    /// inherit the tag current at [`IlpModel::add_constraint`] time
    /// (see [`IlpModel::set_row_tag`]); tag 0 is "untagged".
    row_tags: Vec<u32>,
    /// Tag stamped onto subsequently added rows.
    cur_tag: u32,
    maximize: bool,
    stats: IlpStats,
    /// Cooperative stop signal, polled once per branch-and-bound node.
    /// Inert by default; solves return `Budget` when it fires.
    interrupt: crate::interrupt::Interrupt,
    /// Anytime-incumbent callback, fired with the objective each time
    /// the search improves its best integral solution.
    on_incumbent: IncumbentHook,
}

/// An optional observer for anytime incumbents, shareable across model
/// clones. Wrapped so [`IlpModel`] can keep deriving `Clone` and
/// `Debug` without the closure getting in the way.
#[derive(Clone, Default)]
pub struct IncumbentHook(Option<std::sync::Arc<dyn Fn(f64) + Send + Sync>>);

impl IncumbentHook {
    pub fn new(f: impl Fn(f64) + Send + Sync + 'static) -> Self {
        IncumbentHook(Some(std::sync::Arc::new(f)))
    }

    fn fire(&self, objective: f64) {
        if let Some(f) = &self.0 {
            f(objective);
        }
    }
}

impl std::fmt::Debug for IncumbentHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "IncumbentHook(set)"
        } else {
            "IncumbentHook(none)"
        })
    }
}

/// Solve outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpResult {
    /// Proven optimal assignment.
    Optimal { values: Vec<bool>, objective: f64 },
    /// Proven infeasible.
    Infeasible,
    /// Budget exhausted; best incumbent if any was found.
    Budget {
        values: Option<Vec<bool>>,
        objective: Option<f64>,
    },
}

/// Search budget.
#[derive(Debug, Clone, Copy)]
pub struct IlpConfig {
    pub time_limit: Duration,
    pub node_limit: u64,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig {
            time_limit: Duration::from_secs(30),
            node_limit: 200_000,
        }
    }
}

const INT_EPS: f64 = 1e-6;

impl IlpModel {
    pub fn new(maximize: bool) -> Self {
        IlpModel {
            num_vars: 0,
            objective: Vec::new(),
            constraints: Vec::new(),
            row_tags: Vec::new(),
            cur_tag: 0,
            maximize,
            stats: IlpStats::default(),
            interrupt: crate::interrupt::Interrupt::none(),
            on_incumbent: IncumbentHook::default(),
        }
    }

    /// Install a cooperative stop signal checked at every B&B node.
    pub fn set_interrupt(&mut self, interrupt: crate::interrupt::Interrupt) {
        self.interrupt = interrupt;
    }

    /// Install an anytime-incumbent observer, called with the objective
    /// whenever the branch-and-bound search improves its best integral
    /// solution.
    pub fn set_on_incumbent(&mut self, hook: IncumbentHook) {
        self.on_incumbent = hook;
    }

    /// Cumulative search-effort counters: decisions are branch-and-bound
    /// nodes, propagations are LP relaxations solved, conflicts are
    /// infeasible or bound-pruned nodes, LP pivots are the simplex
    /// pivots of all those relaxations. ILP has no restarts.
    pub fn stats(&self) -> crate::stats::SolverStats {
        crate::stats::SolverStats {
            decisions: self.stats.nodes.get(),
            propagations: self.stats.lp_solves.get(),
            conflicts: self.stats.cuts.get(),
            lp_pivots: self.stats.lp_pivots.get(),
            ..Default::default()
        }
    }

    /// Add a binary variable with the given objective coefficient.
    pub fn add_var(&mut self, obj: f64) -> IlpVar {
        self.objective.push(obj);
        self.num_vars += 1;
        IlpVar(self.num_vars - 1)
    }

    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Add `sum coeffs·x  cmp  rhs`. The row is stamped with the
    /// current diagnostic tag (see [`IlpModel::set_row_tag`]).
    pub fn add_constraint(&mut self, coeffs: &[(IlpVar, f64)], cmp: Cmp, rhs: f64) {
        self.constraints
            .push((coeffs.iter().map(|&(v, c)| (v.0, c)).collect(), cmp, rhs));
        self.row_tags.push(self.cur_tag);
    }

    /// Set the diagnostic group tag stamped onto every row added from
    /// now on (including rows added through `exactly_one` /
    /// `at_most_one` / `implies`). Tags partition the model into named
    /// constraint classes so an infeasibility can be attributed by
    /// [`IlpModel::probe_without`]; they never affect solving.
    pub fn set_row_tag(&mut self, tag: u32) {
        self.cur_tag = tag;
    }

    /// `sum vars == 1` (the ubiquitous assignment constraint).
    pub fn exactly_one(&mut self, vars: &[IlpVar]) {
        let coeffs: Vec<(IlpVar, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        self.add_constraint(&coeffs, Cmp::Eq, 1.0);
    }

    /// `sum vars <= 1`.
    pub fn at_most_one(&mut self, vars: &[IlpVar]) {
        let coeffs: Vec<(IlpVar, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        self.add_constraint(&coeffs, Cmp::Le, 1.0);
    }

    /// Implication `a -> b`, i.e. `a <= b`.
    pub fn implies(&mut self, a: IlpVar, b: IlpVar) {
        self.add_constraint(&[(a, 1.0), (b, -1.0)], Cmp::Le, 0.0);
    }

    fn relaxation(&self, fixed: &[Option<bool>]) -> Lp {
        let mut lp = Lp::new(self.num_vars, self.maximize);
        lp.set_interrupt(self.interrupt.clone());
        for (v, &c) in self.objective.iter().enumerate() {
            lp.set_objective(v, c);
        }
        for (coeffs, cmp, rhs) in &self.constraints {
            lp.add_constraint(coeffs, *cmp, *rhs);
        }
        for (v, fix) in fixed.iter().enumerate().take(self.num_vars) {
            match fix {
                Some(true) => lp.add_constraint(&[(v, 1.0)], Cmp::Eq, 1.0),
                Some(false) => lp.add_constraint(&[(v, 1.0)], Cmp::Eq, 0.0),
                None => lp.add_constraint(&[(v, 1.0)], Cmp::Le, 1.0),
            }
        }
        lp
    }

    /// Solve with the default budget.
    pub fn solve(&self) -> IlpResult {
        self.solve_with(IlpConfig::default())
    }

    /// Infeasibility probe: re-solve the model with every row tagged
    /// `drop_tag` removed. On an infeasible model, a probe that comes
    /// back feasible names the dropped constraint class as (part of)
    /// the binding reason — the ILP counterpart of a SAT unsat core
    /// over selector groups. The probe solves a relaxation, so it only
    /// ever *adds* feasibility; it shares the parent's interrupt but
    /// not its stats.
    pub fn probe_without(&self, drop_tag: u32, cfg: IlpConfig) -> IlpResult {
        let mut probe = IlpModel::new(self.maximize);
        probe.num_vars = self.num_vars;
        probe.objective = self.objective.clone();
        probe.interrupt = self.interrupt.clone();
        for (row, &tag) in self.constraints.iter().zip(&self.row_tags) {
            if tag != drop_tag {
                probe.constraints.push(row.clone());
                probe.row_tags.push(tag);
            }
        }
        probe.solve_with(cfg)
    }

    /// Solve with an explicit budget.
    pub fn solve_with(&self, cfg: IlpConfig) -> IlpResult {
        self.branch_and_bound(cfg, Lp::solve)
    }

    /// [`IlpModel::solve_with`] with `solve_lp` answering every node's
    /// relaxation; the LP tests substitute their reference simplex.
    pub(crate) fn branch_and_bound(
        &self,
        cfg: IlpConfig,
        solve_lp: impl Fn(&Lp) -> LpResult,
    ) -> IlpResult {
        let start = Instant::now();
        let mut nodes: u64 = 0;
        let better = |a: f64, b: f64| {
            if self.maximize {
                a > b + INT_EPS
            } else {
                a < b - INT_EPS
            }
        };
        let mut incumbent: Option<(Vec<bool>, f64)> = None;

        // DFS stack of partial fixings.
        let mut stack: Vec<Vec<Option<bool>>> = vec![vec![None; self.num_vars]];
        let mut exhausted = true;

        while let Some(fixed) = stack.pop() {
            if nodes >= cfg.node_limit
                || start.elapsed() > cfg.time_limit
                || self.interrupt.should_stop()
            {
                exhausted = false;
                break;
            }
            nodes += 1;
            self.stats.nodes.set(self.stats.nodes.get() + 1);
            let lp = self.relaxation(&fixed);
            self.stats.lp_solves.set(self.stats.lp_solves.get() + 1);
            let solved = solve_lp(&lp);
            (self.stats.lp_pivots).set(self.stats.lp_pivots.get() + lp.pivots());
            let (x, bound) = match solved {
                LpResult::Optimal { x, objective } => (x, objective),
                LpResult::Infeasible => {
                    self.stats.cuts.set(self.stats.cuts.get() + 1);
                    continue;
                }
                LpResult::Unbounded => {
                    // Binary variables are bounded; an unbounded
                    // relaxation means a modelling bug.
                    panic!("0/1 ILP relaxation cannot be unbounded");
                }
                LpResult::Interrupted => {
                    // The stop signal landed mid-pivot; the node is
                    // unexplored, so the search is not exhausted.
                    exhausted = false;
                    break;
                }
            };
            if let Some((_, inc)) = &incumbent {
                if !better(bound, *inc) {
                    self.stats.cuts.set(self.stats.cuts.get() + 1);
                    continue; // bound cannot beat the incumbent
                }
            }
            // Most fractional variable.
            let frac = (0..self.num_vars)
                .filter(|&v| fixed[v].is_none())
                .map(|v| (v, (x[v] - x[v].round()).abs()))
                .filter(|&(_, f)| f > INT_EPS)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            match frac {
                None => {
                    // Integral solution.
                    let values: Vec<bool> = x.iter().map(|&v| v > 0.5).collect();
                    let obj: f64 = self
                        .objective
                        .iter()
                        .zip(&values)
                        .map(|(c, &b)| if b { *c } else { 0.0 })
                        .sum();
                    let take = incumbent
                        .as_ref()
                        .map(|(_, inc)| better(obj, *inc))
                        .unwrap_or(true);
                    if take {
                        incumbent = Some((values, obj));
                        self.on_incumbent.fire(obj);
                    }
                }
                Some((v, _)) => {
                    let round_first = x[v] > 0.5;
                    // Push the less-promising branch first so the DFS
                    // explores the rounded value next.
                    let mut far = fixed.clone();
                    far[v] = Some(!round_first);
                    stack.push(far);
                    let mut near = fixed;
                    near[v] = Some(round_first);
                    stack.push(near);
                }
            }
        }

        match (incumbent, exhausted) {
            (Some((values, objective)), true) => IlpResult::Optimal { values, objective },
            (None, true) => IlpResult::Infeasible,
            (inc, false) => {
                let (values, objective) = match inc {
                    Some((v, o)) => (Some(v), Some(o)),
                    None => (None, None),
                };
                IlpResult::Budget { values, objective }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 10 -> a+b (16) vs a+c (14).
        let mut m = IlpModel::new(true);
        let a = m.add_var(10.0);
        let b = m.add_var(6.0);
        let c = m.add_var(4.0);
        m.add_constraint(&[(a, 5.0), (b, 4.0), (c, 3.0)], Cmp::Le, 10.0);
        match m.solve() {
            IlpResult::Optimal { values, objective } => {
                assert_eq!(objective, 16.0);
                assert_eq!(values, vec![true, true, false]);
            }
            other => panic!("{other:?}"),
        }
        let st = m.stats();
        assert!(st.lp_pivots >= st.propagations, "{st:?}");
    }

    #[test]
    fn assignment_problem_exact() {
        // 3x3 assignment, min cost.
        let costs = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = IlpModel::new(false);
        let mut v = [[IlpVar(0); 3]; 3];
        for (i, row) in v.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = m.add_var(costs[i][j]);
            }
        }
        for (i, row) in v.iter().enumerate() {
            m.exactly_one(row);
            let col: Vec<IlpVar> = (0..3).map(|r| v[r][i]).collect();
            m.exactly_one(&col);
        }
        match m.solve() {
            IlpResult::Optimal { objective, .. } => {
                // Optimal: (0,1)=2? cols unique: best is 2 + 7 + 3 = 12
                // or 4+3+1=8? rows: r0->c0(4), r1->c1(3)... enumerate:
                // min is r0c1(2) + r1c2(7) + r2c0(3) = 12,
                // r0c0(4)+r1c2(7)+r2c1(1)=12, r0c1+r1c0+r2c2: 2+4+6=12,
                // r0c2+r1c0+r2c1: 8+4+1=13, r0c0+r1c1+r2c2: 4+3+6=13,
                // r0c2+r1c1+r2c0: 8+3+3=14 -> optimum 12.
                assert_eq!(objective, 12.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infeasible_ilp() {
        let mut m = IlpModel::new(true);
        let a = m.add_var(1.0);
        let b = m.add_var(1.0);
        m.exactly_one(&[a, b]);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Ge, 2.0); // needs both
        assert_eq!(m.solve(), IlpResult::Infeasible);
    }

    #[test]
    fn implication_constraint() {
        // max b s.t. b -> a, a + b <= 1 : b=1 requires a=1, but then sum=2.
        let mut m = IlpModel::new(true);
        let a = m.add_var(0.0);
        let b = m.add_var(1.0);
        m.implies(b, a);
        m.at_most_one(&[a, b]);
        match m.solve() {
            IlpResult::Optimal { objective, .. } => assert_eq!(objective, 0.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn probe_without_attributes_infeasibility_to_a_row_group() {
        // exactly_one (tag 1) conflicts with a >=2 demand (tag 2);
        // dropping either group restores feasibility, dropping an
        // unused tag does not.
        let mut m = IlpModel::new(true);
        let a = m.add_var(1.0);
        let b = m.add_var(1.0);
        m.set_row_tag(1);
        m.exactly_one(&[a, b]);
        m.set_row_tag(2);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(m.solve(), IlpResult::Infeasible);
        assert!(matches!(
            m.probe_without(1, IlpConfig::default()),
            IlpResult::Optimal { .. }
        ));
        assert!(matches!(
            m.probe_without(2, IlpConfig::default()),
            IlpResult::Optimal { .. }
        ));
        assert_eq!(
            m.probe_without(7, IlpConfig::default()),
            IlpResult::Infeasible
        );
        // The probe never mutates the parent model.
        assert_eq!(m.solve(), IlpResult::Infeasible);
    }

    #[test]
    fn budget_exhaustion_reports() {
        // A model that cannot finish in 0 nodes.
        let mut m = IlpModel::new(true);
        let vars: Vec<IlpVar> = (0..10).map(|i| m.add_var(i as f64)).collect();
        m.at_most_one(&vars);
        let r = m.solve_with(IlpConfig {
            time_limit: Duration::from_secs(10),
            node_limit: 0,
        });
        assert!(matches!(r, IlpResult::Budget { .. }));
    }

    #[test]
    fn vertex_cover_on_a_path() {
        // Path a-b-c: min vertex cover is {b}.
        let mut m = IlpModel::new(false);
        let a = m.add_var(1.0);
        let b = m.add_var(1.0);
        let c = m.add_var(1.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        m.add_constraint(&[(b, 1.0), (c, 1.0)], Cmp::Ge, 1.0);
        match m.solve() {
            IlpResult::Optimal { values, objective } => {
                assert_eq!(objective, 1.0);
                assert_eq!(values, vec![false, true, false]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exactly_one_forces_choice() {
        let mut m = IlpModel::new(false);
        let vars: Vec<IlpVar> = (0..5).map(|i| m.add_var((5 - i) as f64)).collect();
        m.exactly_one(&vars);
        match m.solve() {
            IlpResult::Optimal { values, objective } => {
                assert_eq!(objective, 1.0); // cheapest is the last
                assert_eq!(values.iter().filter(|&&b| b).count(), 1);
                assert!(values[4]);
            }
            other => panic!("{other:?}"),
        }
    }
}
