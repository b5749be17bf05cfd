//! Finite-domain constraint programming: AC-3 propagation over binary
//! constraints, all-different, and MRV + max-degree branching.
//!
//! This is the oracle behind CP-formulated mappers (Raffin et al.,
//! DASIP 2010, built on JaCoP). Domains are small non-negative integer
//! sets stored as bitsets.

use std::rc::Rc;
use std::time::{Duration, Instant};

/// Handle to a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpVar(pub usize);

/// A bitset domain over `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Domain {
    words: Vec<u64>,
    count: u32,
    capacity: u32,
}

impl Domain {
    fn full(capacity: u32) -> Self {
        let nw = (capacity as usize).div_ceil(64);
        let mut words = vec![u64::MAX; nw];
        let rem = capacity as usize % 64;
        if rem != 0 {
            words[nw - 1] = (1u64 << rem) - 1;
        }
        if capacity == 0 {
            words.clear();
        }
        Domain {
            words,
            count: capacity,
            capacity,
        }
    }

    #[inline]
    fn remove(&mut self, v: u32) -> bool {
        let w = &mut self.words[v as usize / 64];
        let bit = 1u64 << (v % 64);
        if *w & bit != 0 {
            *w &= !bit;
            self.count -= 1;
            true
        } else {
            false
        }
    }

    fn assign(&mut self, v: u32) {
        for w in &mut self.words {
            *w = 0;
        }
        self.words[v as usize / 64] |= 1 << (v % 64);
        self.count = 1;
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (self.words.iter().enumerate())
            .flat_map(|(wi, &w)| bits(w).map(move |b| wi as u32 * 64 + b))
    }

    fn single(&self) -> Option<u32> {
        if self.count == 1 {
            self.iter().next()
        } else {
            None
        }
    }
}

/// The set bits of `w`, lowest first.
fn bits(mut w: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let b = w.trailing_zeros();
        w &= w.wrapping_sub(1);
        (b < 64).then_some(b)
    })
}

type BinPred = Rc<dyn Fn(u32, u32) -> bool>;

enum Constraint {
    /// `pred(x_val, y_val)` must hold (evaluated per check).
    Binary {
        x: usize,
        y: usize,
        pred: BinPred,
    },
    /// Extensional binary constraint with precomputed support bitsets:
    /// `fwd[a]` is the bitset of `y`-values compatible with `x = a`,
    /// `rev[b]` the bitset of `x`-values compatible with `y = b`.
    /// Far faster to propagate than `Binary` for dense relations.
    Table {
        x: usize,
        y: usize,
        fwd: Vec<Vec<u64>>,
        rev: Vec<Vec<u64>>,
    },
    AllDifferent(Vec<usize>),
}

/// Search budget for [`CpModel::solve_with`].
#[derive(Debug, Clone, Copy)]
pub struct CpConfig {
    pub time_limit: Duration,
    pub node_limit: u64,
}

impl Default for CpConfig {
    fn default() -> Self {
        CpConfig {
            time_limit: Duration::from_secs(30),
            node_limit: 2_000_000,
        }
    }
}

/// Result of a CP solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpSolution {
    /// One assignment per variable.
    Sat(Vec<u32>),
    Unsat,
    /// Budget exhausted without a proof either way.
    Unknown,
}

/// A finite-domain CSP.
pub struct CpModel {
    domains: Vec<Domain>,
    constraints: Vec<Constraint>,
    /// constraints touching each variable (for AC-3 re-queueing and the
    /// degree heuristic).
    touching: Vec<Vec<usize>>,
    nodes: u64,
    /// Search nodes across all solves (unlike `nodes`, never reset).
    total_nodes: u64,
    /// AC-3 constraint revisions performed across solves.
    revisions: u64,
    /// Domain wipe-outs (failed propagations) across solves.
    wipeouts: u64,
    /// Cooperative stop signal, polled once per search node. Inert by
    /// default; solves return `Unknown` when it fires.
    interrupt: crate::interrupt::Interrupt,
}

impl Default for CpModel {
    fn default() -> Self {
        Self::new()
    }
}

impl CpModel {
    pub fn new() -> Self {
        CpModel {
            domains: Vec::new(),
            constraints: Vec::new(),
            touching: Vec::new(),
            nodes: 0,
            total_nodes: 0,
            revisions: 0,
            wipeouts: 0,
            interrupt: crate::interrupt::Interrupt::none(),
        }
    }

    /// Install a cooperative stop signal checked at every search node.
    pub fn set_interrupt(&mut self, interrupt: crate::interrupt::Interrupt) {
        self.interrupt = interrupt;
    }

    /// Cumulative search-effort counters: decisions are search nodes,
    /// propagations are AC-3 constraint revisions, conflicts are domain
    /// wipe-outs. CP has no restarts.
    pub fn stats(&self) -> crate::stats::SolverStats {
        crate::stats::SolverStats {
            decisions: self.total_nodes,
            propagations: self.revisions,
            conflicts: self.wipeouts,
            ..Default::default()
        }
    }

    /// Variable with domain `0..capacity`.
    pub fn add_var(&mut self, capacity: u32) -> CpVar {
        self.domains.push(Domain::full(capacity));
        self.touching.push(Vec::new());
        CpVar(self.domains.len() - 1)
    }

    /// Number of search nodes explored by the last solve.
    pub fn explored_nodes(&self) -> u64 {
        self.nodes
    }

    /// Remove a value from a variable's domain (model-level pruning).
    pub fn forbid(&mut self, v: CpVar, value: u32) {
        self.domains[v.0].remove(value);
    }

    /// Add a binary constraint `pred(x, y)`.
    pub fn binary(&mut self, x: CpVar, y: CpVar, pred: impl Fn(u32, u32) -> bool + 'static) {
        let idx = self.constraints.len();
        self.constraints.push(Constraint::Binary {
            x: x.0,
            y: y.0,
            pred: Rc::new(pred),
        });
        self.touching[x.0].push(idx);
        self.touching[y.0].push(idx);
    }

    /// Add a binary constraint as a precomputed table (the relation is
    /// evaluated once per value pair at model-build time; propagation
    /// then runs on bitset intersections).
    pub fn binary_table(&mut self, x: CpVar, y: CpVar, pred: impl Fn(u32, u32) -> bool) {
        let cap_x = self.capacity(x);
        let cap_y = self.capacity(y);
        let wy = (cap_y as usize).div_ceil(64);
        let wx = (cap_x as usize).div_ceil(64);
        let mut fwd = vec![vec![0u64; wy]; cap_x as usize];
        let mut rev = vec![vec![0u64; wx]; cap_y as usize];
        for a in 0..cap_x {
            for b in 0..cap_y {
                if pred(a, b) {
                    fwd[a as usize][b as usize / 64] |= 1 << (b % 64);
                    rev[b as usize][a as usize / 64] |= 1 << (a % 64);
                }
            }
        }
        let idx = self.constraints.len();
        self.constraints.push(Constraint::Table {
            x: x.0,
            y: y.0,
            fwd,
            rev,
        });
        self.touching[x.0].push(idx);
        self.touching[y.0].push(idx);
    }

    /// Domain capacity (in values) of a variable.
    fn capacity(&self, v: CpVar) -> u32 {
        self.domains[v.0].capacity
    }

    /// All variables take pairwise distinct values.
    pub fn all_different(&mut self, vars: &[CpVar]) {
        let idx = self.constraints.len();
        self.constraints
            .push(Constraint::AllDifferent(vars.iter().map(|v| v.0).collect()));
        for v in vars {
            self.touching[v.0].push(idx);
        }
    }

    /// AC-3 + all-different propagation to a fixpoint on `domains`.
    /// Returns false on a domain wipe-out.
    fn propagate(&mut self, domains: &mut [Domain]) -> bool {
        let ok = self.propagate_inner(domains);
        if !ok {
            self.wipeouts += 1;
        }
        ok
    }

    fn propagate_inner(&mut self, domains: &mut [Domain]) -> bool {
        let mut queue: Vec<usize> = (0..self.constraints.len()).collect();
        let mut queued = vec![true; self.constraints.len()];
        // The variables one revision narrowed, each once, in the order
        // they were first narrowed.
        let mut touched: Vec<usize> = Vec::new();
        let touch = |touched: &mut Vec<usize>, v: usize| {
            if !touched.contains(&v) {
                touched.push(v);
            }
        };
        while let Some(ci) = queue.pop() {
            queued[ci] = false;
            self.revisions += 1;
            touched.clear();
            match &self.constraints[ci] {
                Constraint::Binary { x, y, pred } => {
                    // Revise x against y and y against x.
                    for (a, b, flip) in [(*x, *y, false), (*y, *x, true)] {
                        let b_vals: Vec<u32> = domains[b].iter().collect();
                        let a_vals: Vec<u32> = domains[a].iter().collect();
                        for av in a_vals {
                            let supported =
                                b_vals.iter().any(
                                    |&bv| {
                                        if flip {
                                            pred(bv, av)
                                        } else {
                                            pred(av, bv)
                                        }
                                    },
                                );
                            if !supported {
                                domains[a].remove(av);
                                touch(&mut touched, a);
                            }
                        }
                        if domains[a].count == 0 {
                            return false;
                        }
                    }
                }
                Constraint::Table { x, y, fwd, rev } => {
                    // Revise both directions on bitset intersections,
                    // walking each word's values in place.
                    for (a_var, b_var, table) in [(*x, *y, fwd), (*y, *x, rev)] {
                        for wi in 0..domains[a_var].words.len() {
                            for av in bits(domains[a_var].words[wi]).map(|b| wi as u32 * 64 + b) {
                                let supported = table[av as usize]
                                    .iter()
                                    .zip(&domains[b_var].words)
                                    .any(|(&t, &d)| t & d != 0);
                                if !supported {
                                    domains[a_var].remove(av);
                                    touch(&mut touched, a_var);
                                }
                            }
                        }
                        if domains[a_var].count == 0 {
                            return false;
                        }
                    }
                }
                Constraint::AllDifferent(vars) => {
                    // Assigned values are removed from the others;
                    // pigeonhole bound check on the union.
                    let mut changed = true;
                    while changed {
                        changed = false;
                        for &v in vars {
                            if let Some(val) = domains[v].single() {
                                for &u in vars {
                                    if u != v && domains[u].remove(val) {
                                        touch(&mut touched, u);
                                        changed = true;
                                        if domains[u].count == 0 {
                                            return false;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Union cardinality bound.
                    let mut union = vec![
                        0u64;
                        domains[vars[0]].words.len().max(
                            vars.iter()
                                .map(|&v| domains[v].words.len())
                                .max()
                                .unwrap_or(0)
                        )
                    ];
                    for &v in vars {
                        for (i, w) in domains[v].words.iter().enumerate() {
                            union[i] |= w;
                        }
                    }
                    let total: u32 = union.iter().map(|w| w.count_ones()).sum();
                    if (total as usize) < vars.len() {
                        return false;
                    }
                }
            }
            for &v in &touched {
                for &c2 in &self.touching[v] {
                    if !queued[c2] {
                        queued[c2] = true;
                        queue.push(c2);
                    }
                }
            }
        }
        true
    }

    /// Find one solution with the default budget.
    pub fn solve(&mut self) -> CpSolution {
        self.solve_with(CpConfig::default())
    }

    /// Find one solution with an explicit budget.
    pub fn solve_with(&mut self, cfg: CpConfig) -> CpSolution {
        self.nodes = 0;
        let mut domains = self.domains.clone();
        if !self.propagate(&mut domains) {
            return CpSolution::Unsat;
        }
        let start = Instant::now();
        match self.search(&mut domains, &cfg, &start) {
            SearchOutcome::Found(sol) => CpSolution::Sat(sol),
            SearchOutcome::Exhausted => CpSolution::Unsat,
            SearchOutcome::Budget => CpSolution::Unknown,
        }
    }

    fn search(&mut self, domains: &mut [Domain], cfg: &CpConfig, start: &Instant) -> SearchOutcome {
        self.nodes += 1;
        self.total_nodes += 1;
        if self.nodes > cfg.node_limit
            || start.elapsed() > cfg.time_limit
            || self.interrupt.should_stop()
        {
            return SearchOutcome::Budget;
        }
        // MRV with max-degree tiebreak.
        let pick = (0..domains.len())
            .filter(|&v| domains[v].count > 1)
            .min_by_key(|&v| (domains[v].count, usize::MAX - self.touching[v].len()));
        let Some(var) = pick else {
            // All singletons: verify (propagation should guarantee it,
            // but all-different's bound check is incomplete).
            let sol: Vec<u32> = domains.iter().map(|d| d.single().unwrap()).collect();
            return if self.check(&sol) {
                SearchOutcome::Found(sol)
            } else {
                SearchOutcome::Exhausted
            };
        };
        let values: Vec<u32> = domains[var].iter().collect();
        let mut budget_hit = false;
        for val in values {
            let mut child = domains.to_vec();
            child[var].assign(val);
            if self.propagate(&mut child) {
                match self.search(&mut child, cfg, start) {
                    SearchOutcome::Found(s) => return SearchOutcome::Found(s),
                    SearchOutcome::Budget => {
                        budget_hit = true;
                        break;
                    }
                    SearchOutcome::Exhausted => {}
                }
            }
        }
        if budget_hit {
            SearchOutcome::Budget
        } else {
            SearchOutcome::Exhausted
        }
    }

    /// Check a full assignment against every constraint.
    pub fn check(&self, sol: &[u32]) -> bool {
        self.constraints.iter().all(|c| match c {
            Constraint::Binary { x, y, pred } => pred(sol[*x], sol[*y]),
            Constraint::Table { x, y, fwd, .. } => {
                let (a, b) = (sol[*x], sol[*y]);
                fwd[a as usize][b as usize / 64] >> (b % 64) & 1 == 1
            }
            Constraint::AllDifferent(vars) => {
                let mut vals: Vec<u32> = vars.iter().map(|&v| sol[v]).collect();
                vals.sort_unstable();
                vals.windows(2).all(|w| w[0] != w[1])
            }
        })
    }
}

enum SearchOutcome {
    Found(Vec<u32>),
    Exhausted,
    Budget,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A variable whose domain is `values` (each below `capacity`).
    fn var_in(m: &mut CpModel, capacity: u32, values: &[u32]) -> CpVar {
        let v = m.add_var(capacity);
        for x in (0..capacity).filter(|x| !values.contains(x)) {
            m.forbid(v, x);
        }
        v
    }

    #[test]
    fn simple_binary_constraint() {
        let mut m = CpModel::new();
        let x = m.add_var(5);
        let y = m.add_var(5);
        m.binary(x, y, |a, b| a + 2 == b);
        match m.solve() {
            CpSolution::Sat(s) => assert_eq!(s[0] + 2, s[1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsat_binary() {
        let mut m = CpModel::new();
        let x = m.add_var(3);
        let y = m.add_var(3);
        m.binary(x, y, |a, b| a > b + 10);
        assert_eq!(m.solve(), CpSolution::Unsat);
    }

    #[test]
    fn all_different_permutation() {
        let mut m = CpModel::new();
        let vars: Vec<CpVar> = (0..5).map(|_| m.add_var(5)).collect();
        m.all_different(&vars);
        match m.solve() {
            CpSolution::Sat(s) => {
                let mut sorted = s.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn all_different_pigeonhole_unsat() {
        let mut m = CpModel::new();
        let vars: Vec<CpVar> = (0..4).map(|_| m.add_var(3)).collect();
        m.all_different(&vars);
        assert_eq!(m.solve(), CpSolution::Unsat);
    }

    #[test]
    fn n_queens_6() {
        // Classic CSP: 6-queens has solutions.
        let n = 6u32;
        let mut m = CpModel::new();
        let cols: Vec<CpVar> = (0..n).map(|_| m.add_var(n)).collect();
        m.all_different(&cols);
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                let d = (j - i) as u32;
                m.binary(cols[i], cols[j], move |a, b| a.abs_diff(b) != d);
            }
        }
        match m.solve() {
            CpSolution::Sat(s) => {
                for i in 0..n as usize {
                    for j in (i + 1)..n as usize {
                        assert_ne!(s[i], s[j]);
                        assert_ne!(s[i].abs_diff(s[j]), (j - i) as u32);
                    }
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn restricted_domains() {
        let mut m = CpModel::new();
        let x = var_in(&mut m, 10, &[2, 4, 6]);
        let y = var_in(&mut m, 10, &[1, 2, 3]);
        m.binary(x, y, |a, b| a == 2 * b);
        match m.solve() {
            CpSolution::Sat(s) => {
                assert!(s[0] == 2 * s[1]);
                assert!([2, 4, 6].contains(&s[0]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn forbid_prunes() {
        let mut m = CpModel::new();
        let x = m.add_var(2);
        m.forbid(x, 0);
        match m.solve() {
            CpSolution::Sat(s) => assert_eq!(s[0], 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn budget_reports_unknown() {
        // 12-queens with a 1-node budget cannot finish.
        let n = 12u32;
        let mut m = CpModel::new();
        let cols: Vec<CpVar> = (0..n).map(|_| m.add_var(n)).collect();
        m.all_different(&cols);
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                let d = (j - i) as u32;
                m.binary(cols[i], cols[j], move |a, b| a.abs_diff(b) != d);
            }
        }
        let r = m.solve_with(CpConfig {
            time_limit: Duration::from_secs(30),
            node_limit: 1,
        });
        assert_eq!(r, CpSolution::Unknown);
    }

    #[test]
    fn binary_table_matches_closure_semantics() {
        // Same model expressed both ways must agree.
        let build = |table: bool| {
            let mut m = CpModel::new();
            let x = m.add_var(6);
            let y = m.add_var(6);
            if table {
                m.binary_table(x, y, |a, b| a + b == 7);
            } else {
                m.binary(x, y, |a, b| a + b == 7);
            }
            m.solve()
        };
        match (build(true), build(false)) {
            (CpSolution::Sat(a), CpSolution::Sat(b)) => {
                assert_eq!(a[0] + a[1], 7);
                assert_eq!(b[0] + b[1], 7);
            }
            other => panic!("{other:?}"),
        }
        // And an unsatisfiable relation.
        let mut m = CpModel::new();
        let x = m.add_var(3);
        let y = m.add_var(3);
        m.binary_table(x, y, |a, b| a + b > 100);
        assert_eq!(m.solve(), CpSolution::Unsat);
    }

    #[test]
    fn propagation_alone_solves_chains() {
        // x0=3 fixed by domain, x_{i+1} = x_i + 1 via binary constraints:
        // propagation should solve without search beyond MRV picks.
        let mut m = CpModel::new();
        let vars: Vec<CpVar> = (0..5).map(|_| m.add_var(10)).collect();
        let first = var_in(&mut m, 10, &[3]);
        m.binary(first, vars[0], |a, b| b == a + 1);
        for w in vars.windows(2) {
            let (a, b) = (w[0], w[1]);
            m.binary(a, b, |x, y| y == x + 1);
        }
        match m.solve() {
            CpSolution::Sat(s) => {
                assert_eq!(&s[..5], &[4, 5, 6, 7, 8]);
            }
            other => panic!("{other:?}"),
        }
    }
}
