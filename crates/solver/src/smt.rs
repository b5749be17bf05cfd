//! SMT-lite: lazy CDCL(T) over integer difference logic.
//!
//! Atoms are difference constraints `x_i − x_j ≤ c` over integer
//! variables. The propositional skeleton is solved by the CDCL
//! [`SatSolver`]; each full model is checked by a fresh Bellman-Ford
//! run over every atom in its assigned polarity; a negative cycle is
//! returned to the SAT solver as one blocking clause and the SAT solve
//! is repeated (the classic lazy "offline" SMT loop of early CGRA SMT
//! mappers à la Donovick et al.).
//!
//! Negated atoms are interpreted over integers:
//! `¬(x − y ≤ c)  ⇔  y − x ≤ −c − 1`.
//!
//! So that the loop does not relearn arithmetic one round at a time,
//! the facts it would learn cheaply are stated up front:
//!
//! * **One literal per constraint.** An atom table keyed by the normal
//!   form (`x ≤ y`) returns the same literal for a repeated `(x, y, c)`
//!   and the negation for its complement `(y, x, −c − 1)`.
//! * **Bound axioms.** On one variable pair every atom reads
//!   `x − y ≤ c` in normal form; as each atom is made it gets the binary
//!   clauses tying it to the next tighter and the next looser bound, so
//!   unit propagation knows that a tighter bound implies a looser one,
//!   that two opposite bounds summing below zero exclude each other, and
//!   that two summing to −1 or more cannot both fail.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included};

use crate::sat::{Lit, SatResult, SatSolver, SatVar};

/// A difference-logic atom `x − y ≤ c`, tied to a SAT variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffAtom {
    pub x: usize,
    pub y: usize,
    pub c: i64,
    pub lit: SatVar,
}

/// Solver outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable: boolean model + integer values for the theory vars.
    Sat {
        model: Vec<bool>,
        values: Vec<i64>,
    },
    Unsat,
    Unknown,
}

/// Lazy difference-logic SMT solver.
pub struct SmtSolver {
    pub sat: SatSolver,
    num_int_vars: usize,
    /// Every atom, in creation order: the theory check's edge list.
    atoms: Vec<DiffAtom>,
    /// The atom table: an atom's normal form `(x, y, c)` with `x ≤ y`
    /// → the literal asserting it.
    table: BTreeMap<(usize, usize, i64), Lit>,
    /// Budget on theory-refinement rounds.
    pub max_rounds: usize,
    /// Statistics: negative cycles found (theory conflicts).
    pub theory_conflicts: u64,
}

impl SmtSolver {
    pub fn new(num_int_vars: usize) -> Self {
        SmtSolver {
            sat: SatSolver::new(),
            num_int_vars,
            atoms: Vec::new(),
            table: BTreeMap::new(),
            max_rounds: 10_000,
            theory_conflicts: 0,
        }
    }

    /// Cumulative search-effort counters: the embedded CDCL solver's
    /// stats, with theory conflicts added to the conflict count.
    pub fn stats(&self) -> crate::stats::SolverStats {
        let mut s = self.sat.stats();
        s.conflicts += self.theory_conflicts;
        s
    }

    /// The literal asserting `x − y ≤ c`. One literal stands for each
    /// constraint: asking again for `(x, y, c)` returns the same
    /// literal, and asking for its integer complement `(y, x, −c − 1)`
    /// returns that literal's negation.
    pub fn diff_le(&mut self, x: usize, y: usize, c: i64) -> Lit {
        assert!(x < self.num_int_vars && y < self.num_int_vars);
        // Normal form x ≤ y: y − x ≤ c  ⇔  ¬(x − y ≤ −c − 1).
        let (key, flip) = if x <= y {
            ((x, y, c), false)
        } else {
            ((y, x, -c - 1), true)
        };
        let lit = match self.table.get(&key) {
            Some(&lit) => lit,
            None => {
                let v = self.sat.new_var();
                let (x, y, c) = key;
                self.atoms.push(DiffAtom { x, y, c, lit: v });
                let lit = Lit::pos(v);
                // Bound axioms: the next tighter bound on this pair
                // implies this one, and this one the next looser.
                let below = (x, y, i64::MIN)..key;
                if let Some((_, &t)) = self.table.range(below).next_back() {
                    self.sat.add_clause(&[t.negate(), lit]);
                }
                let above = (Excluded(key), Included((x, y, i64::MAX)));
                if let Some((_, &l)) = self.table.range(above).next() {
                    self.sat.add_clause(&[lit.negate(), l]);
                }
                self.table.insert(key, lit);
                lit
            }
        };
        if flip {
            lit.negate()
        } else {
            lit
        }
    }

    /// Add a propositional clause over atom literals (and any extra SAT
    /// variables created through `self.sat`).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.sat.add_clause(lits);
    }

    /// Solve the CDCL(T) loop.
    ///
    /// The embedded CDCL solver polls `self.sat.interrupt` inside its
    /// search loop; the refinement loop re-checks it here so a stop
    /// signal also lands between theory rounds.
    pub fn solve(&mut self) -> SmtResult {
        for _ in 0..self.max_rounds {
            if self.sat.interrupt.should_stop_now() {
                return SmtResult::Unknown;
            }
            match self.sat.solve() {
                SatResult::Unsat => return SmtResult::Unsat,
                SatResult::Unknown => return SmtResult::Unknown,
                SatResult::Sat(model) => {
                    // Collect asserted constraints (both polarities).
                    // Edge x → y with weight w encodes  y − x ≤ w? We use
                    // the standard graph: constraint  x − y ≤ c  becomes
                    // edge  y → x  with weight c; a negative cycle means
                    // the conjunction is unsatisfiable.
                    let mut edges: Vec<(usize, usize, i64, Lit)> = Vec::new();
                    for a in &self.atoms {
                        if model[a.lit.0 as usize] {
                            edges.push((a.y, a.x, a.c, Lit::pos(a.lit)));
                        } else {
                            // ¬(x − y ≤ c) ⇒ y − x ≤ −c−1.
                            edges.push((a.x, a.y, -a.c - 1, Lit::neg(a.lit)));
                        }
                    }
                    match negative_cycle(self.num_int_vars, &edges) {
                        None => {
                            let values = shortest_potentials(self.num_int_vars, &edges);
                            return SmtResult::Sat { model, values };
                        }
                        Some(cycle_lits) => {
                            self.theory_conflicts += 1;
                            // Block this theory-inconsistent combination.
                            let clause: Vec<Lit> = cycle_lits.iter().map(|l| l.negate()).collect();
                            self.sat.add_clause(&clause);
                            if clause.is_empty() {
                                return SmtResult::Unsat;
                            }
                        }
                    }
                }
            }
        }
        SmtResult::Unknown
    }
}

/// Bellman-Ford negative-cycle detection. Returns the literals of the
/// constraints on a negative cycle, or `None` if consistent.
fn negative_cycle(n: usize, edges: &[(usize, usize, i64, Lit)]) -> Option<Vec<Lit>> {
    let mut dist = vec![0i64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut changed_node = None;
    for round in 0..n {
        let mut changed = false;
        for (idx, &(u, v, w, _)) in edges.iter().enumerate() {
            if dist[u] + w < dist[v] {
                dist[v] = dist[u] + w;
                pred[v] = Some(idx);
                changed = true;
                if round == n - 1 {
                    changed_node = Some(v);
                }
            }
        }
        if !changed {
            return None;
        }
    }
    let start = changed_node?;
    // Walk predecessors n times to land on the cycle, then collect it.
    let mut node = start;
    for _ in 0..n {
        node = edges[pred[node]?].0;
    }
    let mut lits = Vec::new();
    let cycle_entry = node;
    loop {
        let e = pred[node]?;
        lits.push(edges[e].3);
        node = edges[e].0;
        if node == cycle_entry {
            break;
        }
    }
    Some(lits)
}

/// Integer potentials satisfying all edges (shortest distances from a
/// virtual source). Assumes no negative cycle.
fn shortest_potentials(n: usize, edges: &[(usize, usize, i64, Lit)]) -> Vec<i64> {
    let mut dist = vec![0i64; n];
    for _ in 0..n {
        let mut changed = false;
        for &(u, v, w, _) in edges {
            if dist[u] + w < dist[v] {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Normalise to non-negative values for readability.
    let min = dist.iter().copied().min().unwrap_or(0);
    for d in &mut dist {
        *d -= min;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_chain_sat() {
        // x0 - x1 <= -1, x1 - x2 <= -1 (i.e. x0 < x1 < x2).
        let mut s = SmtSolver::new(3);
        let a = s.diff_le(0, 1, -1);
        let b = s.diff_le(1, 2, -1);
        s.add_clause(&[a]);
        s.add_clause(&[b]);
        match s.solve() {
            SmtResult::Sat { values, .. } => {
                assert!(values[0] < values[1]);
                assert!(values[1] < values[2]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cyclic_strict_ordering_unsat() {
        // x0 < x1 < x2 < x0 is unsatisfiable.
        let mut s = SmtSolver::new(3);
        let a = s.diff_le(0, 1, -1);
        let b = s.diff_le(1, 2, -1);
        let c = s.diff_le(2, 0, -1);
        s.add_clause(&[a]);
        s.add_clause(&[b]);
        s.add_clause(&[c]);
        assert_eq!(s.solve(), SmtResult::Unsat);
    }

    #[test]
    fn theory_guides_boolean_choice() {
        // Either x0 < x1 or x1 < x0 — both are theory-consistent alone;
        // but adding x0 = x1 (as two ≤ 0 constraints) kills both stricts.
        let mut s = SmtSolver::new(2);
        let lt = s.diff_le(0, 1, -1); // x0 - x1 <= -1
        let gt = s.diff_le(1, 0, -1); // x1 - x0 <= -1
        let le = s.diff_le(0, 1, 0);
        let ge = s.diff_le(1, 0, 0);
        s.add_clause(&[le]);
        s.add_clause(&[ge]);
        s.add_clause(&[lt, gt]); // require one strict ordering
        assert_eq!(s.solve(), SmtResult::Unsat);
    }

    #[test]
    fn negated_atoms_have_integer_semantics() {
        // ¬(x0 - x1 <= 0) ⇒ x0 > x1; combined with x0 - x1 <= 1 is SAT
        // with x0 = x1 + 1 exactly.
        let mut s = SmtSolver::new(2);
        let le0 = s.diff_le(0, 1, 0);
        let le1 = s.diff_le(0, 1, 1);
        s.add_clause(&[le0.negate()]);
        s.add_clause(&[le1]);
        match s.solve() {
            SmtResult::Sat { values, .. } => {
                assert_eq!(values[0] - values[1], 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn disjunction_picks_consistent_arm() {
        // (x0 < x1 or x1 < x0), plus x1 < x0 blocked propositionally.
        let mut s = SmtSolver::new(2);
        let a = s.diff_le(0, 1, -1);
        let b = s.diff_le(1, 0, -1);
        s.add_clause(&[a, b]);
        s.add_clause(&[b.negate()]);
        match s.solve() {
            SmtResult::Sat { values, model } => {
                assert!(values[0] < values[1]);
                let a_var = a.var().0 as usize;
                assert!(model[a_var]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_duplicate_atom_is_the_same_literal() {
        let mut s = SmtSolver::new(3);
        let a = s.diff_le(0, 2, 3);
        let b = s.diff_le(2, 1, -2);
        assert_eq!(s.diff_le(0, 2, 3), a);
        assert_eq!(s.diff_le(2, 1, -2), b);
        assert_ne!(s.diff_le(0, 2, 2), a, "another bound is another atom");
        assert_eq!(s.sat.num_vars(), 3);
    }

    #[test]
    fn a_complementary_atom_is_the_negation() {
        // ¬(x0 − x1 ≤ 2)  ⇔  x1 − x0 ≤ −3 over the integers.
        let mut s = SmtSolver::new(2);
        let a = s.diff_le(0, 1, 2);
        assert_eq!(s.diff_le(1, 0, -3), a.negate());
        let b = s.diff_le(1, 0, 4);
        assert_eq!(s.diff_le(0, 1, -5), b.negate());
        assert_eq!(s.sat.num_vars(), 2);
    }

    #[test]
    fn bound_axioms_refute_without_a_theory_round() {
        // x0 − x1 ≤ 1 but not x0 − x1 ≤ 3: the chain refutes it.
        let mut s = SmtSolver::new(2);
        let tight = s.diff_le(0, 1, 1);
        let loose = s.diff_le(0, 1, 3);
        s.add_clause(&[tight]);
        s.add_clause(&[loose.negate()]);
        assert_eq!(s.solve(), SmtResult::Unsat);
        assert_eq!(s.theory_conflicts, 0);
        // x0 < x1 and x1 < x0: opposite bounds summing below zero.
        let mut s = SmtSolver::new(2);
        let lt = s.diff_le(0, 1, -1);
        let gt = s.diff_le(1, 0, -1);
        s.add_clause(&[lt]);
        s.add_clause(&[gt]);
        assert_eq!(s.solve(), SmtResult::Unsat);
        assert_eq!(s.theory_conflicts, 0);
        // Neither x0 − x1 ≤ 0 nor x1 − x0 ≤ 0 holds: their sum is 0 ≥ −1.
        let mut s = SmtSolver::new(2);
        let le = s.diff_le(0, 1, 0);
        let ge = s.diff_le(1, 0, 0);
        s.add_clause(&[le.negate()]);
        s.add_clause(&[ge.negate()]);
        assert_eq!(s.solve(), SmtResult::Unsat);
        assert_eq!(s.theory_conflicts, 0);
    }

    #[test]
    fn window_constraints_schedulelike() {
        // A tiny scheduling shape: t1 >= t0 + 2, t2 >= t1 + 2, t2 <= t0 + 3
        // is UNSAT; relaxing to t2 <= t0 + 4 is SAT.
        for (bound, expect_sat) in [(3, false), (4, true)] {
            let mut s = SmtSolver::new(3);
            let a = s.diff_le(0, 1, -2); // t0 - t1 <= -2
            let b = s.diff_le(1, 2, -2);
            let c = s.diff_le(2, 0, bound);
            s.add_clause(&[a]);
            s.add_clause(&[b]);
            s.add_clause(&[c]);
            let r = s.solve();
            if expect_sat {
                assert!(matches!(r, SmtResult::Sat { .. }), "bound {bound}");
            } else {
                assert_eq!(r, SmtResult::Unsat, "bound {bound}");
            }
        }
    }
}
