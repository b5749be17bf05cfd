//! CNF construction helpers: cardinality encodings used by SAT-based
//! mappers.
//!
//! Two at-most-one encodings are provided because their trade-off is a
//! documented ablation of the SAT mapping experiment (DESIGN.md §4,
//! item 6; `ablations` #4): the **pairwise** encoding adds `n(n−1)/2`
//! binary clauses and no variables; the **sequential** (ladder)
//! encoding adds `n−1` fresh variables and `~3n` clauses, which scales
//! better for large `n`. Under `guard: Some(sel)` every clause goes
//! under that selector ([`SatSolver::add_clause_under`]).

use crate::sat::{Lit, SatSolver};

/// Which at-most-one encoding to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmoEncoding {
    Pairwise,
    Sequential,
}

fn add(s: &mut SatSolver, guard: Option<Lit>, clause: &[Lit]) {
    match guard {
        Some(sel) => s.add_clause_under(sel, clause),
        None => s.add_clause(clause),
    }
}

/// Add clauses enforcing "at most one of `lits` is true".
pub fn at_most_one(s: &mut SatSolver, lits: &[Lit], enc: AmoEncoding, guard: Option<Lit>) {
    match enc {
        AmoEncoding::Pairwise => {
            for i in 0..lits.len() {
                for j in (i + 1)..lits.len() {
                    add(s, guard, &[lits[i].negate(), lits[j].negate()]);
                }
            }
        }
        AmoEncoding::Sequential => {
            if lits.len() <= 1 {
                return;
            }
            // Sinz's sequential counter: s_i = "some lit among 0..=i".
            let regs: Vec<Lit> = (0..lits.len() - 1).map(|_| Lit::pos(s.new_var())).collect();
            // l_0 -> s_0
            add(s, guard, &[lits[0].negate(), regs[0]]);
            for i in 1..lits.len() - 1 {
                // l_i -> s_i ; s_{i-1} -> s_i ; l_i ∧ s_{i-1} -> ⊥
                add(s, guard, &[lits[i].negate(), regs[i]]);
                add(s, guard, &[regs[i - 1].negate(), regs[i]]);
                add(s, guard, &[lits[i].negate(), regs[i - 1].negate()]);
            }
            let last = lits.len() - 1;
            add(s, guard, &[lits[last].negate(), regs[last - 1].negate()]);
        }
    }
}

/// Add clauses enforcing "exactly one of `lits` is true": the
/// at-least-one clause, then [`at_most_one`].
pub fn exactly_one(s: &mut SatSolver, lits: &[Lit], enc: AmoEncoding, guard: Option<Lit>) {
    add(s, guard, lits);
    at_most_one(s, lits, enc, guard);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatResult, SatVar};

    fn vars(s: &mut SatSolver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    fn count_true(m: &[bool], vs: &[Lit]) -> usize {
        vs.iter()
            .filter(|l| m[l.var().0 as usize] != l.is_neg())
            .count()
    }

    #[test]
    fn exactly_one_models() {
        for enc in [AmoEncoding::Pairwise, AmoEncoding::Sequential] {
            let mut s = SatSolver::new();
            let vs = vars(&mut s, 6);
            exactly_one(&mut s, &vs, enc, None);
            match s.solve() {
                SatResult::Sat(m) => assert_eq!(count_true(&m, &vs), 1, "{enc:?}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn amo_forbids_two() {
        for enc in [AmoEncoding::Pairwise, AmoEncoding::Sequential] {
            let mut s = SatSolver::new();
            let vs = vars(&mut s, 5);
            at_most_one(&mut s, &vs, enc, None);
            // Force two of them.
            s.add_clause(&[vs[1]]);
            s.add_clause(&[vs[3]]);
            assert_eq!(s.solve(), SatResult::Unsat, "{enc:?}");
        }
    }

    #[test]
    fn amo_allows_zero_and_one() {
        for enc in [AmoEncoding::Pairwise, AmoEncoding::Sequential] {
            // zero
            let mut s = SatSolver::new();
            let vs = vars(&mut s, 4);
            at_most_one(&mut s, &vs, enc, None);
            for &v in &vs {
                s.add_clause(&[v.negate()]);
            }
            assert!(matches!(s.solve(), SatResult::Sat(_)), "{enc:?} zero");
            // one
            let mut s = SatSolver::new();
            let vs = vars(&mut s, 4);
            at_most_one(&mut s, &vs, enc, None);
            s.add_clause(&[vs[2]]);
            match s.solve() {
                SatResult::Sat(m) => assert_eq!(count_true(&m, &vs), 1),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn sequential_adds_fewer_clauses_for_large_n() {
        // Indirect check: variable count grows for sequential only.
        let mut s1 = SatSolver::new();
        let v1 = vars(&mut s1, 30);
        at_most_one(&mut s1, &v1, AmoEncoding::Pairwise, None);
        assert_eq!(s1.num_vars(), 30);

        let mut s2 = SatSolver::new();
        let v2 = vars(&mut s2, 30);
        at_most_one(&mut s2, &v2, AmoEncoding::Sequential, None);
        assert_eq!(s2.num_vars(), 30 + 29);
    }

    #[test]
    fn singleton_and_empty_edge_cases() {
        let mut s = SatSolver::new();
        let vs = vars(&mut s, 1);
        at_most_one(&mut s, &vs, AmoEncoding::Sequential, None);
        at_most_one(&mut s, &[], AmoEncoding::Sequential, None);
        s.add_clause(&[vs[0]]);
        assert!(matches!(s.solve(), SatResult::Sat(_)));
    }

    /// SatVar import is used by the helper signature checks above.
    #[allow(dead_code)]
    fn _type_check(v: SatVar) -> Lit {
        Lit::pos(v)
    }
}
