//! Property test of the difference-logic SMT solver against brute
//! force, through the public API only.
//!
//! Each case is a random CNF over difference atoms `x − y ≤ c` on four
//! integer variables and a zero variable, with `c ∈ [−3, 3]`. Literals
//! draw from a small per-case pool of atoms, so the same constraint is
//! asked for again (a duplicate), asked for through its integer
//! complement `y − x ≤ −c − 1` (negated), and negated outright. Every
//! variable is boxed to `0..=6` above the zero variable, which makes
//! the instance finite: the oracle enumerates the box.

use cgra_solver::{Lit, SmtResult, SmtSolver};
use proptest::prelude::*;

const VARS: usize = 4;
const ZERO: usize = VARS;
const BOX: i64 = 6;

/// `x − y ≤ c` holds, or fails when `pos` is false. `via` asks the
/// solver for the atom through its complement.
#[derive(Debug, Clone, Copy)]
struct Literal {
    x: usize,
    y: usize,
    c: i64,
    pos: bool,
    via: bool,
}

impl Literal {
    /// `x − y ≤ c`, asked for directly.
    fn atom(x: usize, y: usize, c: i64) -> Literal {
        let (pos, via) = (true, false);
        Literal { x, y, c, pos, via }
    }

    fn holds(&self, t: &[i64]) -> bool {
        (t[self.x] - t[self.y] <= self.c) == self.pos
    }
}

/// The pool of atoms one case draws from: `(x, y, c)`, where `x` and
/// `y` may be the zero variable or each other.
fn arb_pool() -> impl Strategy<Value = Vec<(usize, usize, i64)>> {
    prop::collection::vec((0..=ZERO, 0..=ZERO, -3i64..=3), 1..=6)
}

/// Clauses of 1–3 literals: (pool index, polarity, ask through the
/// complement).
fn arb_clauses() -> impl Strategy<Value = Vec<Vec<(usize, bool, bool)>>> {
    prop::collection::vec(
        prop::collection::vec((0..6usize, any::<bool>(), any::<bool>()), 1..=3),
        1..=8,
    )
}

/// The box `0 ≤ t_v − t_zero ≤ BOX` as unit clauses.
fn box_clauses() -> Vec<Vec<Literal>> {
    (0..VARS)
        .flat_map(|v| [Literal::atom(ZERO, v, 0), Literal::atom(v, ZERO, BOX)])
        .map(|l| vec![l])
        .collect()
}

/// Is some point of the box a model of every clause?
fn brute_force(clauses: &[Vec<Literal>]) -> bool {
    let side = (BOX + 1) as usize;
    (0..side.pow(VARS as u32)).any(|mut code| {
        let mut t = [0i64; VARS + 1];
        for tv in t.iter_mut().take(VARS) {
            *tv = (code % side) as i64;
            code /= side;
        }
        clauses.iter().all(|cl| cl.iter().any(|l| l.holds(&t)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    #[test]
    fn smt_agrees_with_enumerating_the_box(pool in arb_pool(), drawn in arb_clauses()) {
        let mut clauses: Vec<Vec<Literal>> = drawn
            .iter()
            .map(|cl| {
                cl.iter()
                    .map(|&(i, pos, via)| {
                        let (x, y, c) = pool[i % pool.len()];
                        Literal { pos, via, ..Literal::atom(x, y, c) }
                    })
                    .collect()
            })
            .collect();
        clauses.extend(box_clauses());

        let mut s = SmtSolver::new(VARS + 1);
        let lits: Vec<Vec<Lit>> = clauses
            .iter()
            .map(|cl| {
                cl.iter()
                    .map(|l| {
                        let atom = if l.via {
                            s.diff_le(l.y, l.x, -l.c - 1).negate()
                        } else {
                            s.diff_le(l.x, l.y, l.c)
                        };
                        if l.pos { atom } else { atom.negate() }
                    })
                    .collect()
            })
            .collect();
        for cl in &lits {
            s.add_clause(cl);
        }

        let want = brute_force(&clauses);
        match s.solve() {
            SmtResult::Sat { model, values } => {
                prop_assert!(want, "solver said SAT, the box has no model: {:?}", clauses);
                for (cl, cl_lits) in clauses.iter().zip(&lits) {
                    prop_assert!(
                        cl.iter().any(|l| l.holds(&values)),
                        "values {:?} violate {:?}", values, cl
                    );
                    // The Boolean model means what the integers say.
                    for (l, &lit) in cl.iter().zip(cl_lits) {
                        let assigned = model[lit.var().0 as usize] != lit.is_neg();
                        prop_assert_eq!(assigned, l.holds(&values), "{:?} under {:?}", l, values);
                    }
                }
            }
            SmtResult::Unsat => prop_assert!(!want, "solver said UNSAT, the box has a model: {:?}", clauses),
            SmtResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }
}
