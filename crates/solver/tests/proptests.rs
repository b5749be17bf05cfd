//! Property-based tests pitting every solver engine against a
//! brute-force oracle on randomly generated small instances.

use cgra_solver::cnf::{at_most_one, AmoEncoding};
use cgra_solver::{Cmp, CpModel, CpSolution, IlpModel, IlpResult, Lit, SatResult, SatSolver};
use proptest::prelude::*;

/// A random 3-ish-CNF over `nvars` variables as (var, polarity) lists.
fn arb_cnf(nvars: usize, nclauses: usize) -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    prop::collection::vec(
        prop::collection::vec((0..nvars, any::<bool>()), 1..=3),
        1..=nclauses,
    )
}

fn brute_force_sat(nvars: usize, cnf: &[Vec<(usize, bool)>]) -> bool {
    (0..(1u32 << nvars)).any(|bits| {
        cnf.iter()
            .all(|clause| clause.iter().any(|&(v, pos)| (bits >> v & 1 == 1) == pos))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn cdcl_agrees_with_truth_table(cnf in arb_cnf(8, 24)) {
        let mut s = SatSolver::new();
        let vars: Vec<_> = (0..8).map(|_| s.new_var()).collect();
        for clause in &cnf {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&(v, pos)| if pos { Lit::pos(vars[v]) } else { Lit::neg(vars[v]) })
                .collect();
            s.add_clause(&lits);
        }
        let want = brute_force_sat(8, &cnf);
        match s.solve() {
            SatResult::Sat(model) => {
                prop_assert!(want, "solver said SAT, oracle says UNSAT");
                // And the model must actually satisfy the formula.
                for clause in &cnf {
                    prop_assert!(clause.iter().any(|&(v, pos)| model[v] == pos));
                }
            }
            SatResult::Unsat => prop_assert!(!want, "solver said UNSAT, oracle says SAT"),
            SatResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    #[test]
    fn amo_encodings_equisatisfiable(force in prop::collection::vec(any::<bool>(), 6)) {
        // Force an arbitrary subset of 6 vars true under both AMO
        // encodings; both must agree with the count-based oracle.
        let expected_sat = force.iter().filter(|&&b| b).count() <= 1;
        for enc in [AmoEncoding::Pairwise, AmoEncoding::Sequential] {
            let mut s = SatSolver::new();
            let vars: Vec<Lit> = (0..6).map(|_| Lit::pos(s.new_var())).collect();
            at_most_one(&mut s, &vars, enc, None);
            // The same constraint under a selector binds exactly when
            // the selector is assumed.
            let mut g = SatSolver::new();
            let gvars: Vec<Lit> = (0..6).map(|_| Lit::pos(g.new_var())).collect();
            let sel = g.new_selector();
            at_most_one(&mut g, &gvars, enc, Some(sel));
            for (i, &f) in force.iter().enumerate() {
                s.add_clause(&[if f { vars[i] } else { vars[i].negate() }]);
                g.add_clause(&[if f { gvars[i] } else { gvars[i].negate() }]);
            }
            let got = matches!(s.solve(), SatResult::Sat(_));
            prop_assert_eq!(got, expected_sat, "{:?}", enc);
            let guarded = matches!(g.solve_with_assumptions(&[sel]), SatResult::Sat(_));
            prop_assert_eq!(guarded, expected_sat, "{:?} under its selector", enc);
            prop_assert!(matches!(g.solve(), SatResult::Sat(_)), "{:?} unassumed", enc);
        }
    }

    #[test]
    fn cp_binary_agrees_with_exhaustive(
        cap_x in 2u32..6, cap_y in 2u32..6, modulus in 2u32..5, residue in 0u32..5
    ) {
        let residue = residue % modulus;
        let pred = move |a: u32, b: u32| (a + 2 * b) % modulus == residue;
        let mut m = CpModel::new();
        let x = m.add_var(cap_x);
        let y = m.add_var(cap_y);
        m.binary_table(x, y, pred);
        let oracle = (0..cap_x).any(|a| (0..cap_y).any(|b| pred(a, b)));
        match m.solve() {
            CpSolution::Sat(sol) => {
                prop_assert!(oracle);
                prop_assert!(pred(sol[0], sol[1]));
            }
            CpSolution::Unsat => prop_assert!(!oracle),
            CpSolution::Unknown => prop_assert!(false, "tiny instance must finish"),
        }
    }

    #[test]
    fn cp_all_different_matches_pigeonhole(vars in 1usize..7, cap in 1u32..7) {
        let mut m = CpModel::new();
        let vs: Vec<_> = (0..vars).map(|_| m.add_var(cap)).collect();
        m.all_different(&vs);
        let feasible = vars <= cap as usize;
        match m.solve() {
            CpSolution::Sat(sol) => {
                prop_assert!(feasible);
                let mut sorted = sol.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), vars);
            }
            CpSolution::Unsat => prop_assert!(!feasible),
            CpSolution::Unknown => prop_assert!(false),
        }
    }

    #[test]
    fn assumption_solves_agree_with_fresh_solves(
        cnf in arb_cnf(7, 20),
        assumps in prop::collection::vec((0usize..7, any::<bool>()), 0..=3)
    ) {
        // One incremental solver queried under assumptions must agree,
        // query by query, with a fresh solver given the assumptions as
        // unit clauses — including after earlier queries have seeded
        // the incremental solver's learnt-clause database.
        let mut inc = SatSolver::new();
        let inc_vars: Vec<_> = (0..7).map(|_| inc.new_var()).collect();
        for clause in &cnf {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&(v, pos)| if pos { Lit::pos(inc_vars[v]) } else { Lit::neg(inc_vars[v]) })
                .collect();
            inc.add_clause(&lits);
        }
        // Warm the learnt DB with an unassumed solve first.
        let unconstrained = inc.solve();

        let lits: Vec<Lit> = assumps
            .iter()
            .map(|&(v, pos)| if pos { Lit::pos(inc_vars[v]) } else { Lit::neg(inc_vars[v]) })
            .collect();
        let incremental = inc.solve_with_assumptions(&lits);

        let mut fresh = SatSolver::new();
        let f_vars: Vec<_> = (0..7).map(|_| fresh.new_var()).collect();
        for clause in &cnf {
            let cl: Vec<Lit> = clause
                .iter()
                .map(|&(v, pos)| if pos { Lit::pos(f_vars[v]) } else { Lit::neg(f_vars[v]) })
                .collect();
            fresh.add_clause(&cl);
        }
        for &(v, pos) in &assumps {
            fresh.add_clause(&[if pos { Lit::pos(f_vars[v]) } else { Lit::neg(f_vars[v]) }]);
        }
        let from_scratch = fresh.solve();

        match (&incremental, &from_scratch) {
            (SatResult::Sat(model), SatResult::Sat(_)) => {
                for clause in &cnf {
                    prop_assert!(clause.iter().any(|&(v, pos)| model[v] == pos));
                }
                for &(v, pos) in &assumps {
                    prop_assert_eq!(model[v], pos, "assumption not honoured");
                }
            }
            (SatResult::Unsat, SatResult::Unsat) => {}
            other => prop_assert!(false, "incremental vs fresh: {other:?}"),
        }
        // The incremental solver must still answer the unconstrained
        // query identically after the assumption solve.
        let again = inc.solve();
        prop_assert_eq!(
            matches!(again, SatResult::Sat(_)),
            matches!(unconstrained, SatResult::Sat(_))
        );
    }

    #[test]
    fn ilp_knapsack_matches_brute_force(
        profits in prop::collection::vec(1i64..20, 6),
        weights in prop::collection::vec(1i64..10, 6),
        budget in 5i64..30
    ) {
        let mut m = IlpModel::new(true);
        let vars: Vec<_> = profits.iter().map(|&p| m.add_var(p as f64)).collect();
        let row: Vec<_> = vars
            .iter()
            .zip(&weights)
            .map(|(&v, &w)| (v, w as f64))
            .collect();
        m.add_constraint(&row, Cmp::Le, budget as f64);
        // Brute force.
        let mut best = 0i64;
        for bits in 0..(1u32 << 6) {
            let w: i64 = (0..6).filter(|&i| bits >> i & 1 == 1).map(|i| weights[i]).sum();
            if w <= budget {
                let p: i64 = (0..6).filter(|&i| bits >> i & 1 == 1).map(|i| profits[i]).sum();
                best = best.max(p);
            }
        }
        match m.solve() {
            IlpResult::Optimal { objective, values } => {
                prop_assert!((objective - best as f64).abs() < 1e-6,
                             "ILP {objective} vs brute {best}");
                // Chosen set must respect the budget.
                let w: i64 = values
                    .iter()
                    .zip(&weights)
                    .filter(|(&b, _)| b)
                    .map(|(_, &w)| w)
                    .sum();
                prop_assert!(w <= budget);
            }
            other => prop_assert!(false, "{other:?}"),
        }
    }
}
