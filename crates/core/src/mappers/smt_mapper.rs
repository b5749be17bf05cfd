//! SMT-based mapping over difference logic (Donovick et al.,
//! ReConFig 2019: agile SMT-based mapping for CGRAs with restricted
//! routing networks).
//!
//! Binding is propositional (one PE-selector variable per operation ×
//! PE); issue times are *integer theory variables*. Dependence timing
//! becomes conditional difference-logic atoms —
//! `x[src,p1] ∧ x[dst,p2] → (t_src − t_dst ≤ II·d − lat − hop(p1,p2))`
//! — and same-PE exclusivity becomes a disjunction of strict orderings.
//! The CDCL(T) solver ([`cgra_solver::SmtSolver`]) handles the
//! interplay; the schedule horizon is fixed per probe, and the
//! resulting mapping is a (non-modulo) spatio-temporal one: II equals
//! the horizon, matching the restricted-routing setting of the lineage
//! paper. It answers Fig. 3's *non-pipelined* temporal-mapping question
//! rather than modulo scheduling's, so its minimal horizon need not
//! equal a modulo mapper's II.
//!
//! The sweep probes every horizon in the II range, smallest first. The
//! model ranges over every capable PE and every cycle of the horizon,
//! nothing cut, so an UNSAT answer refutes the horizon, and a horizon
//! shorter than the critical path is refuted without a solve; a model
//! the router cannot realise, or a solver stopped by its conflict
//! limit, proves nothing.

use super::exact_common::{add_solver_stats, capability_bitsets};
use super::sweep::{SweepCtx, TemporalSearch, Verdict};
use crate::mapper::Family;
use cgra_arch::PeId;
use cgra_ir::{graph, OpKind};
use cgra_solver::{Lit, SmtResult, SmtSolver};

/// The SMT mapper.
#[derive(Debug, Clone, Default)]
pub struct SmtMapper;

impl TemporalSearch for SmtMapper {
    const NAME: &'static str = "smt";
    const FAMILY: Family = Family::ExactCsp;
    /// `caps[op][pe]`: the horizon-independent capability bitsets.
    type State = Vec<Vec<bool>>;

    fn prepare(&self, ctx: &SweepCtx<'_>) -> Vec<Vec<bool>> {
        capability_bitsets(ctx.dfg, ctx.fabric)
    }

    fn try_ii(&self, ctx: &SweepCtx<'_>, caps: &mut Vec<Vec<bool>>, horizon: u32) -> Verdict {
        let (dfg, fabric, topo, budget) = (ctx.dfg, ctx.fabric, &*ctx.topo, &ctx.budget);
        if horizon < graph::critical_path(dfg, &|op: OpKind| fabric.latency_of(op)) {
            return Verdict::Refuted; // the horizon bounds alone are UNSAT
        }
        let n = dfg.node_count();
        // Theory vars: one time per op, plus a zero reference.
        let mut smt = SmtSolver::new(n + 1);
        let zero = n;

        // Binding selectors, gated by the horizon-independent
        // capability bitsets computed once per map() call.
        let pes: Vec<PeId> = fabric.pe_ids().collect();
        let sel: Vec<Vec<Lit>> = caps
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&supported| {
                        if supported {
                            Lit::pos(smt.sat.new_var())
                        } else {
                            // Unsupported: a fresh var forced false.
                            let v = Lit::pos(smt.sat.new_var());
                            smt.add_clause(&[v.negate()]);
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        for row in &sel {
            smt.add_clause(row); // at least one PE
            for i in 0..row.len() {
                for j in (i + 1)..row.len() {
                    smt.add_clause(&[row[i].negate(), row[j].negate()]);
                }
            }
        }

        // Horizon bounds: 0 ≤ t_o ≤ horizon − lat.
        for id in dfg.node_ids() {
            let lat = fabric.latency_of(dfg.op(id));
            let lo = smt.diff_le(zero, id.index(), 0); // 0 - t ≤ 0
            let hi = smt.diff_le(id.index(), zero, (horizon - lat.min(horizon)) as i64);
            smt.add_clause(&[lo]);
            smt.add_clause(&[hi]);
        }

        // Conditional dependence-timing atoms.
        for (_, e) in dfg.edges() {
            let lat = fabric.latency_of(dfg.op(e.src)) as i64;
            let slack_gain = (horizon * e.dist) as i64;
            for (i, &p1) in pes.iter().enumerate() {
                for (j, &p2) in pes.iter().enumerate() {
                    if e.src == e.dst && i != j {
                        continue;
                    }
                    let h = topo.hops(p1, p2) as i64;
                    // t_src - t_dst ≤ II·d − lat − hop
                    let c = slack_gain - lat - h;
                    if e.src == e.dst {
                        // Self edge: constraint on a single op; if
                        // violated the PE choice is simply forbidden.
                        if c < 0 {
                            smt.add_clause(&[sel[e.src.index()][i].negate()]);
                        }
                        continue;
                    }
                    let atom = smt.diff_le(e.src.index(), e.dst.index(), c);
                    smt.add_clause(&[
                        sel[e.src.index()][i].negate(),
                        sel[e.dst.index()][j].negate(),
                        atom,
                    ]);
                }
            }
        }

        // Same-PE exclusivity: distinct times (strict order one way or
        // the other).
        for a in 0..n {
            for b in (a + 1)..n {
                let lt = smt.diff_le(a, b, -1);
                let gt = smt.diff_le(b, a, -1);
                for (i, _) in pes.iter().enumerate() {
                    smt.add_clause(&[sel[a][i].negate(), sel[b][i].negate(), lt, gt]);
                }
            }
        }

        smt.sat.conflict_budget = 2_000_000;
        smt.sat.interrupt = budget.interrupt();
        let outcome = smt.solve();
        add_solver_stats(ctx.tele(), smt.stats());
        match outcome {
            SmtResult::Unsat => Verdict::Refuted,
            SmtResult::Unknown => Verdict::Unproven,
            SmtResult::Sat { model, values } => {
                // The theory model is this horizon's incumbent
                // schedule; cost = the horizon probed.
                ctx.incumbent(Self::NAME, horizon, horizon as f64);
                // Decode binding and times (normalise to t_zero).
                let t0 = values[zero];
                let chosen = sel.iter().enumerate().map(|(o, row)| {
                    let k = (row.iter().position(|l| model[l.var().0 as usize]))
                        .expect("the at-least-one clause guarantees a PE");
                    (pes[k], (values[o] - t0).max(0) as u32)
                });
                ctx.route(horizon, chosen).into()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::validate::validate;
    use cgra_arch::{Fabric, Topology};
    use cgra_ir::kernels;

    #[test]
    fn smt_maps_tiny_kernels() {
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        for dfg in [
            kernels::dot_product(),
            kernels::accumulate(),
            kernels::threshold(),
        ] {
            let m = SmtMapper
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn smt_mapping_is_non_modulo() {
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        let dfg = kernels::dot_product();
        let m = SmtMapper.map(&dfg, &f, &MapConfig::fast()).unwrap();
        // The II equals the probed horizon: each op's slot is unique.
        let mut slots = std::collections::HashSet::new();
        for p in &m.place {
            assert!(slots.insert((p.pe, p.time % m.ii)));
        }
    }
}
