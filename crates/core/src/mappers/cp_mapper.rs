//! Constraint-programming mapping (Raffin, Wolinski, Charot &
//! Kuchcinski lineage — DASIP 2010, built on the JaCoP CP solver).
//!
//! One finite-domain variable per operation over its candidate-position
//! indices; binary compatibility constraints per edge (latency + hop
//! feasibility on the TEC) and pairwise FU-exclusivity constraints;
//! solved by the AC-3 + MRV engine of [`cgra_solver::CpModel`]. It is
//! the placement model of [`super::exact_common`] over the same
//! [`PositionSpace`], stated as tables rather than lowered from the
//! shared emitter, because the engine takes binary relations, not
//! clauses. The shared CEGAR loop ([`cegar`]) blocks placements the
//! router cannot realise, and the shared SAT core ([`diagnose`])
//! explains a range it exhausts.

use super::exact_common::{
    add_solver_stats, cegar, edge_compatible, CegarBackend, Pos, PositionSpace,
};
use super::sat_mapper::diagnose;
use super::sweep::{SweepCtx, TemporalSearch, Verdict};
use crate::diagnosis::Diagnosis;
use crate::mapper::Family;
use cgra_solver::cp::CpConfig;
use cgra_solver::{CpModel, CpSolution, CpVar};
use std::sync::Arc;

/// The CP mapper.
#[derive(Debug, Clone, Default)]
pub struct CpMapper;

const POSITION_CAP: usize = 40;
const CEGAR_ROUNDS: u32 = 12;
const WINDOW_IIS: u32 = 2;

/// One II's CP model as the CEGAR loop sees it. The engine keeps no
/// state between solves, so every round rebuilds the model over
/// `space` with the placements blocked so far.
struct Rounds<'a> {
    ctx: &'a SweepCtx<'a>,
    space: &'a PositionSpace,
    ii: u32,
    blocked: Vec<Vec<usize>>,
}

impl CegarBackend for Rounds<'_> {
    fn solve(&mut self, round: u32) -> Verdict<Vec<usize>> {
        let (ctx, space, ii) = (self.ctx, self.space, self.ii);
        let (dfg, fabric, topo, budget) = (ctx.dfg, ctx.fabric, &ctx.topo, &ctx.budget);
        let mut model = CpModel::new();
        let vars: Vec<CpVar> = space
            .positions
            .iter()
            .map(|ps| model.add_var(ps.len().max(1) as u32))
            .collect();

        // Edge compatibility.
        for (_, e) in dfg.edges() {
            let src_op = dfg.op(e.src);
            let sp: Vec<Pos> = space.positions[e.src.index()].clone();
            let dp: Vec<Pos> = space.positions[e.dst.index()].clone();
            let fabric2 = fabric.clone();
            let topo2 = Arc::clone(topo);
            let dist = e.dist;
            if e.src == e.dst {
                // Self edge: the position must be self-compatible.
                for (k, &a) in sp.iter().enumerate() {
                    if !edge_compatible(fabric, topo, ii, src_op, dist, a, a) {
                        model.forbid(vars[e.src.index()], k as u32);
                    }
                }
            } else {
                model.binary_table(vars[e.src.index()], vars[e.dst.index()], move |a, b| {
                    edge_compatible(
                        &fabric2,
                        &topo2,
                        ii,
                        src_op,
                        dist,
                        sp[a as usize],
                        dp[b as usize],
                    )
                });
            }
        }

        // FU exclusivity: pairwise (pe, slot) difference.
        for a in 0..vars.len() {
            for b in (a + 1)..vars.len() {
                let pa: Vec<Pos> = space.positions[a].clone();
                let pb: Vec<Pos> = space.positions[b].clone();
                model.binary_table(vars[a], vars[b], move |x, y| {
                    let (pe1, t1) = pa[x as usize];
                    let (pe2, t2) = pb[y as usize];
                    pe1 != pe2 || t1 % ii != t2 % ii
                });
            }
        }

        // CEGAR restart: this engine has no tuple no-goods, so each
        // failed placement is excluded by forbidding one pivot op's
        // value (a different pivot per round). This over-prunes —
        // solutions differing only elsewhere are lost — trading
        // completeness for progress; the ILP/SAT mappers keep exact
        // tuple blocking. An UNSAT after the first round is therefore
        // no refutation of the II, and `cegar` counts none.
        for (round, bl) in self.blocked.iter().enumerate() {
            let pivot = round % vars.len();
            model.forbid(vars[pivot], bl[pivot] as u32);
        }

        model.set_interrupt(budget.interrupt());
        let sol = model.solve_with(CpConfig {
            time_limit: budget.remaining().unwrap_or(std::time::Duration::MAX),
            node_limit: 500_000,
        });
        add_solver_stats(ctx.tele(), model.stats());
        match sol {
            CpSolution::Unsat => Verdict::Refuted,
            CpSolution::Unknown => Verdict::Unproven,
            CpSolution::Sat(values) => {
                // Each model is an anytime incumbent placement;
                // cost = CEGAR rounds spent reaching it.
                ctx.incumbent(CpMapper::NAME, ii, round as f64);
                Verdict::Mapped(values.iter().map(|&k| k as usize).collect())
            }
        }
    }

    fn block(&mut self, choice: &[usize]) {
        self.blocked.push(choice.to_vec());
    }
}

impl TemporalSearch for CpMapper {
    const NAME: &'static str = "cp";
    const FAMILY: Family = Family::ExactCsp;
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Verdict {
        let space = PositionSpace::build(ctx.dfg, ctx.fabric, ii, WINDOW_IIS, Some(POSITION_CAP));
        if space.positions.iter().any(|ps| ps.is_empty()) {
            return Verdict::Unproven;
        }
        let mut rounds = Rounds {
            ctx,
            space: &space,
            ii,
            blocked: Vec::new(),
        };
        cegar(ctx, &space, ii, CEGAR_ROUNDS, &mut rounds)
    }

    fn diagnose(&self, ctx: &SweepCtx<'_>, ii: u32) -> Option<Diagnosis> {
        Some(diagnose(ctx, ii, WINDOW_IIS, POSITION_CAP, CEGAR_ROUNDS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnosis::ResourceClass;
    use crate::mapper::{MapConfig, Mapper};
    use crate::validate::validate;
    use cgra_arch::{Fabric, Topology};
    use cgra_ir::kernels;

    #[test]
    fn cp_maps_small_suite() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::small_suite() {
            let m = CpMapper
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn explain_diagnoses_an_exhausted_range() {
        // A 1×12 line with stream I/O only at its west end and the one
        // multiplier at its east end: the dot product's operands cannot
        // travel 11 hops inside the placement window at its MII of 3.
        let mut f = Fabric::homogeneous(1, 12, Topology::Mesh);
        for (pe, cell) in f.cells.iter_mut().enumerate() {
            cell.io = pe == 0;
            cell.mul = pe == 11;
        }
        let dfg = kernels::dot_product();
        let cfg = MapConfig {
            max_ii: 3,
            explain: true,
            ..MapConfig::fast()
        };
        let err = CpMapper.map(&dfg, &f, &cfg).unwrap_err();
        let d = err.diagnosis().expect("explain must attach a diagnosis");
        assert_eq!((d.ii, d.mii), (3, 3));
        assert_eq!(d.class, ResourceClass::Routing, "{}", d.render());
        let plain = MapConfig {
            explain: false,
            ..cfg
        };
        assert!(CpMapper
            .map(&dfg, &f, &plain)
            .unwrap_err()
            .diagnosis()
            .is_none());
    }

    #[test]
    fn cp_handles_heterogeneous_fabric() {
        let f = Fabric::adres_like(4, 4);
        let dfg = kernels::dot_product();
        let m = CpMapper.map(&dfg, &f, &MapConfig::fast()).unwrap();
        validate(&m, &dfg, &f).unwrap();
    }
}
