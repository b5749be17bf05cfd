//! ILP mapping (architecture-agnostic formulation lineage — Chin &
//! Anderson DAC 2018, Guo et al. DAC 2021).
//!
//! Binary variables select one candidate `(pe, cycle)` position per
//! operation; the shared placement model ([`placement_model`]) is
//! lowered to linear rows: the assignment, per-`(pe, slot)`
//! exclusivity, and per-edge reachability (an implication row per
//! producer position). The 0/1 branch-and-bound solver
//! ([`cgra_solver::IlpModel`]) proves optimality of the objective
//! (earliest schedule, shortest wires) within the candidate space; the
//! shared CEGAR loop ([`cegar`]) handles register congestion the linear
//! model cannot see.
//!
//! ## What persists
//!
//! The CEGAR loop keeps one model per II: each round appends a blocking
//! row and re-solves. The model is dropped when the probe ends; the
//! sweep probes each II once, so nothing else would ever read it.

use super::exact_common::{
    add_solver_stats, cegar, placement_model, Cand, CegarBackend, Constraint, Pos, PositionSpace,
};
use super::sat_mapper::diagnose;
use super::sweep::{SweepCtx, TemporalSearch, Verdict};
use crate::diagnosis::Diagnosis;
use crate::mapper::Family;
use cgra_solver::ilp::IlpConfig;
use cgra_solver::{Cmp, IlpModel, IlpResult, IlpVar, IncumbentHook};
use std::time::Duration;

/// The ILP mapper.
#[derive(Debug, Clone, Default)]
pub struct IlpMapper;

/// Candidate positions per op. A count cap, not a declared bound: it
/// sizes the branch-and-bound model, and a probe over a cut list is
/// reported unproven, never refuted.
const POSITION_CAP: usize = 12;
const CEGAR_ROUNDS: u32 = 8;
const WINDOW_IIS: u32 = 1;

/// One II's model as the CEGAR loop sees it: re-solved after every
/// blocking row.
struct Rounds<'a> {
    ctx: &'a SweepCtx<'a>,
    /// The model with every CEGAR blocking row so far.
    model: IlpModel,
    vars: Vec<Vec<IlpVar>>,
}

impl CegarBackend for Rounds<'_> {
    fn solve(&mut self, _round: u32) -> Verdict<Vec<usize>> {
        let limits = IlpConfig {
            time_limit: self.ctx.budget.remaining().unwrap_or(Duration::MAX),
            node_limit: 4_000,
        };
        let values = match self.model.solve_with(limits) {
            IlpResult::Optimal { values, .. } => values,
            IlpResult::Infeasible => return Verdict::Refuted,
            // Out of nodes with an incumbent in hand: route that.
            IlpResult::Budget {
                values: Some(v), ..
            } => v,
            IlpResult::Budget { values: None, .. } => return Verdict::Unproven,
        };
        let chosen = |vars: &Vec<IlpVar>| {
            (vars.iter().position(|v| values[v.0])).expect("the assignment row guarantees a choice")
        };
        Verdict::Mapped(self.vars.iter().map(chosen).collect())
    }

    /// Sum of the placement's choices ≤ n − 1.
    fn block(&mut self, choice: &[usize]) {
        let row: Vec<(IlpVar, f64)> = (self.vars.iter().zip(choice))
            .map(|(vars, &k)| (vars[k], 1.0))
            .collect();
        let most = row.len() as f64 - 1.0;
        self.model.add_constraint(&row, Cmp::Le, most);
    }
}

impl TemporalSearch for IlpMapper {
    const NAME: &'static str = "ilp";
    const FAMILY: Family = Family::ExactIlp;
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Verdict {
        let (dfg, fabric) = (ctx.dfg, ctx.fabric);
        let space = PositionSpace::build(dfg, fabric, ii, WINDOW_IIS, Some(POSITION_CAP));
        if space.positions.iter().any(|ps| ps.is_empty()) {
            return Verdict::Unproven;
        }
        // The placement model lowered to rows over one binary per
        // candidate position, priced for early issue + central placement.
        let mut model = IlpModel::new(false); // minimise
        let price = |(pe, t): Pos| {
            let (r, c) = fabric.coords(pe);
            let centre = (r as i32 - fabric.rows as i32 / 2).abs()
                + (c as i32 - fabric.cols as i32 / 2).abs();
            t as f64 + centre as f64 * 0.1
        };
        let vars: Vec<Vec<IlpVar>> = (space.positions.iter())
            .map(|ps| ps.iter().map(|&p| model.add_var(price(p))).collect())
            .collect();
        let var = |&(op, k): &Cand| vars[op][k];
        placement_model(ctx, &space, ii, false, |c| match c {
            Constraint::ExactlyOne(op) => model.exactly_one(&vars[op]),
            Constraint::AtMostOne(_, cands) => {
                model.at_most_one(&cands.iter().map(var).collect::<Vec<_>>())
            }
            // x_src ≤ Σ compatible x_dst.
            Constraint::Implies { src, dsts, .. } => {
                let mut row = vec![(var(&src), 1.0)];
                row.extend(dsts.iter().map(|d| (var(d), -1.0)));
                model.add_constraint(&row, Cmp::Le, 0.0);
            }
        });
        model.set_interrupt(ctx.budget.interrupt());
        let tel = ctx.tele().clone();
        // Surface the solver's anytime incumbents (improving integral
        // solutions) straight into the run's journal.
        model.set_on_incumbent(IncumbentHook::new(move |obj| {
            tel.incumbent(Self::NAME, ii, obj);
        }));
        let mut rounds = Rounds { ctx, model, vars };
        let out = cegar(ctx, &space, ii, CEGAR_ROUNDS, &mut rounds);
        add_solver_stats(ctx.tele(), rounds.model.stats());
        out
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
    use crate::mappers::exact_common::tests::sweep_ii_is_the_smallest_pinned_ii;
    use crate::validate::validate;
    use cgra_arch::{Fabric, Topology};
    use cgra_ir::kernels;

    #[test]
    fn explain_attaches_a_deterministic_final_conflict_core() {
        let mut starved = Fabric::homogeneous(2, 2, Topology::Mesh);
        for pe in 1..4 {
            starved.cells[pe].mul = false;
        }
        let dfg = kernels::fir(4);
        // II pinned below MII: analytic capability diagnosis.
        let below = MapConfig {
            max_ii: 1,
            explain: true,
            ..MapConfig::fast()
        };
        let err = IlpMapper.map(&dfg, &starved, &below).unwrap_err();
        let d = err.diagnosis().expect("explain must attach a diagnosis");
        assert_eq!(d.class, ResourceClass::Capability);
        // Pinned to its MII 4 on a plain 2×2 mesh, no placement is
        // found, and the final-conflict core says why: the taps' values
        // cannot reach each other through pe1–pe3 in time.
        let f = Fabric::homogeneous(2, 2, Topology::Mesh);
        let at_mii = MapConfig {
            max_ii: 4,
            explain: true,
            ..MapConfig::fast()
        };
        let run = || IlpMapper.map(&dfg, &f, &at_mii).unwrap_err();
        let (e1, e2) = (run(), run());
        let d = e1.diagnosis().expect("explain must attach a diagnosis");
        assert_eq!(Some(d), e2.diagnosis(), "diagnosis must be deterministic");
        assert_eq!((d.class, d.ii, d.mii), (ResourceClass::Routing, 4, 4));
        assert!(
            d.detail.starts_with("final-conflict core at II 4"),
            "{}",
            d.render()
        );
        assert_eq!(d.cells, ["pe1@(0,1)", "pe2@(1,0)", "pe3@(1,1)"]);
        assert!(d.core.contains(&"routing".to_string()), "{:?}", d.core);
    }

    #[test]
    fn ilp_maps_tiny_kernels() {
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        for dfg in [kernels::dot_product(), kernels::accumulate()] {
            let m = IlpMapper
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn warm_and_cold_ilp_mapper_agree_on_ii() {
        // A sweep must land where cold single-II solves do.
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        let kernels = [
            kernels::dot_product(),
            kernels::accumulate(),
            kernels::iir1(),
            kernels::sad(),
        ];
        for dfg in kernels {
            sweep_ii_is_the_smallest_pinned_ii(&IlpMapper, &dfg, &f);
        }
    }

    #[test]
    fn ilp_objective_prefers_early_schedules() {
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        let dfg = kernels::accumulate();
        let m = IlpMapper.map(&dfg, &f, &MapConfig::fast()).unwrap();
        // Minimising Σt keeps the 3-op chain tight.
        assert!(m.schedule_len(&dfg, &f) <= 6);
    }
}
