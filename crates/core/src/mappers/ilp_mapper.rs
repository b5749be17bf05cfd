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
    add_solver_stats, cegar, diagnose_empty_space, diagnose_interrupted, diagnose_unroutable,
    placement_model, Cand, CegarBackend, Constraint, Pos, PositionSpace,
};
use super::sweep::{SweepCtx, TemporalSearch, Verdict};
use crate::diagnosis::{cap_list, cell_name, op_name, Diagnosis, ResourceClass};
use crate::mapper::Family;
use cgra_arch::PeId;
use cgra_ir::NodeId;
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

/// Every constraint row is stamped with the resource class it encodes,
/// so the drop-group probe ([`IlpModel::probe_without`]) can attribute
/// an infeasible model to the class whose removal restores
/// feasibility. (Tag 0 is the solver's "untagged".)
fn tag(class: ResourceClass) -> u32 {
    class as u32 + 1
}

/// One II's model as the CEGAR loop sees it: re-solved after every
/// blocking row, which is tagged as register pressure.
struct Rounds<'a> {
    ctx: &'a SweepCtx<'a>,
    /// The model with every CEGAR blocking row so far.
    model: IlpModel,
    vars: Vec<Vec<IlpVar>>,
}

impl CegarBackend for Rounds<'_> {
    fn solve(&mut self, _round: u32) -> Verdict<Vec<usize>> {
        let values = match self.model.solve_with(IlpMapper::limits(self.ctx)) {
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

impl IlpMapper {
    /// The branch-and-bound budget of one solve.
    fn limits(ctx: &SweepCtx<'_>) -> IlpConfig {
        IlpConfig {
            time_limit: ctx.budget.remaining().unwrap_or(Duration::MAX),
            node_limit: 4_000,
        }
    }

    /// The ILP lowering of the placement model at `ii`: one binary per
    /// candidate position, priced by `objective`, and one tagged row
    /// per constraint. Rows added afterwards (CEGAR blocking rows) are
    /// tagged as register pressure.
    fn encode(
        &self,
        ctx: &SweepCtx<'_>,
        space: &PositionSpace,
        ii: u32,
        objective: impl Fn(Pos) -> f64,
    ) -> (IlpModel, Vec<Vec<IlpVar>>) {
        let mut model = IlpModel::new(false); // minimise
        let vars: Vec<Vec<IlpVar>> = space
            .positions
            .iter()
            .map(|ps| ps.iter().map(|&p| model.add_var(objective(p))).collect())
            .collect();
        let var = |&(op, k): &Cand| vars[op][k];
        placement_model(ctx, space, ii, false, |c| {
            model.set_row_tag(tag(c.class()));
            match c {
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
            }
        });
        model.set_row_tag(tag(ResourceClass::Register));
        (model, vars)
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
        // Objective: early issue + central placement.
        let (mut model, vars) = self.encode(ctx, &space, ii, |(pe, t)| {
            let (r, c) = fabric.coords(pe);
            let centre = (r as i32 - fabric.rows as i32 / 2).abs()
                + (c as i32 - fabric.cols as i32 / 2).abs();
            t as f64 + centre as f64 * 0.1
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
        Some(self.diagnose_ii(ctx, ii))
    }
}

impl IlpMapper {
    /// Failure forensics at a single II: rebuild the tagged model and
    /// run the drop-group probe — the resource class whose rows, when
    /// removed, restore feasibility is the binding one.
    fn diagnose_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Diagnosis {
        let (dfg, fabric) = (ctx.dfg, ctx.fabric);
        let space = PositionSpace::build(dfg, fabric, ii, WINDOW_IIS, Some(POSITION_CAP));
        if let Some(d) = diagnose_empty_space(ctx, &space, ii) {
            return d;
        }
        let (mut model, _) = self.encode(ctx, &space, ii, |(_, t)| t as f64);
        model.set_interrupt(ctx.budget.interrupt());
        let limits = Self::limits(ctx);
        match model.solve_with(limits) {
            IlpResult::Optimal { .. } => diagnose_unroutable(
                ctx,
                ii,
                CEGAR_ROUNDS,
                [
                    "the ILP relaxation is feasible",
                    "assignment",
                    "linear model",
                ],
            ),
            IlpResult::Budget { .. } => {
                diagnose_interrupted(ctx, ii, "hit its budget before a verdict")
            }
            IlpResult::Infeasible => {
                let groups = [
                    ResourceClass::Capability,
                    ResourceClass::SlotExclusive,
                    ResourceClass::Routing,
                ];
                let binding: Vec<ResourceClass> = groups
                    .into_iter()
                    .filter(|&c| {
                        matches!(
                            model.probe_without(tag(c), limits),
                            IlpResult::Optimal { .. }
                        )
                    })
                    .collect();
                let (class, detail) = match binding.first() {
                    Some(&c) => (
                        c,
                        format!(
                            "drop-group probe at II {ii}: removing the {c} rows \
                             restores feasibility"
                        ),
                    ),
                    None => (
                        ResourceClass::Capability,
                        format!(
                            "no single constraint group is individually binding at \
                             II {ii}; the conflict spans several resource classes"
                        ),
                    ),
                };
                let mut d = Diagnosis::new(class, ii, ctx.mii, detail);
                let core = if binding.is_empty() {
                    &groups[..]
                } else {
                    &binding
                };
                d.core = core.iter().map(|c| c.label().to_string()).collect();
                match class {
                    ResourceClass::Capability => {
                        // Ops whose candidate sets are the most starved.
                        let min = space.positions.iter().map(|ps| ps.len()).min().unwrap_or(0);
                        d.ops = cap_list(
                            space
                                .positions
                                .iter()
                                .enumerate()
                                .filter(|(_, ps)| ps.len() == min)
                                .map(|(o, _)| op_name(dfg, NodeId(o as u32)))
                                .collect(),
                        );
                    }
                    ResourceClass::SlotExclusive => {
                        // Cells whose (pe, slot) groups are the most
                        // oversubscribed, read off the model's own
                        // exclusivity constraints.
                        let mut groups: Vec<(PeId, usize)> = Vec::new();
                        placement_model(ctx, &space, ii, false, |c| {
                            if let Constraint::AtMostOne(pe, cands) = c {
                                groups.push((pe, cands.len()));
                            }
                        });
                        let peak = groups.iter().map(|g| g.1).max().unwrap_or(0);
                        let mut cells: Vec<PeId> = (groups.iter())
                            .filter(|g| g.1 == peak)
                            .map(|g| g.0)
                            .collect();
                        cells.sort_by_key(|pe| pe.0);
                        cells.dedup();
                        d.cells =
                            cap_list(cells.into_iter().map(|pe| cell_name(fabric, pe)).collect());
                    }
                    _ => {}
                }
                d
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::mappers::exact_common::tests::sweep_ii_is_the_smallest_pinned_ii;
    use crate::validate::validate;
    use cgra_arch::{Fabric, Topology};
    use cgra_ir::kernels;

    #[test]
    fn explain_attaches_diagnosis_and_drop_group_probe_is_deterministic() {
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        for pe in 1..4 {
            f.cells[pe].mul = false;
        }
        let dfg = kernels::fir(4);
        // II pinned below MII: analytic capability diagnosis.
        let cfg = MapConfig {
            max_ii: 1,
            explain: true,
            ..MapConfig::fast()
        };
        let err = IlpMapper.map(&dfg, &f, &cfg).unwrap_err();
        let d = err.diagnosis().expect("explain must attach a diagnosis");
        assert_eq!(d.class, ResourceClass::Capability);
        // The tagged-model probe itself, at a feasible-range II.
        let base = MapConfig::fast();
        let ctx = SweepCtx::open(&dfg, &f, &base).unwrap();
        let m = IlpMapper;
        let p1 = m.diagnose_ii(&ctx, 1);
        let p2 = m.diagnose_ii(&ctx, 1);
        assert_eq!(p1, p2, "probe must be deterministic");
        assert!(!p1.core.is_empty());
        assert_ne!(p1.class, ResourceClass::Register);
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
