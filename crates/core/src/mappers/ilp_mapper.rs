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
//! row and re-solves. Between `map()` calls the mapper parks its state
//! in [`MapConfig::incr`](crate::MapConfig::incr) ([`pool_key`]):
//! completed per-II infeasibility proofs (re-answered without a solve)
//! and the achieved II's model with its accepted assignment. A re-map
//! of the same kernel on the same fabric re-enters the solver with the
//! old optimum as a validated warm incumbent, turning the solve into a
//! bound-pruned optimality proof over a subset of the first solve's
//! tree.

use super::exact_common::{
    add_solver_stats, cegar, diagnose_empty_space, diagnose_interrupted, diagnose_unroutable,
    placement_model, pool_key, Cand, Cegar, CegarBackend, Constraint, Pos, PositionSpace,
};
use super::sweep::{SweepCtx, TemporalSearch};
use crate::diagnosis::{cap_list, cell_name, op_name, Diagnosis, ResourceClass};
use crate::incremental::IncrKey;
use crate::mapper::{Family, MapError};
use crate::mapping::Mapping;
use cgra_arch::PeId;
use cgra_ir::NodeId;
use cgra_solver::ilp::IlpConfig;
use cgra_solver::{Cmp, IlpModel, IlpResult, IlpVar, IlpWarmStart, IncumbentHook};
use std::collections::HashSet;
use std::time::Duration;

/// The ILP mapper.
#[derive(Debug, Clone)]
pub struct IlpMapper {
    /// Candidate positions per op (keeps the dense simplex tractable).
    pub position_cap: usize,
    pub cegar_rounds: u32,
    pub window_iis: u32,
}

impl Default for IlpMapper {
    fn default() -> Self {
        IlpMapper {
            position_cap: 12,
            cegar_rounds: 8,
            window_iis: 1,
        }
    }
}

/// Solver state pooled across `map()` calls (see
/// [`crate::IncrementalCtx`]).
#[derive(Default)]
pub(crate) struct IlpPool {
    /// IIs with a *completed* infeasibility proof — an empty candidate
    /// space or an exhausted branch-and-bound refutation. Budget stops
    /// and CEGAR round caps are never cached.
    infeasible: HashSet<u32>,
    /// The achieved II's solver state, re-entered warm on a re-map.
    solved: Option<Box<IlpSolved>>,
}

/// One II's solver state: the model with every CEGAR blocking row so
/// far and, once solved, the accepted assignment as the next solve's
/// warm incumbent.
struct IlpSolved {
    ii: u32,
    model: IlpModel,
    vars: Vec<Vec<IlpVar>>,
    warm: IlpWarmStart,
}

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
    st: Box<IlpSolved>,
    /// The assignment behind the choice `solve` returned last.
    values: Vec<bool>,
}

impl CegarBackend for Rounds<'_> {
    fn solve(&mut self, _round: u32) -> Result<Option<Vec<usize>>, MapError> {
        let st = &mut self.st;
        let result = (st.model).solve_warm(IlpMapper::limits(self.ctx), Some(&st.warm));
        // A warm incumbent is only valid for the solve it was recorded
        // against; the next blocking row cuts it off.
        st.warm.incumbent = None;
        self.values = match result {
            IlpResult::Optimal { values, .. } => values,
            IlpResult::Infeasible => return Ok(None),
            // Out of nodes with an incumbent in hand: route that.
            IlpResult::Budget {
                values: Some(v), ..
            } => v,
            IlpResult::Budget { values: None, .. } => return Err(self.ctx.budget.error()),
        };
        let chosen = |vars: &Vec<IlpVar>| {
            (vars.iter().position(|v| self.values[v.0]))
                .expect("the assignment row guarantees a choice")
        };
        Ok(Some(st.vars.iter().map(chosen).collect()))
    }

    /// Sum of the placement's choices ≤ n − 1.
    fn block(&mut self, choice: &[usize]) {
        let row: Vec<(IlpVar, f64)> = (self.st.vars.iter().zip(choice))
            .map(|(vars, &k)| (vars[k], 1.0))
            .collect();
        let most = row.len() as f64 - 1.0;
        self.st.model.add_constraint(&row, Cmp::Le, most);
    }
}

impl IlpMapper {
    /// The pool key of a sweep over `lo..=hi`.
    fn key(&self, ctx: &SweepCtx<'_>, lo: u32, hi: u32) -> IncrKey {
        let encoding = (self.position_cap, self.cegar_rounds, self.window_iis);
        pool_key(ctx, Self::NAME, encoding, (lo, hi))
    }

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
    const EXHAUSTED: &'static str = "ILP infeasible for every II in {range} (candidate window)";
    /// The pooled proofs and solved model, with their pool key.
    type State = (IncrKey, Box<IlpPool>);

    fn prepare(&self, ctx: &SweepCtx<'_>) -> Self::State {
        let key = self.key(ctx, ctx.lo, ctx.hi);
        let pool = ctx.cfg.incr.take_as::<IlpPool>(&key).unwrap_or_default();
        (key, pool)
    }

    fn try_ii(
        &self,
        ctx: &SweepCtx<'_>,
        (_, pool): &mut Self::State,
        ii: u32,
    ) -> Result<Option<Mapping>, MapError> {
        let (dfg, fabric) = (ctx.dfg, ctx.fabric);
        if pool.infeasible.contains(&ii) {
            return Ok(None); // answered from the pooled proof
        }
        let pooled = pool.solved.take_if(|s| s.ii == ii);
        let space = PositionSpace::build(dfg, fabric, ii, self.window_iis, Some(self.position_cap));
        if space.positions.iter().any(|ps| ps.is_empty()) {
            pool.infeasible.insert(ii);
            return Ok(None);
        }
        // A pooled model from a previous map() call re-enters with the
        // old optimum as a validated warm incumbent.
        let mut st = pooled.unwrap_or_else(|| {
            // Objective: early issue + central placement.
            let (model, vars) = self.encode(ctx, &space, ii, |(pe, t)| {
                let (r, c) = fabric.coords(pe);
                let centre = (r as i32 - fabric.rows as i32 / 2).abs()
                    + (c as i32 - fabric.cols as i32 / 2).abs();
                t as f64 + centre as f64 * 0.1
            });
            let warm = IlpWarmStart::default();
            Box::new(IlpSolved {
                ii,
                model,
                vars,
                warm,
            })
        });
        st.model.set_interrupt(ctx.budget.interrupt());
        let tel = ctx.tele().clone();
        // Surface the solver's anytime incumbents (improving integral
        // solutions) straight into the run's journal.
        st.model.set_on_incumbent(IncumbentHook::new(move |obj| {
            tel.incumbent(Self::NAME, ii, obj);
        }));
        let mut rounds = Rounds {
            ctx,
            st,
            values: Vec::new(),
        };
        let out = cegar(ctx, &space, ii, self.cegar_rounds, &mut rounds);
        add_solver_stats(ctx.tele(), rounds.st.model.stats());
        match out? {
            Cegar::Mapped(m) => {
                // Seeded with this optimum, a re-map prunes by bound from
                // its first node and walks a subset of this solve's tree.
                rounds.st.warm.incumbent = Some(rounds.values);
                pool.solved = Some(rounds.st);
                Ok(Some(m))
            }
            // Only a completed refutation is cached; a CEGAR round cap
            // is not a proof.
            Cegar::Refuted => {
                pool.infeasible.insert(ii);
                Ok(None)
            }
            Cegar::GaveUp => Ok(None),
        }
    }

    /// Completed proofs stay valid whatever ended the sweep.
    fn park(&self, ctx: &SweepCtx<'_>, (key, pool): Self::State) {
        ctx.cfg.incr.put(key, pool);
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
        let space = PositionSpace::build(dfg, fabric, ii, self.window_iis, Some(self.position_cap));
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
                self.cegar_rounds,
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
        let err = IlpMapper::default().map(&dfg, &f, &cfg).unwrap_err();
        let d = err.diagnosis().expect("explain must attach a diagnosis");
        assert_eq!(d.class, ResourceClass::Capability);
        // The tagged-model probe itself, at a feasible-range II.
        let base = MapConfig::fast();
        let ctx = SweepCtx::open(&dfg, &f, &base).unwrap();
        let m = IlpMapper::default();
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
            let m = IlpMapper::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn warm_and_cold_ilp_mapper_agree_on_ii() {
        // A sweep, and a re-map through the pool it warmed (cached
        // refutations, warm incumbent), must both land where cold
        // single-II solves do.
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        let kernels = [
            kernels::dot_product(),
            kernels::accumulate(),
            kernels::iir1(),
            kernels::sad(),
        ];
        for dfg in kernels {
            let mapper = IlpMapper::default();
            sweep_ii_is_the_smallest_pinned_ii(&mapper, &dfg, &f);
            let cfg = MapConfig::fast();
            let first = mapper.map(&dfg, &f, &cfg).unwrap();
            let warm = mapper.map(&dfg, &f, &cfg).unwrap();
            assert_eq!(warm.ii, first.ii, "{} re-map diverged", dfg.name);
        }
    }

    #[test]
    fn remap_reuses_pooled_state_and_agrees_on_ii() {
        // A second map() with the same config must answer from the
        // pooled model (warm incumbent + cached proofs) and land on the
        // same II as the first.
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        let cfg = MapConfig::fast();
        let dfg = kernels::dot_product();
        let mapper = IlpMapper::default();
        let first = mapper.map(&dfg, &f, &cfg).unwrap();
        assert!(!cfg.incr.is_empty(), "success must park pooled state");
        let second = mapper.map(&dfg, &f, &cfg).unwrap();
        assert_eq!(first.ii, second.ii);
        validate(&second, &dfg, &f).unwrap();
        assert!(!cfg.incr.is_empty(), "remap must re-park pooled state");
    }

    #[test]
    fn ilp_objective_prefers_early_schedules() {
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        let dfg = kernels::accumulate();
        let m = IlpMapper::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        // Minimising Σt keeps the 3-op chain tight.
        assert!(m.schedule_len(&dfg, &f) <= 6);
    }
    #[test]
    fn knobs_cover_every_config_knob() {
        // The IncrKey digest must separate configs that can search
        // differently — otherwise pooled solver state warmed under one
        // config is replayed under another (a serve-cache alias bug).
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        let dfg = kernels::dot_product();
        let m = IlpMapper::default();
        let knobs =
            |cfg: &MapConfig, hi: u32| m.key(&SweepCtx::open(&dfg, &f, cfg).unwrap(), 1, hi).knobs;
        let base = MapConfig::default();
        let base_knobs = knobs(&base, 4);
        let mut v = MapConfig::default();
        v.seed += 1;
        assert_ne!(knobs(&v, 4), base_knobs, "seed");
        let mut v = MapConfig::default();
        v.explain = !v.explain;
        assert_ne!(knobs(&v, 4), base_knobs, "explain");
        assert_ne!(knobs(&base, 5), base_knobs, "ii range");
        assert_eq!(knobs(&MapConfig::default(), 4), base_knobs, "deterministic");
    }
}
