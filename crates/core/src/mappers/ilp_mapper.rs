//! ILP mapping (architecture-agnostic formulation lineage — Chin &
//! Anderson DAC 2018, Guo et al. DAC 2021).
//!
//! Binary variables select one candidate `(pe, cycle)` position per
//! operation; linear constraints enforce the assignment, per-`(pe,
//! slot)` exclusivity, and per-edge reachability (an implication row
//! per producer position). The 0/1 branch-and-bound solver
//! ([`cgra_solver::IlpModel`]) proves optimality of the objective
//! (earliest schedule, shortest wires) within the candidate space; a
//! CEGAR loop handles register congestion the linear model cannot see.
//!
//! ## Incremental solving
//!
//! In incremental mode ([`MapConfig::incremental`]) the CEGAR loop
//! keeps one persistent model per II: each round appends a blocking row
//! and re-solves, warm-starting the root relaxation from the basis of
//! the placement that just failed to route — one row away. Between
//! `map()` calls the mapper parks its state in
//! [`MapConfig::incr`](crate::IncrementalCtx): completed per-II
//! infeasibility proofs (re-answered without a solve) and the achieved
//! II's model, root basis, and accepted assignment. A re-map of the
//! same kernel on the same fabric re-enters the solver with the old
//! optimum as a validated warm incumbent, turning the solve into a
//! bound-pruned optimality proof. From-scratch mode re-encodes the
//! model every CEGAR round and never touches the pool; both paths
//! explore the same candidate spaces and achieve identical IIs.

use super::exact_common::{add_solver_stats, edge_compatible, PositionSpace};
use super::sweep::{SweepCtx, TemporalSearch};
use crate::diagnosis::{cap_list, cell_name, op_name, Diagnosis, ResourceClass};
use crate::incremental::{kernel_fingerprint, IncrKey};
use crate::mapper::{Family, MapConfig, MapError};
use crate::mapping::Mapping;
use crate::telemetry::Counter;
use cgra_arch::PeId;
use cgra_ir::NodeId;
use cgra_solver::ilp::IlpConfig;
use cgra_solver::{Cmp, IlpModel, IlpResult, IlpVar, IlpWarmStart, IncumbentHook};
use std::collections::{BTreeMap, HashSet};
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

/// A solved II: the persistent model with every CEGAR blocking row,
/// the root basis of its last solve, and the accepted assignment.
struct IlpSolved {
    ii: u32,
    model: IlpModel,
    vars: Vec<Vec<IlpVar>>,
    warm: IlpWarmStart,
}

/// Row-tag taxonomy for infeasibility forensics: every constraint row
/// is stamped with the resource class it encodes, so the drop-group
/// probe ([`IlpModel::probe_without`]) can attribute an infeasible
/// model to the class whose removal restores feasibility.
const TAG_CAPABILITY: u32 = 1;
const TAG_SLOT: u32 = 2;
const TAG_ROUTE: u32 = 3;
const TAG_REGISTER: u32 = 4;

impl IlpMapper {
    /// Digest of every knob that shapes the encoding; part of the
    /// [`IncrKey`] so pooled state never outlives an encoding change.
    /// Covers the mapper's own encoding knobs *and* every semantically
    /// relevant [`MapConfig`] knob (seed, explain):
    /// in a serving context the pool outlives one CLI invocation, and
    /// state warmed under one config must never be replayed under a
    /// config that could search differently.
    fn knobs(&self, cfg: &MapConfig, min_ii: u32, max_ii: u32) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.position_cap.hash(&mut h);
        self.cegar_rounds.hash(&mut h);
        self.window_iis.hash(&mut h);
        (min_ii, max_ii).hash(&mut h);
        (cfg.seed, cfg.explain).hash(&mut h);
        h.finish()
    }
}

impl TemporalSearch for IlpMapper {
    const NAME: &'static str = "ilp";
    const FAMILY: Family = Family::ExactIlp;
    const EXHAUSTED: &'static str = "ILP infeasible for every II in {range} (candidate window)";
    /// The pooled proofs and solved model, with their pool key.
    type State = (IncrKey, Box<IlpPool>);

    fn prepare(&self, ctx: &SweepCtx<'_>) -> Self::State {
        let key = IncrKey {
            mapper: Self::NAME,
            fabric_fp: ctx.topo.fingerprint64(),
            kernel_fp: kernel_fingerprint(ctx.dfg),
            knobs: self.knobs(ctx.cfg, ctx.lo, ctx.hi),
        };
        let pool = if ctx.cfg.incremental {
            ctx.cfg.incr.take_as::<IlpPool>(&key).unwrap_or_default()
        } else {
            Box::default()
        };
        (key, pool)
    }

    fn try_ii(
        &self,
        ctx: &SweepCtx<'_>,
        (_, pool): &mut Self::State,
        ii: u32,
    ) -> Result<Option<Mapping>, MapError> {
        let (dfg, fabric, topo, budget) = (ctx.dfg, ctx.fabric, &*ctx.topo, &ctx.budget);
        let incremental = ctx.cfg.incremental;
        if incremental && pool.infeasible.contains(&ii) {
            return Ok(None); // answered from the pooled proof
        }
        let pooled = pool.solved.take_if(|s| s.ii == ii);
        let space = PositionSpace::build(dfg, fabric, ii, self.window_iis, Some(self.position_cap));
        if space.positions.iter().any(|ps| ps.is_empty()) {
            pool.infeasible.insert(ii);
            return Ok(None);
        }

        let hook = || {
            let led = ctx.cfg.ledger.clone();
            let tel = ctx.tele().clone();
            // Surface the solver's anytime incumbents (improving
            // integral solutions) straight into the run ledger.
            IncumbentHook::new(move |obj| {
                tel.bump(Counter::Incumbents);
                led.incumbent(Self::NAME, ii, obj);
            })
        };
        // Encode the assignment at this II: one binary per candidate
        // position, exactly-one per op, per-(pe, slot) exclusivity, and
        // per-edge reachability rows.
        let encode = || {
            let mut model = IlpModel::new(false); // minimise
            let vars: Vec<Vec<IlpVar>> = space
                .positions
                .iter()
                .map(|ps| {
                    ps.iter()
                        .map(|&(pe, t)| {
                            // Objective: early issue + central placement.
                            let (r, c) = fabric.coords(pe);
                            let centre = (r as i32 - fabric.rows as i32 / 2).abs()
                                + (c as i32 - fabric.cols as i32 / 2).abs();
                            model.add_var(t as f64 + centre as f64 * 0.1)
                        })
                        .collect()
                })
                .collect();

            model.set_row_tag(TAG_CAPABILITY);
            for ovars in &vars {
                model.exactly_one(ovars);
            }

            // BTreeMap: row order must not depend on the process hash
            // seed, or simplex pivot order (and with it the whole B&B
            // trajectory) varies run to run.
            model.set_row_tag(TAG_SLOT);
            let mut by_slot: BTreeMap<(PeId, u32), Vec<IlpVar>> = BTreeMap::new();
            for (o, ps) in space.positions.iter().enumerate() {
                for (k, &(pe, t)) in ps.iter().enumerate() {
                    by_slot.entry((pe, t % ii)).or_default().push(vars[o][k]);
                }
            }
            for slot_vars in by_slot.values() {
                if slot_vars.len() > 1 {
                    model.at_most_one(slot_vars);
                }
            }

            // Edge reachability: x_src_a ≤ Σ compatible x_dst_b.
            model.set_row_tag(TAG_ROUTE);
            for (_, e) in dfg.edges() {
                let src_op = dfg.op(e.src);
                for (ka, &a) in space.positions[e.src.index()].iter().enumerate() {
                    let mut row: Vec<(IlpVar, f64)> = vec![(vars[e.src.index()][ka], 1.0)];
                    for (kb, &b) in space.positions[e.dst.index()].iter().enumerate() {
                        if e.src == e.dst && ka != kb {
                            continue;
                        }
                        if edge_compatible(fabric, topo, ii, src_op, e.dist, a, b) {
                            row.push((vars[e.dst.index()][kb], -1.0));
                        }
                    }
                    model.add_constraint(&row, Cmp::Le, 0.0);
                }
            }
            model.set_row_tag(TAG_REGISTER);

            model.set_interrupt(budget.interrupt());
            model.set_on_incumbent(hook());
            (model, vars)
        };

        // Incremental mode keeps one persistent model: CEGAR rounds
        // append a blocking row and re-solve it, warm-started. A pooled
        // model from a previous map() call re-enters with its root
        // basis and the old optimum as a validated warm incumbent.
        // From-scratch mode re-encodes the whole model every round
        // (with all blocking rows re-added) — the baseline the
        // incremental path is measured against.
        let mut warm = IlpWarmStart::default();
        let mut persistent = match pooled {
            Some(s) if incremental && s.ii == ii => {
                let s = *s;
                let mut model = s.model;
                model.set_interrupt(budget.interrupt());
                model.set_on_incumbent(hook());
                warm = s.warm;
                Some((model, s.vars))
            }
            _ => incremental.then(&encode),
        };
        let mut blocked: Vec<Vec<(IlpVar, f64)>> = Vec::new();
        let mut proven = false;
        let result: Result<Option<(Mapping, Vec<bool>)>, MapError> = 'cegar: {
            for _ in 0..self.cegar_rounds.max(1) {
                if budget.expired_now() {
                    break 'cegar Err(budget.error());
                }
                let mut scratch = None;
                let from_scratch = persistent.is_none();
                let (model, vars) = match persistent.as_mut() {
                    Some(mv) => mv,
                    None => {
                        let mv = scratch.insert(encode());
                        for row in &blocked {
                            mv.0.add_constraint(row, Cmp::Le, row.len() as f64 - 1.0);
                        }
                        mv
                    }
                };
                let (result, basis) = model.solve_warm(
                    cgra_solver::ilp::IlpConfig {
                        time_limit: budget.remaining().unwrap_or(Duration::MAX),
                        node_limit: 4_000,
                        warm_lp: incremental,
                    },
                    Some(&warm),
                );
                warm.basis = basis;
                // A warm incumbent is only valid for the solve it was
                // recorded against; the blocking row below cuts it off.
                warm.incumbent = None;
                if from_scratch {
                    // A from-scratch round's model dies with the round;
                    // record its work now. (The persistent model keeps
                    // accumulating and is flushed once, below.)
                    add_solver_stats(ctx.tele(), model.stats());
                }
                let values = match result {
                    IlpResult::Optimal { values, .. } => values,
                    IlpResult::Infeasible => {
                        proven = true;
                        break 'cegar Ok(None);
                    }
                    IlpResult::Budget {
                        values: Some(v), ..
                    } => v,
                    IlpResult::Budget { values: None, .. } => break 'cegar Err(budget.error()),
                };
                // Decode.
                let mut chosen: Vec<(PeId, u32)> = Vec::with_capacity(dfg.node_count());
                let mut var_index = 0usize;
                let mut complete = true;
                for ps in &space.positions {
                    let mut pick = None;
                    for (k, &pos) in ps.iter().enumerate() {
                        if values[var_index + k] {
                            pick = Some(pos);
                        }
                    }
                    var_index += ps.len();
                    match pick {
                        Some(p) => chosen.push(p),
                        None => complete = false, // should not happen
                    }
                }
                if !complete {
                    break 'cegar Ok(None);
                }
                if let Some(m) = ctx.route(ii, chosen.iter().copied()) {
                    break 'cegar Ok(Some((m, values)));
                }
                // Block this exact placement (sum of its choices ≤ n-1).
                // Incremental: appended to the live model. From-scratch:
                // remembered and re-added to the next round's rebuild.
                let mut row: Vec<(IlpVar, f64)> = Vec::new();
                for (o, &pos) in chosen.iter().enumerate() {
                    if let Some(k) = space.positions[o].iter().position(|&p| p == pos) {
                        row.push((vars[o][k], 1.0));
                    }
                }
                model.add_constraint(&row, Cmp::Le, row.len() as f64 - 1.0);
                blocked.push(row);
            }
            Ok(None)
        };
        if let Some((model, _)) = &persistent {
            add_solver_stats(ctx.tele(), model.stats());
        }
        let Some((m, values)) = result? else {
            // Only a completed refutation is cached; a CEGAR round cap
            // is not a proof.
            if proven {
                pool.infeasible.insert(ii);
            }
            return Ok(None);
        };
        // Pool the incumbent but NOT the basis: a replayed basis
        // can land the root relaxation on a different optimal
        // vertex, which reorders the branching and (measured)
        // can blow the tree up by orders of magnitude. A cold
        // root keeps the re-map trajectory identical to the
        // from-scratch one, and the incumbent then prunes it to
        // a subset.
        pool.solved = persistent.map(|(model, vars)| {
            Box::new(IlpSolved {
                ii,
                model,
                vars,
                warm: IlpWarmStart {
                    basis: None,
                    incumbent: Some(values),
                },
            })
        });
        Ok(Some(m))
    }

    /// Completed proofs stay valid whatever ended the sweep.
    fn park(&self, ctx: &SweepCtx<'_>, (key, pool): Self::State) {
        if ctx.cfg.incremental {
            ctx.cfg.incr.put(key, pool);
        }
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
        let (dfg, fabric, topo, budget, mii) =
            (ctx.dfg, ctx.fabric, &*ctx.topo, &ctx.budget, ctx.mii);
        let space = PositionSpace::build(dfg, fabric, ii, self.window_iis, Some(self.position_cap));
        if let Some(o) = space.positions.iter().position(|ps| ps.is_empty()) {
            let n = NodeId(o as u32);
            let mut d = Diagnosis::new(
                ResourceClass::Capability,
                ii,
                mii,
                format!(
                    "{} has no candidate position at II {ii}: \
                     no capable cell inside the placement window",
                    op_name(dfg, n)
                ),
            );
            d.ops = vec![op_name(dfg, n)];
            return d;
        }
        let mut model = IlpModel::new(false);
        let vars: Vec<Vec<IlpVar>> = space
            .positions
            .iter()
            .map(|ps| ps.iter().map(|&(_, t)| model.add_var(t as f64)).collect())
            .collect();
        model.set_row_tag(TAG_CAPABILITY);
        for ovars in &vars {
            model.exactly_one(ovars);
        }
        model.set_row_tag(TAG_SLOT);
        let mut by_slot: BTreeMap<(PeId, u32), Vec<IlpVar>> = BTreeMap::new();
        for (o, ps) in space.positions.iter().enumerate() {
            for (k, &(pe, t)) in ps.iter().enumerate() {
                by_slot.entry((pe, t % ii)).or_default().push(vars[o][k]);
            }
        }
        for slot_vars in by_slot.values() {
            if slot_vars.len() > 1 {
                model.at_most_one(slot_vars);
            }
        }
        model.set_row_tag(TAG_ROUTE);
        for (_, e) in dfg.edges() {
            let src_op = dfg.op(e.src);
            for (ka, &a) in space.positions[e.src.index()].iter().enumerate() {
                let mut row: Vec<(IlpVar, f64)> = vec![(vars[e.src.index()][ka], 1.0)];
                for (kb, &b) in space.positions[e.dst.index()].iter().enumerate() {
                    if e.src == e.dst && ka != kb {
                        continue;
                    }
                    if edge_compatible(fabric, topo, ii, src_op, e.dist, a, b) {
                        row.push((vars[e.dst.index()][kb], -1.0));
                    }
                }
                model.add_constraint(&row, Cmp::Le, 0.0);
            }
        }
        model.set_interrupt(budget.interrupt());
        let ilp_cfg = IlpConfig {
            time_limit: budget.remaining().unwrap_or(Duration::MAX),
            node_limit: 4_000,
            warm_lp: false,
        };
        match model.solve_with(ilp_cfg) {
            IlpResult::Optimal { .. } => {
                let mut d = Diagnosis::new(
                    ResourceClass::Register,
                    ii,
                    mii,
                    format!(
                        "the ILP relaxation is feasible at II {ii}; every assignment \
                         failed route realisation within {} CEGAR rounds \
                         (register/congestion pressure the linear model cannot see)",
                        self.cegar_rounds.max(1)
                    ),
                );
                d.core = vec!["register".into()];
                d
            }
            IlpResult::Budget { .. } => Diagnosis::new(
                ResourceClass::Routing,
                ii,
                mii,
                format!("diagnostic probe at II {ii} hit its budget before a verdict"),
            ),
            IlpResult::Infeasible => {
                let groups = [
                    (TAG_CAPABILITY, ResourceClass::Capability),
                    (TAG_SLOT, ResourceClass::SlotExclusive),
                    (TAG_ROUTE, ResourceClass::Routing),
                ];
                let binding: Vec<ResourceClass> = groups
                    .iter()
                    .filter(|(tag, _)| {
                        matches!(
                            model.probe_without(*tag, ilp_cfg),
                            IlpResult::Optimal { .. }
                        )
                    })
                    .map(|&(_, class)| class)
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
                let mut d = Diagnosis::new(class, ii, mii, detail);
                d.core = if binding.is_empty() {
                    groups.iter().map(|(_, c)| c.label().to_string()).collect()
                } else {
                    binding.iter().map(|c| c.label().to_string()).collect()
                };
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
                        // oversubscribed.
                        let peak = by_slot.values().map(Vec::len).max().unwrap_or(0);
                        let mut cells: Vec<PeId> = by_slot
                            .iter()
                            .filter(|(_, v)| v.len() == peak)
                            .map(|(&(pe, _), _)| pe)
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
    use crate::mapper::Mapper;
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
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        for dfg in [kernels::dot_product(), kernels::accumulate()] {
            let warm = IlpMapper::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap();
            let cold_cfg = MapConfig {
                incremental: false,
                ..MapConfig::fast()
            };
            let cold = IlpMapper::default().map(&dfg, &f, &cold_cfg).unwrap();
            assert_eq!(warm.ii, cold.ii, "{} diverged", dfg.name);
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
        let m = IlpMapper::default();
        let base = MapConfig::default();
        let base_knobs = m.knobs(&base, 1, 4);
        let mut v = MapConfig::default();
        v.seed += 1;
        assert_ne!(m.knobs(&v, 1, 4), base_knobs, "seed");
        let mut v = MapConfig::default();
        v.explain = !v.explain;
        assert_ne!(m.knobs(&v, 1, 4), base_knobs, "explain");
        assert_ne!(m.knobs(&base, 1, 5), base_knobs, "ii range");
        assert_eq!(
            m.knobs(&MapConfig::default(), 1, 4),
            base_knobs,
            "deterministic"
        );
    }
}
