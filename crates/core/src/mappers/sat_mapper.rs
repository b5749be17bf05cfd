//! SAT-based mapping (Miyasaka et al., VLSI-SoC 2021).
//!
//! The mapping at a fixed II is encoded in CNF over "operation `o`
//! sits at position `p`" variables: exactly-one per operation,
//! at-most-one per `(pe, modulo slot)`, and per-edge implication
//! clauses restricting consumers to hop-reachable positions. The CDCL
//! solver ([`cgra_solver::SatSolver`]) finds a model; routing is then
//! materialised, and a routing failure (register congestion the
//! encoding cannot see) blocks that exact placement with a no-good
//! clause and re-solves — a CEGAR loop.
//!
//! ## Incremental II sweep
//!
//! With `MapConfig::incremental` (the default) the bottom-up sweep uses
//! *one* persistent solver per [`SWEEP_CHUNK`]-sized run of adjacent
//! candidate IIs instead of a fresh encoding per II (chunking keeps the
//! union encoding proportional to the IIs actually visited — a kernel
//! feasible at `min_ii` never pays for the tail of the sweep). Within a
//! chunk, variables range over the union of its IIs' candidate spaces
//! ([`SweepSpace`]), built once per chunk; each II's constraints are
//! encoded lazily under a per-II selector literal and activated by
//! [`SatSolver::solve_with_assumptions`]. A refuted II retires its
//! selector permanently, CEGAR no-goods accumulate under the selector
//! of the II they belong to, and variable activities and saved phases
//! carry from the II=k refutation into the II=k+1 search. The solver is
//! parked in [`MapConfig::incr`](crate::IncrementalCtx) between calls,
//! keyed by fabric fingerprint, kernel fingerprint, and the encoding
//! knobs, so re-mapping the same kernel resumes with every layer
//! already encoded, every learnt clause intact, and refuted IIs
//! answered without a solve. Each II's own candidate list inside the
//! union is exactly the from-scratch [`PositionSpace`], so both paths
//! see the same feasible set per II and achieve identical IIs.

use super::exact_common::{add_solver_stats, edge_compatible, PositionSpace, SweepSpace};
use super::sweep::{SweepCtx, TemporalSearch};
use crate::diagnosis::{cap_list, cell_name, op_name, Diagnosis, ResourceClass};
use crate::incremental::{kernel_fingerprint, IncrKey};
use crate::mapper::{Family, MapConfig, MapError};
use crate::mapping::Mapping;
use cgra_arch::{Fabric, PeId, TopologyCache};
use cgra_ir::{Dfg, NodeId};
use cgra_solver::cnf::{at_most_one, exactly_one, AmoEncoding};
use cgra_solver::{Interrupt, Lit, SatResult, SatSolver};
use std::collections::{BTreeMap, HashSet};

/// The SAT mapper.
#[derive(Debug, Clone)]
pub struct SatMapper {
    /// At-most-one encoding (ablation: pairwise vs sequential).
    pub amo: AmoEncoding,
    /// CEGAR rounds (placements tried per II).
    pub cegar_rounds: u32,
    /// Candidate positions per op (None = full window).
    pub position_cap: Option<usize>,
    pub window_iis: u32,
}

impl Default for SatMapper {
    fn default() -> Self {
        SatMapper {
            amo: AmoEncoding::Pairwise,
            cegar_rounds: 40,
            position_cap: Some(48),
            window_iis: 2,
        }
    }
}

/// Adjacent IIs share one persistent solver in runs of this size. The
/// chunk bounds the union encoding (and the structural exactly-one)
/// while still letting learnt clauses from the II=k refutation prune
/// II=k+1; sweeps that exhaust a chunk roll into the next one cold.
const SWEEP_CHUNK: usize = 4;

/// Reusable cross-II solver state for the incremental sweep: one CDCL
/// instance holding the union-space structural encoding, the per-II
/// selector-guarded layers encoded so far, and every learnt clause.
pub(crate) struct SweepState {
    solver: SatSolver,
    space: SweepSpace,
    /// `vars[op][u]` ⇔ "op sits at union position `u`".
    vars: Vec<Vec<Lit>>,
    /// One selector literal per candidate II, assumption-activated.
    sels: Vec<Lit>,
    /// Which II layers have been encoded into the solver.
    encoded: Vec<bool>,
    /// IIs proven UNSAT (their selector has been retired).
    infeasible: Vec<bool>,
}

impl SatMapper {
    /// Digest of every knob that shapes the incremental encoding; part
    /// of the [`IncrKey`] so state never outlives an encoding change.
    /// Covers the mapper's own encoding knobs *and* every semantically
    /// relevant [`MapConfig`] knob (seed, explain):
    /// in a serving context the pool outlives one CLI invocation, and
    /// state warmed under one config must never be replayed under a
    /// config that could search differently.
    fn knobs(&self, cfg: &MapConfig, min_ii: u32, max_ii: u32) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}", self.amo).hash(&mut h);
        self.cegar_rounds.hash(&mut h);
        self.position_cap.hash(&mut h);
        self.window_iis.hash(&mut h);
        (min_ii, max_ii).hash(&mut h);
        (cfg.seed, cfg.explain).hash(&mut h);
        h.finish()
    }

    /// Cold-start a sweep state: variables over the union of the
    /// chunk's candidate spaces, one selector per II. All constraints —
    /// including each II's exactly-one — live in the guarded per-II
    /// layers ([`Self::encode_layer`]), so an II the sweep never reaches
    /// costs nothing beyond its share of (unconstrained) variables.
    fn build_state(&self, dfg: &Dfg, fabric: &Fabric, iis: &[u32]) -> SweepState {
        let space = SweepSpace::build(dfg, fabric, iis, self.window_iis, self.position_cap);
        let mut solver = SatSolver::new();
        let vars: Vec<Vec<Lit>> = space
            .union
            .iter()
            .map(|ps| ps.iter().map(|_| Lit::pos(solver.new_var())).collect())
            .collect();
        let sels: Vec<Lit> = iis.iter().map(|_| solver.new_selector()).collect();
        SweepState {
            solver,
            space,
            vars,
            sels,
            encoded: vec![false; iis.len()],
            infeasible: vec![false; iis.len()],
        }
    }

    /// Encode II layer `k` under its selector: union positions outside
    /// this II's window are forbidden, plus FU exclusivity per modulo
    /// slot and per-edge reachability over this II's candidates.
    fn encode_layer(
        &self,
        st: &mut SweepState,
        k: usize,
        dfg: &Dfg,
        fabric: &Fabric,
        topo: &TopologyCache,
    ) {
        let ii = st.space.iis[k];
        let sel = st.sels[k];
        for (op, members) in st.space.member[k].iter().enumerate() {
            let mut keep = vec![false; st.space.union[op].len()];
            for &u in members {
                keep[u] = true;
            }
            // Union positions outside this II's window are forbidden,
            // so under this selector the variable space collapses to
            // exactly the from-scratch per-II candidate lists.
            for (u, keep) in keep.iter().enumerate() {
                if !keep {
                    st.solver.add_clause_under(sel, &[st.vars[op][u].negate()]);
                }
            }
            // Exactly one of this II's candidates per op: at-least-one
            // over the members, at-most-one pairwise (the guarded twin
            // of the from-scratch default encoding).
            let lits: Vec<Lit> = members.iter().map(|&u| st.vars[op][u]).collect();
            st.solver.add_clause_under(sel, &lits);
            for i in 0..lits.len() {
                for j in i + 1..lits.len() {
                    st.solver
                        .add_clause_under(sel, &[lits[i].negate(), lits[j].negate()]);
                }
            }
        }
        // FU exclusivity: at most one op per (pe, slot), pairwise under
        // the guard (each II's slot lists are position-cap sized, the
        // same as the from-scratch pairwise encoding).
        let mut by_slot: BTreeMap<(PeId, u32), Vec<Lit>> = BTreeMap::new();
        for (op, members) in st.space.member[k].iter().enumerate() {
            for &u in members {
                let (pe, t) = st.space.union[op][u];
                by_slot
                    .entry((pe, t % ii))
                    .or_default()
                    .push(st.vars[op][u]);
            }
        }
        for lits in by_slot.values() {
            for i in 0..lits.len() {
                for j in i + 1..lits.len() {
                    st.solver
                        .add_clause_under(sel, &[lits[i].negate(), lits[j].negate()]);
                }
            }
        }
        // Edge implications: src at a → dst somewhere compatible.
        for (_, e) in dfg.edges() {
            let src_op = dfg.op(e.src);
            for &ua in &st.space.member[k][e.src.index()] {
                let a = st.space.union[e.src.index()][ua];
                let mut clause: Vec<Lit> = vec![st.vars[e.src.index()][ua].negate()];
                for &ub in &st.space.member[k][e.dst.index()] {
                    if e.src == e.dst && ua != ub {
                        continue; // self edge: same position both sides
                    }
                    let b = st.space.union[e.dst.index()][ub];
                    if edge_compatible(fabric, topo, ii, src_op, e.dist, a, b) {
                        clause.push(st.vars[e.dst.index()][ub]);
                    }
                }
                st.solver.add_clause_under(sel, &clause);
            }
        }
    }

    /// One II attempt on the persistent solver: solve under this II's
    /// selector, realise models, block routing failures under the same
    /// selector (a no-good at II=k says nothing about II=k+1).
    fn try_ii_incremental(
        &self,
        ctx: &SweepCtx<'_>,
        st: &mut SweepState,
        k: usize,
    ) -> Result<Option<Mapping>, MapError> {
        let (dfg, fabric, topo, budget) = (ctx.dfg, ctx.fabric, &*ctx.topo, &ctx.budget);
        let ii = st.space.iis[k];
        if st.infeasible[k] {
            return Ok(None);
        }
        if st.space.member[k].iter().any(|m| m.is_empty()) {
            st.infeasible[k] = true;
            return Ok(None);
        }
        let before = st.solver.stats();
        if !st.encoded[k] {
            self.encode_layer(st, k, dfg, fabric, topo);
            st.encoded[k] = true;
        }
        let sel = st.sels[k];
        let result: Result<Option<Mapping>, MapError> = 'cegar: {
            for round in 0..self.cegar_rounds.max(1) {
                if budget.expired_now() {
                    break 'cegar Err(budget.error());
                }
                match st.solver.solve_with_assumptions(&[sel]) {
                    SatResult::Unsat => {
                        st.solver.retire_selector(sel);
                        st.infeasible[k] = true;
                        break 'cegar Ok(None);
                    }
                    SatResult::Unknown => break 'cegar Err(budget.error()),
                    SatResult::Sat(model) => {
                        ctx.incumbent(Self::NAME, ii, round as f64);
                        let chosen: Vec<(PeId, u32)> = st.space.member[k]
                            .iter()
                            .enumerate()
                            .map(|(op, members)| {
                                let u = members
                                    .iter()
                                    .copied()
                                    .find(|&u| model[st.vars[op][u].var().0 as usize])
                                    .expect("exactly-one guarantees a member choice");
                                st.space.union[op][u]
                            })
                            .collect();
                        if let Some(m) = ctx.route(ii, chosen.iter().copied()) {
                            break 'cegar Ok(Some(m));
                        }
                        // Block this exact placement at this II only.
                        let blocking: Vec<Lit> = st.space.member[k]
                            .iter()
                            .enumerate()
                            .map(|(op, members)| {
                                let u = members
                                    .iter()
                                    .copied()
                                    .find(|&u| st.space.union[op][u] == chosen[op])
                                    .unwrap();
                                st.vars[op][u].negate()
                            })
                            .collect();
                        st.solver.add_clause_under(sel, &blocking);
                    }
                }
            }
            Ok(None)
        };
        add_solver_stats(ctx.tele(), st.solver.stats().since(&before));
        result
    }

    /// Make the chunk holding `ii` the live one: park the previous
    /// chunk's solver, then take this chunk's from the pool or build it
    /// cold. Chunks are [`SWEEP_CHUNK`]-sized runs counted from `ctx.lo`.
    fn enter_chunk<'s>(
        &self,
        ctx: &SweepCtx<'_>,
        live: &'s mut Option<(IncrKey, Box<SweepState>)>,
        ii: u32,
    ) -> &'s mut SweepState {
        let chunk = SWEEP_CHUNK as u32;
        let first = ii - (ii - ctx.lo) % chunk;
        if live.as_ref().is_none_or(|(_, st)| st.space.iis[0] != first) {
            self.park(ctx, live.take());
            let iis: Vec<u32> = (first..=ctx.hi.min(first + chunk - 1)).collect();
            let key = IncrKey {
                mapper: Self::NAME,
                fabric_fp: ctx.topo.fingerprint64(),
                kernel_fp: kernel_fingerprint(ctx.dfg),
                knobs: self.knobs(ctx.cfg, first, first + iis.len() as u32 - 1),
            };
            let mut st = (ctx.cfg.incr.take_as::<SweepState>(&key))
                .unwrap_or_else(|| Box::new(self.build_state(ctx.dfg, ctx.fabric, &iis)));
            st.solver.interrupt = ctx.budget.interrupt();
            *live = Some((key, st));
        }
        &mut live.as_mut().expect("a chunk was just made live").1
    }

    /// One II attempt on a from-scratch encoding — the reference path
    /// selected by `cfg.incremental == false`.
    fn try_ii_scratch(&self, ctx: &SweepCtx<'_>, ii: u32) -> Result<Option<Mapping>, MapError> {
        let (dfg, fabric, topo, budget) = (ctx.dfg, ctx.fabric, &*ctx.topo, &ctx.budget);
        let space = PositionSpace::build(dfg, fabric, ii, self.window_iis, self.position_cap);
        let mut solver = SatSolver::new();
        solver.interrupt = budget.interrupt();

        // Variables.
        let vars: Vec<Vec<Lit>> = space
            .positions
            .iter()
            .map(|ps| ps.iter().map(|_| Lit::pos(solver.new_var())).collect())
            .collect();

        // Exactly one position per op.
        for ovars in &vars {
            if ovars.is_empty() {
                return Ok(None);
            }
            exactly_one(&mut solver, ovars, self.amo);
        }

        // FU exclusivity: at most one op per (pe, slot).
        let mut by_slot: BTreeMap<(PeId, u32), Vec<Lit>> = BTreeMap::new();
        for (o, ps) in space.positions.iter().enumerate() {
            for (k, &(pe, t)) in ps.iter().enumerate() {
                by_slot.entry((pe, t % ii)).or_default().push(vars[o][k]);
            }
        }
        for lits in by_slot.values() {
            if lits.len() > 1 {
                at_most_one(&mut solver, lits, self.amo);
            }
        }

        // Edge implications: src at a → dst somewhere compatible.
        for (_, e) in dfg.edges() {
            let src_op = dfg.op(e.src);
            for (ka, &a) in space.positions[e.src.index()].iter().enumerate() {
                let mut clause: Vec<Lit> = vec![vars[e.src.index()][ka].negate()];
                for (kb, &b) in space.positions[e.dst.index()].iter().enumerate() {
                    if e.src == e.dst && ka != kb {
                        continue; // self edge: same position both sides
                    }
                    if edge_compatible(fabric, topo, ii, src_op, e.dist, a, b) {
                        clause.push(vars[e.dst.index()][kb]);
                    }
                }
                solver.add_clause(&clause);
            }
        }

        // CEGAR: solve, route, block, repeat.
        let result: Result<Option<Mapping>, MapError> = 'cegar: {
            for round in 0..self.cegar_rounds.max(1) {
                if budget.expired_now() {
                    break 'cegar Err(budget.error());
                }
                match solver.solve() {
                    SatResult::Unsat => break 'cegar Ok(None),
                    SatResult::Unknown => break 'cegar Err(budget.error()),
                    SatResult::Sat(model) => {
                        // Each model is an anytime incumbent placement;
                        // cost = CEGAR rounds spent reaching it.
                        ctx.incumbent(Self::NAME, ii, round as f64);
                        let chosen: Vec<(PeId, u32)> = space
                            .positions
                            .iter()
                            .enumerate()
                            .map(|(o, ps)| {
                                let k = ps
                                    .iter()
                                    .enumerate()
                                    .position(|(k, _)| model[vars[o][k].var().0 as usize])
                                    .expect("exactly-one guarantees a choice");
                                ps[k]
                            })
                            .collect();
                        if let Some(m) = ctx.route(ii, chosen.iter().copied()) {
                            break 'cegar Ok(Some(m));
                        }
                        // Block this exact placement.
                        let blocking: Vec<Lit> = space
                            .positions
                            .iter()
                            .enumerate()
                            .map(|(o, ps)| {
                                let k = ps.iter().position(|&p| p == chosen[o]).unwrap();
                                vars[o][k].negate()
                            })
                            .collect();
                        solver.add_clause(&blocking);
                    }
                }
            }
            Ok(None)
        };
        add_solver_stats(ctx.tele(), solver.stats());
        result
    }

    /// Failure forensics at a single II: a from-scratch re-encoding
    /// with every constraint class guarded by its own assumption
    /// literal — one per op for the at-least-one layer, one per PE for
    /// slot exclusivity, one each for the dependence-latency and
    /// routing-reachability edge layers. The solver's final-conflict
    /// core ([`SatSolver::failed_assumptions`]) then names exactly the
    /// groups that participated in the refutation.
    fn diagnose_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Diagnosis {
        let (dfg, fabric, topo, mii) = (ctx.dfg, ctx.fabric, &*ctx.topo, ctx.mii);
        let space = PositionSpace::build(dfg, fabric, ii, self.window_iis, self.position_cap);
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
        let mut solver = SatSolver::new();
        solver.interrupt = ctx.budget.interrupt();
        let vars: Vec<Vec<Lit>> = space
            .positions
            .iter()
            .map(|ps| ps.iter().map(|_| Lit::pos(solver.new_var())).collect())
            .collect();
        let op_sels: Vec<Lit> = (0..vars.len()).map(|_| solver.new_selector()).collect();
        let pe_sels: Vec<Lit> = fabric.pe_ids().map(|_| solver.new_selector()).collect();
        let s_lat = solver.new_selector();
        let s_route = solver.new_selector();
        // Capability layer: each op must sit somewhere (at-least-one),
        // guarded per op so the core can name the ops. The at-most-one
        // half is structural — dropping a position never causes UNSAT —
        // and stays unguarded.
        for (o, ovars) in vars.iter().enumerate() {
            solver.add_clause_under(op_sels[o], ovars);
            for i in 0..ovars.len() {
                for j in i + 1..ovars.len() {
                    solver.add_clause(&[ovars[i].negate(), ovars[j].negate()]);
                }
            }
        }
        // Slot-exclusivity layer, guarded per PE so cores name cells.
        let mut by_slot: BTreeMap<(PeId, u32), Vec<Lit>> = BTreeMap::new();
        for (o, ps) in space.positions.iter().enumerate() {
            for (k, &(pe, t)) in ps.iter().enumerate() {
                by_slot.entry((pe, t % ii)).or_default().push(vars[o][k]);
            }
        }
        for ((pe, _), lits) in &by_slot {
            let sel = pe_sels[pe.0 as usize];
            for i in 0..lits.len() {
                for j in i + 1..lits.len() {
                    solver.add_clause_under(sel, &[lits[i].negate(), lits[j].negate()]);
                }
            }
        }
        // Edge layers: latency feasibility (consumer no earlier than
        // producer-ready) and full hop-reachability, separately guarded
        // so a core can tell "values cannot wait long enough" apart
        // from "values cannot travel far enough".
        for (_, e) in dfg.edges() {
            let src_op = dfg.op(e.src);
            for (ka, &a) in space.positions[e.src.index()].iter().enumerate() {
                let mut lat_clause = vec![vars[e.src.index()][ka].negate()];
                let mut route_clause = lat_clause.clone();
                for (kb, &b) in space.positions[e.dst.index()].iter().enumerate() {
                    if e.src == e.dst && ka != kb {
                        continue; // self edge: same position both sides
                    }
                    let tr = a.1 + fabric.latency_of(src_op);
                    let tc = b.1 + ii * e.dist;
                    if tc >= tr {
                        lat_clause.push(vars[e.dst.index()][kb]);
                        if topo.hops(a.0, b.0) <= tc - tr {
                            route_clause.push(vars[e.dst.index()][kb]);
                        }
                    }
                }
                solver.add_clause_under(s_lat, &lat_clause);
                solver.add_clause_under(s_route, &route_clause);
            }
        }
        let mut assumptions: Vec<Lit> = Vec::new();
        assumptions.extend(&op_sels);
        assumptions.extend(&pe_sels);
        assumptions.push(s_lat);
        assumptions.push(s_route);
        match solver.solve_with_assumptions(&assumptions) {
            SatResult::Sat(_) => {
                let mut d = Diagnosis::new(
                    ResourceClass::Register,
                    ii,
                    mii,
                    format!(
                        "the placement CNF is satisfiable at II {ii}; every model \
                         failed route realisation within {} CEGAR rounds \
                         (register/congestion pressure the encoding cannot see)",
                        self.cegar_rounds.max(1)
                    ),
                );
                d.core = vec!["register".into()];
                d
            }
            SatResult::Unknown => Diagnosis::new(
                ResourceClass::Routing,
                ii,
                mii,
                format!("diagnostic probe at II {ii} interrupted before a core was extracted"),
            ),
            SatResult::Unsat => {
                let failed: HashSet<Lit> = solver.failed_assumptions().iter().copied().collect();
                let ops: Vec<String> = op_sels
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| failed.contains(s))
                    .map(|(o, _)| op_name(dfg, NodeId(o as u32)))
                    .collect();
                let cells: Vec<String> = fabric
                    .pe_ids()
                    .filter(|pe| failed.contains(&pe_sels[pe.0 as usize]))
                    .map(|pe| cell_name(fabric, pe))
                    .collect();
                let lat = failed.contains(&s_lat);
                let route = failed.contains(&s_route);
                // The most specific layer in the conflict wins: edge
                // layers only appear when they actually bind, cell
                // exclusivity next, bare op constraints mean the
                // candidate sets themselves are starved.
                let class = if route {
                    ResourceClass::Routing
                } else if lat {
                    ResourceClass::DependenceLatency
                } else if !cells.is_empty() {
                    ResourceClass::SlotExclusive
                } else {
                    ResourceClass::Capability
                };
                let mut core = Vec::new();
                if !ops.is_empty() {
                    core.push(ResourceClass::Capability.label().to_string());
                }
                if !cells.is_empty() {
                    core.push(ResourceClass::SlotExclusive.label().to_string());
                }
                if lat {
                    core.push(ResourceClass::DependenceLatency.label().to_string());
                }
                if route {
                    core.push(ResourceClass::Routing.label().to_string());
                }
                let mut d = Diagnosis::new(
                    class,
                    ii,
                    mii,
                    format!(
                        "final-conflict core at II {ii}: {} op placement constraint(s), \
                         {} cell exclusivity group(s){}{}",
                        ops.len(),
                        cells.len(),
                        if lat {
                            ", the dependence-latency layer"
                        } else {
                            ""
                        },
                        if route {
                            ", the routing-reachability layer"
                        } else {
                            ""
                        }
                    ),
                );
                d.ops = cap_list(ops);
                d.cells = cap_list(cells);
                d.core = core;
                d
            }
        }
    }
}

impl TemporalSearch for SatMapper {
    const NAME: &'static str = "sat";
    const FAMILY: Family = Family::ExactCsp;
    const EXHAUSTED: &'static str = "UNSAT for every II in {range} (within the candidate window)";
    /// The live chunk of the incremental sweep and its pool key.
    type State = Option<(IncrKey, Box<SweepState>)>;

    fn prepare(&self, _: &SweepCtx<'_>) -> Self::State {
        None
    }

    fn try_ii(
        &self,
        ctx: &SweepCtx<'_>,
        live: &mut Self::State,
        ii: u32,
    ) -> Result<Option<Mapping>, MapError> {
        if !ctx.cfg.incremental {
            return self.try_ii_scratch(ctx, ii);
        }
        let st = self.enter_chunk(ctx, live, ii);
        let k = (ii - st.space.iis[0]) as usize;
        self.try_ii_incremental(ctx, st, k)
    }

    fn park(&self, ctx: &SweepCtx<'_>, live: Self::State) {
        if let Some((key, mut st)) = live {
            // Detach the per-run stop signal before pooling: the budget
            // dies with this call, the solver state does not.
            st.solver.interrupt = Interrupt::none();
            ctx.cfg.incr.put(key, st);
        }
    }

    fn diagnose(&self, ctx: &SweepCtx<'_>, ii: u32) -> Option<Diagnosis> {
        Some(self.diagnose_ii(ctx, ii))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::Mapper;
    use crate::validate::validate;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    #[test]
    fn sat_maps_small_suite() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::small_suite() {
            let m = SatMapper::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn incremental_and_from_scratch_achieve_identical_ii() {
        // The acceptance bar for the incremental sweep: same achieved
        // II as the per-II re-encoding, kernel by kernel.
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::small_suite() {
            let inc = SatMapper::default().map(&dfg, &f, &MapConfig::fast());
            let cold_cfg = MapConfig {
                incremental: false,
                ..MapConfig::fast()
            };
            let cold = SatMapper::default().map(&dfg, &f, &cold_cfg);
            match (inc, cold) {
                (Ok(a), Ok(b)) => assert_eq!(a.ii, b.ii, "{} diverged", dfg.name),
                (a, b) => panic!("{}: {:?} vs {:?}", dfg.name, a.err(), b.err()),
            }
        }
    }

    #[test]
    fn pooled_state_is_reused_across_calls() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::dot_product();
        let cfg = MapConfig::fast();
        let a = SatMapper::default().map(&dfg, &f, &cfg).unwrap();
        assert_eq!(cfg.incr.len(), 1, "sweep state must be parked");
        let b = SatMapper::default().map(&dfg, &f, &cfg).unwrap();
        assert_eq!(a.ii, b.ii, "resumed state must reproduce the II");
        assert_eq!(cfg.incr.len(), 1, "state must be parked again");
    }

    #[test]
    fn both_amo_encodings_agree_on_feasibility() {
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        let dfg = kernels::dot_product();
        let pairwise = SatMapper {
            amo: AmoEncoding::Pairwise,
            ..Default::default()
        }
        .map(&dfg, &f, &MapConfig::fast());
        let sequential = SatMapper {
            amo: AmoEncoding::Sequential,
            ..Default::default()
        }
        .map(&dfg, &f, &MapConfig::fast());
        assert_eq!(pairwise.is_ok(), sequential.is_ok());
        if let (Ok(a), Ok(b)) = (pairwise, sequential) {
            // Different encodings yield different models, so the CEGAR
            // realisation can land on neighbouring IIs; the *encoded*
            // feasibility must agree.
            assert!(
                a.ii.abs_diff(b.ii) <= 1,
                "encodings diverged: {} vs {}",
                a.ii,
                b.ii
            );
        }
    }

    /// 2×2 mesh where only pe0 multiplies — the capability-starved
    /// forensics fixture.
    fn mul_starved() -> Fabric {
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        for pe in 1..4 {
            f.cells[pe].mul = false;
        }
        f
    }

    #[test]
    fn explain_attaches_deterministic_diagnosis() {
        // 4 tap-multiplies, one mul-capable cell, II pinned below MII:
        // the empty II range yields the analytic capability diagnosis.
        let f = mul_starved();
        let dfg = kernels::fir(4);
        let cfg = MapConfig {
            max_ii: 1,
            explain: true,
            ..MapConfig::fast()
        };
        let e1 = SatMapper::default().map(&dfg, &f, &cfg).unwrap_err();
        let e2 = SatMapper::default().map(&dfg, &f, &cfg).unwrap_err();
        let d = e1.diagnosis().expect("explain must attach a diagnosis");
        assert_eq!(Some(d), e2.diagnosis(), "diagnosis must be deterministic");
        assert_eq!(d.class, crate::diagnosis::ResourceClass::Capability);
        assert!(d.render().contains("multiplier"), "{}", d.render());
        assert!(!d.ops.is_empty() && !d.cells.is_empty());
        // Without --explain the same failure carries no diagnosis and
        // renders the same prose as before.
        let plain_cfg = MapConfig {
            max_ii: 1,
            ..MapConfig::fast()
        };
        let plain = SatMapper::default().map(&dfg, &f, &plain_cfg).unwrap_err();
        assert!(plain.diagnosis().is_none());
    }

    #[test]
    fn diagnose_ii_extracts_a_final_conflict_core() {
        let f = mul_starved();
        let dfg = kernels::fir(4);
        let cfg = MapConfig::fast();
        let ctx = SweepCtx::open(&dfg, &f, &cfg).unwrap();
        let m = SatMapper::default();
        let d = m.diagnose_ii(&ctx, 1);
        let d2 = m.diagnose_ii(&ctx, 1);
        assert_eq!(d, d2, "probe must be deterministic");
        assert!(!d.core.is_empty());
        assert_eq!(d.ii, 1);
        assert_eq!(d.mii, 4);
        // 4 muls contending for pe0 at II 1: the core names ops and/or
        // the contended cell, never the register fallback.
        assert_ne!(d.class, crate::diagnosis::ResourceClass::Register);
        assert!(
            !d.ops.is_empty() || !d.cells.is_empty(),
            "core must implicate ops or cells: {}",
            d.render()
        );
    }

    #[test]
    fn sat_finds_near_minimum_ii_dot_product() {
        // The CNF encodes hop-feasibility, not register congestion; an
        // II=1 model the router cannot realise falls through CEGAR to
        // II=2. Either is acceptable; anything larger is a regression.
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::dot_product();
        let m = SatMapper::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        assert!(
            m.ii <= 2,
            "II {} too large for the dot product on 4x4",
            m.ii
        );
    }
    #[test]
    fn knobs_cover_every_config_knob() {
        // The IncrKey digest must separate configs that can search
        // differently — otherwise pooled solver state warmed under one
        // config is replayed under another (a serve-cache alias bug).
        let m = SatMapper::default();
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
