//! SAT-based mapping (Miyasaka et al., VLSI-SoC 2021).
//!
//! The mapping at a fixed II is the shared placement model
//! ([`placement_model`]) lowered to CNF over "operation `o` sits at
//! position `p`" variables: exactly-one per operation, at-most-one per
//! `(pe, modulo slot)`, and per-edge implication clauses restricting
//! consumers to hop-reachable positions. The CDCL solver
//! ([`cgra_solver::SatSolver`]) finds a model; the shared CEGAR loop
//! ([`cegar`]) routes it, and a routing failure (register congestion
//! the encoding cannot see) blocks that exact placement with a no-good
//! clause and re-solves.
//!
//! ## Persistent II sweep
//!
//! The bottom-up sweep uses *one* persistent solver per
//! [`SWEEP_CHUNK`]-sized run of adjacent candidate IIs (chunking keeps
//! the union encoding proportional to the IIs actually visited — a
//! kernel feasible at `min_ii` never pays for the tail of the sweep).
//! Within a chunk, variables range over the union of its IIs' candidate
//! spaces ([`SweepSpace`]), built once per chunk; each II's constraints
//! are encoded lazily under a per-II selector literal and activated by
//! [`SatSolver::solve_with_assumptions`]. A refuted II retires its
//! selector permanently, CEGAR no-goods accumulate under the selector
//! of the II they belong to, and variable activities and saved phases
//! carry from the II=k refutation into the II=k+1 search. A sweep
//! leaving a chunk drops its solver; nothing outlives the `map()` call.
//! Under its selector each II sees exactly its own
//! [`PositionSpace`](super::exact_common::PositionSpace), so the
//! feasible set per II does not depend on what else the chunk holds.

use super::exact_common::{
    add_solver_stats, cegar, diagnose_empty_space, diagnose_interrupted, diagnose_unroutable,
    placement_model, Cand, Cegar, CegarBackend, Constraint, PositionSpace, SweepSpace,
};
use super::sweep::{SweepCtx, TemporalSearch};
use crate::diagnosis::{cap_list, cell_name, op_name, Diagnosis, ResourceClass};
use crate::mapper::{Family, MapError};
use crate::mapping::Mapping;
use cgra_arch::Fabric;
use cgra_ir::{Dfg, NodeId};
use cgra_solver::cnf::{at_most_one, AmoEncoding};
use cgra_solver::{Lit, SatResult, SatSolver};
use std::collections::HashSet;

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
/// chunk bounds the union encoding while still letting learnt clauses
/// from the II=k refutation prune II=k+1; sweeps that exhaust a chunk
/// roll into the next one cold.
const SWEEP_CHUNK: usize = 4;

/// One chunk's cross-II solver state: one CDCL instance holding the
/// per-II selector-guarded layers encoded so far and every learnt
/// clause.
pub(crate) struct SweepState {
    solver: SatSolver,
    space: SweepSpace,
    /// `vars[op][u]` ⇔ "op sits at union position `u`".
    vars: Vec<Vec<Lit>>,
    /// `lits[k][op][i]`: the variable of II layer `k`'s candidate
    /// `space.spaces[k].positions[op][i]`.
    lits: Vec<Vec<Vec<Lit>>>,
    /// One selector literal per candidate II, assumption-activated.
    sels: Vec<Lit>,
    /// Which II layers have been encoded into the solver.
    encoded: Vec<bool>,
    /// IIs proven UNSAT (their selector has been retired).
    infeasible: Vec<bool>,
}

/// One II layer of the persistent solver as the CEGAR loop sees it:
/// solved under the layer's selector, and blocked under it too (a
/// no-good at II=k says nothing about II=k+1).
struct Layer<'a> {
    ctx: &'a SweepCtx<'a>,
    solver: &'a mut SatSolver,
    lits: &'a [Vec<Lit>],
    sel: Lit,
    ii: u32,
}

impl CegarBackend for Layer<'_> {
    fn solve(&mut self, round: u32) -> Result<Option<Vec<usize>>, MapError> {
        match self.solver.solve_with_assumptions(&[self.sel]) {
            SatResult::Unsat => Ok(None),
            SatResult::Unknown => Err(self.ctx.budget.error()),
            SatResult::Sat(model) => {
                // Each model is an anytime incumbent placement; cost =
                // CEGAR rounds spent reaching it.
                self.ctx.incumbent(SatMapper::NAME, self.ii, round as f64);
                let chosen = |lits: &Vec<Lit>| {
                    (lits.iter().position(|l| model[l.var().0 as usize]))
                        .expect("exactly-one guarantees a choice")
                };
                Ok(Some(self.lits.iter().map(chosen).collect()))
            }
        }
    }

    fn block(&mut self, choice: &[usize]) {
        let blocking: Vec<Lit> = (self.lits.iter().zip(choice))
            .map(|(lits, &k)| lits[k].negate())
            .collect();
        self.solver.add_clause_under(self.sel, &blocking);
    }
}

impl SatMapper {
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
        let of_op = |(ms, vars): (&Vec<usize>, &Vec<Lit>)| ms.iter().map(|&u| vars[u]).collect();
        let of_layer = |layer: &Vec<Vec<usize>>| layer.iter().zip(&vars).map(of_op).collect();
        SweepState {
            lits: space.member.iter().map(of_layer).collect(),
            solver,
            space,
            vars,
            sels,
            encoded: vec![false; iis.len()],
            infeasible: vec![false; iis.len()],
        }
    }

    /// The CNF lowering of one constraint of the placement model:
    /// `lits[op][k]` stands for candidate `(op, k)`, every clause goes
    /// under `guard`. The at-most-one half of an `ExactlyOne` is
    /// structural — dropping a position never causes UNSAT — and goes
    /// under `structural` instead, so a diagnosis can keep it out of its
    /// cores.
    fn lower(
        &self,
        solver: &mut SatSolver,
        lits: &[Vec<Lit>],
        c: &Constraint<'_>,
        guard: Lit,
        structural: Option<Lit>,
    ) {
        let lit = |&(op, k): &Cand| lits[op][k];
        match c {
            Constraint::ExactlyOne(op) => {
                solver.add_clause_under(guard, &lits[*op]);
                at_most_one(solver, &lits[*op], self.amo, structural);
            }
            Constraint::AtMostOne(_, cands) => {
                let group: Vec<Lit> = cands.iter().map(lit).collect();
                at_most_one(solver, &group, self.amo, Some(guard));
            }
            Constraint::Implies { src, dsts, .. } => {
                let mut clause = vec![lit(src).negate()];
                clause.extend(dsts.iter().map(lit));
                solver.add_clause_under(guard, &clause);
            }
        }
    }

    /// Encode II layer `k` under its selector: union positions outside
    /// this II's window are forbidden, so the variable space collapses
    /// to exactly this II's own candidate lists, over which the
    /// placement model is lowered.
    fn encode_layer(&self, ctx: &SweepCtx<'_>, st: &mut SweepState, k: usize) {
        let sel = st.sels[k];
        placement_model(ctx, &st.space.spaces[k], st.space.iis[k], false, |c| {
            if let Constraint::ExactlyOne(op) = c {
                let mut keep = vec![false; st.vars[op].len()];
                for &u in &st.space.member[k][op] {
                    keep[u] = true;
                }
                for (u, keep) in keep.iter().enumerate() {
                    if !keep {
                        st.solver.add_clause_under(sel, &[st.vars[op][u].negate()]);
                    }
                }
            }
            self.lower(&mut st.solver, &st.lits[k], &c, sel, Some(sel));
        });
    }

    /// Make the chunk holding `ii` the live one, replacing (and so
    /// dropping) the previous chunk's solver. Chunks are
    /// [`SWEEP_CHUNK`]-sized runs counted from `ctx.lo`.
    fn enter_chunk<'s>(
        &self,
        ctx: &SweepCtx<'_>,
        live: &'s mut Option<SweepState>,
        ii: u32,
    ) -> &'s mut SweepState {
        let chunk = SWEEP_CHUNK as u32;
        let first = ii - (ii - ctx.lo) % chunk;
        if live.as_ref().is_none_or(|st| st.space.iis[0] != first) {
            let iis: Vec<u32> = (first..=ctx.hi.min(first + chunk - 1)).collect();
            let mut st = self.build_state(ctx.dfg, ctx.fabric, &iis);
            st.solver.interrupt = ctx.budget.interrupt();
            *live = Some(st);
        }
        live.as_mut().expect("a chunk was just made live")
    }

    /// Failure forensics at a single II: a re-encoding on a solver of
    /// its own with every constraint class guarded by its own
    /// assumption literal — one per op for the at-least-one layer, one
    /// per PE for slot exclusivity, one each for the dependence-latency
    /// and routing-reachability edge layers (so a core can tell "values
    /// cannot wait long enough" apart from "values cannot travel far
    /// enough"). The solver's final-conflict core
    /// ([`SatSolver::failed_assumptions`]) then names exactly the groups
    /// that participated in the refutation.
    fn diagnose_ii(&self, ctx: &SweepCtx<'_>, ii: u32) -> Diagnosis {
        let (dfg, fabric) = (ctx.dfg, ctx.fabric);
        let space = PositionSpace::build(dfg, fabric, ii, self.window_iis, self.position_cap);
        if let Some(d) = diagnose_empty_space(ctx, &space, ii) {
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
        placement_model(ctx, &space, ii, true, |c| {
            let guard = match c {
                Constraint::ExactlyOne(op) => op_sels[op],
                Constraint::AtMostOne(pe, _) => pe_sels[pe.0 as usize],
                Constraint::Implies {
                    class: ResourceClass::Routing,
                    ..
                } => s_route,
                Constraint::Implies { .. } => s_lat,
            };
            self.lower(&mut solver, &vars, &c, guard, None);
        });
        let mut assumptions: Vec<Lit> = Vec::new();
        assumptions.extend(&op_sels);
        assumptions.extend(&pe_sels);
        assumptions.push(s_lat);
        assumptions.push(s_route);
        match solver.solve_with_assumptions(&assumptions) {
            SatResult::Sat(_) => diagnose_unroutable(
                ctx,
                ii,
                self.cegar_rounds,
                ["the placement CNF is satisfiable", "model", "encoding"],
            ),
            SatResult::Unknown => {
                diagnose_interrupted(ctx, ii, "interrupted before a core was extracted")
            }
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
                    ctx.mii,
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
    /// The live chunk of the sweep.
    type State = Option<SweepState>;

    fn prepare(&self, _: &SweepCtx<'_>) -> Self::State {
        None
    }

    /// One II attempt on the persistent solver: encode the II's layer
    /// if this is its first visit, then run the CEGAR loop under its
    /// selector.
    fn try_ii(
        &self,
        ctx: &SweepCtx<'_>,
        live: &mut Self::State,
        ii: u32,
    ) -> Result<Option<Mapping>, MapError> {
        let st = self.enter_chunk(ctx, live, ii);
        let k = (ii - st.space.iis[0]) as usize;
        if st.infeasible[k] {
            return Ok(None);
        }
        if st.space.spaces[k].positions.iter().any(|ps| ps.is_empty()) {
            st.infeasible[k] = true;
            return Ok(None);
        }
        let before = st.solver.stats();
        if !st.encoded[k] {
            self.encode_layer(ctx, st, k);
            st.encoded[k] = true;
        }
        let sel = st.sels[k];
        let mut layer = Layer {
            ctx,
            lits: &st.lits[k],
            solver: &mut st.solver,
            sel,
            ii,
        };
        let out = cegar(ctx, &st.space.spaces[k], ii, self.cegar_rounds, &mut layer);
        if matches!(out, Ok(Cegar::Refuted)) {
            st.solver.retire_selector(sel);
            st.infeasible[k] = true;
        }
        add_solver_stats(ctx.tele(), st.solver.stats().since(&before));
        Ok(match out? {
            Cegar::Mapped(m) => Some(m),
            Cegar::Refuted | Cegar::GaveUp => None,
        })
    }

    fn diagnose(&self, ctx: &SweepCtx<'_>, ii: u32) -> Option<Diagnosis> {
        Some(self.diagnose_ii(ctx, ii))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::mappers::exact_common::tests::sweep_ii_is_the_smallest_pinned_ii;
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
        // The persistent sweep (a chunk of IIs on one solver, learnt
        // clauses carried from each refutation into the next II) must
        // land where one-II-at-a-time solves on solvers of their own do.
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::small_suite() {
            sweep_ii_is_the_smallest_pinned_ii(&SatMapper::default(), &dfg, &f);
        }
    }

    #[test]
    fn both_amo_encodings_agree_on_feasibility() {
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        let dfg = kernels::dot_product();
        // Map, then count the variables of the sweep's first layer as
        // the sweep encodes it.
        let run = |amo| {
            let (mapper, cfg) = (
                SatMapper {
                    amo,
                    ..Default::default()
                },
                MapConfig::fast(),
            );
            let ii = mapper.map(&dfg, &f, &cfg).map(|m| m.ii);
            let ctx = SweepCtx::open(&dfg, &f, &cfg).unwrap();
            let mut st = mapper.build_state(&dfg, &f, &[ctx.lo]);
            mapper.encode_layer(&ctx, &mut st, 0);
            (ii, st.solver.num_vars())
        };
        let (pairwise, pairwise_vars) = run(AmoEncoding::Pairwise);
        let (sequential, sequential_vars) = run(AmoEncoding::Sequential);
        // The knob must reach the formula: the ladder encoding adds
        // register variables, the pairwise one none.
        assert!(
            sequential_vars > pairwise_vars,
            "both encodings built {pairwise_vars} variables"
        );
        assert_eq!(pairwise.is_ok(), sequential.is_ok());
        if let (Ok(a), Ok(b)) = (pairwise, sequential) {
            // Different encodings yield different models, so the CEGAR
            // realisation can land on neighbouring IIs; the *encoded*
            // feasibility must agree.
            assert!(a.abs_diff(b) <= 1, "encodings diverged: {a} vs {b}");
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
}
