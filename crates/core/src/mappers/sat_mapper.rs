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
//! As in Miyasaka et al. and SAT-MapIt, each II gets a formula of its
//! own: a probe encodes its II's [`PositionSpace`] on a fresh solver,
//! adds its no-goods as plain clauses, and drops the solver when it
//! ends. Nothing carries from one II to the next, so a sweep and a
//! pinned single-II run solve the same formula.
//!
//! The same formula, with each constraint class behind a selector, is
//! the failure diagnosis of all three exact mappers that lower the
//! placement model ([`diagnose`]): its final-conflict core names the
//! classes that refute an II.

use super::exact_common::{
    add_solver_stats, cegar, placement_model, Cand, CegarBackend, Constraint, PositionSpace,
};
use super::sweep::{SweepCtx, TemporalSearch, Verdict};
use crate::diagnosis::{cap_list, cell_name, op_name, Diagnosis, ResourceClass};
use crate::mapper::Family;
use cgra_ir::NodeId;
use cgra_solver::cnf::{at_most_one, AmoEncoding};
use cgra_solver::{Lit, SatResult, SatSolver};
use std::collections::HashSet;

/// The SAT mapper.
#[derive(Debug, Clone)]
pub struct SatMapper {
    /// At-most-one encoding (ablation: pairwise vs sequential).
    pub amo: AmoEncoding,
}

impl Default for SatMapper {
    fn default() -> Self {
        SatMapper {
            amo: AmoEncoding::Pairwise,
        }
    }
}

/// CEGAR rounds (placements tried per II).
const CEGAR_ROUNDS: u32 = 40;
/// Candidate positions per op.
const POSITION_CAP: usize = 48;
const WINDOW_IIS: u32 = 2;

/// One II's formula as the CEGAR loop sees it: a solver of its own,
/// blocked by plain no-good clauses.
struct Probe<'a> {
    ctx: &'a SweepCtx<'a>,
    solver: SatSolver,
    /// `lits[op][k]` ⇔ "op sits at `space.positions[op][k]`".
    lits: Vec<Vec<Lit>>,
    ii: u32,
}

impl CegarBackend for Probe<'_> {
    fn solve(&mut self, round: u32) -> Verdict<Vec<usize>> {
        match self.solver.solve() {
            SatResult::Unsat => Verdict::Refuted,
            SatResult::Unknown => Verdict::Unproven,
            SatResult::Sat(model) => {
                // Each model is an anytime incumbent placement; cost =
                // CEGAR rounds spent reaching it.
                self.ctx.incumbent(SatMapper::NAME, self.ii, round as f64);
                let chosen = |lits: &Vec<Lit>| {
                    (lits.iter().position(|l| model[l.var().0 as usize]))
                        .expect("exactly-one guarantees a choice")
                };
                Verdict::Mapped(self.lits.iter().map(chosen).collect())
            }
        }
    }

    fn block(&mut self, choice: &[usize]) {
        let blocking: Vec<Lit> = (self.lits.iter().zip(choice))
            .map(|(lits, &k)| lits[k].negate())
            .collect();
        self.solver.add_clause(&blocking);
    }
}

/// A solver with one variable per candidate of `space`, and the
/// variables as `lits[op][k]`.
fn solver_over(ctx: &SweepCtx<'_>, space: &PositionSpace) -> (SatSolver, Vec<Vec<Lit>>) {
    let mut solver = SatSolver::new();
    solver.interrupt = ctx.budget.interrupt();
    let lits = (space.positions.iter())
        .map(|ps| ps.iter().map(|_| Lit::pos(solver.new_var())).collect())
        .collect();
    (solver, lits)
}

impl SatMapper {
    /// The probe of `ii` over `space`: the placement model lowered,
    /// unguarded, onto a fresh solver.
    fn probe<'a>(&self, ctx: &'a SweepCtx<'a>, space: &PositionSpace, ii: u32) -> Probe<'a> {
        let (mut solver, lits) = solver_over(ctx, space);
        placement_model(ctx, space, ii, false, |c| {
            lower(&mut solver, &lits, &c, self.amo, None)
        });
        Probe {
            ctx,
            solver,
            lits,
            ii,
        }
    }
}

/// The CNF lowering of one constraint of the placement model:
/// `lits[op][k]` stands for candidate `(op, k)`, and every clause goes
/// under `guard` when there is one. The at-most-one half of an
/// `ExactlyOne` is structural — dropping a position never causes UNSAT
/// — and stays unguarded, so a diagnosis keeps it out of its cores.
fn lower(
    solver: &mut SatSolver,
    lits: &[Vec<Lit>],
    c: &Constraint<'_>,
    amo: AmoEncoding,
    guard: Option<Lit>,
) {
    let add = |solver: &mut SatSolver, clause: &[Lit]| match guard {
        Some(sel) => solver.add_clause_under(sel, clause),
        None => solver.add_clause(clause),
    };
    let lit = |&(op, k): &Cand| lits[op][k];
    match c {
        Constraint::ExactlyOne(op) => {
            add(solver, &lits[*op]);
            at_most_one(solver, &lits[*op], amo, None);
        }
        Constraint::AtMostOne(_, cands) => {
            let group: Vec<Lit> = cands.iter().map(lit).collect();
            at_most_one(solver, &group, amo, guard);
        }
        Constraint::Implies { src, dsts, .. } => {
            let mut clause = vec![lit(src).negate()];
            clause.extend(dsts.iter().map(lit));
            add(solver, &clause);
        }
    }
}

/// Failure forensics at `ii` for whichever exact mapper (`sat`, `cp`,
/// `ilp`) ran out of IIs: the placement model over that mapper's own
/// [`PositionSpace`] (`window_iis`, `cap`), re-encoded on a solver of
/// its own with every constraint class guarded by its own assumption
/// literal — one per op for the at-least-one layer, one per PE for slot
/// exclusivity, one each for the dependence-latency and
/// routing-reachability edge layers (so a core can tell "values cannot
/// wait long enough" apart from "values cannot travel far enough").
/// The solver's final-conflict core ([`SatSolver::failed_assumptions`])
/// then names exactly the groups that participated in the refutation;
/// a satisfiable model is blamed on the registers the mapper's `rounds`
/// CEGAR rounds could not route around.
pub(super) fn diagnose(
    ctx: &SweepCtx<'_>,
    ii: u32,
    window_iis: u32,
    cap: usize,
    rounds: u32,
) -> Diagnosis {
    let (dfg, fabric) = (ctx.dfg, ctx.fabric);
    let space = PositionSpace::build(dfg, fabric, ii, window_iis, Some(cap));
    if let Some(o) = space.positions.iter().position(|ps| ps.is_empty()) {
        let op = op_name(dfg, NodeId(o as u32));
        let mut d = Diagnosis::new(
            ResourceClass::Capability,
            ii,
            ctx.mii,
            format!(
                "{op} has no candidate position at II {ii}: \
                 no capable cell inside the placement window"
            ),
        );
        d.ops = vec![op];
        return d;
    }
    let (mut solver, vars) = solver_over(ctx, &space);
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
        lower(&mut solver, &vars, &c, AmoEncoding::Pairwise, Some(guard));
    });
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
                ctx.mii,
                format!(
                    "the placement CNF is satisfiable at II {ii}; every model failed route \
                     realisation within {} CEGAR rounds (register/congestion pressure the \
                     encoding cannot see)",
                    rounds.max(1)
                ),
            );
            d.core = vec!["register".into()];
            d
        }
        SatResult::Unknown => Diagnosis::new(
            ResourceClass::Routing,
            ii,
            ctx.mii,
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
            // The most specific layer in the conflict wins: edge layers
            // only appear when they actually bind, cell exclusivity
            // next, bare op constraints mean the candidate sets
            // themselves are starved.
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

impl TemporalSearch for SatMapper {
    const NAME: &'static str = "sat";
    const FAMILY: Family = Family::ExactCsp;
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    /// One II attempt: encode the II on a fresh solver, then run the
    /// CEGAR loop on it.
    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Verdict {
        let space = PositionSpace::build(ctx.dfg, ctx.fabric, ii, WINDOW_IIS, Some(POSITION_CAP));
        if space.positions.iter().any(|ps| ps.is_empty()) {
            return Verdict::Unproven;
        }
        let mut probe = self.probe(ctx, &space, ii);
        let out = cegar(ctx, &space, ii, CEGAR_ROUNDS, &mut probe);
        add_solver_stats(ctx.tele(), probe.solver.stats());
        out
    }

    fn diagnose(&self, ctx: &SweepCtx<'_>, ii: u32) -> Option<Diagnosis> {
        Some(diagnose(ctx, ii, WINDOW_IIS, POSITION_CAP, CEGAR_ROUNDS))
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
        // A sweep probes its IIs in turn, each on a solver of its own;
        // it must land where one-II pinned runs do.
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::small_suite() {
            sweep_ii_is_the_smallest_pinned_ii(&SatMapper::default(), &dfg, &f);
        }
    }

    #[test]
    fn both_amo_encodings_agree_on_feasibility() {
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        let dfg = kernels::dot_product();
        // Map, then count the variables of the first II's probe as the
        // sweep encodes it.
        let run = |amo| {
            let (mapper, cfg) = (SatMapper { amo }, MapConfig::fast());
            let ii = mapper.map(&dfg, &f, &cfg).map(|m| m.ii);
            let ctx = SweepCtx::open(&dfg, &f, &cfg).unwrap();
            let space = PositionSpace::build(&dfg, &f, ctx.lo, WINDOW_IIS, Some(POSITION_CAP));
            (ii, mapper.probe(&ctx, &space, ctx.lo).solver.num_vars())
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
        let d = diagnose(&ctx, 1, WINDOW_IIS, POSITION_CAP, CEGAR_ROUNDS);
        let d2 = diagnose(&ctx, 1, WINDOW_IIS, POSITION_CAP, CEGAR_ROUNDS);
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
