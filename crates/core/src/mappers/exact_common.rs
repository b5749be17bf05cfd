//! Shared machinery for the exact mappers. SAT, ILP and CP differ in
//! the oracle, not in the problem (DESIGN.md §1, §8): one `(pe, cycle)`
//! per op, one op per `(pe, cycle mod II)`, every edge hop-reachable in
//! its slack. That problem is written down here, once:
//!
//! * [`PositionSpace`] — the candidate positions per op at one II;
//! * [`placement_model`] — the one emitter of the constraints over a
//!   space, which SAT lowers to clauses and ILP to rows (CP states them
//!   as tables over the same space and [`edge_compatible`]);
//! * [`cegar`] — the one solve → route → block loop all three run.
//!
//! All three are diagnosed by one SAT final-conflict core over the
//! placement model ([`super::sat_mapper::diagnose`]).
//!
//! Exactness is *relative to the candidate space*: positions are
//! restricted to a scheduling window derived from ASAP levels, which
//! is the standard region-pruning of published ILP/SAT mapping
//! formulations. The compatibility predicate (`slack ≥ hop distance`)
//! is necessary but not sufficient for routability; register
//! congestion is handled by the CEGAR loop (route, and on failure
//! block the exact placement and re-solve).
//!
//! A probe is *refuted* only when the model had no solution on its
//! first solve, before any placement was blocked, over a space from
//! which the per-op cap dropped nothing ([`PositionSpace::cut`]). A
//! model exhausted after a block, a capped space, a give-up and a
//! solver that stopped at its own limit all prove nothing.

use super::sweep::{SweepCtx, Verdict};
use crate::diagnosis::ResourceClass;
use crate::telemetry::{Counter, Telemetry};
use cgra_arch::{Fabric, PeId, TopologyCache};
use cgra_ir::{graph, Dfg, OpKind};
use cgra_solver::SolverStats;
use std::collections::BTreeMap;

/// A candidate `(pe, time)` pair.
pub(crate) type Pos = (PeId, u32);

/// Candidate positions per operation at a fixed II.
pub(crate) struct PositionSpace {
    pub positions: Vec<Vec<Pos>>,
    /// Whether the cap dropped any position: if so, a model with no
    /// solution over `positions` proves nothing about the II.
    pub cut: bool,
}

impl PositionSpace {
    /// Build the space: times in `[asap, routed-asap + window_iis·ii]`,
    /// all capability-feasible PEs, optionally capped to `cap`
    /// candidates per op.
    ///
    /// The upper bound uses a *routing-aware* ASAP (every edge charged
    /// latency + one hop), because consecutive operations on distinct
    /// PEs need at least one move cycle each — without the allowance,
    /// low-II windows cannot hold any placement whose chain actually
    /// crosses the fabric. The cap keeps a spread across time layers
    /// (round-robin by cycle, centre-most PEs first) rather than only
    /// the earliest cycles.
    pub fn build(dfg: &Dfg, fabric: &Fabric, ii: u32, window_iis: u32, cap: Option<usize>) -> Self {
        let lat = |op: OpKind| fabric.latency_of(op);
        let asap = graph::asap(dfg, &lat);
        let lat_hop = |op: OpKind| fabric.latency_of(op) + 1;
        let asap_routed = graph::asap(dfg, &lat_hop);
        let mut cut = false;
        let positions = dfg
            .node_ids()
            .map(|n| {
                let op = dfg.op(n);
                let t0 = asap[n.index()];
                let t1 = asap_routed[n.index()] + window_iis * ii;
                let mut layers: Vec<Vec<Pos>> = Vec::new();
                for t in t0..=t1 {
                    let mut layer: Vec<Pos> = fabric
                        .pe_ids()
                        .filter(|&pe| fabric.supports(pe, op))
                        .map(|pe| (pe, t))
                        .collect();
                    layer.sort_by_key(|&(pe, _)| {
                        let (r, c) = fabric.coords(pe);
                        let centre = (r as i32 - fabric.rows as i32 / 2).abs()
                            + (c as i32 - fabric.cols as i32 / 2).abs();
                        (centre, pe.0)
                    });
                    layers.push(layer);
                }
                cut |= cap.is_some_and(|cap| layers.iter().map(Vec::len).sum::<usize>() > cap);
                match cap {
                    None => layers.into_iter().flatten().collect(),
                    Some(cap) => {
                        // Round-robin across time layers.
                        let mut list = Vec::with_capacity(cap);
                        let mut idx = 0usize;
                        while list.len() < cap {
                            let mut any = false;
                            for layer in &layers {
                                if let Some(&pos) = layer.get(idx) {
                                    list.push(pos);
                                    any = true;
                                    if list.len() == cap {
                                        break;
                                    }
                                }
                            }
                            if !any {
                                break;
                            }
                            idx += 1;
                        }
                        list
                    }
                }
            })
            .collect();
        PositionSpace { positions, cut }
    }
}

/// Cycles the value of an edge has to get from a producer at `a` to a
/// consumer at `b`; `None` when it would be consumed before it is ready.
fn edge_slack(fabric: &Fabric, ii: u32, src_op: OpKind, dist: u32, a: Pos, b: Pos) -> Option<u32> {
    (b.1 + ii * dist).checked_sub(a.1 + fabric.latency_of(src_op))
}

/// Can edge `e` connect a producer at `a` to a consumer at `b`?
/// (Latency + hop-distance feasibility on the TEC.)
pub(crate) fn edge_compatible(
    fabric: &Fabric,
    topo: &TopologyCache,
    ii: u32,
    src_op: OpKind,
    dist: u32,
    a: Pos,
    b: Pos,
) -> bool {
    edge_slack(fabric, ii, src_op, dist, a, b).is_some_and(|slack| topo.hops(a.0, b.0) <= slack)
}

/// A candidate by index: `(op, k)` is `space.positions[op][k]`.
pub(crate) type Cand = (usize, usize);

/// One constraint of the placement model over a [`PositionSpace`].
pub(crate) enum Constraint<'a> {
    /// The op sits at exactly one of its candidates.
    ExactlyOne(usize),
    /// At most one of these candidates is taken: they share the cell
    /// in one modulo slot.
    AtMostOne(PeId, &'a [Cand]),
    /// The producer candidate `src` of an edge needs its consumer at
    /// one of `dsts`: the [`edge_compatible`] ones under `Routing`, the
    /// superset that is merely late enough under `DependenceLatency`.
    Implies {
        class: ResourceClass,
        src: Cand,
        dsts: &'a [Cand],
    },
}

/// Emit the placement model of `ctx`'s kernel over `space` at `ii`, in
/// a fixed order (clause and row order steer the solvers, so it must
/// not depend on the process hash seed): one `ExactlyOne` per op; one
/// `AtMostOne` per `(pe, cycle mod ii)` holding more than one
/// candidate, in `(pe, slot)` order; per edge and producer candidate
/// the `Routing` implication, preceded under `with_latency` by its
/// `DependenceLatency` superset (only a diagnosis tells them apart).
pub(crate) fn placement_model(
    ctx: &SweepCtx<'_>,
    space: &PositionSpace,
    ii: u32,
    with_latency: bool,
    mut emit: impl FnMut(Constraint<'_>),
) {
    let (dfg, fabric, topo) = (ctx.dfg, ctx.fabric, &*ctx.topo);
    for op in 0..space.positions.len() {
        emit(Constraint::ExactlyOne(op));
    }
    let mut by_slot: BTreeMap<(PeId, u32), Vec<Cand>> = BTreeMap::new();
    for (op, ps) in space.positions.iter().enumerate() {
        for (k, &(pe, t)) in ps.iter().enumerate() {
            by_slot.entry((pe, t % ii)).or_default().push((op, k));
        }
    }
    for (&(pe, _), cands) in &by_slot {
        if cands.len() > 1 {
            emit(Constraint::AtMostOne(pe, cands));
        }
    }
    let (mut late_enough, mut reachable) = (Vec::new(), Vec::new());
    for (_, e) in dfg.edges() {
        let (src, dst) = (e.src.index(), e.dst.index());
        let src_op = dfg.op(e.src);
        for (ka, &a) in space.positions[src].iter().enumerate() {
            late_enough.clear();
            reachable.clear();
            for (kb, &b) in space.positions[dst].iter().enumerate() {
                if src == dst && ka != kb {
                    continue; // self edge: same position both sides
                }
                let Some(slack) = edge_slack(fabric, ii, src_op, e.dist, a, b) else {
                    continue;
                };
                if with_latency {
                    late_enough.push((dst, kb));
                }
                if topo.hops(a.0, b.0) <= slack {
                    reachable.push((dst, kb));
                }
            }
            if with_latency {
                emit(Constraint::Implies {
                    class: ResourceClass::DependenceLatency,
                    src: (src, ka),
                    dsts: &late_enough,
                });
            }
            emit(Constraint::Implies {
                class: ResourceClass::Routing,
                src: (src, ka),
                dsts: &reachable,
            });
        }
    }
}

/// The oracle's side of the CEGAR loop: one II's model over a
/// [`PositionSpace`], solvable again after a solution has been excluded.
/// A solution is one candidate index per op (`k` of `positions[op][k]`).
pub(crate) trait CegarBackend {
    /// Solve with every choice blocked so far, in CEGAR round `round`:
    /// a solution, `Refuted` when none is left, `Unproven` when the
    /// solver stopped first (its own limit or the budget).
    fn solve(&mut self, round: u32) -> Verdict<Vec<usize>>;

    /// Exclude `choice`, the last solution, which did not route.
    fn block(&mut self, choice: &[usize]);
}

/// The CEGAR loop of one II probe over `space`, at most `rounds` times:
/// poll the budget, solve, route the solution's positions, and on a
/// routing failure (the congestion no placement model sees) hand the
/// solution back to be blocked. `Refuted` only when the first solve
/// finds nothing in an uncut space. Counts each solve in
/// [`Counter::CegarRounds`] and a probe that gives up in
/// [`Counter::CegarGaveUp`].
pub(crate) fn cegar(
    ctx: &SweepCtx<'_>,
    space: &PositionSpace,
    ii: u32,
    rounds: u32,
    backend: &mut impl CegarBackend,
) -> Verdict {
    for round in 0..rounds.max(1) {
        if ctx.budget.expired_now() {
            return Verdict::Unproven;
        }
        ctx.tele().bump(Counter::CegarRounds);
        let choice = match backend.solve(round) {
            Verdict::Mapped(choice) => choice,
            Verdict::Refuted if round == 0 && !space.cut => return Verdict::Refuted,
            Verdict::Refuted | Verdict::Unproven => return Verdict::Unproven,
        };
        let place = space.positions.iter().zip(&choice).map(|(ps, &k)| ps[k]);
        if let Some(m) = ctx.route(ii, place) {
            return Verdict::Mapped(m);
        }
        backend.block(&choice);
    }
    ctx.tele().bump(Counter::CegarGaveUp);
    Verdict::Unproven
}

/// Fold a solver-engine stats snapshot into the telemetry counters.
pub(crate) fn add_solver_stats(tele: &Telemetry, s: SolverStats) {
    tele.add(Counter::SolverDecisions, s.decisions);
    tele.add(Counter::SolverPropagations, s.propagations);
    tele.add(Counter::SolverConflicts, s.conflicts);
    tele.add(Counter::SolverRestarts, s.restarts);
    tele.add(Counter::SolverAssumptionSolves, s.assumption_solves);
    tele.add(Counter::SolverLearntKept, s.learnt_kept);
    tele.add(Counter::SolverLearntGcd, s.learnt_gcd);
    tele.add(Counter::SolverLpPivots, s.lp_pivots);
}

/// Per-op supported-PE bitsets (`caps[op][pe]`): the II- and
/// horizon-independent capability layer shared by every exact encoding,
/// computed once per `map()` call instead of once per probe.
pub(crate) fn capability_bitsets(dfg: &Dfg, fabric: &Fabric) -> Vec<Vec<bool>> {
    dfg.node_ids()
        .map(|n| {
            let op = dfg.op(n);
            fabric.pe_ids().map(|pe| fabric.supports(pe, op)).collect()
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::mappers::CpMapper;
    use cgra_arch::Topology;
    use cgra_ir::kernels;
    use std::collections::{HashMap, VecDeque};
    use std::time::Duration;

    #[test]
    fn position_space_shapes() {
        let dfg = kernels::dot_product();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let ps = PositionSpace::build(&dfg, &f, 2, 1, None);
        assert_eq!(ps.positions.len(), dfg.node_count());
        for (o, positions) in ps.positions.iter().enumerate() {
            assert!(!positions.is_empty(), "op {o} has no candidates");
            // Windows include the routing allowance: deeper ops see
            // strictly later maximum times.
            let times: Vec<u32> = positions.iter().map(|&(_, t)| t).collect();
            assert!(times.iter().max() > times.iter().min() || dfg.node_count() == 1);
        }
        assert!(!ps.cut);
        let capped = PositionSpace::build(&dfg, &f, 2, 1, Some(10));
        assert!(capped.positions.iter().all(|p| p.len() == 10));
        assert!(capped.cut);
        let roomy = ps.positions.iter().map(Vec::len).max();
        assert!(!PositionSpace::build(&dfg, &f, 2, 1, roomy).cut);
        let size = |s: &PositionSpace| s.positions.iter().map(Vec::len).sum::<usize>();
        assert!(size(&capped) <= size(&ps));
        // The cap must keep a spread of time layers, not just the
        // earliest cycles.
        for positions in &capped.positions {
            let distinct_times: std::collections::HashSet<u32> =
                positions.iter().map(|&(_, t)| t).collect();
            assert!(distinct_times.len() >= 2);
        }
    }

    #[test]
    fn heterogeneous_positions_respect_caps() {
        let dfg = kernels::dot_product();
        let f = Fabric::adres_like(4, 4);
        let ps = PositionSpace::build(&dfg, &f, 2, 1, None);
        // The mul (node 2) may only use even columns.
        for &(pe, _) in &ps.positions[2] {
            let (_, c) = f.coords(pe);
            assert_eq!(c % 2, 0);
        }
    }

    #[test]
    fn placement_model_counts_follow_the_space_and_order_is_stable() {
        let dfg = kernels::dot_product();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let cfg = MapConfig::fast();
        let ctx = SweepCtx::open(&dfg, &f, &cfg).unwrap();
        let ii = 2;
        let space = PositionSpace::build(&dfg, &f, ii, 2, Some(48));
        // (class, the op / cell / producer candidate it is about, arity)
        let trace = |with_latency: bool| {
            let mut out: Vec<(ResourceClass, usize, usize)> = Vec::new();
            placement_model(&ctx, &space, ii, with_latency, |c| {
                out.push(match c {
                    Constraint::ExactlyOne(op) => {
                        (ResourceClass::Capability, op, space.positions[op].len())
                    }
                    Constraint::AtMostOne(pe, cands) => {
                        (ResourceClass::SlotExclusive, pe.0 as usize, cands.len())
                    }
                    Constraint::Implies { class, src, dsts } => (class, src.0, dsts.len()),
                })
            });
            out
        };
        let count =
            |t: &[(ResourceClass, usize, usize)], class| t.iter().filter(|c| c.0 == class).count();
        let plain = trace(false);
        assert_eq!(plain, trace(false), "emission order must be stable");
        assert_eq!(count(&plain, ResourceClass::Capability), dfg.node_count());
        let mut slots: HashMap<(PeId, u32), usize> = HashMap::new();
        for &(pe, t) in space.positions.iter().flatten() {
            *slots.entry((pe, t % ii)).or_default() += 1;
        }
        let shared = slots.values().filter(|&&n| n > 1).count();
        assert!(shared > 0);
        assert_eq!(count(&plain, ResourceClass::SlotExclusive), shared);
        let producers: usize = (dfg.edges())
            .map(|(_, e)| space.positions[e.src.index()].len())
            .sum();
        assert_eq!(count(&plain, ResourceClass::Routing), producers);
        assert_eq!(count(&plain, ResourceClass::DependenceLatency), 0);
        assert_eq!(plain.len(), dfg.node_count() + shared + producers);
        // Asked for, each routing implication follows its latency-only
        // superset; nothing else moves.
        let both = trace(true);
        assert_eq!(both.len(), plain.len() + producers);
        let edges: Vec<_> = (both.iter())
            .filter(|c| {
                matches!(
                    c.0,
                    ResourceClass::DependenceLatency | ResourceClass::Routing
                )
            })
            .collect();
        for pair in edges.chunks(2) {
            assert_eq!(pair[0].0, ResourceClass::DependenceLatency);
            assert_eq!(pair[1].0, ResourceClass::Routing);
            assert_eq!(pair[0].1, pair[1].1, "same producer");
            assert!(
                pair[0].2 >= pair[1].2,
                "reachable is a subset of late enough"
            );
        }
        let without_latency: Vec<_> = (both.iter().copied())
            .filter(|c| c.0 != ResourceClass::DependenceLatency)
            .collect();
        assert_eq!(without_latency, plain);
    }

    /// A backend that replays a script (no solver) and records what the
    /// loop did with it. `None` in the script is "no solution left".
    struct Scripted {
        script: VecDeque<Option<Vec<usize>>>,
        solves: u32,
        blocked: Vec<Vec<usize>>,
    }

    impl Scripted {
        fn new(script: impl IntoIterator<Item = Option<Vec<usize>>>) -> Self {
            Scripted {
                script: script.into_iter().collect(),
                solves: 0,
                blocked: Vec::new(),
            }
        }
    }

    impl CegarBackend for Scripted {
        fn solve(&mut self, round: u32) -> Verdict<Vec<usize>> {
            assert_eq!(round, self.solves, "rounds count from zero");
            self.solves += 1;
            match self.script.pop_front().expect("stepped past the script") {
                Some(choice) => Verdict::Mapped(choice),
                None => Verdict::Refuted,
            }
        }

        fn block(&mut self, choice: &[usize]) {
            self.blocked.push(choice.to_vec());
        }
    }

    #[test]
    fn cegar_loop_routes_blocks_and_tells_refuted_from_gave_up() {
        let dfg = kernels::dot_product();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let cfg = MapConfig {
            telemetry: Telemetry::enabled(),
            ..MapConfig::fast()
        };
        let ctx = SweepCtx::open(&dfg, &f, &cfg).unwrap();
        let mapped = CpMapper.map(&dfg, &f, &MapConfig::fast()).unwrap();
        // Rounds and gave-up probes counted so far.
        let counted = || {
            let s = cfg.telemetry.snapshot().unwrap();
            (s.cegar_rounds, s.cegar_gave_up)
        };
        let ii = mapped.ii;
        // Three candidates per op. 0 and 1 put every op in one cell in
        // one cycle, so no edge has time to run; 2 is a placement known
        // to route.
        let mut space = PositionSpace {
            positions: (mapped.place.iter())
                .map(|p| vec![(PeId(0), 0), (PeId(0), 1), (p.pe, p.time)])
                .collect(),
            cut: false,
        };
        let all = |k: usize| Some(vec![k; dfg.node_count()]);

        // Out of solutions on round 1: refuted, nothing blocked.
        let mut b = Scripted::new([None]);
        let out = cegar(&ctx, &space, ii, 5, &mut b);
        assert!(matches!(out, Verdict::Refuted));
        assert_eq!((b.solves, b.blocked.len()), (1, 0));
        assert_eq!(counted(), (1, 0));
        // Out of solutions only after a block: nothing proven.
        let mut b = Scripted::new([all(0), None]);
        let out = cegar(&ctx, &space, ii, 5, &mut b);
        assert!(matches!(out, Verdict::Unproven));
        assert_eq!((b.solves, b.blocked.len()), (2, 1));
        assert_eq!(counted(), (3, 0));

        // Never routable: exactly `rounds` solves, every one handed
        // back, and no claim that the II is refuted.
        let mut b = Scripted::new([all(0), all(1), all(0)]);
        let out = cegar(&ctx, &space, ii, 3, &mut b);
        assert!(matches!(out, Verdict::Unproven));
        assert_eq!((b.solves, b.blocked.len()), (3, 3));
        assert_eq!(counted(), (6, 1));
        // Zero rounds still means one.
        let mut b = Scripted::new([all(0)]);
        let out = cegar(&ctx, &space, ii, 0, &mut b);
        assert!(matches!(out, Verdict::Unproven));
        assert_eq!(b.solves, 1);
        assert_eq!(counted(), (7, 2));

        // Routable on round 3: the mapping, and the two choices blocked
        // are the two the backend returned.
        let mut b = Scripted::new([all(0), all(1), all(2)]);
        match cegar(&ctx, &space, ii, 5, &mut b) {
            Verdict::Mapped(m) => assert_eq!(m, mapped),
            _ => panic!("round 3 must map"),
        }
        assert_eq!(b.solves, 3);
        assert_eq!(b.blocked, [all(0).unwrap(), all(1).unwrap()]);
        // A probe that maps is no give-up; every solve is a round.
        assert_eq!(counted(), (10, 2));

        // A space the cap cut refutes nothing, even on round 1.
        space.cut = true;
        let mut b = Scripted::new([None]);
        let out = cegar(&ctx, &space, ii, 5, &mut b);
        assert!(matches!(out, Verdict::Unproven));
        assert_eq!(counted(), (11, 2));
    }

    #[test]
    fn cegar_loop_polls_the_budget_before_the_backend() {
        // A stopped budget ends the probe unproven before any solve;
        // the sweep's poll, not the probe, names the stop.
        let dfg = kernels::dot_product();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let space = PositionSpace::build(&dfg, &f, 1, 1, None);
        let timed_out = MapConfig {
            time_limit: Duration::from_nanos(1),
            ..MapConfig::fast()
        };
        let ctx = SweepCtx::open(&dfg, &f, &timed_out).unwrap();
        let mut b = Scripted::new([]);
        let out = cegar(&ctx, &space, 1, 5, &mut b);
        assert!(matches!(out, Verdict::Unproven));
        let cfg = MapConfig::fast();
        let ctx = SweepCtx::open(&dfg, &f, &cfg).unwrap();
        ctx.budget.cancel();
        let out = cegar(&ctx, &space, 1, 5, &mut b);
        assert!(matches!(out, Verdict::Unproven));
        assert_eq!(b.solves, 0);
    }

    /// The reference a sweep is held to, with no second encoder: its II
    /// must equal the smallest `k` a *pinned* run (`min_ii == max_ii ==
    /// k` — one II, no carried clauses) maps at, and every pinned `k`
    /// below must fail. A sweep whose carried state changes an answer
    /// breaks one of the two.
    pub(crate) fn sweep_ii_is_the_smallest_pinned_ii(mapper: &dyn Mapper, dfg: &Dfg, f: &Fabric) {
        let swept = (mapper.map(dfg, f, &MapConfig::fast()))
            .unwrap_or_else(|e| panic!("{}: {e}", dfg.name))
            .ii;
        for k in 1..=swept {
            let pinned = MapConfig {
                min_ii: k,
                max_ii: k,
                ..MapConfig::fast()
            };
            match mapper.map(dfg, f, &pinned) {
                Ok(m) => assert_eq!((m.ii, k), (swept, swept), "{}: pinned II {k}", dfg.name),
                Err(e) => assert!(
                    k < swept,
                    "{}: sweep II {swept} fails pinned: {e}",
                    dfg.name
                ),
            }
        }
    }

    #[test]
    fn capability_bitsets_match_fabric_support() {
        let dfg = kernels::dot_product();
        let f = Fabric::adres_like(4, 4);
        let caps = capability_bitsets(&dfg, &f);
        assert_eq!(caps.len(), dfg.node_count());
        for (n, row) in dfg.node_ids().zip(&caps) {
            for (pe, &ok) in f.pe_ids().zip(row) {
                assert_eq!(ok, f.supports(pe, dfg.op(n)));
            }
        }
    }

    #[test]
    fn compatibility_is_hop_and_latency() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let topo = TopologyCache::build(&f);
        // pe0 -> pe3 is 3 hops.
        let src = OpKind::Add;
        assert!(edge_compatible(
            &f,
            &topo,
            4,
            src,
            0,
            (PeId(0), 0),
            (PeId(3), 4)
        ));
        assert!(!edge_compatible(
            &f,
            &topo,
            4,
            src,
            0,
            (PeId(0), 0),
            (PeId(3), 2)
        ));
        // Carried edge at dist 1 gains ii cycles of slack.
        assert!(edge_compatible(
            &f,
            &topo,
            4,
            src,
            1,
            (PeId(0), 0),
            (PeId(3), 0)
        ));
        // Consumption before ready is never compatible.
        assert!(!edge_compatible(
            &f,
            &topo,
            4,
            src,
            0,
            (PeId(0), 5),
            (PeId(0), 3)
        ));
    }
}
