//! Shared machinery for the meta-heuristic mappers (SA, GA, QEA).
//!
//! All three search the *binding* space (one PE per operation, the
//! chromosome of GenMap). A binding is evaluated by deriving a legal
//! schedule for it: Bellman-Ford over the dependence difference
//! constraints `t(dst) + II·d ≥ t(src) + lat + hops(pe_src, pe_dst)`,
//! followed by modulo-reservation repair (bump an op's lower bound
//! when its `(pe, slot)` collides and re-solve). The cost function
//! rewards feasibility first, then wirelength — routing is only
//! materialised for candidate champions.

use super::sweep::SweepCtx;
use crate::mapping::Mapping;
use cgra_arch::{Fabric, PeId, TopologyCache};
use cgra_ir::Dfg;

/// Large penalty steps keep the cost lexicographic:
/// capability > schedulability > FU conflicts > wirelength.
const CAP_PENALTY: u64 = 1 << 40;
const SCHED_PENALTY: u64 = 1 << 30;
const CONFLICT_PENALTY: u64 = 1 << 20;

/// Evaluation of one binding at one II.
pub(crate) struct BindingEval {
    pub cost: u64,
    /// Legal issue times when the binding schedules cleanly (champions
    /// re-derive them via `legal_schedule`; kept for diagnostics).
    #[allow(dead_code)]
    pub times: Option<Vec<u32>>,
}

/// Bellman-Ford with per-node lower bounds. Returns `None` on a
/// positive cycle (recurrence unsatisfiable for this binding).
fn bf_times(
    dfg: &Dfg,
    fabric: &Fabric,
    topo: &TopologyCache,
    pes: &[PeId],
    ii: u32,
    lb: &[u32],
) -> Option<Vec<u32>> {
    let n = dfg.node_count();
    let mut t: Vec<i64> = lb.iter().map(|&x| x as i64).collect();
    for round in 0..=n {
        let mut changed = false;
        for (_, e) in dfg.edges() {
            let lat = fabric.latency_of(dfg.op(e.src)) as i64;
            let hops = topo.hops(pes[e.src.index()], pes[e.dst.index()]) as i64;
            let bound = t[e.src.index()] + lat + hops - (ii as i64) * e.dist as i64;
            if bound > t[e.dst.index()] {
                t[e.dst.index()] = bound;
                changed = true;
            }
        }
        if !changed {
            return Some(t.iter().map(|&x| x as u32).collect());
        }
        if round == n {
            return None;
        }
    }
    None
}

/// Derive a conflict-free schedule for `pes` at `ii`, bumping lower
/// bounds to resolve modulo-reservation collisions. `None` if the
/// binding cannot schedule.
pub(crate) fn legal_schedule(
    dfg: &Dfg,
    fabric: &Fabric,
    topo: &TopologyCache,
    pes: &[PeId],
    ii: u32,
) -> Option<Vec<u32>> {
    let n = dfg.node_count();
    // At II = 1 every cycle folds to the same slot: two operations on
    // one PE can never be separated, so duplicate PEs are hopeless.
    if ii == 1 {
        let mut seen = std::collections::HashSet::new();
        if !pes.iter().all(|pe| seen.insert(*pe)) {
            return None;
        }
    }
    let mut lb = vec![0u32; n];
    for _ in 0..(2 * n * ii as usize).max(16) {
        let times = bf_times(dfg, fabric, topo, pes, ii, &lb)?;
        // Find the first FU conflict.
        let mut seen: std::collections::HashMap<(PeId, u32), usize> =
            std::collections::HashMap::new();
        let mut conflict: Option<usize> = None;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (times[i], i));
        for &i in &order {
            let key = (pes[i], times[i] % ii);
            if let Some(&_first) = seen.get(&key) {
                conflict = Some(i);
                break;
            }
            seen.insert(key, i);
        }
        match conflict {
            None => return Some(times),
            Some(i) => {
                lb[i] = times[i] + 1;
                // Cap runaway schedules.
                if lb[i] > 16 * ii + 64 {
                    return None;
                }
            }
        }
    }
    None
}

/// Evaluate a binding: lexicographic cost plus (optionally) the legal
/// times for champions.
pub(crate) fn eval_binding(
    dfg: &Dfg,
    fabric: &Fabric,
    topo: &TopologyCache,
    pes: &[PeId],
    ii: u32,
) -> BindingEval {
    // Capability violations.
    let mut cost = 0u64;
    for (id, node) in dfg.nodes() {
        if !fabric.supports(pes[id.index()], node.op) {
            cost += CAP_PENALTY;
        }
    }
    if cost > 0 {
        return BindingEval { cost, times: None };
    }
    // Wirelength always contributes (ties broken by shorter wires).
    let wire: u64 = dfg
        .edges()
        .map(|(_, e)| topo.hops(pes[e.src.index()], pes[e.dst.index()]) as u64)
        .sum();
    match legal_schedule(dfg, fabric, topo, pes, ii) {
        Some(times) => {
            let makespan = times.iter().copied().max().unwrap_or(0) as u64;
            BindingEval {
                cost: wire + makespan,
                times: Some(times),
            }
        }
        None => {
            // Distinguish "recurrence infeasible" from "conflicts
            // unresolvable" only by magnitude; both need fixing. Count
            // the PE collisions so the search has a gradient.
            let base = bf_times(dfg, fabric, topo, pes, ii, &vec![0; dfg.node_count()]);
            let mut dups = 0u64;
            let mut seen = std::collections::HashMap::new();
            for pe in pes {
                *seen.entry(*pe).or_insert(0u64) += 1;
            }
            for c in seen.values() {
                dups += c.saturating_sub(1);
            }
            let penalty = if base.is_none() {
                SCHED_PENALTY
            } else {
                CONFLICT_PENALTY
            };
            BindingEval {
                cost: penalty + dups * (CONFLICT_PENALTY / 8) + wire,
                times: None,
            }
        }
    }
}

/// Materialise a mapping from a binding: derive its legal schedule,
/// then route. `None` if it cannot schedule or cannot route.
pub(crate) fn finish_binding(ctx: &SweepCtx<'_>, ii: u32, pes: &[PeId]) -> Option<Mapping> {
    let times = legal_schedule(ctx.dfg, ctx.fabric, &ctx.topo, pes, ii)?;
    ctx.route(ii, pes.iter().copied().zip(times))
}

/// Random capability-feasible binding.
pub(crate) fn random_binding<R: rand::Rng>(dfg: &Dfg, fabric: &Fabric, rng: &mut R) -> Vec<PeId> {
    dfg.node_ids()
        .map(|n| {
            let op = dfg.op(n);
            let feasible: Vec<PeId> = fabric
                .pe_ids()
                .filter(|&pe| fabric.supports(pe, op))
                .collect();
            if feasible.is_empty() {
                PeId(0)
            } else {
                feasible[rng.random_range(0..feasible.len())]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_ir::kernels;
    use rand::SeedableRng;

    #[test]
    fn legal_schedule_resolves_conflicts() {
        let dfg = kernels::sad();
        let f = Fabric::homogeneous(2, 2, Topology::Mesh);
        let topo = TopologyCache::build(&f);
        // Everything on pe0/pe1 alternating: guaranteed FU collisions
        // that repair must resolve.
        let pes: Vec<PeId> = dfg.node_ids().map(|n| PeId((n.0 % 2) as u16)).collect();
        let ii = 4;
        if let Some(times) = legal_schedule(&dfg, &f, &topo, &pes, ii) {
            let mut seen = std::collections::HashSet::new();
            for (i, &t) in times.iter().enumerate() {
                assert!(seen.insert((pes[i], t % ii)), "collision at op {i}");
            }
        }
    }

    #[test]
    fn eval_ranks_feasible_below_infeasible() {
        let dfg = kernels::dot_product();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let topo = TopologyCache::build(&f);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let good = random_binding(&dfg, &f, &mut rng);
        let eval_good = eval_binding(&dfg, &f, &topo, &good, 2);
        // An adversarial binding violating capability on a mul-less fabric.
        let mut f2 = f.clone();
        for c in &mut f2.cells {
            c.mul = false;
        }
        let eval_bad = eval_binding(&dfg, &f2, &topo, &good, 2);
        assert!(eval_bad.cost > eval_good.cost);
    }

    #[test]
    fn finish_binding_round_trips() {
        let dfg = kernels::accumulate();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let cfg = crate::MapConfig::fast();
        let ctx = SweepCtx::open(&dfg, &f, &cfg).unwrap();
        // A sane binding: chain on adjacent PEs.
        let pes = vec![PeId(0), PeId(1), PeId(2)];
        let m = finish_binding(&ctx, 2, &pes).unwrap();
        crate::validate::validate(&m, &dfg, &f).unwrap();
    }
}
