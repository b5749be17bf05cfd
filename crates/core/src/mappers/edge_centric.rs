//! Edge-centric modulo scheduling (EMS lineage — Park et al.,
//! PACT 2008).
//!
//! Where node-centric schedulers pick a slot for an operation and then
//! check that its edges route, EMS inverts the loop: the *router*
//! decides placement. For each operation, a space-time Dijkstra is run
//! from every placed producer; the operation lands on the `(pe, cycle)`
//! whose summed route cost is lowest. Placement is a by-product of
//! routing.

use super::state::{priority_order, SchedState};
use super::sweep::{SweepCtx, TemporalSearch, Verdict};
use crate::mapper::Family;
use crate::mapping::Mapping;
use crate::route::STEP_COST;
use cgra_arch::{Fabric, PeId, SpaceTime, TopologyCache};
use cgra_ir::NodeId;

/// The edge-centric mapper.
#[derive(Debug, Clone, Default)]
pub struct EdgeCentric;

/// Time window (in IIs) scanned per operation.
const WINDOW_IIS: u32 = 3;

/// Cost of the cheapest route from `(from, tr)` to every `(pe, t)` in
/// `tr..=t_max`, as a dense grid (`u64::MAX` = unreachable). This is
/// the single-source profile EMS uses to steer placement.
///
/// Every cell with a free register costs one [`STEP_COST`] to enter and
/// a full one cannot be entered, so every route to step `s` costs
/// `STEP_COST · (s + 1)`: the field is reachability, swept one step at
/// a time (stay put, or hop along a CSR link into a cell with
/// headroom). No search order is involved, because the field records
/// no predecessor.
fn route_cost_field(
    fabric: &Fabric,
    topo: &TopologyCache,
    st: &SpaceTime,
    from: PeId,
    tr: u32,
    t_max: u32,
) -> Vec<Vec<u64>> {
    let span = (t_max.saturating_sub(tr)) as usize + 1;
    let n = fabric.num_pes();
    let mut dist = vec![vec![u64::MAX; n]; span];
    let open = |pe: PeId, t: u32| st.reg_headroom(pe, t) > 0;
    if !open(from, tr) {
        return dist;
    }
    dist[0][from.index()] = STEP_COST;
    for step in 1..span {
        let (done, rest) = dist.split_at_mut(step);
        let (last, row) = (&done[step - 1], &mut rest[0]);
        let t = tr + step as u32;
        let cost = STEP_COST * (step as u64 + 1);
        for pe in fabric.pe_ids().filter(|pe| last[pe.index()] != u64::MAX) {
            for &nxt in topo.neighbors(pe).iter().chain(std::iter::once(&pe)) {
                if row[nxt.index()] == u64::MAX && open(nxt, t) {
                    row[nxt.index()] = cost;
                }
            }
        }
    }
    dist
}

impl EdgeCentric {
    fn schedule(&self, ctx: &SweepCtx<'_>, ii: u32) -> Option<Mapping> {
        let (dfg, fabric, topo) = (ctx.dfg, ctx.fabric, &*ctx.topo);
        let mut state = SchedState::new(ctx, ii);
        for n in priority_order(dfg, fabric).0 {
            if ctx.budget.expired() {
                return None;
            }
            let (est, window_end) = state.window(n, WINDOW_IIS)?;

            // Build route-cost fields from every placed dist-0 producer.
            let producers: Vec<(NodeId, PeId, u32)> = dfg
                .in_edges(n)
                .filter(|(_, e)| e.dist == 0 && e.src != n)
                .filter_map(|(_, e)| {
                    state
                        .placed(e.src)
                        .map(|p| (e.src, p.pe, p.time + fabric.latency_of(dfg.op(e.src))))
                })
                .collect();
            let fields: Vec<Vec<Vec<u64>>> = producers
                .iter()
                .map(|&(_, pe, tr)| route_cost_field(fabric, topo, &state.st, pe, tr, window_end))
                .collect();

            // Score every (t, pe): summed producer route costs.
            let op = dfg.op(n);
            let mut candidates: Vec<(u64, u32, PeId)> = Vec::new();
            for t in est..=window_end {
                for pe in fabric.pe_ids() {
                    if !fabric.supports(pe, op) || !state.st.fu_free(pe, t) {
                        continue;
                    }
                    let mut cost = 0u64;
                    let mut reachable = true;
                    for (f, &(_, _, tr)) in fields.iter().zip(&producers) {
                        if t < tr {
                            reachable = false;
                            break;
                        }
                        let step = (t - tr) as usize;
                        match f.get(step).map(|row| row[pe.index()]) {
                            Some(c) if c != u64::MAX => cost += c,
                            _ => {
                                reachable = false;
                                break;
                            }
                        }
                    }
                    if !reachable {
                        continue;
                    }
                    // Prefer earlier slots and short future wires.
                    cost += t as u64;
                    candidates.push((cost, t, pe));
                }
            }
            candidates.sort();
            let mut placed = false;
            for (_, t, pe) in candidates.into_iter().take(48) {
                if state.try_place(n, pe, t) {
                    placed = true;
                    break;
                }
            }
            if !placed {
                return None;
            }
        }
        state.into_mapping()
    }
}

impl TemporalSearch for EdgeCentric {
    const NAME: &'static str = "edge-centric";
    const FAMILY: Family = Family::Heuristic;
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Verdict {
        let m = self.schedule(ctx, ii);
        m.inspect(|_| ctx.incumbent(Self::NAME, ii, ii as f64))
            .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::validate::validate;
    use cgra_arch::Topology;
    use cgra_ir::kernels;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The heap Dijkstra the sweep replaced, kept as its reference.
    fn heap_route_cost_field(
        fabric: &Fabric,
        topo: &TopologyCache,
        st: &SpaceTime,
        from: PeId,
        tr: u32,
        t_max: u32,
    ) -> Vec<Vec<u64>> {
        let span = (t_max.saturating_sub(tr)) as usize + 1;
        let n = fabric.num_pes();
        let mut dist = vec![vec![u64::MAX; n]; span];
        let enter = |pe: PeId, t: u32| (st.reg_headroom(pe, t) > 0).then_some(100);
        if enter(from, tr).is_none() {
            return dist;
        }
        dist[0][from.index()] = 100;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((100u64, from.0, 0usize)));
        while let Some(std::cmp::Reverse((d, pe_raw, step))) = heap.pop() {
            let pe = PeId(pe_raw);
            if d > dist[step][pe.index()] || step + 1 == span {
                continue;
            }
            let t_next = tr + step as u32 + 1;
            for &nxt in topo.neighbors(pe).iter().chain(std::iter::once(&pe)) {
                if let Some(c) = enter(nxt, t_next) {
                    let nd = d + c;
                    if nd < dist[step + 1][nxt.index()] {
                        dist[step + 1][nxt.index()] = nd;
                        heap.push(std::cmp::Reverse((nd, nxt.0, step + 1)));
                    }
                }
            }
        }
        dist
    }

    const TOPOLOGIES: [Topology; 3] = [Topology::Mesh, Topology::Torus, Topology::OneHop];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        #[test]
        fn cost_field_sweep_matches_the_heap_reference(
            topology in 0usize..TOPOLOGIES.len(),
            rows in 1u16..=6,
            cols in 1u16..=6,
            ii in 1u32..=4,
            rf_size in 1u32..=3,
            density in 0u32..=4,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fabric = Fabric::homogeneous(rows, cols, TOPOLOGIES[topology]);
            fabric.rf_size = rf_size;
            let topo = TopologyCache::build(&fabric);
            // Registers from empty to every cell taken, some of them
            // full or over-subscribed.
            let mut st = SpaceTime::new(&fabric, ii);
            for pe in fabric.pe_ids() {
                for slot in 0..ii {
                    if rng.random_range(0..4u32) < density {
                        for _ in 0..rng.random_range(1..=rf_size + 1) {
                            st.occupy_reg(pe, slot);
                        }
                    }
                }
            }
            let n = fabric.num_pes() as u16;
            for _ in 0..8 {
                let from = PeId(rng.random_range(0..n));
                let tr = rng.random_range(1..=6u32);
                let t_max = if rng.random_bool(0.1) {
                    rng.random_range(0..tr) // an empty window
                } else {
                    tr + rng.random_range(0..=8u32)
                };
                if rng.random_bool(0.15) {
                    while st.reg_headroom(from, tr) > 0 {
                        st.occupy_reg(from, tr); // a blocked start cell
                    }
                }
                prop_assert_eq!(
                    route_cost_field(&fabric, &topo, &st, from, tr, t_max),
                    heap_route_cost_field(&fabric, &topo, &st, from, tr, t_max),
                    "{:?} {}x{} ii {} rf {}: {:?}@{}..={}",
                    TOPOLOGIES[topology], rows, cols, ii, rf_size, from, tr, t_max
                );
            }
        }
    }

    #[test]
    fn maps_suite_on_4x4() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::suite() {
            let m = EdgeCentric
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn placement_follows_routability() {
        // On a 1-wide fabric (a 1x4 row), routes are forced through the
        // line; EMS must still find them.
        let f = Fabric::homogeneous(1, 4, Topology::Mesh);
        let dfg = kernels::accumulate();
        let m = EdgeCentric.map(&dfg, &f, &MapConfig::fast()).unwrap();
        validate(&m, &dfg, &f).unwrap();
    }

    #[test]
    fn respects_io_policy() {
        let f = Fabric::adres_like(4, 4);
        let dfg = kernels::dot_product();
        let m = EdgeCentric.map(&dfg, &f, &MapConfig::fast()).unwrap();
        validate(&m, &dfg, &f).unwrap();
        for (id, node) in dfg.nodes() {
            if matches!(
                node.op,
                cgra_ir::OpKind::Input(_) | cgra_ir::OpKind::Output(_)
            ) {
                assert!(f.is_border(m.placement(id).pe));
            }
        }
    }
}
