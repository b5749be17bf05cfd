//! Shared machinery for the exact mappers (ILP, B&B, CP, SAT, SMT):
//! the candidate position space and the pairwise compatibility
//! predicate, plus the CEGAR finishing loop that turns a chosen
//! placement into a routed mapping.
//!
//! Exactness is *relative to the candidate space*: positions are
//! restricted to a scheduling window derived from ASAP levels (and
//! optionally the K nearest PEs), which is the standard
//! region-pruning of published ILP/SAT mapping formulations. The
//! compatibility predicate (`slack ≥ hop distance`) is necessary but
//! not sufficient for routability; register congestion is handled by
//! the CEGAR loop (route, and on failure block the exact placement and
//! re-solve).

use crate::telemetry::{Counter, Telemetry};
use cgra_arch::{Fabric, PeId, TopologyCache};
use cgra_ir::{graph, Dfg, OpKind};
use cgra_solver::SolverStats;

/// A candidate `(pe, time)` pair.
pub(crate) type Pos = (PeId, u32);

/// Candidate positions per operation at a fixed II.
pub(crate) struct PositionSpace {
    pub positions: Vec<Vec<Pos>>,
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
        PositionSpace { positions }
    }
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
    let tr = a.1 + fabric.latency_of(src_op);
    let tc = b.1 + ii * dist;
    tc >= tr && topo.hops(a.0, b.0) <= tc - tr
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
    tele.add(Counter::SolverWarmPivotsSaved, s.warm_pivots_saved);
}

/// The union position space of an II sweep: per-II candidate lists
/// (each computed exactly as the from-scratch [`PositionSpace`] would)
/// merged into one deduplicated list per op, with membership indices
/// back into the union. Incremental mappers encode II-independent
/// structure once over the union and guard per-II constraints by
/// selector literals over each II's membership set.
pub(crate) struct SweepSpace {
    /// Candidate IIs covered, ascending.
    pub iis: Vec<u32>,
    /// `union[op]` = deduplicated candidates across every covered II.
    pub union: Vec<Vec<Pos>>,
    /// `member[k][op]` = indices into `union[op]` of the candidates
    /// that II `iis[k]`'s own space contains, in that space's order.
    pub member: Vec<Vec<Vec<usize>>>,
}

impl SweepSpace {
    pub fn build(
        dfg: &Dfg,
        fabric: &Fabric,
        iis: &[u32],
        window_iis: u32,
        cap: Option<usize>,
    ) -> Self {
        use std::collections::HashMap;
        let spaces: Vec<PositionSpace> = iis
            .iter()
            .map(|&ii| PositionSpace::build(dfg, fabric, ii, window_iis, cap))
            .collect();
        let nops = dfg.node_count();
        let mut union: Vec<Vec<Pos>> = vec![Vec::new(); nops];
        let mut index: Vec<HashMap<Pos, usize>> = vec![HashMap::new(); nops];
        for sp in &spaces {
            for (op, list) in sp.positions.iter().enumerate() {
                for &p in list {
                    index[op].entry(p).or_insert_with(|| {
                        union[op].push(p);
                        union[op].len() - 1
                    });
                }
            }
        }
        let member = spaces
            .iter()
            .map(|sp| {
                sp.positions
                    .iter()
                    .enumerate()
                    .map(|(op, list)| list.iter().map(|p| index[op][p]).collect())
                    .collect()
            })
            .collect();
        SweepSpace {
            iis: iis.to_vec(),
            union,
            member,
        }
    }

    /// Materialise II `iis[k]`'s own position space from the union —
    /// identical, list for list, to what the from-scratch
    /// [`PositionSpace::build`] would produce for that II. Mappers that
    /// cannot hold solver state across IIs still reuse the
    /// II-independent structural work (ASAP levels, capability
    /// filtering, window sorting) through this view.
    pub fn per_ii(&self, k: usize) -> PositionSpace {
        PositionSpace {
            positions: self.member[k]
                .iter()
                .enumerate()
                .map(|(op, ms)| ms.iter().map(|&u| self.union[op][u]).collect())
                .collect(),
        }
    }
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
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

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
        let capped = PositionSpace::build(&dfg, &f, 2, 1, Some(10));
        assert!(capped.positions.iter().all(|p| p.len() == 10));
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
    fn sweep_space_per_ii_matches_from_scratch() {
        // The key lemma behind the incremental mappers' identical-II
        // guarantee: each II's view of the union equals the space a
        // from-scratch encoding would build.
        let dfg = kernels::fir(4);
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let iis = [2u32, 3, 4];
        let sweep = SweepSpace::build(&dfg, &f, &iis, 2, Some(16));
        for (k, &ii) in iis.iter().enumerate() {
            let fresh = PositionSpace::build(&dfg, &f, ii, 2, Some(16));
            assert_eq!(sweep.per_ii(k).positions, fresh.positions, "II {ii}");
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
