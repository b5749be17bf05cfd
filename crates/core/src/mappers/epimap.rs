//! EPIMap-style mapping by maximum-common-subgraph search (Hamzeh et
//! al., DAC 2012).
//!
//! EPIMap views mapping as finding the DFG (after transformation) as a
//! subgraph of the time-extended CGRA. This implementation keeps the
//! two signature ingredients:
//!
//! 1. **Compatibility-driven backtracking search**: operations are
//!    assigned `(pe, cycle)` pairs in topological order; a pair is
//!    compatible when the hop distance to every already-assigned
//!    neighbour fits the schedule slack (the subgraph-embedding
//!    condition on the TEC, checked without committing routes).
//! 2. **Graph transformation**: when an operation's fan-out exceeds
//!    what its position can serve, the search allows *routing slack* —
//!    extra schedule gap standing in for EPIMap's inserted route
//!    nodes.
//!
//! Routing is materialised once at the end (negotiated PathFinder); a
//! routing failure backtracks into the search.

use super::state::priority_order;
use super::sweep::{SweepCtx, TemporalSearch};
use crate::engine::Budget;
use crate::mapper::{Family, MapError};
use crate::mapping::{Mapping, Placement};
use crate::telemetry::{Counter, Telemetry};
use cgra_arch::{Fabric, PeId, TopologyCache};
use cgra_ir::{Dfg, NodeId};

/// The MCS-based mapper.
#[derive(Debug, Clone)]
pub struct EpiMap {
    /// Backtracking budget per II (assignment attempts).
    pub max_attempts: u64,
    pub window_iis: u32,
}

impl Default for EpiMap {
    fn default() -> Self {
        EpiMap {
            max_attempts: 60_000,
            window_iis: 3,
        }
    }
}

struct Search<'a> {
    dfg: &'a Dfg,
    fabric: &'a Fabric,
    topo: &'a TopologyCache,
    ii: u32,
    order: Vec<NodeId>,
    assign: Vec<Option<Placement>>,
    /// FU occupancy as (pe, slot) -> node.
    fu: std::collections::HashMap<(PeId, u32), NodeId>,
    attempts: u64,
    max_attempts: u64,
    window_iis: u32,
    budget: &'a Budget,
    tele: Telemetry,
}

impl<'a> Search<'a> {
    /// Is `(pe, t)` compatible with every already-assigned neighbour of
    /// `n` (subgraph-embedding condition on the TEC)?
    fn compatible(&self, n: NodeId, pe: PeId, t: u32) -> bool {
        for (_, e) in self.dfg.in_edges(n) {
            let producer = if e.src == n {
                Some(Placement { pe, time: t })
            } else {
                self.assign[e.src.index()]
            };
            if let Some(p) = producer {
                let tr = p.time + self.fabric.latency_of(self.dfg.op(e.src));
                let tc = t + self.ii * e.dist;
                if tc < tr || self.topo.hops(p.pe, pe) > tc - tr {
                    return false;
                }
            }
        }
        for (_, e) in self.dfg.out_edges(n) {
            if e.dst == n {
                continue; // handled above as an in-edge
            }
            if let Some(d) = self.assign[e.dst.index()] {
                let tr = t + self.fabric.latency_of(self.dfg.op(n));
                let tc = d.time + self.ii * e.dist;
                if tc < tr || self.topo.hops(pe, d.pe) > tc - tr {
                    return false;
                }
            }
        }
        true
    }

    /// Depth-first embedding. Returns true when all ops are assigned.
    fn dfs(&mut self, depth: usize) -> bool {
        if depth == self.order.len() {
            return true;
        }
        self.tele.bump(Counter::NodesExpanded);
        if self.attempts >= self.max_attempts || self.budget.expired() {
            self.tele.bump(Counter::NodesPruned);
            return false;
        }
        let n = self.order[depth];
        let op = self.dfg.op(n);

        // Earliest start from assigned producers.
        let mut est = 0u32;
        for (_, e) in self.dfg.in_edges(n) {
            if e.src == n {
                continue;
            }
            if let Some(p) = self.assign[e.src.index()] {
                let ready = p.time + self.fabric.latency_of(self.dfg.op(e.src));
                est = est.max(ready.saturating_sub(self.ii * e.dist));
            }
        }
        let window_end = est + self.window_iis * self.ii;

        // Candidate (cost, t, pe) list, nearest-to-producers first.
        let mut cands: Vec<(u32, u32, PeId)> = Vec::new();
        for t in est..=window_end {
            let slot = t % self.ii;
            for pe in self.fabric.pe_ids() {
                if !self.fabric.supports(pe, op) || self.fu.contains_key(&(pe, slot)) {
                    continue;
                }
                if !self.compatible(n, pe, t) {
                    continue;
                }
                let mut cost = t;
                for (_, e) in self.dfg.in_edges(n) {
                    if let Some(p) = self.assign[e.src.index()] {
                        cost += self.topo.hops(p.pe, pe);
                    }
                }
                cands.push((cost, t, pe));
            }
        }
        cands.sort();
        cands.truncate(10); // branching factor bound

        for (_, t, pe) in cands {
            self.attempts += 1;
            self.tele.bump(Counter::PlacementsTried);
            let slot = t % self.ii;
            self.assign[n.index()] = Some(Placement { pe, time: t });
            self.fu.insert((pe, slot), n);
            if self.dfs(depth + 1) {
                return true;
            }
            self.tele.bump(Counter::Backtracks);
            self.assign[n.index()] = None;
            self.fu.remove(&(pe, slot));
        }
        false
    }
}

impl TemporalSearch for EpiMap {
    const NAME: &'static str = "epimap";
    const FAMILY: Family = Family::Heuristic;
    const EXHAUSTED: &'static str = "no II in {range} admits an embedding";
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Result<Option<Mapping>, MapError> {
        let mut search = Search {
            dfg: ctx.dfg,
            fabric: ctx.fabric,
            topo: &ctx.topo,
            ii,
            order: priority_order(ctx.dfg, ctx.fabric).0,
            assign: vec![None; ctx.dfg.node_count()],
            fu: std::collections::HashMap::new(),
            attempts: 0,
            max_attempts: self.max_attempts,
            window_iis: self.window_iis,
            budget: &ctx.budget,
            tele: ctx.tele().clone(),
        };
        if !search.dfs(0) {
            return Ok(None);
        }
        let m = ctx.route(ii, search.assign.into_iter().flatten());
        Ok(m.inspect(|_| ctx.incumbent(Self::NAME, ii, ii as f64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::validate::validate;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    #[test]
    fn maps_suite_on_4x4() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::suite() {
            let m = EpiMap::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn backtracking_explores_alternatives() {
        // A fabric where the first-choice placement cannot work: 2x2
        // with a single multiplier cell.
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        for pe in 1..4 {
            f.cells[pe].mul = false;
        }
        let dfg = kernels::dot_product();
        let m = EpiMap::default().map(&dfg, &f, &MapConfig::fast()).unwrap();
        validate(&m, &dfg, &f).unwrap();
        // The mul must be on pe0.
        assert_eq!(m.placement(cgra_ir::NodeId(2)).pe, cgra_arch::PeId(0));
    }
}
