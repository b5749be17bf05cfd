//! Graph-minor mapping (Chen & Mitra, ACM TRETS 2014).
//!
//! The DFG is embedded as a *minor* of the time-extended CGRA: each
//! operation owns a connected branch set of TEC nodes (its issue slot
//! plus the registers its value routes through), and DFG edges become
//! TEC edges between branch sets. Operationally the algorithm proceeds
//! level by level: the operations of each schedule level are matched
//! to PEs as a group (cheapest-cost greedy matching against the
//! previous level's branch sets), levels are re-matched under a
//! different permutation when the downstream embedding fails, and the
//! branch sets are materialised by the router at the end.

use super::sweep::{SweepCtx, TemporalSearch, Verdict};
use crate::mapper::Family;
use crate::mapping::{Mapping, Placement};
use crate::telemetry::Counter;
use cgra_arch::PeId;
use cgra_ir::{graph, NodeId, OpKind};

/// The level-matching minor-embedding mapper.
#[derive(Debug, Clone, Default)]
pub struct GraphMinor;

/// Matching permutations tried per level before backtracking.
const RETRIES_PER_LEVEL: usize = 6;

impl GraphMinor {
    /// Match every level at `spacing` cycles per level, then route.
    fn embed(
        &self,
        ctx: &SweepCtx<'_>,
        ii: u32,
        by_level: &[Vec<NodeId>],
        spacing: u32,
    ) -> Option<Mapping> {
        let (dfg, fabric, topo) = (ctx.dfg, ctx.fabric, &*ctx.topo);
        let mut place: Vec<Option<Placement>> = vec![None; dfg.node_count()];
        let mut fu: std::collections::HashSet<(PeId, u32)> = std::collections::HashSet::new();

        for (lvl, ops) in by_level.iter().enumerate() {
            if ctx.budget.expired() {
                return None;
            }
            let t = lvl as u32 * spacing;
            let slot = t % ii;
            let mut matched = false;
            // Try a few greedy matchings with rotated op order.
            for rot in 0..RETRIES_PER_LEVEL {
                let mut trial_fu = fu.clone();
                let mut trial_place = place.clone();
                let mut ok = true;
                let k = ops.len();
                for i in 0..k {
                    let n = ops[(i + rot) % k];
                    let op = dfg.op(n);
                    // Cheapest compatible PE w.r.t. placed producers.
                    let best = fabric
                        .pe_ids()
                        .filter(|&pe| fabric.supports(pe, op) && !trial_fu.contains(&(pe, slot)))
                        .filter(|&pe| {
                            // Minor condition: slack ≥ hop distance for
                            // every placed neighbour.
                            dfg.in_edges(n).all(|(_, e)| {
                                if e.src == n {
                                    return true;
                                }
                                match trial_place[e.src.index()] {
                                    Some(p) => {
                                        let tr = p.time + fabric.latency_of(dfg.op(e.src));
                                        let tc = t + ii * e.dist;
                                        tc >= tr && topo.hops(p.pe, pe) <= tc - tr
                                    }
                                    None => true,
                                }
                            })
                        })
                        .min_by_key(|&pe| {
                            let mut c = 0u32;
                            for (_, e) in dfg.in_edges(n) {
                                if let Some(p) = trial_place[e.src.index()] {
                                    c += topo.hops(p.pe, pe);
                                }
                            }
                            (c, pe.0)
                        });
                    match best {
                        Some(pe) => {
                            ctx.tele().bump(Counter::PlacementsTried);
                            trial_fu.insert((pe, slot));
                            trial_place[n.index()] = Some(Placement { pe, time: t });
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    fu = trial_fu;
                    place = trial_place;
                    matched = true;
                    break;
                }
            }
            if !matched {
                return None;
            }
        }
        // Materialise branch sets (routes).
        ctx.route(ii, place.into_iter().collect::<Option<Vec<_>>>()?)
    }
}

impl TemporalSearch for GraphMinor {
    const NAME: &'static str = "graph-minor";
    const FAMILY: Family = Family::Heuristic;
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Verdict {
        let lat = |op: OpKind| ctx.fabric.latency_of(op);
        let levels = graph::asap(ctx.dfg, &lat);
        let max_level = levels.iter().copied().max().unwrap_or(0);
        // Group ops by level.
        let mut by_level: Vec<Vec<NodeId>> = vec![Vec::new(); max_level as usize + 1];
        for n in ctx.dfg.node_ids() {
            by_level[levels[n.index()] as usize].push(n);
        }
        // Time of a level: spread levels `spacing` cycles apart so hops
        // have slack; spacing grows on retry.
        for spacing in 1..=3u32 {
            if ctx.budget.expired_now() {
                break;
            }
            if let Some(m) = self.embed(ctx, ii, &by_level, spacing) {
                ctx.incumbent(Self::NAME, ii, ii as f64);
                return Verdict::Mapped(m);
            }
        }
        Verdict::Unproven
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::validate::validate;
    use cgra_arch::{Fabric, Topology};
    use cgra_ir::kernels;

    #[test]
    fn maps_most_of_suite_on_4x4() {
        // Level matching is the weakest heuristic here; it must map the
        // easy kernels and must never return an invalid mapping.
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let mut successes = 0;
        for dfg in kernels::suite() {
            if let Ok(m) = GraphMinor.map(&dfg, &f, &MapConfig::fast()) {
                validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
                successes += 1;
            }
        }
        assert!(successes >= 8, "only {successes} kernels mapped");
    }

    #[test]
    fn level_structure_respected() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::horner4();
        let m = GraphMinor.map(&dfg, &f, &MapConfig::fast()).unwrap();
        validate(&m, &dfg, &f).unwrap();
    }
}
