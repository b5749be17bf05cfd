//! Spatial mapping, greedy baseline: one operation per PE, II = 1.
//!
//! Spatial computation is the FPGA-like mode of the survey's Fig. 3
//! ("spatial mapping"): every PE executes the same operation every
//! cycle and data streams through the array. Mapping reduces to the
//! binding problem plus routing; the schedule follows from the longest
//! dependence path including hop delays.

use crate::mapper::{Family, MapConfig, MapError, Mapper};
use crate::mapping::{Mapping, Placement};
use crate::route::route_all_with;
use crate::telemetry::Telemetry;
use cgra_arch::{Fabric, PeId, TopologyCache};
use cgra_ir::{Dfg, NodeId};

/// BFS placement: operations in topological order grab the nearest
/// capability-feasible free PE to their predecessors.
#[derive(Debug, Clone, Default)]
pub struct SpatialGreedy {
    /// Ablation: disable negotiated routing (single feasible pass).
    pub plain_routing: bool,
}

/// Solve issue times for a fixed spatial binding: the difference
/// constraints `t(dst) + ii·d ≥ t(src) + lat(src) + hops(src,dst)`
/// by Bellman-Ford longest path. Returns `None` on a positive cycle
/// (recurrence too tight for the binding).
pub(crate) fn schedule_times(
    dfg: &Dfg,
    fabric: &Fabric,
    topo: &TopologyCache,
    pes: &[PeId],
    ii: u32,
) -> Option<Vec<u32>> {
    let n = dfg.node_count();
    let mut t = vec![0i64; n];
    for round in 0..=n {
        let mut changed = false;
        for (_, e) in dfg.edges() {
            let lat = fabric.latency_of(dfg.op(e.src)) as i64;
            let hops = topo.hops(pes[e.src.index()], pes[e.dst.index()]) as i64;
            let lb = t[e.src.index()] + lat + hops - (ii as i64) * e.dist as i64;
            if lb > t[e.dst.index()] {
                t[e.dst.index()] = lb;
                changed = true;
            }
        }
        if !changed {
            let min = t.iter().copied().min().unwrap_or(0);
            return Some(t.iter().map(|&x| (x - min) as u32).collect());
        }
        if round == n {
            return None;
        }
    }
    None
}

/// Build a spatial mapping from a one-op-per-PE binding by scheduling
/// and routing it. Shared by the spatial mappers and the meta-heuristics
/// in spatial mode.
pub(crate) fn finish_spatial(
    dfg: &Dfg,
    fabric: &Fabric,
    topo: &TopologyCache,
    pes: &[PeId],
    negotiated: bool,
    tele: &Telemetry,
) -> Option<Mapping> {
    let times = schedule_times(dfg, fabric, topo, pes, 1)?;
    let place: Vec<Placement> = pes
        .iter()
        .zip(&times)
        .map(|(&pe, &time)| Placement { pe, time })
        .collect();
    let routes = route_all_with(fabric, topo, dfg, &place, 1, 12, negotiated, tele)?;
    Some(Mapping {
        ii: 1,
        place,
        routes,
    })
}

impl Mapper for SpatialGreedy {
    fn name(&self) -> &'static str {
        "spatial-greedy"
    }

    fn family(&self) -> Family {
        Family::Heuristic
    }

    fn is_spatial(&self) -> bool {
        true
    }

    fn map(&self, dfg: &Dfg, fabric: &Fabric, cfg: &MapConfig) -> Result<Mapping, MapError> {
        dfg.validate()
            .map_err(|e| MapError::Unsupported(e.to_string()))?;
        if dfg.node_count() > fabric.num_pes() {
            return Err(MapError::infeasible(format!(
                "{} ops > {} PEs",
                dfg.node_count(),
                fabric.num_pes()
            )));
        }
        let topo = cfg.topo_for(fabric);
        let order = dfg
            .topo_order()
            .map_err(|n| MapError::Unsupported(format!("zero-distance cycle at {n}")))?;

        let mut pes: Vec<Option<PeId>> = vec![None; dfg.node_count()];
        let mut used = vec![false; fabric.num_pes()];
        for &n in &order {
            let op = dfg.op(n);
            let best = fabric
                .pe_ids()
                .filter(|&pe| !used[pe.index()] && fabric.supports(pe, op))
                .min_by_key(|&pe| {
                    let mut cost = 0u32;
                    let mut any = false;
                    for (_, e) in dfg.in_edges(n) {
                        if let Some(p) = pes[e.src.index()] {
                            cost += topo.hops(p, pe);
                            any = true;
                        }
                    }
                    // Sources anchor near the border (I/O side) centre.
                    if !any {
                        cost = topo.hops(PeId(0), pe);
                    }
                    (cost, pe.0)
                });
            match best {
                Some(pe) => {
                    used[pe.index()] = true;
                    pes[n.index()] = Some(pe);
                }
                None => return Err(MapError::infeasible(format!("no free capable PE for {n}"))),
            }
        }
        let pes: Vec<PeId> = pes.into_iter().map(|p| p.unwrap()).collect();
        let m = finish_spatial(
            dfg,
            fabric,
            &topo,
            &pes,
            !self.plain_routing,
            &cfg.telemetry,
        )
        .ok_or_else(|| MapError::infeasible("binding found but routing failed"))?;
        cfg.telemetry.incumbent("spatial-greedy", m.ii, m.ii as f64);
        Ok(m)
    }
}

/// Expose a helper for tests and other mappers: all input nodes.
#[allow(dead_code)]
pub(crate) fn source_nodes(dfg: &Dfg) -> Vec<NodeId> {
    dfg.node_ids().filter(|&n| dfg.op(n).is_source()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate, validate_spatial};
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    fn mesh() -> Fabric {
        Fabric::homogeneous(4, 4, Topology::Mesh)
    }

    #[test]
    fn dot_product_spatial() {
        let dfg = kernels::dot_product();
        let f = mesh();
        let m = SpatialGreedy::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        validate_spatial(&m, &dfg, &f).unwrap();
        assert_eq!(m.ii, 1);
    }

    #[test]
    fn too_many_ops_rejected() {
        let dfg = kernels::unrolled_mac(8); // 33+ ops
        let f = Fabric::homogeneous(2, 2, Topology::Mesh);
        assert!(matches!(
            SpatialGreedy::default().map(&dfg, &f, &MapConfig::fast()),
            Err(MapError::Infeasible(_))
        ));
    }

    #[test]
    fn suite_small_kernels_spatially_mappable() {
        let f = Fabric::homogeneous(6, 6, Topology::Mesh);
        for dfg in [
            kernels::dot_product(),
            kernels::accumulate(),
            kernels::sad(),
            kernels::threshold(),
            kernels::horner4(),
            kernels::fir(3),
        ] {
            let m = SpatialGreedy::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate_spatial(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn schedule_times_respects_hops() {
        let dfg = kernels::horner4();
        let f = mesh();
        let topo = TopologyCache::build(&f);
        // Everything on one diagonal-ish walk of distinct PEs.
        let pes: Vec<PeId> = (0..dfg.node_count() as u16).map(PeId).collect();
        let times = schedule_times(&dfg, &f, &topo, &pes, 1).unwrap();
        for (_, e) in dfg.edges() {
            let lat = f.latency_of(dfg.op(e.src));
            let h = topo.hops(pes[e.src.index()], pes[e.dst.index()]);
            assert!(
                times[e.dst.index()] + e.dist >= times[e.src.index()] + lat + h,
                "edge violated"
            );
        }
    }

    #[test]
    fn tight_recurrence_on_distant_pes_fails_scheduling() {
        // accumulate's self edge needs hop 0; placing a 1-dist carried
        // cycle across distant PEs is infeasible at II=1.
        let mut dfg = Dfg::new("farrec");
        let a = dfg.add_node(cgra_ir::OpKind::Not);
        let b = dfg.add_node(cgra_ir::OpKind::Not);
        dfg.connect(a, b, 0);
        dfg.connect_carried(b, a, 0, 1, vec![0]);
        let f = mesh();
        let topo = TopologyCache::build(&f);
        // a at pe0, b at pe15: cycle latency 2 + hops 12 > d=1 at II=1.
        let times = schedule_times(&dfg, &f, &topo, &[PeId(0), PeId(15)], 1);
        assert!(times.is_none());
        // Adjacent PEs still fail (cycle latency 2 + 2 hops > 1) —
        // same-PE placement is impossible spatially, so this DFG is
        // spatially unmappable; the mapper must say infeasible.
        let r = SpatialGreedy::default().map(&dfg, &f, &MapConfig::fast());
        assert!(r.is_err());
    }

    #[test]
    fn plain_routing_ablation_runs() {
        let dfg = kernels::sad();
        let f = mesh();
        let m = SpatialGreedy {
            plain_routing: true,
        }
        .map(&dfg, &f, &MapConfig::fast());
        if let Ok(m) = m {
            validate(&m, &dfg, &f).unwrap();
        }
        // Single-pass routing may legitimately fail; both outcomes OK.
    }
}
