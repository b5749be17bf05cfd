//! Graph-drawing-based spatial mapping (Yoon et al., SPKM lineage,
//! IEEE TVLSI 2009).
//!
//! The DFG is drawn: each operation gets a 2-D coordinate — row from
//! its ASAP level (dependence depth flows down the array), column from
//! the barycenter of its predecessors' columns (minimising edge
//! length) — and the drawing is then legalised onto the fabric by
//! snapping every operation to the nearest free, capability-feasible
//! PE. Scheduling and routing reuse the spatial pipeline.

use super::spatial_greedy::finish_spatial;
use crate::mapper::{Family, MapConfig, MapError, Mapper};
use crate::mapping::Mapping;
use cgra_arch::{Fabric, PeId};
use cgra_ir::graph::{asap, unit_latency};
use cgra_ir::Dfg;

/// The graph-drawing spatial mapper.
#[derive(Debug, Clone, Default)]
pub struct GraphDrawing;

impl Mapper for GraphDrawing {
    fn name(&self) -> &'static str {
        "graph-drawing"
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
        let order = dfg
            .topo_order()
            .map_err(|n| MapError::Unsupported(format!("zero-distance cycle at {n}")))?;

        // 1. Draw: row = scaled ASAP level, column = predecessor
        //    barycenter (sources spread uniformly).
        let levels = asap(dfg, &unit_latency);
        let max_level = levels.iter().copied().max().unwrap_or(0).max(1);
        let n = dfg.node_count();
        let mut x = vec![0.0f64; n];
        let mut y = vec![0.0f64; n];
        let mut source_seen = 0usize;
        let source_total = order
            .iter()
            .filter(|&&id| dfg.in_edges(id).next().is_none())
            .count()
            .max(1);
        for &id in &order {
            y[id.index()] = levels[id.index()] as f64 / max_level as f64 * (fabric.rows - 1) as f64;
            let preds: Vec<f64> = dfg
                .in_edges(id)
                .filter(|(_, e)| e.dist == 0)
                .map(|(_, e)| x[e.src.index()])
                .collect();
            x[id.index()] = if preds.is_empty() {
                let col =
                    (source_seen as f64 + 0.5) / source_total as f64 * (fabric.cols - 1) as f64;
                source_seen += 1;
                col
            } else {
                preds.iter().sum::<f64>() / preds.len() as f64
            };
        }

        // 2. Legalise: snap to the nearest free feasible PE (drawing
        //    order = topological, so congested levels spill outward).
        let mut used = vec![false; fabric.num_pes()];
        let mut pes: Vec<PeId> = vec![PeId(0); n];
        for &id in &order {
            let op = dfg.op(id);
            let (tx, ty) = (x[id.index()], y[id.index()]);
            let best = fabric
                .pe_ids()
                .filter(|&pe| !used[pe.index()] && fabric.supports(pe, op))
                .min_by(|&a, &b| {
                    let da = dist2(fabric, a, tx, ty);
                    let db = dist2(fabric, b, tx, ty);
                    da.partial_cmp(&db).unwrap().then(a.0.cmp(&b.0))
                });
            match best {
                Some(pe) => {
                    used[pe.index()] = true;
                    pes[id.index()] = pe;
                }
                None => return Err(MapError::infeasible(format!("no free capable PE for {id}"))),
            }
        }

        // 3. Schedule + route.
        let topo = cfg.topo_for(fabric);
        let m = finish_spatial(dfg, fabric, &topo, &pes, true, &cfg.telemetry)
            .ok_or_else(|| MapError::infeasible("drawing legalised but unroutable"))?;
        cfg.telemetry.incumbent("graph-drawing", m.ii, m.ii as f64);
        Ok(m)
    }
}

fn dist2(fabric: &Fabric, pe: PeId, tx: f64, ty: f64) -> f64 {
    let (r, c) = fabric.coords(pe);
    let dr = r as f64 - ty;
    let dc = c as f64 - tx;
    dr * dr + dc * dc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::validate::validate_spatial;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    fn mesh6() -> Fabric {
        Fabric::homogeneous(6, 6, Topology::Mesh)
    }

    #[test]
    fn draws_and_maps_ilp_rich_kernels() {
        // Spatial mapping of wide kernels can legitimately fail on
        // register pressure (the survey's "mapping might fail"); the
        // contract is that at least the moderate kernels succeed and
        // nothing invalid is ever returned.
        let f = mesh6();
        let mut successes = 0;
        for dfg in [kernels::sobel(), kernels::yuv2rgb(), kernels::laplacian()] {
            match GraphDrawing.map(&dfg, &f, &MapConfig::fast()) {
                Ok(m) => {
                    validate_spatial(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
                    successes += 1;
                }
                Err(e) => eprintln!("{}: {e}", dfg.name),
            }
        }
        assert!(successes >= 2, "only {successes}/3 spatial kernels mapped");
    }

    #[test]
    fn drawing_tends_to_shorten_wires_vs_greedy() {
        // Not a strict guarantee, but on the ILP-rich Sobel kernel the
        // level-based drawing should not be drastically worse than
        // greedy BFS placement; compare total route hops.
        let f = mesh6();
        let dfg = kernels::sobel();
        let gd = GraphDrawing.map(&dfg, &f, &MapConfig::fast()).unwrap();
        let sg = super::super::SpatialGreedy::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        let gd_m = Metrics::of(&gd, &dfg, &f);
        let sg_m = Metrics::of(&sg, &dfg, &f);
        assert!(
            gd_m.route_hops as f64 <= sg_m.route_hops as f64 * 2.0 + 8.0,
            "drawing {} vs greedy {}",
            gd_m.route_hops,
            sg_m.route_hops
        );
    }

    #[test]
    fn rejects_oversized_kernels() {
        let dfg = kernels::unrolled_mac(12);
        let f = Fabric::homogeneous(3, 3, Topology::Mesh);
        assert!(GraphDrawing.map(&dfg, &f, &MapConfig::fast()).is_err());
    }
}
