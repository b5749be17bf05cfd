//! Quality metrics of a mapping — the columns of the Table I
//! experiment report.

use crate::mapping::Mapping;
use cgra_arch::Fabric;
use cgra_ir::Dfg;
use serde::{Deserialize, Serialize};

/// Measured properties of a valid mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Initiation interval: one loop iteration completes every `ii`
    /// cycles in steady state.
    pub ii: u32,
    /// Schedule length of one iteration (pipeline depth).
    pub schedule_len: u32,
    /// Fraction of (PE × II-slot) issue slots used.
    pub fu_utilisation: f64,
    /// Total route hops (wire traffic proxy).
    pub route_hops: usize,
    /// Total register-cycle occupancy.
    pub register_cycles: usize,
    /// Peak register pressure across all (pe, slot).
    pub peak_registers: u32,
    /// Steady-state throughput in iterations per cycle.
    pub throughput: f64,
}

impl Metrics {
    /// Measure a mapping (assumed valid).
    pub fn of(mapping: &Mapping, dfg: &Dfg, fabric: &Fabric) -> Metrics {
        let st = mapping.occupancy(dfg, fabric);
        let mut peak = 0;
        let mut reg_cycles = 0usize;
        for pe in fabric.pe_ids() {
            for slot in 0..mapping.ii {
                let c = st.reg_count(pe, slot);
                peak = peak.max(c);
                reg_cycles += c as usize;
            }
        }
        Metrics {
            ii: mapping.ii,
            schedule_len: mapping.schedule_len(dfg, fabric),
            fu_utilisation: st.fu_utilisation(),
            route_hops: mapping.routes.iter().map(|r| r.hops()).sum(),
            register_cycles: reg_cycles,
            peak_registers: peak,
            throughput: 1.0 / mapping.ii as f64,
        }
    }
}

/// Per-cell fabric occupancy of a mapping, folded modulo II — the data
/// behind the utilization heatmaps. Integer fields only, so the JSON
/// form round-trips exactly and renders are deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilizationMap {
    pub rows: u16,
    pub cols: u16,
    pub ii: u32,
    /// Issue slots occupied per PE over one II window (0..=ii), indexed
    /// by PE id (row-major).
    pub fu_used: Vec<u32>,
    /// Register-cycles held per PE over one II window — the routing
    /// pressure each cell carries for values passing through.
    pub reg_used: Vec<u32>,
}

impl UtilizationMap {
    /// Measure a mapping (assumed valid).
    pub fn of(mapping: &Mapping, dfg: &Dfg, fabric: &Fabric) -> UtilizationMap {
        let st = mapping.occupancy(dfg, fabric);
        let mut fu_used = Vec::with_capacity(fabric.num_pes());
        let mut reg_used = Vec::with_capacity(fabric.num_pes());
        for pe in fabric.pe_ids() {
            let mut fu = 0;
            let mut reg = 0;
            for slot in 0..mapping.ii {
                fu += st.fu_count(pe, slot);
                reg += st.reg_count(pe, slot);
            }
            fu_used.push(fu);
            reg_used.push(reg);
        }
        UtilizationMap {
            rows: fabric.rows,
            cols: fabric.cols,
            ii: mapping.ii,
            fu_used,
            reg_used,
        }
    }

    /// ASCII heatmap of issue-slot occupancy (full scale = II).
    pub fn render_fu(&self, fabric: &Fabric) -> String {
        cgra_arch::render_heatmap(fabric, &self.fu_used, self.ii, "fu occupancy / II window")
    }

    /// ASCII heatmap of register pressure (full scale = RF capacity
    /// over one II window).
    pub fn render_reg(&self, fabric: &Fabric) -> String {
        cgra_arch::render_heatmap(
            fabric,
            &self.reg_used,
            fabric.rf_size * self.ii,
            "register pressure / II window",
        )
    }

    /// Both heatmaps rendered from the serialized data alone — what
    /// report viewers use when only the JSON artifact survives, not
    /// the fabric object. Register pressure is scaled to its observed
    /// peak (RF capacity is not stored in the map).
    pub fn render_standalone(&self, arch: &str) -> String {
        let reg_peak = self.reg_used.iter().copied().max().unwrap_or(0);
        format!(
            "{}{}",
            cgra_arch::render_heatmap_grid(
                arch,
                self.rows,
                self.cols,
                &self.fu_used,
                self.ii,
                "fu occupancy / II window",
            ),
            cgra_arch::render_heatmap_grid(
                arch,
                self.rows,
                self.cols,
                &self.reg_used,
                reg_peak,
                "register pressure / II window (scale = observed peak)",
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Placement, Route};
    use cgra_arch::{PeId, Topology};
    use cgra_ir::kernels;

    #[test]
    fn metrics_of_simple_mapping() {
        let dfg = kernels::accumulate();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let m = Mapping {
            ii: 1,
            place: vec![
                Placement {
                    pe: PeId(0),
                    time: 0,
                },
                Placement {
                    pe: PeId(1),
                    time: 2,
                },
                Placement {
                    pe: PeId(2),
                    time: 4,
                },
            ],
            routes: vec![
                Route {
                    start_time: 1,
                    steps: vec![PeId(0), PeId(1)],
                },
                Route {
                    start_time: 3,
                    steps: vec![PeId(1)],
                },
                Route {
                    start_time: 3,
                    steps: vec![PeId(1), PeId(2)],
                },
            ],
        };
        crate::validate::validate(&m, &dfg, &f).unwrap();
        let met = Metrics::of(&m, &dfg, &f);
        assert_eq!(met.ii, 1);
        assert_eq!(met.schedule_len, 5);
        assert_eq!(met.route_hops, 2);
        assert_eq!(met.throughput, 1.0);
        assert!((met.fu_utilisation - 3.0 / 16.0).abs() < 1e-9);
        assert!(met.peak_registers >= 1);

        let u = UtilizationMap::of(&m, &dfg, &f);
        assert_eq!((u.rows, u.cols, u.ii), (4, 4, 1));
        assert_eq!(u.fu_used.len(), 16);
        // The three ops sit on pe0..pe2; everything else is idle.
        assert_eq!(u.fu_used[..3], [1, 1, 1]);
        assert!(u.fu_used[3..].iter().all(|&v| v == 0));
        // Routes pass through pe0/pe1; total register-cycles must match
        // the scalar metric.
        assert_eq!(u.reg_used.iter().sum::<u32>() as usize, met.register_cycles);
        let fu_map = u.render_fu(&f);
        let reg_map = u.render_reg(&f);
        assert!(fu_map.contains("fu occupancy"));
        assert!(reg_map.contains("register pressure"));
        assert_eq!(fu_map, u.render_fu(&f), "render must be deterministic");
    }
}
