//! Modulo list scheduling with integrated place-and-route — the
//! DRESC-lineage workhorse (Rau's iterative modulo scheduling adapted
//! to CGRAs; Mei et al. FPT'02, De Sutter et al.).
//!
//! For each candidate II starting at the MII, operations are scheduled
//! in height-priority order. Each operation scans a time window from
//! its earliest start and, per cycle, the capability-feasible PEs
//! nearest its placed neighbours; the first `(pe, t)` where every edge
//! to already-placed operations routes, wins. If any operation
//! exhausts its window, the II is bumped — the classic "increase II
//! until it fits" loop of the survey's modulo-scheduling section.

use super::state::{priority_order, SchedState};
use super::sweep::{SweepCtx, TemporalSearch};
use crate::mapper::{Family, MapError};
use crate::mapping::Mapping;
use cgra_arch::Fabric;
use cgra_ir::graph;
use cgra_ir::{Dfg, OpKind};

/// The modulo list scheduler.
#[derive(Debug, Clone)]
pub struct ModuloList {
    /// Cap on candidate PEs per (op, cycle) probe.
    pub pe_candidates: usize,
    /// Time window length in IIs.
    pub window_iis: u32,
}

impl Default for ModuloList {
    fn default() -> Self {
        ModuloList {
            pe_candidates: 24,
            window_iis: 3,
        }
    }
}

impl ModuloList {
    /// Compute the MII for `dfg` on `fabric`.
    pub fn mii(dfg: &Dfg, fabric: &Fabric) -> u32 {
        let (alu, mul, mem, io) = fabric.slot_counts();
        let lat = |op: OpKind| fabric.latency_of(op);
        let io_ops = dfg
            .nodes()
            .filter(|(_, n)| matches!(n.op, OpKind::Input(_) | OpKind::Output(_)))
            .count();
        let io_mii = if io == 0 && io_ops > 0 {
            u32::MAX
        } else if io_ops > 0 {
            (io_ops as u32).div_ceil(io as u32).max(1)
        } else {
            1
        };
        graph::mii(dfg, &lat, alu, mul, mem).max(io_mii)
    }

    fn schedule(&self, ctx: &SweepCtx<'_>, ii: u32) -> Option<Mapping> {
        let mut state = SchedState::new(ctx, ii);
        for n in priority_order(ctx.dfg, ctx.fabric).0 {
            if ctx.budget.expired() {
                return None;
            }
            let window = state.window(n, self.window_iis)?;
            if !state.place_in_window(n, window, self.pe_candidates) {
                return None;
            }
        }
        state.into_mapping()
    }
}

impl TemporalSearch for ModuloList {
    const NAME: &'static str = "modulo-list";
    const FAMILY: Family = Family::Heuristic;
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Result<Option<Mapping>, MapError> {
        let m = self.schedule(ctx, ii);
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

    fn mesh() -> Fabric {
        Fabric::homogeneous(4, 4, Topology::Mesh)
    }

    #[test]
    fn maps_dot_product_at_low_ii() {
        let dfg = kernels::dot_product();
        let f = mesh();
        let m = ModuloList::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        validate(&m, &dfg, &f).unwrap();
        assert!(m.ii <= 2, "II {} too large for a 5-op kernel", m.ii);
    }

    #[test]
    fn maps_entire_suite_on_4x4() {
        let f = mesh();
        for dfg in kernels::suite() {
            let m = ModuloList::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn respects_recurrence_mii() {
        let dfg = kernels::iir1();
        let f = mesh();
        let m = ModuloList::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        // RecMII of iir1 under unit latency is 3.
        assert!(m.ii >= 3);
    }

    #[test]
    fn heterogeneous_fabric_constrains_muls() {
        let dfg = kernels::fft_butterfly();
        let f = Fabric::adres_like(4, 4);
        let m = ModuloList::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        validate(&m, &dfg, &f).unwrap();
        // Every multiplier op must sit on an even column.
        for (id, node) in dfg.nodes() {
            if node.op.needs_multiplier() {
                let (_, c) = f.coords(m.placement(id).pe);
                assert_eq!(c % 2, 0);
            }
        }
    }

    #[test]
    fn infeasible_when_mii_exceeds_bound() {
        let dfg = kernels::unrolled_mac(40); // 160+ ops on 4 PEs
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        f.context_depth = 4; // max II 4: ResMII is far larger
        let err = ModuloList::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap_err();
        assert!(matches!(err, MapError::Infeasible(_)));
    }

    #[test]
    fn multi_cycle_latency_model() {
        let dfg = kernels::iir1();
        let mut f = mesh();
        f.latency = cgra_arch::LatencyModel::multi_cycle();
        let m = ModuloList::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        validate(&m, &dfg, &f).unwrap();
        // Recurrence mul(2) + shr(1) + add(1) = 4.
        assert!(m.ii >= 4);
    }

    #[test]
    fn mii_accounts_for_io_ports() {
        use cgra_ir::{Dfg, OpKind};
        // 3 I/O ops against a single I/O-capable cell force II >= 3.
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        for pe in 1..4 {
            f.cells[pe].io = false;
        }
        let mut g = Dfg::new("io3");
        let a = g.add_node(OpKind::Input(0));
        let b = g.add_node(OpKind::Input(1));
        let s = g.add_node(OpKind::Add);
        g.connect(a, s, 0);
        g.connect(b, s, 1);
        let o = g.add_node(OpKind::Output(0));
        g.connect(s, o, 0);
        g.validate().unwrap();
        assert_eq!(ModuloList::mii(&g, &f), 3);
        let f2 = Fabric::homogeneous(2, 2, Topology::Mesh);
        assert_eq!(ModuloList::mii(&g, &f2), 1);
    }
}
