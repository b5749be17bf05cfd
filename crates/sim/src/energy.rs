//! Energy model: per-event energies plus static leakage.
//!
//! Calibrated to the *relative* numbers the CGRA literature reports
//! (e.g. Bouwens et al.'s ADRES breakdowns, SNAFU's energy-minimal
//! design point): a multiply costs a few ALU-ops, a network hop and a
//! register write are each a fraction of an ALU op, memory accesses
//! dominate, and configuration fetches amortise over II. Absolute
//! units are picojoule-ish but only ratios are meaningful — exactly
//! like the survey's Figure 1.

use cgra_arch::Fabric;
use cgra_ir::{Dfg, OpKind};
use cgra_mapper_core::{Mapping, Metrics};
use serde::Serialize;

/// Per-event energies (arbitrary units ≈ pJ).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EnergyModel {
    pub e_alu: f64,
    pub e_mul: f64,
    pub e_mem: f64,
    pub e_hop: f64,
    pub e_reg: f64,
    /// Per-PE per-context fetch (decoder + config register).
    pub e_ctx: f64,
    /// Static leakage per PE per cycle.
    pub e_static: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            e_alu: 1.0,
            e_mul: 3.0,
            e_mem: 6.0,
            e_hop: 0.3,
            e_reg: 0.2,
            e_ctx: 0.4,
            e_static: 0.05,
        }
    }
}

impl EnergyModel {
    /// Energy of one operation issue.
    pub fn op_energy(&self, op: OpKind) -> f64 {
        if op.needs_multiplier() {
            self.e_mul
        } else if op.is_memory() {
            self.e_mem
        } else {
            self.e_alu
        }
    }

    /// Energy of executing `iters` iterations of a mapped kernel.
    pub fn run_energy(&self, mapping: &Mapping, dfg: &Dfg, fabric: &Fabric, iters: u64) -> f64 {
        let metrics = Metrics::of(mapping, dfg, fabric);
        let ops: f64 = dfg.nodes().map(|(_, n)| self.op_energy(n.op)).sum();
        let dynamic_per_iter = ops
            + metrics.route_hops as f64 * self.e_hop
            + metrics.register_cycles as f64 * self.e_reg
            + fabric.num_pes() as f64 * self.e_ctx; // one context fetch per PE per II window
        let cycles = metrics.schedule_len as u64 + (iters.saturating_sub(1)) * mapping.ii as u64;
        let leakage = fabric.num_pes() as f64 * self.e_static * cycles as f64;
        dynamic_per_iter * iters as f64 + leakage
    }

    /// Energy per useful operation (ops/J inverse) — the Fig. 1 y-axis.
    pub fn energy_per_op(&self, mapping: &Mapping, dfg: &Dfg, fabric: &Fabric, iters: u64) -> f64 {
        let total = self.run_energy(mapping, dfg, fabric, iters);
        total / (dfg.node_count() as f64 * iters as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_ir::kernels;
    use cgra_mapper_core::prelude::*;

    #[test]
    fn energy_scales_with_iterations() {
        let dfg = kernels::dot_product();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let m = ModuloList.map(&dfg, &f, &MapConfig::fast()).unwrap();
        let em = EnergyModel::default();
        let e1 = em.run_energy(&m, &dfg, &f, 100);
        let e2 = em.run_energy(&m, &dfg, &f, 200);
        assert!(e2 > 1.8 * e1 && e2 < 2.2 * e1, "{e1} vs {e2}");
    }

    #[test]
    fn memory_kernels_cost_more_per_op() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let em = EnergyModel::default();
        let map = |dfg: &cgra_ir::Dfg| ModuloList.map(dfg, &f, &MapConfig::fast()).unwrap();
        let dot = kernels::dot_product();
        let mat = kernels::matmul_body();
        let e_dot = em.energy_per_op(&map(&dot), &dot, &f, 64);
        let e_mat = em.energy_per_op(&map(&mat), &mat, &f, 64);
        assert!(e_mat > e_dot, "memory-heavy {e_mat} !> {e_dot}");
    }

    #[test]
    fn op_energy_classes_ordered() {
        let em = EnergyModel::default();
        assert!(em.op_energy(OpKind::Load) > em.op_energy(OpKind::Mul));
        assert!(em.op_energy(OpKind::Mul) > em.op_energy(OpKind::Add));
    }
}
