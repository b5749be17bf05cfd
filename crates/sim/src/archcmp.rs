//! Analytic architecture comparators — the Figure 1 reproduction.
//!
//! The survey's Figure 1 (after Liu et al.) places architecture
//! classes on flexibility / performance / energy-efficiency axes with
//! CGRAs in the sweet spot between FPGAs and ASICs. We regenerate the
//! *ordering* from first-principles models evaluated on the same
//! kernel suite:
//!
//! * **CPU** — narrow issue, every op pays fetch/decode/rename energy;
//!   maximal flexibility (any program, immediately).
//! * **DSP/VLIW** — wide static issue, lower control overhead, ILP
//!   capped by the kernel's dependence structure.
//! * **FPGA** — fully spatial, bit-level reconfigurable: highest
//!   per-op routing/config overhead of the spatial class, low clock,
//!   but throughput 1/cycle once configured; reconfiguration is slow
//!   (flexibility below CPU, above ASIC).
//! * **CGRA** — measured, not modelled: our simulator's II and the
//!   energy model on the mapped kernel.
//! * **ASIC** — the kernel hard-wired: critical-path throughput, ops
//!   only, no configuration; zero flexibility.

use crate::energy::EnergyModel;
use cgra_arch::Fabric;
use cgra_ir::graph::{critical_path, unit_latency};
use cgra_ir::Dfg;
use cgra_mapper_core::{Mapping, Metrics};
use serde::Serialize;

/// One point of the Figure 1 plot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArchPoint {
    pub arch: String,
    /// Iterations (results) per reference cycle, averaged over kernels.
    pub performance: f64,
    /// Useful ops per unit energy (higher = more efficient).
    pub energy_efficiency: f64,
    /// 0..1: how broad a workload the architecture runs without
    /// re-implementation (qualitative scale from the surveys).
    pub flexibility: f64,
}

/// Model parameters for the non-CGRA classes.
struct ClassModel {
    name: &'static str,
    issue_width: f64,
    /// Energy multiplier over the raw op energy.
    energy_factor: f64,
    /// Clock relative to the CGRA.
    clock: f64,
    flexibility: f64,
    /// Fully spatial (throughput 1 per cycle regardless of ILP)?
    spatial: bool,
}

const CLASSES: &[ClassModel] = &[
    ClassModel {
        name: "CPU",
        issue_width: 2.0,
        energy_factor: 12.0, // fetch/decode/rename/bypass per op
        clock: 1.2,
        flexibility: 1.0,
        spatial: false,
    },
    ClassModel {
        name: "DSP",
        issue_width: 8.0,
        energy_factor: 4.0,
        clock: 1.0,
        flexibility: 0.85,
        spatial: false,
    },
    ClassModel {
        name: "FPGA",
        issue_width: f64::INFINITY,
        energy_factor: 2.5, // bit-level routing fabric overhead
        clock: 0.35,
        flexibility: 0.55,
        spatial: true,
    },
    ClassModel {
        name: "ASIC",
        issue_width: f64::INFINITY,
        energy_factor: 0.6,
        clock: 1.3,
        flexibility: 0.05,
        spatial: true,
    },
];

/// CGRA flexibility on the qualitative scale (word-level reconfigurable
/// in one cycle-to-milliseconds, programmable from C).
const CGRA_FLEXIBILITY: f64 = 0.7;

/// Evaluate all architecture classes on a set of mapped kernels.
///
/// `mapped` pairs each kernel with its CGRA mapping on `fabric`; the
/// analytic classes are evaluated on the same DFGs.
pub fn architecture_comparison(
    mapped: &[(Dfg, Mapping)],
    fabric: &Fabric,
    energy: &EnergyModel,
) -> Vec<ArchPoint> {
    assert!(!mapped.is_empty());
    let mut points = Vec::new();

    // Analytic classes.
    for class in CLASSES {
        let mut perf = 0.0;
        let mut eff = 0.0;
        for (dfg, _) in mapped {
            let ops = dfg.node_count() as f64;
            let cp = critical_path(dfg, &unit_latency) as f64;
            // Iterations per native cycle.
            let iters_per_cycle = if class.spatial {
                1.0 // pipelined spatial datapath
            } else {
                // Resource- or dependence-limited issue.
                1.0 / (ops / class.issue_width).max(cp / 3.0_f64.max(1.0))
            };
            perf += iters_per_cycle * class.clock;
            let e_per_op: f64 = dfg
                .nodes()
                .map(|(_, n)| energy.op_energy(n.op))
                .sum::<f64>()
                / ops;
            eff += 1.0 / (e_per_op * class.energy_factor);
        }
        points.push(ArchPoint {
            arch: class.name.to_string(),
            performance: perf / mapped.len() as f64,
            energy_efficiency: eff / mapped.len() as f64,
            flexibility: class.flexibility,
        });
    }

    // CGRA: measured from the mappings.
    let mut perf = 0.0;
    let mut eff = 0.0;
    for (dfg, mapping) in mapped {
        let metrics = Metrics::of(mapping, dfg, fabric);
        perf += metrics.throughput;
        eff += 1.0 / energy.energy_per_op(mapping, dfg, fabric, 1024);
    }
    points.push(ArchPoint {
        arch: "CGRA".to_string(),
        performance: perf / mapped.len() as f64,
        energy_efficiency: eff / mapped.len() as f64,
        flexibility: CGRA_FLEXIBILITY,
    });
    points
}

/// The Figure 1 shape assertions: CGRA sits between FPGA and ASIC on
/// flexibility, beats CPU and FPGA on energy efficiency, and beats the
/// CPU on performance. Returns a list of violated expectations (empty
/// = the figure reproduces).
pub fn figure1_shape_violations(points: &[ArchPoint]) -> Vec<String> {
    let get = |name: &str| points.iter().find(|p| p.arch == name);
    let mut violations = Vec::new();
    let (Some(cpu), Some(fpga), Some(asic), Some(cgra)) =
        (get("CPU"), get("FPGA"), get("ASIC"), get("CGRA"))
    else {
        return vec!["missing architecture points".into()];
    };
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            violations.push(msg.to_string());
        }
    };
    check(
        cgra.flexibility > asic.flexibility && cgra.flexibility < cpu.flexibility,
        "CGRA flexibility must sit between ASIC and CPU",
    );
    check(
        cgra.energy_efficiency > cpu.energy_efficiency,
        "CGRA must be more energy-efficient than the CPU",
    );
    check(
        cgra.energy_efficiency < asic.energy_efficiency,
        "ASIC must remain the energy-efficiency ceiling",
    );
    check(
        cgra.performance > cpu.performance,
        "CGRA must outperform the CPU on loop kernels",
    );
    check(
        fpga.flexibility > asic.flexibility,
        "FPGA must be more flexible than ASIC",
    );
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_ir::kernels;
    use cgra_mapper_core::prelude::*;

    fn mapped_suite() -> (Fabric, Vec<(Dfg, Mapping)>) {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let mapper = ModuloList::default();
        let mapped: Vec<(Dfg, Mapping)> = kernels::suite()
            .into_iter()
            .filter_map(|dfg| {
                let m = mapper.map(&dfg, &f, &MapConfig::fast()).ok()?;
                Some((dfg, m))
            })
            .collect();
        (f, mapped)
    }

    #[test]
    fn comparison_produces_all_five_classes() {
        let (f, mapped) = mapped_suite();
        assert!(mapped.len() >= 8);
        let points = architecture_comparison(&mapped, &f, &EnergyModel::default());
        assert_eq!(points.len(), 5);
        let names: Vec<&str> = points.iter().map(|p| p.arch.as_str()).collect();
        for want in ["CPU", "DSP", "FPGA", "ASIC", "CGRA"] {
            assert!(names.contains(&want), "{want} missing");
        }
    }

    #[test]
    fn figure1_ordering_holds() {
        let (f, mapped) = mapped_suite();
        let points = architecture_comparison(&mapped, &f, &EnergyModel::default());
        let violations = figure1_shape_violations(&points);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
