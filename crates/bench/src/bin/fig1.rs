//! Experiment: **Figure 1** — the flexibility / performance /
//! energy-efficiency trade-off across CPU, DSP, FPGA, CGRA, ASIC.
//!
//! The analytic class models and the measured CGRA points are
//! documented in `cgra_sim::archcmp`; the experiment asserts the
//! *ordering* of the published conceptual figure.
//!
//! ```sh
//! cargo run --release -p cgra-bench --bin fig1
//! ```

use cgra::prelude::*;
use cgra::sim::{architecture_comparison, EnergyModel};
use cgra_bench::save_json;

fn main() {
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let mapper = ModuloList;
    let mapped: Vec<(Dfg, Mapping)> = kernels::suite()
        .into_iter()
        .filter_map(|dfg| {
            let m = mapper.map(&dfg, &fabric, &MapConfig::default()).ok()?;
            Some((dfg, m))
        })
        .collect();
    eprintln!("mapped {} kernels for the comparison", mapped.len());

    let points = architecture_comparison(&mapped, &fabric, &EnergyModel::default());

    println!("FIGURE 1 — architecture comparison (kernel-suite averages)");
    println!(
        "{:<8} {:>14} {:>18} {:>13}",
        "arch", "perf (it/cyc)", "energy-eff (1/E)", "flexibility"
    );
    println!("{}", "-".repeat(58));
    let mut sorted = points.clone();
    sorted.sort_by(|a, b| b.flexibility.partial_cmp(&a.flexibility).unwrap());
    for p in &sorted {
        println!(
            "{:<8} {:>14.3} {:>18.3} {:>13.2}",
            p.arch, p.performance, p.energy_efficiency, p.flexibility
        );
    }

    // ASCII scatter: flexibility (x) vs energy efficiency (y).
    println!("\nflexibility ->");
    let max_eff = sorted
        .iter()
        .map(|p| p.energy_efficiency)
        .fold(0.0f64, f64::max);
    for row in (0..=8).rev() {
        let mut line = String::from("|");
        for col in 0..=20 {
            let here = sorted.iter().find(|p| {
                (p.flexibility * 20.0).round() as i32 == col
                    && (p.energy_efficiency / max_eff * 8.0).round() as i32 == row
            });
            match here {
                Some(p) => {
                    line.push_str(&p.arch[..1.min(p.arch.len())]);
                    line.push(' ');
                }
                None => line.push_str(". "),
            }
        }
        println!("{line}");
    }
    println!("(C=CPU D=DSP F=FPGA A=ASIC, the other C… CGRA is the point between F and A)");

    let violations = cgra::sim::archcmp::figure1_shape_violations(&points);
    if violations.is_empty() {
        println!("\nshape check: the published Figure 1 ordering HOLDS");
    } else {
        println!("\nshape check VIOLATIONS:");
        for v in &violations {
            println!("  - {v}");
        }
    }
    save_json("fig1_points", &points);
}
