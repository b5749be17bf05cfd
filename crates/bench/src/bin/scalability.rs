//! Experiment: **§IV-B scalability** — hierarchical vs flat mapping as
//! fabrics grow from legacy (tens of cells) to modern (hundreds of
//! cells) scale.
//!
//! The survey: "the mapping problem is intractable, scalability further
//! raises the challenge … [HiMap] detects repetitive patterns and maps
//! hierarchically". The experiment sweeps fabric sizes with a kernel
//! sized to ~1/4 fabric utilisation and records, for a flat modulo
//! scheduler, the hierarchical mapper, flat SA, and the exact SAT
//! mapper: success, achieved II, and compile time.
//!
//! ```sh
//! cargo run --release -p cgra-bench --bin scalability
//! ```

use cgra::prelude::*;
use cgra_bench::{quick, save_json};
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Row {
    fabric: String,
    pes: usize,
    ops: usize,
    mapper: &'static str,
    outcome: String,
    ii: Option<u32>,
    compile_ms: f64,
}

fn main() {
    let budget = Duration::from_secs(if quick() { 5 } else { 60 });
    let cfg = MapConfig {
        time_limit: budget,
        ..MapConfig::default()
    };
    let sizes: &[(u16, usize)] = if quick() {
        &[(4, 4), (8, 12)]
    } else {
        &[(4, 4), (8, 12), (12, 28), (16, 52), (24, 120)]
    };

    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:<8} {:>5} {:>5}  {:<14} {:>10} {:>12}",
        "fabric", "PEs", "ops", "mapper", "II", "compile"
    );
    println!("{}", "-".repeat(62));
    for &(side, lanes) in sizes {
        let fabric = Fabric::homogeneous(side, side, Topology::Mesh);
        let kernel = kernels::unrolled_mac(lanes);
        let mappers: Vec<(&'static str, Box<dyn Mapper>)> = vec![
            ("modulo-list", Box::new(ModuloList)),
            ("himap", Box::new(HiMap)),
            ("sa", Box::new(SimulatedAnnealing::default())),
            ("sat", Box::new(SatMapper::default())),
        ];
        for (name, mapper) in mappers {
            let start = Instant::now();
            let result = mapper.map(&kernel, &fabric, &cfg);
            let compile_ms = start.elapsed().as_secs_f64() * 1e3;
            let (outcome, ii) = match &result {
                Ok(m) => {
                    validate(m, &kernel, &fabric).expect("valid");
                    ("ok".to_string(), Some(m.ii))
                }
                Err(e) => (format!("{e}"), None),
            };
            println!(
                "{:<8} {:>5} {:>5}  {:<14} {:>10} {:>10.0}ms  {}",
                format!("{side}x{side}"),
                fabric.num_pes(),
                kernel.node_count(),
                name,
                ii.map(|x| x.to_string()).unwrap_or_else(|| "-".into()),
                compile_ms,
                if ii.is_some() { "" } else { "FAILED" }
            );
            rows.push(Row {
                fabric: format!("{side}x{side}"),
                pes: fabric.num_pes(),
                ops: kernel.node_count(),
                mapper: name,
                outcome,
                ii,
                compile_ms,
            });
        }
    }

    // Shape: himap compile time grows slower than flat modulo-list.
    let slope = |name: &str| -> Option<f64> {
        let pts: Vec<&Row> = rows
            .iter()
            .filter(|r| r.mapper == name && r.ii.is_some())
            .collect();
        if pts.len() < 2 {
            return None;
        }
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        Some((last.compile_ms / first.compile_ms) / (last.pes as f64 / first.pes as f64))
    };
    println!("\nshape check (compile-time growth normalised by PE growth):");
    for name in ["modulo-list", "himap", "sa", "sat"] {
        match slope(name) {
            Some(s) => println!("  {name:<12} x{s:.2} per PE-factor"),
            None => println!("  {name:<12} insufficient successes to fit"),
        }
    }
    save_json("scalability", &rows);
}
