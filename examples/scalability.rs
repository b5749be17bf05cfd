//! Scalability — the survey's §IV-B challenge, measured.
//!
//! "While legacy CGRAs are composed of tens of cells … modern CGRAs
//! contain hundreds to thousands of cells." This example sweeps fabric
//! sizes and kernel widths and compares a flat mapper against the
//! hierarchical HiMap-style approach: the hierarchical candidate
//! pruning is what keeps compile time under control as the array
//! grows.
//!
//! ```sh
//! cargo run --release --example scalability
//! ```

use cgra::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    let cfg = MapConfig {
        time_limit: Duration::from_secs(30),
        ..MapConfig::default()
    };

    println!(
        "{:<10} {:<10} {:<8} | {:>14} {:>14} | {:>14} {:>14}",
        "fabric", "kernel", "ops", "flat II", "flat ms", "himap II", "himap ms"
    );
    println!("{}", "-".repeat(96));

    for (side, lanes) in [(4u16, 4usize), (8, 12), (12, 28), (16, 52)] {
        let fabric = Fabric::homogeneous(side, side, Topology::Mesh);
        let kernel = kernels::unrolled_mac(lanes);

        let run = |mapper: &dyn Mapper| -> (String, f64) {
            let start = Instant::now();
            let out = mapper.map(&kernel, &fabric, &cfg);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok(m) => {
                    validate(&m, &kernel, &fabric).expect("valid");
                    (format!("II={}", m.ii), ms)
                }
                Err(e) => {
                    let mut msg = e.to_string();
                    msg.truncate(14);
                    (msg, ms)
                }
            }
        };

        let flat = ModuloList;
        let himap = HiMap;
        let (flat_ii, flat_ms) = run(&flat);
        let (hi_ii, hi_ms) = run(&himap);
        println!(
            "{:<10} {:<10} {:<8} | {:>14} {:>12.0}ms | {:>14} {:>12.0}ms",
            format!("{side}x{side}"),
            kernel.name,
            kernel.node_count(),
            flat_ii,
            flat_ms,
            hi_ii,
            hi_ms
        );
    }

    println!(
        "\nThe hierarchical mapper restricts each operation's candidate PEs to its\n\
         cluster's region, so its per-op work stays bounded while the flat mapper\n\
         scans the whole array — the survey's hierarchical-abstraction argument."
    );
}
