//! Mapper comparison — the empirical counterpart of the survey's
//! Table I, on a single page.
//!
//! Runs every implemented mapping technique on the classic kernel
//! suite and prints success rate, mean II, and compile time per
//! technique family — the quantitative form of the survey's
//! qualitative claims (exact methods are slow but strong, heuristics
//! are fast but may fail, meta-heuristics sit in between).
//!
//! ```sh
//! cargo run --release --example mapper_comparison
//! ```

use cgra::mapper::portfolio::{run_requests, summarise};
use cgra::prelude::*;

fn main() {
    let fabric_spec = FabricSpec::default(); // homogeneous 4x4 mesh
    let fabric = fabric_spec.build().expect("default fabric builds");
    let kernels = kernels::suite();
    let mappers = MapperRegistry::standard().names();
    println!(
        "mapping {} kernels with {} techniques on {} ...",
        kernels.len(),
        mappers.len(),
        fabric.name
    );

    let requests: Vec<MapRequest> = mappers
        .iter()
        .flat_map(|m| kernels.iter().map(move |k| (m, k)))
        .map(|(m, k)| {
            let mut req = MapRequest::new(KernelSpec::Named(k.name.clone()), *m);
            req.fabric = fabric_spec;
            req.config.time_limit_ms = 10_000;
            req
        })
        .collect();
    let entries = run_requests(&requests);
    let summary = summarise(&entries);

    println!(
        "\n{:<16} {:<28} {:>9} {:>8} {:>10} {:>10}",
        "mapper", "family", "success", "mean II", "mean hops", "ms/kernel"
    );
    println!("{}", "-".repeat(88));
    for s in &summary {
        println!(
            "{:<16} {:<28} {:>6}/{:<2} {:>8} {:>10} {:>10.1}",
            s.mapper,
            s.family_label,
            s.successes,
            s.attempts,
            s.mean_ii
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            s.mean_hops
                .map(|x| format!("{x:.1}"))
                .unwrap_or_else(|| "-".into()),
            s.mean_compile_ms
        );
    }

    // Per-kernel view for the workhorse vs one exact method.
    println!("\nper-kernel II (modulo-list vs sat):");
    for k in &kernels {
        let ii = |name: &str| {
            entries
                .iter()
                .find(|e| e.mapper == name && e.kernel == k.name)
                .and_then(|e| e.metrics.as_ref())
                .map(|m| m.ii.to_string())
                .unwrap_or_else(|| "fail".into())
        };
        println!(
            "  {:<14} modulo-list={:<5} sat={}",
            k.name,
            ii("modulo-list"),
            ii("sat")
        );
    }

    // The taxonomy itself, straight from the survey corpus.
    println!("\n{}", survey::render_table1());
}
