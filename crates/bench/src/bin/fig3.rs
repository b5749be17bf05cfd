//! Experiment: **Figure 3** — the classical compilation flow, on the
//! paper's own dot-product example: front-end → middle-end → back-end,
//! with the back-end producing a spatial mapping, a temporal mapping,
//! and a modulo-scheduled mapping.
//!
//! ```sh
//! cargo run -p cgra-bench --bin fig3
//! ```

use cgra::prelude::*;
use cgra_bench::save_json;
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Row {
    style: &'static str,
    mapper: &'static str,
    ii: u32,
    schedule_len: u32,
    cycles_for_16: u64,
    throughput: f64,
}

fn main() {
    // Front-end: the survey's source (Fig. 3 top box).
    let src = "kernel dot(in a, in b, inout acc) { acc = acc + a * b; }";
    let compiled = frontend::compile_kernel(src).expect("front-end");
    let mut dfg = compiled.dfg;
    println!("front-end produced:\n{}", dfg.render());

    // Middle-end.
    let n = passes::optimize(&mut dfg);
    println!("middle-end: {n} rewrites\n");

    // Back-end: the three mapping styles of the figure.
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let tape = Tape::generate(2, 16, |s, i| if s == 0 { i as i64 + 1 } else { 2 });
    let mut rows = Vec::new();

    let styles: Vec<(&'static str, Box<dyn Mapper>)> = vec![
        ("spatial mapping", Box::new(SpatialGreedy::default())),
        ("temporal mapping", Box::new(SmtMapper)),
        ("modulo scheduling", Box::new(ModuloList)),
    ];
    for (style, mapper) in styles {
        let m = mapper
            .map(&dfg, &fabric, &MapConfig::default())
            .unwrap_or_else(|e| panic!("{style}: {e}"));
        validate(&m, &dfg, &fabric).expect("valid");
        let stats = cgra::sim::simulate_verified(&m, &dfg, &fabric, 16, &tape).expect("functional");
        let metrics = Metrics::of(&m, &dfg, &fabric);
        println!(
            "{style:<20} (via {:<12}) II={:<3} schedule={:<3} 16 iters in {:>3} cycles",
            mapper.name(),
            m.ii,
            metrics.schedule_len,
            stats.cycles
        );
        rows.push(Fig3Row {
            style,
            mapper: mapper.name(),
            ii: m.ii,
            schedule_len: metrics.schedule_len,
            cycles_for_16: stats.cycles,
            throughput: stats.throughput,
        });
        if style == "modulo scheduling" {
            println!("\n{}", m.render(&dfg, &fabric));
        }
    }

    println!(
        "shape check: modulo scheduling overlaps iterations (II {} < schedule length {}): {}",
        rows[2].ii,
        rows[2].schedule_len,
        if rows[2].ii < rows[2].schedule_len {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    save_json("fig3_flow", &rows);
}
