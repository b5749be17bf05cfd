//! Streaming applications — the dataflow programming model the survey
//! (§IV-B-a) identifies as the natural fit for CGRAs.
//!
//! Builds a three-stage image-processing pipeline (FIR smoothing →
//! YUV→RGB conversion feeding one channel → threshold), maps it as a
//! synchronous-dataflow graph onto fabric partitions, and runs the
//! whole pipeline functionally.
//!
//! ```sh
//! cargo run --release --example streaming
//! ```

use cgra::mapper::streaming::{map_streaming, run_streaming, stream_metrics, SdfGraph};
use cgra::prelude::*;
use std::collections::HashMap;

fn main() {
    // The application: smooth a pixel stream, threshold the result.
    let mut sdf = SdfGraph::new();
    let fir = sdf.add_actor(kernels::fir(3));
    let thr = sdf.add_actor(kernels::threshold());
    let sad = sdf.add_actor(kernels::sad());
    sdf.connect((fir, 0), (thr, 0));
    sdf.connect((thr, 0), (sad, 0));
    sdf.connect((fir, 0), (sad, 1));

    println!(
        "SDF application: {} actors, {} channels, order {:?}",
        sdf.actors.len(),
        sdf.channels.len(),
        sdf.topo_actors().unwrap()
    );

    // Map onto a 4x12 mesh: each actor gets its own partition.
    let fabric = FabricSpec {
        rows: 4,
        cols: 12,
        topology: Topology::Mesh,
        adres: false,
    };
    let mapper = ModuloList;
    let sm = map_streaming(&sdf, &fabric, &mapper, &MapConfig::default()).expect("pipeline maps");

    println!("\npartitions and per-actor results:");
    for (part, (name, metrics)) in sm.regions.iter().zip(stream_metrics(&sdf, &sm)) {
        println!(
            "  {:<12} cols {:>2}..{:<2} ({} PEs)  II={}  util={:.0}%",
            name,
            part.col0,
            part.col0 + part.spec.cols - 1,
            part.cells().len(),
            metrics.ii,
            metrics.fu_utilisation * 100.0
        );
    }
    println!(
        "\npipeline II = {} -> throughput {:.2} tokens/cycle with all stages concurrent",
        sm.pipeline_ii,
        sm.throughput()
    );

    // Execute the pipeline on a synthetic pixel stream.
    let n = 16;
    let pixels: Vec<i64> = (0..n).map(|i| (i as i64 * 23) % 200).collect();
    let mut external = HashMap::new();
    external.insert((fir, 0u32), pixels.clone());
    let outs = run_streaming(&sdf, n, &external).expect("pipeline runs");
    println!("\ninput pixels: {:?}", &pixels[..8]);
    println!("sad output:   {:?}", &outs[sad][0][..8]);

    // Sequential-offload comparison: without streaming partitions the
    // actors would time-share the array (sum of IIs per token).
    let sum_ii: u32 = sm.mappings.iter().map(|m| m.ii).sum();
    println!(
        "\nstreaming vs time-shared: {} vs {} cycles per token ({}x)",
        sm.pipeline_ii,
        sum_ii,
        sum_ii as f64 / sm.pipeline_ii as f64
    );
}
