//! Loop pipelining — modulo scheduling in anger.
//!
//! Maps a 4-tap FIR filter (the archetypal CGRA loop) across fabrics
//! and latency models, showing how the II tracks the MII, how
//! unrolling trades fabric area for throughput, and how the hardware
//! loop unit of §III-B2 removes the software loop-control overhead.
//!
//! ```sh
//! cargo run --example loop_pipelining
//! ```

use cgra::mapper::ctrlflow::with_loop_control;
use cgra::prelude::*;

fn main() {
    let mapper = ModuloList;
    let cfg = MapConfig::default();

    // --- II vs fabric size -------------------------------------------
    println!("== FIR-4: II across fabric sizes ==");
    let fir = kernels::fir(4);
    for (rows, cols) in [(2, 2), (3, 3), (4, 4), (6, 6)] {
        let fabric = Fabric::homogeneous(rows, cols, Topology::Mesh);
        let mii = ModuloList::mii(&fir, &fabric);
        match mapper.map(&fir, &fabric, &cfg) {
            Ok(m) => {
                let metrics = Metrics::of(&m, &fir, &fabric);
                println!(
                    "  {rows}x{cols}: MII={mii}  II={}  throughput={:.2} iters/cycle  util={:.0}%",
                    m.ii,
                    metrics.throughput,
                    metrics.fu_utilisation * 100.0
                );
            }
            Err(e) => println!("  {rows}x{cols}: MII={mii}  FAILED ({e})"),
        }
    }

    // --- II vs latency model ------------------------------------------
    println!("\n== IIR-1: the recurrence limits the II ==");
    let iir = kernels::iir1();
    for (label, lat) in [
        ("unit latency", LatencyModel::default()),
        ("2-cycle mul/mem", LatencyModel::multi_cycle()),
    ] {
        let mut fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        fabric.latency = lat;
        let m = mapper.map(&iir, &fabric, &cfg).expect("iir maps");
        println!("  {label}: RecMII-bound II = {}", m.ii);
    }

    // --- Unrolling: more area, more throughput -------------------------
    println!("\n== accumulate: unroll factor vs per-element throughput ==");
    let acc = kernels::accumulate();
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    for factor in [1u32, 2, 4] {
        let unrolled = passes::unroll(&acc, factor);
        match mapper.map(&unrolled, &fabric, &cfg) {
            Ok(m) => println!(
                "  x{factor}: II={} -> {:.2} elements/cycle",
                m.ii,
                factor as f64 / m.ii as f64
            ),
            Err(e) => println!("  x{factor}: FAILED ({e})"),
        }
    }

    // --- Hardware loops (§III-B2) --------------------------------------
    println!("\n== dot product: software loop control vs hardware loop unit ==");
    let dot = kernels::dot_product();
    let sw = with_loop_control(&dot, 1024);
    let mut hw_fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    hw_fabric.hw_loop = true;
    let m_sw = mapper.map(&sw, &hw_fabric, &cfg).expect("sw-loop maps");
    let m_hw = mapper.map(&dot, &hw_fabric, &cfg).expect("hw-loop maps");
    println!(
        "  software loop: {} ops, II={} | hardware loop: {} ops, II={}",
        sw.node_count(),
        m_sw.ii,
        dot.node_count(),
        m_hw.ii
    );
    println!(
        "  loop-overhead ops eliminated by the hardware loop unit: {}",
        sw.node_count() - dot.node_count()
    );

    // --- Functional check on the champion -------------------------------
    let tape = Tape::generate(2, 16, |s, i| ((s + 1) * (i + 1)) as i64);
    let stats = cgra::sim::simulate_verified(&m_hw, &dot, &hw_fabric, 16, &tape)
        .expect("functionally correct");
    println!(
        "\nverified: 16 iterations in {} cycles at II={} (throughput {:.2})",
        stats.cycles, m_hw.ii, stats.throughput
    );
}
