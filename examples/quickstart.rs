//! Quickstart — the survey's Figure 3 end to end.
//!
//! Compiles the dot-product source through the front-end and
//! middle-end, then runs the back-end three ways, exactly as Fig. 3
//! illustrates: a *spatial mapping*, a *temporal mapping*, and a
//! *modulo-scheduled* mapping, each validated, simulated against the
//! reference interpreter, and printed.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cgra::prelude::*;

fn main() {
    // ---- Front-end (Fig. 3 top): parse MiniC into the IR. -----------
    let src = r#"
        // The survey's running example: one dot-product iteration.
        kernel dot(in a, in b, inout acc) {
            acc = acc + a * b;
        }
    "#;
    let compiled = frontend::compile_kernel(src).expect("front-end");
    let mut dfg = compiled.dfg;
    println!("== front-end: DFG ==\n{}", dfg.render());

    // ---- Middle-end: optimisation passes. ----------------------------
    let rewrites = passes::optimize(&mut dfg);
    println!("middle-end applied {rewrites} rewrites\n");

    // ---- Back-end (Fig. 3 bottom): the three mapping styles. --------
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    println!("target fabric:\n{}", cgra::arch::render_fabric(&fabric));

    let tape = Tape::generate(2, 8, |s, i| if s == 0 { i as i64 + 1 } else { 2 });

    // 1. Spatial mapping: II = 1, one op per PE, data streams through.
    let spatial = SpatialGreedy::default()
        .map(&dfg, &fabric, &MapConfig::default())
        .expect("spatial mapping");
    report("spatial mapping", &spatial, &dfg, &fabric, &tape);

    // 2. Temporal mapping: operations share PEs over time (here via
    //    the SMT mapper, which produces a non-pipelined schedule).
    let temporal = SmtMapper
        .map(&dfg, &fabric, &MapConfig::default())
        .expect("temporal mapping");
    report("temporal mapping", &temporal, &dfg, &fabric, &tape);

    // 3. Modulo scheduling: overlapped iterations, the II as short as
    //    dependences and resources allow.
    let modulo = ModuloList
        .map(&dfg, &fabric, &MapConfig::default())
        .expect("modulo scheduling");
    report("modulo scheduling", &modulo, &dfg, &fabric, &tape);
    println!("{}", modulo.render(&dfg, &fabric));

    // The configuration stream (Fig. 2c view) of the modulo schedule.
    let cs = ConfigStream::generate(&modulo, &dfg, &fabric);
    println!("{}", cs.render(&fabric));
    println!(
        "packed bitstream: {} bytes for II={}",
        cs.pack().len(),
        modulo.ii
    );
}

fn report(label: &str, mapping: &Mapping, dfg: &Dfg, fabric: &Fabric, tape: &Tape) {
    validate(mapping, dfg, fabric).expect("all mappings validate");
    let metrics = Metrics::of(mapping, dfg, fabric);
    let stats = cgra::sim::simulate_verified(mapping, dfg, fabric, 8, tape).expect("functional");
    println!(
        "== {label}: II={} schedule={} | 8 iterations in {} cycles | outputs {:?}",
        metrics.ii, metrics.schedule_len, stats.cycles, stats.outputs[0]
    );
}
