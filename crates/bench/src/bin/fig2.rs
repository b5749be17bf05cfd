//! Experiment: **Figure 2** — "Illustration of a simple CGRA": the
//! mesh topology (a), the reconfigurable cell internals (b), and the
//! configuration register contents (c).
//!
//! ```sh
//! cargo run -p cgra-bench --bin fig2
//! ```

use cgra::prelude::*;
use cgra_bench::save_json;

fn main() {
    // (a) + (b): the fabric and its cells.
    let fabric = Fabric::figure2();
    println!("{}", cgra::arch::render_fabric(&fabric));

    // A heterogeneous variant, to show the capability legend at work.
    let adres = Fabric::adres_like(4, 4);
    println!("{}", cgra::arch::render_fabric(&adres));

    // (c): the configuration register — map the paper's dot product and
    // dump the per-context configuration.
    let dfg = kernels::dot_product();
    let mapping = ModuloList
        .map(&dfg, &fabric, &MapConfig::default())
        .expect("dot product maps on the Fig. 2 fabric");
    let cs = ConfigStream::generate(&mapping, &dfg, &fabric);
    println!("{}", cs.render(&fabric));
    let bits = cs.pack();
    println!(
        "packed configuration: {} bytes ({} contexts x {} PEs, {} NOP slots)",
        bits.len(),
        mapping.ii,
        fabric.num_pes(),
        cs.nop_slots()
    );
    save_json("fig2_configuration", &cs);
}
