//! End-to-end integration: MiniC source → front-end → middle-end →
//! every mapper → validator → configuration stream → cycle-accurate
//! simulation → comparison against the reference interpreter.

use cgra::prelude::*;
use std::time::Duration;

const KERNELS_MC: &str = r#"
kernel dot(in a, in b, inout acc) {
    acc = acc + a * b;
}

kernel saxpy(in x, in y, out z) {
    z = 3 * x + y;
}

kernel clip(in x, out y) {
    if (x > 100) { y = 100; } else { if (x < 0) { y = 0; } else { y = x; } }
}

kernel ema(in x, inout s = 0) {
    s = s + ((x - s) >> 2);
}

kernel energy(in l, in r, inout acc) {
    var m = (l + r) >> 1;
    acc = acc + m * m;
}
"#;

fn fast_cfg() -> MapConfig {
    MapConfig {
        time_limit: Duration::from_secs(12),
        ..MapConfig::default()
    }
}

fn compile(name: &str) -> (Dfg, usize) {
    let k = frontend::compile_kernel_named(KERNELS_MC, name).expect("front-end");
    let mut dfg = k.dfg;
    passes::optimize(&mut dfg);
    dfg.validate().expect("optimised DFG valid");
    let streams = dfg
        .nodes()
        .filter_map(|(_, n)| match n.op {
            OpKind::Input(s) => Some(s as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    (dfg, streams)
}

fn check_mapper(mapper: &dyn Mapper, dfg: &Dfg, streams: usize, fabric: &Fabric) -> bool {
    match mapper.map(dfg, fabric, &fast_cfg()) {
        Ok(m) => {
            validate(&m, dfg, fabric)
                .unwrap_or_else(|e| panic!("{} produced invalid mapping: {e}", mapper.name()));
            let iters = 6;
            let tape = Tape::generate(streams, iters, |s, i| ((s + 3) * (i + 2)) as i64 % 41)
                .with_memory(vec![5; 64]);
            cgra::sim::simulate_verified(&m, dfg, fabric, iters, &tape)
                .unwrap_or_else(|e| panic!("{} mapping mis-executes: {e}", mapper.name()));
            // The configuration stream must cover every op.
            let cs = ConfigStream::generate(&m, dfg, fabric);
            let configured = cs
                .contexts
                .iter()
                .flat_map(|s| s.iter())
                .filter(|c| c.node.is_some())
                .count();
            assert_eq!(configured, dfg.node_count(), "{}", mapper.name());
            true
        }
        Err(_) => false,
    }
}

#[test]
fn minic_to_silicon_for_every_mapper_on_dot() {
    let (dfg, streams) = compile("dot");
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let mut failures = Vec::new();
    for mapper in MapperRegistry::standard().build_all() {
        if !check_mapper(mapper.as_ref(), &dfg, streams, &fabric) {
            failures.push(mapper.name());
        }
    }
    assert!(
        failures.is_empty(),
        "these mappers failed on the flagship kernel: {failures:?}"
    );
}

#[test]
fn heuristics_handle_all_minic_kernels() {
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    for name in ["dot", "saxpy", "clip", "ema", "energy"] {
        let (dfg, streams) = compile(name);
        let heuristics = MapperRegistry::standard()
            .specs()
            .iter()
            .filter(|s| s.family == Family::Heuristic);
        for mapper in heuristics.map(MapperSpec::build) {
            // graph-minor may legitimately fail; everything else must map.
            let ok = check_mapper(mapper.as_ref(), &dfg, streams, &fabric);
            if mapper.name() != "graph-minor" && !mapper.is_spatial() {
                assert!(ok, "{} failed on {name}", mapper.name());
            }
        }
    }
}

#[test]
fn heterogeneous_fabric_end_to_end() {
    let fabric = Fabric::adres_like(4, 4);
    let (dfg, streams) = compile("energy");
    let mapper = ModuloList;
    assert!(check_mapper(&mapper, &dfg, streams, &fabric));
}

#[test]
fn optimiser_keeps_semantics_through_mapping() {
    // Map the unoptimised and optimised forms; both must simulate to
    // identical outputs.
    let k = frontend::compile_kernel_named(KERNELS_MC, "saxpy").unwrap();
    let raw = k.dfg.clone();
    let mut opt = k.dfg;
    passes::optimize(&mut opt);
    assert!(opt.node_count() <= raw.node_count());
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let mapper = ModuloList;
    let tape = Tape::generate(2, 5, |s, i| (s as i64 + 1) * (i as i64 + 1));
    let m_raw = mapper.map(&raw, &fabric, &fast_cfg()).unwrap();
    let m_opt = mapper.map(&opt, &fabric, &fast_cfg()).unwrap();
    let s_raw = simulate(&m_raw, &raw, &fabric, 5, &tape).unwrap();
    let s_opt = simulate(&m_opt, &opt, &fabric, 5, &tape).unwrap();
    assert_eq!(s_raw.outputs, s_opt.outputs);
}

#[test]
fn unrolled_kernel_maps_and_matches() {
    let (dfg, streams) = compile("dot");
    let unrolled = passes::unroll(&dfg, 2);
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let m = ModuloList.map(&unrolled, &fabric, &fast_cfg()).unwrap();
    validate(&m, &unrolled, &fabric).unwrap();
    let tape = Tape::generate(streams, 8, |s, i| ((s + 1) * (i + 1)) as i64 % 13);
    let reshaped = passes::reshape_tape(&tape, 2);
    cgra::sim::simulate_verified(&m, &unrolled, &fabric, 4, &reshaped).unwrap();
}

#[test]
fn parse_errors_surface_cleanly() {
    assert!(frontend::compile_kernel("kernel broken(in a { }").is_err());
    assert!(frontend::compile_kernel("kernel k(in a, out y) { y = ; }").is_err());
    assert!(frontend::compile_kernel_named(KERNELS_MC, "nonexistent").is_err());
}
