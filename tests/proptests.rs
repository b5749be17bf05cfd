//! Property-based tests over the whole stack: random DFGs and fabrics
//! in, validated-or-rejected mappings out; optimisation passes and the
//! simulator preserve semantics on arbitrary programs.

use cgra::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

/// Build a random layered DAG kernel: `width` parallel values per
/// layer, random binary ops, optional accumulator recurrence.
fn random_dfg(seed: (u8, u8, u64, bool)) -> Dfg {
    let (layers, width, opseed, with_recurrence) = seed;
    let layers = layers % 4 + 1;
    let width = width % 3 + 1;
    let mut g = Dfg::new(format!("rand_{layers}x{width}_{opseed}"));
    let kinds = [
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Min,
        OpKind::Max,
        OpKind::Xor,
        OpKind::And,
        OpKind::Or,
    ];
    let mut prev: Vec<_> = (0..width)
        .map(|s| g.add_node(OpKind::Input(s as u32)))
        .collect();
    let mut state = opseed | 1;
    let mut next_rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..layers {
        let mut cur = Vec::with_capacity(width as usize);
        for _ in 0..width {
            let k = kinds[(next_rand() % kinds.len() as u64) as usize];
            let n = g.add_node(k);
            let a = prev[(next_rand() % prev.len() as u64) as usize];
            let b = prev[(next_rand() % prev.len() as u64) as usize];
            g.connect(a, n, 0);
            g.connect(b, n, 1);
            cur.push(n);
        }
        prev = cur;
    }
    let mut last = prev[0];
    if with_recurrence {
        let acc = g.add_node(OpKind::Add);
        g.connect(last, acc, 0);
        g.connect_carried(acc, acc, 1, 1, vec![0]);
        last = acc;
    }
    let out = g.add_node(OpKind::Output(0));
    g.connect(last, out, 0);
    g
}

fn arb_dfg() -> impl Strategy<Value = Dfg> {
    (any::<u8>(), any::<u8>(), any::<u64>(), any::<bool>()).prop_map(random_dfg)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn random_dfgs_are_valid(dfg in arb_dfg()) {
        prop_assert!(dfg.validate().is_ok());
    }

    #[test]
    fn modulo_list_output_always_validates(dfg in arb_dfg()) {
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let cfg = MapConfig { time_limit: Duration::from_secs(5), ..MapConfig::fast() };
        if let Ok(m) = ModuloList.map(&dfg, &fabric, &cfg) {
            prop_assert!(validate(&m, &dfg, &fabric).is_ok());
        }
    }

    #[test]
    fn mapped_random_kernels_simulate_to_golden(dfg in arb_dfg()) {
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let cfg = MapConfig { time_limit: Duration::from_secs(5), ..MapConfig::fast() };
        let streams = dfg.nodes().filter_map(|(_, n)| match n.op {
            OpKind::Input(s) => Some(s as usize + 1),
            _ => None,
        }).max().unwrap_or(0);
        if let Ok(m) = ModuloList.map(&dfg, &fabric, &cfg) {
            let tape = Tape::generate(streams, 4, |s, i| ((s + 2) * (i + 1)) as i64 % 23);
            let golden = Interpreter::run(&dfg, 4, &tape).unwrap();
            let stats = simulate(&m, &dfg, &fabric, 4, &tape).unwrap();
            prop_assert_eq!(stats.outputs, golden.outputs);
        }
    }

    #[test]
    fn optimiser_preserves_random_kernel_semantics(dfg in arb_dfg()) {
        let streams = dfg.nodes().filter_map(|(_, n)| match n.op {
            OpKind::Input(s) => Some(s as usize + 1),
            _ => None,
        }).max().unwrap_or(0);
        let tape = Tape::generate(streams, 5, |s, i| ((s + 1) * (i + 7)) as i64 % 101);
        let golden = Interpreter::run(&dfg, 5, &tape).unwrap();
        let mut opt = dfg.clone();
        passes::optimize(&mut opt);
        prop_assert!(opt.validate().is_ok());
        let r = Interpreter::run(&opt, 5, &tape).unwrap();
        prop_assert_eq!(r.outputs, golden.outputs);
    }

    #[test]
    fn unroll_preserves_random_kernel_semantics(dfg in arb_dfg()) {
        let streams = dfg.nodes().filter_map(|(_, n)| match n.op {
            OpKind::Input(s) => Some(s as usize + 1),
            _ => None,
        }).max().unwrap_or(0);
        let factor = 2usize;
        let iters = 6usize;
        let tape = Tape::generate(streams, iters, |s, i| ((s + 3) * (i + 1)) as i64 % 19);
        let golden = Interpreter::run(&dfg, iters, &tape).unwrap();
        let unrolled = passes::unroll(&dfg, factor as u32);
        prop_assert!(unrolled.validate().is_ok());
        let reshaped = passes::reshape_tape(&tape, factor);
        let r = Interpreter::run(&unrolled, iters / factor, &reshaped).unwrap();
        for (s, g) in golden.outputs.iter().enumerate() {
            let mut merged = Vec::new();
            for i in 0..iters / factor {
                for j in 0..factor {
                    merged.push(r.outputs[s * factor + j][i]);
                }
            }
            prop_assert_eq!(&merged, g);
        }
    }

    #[test]
    fn router_never_produces_invalid_routes(
        src in 0u16..16, dst in 0u16..16, slack in 0u32..10
    ) {
        use cgra::mapper::route::{find_route_with, RouteOpts, RouterScratch};
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let topo = cgra::arch::TopologyCache::build(&fabric);
        let st = cgra::arch::SpaceTime::new(&fabric, 4);
        let hop = fabric.hop_distance();
        let (a, b) = (PeId(src), PeId(dst));
        let tr = 3u32;
        let tc = tr + slack;
        let route = find_route_with(&fabric, &topo, &st, a, tr, b, tc, [], None,
                                    RouteOpts::default(), &mut RouterScratch::new());
        match route {
            Some(r) => {
                prop_assert_eq!(r.steps[0], a);
                prop_assert_eq!(*r.steps.last().unwrap(), b);
                prop_assert_eq!(r.steps.len() as u32, slack + 1);
                for w in r.steps.windows(2) {
                    prop_assert!(w[0] == w[1] || fabric.neighbors(w[0]).contains(&w[1]));
                }
            }
            None => {
                // Only legitimate when the hop distance exceeds the slack.
                prop_assert!(hop[a.index()][b.index()] > slack);
            }
        }
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in prop::collection::vec(any::<u64>(), 0..64),
        ys in prop::collection::vec(any::<u64>(), 0..64),
        zs in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        use cgra::mapper::telemetry::Histogram;
        let of = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (of(&xs), of(&ys), of(&zs));
        // Commutative: a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        // Associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        prop_assert_eq!(ab_c.count(), (xs.len() + ys.len() + zs.len()) as u64);
    }

    #[test]
    fn histogram_percentile_brackets_the_exact_order_statistic(
        xs in prop::collection::vec(any::<u64>(), 1..256),
        p in 0u32..101,
    ) {
        use cgra::mapper::telemetry::Histogram;
        let p = p as f64;
        let mut h = Histogram::new();
        for &v in &xs {
            h.record(v);
        }
        // The exact rank-ceil(p/100·n) order statistic (1-based), the
        // same rank the histogram's percentile query targets.
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let got = h.percentile(p);
        // Never undershoots, and never leaves the exact value's bucket.
        prop_assert!(got >= exact, "percentile {got} undershoots exact {exact}");
        prop_assert_eq!(
            Histogram::bucket_of(got),
            Histogram::bucket_of(exact),
            "percentile left the bucket of the exact order statistic"
        );
    }

    #[test]
    fn mii_bound_diagnosis_is_deterministic(dfg in arb_dfg(), hi in 0u32..4) {
        // Two diagnoses of the same (kernel, fabric, II bound) must be
        // structurally identical — renders, orderings and all — and
        // survive a JSON round-trip.
        let fabric = Fabric::homogeneous(2, 2, Topology::Mesh);
        let d1 = diagnose_mii_bound(&dfg, &fabric, hi);
        let d2 = diagnose_mii_bound(&dfg, &fabric, hi);
        prop_assert_eq!(&d1, &d2);
        prop_assert_eq!(d1.render(), d2.render());
        let back: Result<Diagnosis, _> = serde_json::from_value(&serde_json::to_value(&d1));
        prop_assert_eq!(back, Ok(d1));
    }

    #[test]
    fn minic_roundtrip_random_expressions(a in -50i64..50, b in -50i64..50, c in 1i64..20) {
        // Generate a MiniC kernel from the values and check the
        // interpreter against direct evaluation.
        let src = format!(
            "kernel f(in x, out y) {{ y = (x * {a} + {b}) % {c} + min(x, {a}) - abs({b}); }}"
        );
        let k = frontend::compile_kernel(&src).unwrap();
        let tape = Tape { inputs: vec![vec![7, -3]], memory: vec![] };
        let r = Interpreter::run(&k.dfg, 2, &tape).unwrap();
        for (i, &x) in [7i64, -3].iter().enumerate() {
            let want = (x.wrapping_mul(a).wrapping_add(b)) % c + x.min(a) - b.abs();
            prop_assert_eq!(r.outputs[0][i], want);
        }
    }
}
