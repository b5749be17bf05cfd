//! Seeded input generation: the request lists of every workload are a
//! pure function of `--seed`; the program under test only ever sees
//! the generated requests.

use cgra::arch::Topology;
use cgra::mapper::request::{FabricSpec, KernelSpec, MapRequest};

/// SplitMix64: small, seedable, and the same on every platform, so a
/// seed names one request list for good.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is irrelevant at
    /// these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The 12 `examples/kernels/*.mc` sources, compiled into the binary so
/// a run does not depend on its working directory.
pub const EXAMPLE_KERNELS: [(&str, &str); 12] = [
    ("clip", include_str!("../../examples/kernels/clip.mc")),
    ("conv", include_str!("../../examples/kernels/conv.mc")),
    ("dot", include_str!("../../examples/kernels/dot.mc")),
    ("ema", include_str!("../../examples/kernels/ema.mc")),
    ("fft", include_str!("../../examples/kernels/fft.mc")),
    ("fir4", include_str!("../../examples/kernels/fir4.mc")),
    ("gemm", include_str!("../../examples/kernels/gemm.mc")),
    (
        "histogram",
        include_str!("../../examples/kernels/histogram.mc"),
    ),
    ("memfill", include_str!("../../examples/kernels/memfill.mc")),
    ("polyval", include_str!("../../examples/kernels/polyval.mc")),
    ("relu", include_str!("../../examples/kernels/relu.mc")),
    ("spmv", include_str!("../../examples/kernels/spmv.mc")),
];

/// The four constructive temporal heuristics the `serve_*` workloads
/// ask for: they map every kernel above on a 4×4 mesh in well under a
/// millisecond, so priming is cheap and a miss is front-end- and
/// router-visible rather than search-dominated.
pub const SERVE_MAPPERS: [&str; 4] = ["modulo-list", "edge-centric", "epimap", "himap"];

pub fn mesh(rows: u16, cols: u16) -> FabricSpec {
    FabricSpec {
        rows,
        cols,
        topology: Topology::Mesh,
        adres: false,
    }
}

pub fn fabric_label(f: &FabricSpec) -> String {
    format!(
        "{}x{}{}",
        f.rows,
        f.cols,
        if f.topology == Topology::Torus {
            "t"
        } else {
            ""
        }
    )
}

/// The three fabrics of `serve_miss`.
pub fn miss_fabrics() -> [FabricSpec; 3] {
    [
        mesh(4, 4),
        mesh(6, 6),
        FabricSpec {
            topology: Topology::Torus,
            ..mesh(8, 8)
        },
    ]
}

/// The `serve_hit` working set: 12 example kernels × 4 mappers on the
/// default 4×4 mesh = 48 keys, in a seed-shuffled order.
pub fn hit_requests(seed: u64) -> Vec<MapRequest> {
    let mut reqs = Vec::new();
    for (name, src) in EXAMPLE_KERNELS {
        for mapper in SERVE_MAPPERS {
            reqs.push(MapRequest::new(
                KernelSpec::Source {
                    source: src.to_string(),
                    name: Some(name.to_string()),
                },
                mapper,
            ));
        }
    }
    Rng::new(seed).shuffle(&mut reqs);
    for (i, r) in reqs.iter_mut().enumerate() {
        r.id = i as u64 + 1;
    }
    reqs
}

/// Shape of one generated MiniC kernel. The shape alone fixes the
/// DFG's structure; coefficients only change constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `n`-tap FIR over `delay()`.
    Fir(usize),
    /// Degree-`d` Horner polynomial.
    Horner(usize),
    /// `n` multiply-accumulates into one `inout`.
    Mac(usize),
    /// Two-sided clip with a soft knee: nested if/else → `Select`.
    Clip,
    /// `n` scaled `mem[]` gathers accumulated into one `inout`.
    Gather(usize),
}

/// Every shape the generator draws from: 7–25 operations after the
/// middle-end. Each maps under the four serve mappers on the three
/// `serve_miss` fabrics in under 0.1 s on the parent commit; the
/// deeper Horner chains and wider MACs that take `epimap` seconds were
/// left out so that no single request outweighs a whole block.
pub const SHAPES: [Shape; 15] = [
    Shape::Fir(2),
    Shape::Fir(3),
    Shape::Fir(4),
    Shape::Fir(5),
    Shape::Fir(6),
    Shape::Fir(8),
    Shape::Horner(2),
    Shape::Horner(3),
    Shape::Horner(4),
    Shape::Mac(1),
    Shape::Mac(2),
    Shape::Clip,
    Shape::Gather(1),
    Shape::Gather(2),
    Shape::Gather(3),
];

/// The coefficients of one kernel: the odd numbers 3..=97 in a seeded
/// order, each handed out once. Never 0, 1 or a power of two, so the
/// algebraic pass treats every draw alike, and never twice the same
/// value, so CSE cannot merge two constants: the shape alone decides
/// the optimised DFG.
struct Coeffs(Vec<u64>);

impl Coeffs {
    fn new(rng: &mut Rng) -> Coeffs {
        let mut all: Vec<u64> = (0..48).map(|i| 3 + 2 * i).collect();
        rng.shuffle(&mut all);
        Coeffs(all)
    }

    fn next(&mut self) -> u64 {
        self.0.pop().expect("no shape needs 48 coefficients")
    }
}

/// MiniC source of one kernel of `shape`. `uid` goes into the kernel's
/// name, which is part of the hashed source text: two requests never
/// share a cache key even when their coefficients collide.
pub fn kernel_source(shape: Shape, uid: u64, rng: &mut Rng) -> String {
    let mut coeffs = Coeffs::new(rng);
    let mut coeff = move || coeffs.next();
    match shape {
        Shape::Fir(n) => {
            let mut terms = vec![format!("{} * x", coeff())];
            for k in 1..n {
                terms.push(format!("{} * delay(x, {k})", coeff()));
            }
            format!(
                "kernel fir{n}_{uid}(in x, out y) {{\n    y = {};\n}}\n",
                terms.join("\n      + ")
            )
        }
        Shape::Horner(d) => {
            let mut e = format!("{}", coeff());
            for _ in 0..d {
                e = format!("({e}) * x + {}", coeff());
            }
            format!("kernel horner{d}_{uid}(in x, out y) {{\n    y = {e};\n}}\n")
        }
        Shape::Mac(n) => {
            let params: Vec<String> = (0..n).map(|i| format!("in a{i}, in b{i}")).collect();
            let terms: Vec<String> = (0..n)
                .map(|i| format!("{} * (a{i} * b{i})", coeff()))
                .collect();
            format!(
                "kernel mac{n}_{uid}({}, inout acc = 0) {{\n    acc = acc + {};\n}}\n",
                params.join(", "),
                terms.join(" + ")
            )
        }
        Shape::Clip => {
            let lo = coeff();
            let hi = lo + 100 + coeff();
            let sh = 1 + rng.below(3);
            format!(
                "kernel clip_{uid}(in x, out y) {{\n    if (x > {hi}) {{\n        y = {hi} + ((x - {hi}) >> {sh});\n    }} else {{\n        if (x < {lo}) {{ y = {lo}; }} else {{ y = x; }}\n    }}\n}}\n"
            )
        }
        Shape::Gather(n) => {
            let terms: Vec<String> = (0..n)
                .map(|_| format!("{} * mem[i + {}]", coeff(), coeff()))
                .collect();
            format!(
                "kernel gather{n}_{uid}(in i, inout acc = 0) {{\n    acc = acc + {};\n}}\n",
                terms.join(" + ")
            )
        }
    }
}

/// One structural class of `serve_miss` request: shape × mapper ×
/// fabric. Latency depends on the class, not on the coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissClass {
    pub shape: Shape,
    pub mapper: &'static str,
    pub fabric: FabricSpec,
}

/// All 15 × 4 × 3 = 180 classes, in a fixed order.
pub fn miss_classes() -> Vec<MissClass> {
    let mut v = Vec::new();
    for shape in SHAPES {
        for mapper in SERVE_MAPPERS {
            for fabric in miss_fabrics() {
                v.push(MissClass {
                    shape,
                    mapper,
                    fabric,
                });
            }
        }
    }
    v
}

/// Block `block` of the `serve_miss` stream for `seed`: every class
/// exactly once, in a seeded order, each with fresh coefficients and a
/// kernel name no other request of the run has. The stream is
/// stratified this way so that any whole number of blocks is the same
/// mix of work: percentiles and throughput then move with the
/// program's speed, not with which classes a seed happened to draw.
/// Returns `(class index, request)` pairs.
pub fn miss_block(seed: u64, block: u64) -> Vec<(usize, MapRequest)> {
    let classes = miss_classes();
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ block);
    let mut order: Vec<usize> = (0..classes.len()).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .enumerate()
        .map(|(pos, ci)| {
            let c = classes[ci];
            let uid = block * classes.len() as u64 + pos as u64;
            let mut req = MapRequest::new(
                KernelSpec::Source {
                    source: kernel_source(c.shape, uid, &mut rng),
                    name: None,
                },
                c.mapper,
            );
            req.fabric = c.fabric;
            req.id = uid + 1;
            (ci, req)
        })
        .collect()
}

/// The requests of [`miss_block`] without their class indices.
pub fn block_requests(seed: u64, block: u64) -> Vec<MapRequest> {
    miss_block(seed, block)
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

/// One instance of a `map_*` workload: a suite kernel by name, a
/// mapper and a square mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    pub kernel: &'static str,
    pub mapper: &'static str,
    pub side: u16,
}

impl Instance {
    pub fn request(&self, id: u64) -> MapRequest {
        let mut req = MapRequest::new(KernelSpec::Named(self.kernel.into()), self.mapper);
        req.fabric = mesh(self.side, self.side);
        req.config.time_limit_ms = MAP_TIME_LIMIT_MS;
        req.id = id;
        req
    }

    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}x{}",
            self.kernel, self.mapper, self.side, self.side
        )
    }
}

/// The 13 kernels of `cgra_ir::kernels::suite()`, by name.
pub const SUITE: [&str; 13] = [
    "dot_product",
    "accumulate",
    "fir4",
    "iir1",
    "matmul_body",
    "conv3",
    "sad",
    "sobel",
    "yuv2rgb",
    "fft_butterfly",
    "horner4",
    "laplacian",
    "threshold",
];

/// The three largest suite kernels; `sat` and `cp` do not finish them
/// within the limit on the parent commit.
const LARGE: [&str; 3] = ["sobel", "yuv2rgb", "fft_butterfly"];

fn inst(kernel: &'static str, mapper: &'static str, side: u16) -> Instance {
    Instance {
        kernel,
        mapper,
        side,
    }
}

/// `map_exact`: 61 instances chosen from a measured 5 × 13 × 2 matrix
/// (exact mappers × suite × {3×3, 4×4}) as those that finish in under
/// 0.5 s, far from the limit, and return a mapping on the parent
/// commit. The three that take 0.3–0.8 s — `cp` on `horner4`/3×3,
/// `bnb` on `sobel` and `fft_butterfly`/4×4 — were half of a 3.2 s
/// pass; without them a pass takes 1.6 s and a run has enough passes
/// for its lower decile to find the ones the machine left alone.
pub fn exact_instances() -> Vec<Instance> {
    let mut v = Vec::new();
    for k in SUITE.into_iter().filter(|k| !LARGE.contains(k)) {
        for side in [3, 4] {
            v.push(inst(k, "sat", side));
            if k != "horner4" {
                v.push(inst(k, "cp", side));
            }
        }
    }
    for k in SUITE.into_iter().filter(|k| *k != "horner4") {
        v.push(inst(k, "bnb", 3));
    }
    for k in ["fir4", "laplacian"] {
        v.push(inst(k, "bnb", 4));
    }
    for k in ["dot_product", "accumulate", "sad", "laplacian", "horner4"] {
        v.push(inst(k, "ilp", 3));
    }
    v.push(inst("accumulate", "smt", 3));
    v.push(inst("accumulate", "smt", 4));
    v.push(inst("dot_product", "smt", 3));
    v.push(inst("sad", "smt", 3));
    v
}

/// The eight constructive heuristics and the three meta-heuristics.
pub const HEURISTICS: [&str; 8] = [
    "spatial-greedy",
    "graph-drawing",
    "modulo-list",
    "edge-centric",
    "epimap",
    "ramp",
    "himap",
    "graph-minor",
];
pub const META_HEURISTICS: [&str; 3] = ["sa", "ga", "qea"];

/// `map_heuristic`: the heuristics × suite × {4×4, 8×8} and the
/// meta-heuristics × the ten smaller kernels × 4×4, minus what does
/// not map on the parent commit (the spatial mappers need one PE per
/// operation and a recurrence-free kernel; `graph-minor` gives up on
/// `sobel`). The meta-heuristics take 0.2–1.2 s each on `sobel`,
/// `yuv2rgb` and `fft_butterfly`; without those nine runs a pass takes
/// under 2 s, so a run has eight or more of them.
pub fn heuristic_instances() -> Vec<Instance> {
    let spatial = ["spatial-greedy", "graph-drawing"];
    let unmapped = |k: &str, m: &str, side: u16| -> bool {
        (spatial.contains(&m)
            && (k == "iir1"
                || (side == 4 && ["sobel", "yuv2rgb", "fft_butterfly", "horner4"].contains(&k))))
            || (m == "graph-minor" && (k == "sobel" || (k == "laplacian" && side == 8)))
    };
    let mut v = Vec::new();
    for k in SUITE {
        for m in HEURISTICS {
            for side in [4, 8] {
                if !unmapped(k, m, side) {
                    v.push(inst(k, m, side));
                }
            }
        }
        for m in META_HEURISTICS {
            if !LARGE.contains(&k) {
                v.push(inst(k, m, 4));
            }
        }
    }
    v
}

/// Per-request limit of the `map_*` workloads. Every listed instance
/// finishes in well under a fifth of it on the reference box, so a
/// timeout is a real failure, not a clipped sample.
pub const MAP_TIME_LIMIT_MS: u64 = 10_000;

#[cfg(test)]
mod tests {
    use super::*;
    use cgra::ir::{frontend, passes};

    fn wire_line(req: &MapRequest) -> String {
        serde_json::to_string(req).unwrap()
    }

    #[test]
    fn same_seed_gives_byte_identical_request_lines() {
        for seed in [1, 2, 99] {
            let lines = |block| -> Vec<String> {
                miss_block(seed, block)
                    .iter()
                    .map(|(_, r)| wire_line(r))
                    .collect()
            };
            assert_eq!(lines(0), lines(0));
            assert_eq!(lines(3), lines(3));
            assert_ne!(lines(0), lines(3));
            let h1: Vec<String> = hit_requests(seed).iter().map(wire_line).collect();
            let h2: Vec<String> = hit_requests(seed).iter().map(wire_line).collect();
            assert_eq!(h1, h2);
        }
    }

    #[test]
    fn different_seeds_give_different_sources_and_orders() {
        let sources = |seed| -> Vec<String> {
            let mut block = miss_block(seed, 0);
            block.sort_by_key(|(class, _)| *class);
            block.iter().map(|(_, r)| wire_line(r)).collect()
        };
        // Same class, same position in the sorted list — but other
        // coefficients, so the source text (and the key) differs.
        let differing = sources(1)
            .iter()
            .zip(&sources(2))
            .filter(|(a, b)| a != b)
            .count();
        assert!(differing > 170, "{differing}");
        let order = |seed| -> Vec<String> {
            hit_requests(seed)
                .iter()
                .map(|r| format!("{}/{}", r.kernel.label(), r.mapper))
                .collect()
        };
        assert_ne!(order(1), order(2));
    }

    #[test]
    fn every_miss_request_is_a_new_cache_key() {
        let mut keys = std::collections::HashSet::new();
        for block in 0..20 {
            let reqs = miss_block(1, block);
            let classes: std::collections::HashSet<usize> = reqs.iter().map(|(c, _)| *c).collect();
            assert_eq!(
                classes.len(),
                miss_classes().len(),
                "a block is every class once"
            );
            for (_, r) in reqs {
                assert!(keys.insert(r.cache_key()));
            }
        }
    }

    #[test]
    fn the_hit_working_set_is_48_distinct_keys() {
        let hit = hit_requests(1);
        assert_eq!(hit.len(), 48);
        let keys: std::collections::HashSet<_> = hit.iter().map(|r| r.cache_key()).collect();
        assert_eq!(keys.len(), 48);
    }

    #[test]
    fn instance_lists_name_real_kernels_and_mappers_once() {
        let suite: Vec<String> = cgra::ir::kernels::suite()
            .into_iter()
            .map(|k| k.name)
            .collect();
        assert_eq!(suite, SUITE.to_vec());
        let registry = cgra::mapper::MapperRegistry::standard();
        for (list, exact, len) in [
            (exact_instances(), true, 61),
            (heuristic_instances(), false, 223),
        ] {
            assert_eq!(list.len(), len);
            let labels: std::collections::HashSet<String> =
                list.iter().map(Instance::label).collect();
            assert_eq!(labels.len(), list.len());
            for i in &list {
                assert!(SUITE.contains(&i.kernel), "{}", i.label());
                let spec = registry.get(i.mapper).expect(i.mapper);
                assert_eq!(spec.family.is_exact(), exact, "{}", i.label());
            }
        }
    }

    #[test]
    fn every_generated_kernel_compiles_to_7_to_25_ops() {
        let mut rng = Rng::new(5);
        for shape in SHAPES {
            for uid in 0..5 {
                let src = kernel_source(shape, uid, &mut rng);
                let mut dfg = frontend::compile_kernel(&src)
                    .unwrap_or_else(|e| panic!("{shape:?}: {e}\n{src}"))
                    .dfg;
                passes::optimize(&mut dfg);
                dfg.validate().unwrap();
                let n = dfg.node_count();
                assert!((7..=25).contains(&n), "{shape:?} has {n} ops\n{src}");
            }
        }
    }

    #[test]
    fn coefficients_do_not_change_the_optimised_shape() {
        for shape in SHAPES {
            let counts: std::collections::HashSet<usize> = (0..20)
                .map(|uid| {
                    let mut rng = Rng::new(uid);
                    let src = kernel_source(shape, uid, &mut rng);
                    let mut dfg = frontend::compile_kernel(&src).unwrap().dfg;
                    passes::optimize(&mut dfg);
                    dfg.node_count()
                })
                .collect();
            assert_eq!(counts.len(), 1, "{shape:?}: {counts:?}");
        }
    }
}
