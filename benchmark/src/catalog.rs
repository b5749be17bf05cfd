//! The one table of workload and metric names. `BENCHMARK.json` at the
//! repository root is generated from it (`cgra-benchmark manifest`)
//! and a unit test keeps the checked-in file equal to it, so the
//! manifest, the runner and `compare` cannot drift apart.

use serde::Value;

/// `(name, why)` — the names are fixed; later issues cite them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve_hit",
        "48 primed keys replayed over loopback: wire, JSON codec, cache_key, cache probe and outcome clone do all the work; mappers and solvers none",
    ),
    (
        "serve_miss",
        "every request a new generated MiniC kernel: the full miss path wire, front-end, passes, heuristic mappers, router, validate, cache insert",
    ),
    (
        "map_exact",
        "in-process exact mappers (sat, cp, bnb, ilp, smt) on suite kernels, 3x3 and 4x4: solver-dominated, no wire, no cache, no front-end",
    ),
    (
        "map_heuristic",
        "in-process heuristic and meta-heuristic mappers on suite kernels, 4x4 and 8x8: placement search and router dominated, solvers idle",
    ),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 26;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression; `None` for per-layer
    /// metrics, which are reported but never gated.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
    }
}

/// The end-to-end metrics: what a compiler or DSE loop calling the
/// system sees. Every workload reports every one of them.
///
/// `ii_over_mii_geomean` is a function of the request list: it repeats
/// to the last digit on three workloads and within 0.02 % on
/// `serve_miss`, whose kernels change with the seed; its bound is below
/// what one II step on one `map_exact` instance moves it by (1.1 %).
/// `peak_rss_mb` repeats within 1–3 %. The timing bounds are as wide as
/// the contract allows, for the box's sake: left alone it spreads ten
/// seeds by 1–5 %, but a neighbour slows it for minutes at a time, and
/// a ten-seed set that fell into such a stretch spread by 17–23 % on
/// every timing of `map_exact`, whatever the estimator. The driver
/// refuses a benchmark whose spread exceeds its bound.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        e2e("req_p50_ms", "ms", Lower, 0.25),
        e2e("req_p90_ms", "ms", Lower, 0.25),
        e2e("req_p99_ms", "ms", Lower, 0.25),
        e2e("req_geomean_ms", "ms", Lower, 0.25),
        e2e("throughput_rps", "1/s", Higher, 0.25),
        e2e("ii_over_mii_geomean", "ratio", Lower, 0.002),
        e2e("peak_rss_mb", "MB", Lower, 0.10),
        e2e("setup_s", "s", Lower, 0.25),
    ]
}

/// Registry names of the 16 mappers, in report order.
pub const MAPPERS: [&str; 16] = [
    "spatial-greedy",
    "graph-drawing",
    "modulo-list",
    "edge-centric",
    "epimap",
    "ramp",
    "himap",
    "graph-minor",
    "sa",
    "ga",
    "qea",
    "ilp",
    "bnb",
    "cp",
    "sat",
    "smt",
];

/// The per-layer metrics of the traced pass; layer = module name.
/// A metric a workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push((name.to_string(), unit, better));
    };
    // request: the wire codec and the cache key.
    add("request.line_bytes", "B", Lower);
    add("request.response_bytes", "B", Lower);
    add("request.render_us", "us", Lower);
    add("request.parse_us", "us", Lower);
    add("request.cache_key_ns", "ns", Lower);
    add("request.encode_us", "us", Lower);
    add("request.decode_us", "us", Lower);
    // serve: the TCP daemon around the service.
    add("serve.ping_rtt_us", "us", Lower);
    add("serve.wire_residual_us", "us", Lower);
    // service: cache, spill, admission, warm start.
    add("service.handle_hit_us", "us", Lower);
    add("service.cache_get_ns", "ns", Lower);
    add("service.cache_insert_us", "us", Lower);
    add("service.spill_write_us", "us", Lower);
    add("service.spill_load_us", "us", Lower);
    add("service.handle_miss_overhead_us", "us", Lower);
    add("service.queue_wait_us", "us", Lower);
    add("service.warm_remap_ms", "ms", Lower);
    add("service.cold_remap_ms", "ms", Lower);
    for c in [
        "hits",
        "misses",
        "warm",
        "coalesced",
        "evictions",
        "disk_spills",
        "rejections",
    ] {
        add(&format!("service.{c}"), "count", Lower);
    }
    // ir: MiniC front-end and middle-end passes.
    add("ir.frontend_us", "us", Lower);
    add("ir.passes_us", "us", Lower);
    add("ir.nodes_in", "count", Lower);
    add("ir.nodes_out", "count", Lower);
    // arch: fabric model and topology tables.
    for side in ["4x4", "8x8"] {
        add(&format!("arch.fabric_build_{side}_us"), "us", Lower);
        add(&format!("arch.topo_build_{side}_us"), "us", Lower);
    }
    // mappers: per-mapper time and achieved II, then search effort.
    for m in MAPPERS {
        add(&format!("mappers.{m}.map_ms"), "ms", Lower);
        add(&format!("mappers.{m}.ii_sum"), "count", Lower);
    }
    add("mappers.ii_attempts", "count", Lower);
    add("mappers.placements_tried", "count", Lower);
    add("mappers.backtracks", "count", Lower);
    add("mappers.moves_proposed", "count", Lower);
    add("mappers.exact_ii_disagreements", "count", Lower);
    // route: the space-time router under the heuristic mappers.
    add("route.calls", "count", Lower);
    add("route.failures", "count", Lower);
    add("route.useful_ratio", "ratio", Higher);
    add("route.span_share", "ratio", Lower);
    add("route.route_all_us", "us", Lower);
    // solver: the from-scratch exact engines.
    for c in [
        "decisions",
        "propagations",
        "conflicts",
        "restarts",
        "assumption_solves",
        "learnt_kept",
    ] {
        add(&format!("solver.{c}"), "count", Lower);
    }
    add("solver.sat_php_ms", "ms", Lower);
    add("solver.lp_assign_us", "us", Lower);
    add("solver.ilp_knapsack_ms", "ms", Lower);
    add("solver.cp_queens_ms", "ms", Lower);
    // validate / metrics: what every mapping passes through on its way out.
    add("validate.validate_us", "us", Lower);
    add("validate.sim_verify_us", "us", Lower);
    add("metrics.of_us", "us", Lower);
    // trace: how much of a request the layers above explain.
    add("trace.coverage_hit", "ratio", Higher);
    add("trace.coverage_miss", "ratio", Higher);
    add("trace.overhead_share", "ratio", Lower);
    v.into_iter()
        .map(|(name, unit, better)| MetricDef {
            name,
            unit,
            better,
            bound: None,
        })
        .collect()
}

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<MetricDef> {
    end_to_end()
        .into_iter()
        .chain(per_layer())
        .find(|m| m.name == name)
}

fn s(x: &str) -> Value {
    Value::Str(x.into())
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name".to_string(), s(&m.name)),
            ("unit".to_string(), s(m.unit)),
            ("better".to_string(), s(m.better.label())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound".to_string(), Value::Float(b)));
        }
        Value::Object(fields)
    };
    Value::Object(vec![
        (
            "command".into(),
            Value::Array(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Value::Array(vec![s("benchmark")])),
        ("run_seconds".into(), Value::UInt(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Object(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer".into(),
            Value::Array(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        let mut chars = n.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(end_to_end().into_iter().map(|m| m.name));
        names.extend(per_layer().into_iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn mapper_names_match_the_registry() {
        let names = cgra::mapper::MapperRegistry::standard().names();
        assert_eq!(names, MAPPERS.to_vec());
    }

    #[test]
    fn checked_in_manifest_matches_the_catalog() {
        let on_disk: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(
            on_disk.render(),
            manifest().render(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }
}
