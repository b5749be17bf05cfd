//! Router hot-path benchmark: cached ([`TopologyCache`] + reused
//! [`RouterScratch`]) vs uncached (the frozen pre-cache router in
//! `route::naive`), emitted as a machine-readable JSON summary.
//!
//! ```sh
//! cargo run --release -p cgra-bench --bin bench_router
//! cargo run --release -p cgra-bench --bin bench_router -- \
//!     --check crates/bench/golden/BENCH_router.json
//! ```
//!
//! Writes `BENCH_router.json` into the results dir (`CGRA_RESULTS_DIR`,
//! default `results/`). With `--check FILE`, the run additionally gates
//! against a checked-in baseline: absolute timings are machine-bound,
//! so the gate compares the cached-vs-uncached *speedup ratio* — the
//! run fails if any row's ratio drops below 75% of the baseline's
//! (i.e. the cached path regressed by more than 25% relative to the
//! uncached reference on the same machine).

use cgra::mapper::route::{self, find_route_with, route_all_with, RouteOpts, RouterScratch};
use cgra::mapper::telemetry::Telemetry;
use cgra::prelude::*;
use cgra_arch::{SpaceTime, TopologyCache};
use cgra_bench::{quick, save_json, strided_placement};
use serde::Serialize;
use std::collections::HashSet;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Row {
    name: String,
    cached_us: f64,
    uncached_us: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Summary {
    schema: String,
    quick: bool,
    rows: Vec<Row>,
}

/// Best-of-`reps` mean over `iters` calls — the usual noise-robust
/// micro-benchmark estimator.
fn time_us<F: FnMut()>(mut f: F, iters: u32, reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / iters as f64);
    }
    best
}

fn bench_route_all(name: &str, fabric: &Fabric, dfg: &cgra_ir::Dfg, ii: u32, iters: u32) -> Row {
    let topo = TopologyCache::build(fabric);
    let place = strided_placement(dfg, fabric);
    let off = Telemetry::off();
    // Both paths must do the same routing work.
    let cached = route_all_with(fabric, &topo, dfg, &place, ii, 10, true, &off);
    let naive = route::naive::route_all(fabric, dfg, &place, ii, 10, true);
    assert_eq!(
        cached.is_some(),
        naive.is_some(),
        "{name}: cached and naive router disagree on feasibility"
    );
    let cached_us = time_us(
        || {
            std::hint::black_box(route_all_with(
                fabric, &topo, dfg, &place, ii, 10, true, &off,
            ));
        },
        iters,
        5,
    );
    let uncached_us = time_us(
        || {
            std::hint::black_box(route::naive::route_all(fabric, dfg, &place, ii, 10, true));
        },
        iters,
        5,
    );
    Row {
        name: name.into(),
        cached_us,
        uncached_us,
        speedup: uncached_us / cached_us,
    }
}

fn bench_find_route(name: &str, fabric: &Fabric, ii: u32, iters: u32) -> Row {
    let topo = TopologyCache::build(fabric);
    let st = SpaceTime::new(fabric, ii);
    let last = PeId(fabric.num_pes() as u16 - 1);
    let span = 2 * (fabric.rows + fabric.cols) as u32;
    let shared = HashSet::new();
    let mut scratch = RouterScratch::new();
    let cached_us = time_us(
        || {
            std::hint::black_box(find_route_with(
                fabric,
                &topo,
                &st,
                PeId(0),
                0,
                last,
                span,
                [],
                None,
                RouteOpts::default(),
                &mut scratch,
            ));
        },
        iters,
        5,
    );
    let uncached_us = time_us(
        || {
            std::hint::black_box(route::naive::find_route(
                fabric,
                &st,
                PeId(0),
                0,
                last,
                span,
                &shared,
                None,
                RouteOpts::default(),
            ));
        },
        iters,
        5,
    );
    Row {
        name: name.into(),
        cached_us,
        uncached_us,
        speedup: uncached_us / cached_us,
    }
}

fn check(summary: &Summary, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = serde_json::from_str(&text).map_err(|e| format!("bad baseline JSON: {e}"))?;
    let rows = baseline
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or("baseline has no `rows` array")?;
    let mut failures = Vec::new();
    for base in rows {
        let name = base
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("baseline row without a `name`")?;
        let base_speedup = base
            .get("speedup")
            .and_then(|s| s.as_f64())
            .ok_or_else(|| format!("baseline row `{name}` without a `speedup`"))?;
        let Some(cur) = summary.rows.iter().find(|r| r.name == name) else {
            failures.push(format!("row `{name}` missing from this run"));
            continue;
        };
        let floor = base_speedup * 0.75;
        if cur.speedup < floor {
            failures.push(format!(
                "row `{name}`: speedup {:.2}x below gate {:.2}x (baseline {:.2}x - 25%)",
                cur.speedup, floor, base_speedup
            ));
        } else {
            eprintln!(
                "  gate ok: {name} {:.2}x (baseline {:.2}x, floor {:.2}x)",
                cur.speedup, base_speedup, floor
            );
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => baseline = Some(args.next().expect("--check needs a FILE")),
            other => {
                eprintln!("unknown option `{other}`\nusage: bench_router [--check BASELINE.json]");
                std::process::exit(2);
            }
        }
    }

    let iters: u32 = if quick() { 40 } else { 200 };
    let mesh4 = Fabric::homogeneous(4, 4, Topology::Mesh);
    let mesh8 = Fabric::homogeneous(8, 8, Topology::Mesh);
    let onehop8 = Fabric::homogeneous(8, 8, Topology::OneHop);

    let rows = vec![
        bench_route_all(
            "route_all_negotiated_sobel_4x4_ii8",
            &mesh4,
            &kernels::sobel(),
            8,
            iters,
        ),
        bench_route_all(
            "route_all_negotiated_fir8_8x8_ii4",
            &mesh8,
            &kernels::fir(8),
            4,
            // ~1 s a call: its longest edges span tens of cycles of
            // 64 PEs, for ten rounds.
            iters / 10,
        ),
        bench_route_all(
            "route_all_negotiated_laplacian_onehop8_ii6",
            &onehop8,
            &kernels::laplacian(),
            6,
            iters,
        ),
        bench_find_route("find_route_corner_8x8_ii4", &mesh8, 4, iters * 5),
    ];

    println!("router hot path: cached (TopologyCache + RouterScratch) vs uncached (naive)\n");
    println!(
        "{:<44} {:>12} {:>12} {:>9}",
        "scenario", "cached_us", "uncached_us", "speedup"
    );
    for r in &rows {
        println!(
            "{:<44} {:>12.1} {:>12.1} {:>8.2}x",
            r.name, r.cached_us, r.uncached_us, r.speedup
        );
    }

    let summary = Summary {
        schema: "bench-router/v1".into(),
        quick: quick(),
        rows,
    };
    save_json("BENCH_router", &summary);

    if let Some(path) = baseline {
        match check(&summary, &path) {
            Ok(()) => println!("\nperf gate: ok (all speedups within 25% of baseline)"),
            Err(why) => {
                eprintln!("\nperf gate FAILED:\n{why}");
                std::process::exit(1);
            }
        }
    }
}
