//! Fleet-scheduling benchmark: makespan and utilization of the
//! multi-kernel, multi-CGRA scheduler vs the naive one-kernel-at-a-time
//! single-fabric baseline, plus spatial co-mapping vs sequential
//! whole-fabric mapping.
//!
//! ```sh
//! cargo run --release -p cgra-bench --bin bench_fleet
//! cargo run --release -p cgra-bench --bin bench_fleet -- \
//!     --check crates/bench/golden/BENCH_fleet.json
//! ```
//!
//! Three sections:
//!
//! 1. **Fleet vs sequential** — the full named-kernel mix (seed
//!    variants multiply the queue so per-job walls are not all cache
//!    collapses) scheduled across an 8x8 mesh + 6x6 mesh-plus farm by
//!    `fleet::plan`/`fleet::run`, vs the same queue one-at-a-time on
//!    the 8x8 alone. `speedup` = baseline makespan / fleet makespan,
//!    min over repetitions, fresh services per repetition so no cache
//!    state leaks between legs.
//! 2. **Co-map vs sequential** — independent kernels mapped
//!    concurrently onto disjoint halves of one fabric via
//!    `fleet::co_map` (deliberately 2-way so 2-core CI runners keep
//!    the ratio honest), vs the same partition assignments solved one
//!    at a time. Solving a half-fabric is harder than solving the
//!    whole (fewer resources, higher II), so the sequential leg uses
//!    the same halves — the ratio isolates the concurrency win.
//! 3. **Warm-aware planning** — after the fleet run every key is
//!    cached; a re-plan against the live service must mark every job
//!    warm and predict a smaller makespan.
//!
//! What is gated is what the queue and the plan decide, not what the
//! machine's second core happens to be doing: every queued kernel
//! scheduled exactly once with no failure, an all-warm re-plan that
//! predicts a smaller makespan than the cold one, disjoint same-wave
//! co-map partitions (asserted in the run), and under `--check` the cold
//! plan's predicted makespan equal to the golden's and mean fabric
//! utilization no lower than 0.75x the golden's. `speedup` and
//! `comap_speedup` are printed and saved but not gated: both are the
//! wall-clock ratio of a sequential leg to a two-thread leg of 20-100 ms,
//! which reads 1.8x when the two threads get a core each and 0.9x when
//! they share one, and on a shared 2-vCPU box which of the two it is
//! changes from minute to minute with the host's load and the guest
//! scheduler's placement (EXPERIMENTS.md, "Performance gates"). "Fleet
//! beats sequential" is checked by CI's `fleet-smoke` job on
//! `cgra-fleet --json`.

use cgra_arch::Topology;
use cgra_bench::{gate, quick};
use cgra_mapper_core::fleet::{self, FleetFabric, FleetReport};
use cgra_mapper_core::request::{FabricSpec, KernelSpec, MapRequest};
use cgra_mapper_core::service::{MapService, ServiceOptions};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

const KERNELS: &[&str] = &[
    "dot_product",
    "accumulate",
    "fir4",
    "iir1",
    "conv3",
    "sad",
    "horner4",
    "threshold",
    "fft_butterfly",
    "laplacian",
    "matmul_body",
    "sobel",
];

#[derive(Debug, Serialize)]
struct FabricRow {
    name: String,
    jobs: usize,
    busy_ms: f64,
    utilization: f64,
    mean_fu: f64,
}

#[derive(Debug, Serialize)]
struct Summary {
    schema: String,
    quick: bool,
    kernels: usize,
    /// Queue length after seed-variant multiplication.
    queue: usize,
    /// Sequential makespan on the first fabric alone (min over reps).
    baseline_ms: f64,
    /// Fleet makespan across the farm (min over reps).
    fleet_ms: f64,
    /// baseline_ms / fleet_ms. Reported, not gated.
    speedup: f64,
    /// Mean per-fabric busy/makespan over the fleet run's farm.
    mean_util: f64,
    /// The same partition assignments solved one at a time (min over
    /// reps).
    comap_seq_ms: f64,
    /// Concurrent disjoint-partition wall (min over reps).
    comap_ms: f64,
    /// comap_seq_ms / comap_ms. Reported, not gated.
    comap_speedup: f64,
    /// Predicted makespan of the cold plan (model units).
    predicted_cold: f64,
    /// Predicted makespan re-planned against the warmed cache.
    predicted_warm: f64,
    fabrics: Vec<FabricRow>,
}

fn farm() -> Vec<FleetFabric> {
    vec![
        FleetFabric::new(
            "8x8 mesh",
            FabricSpec {
                rows: 8,
                cols: 8,
                topology: Topology::Mesh,
                adres: false,
            },
        ),
        FleetFabric::new(
            "6x6 mesh+",
            FabricSpec {
                rows: 6,
                cols: 6,
                topology: Topology::MeshPlus,
                adres: false,
            },
        ),
    ]
}

/// The benchmark queue: every kernel times `variants` seed values, so
/// the queue holds distinct cache keys (a repeated key would collapse
/// to a hit and benchmark the cache, not the scheduler).
fn queue(kernel_count: usize, variants: u64) -> Vec<MapRequest> {
    let mut reqs = Vec::new();
    for seed in 0..variants {
        for k in &KERNELS[..kernel_count] {
            let mut r = MapRequest::new(KernelSpec::Named(k.to_string()), "modulo-list");
            r.config.seed = seed + 1;
            reqs.push(r);
        }
    }
    for (i, r) in reqs.iter_mut().enumerate() {
        r.id = i as u64 + 1;
    }
    reqs
}

fn service(cores: usize) -> MapService {
    MapService::with_options(ServiceOptions {
        cores,
        ..ServiceOptions::default()
    })
}

fn assert_coverage(report: &FleetReport, n: usize) {
    assert_eq!(report.scheduled, n, "every queued kernel scheduled");
    assert_eq!(
        report.failed,
        0,
        "no job may fail: {:?}",
        report
            .jobs
            .iter()
            .filter(|j| j.error.is_some())
            .map(|j| (&j.kernel, &j.error))
            .collect::<Vec<_>>()
    );
    let mut seen: Vec<usize> = report.jobs.iter().map(|j| j.queue_index).collect();
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..n).collect::<Vec<_>>(),
        "every queue index exactly once"
    );
}

fn main() -> ExitCode {
    let kernel_count = if quick() { 10 } else { KERNELS.len() };
    let variants = if quick() { 2 } else { 3 };
    let reps = 3;
    let farm = farm();
    let reqs = queue(kernel_count, variants);

    // --- Section 1: fleet vs sequential single-fabric baseline. ---
    // Fresh services per repetition: a shared cache would turn every
    // later leg into pure hits and benchmark the cache instead.
    let mut baseline_ms = f64::INFINITY;
    let mut fleet_ms = f64::INFINITY;
    let mut best_report: Option<FleetReport> = None;
    let mut predicted_cold = 0.0;
    let mut predicted_warm = 0.0;
    for _ in 0..reps {
        let seq_service = service(1);
        let seq = fleet::run_sequential(&reqs, &farm[0], &seq_service).expect("sequential run");
        assert_coverage(&seq, reqs.len());
        baseline_ms = baseline_ms.min(seq.makespan_ms);

        let fleet_service = service(farm.len());
        let plan = fleet::plan(&reqs, &farm, Some(&fleet_service)).expect("plan");
        let report = fleet::run(&reqs, &farm, &plan, &fleet_service);
        assert_coverage(&report, reqs.len());
        if report.makespan_ms < fleet_ms {
            fleet_ms = report.makespan_ms;
            predicted_cold = plan.makespan;
            // Section 3: warm-aware re-plan against the now-warmed
            // service — every key is cached, costs collapse.
            let warm = fleet::plan(&reqs, &farm, Some(&fleet_service)).expect("warm plan");
            assert!(
                warm.jobs.iter().all(|j| j.warm),
                "after a full fleet run every request must plan warm"
            );
            assert!(
                warm.makespan < plan.makespan,
                "warm plan must predict a smaller makespan ({} vs {})",
                warm.makespan,
                plan.makespan
            );
            predicted_warm = warm.makespan;
            best_report = Some(report);
        }
    }
    let report = best_report.expect("at least one rep");
    let speedup = baseline_ms / fleet_ms.max(1e-9);
    let mean_util = report.fabrics.iter().map(|f| f.utilization).sum::<f64>()
        / report.fabrics.len().max(1) as f64;

    // --- Section 2: co-map vs sequential on one fabric. ---
    // Two kernels, two partitions: concurrency never exceeds two
    // threads, so a 2-core CI runner sees the full effect.
    // Two seed variants of the same kernel: symmetric per-partition
    // load, so the concurrent leg is bounded by one solve, not by the
    // slower of two dissimilar kernels.
    let comap_fabric = farm[0].spec;
    let comap_reqs: Vec<MapRequest> = [1u64, 2]
        .iter()
        .map(|&seed| {
            let mut r = MapRequest::new(KernelSpec::Named("laplacian".into()), "modulo-list");
            r.id = 100 + seed;
            r.config.seed = seed;
            r
        })
        .collect();
    let comap_topo = cgra_arch::TopologyCache::build(&comap_fabric.build().expect("build"));
    let parts =
        fleet::partition_fabric(&comap_fabric, comap_reqs.len(), &comap_topo).expect("partition");
    let mut comap_seq_ms = f64::INFINITY;
    let mut comap_ms = f64::INFINITY;
    for _ in 0..reps {
        // Sequential leg: the same partition assignments, solved one
        // at a time through the same execute() path.
        let exec = cgra_mapper_core::service::ExecEnv::default();
        let t0 = Instant::now();
        for (r, part) in comap_reqs.iter().zip(&parts) {
            let mut req = r.clone();
            req.fabric = part.spec;
            let out = cgra_mapper_core::service::execute(&req, &exec);
            assert!(out.error.is_none(), "{}: {:?}", out.kernel, out.error);
        }
        comap_seq_ms = comap_seq_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let co = fleet::co_map(&comap_reqs, &comap_fabric).expect("co_map");
        comap_ms = comap_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(
            co.jobs.iter().all(|j| j.outcome.error.is_none()),
            "co-map failed: {:?}",
            co.jobs
                .iter()
                .filter_map(|j| j.outcome.error.as_ref())
                .collect::<Vec<_>>()
        );
        // Same-wave partitions must be disjoint.
        let parts: Vec<_> = co.jobs.iter().filter_map(|j| j.partition).collect();
        if parts.len() == 2 && co.jobs[0].wave == co.jobs[1].wave {
            let a: std::collections::BTreeSet<_> = parts[0].cells().into_iter().collect();
            assert!(parts[1].cells().iter().all(|c| !a.contains(c)));
        }
    }
    let comap_speedup = comap_seq_ms / comap_ms.max(1e-9);

    println!(
        "fleet scheduler: {} kernels x {} seed variants over a 2-fabric farm\n",
        kernel_count, variants
    );
    println!(
        "  sequential baseline ({}): {:>8.1} ms",
        farm[0].name, baseline_ms
    );
    println!(
        "  fleet makespan:            {:>8.1} ms  ({speedup:.2}x)",
        fleet_ms
    );
    println!("\n  fabric       jobs   busy ms    util   mean fu");
    for f in &report.fabrics {
        println!(
            "  {:<12} {:>4} {:>9.1} {:>6.1}% {:>8.2}",
            f.name,
            f.jobs,
            f.busy_ms,
            f.utilization * 100.0,
            f.mean_fu
        );
    }
    println!(
        "\n  co-map (2 kernels, disjoint halves of {}): {:.1} ms vs {:.1} ms solving the \
         same halves sequentially ({:.2}x)",
        farm[0].name, comap_ms, comap_seq_ms, comap_speedup
    );
    println!(
        "  warm-aware re-plan: predicted makespan {:.0} -> {:.0} model units",
        predicted_cold, predicted_warm
    );

    let summary = Summary {
        schema: "bench-fleet/v1".into(),
        quick: quick(),
        kernels: kernel_count,
        queue: reqs.len(),
        baseline_ms,
        fleet_ms,
        speedup,
        mean_util,
        comap_seq_ms,
        comap_ms,
        comap_speedup,
        predicted_cold,
        predicted_warm,
        fabrics: report
            .fabrics
            .iter()
            .map(|f| FabricRow {
                name: f.name.clone(),
                jobs: f.jobs,
                busy_ms: f.busy_ms,
                utilization: f.utilization,
                mean_fu: f.mean_fu,
            })
            .collect(),
    };
    gate(
        "BENCH_fleet",
        &summary,
        &[("mean_util", mean_util)],
        &[("predicted_cold", predicted_cold)],
    )
}
