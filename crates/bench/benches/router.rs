//! Criterion benches for the space-time router and the PathFinder
//! negotiation loop (the ablation's performance side).
//!
//! The `route_all` group carries the cached-vs-uncached pair: the
//! `negotiated_cached` row runs the [`TopologyCache`]-backed
//! `route_all_with` hot path, `negotiated_uncached` runs the frozen
//! pre-cache router (`route::naive`), so the gap between them is the
//! topology-cache + scratch-reuse win on the real historical baseline.
//! The machine-independent form of that gap (a speedup ratio) is what
//! the `bench_router` bin emits into `BENCH_router.json` for the CI
//! regression gate.

use cgra::mapper::route::{self, find_route, route_all, route_all_with, RouteOpts};
use cgra::mapper::telemetry::Telemetry;
use cgra::prelude::*;
use cgra_arch::TopologyCache;
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;
use std::time::Duration;

fn bench_single_route(c: &mut Criterion) {
    let fabric = Fabric::homogeneous(8, 8, Topology::Mesh);
    let st = cgra::arch::SpaceTime::new(&fabric, 4);
    let mut group = c.benchmark_group("router");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(6));
    group.bench_function("corner_to_corner_8x8", |b| {
        b.iter(|| {
            std::hint::black_box(find_route(
                &fabric,
                &st,
                PeId(0),
                0,
                PeId(63),
                16,
                &HashSet::new(),
                None,
                RouteOpts::default(),
            ))
        })
    });
    group.finish();
}

fn bench_route_all(c: &mut Criterion) {
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let topo = TopologyCache::build(&fabric);
    let dfg = kernels::sobel();
    let place = cgra_bench::strided_placement(&dfg, &fabric);
    let off = Telemetry::off();
    let mut group = c.benchmark_group("route_all");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(8));
    for (label, negotiated) in [("negotiated", true), ("single_pass", false)] {
        group.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(route_all(&fabric, &dfg, &place, 8, 10, negotiated)))
        });
    }
    // Cached vs uncached: same work, shared topology table + reused
    // scratch vs the frozen pre-cache router.
    group.bench_function("negotiated_cached", |b| {
        b.iter(|| {
            std::hint::black_box(route_all_with(
                &fabric, &topo, &dfg, &place, 8, 10, true, &off,
            ))
        })
    });
    group.bench_function("negotiated_uncached", |b| {
        b.iter(|| std::hint::black_box(route::naive::route_all(&fabric, &dfg, &place, 8, 10, true)))
    });
    group.finish();
}

criterion_group!(benches, bench_single_route, bench_route_all);
criterion_main!(benches);
