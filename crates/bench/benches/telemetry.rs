//! Telemetry overhead benches: the disabled sink must be free.
//!
//! The observability contract (see DESIGN.md) is that a `Telemetry`
//! handle with no sink costs a null check on the hot paths. These
//! benches compare the router and the modulo-list scheduler with the
//! sink disabled, enabled, and (for the router) against the pre-sink
//! `route_all` entry point, so a regression in the disabled path shows
//! up as a gap between the `off` and `baseline` rows.

use cgra::mapper::route::{route_all, route_all_with};
use cgra::mapper::servemetrics::ServiceMetrics;
use cgra::mapper::telemetry::Telemetry;
use cgra::prelude::*;
use cgra_arch::TopologyCache;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_router_overhead(c: &mut Criterion) {
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let dfg = kernels::sobel();
    let place = cgra_bench::strided_placement(&dfg, &fabric);
    let topo = TopologyCache::build(&fabric);
    let mut group = c.benchmark_group("telemetry_router");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(6));
    group.bench_function("baseline", |b| {
        b.iter(|| criterion::black_box(route_all(&fabric, &dfg, &place, 8, 10, true)))
    });
    let off = Telemetry::off();
    group.bench_function("off", |b| {
        b.iter(|| {
            criterion::black_box(route_all_with(
                &fabric, &topo, &dfg, &place, 8, 10, true, &off,
            ))
        })
    });
    let on = Telemetry::enabled();
    group.bench_function("on", |b| {
        b.iter(|| {
            criterion::black_box(route_all_with(
                &fabric, &topo, &dfg, &place, 8, 10, true, &on,
            ))
        })
    });
    group.finish();
}

fn bench_modulo_list_overhead(c: &mut Criterion) {
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let dfg = kernels::fir(8);
    let mut group = c.benchmark_group("telemetry_modulo_list");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(6));
    for (label, tele) in [("off", Telemetry::off()), ("on", Telemetry::enabled())] {
        let cfg = MapConfig {
            telemetry: tele,
            ..MapConfig::fast()
        };
        group.bench_function(label, |b| {
            b.iter(|| criterion::black_box(ModuloList::default().map(&dfg, &fabric, &cfg)))
        });
    }
    group.finish();
}

/// Events ride the same handle: on a disabled sink an emit is a null
/// check that builds no payload; on an enabled one it is a counter
/// bump plus a timestamped append to the journal under its lock. Each
/// row times 1024 `incumbent` emits; the enabled row emits into a fresh
/// sink, so the journal never reaches its cap and every append is real.
fn bench_event_emit_overhead(c: &mut Criterion) {
    const EMITS: u32 = 1024;
    let mut group = c.benchmark_group("telemetry_events");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(6));
    let off = Telemetry::off();
    group.bench_function("emit_disabled", |b| {
        b.iter(|| {
            for ii in 0..EMITS {
                off.incumbent("bench", ii, criterion::black_box(1.0));
            }
        })
    });
    group.bench_function("emit_enabled", |b| {
        b.iter(|| {
            let on = Telemetry::enabled();
            for ii in 0..EMITS {
                on.incumbent("bench", ii, criterion::black_box(1.0));
            }
            on
        })
    });
    group.finish();
}

/// The latency histograms ride the same contract: recording into a
/// disabled sink must stay a null check, and recording into an enabled
/// sink is one atomic bucket increment. The `off` row here pins the
/// disabled-path cost to noise next to `baseline` (an empty loop over
/// the same values).
fn bench_histogram_overhead(c: &mut Criterion) {
    let samples: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(2654435761) % 50_000)
        .collect();
    let mut group = c.benchmark_group("telemetry_histogram");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(6));
    group.bench_function("baseline", |b| {
        b.iter(|| {
            for &v in &samples {
                criterion::black_box(v);
            }
        })
    });
    let off = Telemetry::off();
    group.bench_function("off", |b| {
        b.iter(|| {
            for &v in &samples {
                off.record_route_us(criterion::black_box(v));
            }
        })
    });
    let on = Telemetry::enabled();
    group.bench_function("on", |b| {
        b.iter(|| {
            for &v in &samples {
                on.record_route_us(criterion::black_box(v));
            }
        })
    });
    group.finish();
}

/// The service metrics registry extends the contract to the daemon:
/// a disabled `ServiceMetrics` handle must make every observation a
/// null check, so embedded `MapService` users (and `MapService::new`,
/// which keeps metrics off) pay nothing for the telemetry PR. The
/// `off` row pins that cost to noise against `baseline`; the `on` row
/// is the daemon's real price — three atomic adds per request.
fn bench_service_metrics_overhead(c: &mut Criterion) {
    let samples: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(2654435761) % 50_000)
        .collect();
    let mut group = c.benchmark_group("service_metrics");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(6));
    group.bench_function("baseline", |b| {
        b.iter(|| {
            for &v in &samples {
                criterion::black_box(v);
            }
        })
    });
    for (label, metrics) in [
        ("off", ServiceMetrics::off()),
        ("on", ServiceMetrics::enabled()),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                for &v in &samples {
                    metrics.observe_request(criterion::black_box(v));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_router_overhead,
    bench_modulo_list_overhead,
    bench_event_emit_overhead,
    bench_histogram_overhead,
    bench_service_metrics_overhead
);
criterion_main!(benches);
