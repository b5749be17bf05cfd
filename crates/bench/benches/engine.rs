//! Engine overhead benches: budget polling must be noise.
//!
//! The engine contract (see DESIGN.md) is that threading a [`Budget`]
//! through the hot scheduling loops costs one relaxed atomic load per
//! poll, with the clock read only every stride-th call. These benches
//! compare the modulo-list scheduler under an unlimited budget (cancel
//! flag only) and under a far deadline (flag + amortised clock), and
//! pin the raw `Budget::expired()` poll itself, so a regression in the
//! amortisation shows up as a gap between the rows.

use cgra::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_expired_poll(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_budget_poll");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(6));
    let unlimited = Budget::unlimited();
    group.bench_function("expired_unlimited", |b| {
        b.iter(|| criterion::black_box(unlimited.expired()))
    });
    let far = Budget::for_duration(Duration::from_secs(3600));
    group.bench_function("expired_deadline", |b| {
        b.iter(|| criterion::black_box(far.expired()))
    });
    group.bench_function("expired_now", |b| {
        b.iter(|| criterion::black_box(far.expired_now()))
    });
    group.finish();
}

fn bench_modulo_list_budget_overhead(c: &mut Criterion) {
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let dfg = kernels::fir(8);
    let mut group = c.benchmark_group("engine_modulo_list");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(6));
    for (label, budget) in [
        ("unlimited", Budget::unlimited()),
        ("deadline", Budget::for_duration(Duration::from_secs(3600))),
    ] {
        let cfg = MapConfig {
            budget,
            ..MapConfig::fast()
        };
        group.bench_function(label, |b| {
            b.iter(|| criterion::black_box(ModuloList::default().map(&dfg, &fabric, &cfg)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_expired_poll,
    bench_modulo_list_budget_overhead
);
criterion_main!(benches);
