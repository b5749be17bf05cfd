//! Cross-mapper telemetry guarantees: determinism of same-seed runs and
//! inertness of the disabled sink.

use cgra_arch::{Fabric, Topology};
use cgra_ir::kernels;
use cgra_mapper_core::mappers::{Genetic, ModuloList, SimulatedAnnealing};
use cgra_mapper_core::telemetry::{StatsSnapshot, Telemetry};
use cgra_mapper_core::{MapConfig, Mapper};

fn run_with_stats(mapper: &dyn Mapper, seed: u64) -> StatsSnapshot {
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let dfg = kernels::dot_product();
    let cfg = MapConfig {
        seed,
        telemetry: Telemetry::enabled(),
        ..MapConfig::fast()
    };
    mapper
        .map(&dfg, &fabric, &cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", mapper.name()));
    cfg.telemetry.snapshot().unwrap()
}

/// Counters are sums of per-thread deterministic contributions; relaxed
/// atomic addition commutes, so two same-seed runs must agree exactly
/// even though SA/GA evaluate their populations on a rayon pool.
#[test]
fn same_seed_sa_runs_have_identical_counters() {
    let sa = SimulatedAnnealing::default();
    let a = run_with_stats(&sa, 42);
    let b = run_with_stats(&sa, 42);
    assert_eq!(a, b);
    assert!(a.moves_proposed > 0, "SA proposed no moves: {a:?}");
    assert!(a.moves_accepted > 0, "SA accepted no moves: {a:?}");
}

#[test]
fn same_seed_ga_runs_have_identical_counters() {
    let ga = Genetic;
    let a = run_with_stats(&ga, 1337);
    let b = run_with_stats(&ga, 1337);
    assert_eq!(a, b);
    assert!(a.moves_proposed > 0, "GA produced no offspring: {a:?}");
}

/// A mapper run with the default (disabled) sink must record nothing:
/// no snapshot, no spans, no sink allocation.
#[test]
fn disabled_sink_records_no_events() {
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let dfg = kernels::dot_product();
    let cfg = MapConfig::fast();
    assert!(!cfg.telemetry.is_enabled());
    ModuloList.map(&dfg, &fabric, &cfg).unwrap();
    assert!(cfg.telemetry.snapshot().is_none());
    assert!(cfg.telemetry.spans().is_empty());
    assert!(cfg.telemetry.sink().is_none());
}
