//! Cancellation-latency and racing contracts of the map engine.
//!
//! Every mapper in the registry must honour [`Budget::cancel`]
//! promptly (the budget is polled inside the hot scheduling loops and
//! forwarded into the solver engines), racing must yield a validated
//! winner, and a cancelled run must never surface an invalid mapping.

use cgra_arch::{Fabric, Topology};
use cgra_ir::kernels;
use cgra_mapper_core::engine::{race, Budget};
use cgra_mapper_core::registry::MapperRegistry;
use cgra_mapper_core::validate::validate;
use cgra_mapper_core::{MapConfig, MapError, Metrics};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// A kernel big enough that no mapper finishes it instantly on 4x4.
fn hard_kernel() -> cgra_ir::Dfg {
    kernels::unrolled_mac(12)
}

fn mesh() -> Fabric {
    Fabric::homogeneous(4, 4, Topology::Mesh)
}

/// Generous-deadline config whose budget is cancelled externally.
fn cancellable_cfg(budget: &Budget) -> MapConfig {
    MapConfig {
        time_limit: Duration::from_secs(3600),
        budget: budget.clone(),
        ..MapConfig::fast()
    }
}

/// Every registered mapper must return within the latency bound once
/// its budget's cancel token fires — the ISSUE's ~100ms target with a
/// hard bound of 150ms.
#[test]
fn every_mapper_stops_promptly_on_cancel() {
    let fabric = mesh();
    let dfg = hard_kernel();
    for spec in MapperRegistry::standard().specs() {
        let budget = Budget::unlimited();
        let cfg = cancellable_cfg(&budget);
        let mapper = spec.build();
        let dfg2 = dfg.clone();
        let fabric2 = fabric.clone();
        let handle = std::thread::spawn(move || {
            let out = mapper.map(&dfg2, &fabric2, &cfg);
            (out, Instant::now())
        });
        std::thread::sleep(Duration::from_millis(50));
        let cancelled_at = Instant::now();
        budget.cancel();
        let (result, returned_at) = handle.join().unwrap();
        let lag = returned_at.saturating_duration_since(cancelled_at);
        assert!(
            lag <= Duration::from_millis(150),
            "{}: returned {}ms after cancel",
            spec.name,
            lag.as_millis()
        );
        // A mapper that won the race against the cancel must still be
        // valid; one that lost must report why it stopped.
        match result {
            Ok(m) => validate(&m, &dfg, &fabric)
                .unwrap_or_else(|e| panic!("{}: invalid mapping: {e}", spec.name)),
            Err(e) => assert!(
                matches!(
                    e,
                    MapError::Cancelled | MapError::Timeout | MapError::Infeasible(_)
                ),
                "{}: unexpected error {e}",
                spec.name
            ),
        }
    }
}

/// Racing the zoo twice with the same seed must decide both races with
/// a validated winner at the same II (the deterministic-metrics
/// guarantee; the winning mapper's identity is not pinned).
#[test]
fn same_seed_races_agree_on_the_winning_ii() {
    let zoo = MapperRegistry::standard().build_heuristics();
    let dfg = kernels::dot_product();
    let fabric = mesh();
    let cfg = MapConfig::fast();

    let a = race(&zoo, &dfg, &fabric, &cfg, None);
    let b = race(&zoo, &dfg, &fabric, &cfg, None);
    for out in [&a, &b] {
        assert!(out.winner.is_some(), "race failed: {:?}", out.entries);
        let m = out.mapping.as_ref().unwrap();
        validate(m, &dfg, &fabric).unwrap();
    }
    let winning_ii = |out: &cgra_mapper_core::RaceOutcome| {
        let row = out
            .entries
            .iter()
            .find(|e| Some(&e.mapper) == out.winner.as_ref());
        row.and_then(|e| e.ii()).unwrap()
    };
    let (ii_a, ii_b) = (winning_ii(&a), winning_ii(&b));
    assert_eq!(ii_a, ii_b, "same-seed races disagreed on the winning II");
}

/// The race-mode smoke from the ISSUE: example kernels under a 2s
/// budget must decide within budget plus slack, and the losers'
/// cancellations must be visible in the telemetry rows.
#[test]
fn race_smoke_stays_within_budget() {
    let zoo = MapperRegistry::standard().build_all();
    let fabric = mesh();
    let budget = Duration::from_secs(2);
    let slack = Duration::from_millis(1500);
    for dfg in [
        kernels::dot_product(),
        kernels::fir(4),
        kernels::sobel(),
        kernels::fft_butterfly(),
    ] {
        let cfg = MapConfig {
            time_limit: budget,
            ..MapConfig::default()
        };
        let start = Instant::now();
        let out = race(&zoo, &dfg, &fabric, &cfg, None);
        let wall = start.elapsed();
        assert!(
            wall < budget + slack,
            "{}: race took {}ms (budget {}ms)",
            dfg.name,
            wall.as_millis(),
            budget.as_millis()
        );
        let m = out
            .mapping
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no winner: {:?}", dfg.name, out.entries));
        validate(m, &dfg, &fabric).unwrap();
        let metrics = Metrics::of(m, &dfg, &fabric);
        assert!(metrics.ii >= 1);
        // Every row carries its per-job stats snapshot, and any loser
        // recorded as cancelled bumped the cancellation counter.
        assert!(out.entries.iter().all(|e| e.stats.is_some()));
        for e in &out.entries {
            if matches!(e.error, Some(MapError::Cancelled)) {
                assert!(
                    e.stats.as_ref().unwrap().cancellations >= 1,
                    "{}: cancelled without counting it",
                    e.mapper
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// A run whose budget is cancelled — before it starts or while it
    /// runs — either fails with a typed error or returns a mapping
    /// that passes validation. Never an invalid mapping.
    #[test]
    fn cancelled_runs_never_return_invalid_mappings(
        mapper_idx in 0usize..16,
        delay_ms in 0u64..25,
        pre_cancelled in any::<bool>(),
    ) {
        let registry = MapperRegistry::standard();
        let spec = &registry.specs()[mapper_idx];
        let fabric = mesh();
        let dfg = kernels::fir(4);
        let budget = Budget::unlimited();
        let cfg = cancellable_cfg(&budget);
        if pre_cancelled {
            budget.cancel();
        } else {
            let canceller = budget.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(delay_ms));
                canceller.cancel();
            });
        }
        match spec.build().map(&dfg, &fabric, &cfg) {
            Ok(m) => prop_assert!(
                validate(&m, &dfg, &fabric).is_ok(),
                "{}: cancelled run returned an invalid mapping", spec.name
            ),
            Err(e) => prop_assert!(
                !matches!(e, MapError::Unsupported(_)),
                "{}: unexpected {e}", spec.name
            ),
        }
    }
}
