//! Event-journal invariants across the whole mapper zoo.
//!
//! Two guarantees matter for downstream consumers (cgra-report diffs,
//! the CI baseline gate):
//!
//! 1. **Determinism** — two runs of the same mapper with the same seed
//!    produce the same event sequence (kinds, mappers, IIs, costs);
//!    only the timestamps differ. Event emissions sit at sequential
//!    code points, never inside racing rayon closures, so this holds
//!    for every registry mapper.
//! 2. **Causality** — event timestamps are monotone in journal order,
//!    and a `RaceWin` is always preceded by the matching `RaceStart`.

use cgra_arch::{Fabric, Topology};
use cgra_ir::kernels;
use cgra_mapper_core::prelude::*;
use cgra_mapper_core::service::{execute, ExecEnv};
use proptest::prelude::*;
use std::time::Duration;

fn mesh() -> Fabric {
    Fabric::homogeneous(4, 4, Topology::Mesh)
}

fn run_with_ledger(spec: &MapperSpec, seed: u64) -> (Result<u32, String>, Vec<LedgerEvent>) {
    let ledger = Telemetry::enabled();
    let cfg = MapConfig {
        seed,
        telemetry: ledger.clone(),
        ..MapConfig::fast()
    };
    let dfg = kernels::dot_product();
    let fabric = mesh();
    let out = spec
        .build()
        .map(&dfg, &fabric, &cfg)
        .map(|m| m.ii)
        .map_err(|e| e.to_string());
    (out, ledger.events())
}

/// The deterministic identity of an event: everything but `t_us`.
fn shape(e: &LedgerEvent) -> EventKind {
    e.kind.clone()
}

#[test]
fn same_seed_runs_emit_identical_ledgers() {
    for spec in MapperRegistry::standard().specs() {
        let (out_a, events_a) = run_with_ledger(spec, 7);
        let (out_b, events_b) = run_with_ledger(spec, 7);
        assert_eq!(out_a, out_b, "{}: outcome diverged across runs", spec.name);
        let shapes_a: Vec<EventKind> = events_a.iter().map(shape).collect();
        let shapes_b: Vec<EventKind> = events_b.iter().map(shape).collect();
        assert_eq!(
            shapes_a, shapes_b,
            "{}: same-seed runs produced different ledgers",
            spec.name
        );
        assert!(
            !shapes_a.is_empty(),
            "{}: an instrumented mapper must journal at least one event",
            spec.name
        );
    }
}

#[test]
fn every_mapper_journals_an_ii_attempt() {
    for spec in MapperRegistry::standard().specs() {
        let (_, events) = run_with_ledger(spec, 11);
        let has_attempt = events
            .iter()
            .any(|e| matches!(e.kind, EventKind::IiAttempt { .. }));
        // Spatial mappers have no II loop; everyone else probes IIs.
        if !spec.spatial {
            assert!(has_attempt, "{}: no IiAttempt event", spec.name);
        }
    }
}

#[test]
fn race_timeline_is_complete() {
    let registry = MapperRegistry::standard();
    let mappers: Vec<Box<dyn Mapper>> = ["modulo-list", "spatial-greedy", "edge-centric"]
        .iter()
        .map(|n| registry.build(n).unwrap())
        .collect();
    let ledger = Telemetry::enabled();
    let cfg = MapConfig {
        telemetry: ledger.clone(),
        ..MapConfig::fast()
    };
    let dfg = kernels::dot_product();
    let fabric = mesh();
    let out = race(&mappers, &dfg, &fabric, &cfg, None);
    assert!(out.winner.is_some());
    let events = ledger.events();
    let starts = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RaceStart { .. }))
        .count();
    assert_eq!(starts, mappers.len(), "one RaceStart per entrant");
    let wins = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RaceWin { .. }))
        .count();
    assert_eq!(wins, 1, "exactly one winner");
    // Every mapper's fate is recorded: win or loss.
    let losses = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RaceLoss { .. }))
        .count();
    assert_eq!(wins + losses, mappers.len(), "every entrant resolves");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Journal causality under real racing: timestamps are monotone in
    /// journal order, and any RaceWin is preceded by the matching
    /// mapper's RaceStart.
    #[test]
    fn race_ledgers_are_causal(seed in any::<u64>(), extra in 0usize..3) {
        let registry = MapperRegistry::standard();
        let pool = ["modulo-list", "spatial-greedy", "edge-centric", "graph-drawing", "ramp"];
        let names = &pool[..2 + extra];
        let mappers: Vec<Box<dyn Mapper>> =
            names.iter().map(|n| registry.build(n).unwrap()).collect();
        let ledger = Telemetry::enabled();
        let cfg = MapConfig {
            seed,
            time_limit: Duration::from_secs(10),
            telemetry: ledger.clone(),
            ..MapConfig::fast()
        };
        let dfg = kernels::fir(4);
        let fabric = mesh();
        let _ = race(&mappers, &dfg, &fabric, &cfg, None);
        let events = ledger.events();

        // Monotone timestamps.
        for w in events.windows(2) {
            prop_assert!(w[0].t_us <= w[1].t_us, "timestamps out of order");
        }

        // RaceWin implies an earlier RaceStart for the same mapper.
        for (i, e) in events.iter().enumerate() {
            if let EventKind::RaceWin { mapper, .. } = &e.kind {
                let started_before = events[..i].iter().any(|p| {
                    matches!(&p.kind, EventKind::RaceStart { mapper: m } if m == mapper)
                });
                prop_assert!(started_before, "{mapper} won without a RaceStart");
            }
        }
    }
}

/// Spans and events share one clock: in a traced `execute`, every II
/// probe is journalled after the front-end's `optimize` span ended and
/// no later than its own `map ii=k` span starts.
#[test]
fn events_and_spans_share_one_clock() {
    let tele = Telemetry::enabled();
    let req = MapRequest::new(
        KernelSpec::Source {
            source: include_str!("../../../examples/kernels/fir4.mc").into(),
            name: None,
        },
        "modulo-list",
    );
    let env = ExecEnv {
        telemetry: Some(tele.clone()),
        ..ExecEnv::default()
    };
    let out = execute(&req, &env);
    assert!(out.succeeded(), "{:?}", out.error);
    let spans = tele.spans();
    let optimized = spans
        .iter()
        .find(|s| s.phase == Phase::Optimize)
        .map(|s| s.start_us + s.dur_us)
        .expect("an optimize span");
    let mut probes = 0;
    for e in &out.events {
        let EventKind::IiAttempt { ii, .. } = e.kind else {
            continue;
        };
        probes += 1;
        let probe = spans
            .iter()
            .find(|s| s.phase == Phase::Map && s.ii == Some(ii))
            .unwrap_or_else(|| panic!("no `map ii={ii}` span"));
        assert!(
            optimized <= e.t_us,
            "probe at {} before optimize ended at {optimized}",
            e.t_us
        );
        assert!(
            e.t_us <= probe.start_us,
            "probe at {} after its span began at {}",
            e.t_us,
            probe.start_us
        );
    }
    assert!(probes > 0, "modulo-list probes at least one II");
}

/// Race rows keep counters of their own but journal onto the caller's
/// timeline: every row's `events` are empty, and the timeline holds an
/// `ii_attempt` of each entrant whose counters saw an II probe. Only
/// temporal entrants race here, so the winner at least probed.
#[test]
fn race_rows_journal_onto_the_callers_timeline() {
    let registry = MapperRegistry::standard();
    let mappers: Vec<Box<dyn Mapper>> = ["modulo-list", "edge-centric", "sa"]
        .iter()
        .map(|n| registry.build(n).unwrap())
        .collect();
    let tele = Telemetry::enabled();
    let cfg = MapConfig {
        telemetry: tele.clone(),
        ..MapConfig::fast()
    };
    let out = race(&mappers, &kernels::dot_product(), &mesh(), &cfg, None);
    assert!(out.winner.is_some());
    let events = tele.events();
    let mut probed = 0;
    for row in &out.entries {
        assert!(
            row.events.is_empty(),
            "{}: a row journals nothing",
            row.mapper
        );
        assert_eq!(row.events_dropped, 0, "{}", row.mapper);
        if row.stats.expect("rows keep their counters").ii_attempts == 0 {
            continue;
        }
        probed += 1;
        assert!(
            events.iter().any(|e| matches!(
                &e.kind,
                EventKind::IiAttempt { mapper, .. } if *mapper == row.mapper
            )),
            "{}: probed an II, but the timeline has no ii_attempt",
            row.mapper
        );
    }
    assert!(probed > 0, "the winner probed an II");
}
