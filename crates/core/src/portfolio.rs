//! The mapper portfolio: run a batch of requests (in parallel) and
//! aggregate their outcomes into the rows of the Table I experiment.

use crate::request::{MapOutcome, MapRequest};
use crate::service::{execute, ExecEnv};
use crate::telemetry::Telemetry;
use rayon::prelude::*;
use serde::Serialize;

/// Run a batch of [`MapRequest`]s in parallel through [`execute`], each
/// with its own telemetry sink, returning outcomes in request
/// order. Drivers like `table1` construct requests (the same objects
/// `cgra-serve` caches on) and read the outcomes directly.
pub fn run_requests(reqs: &[MapRequest]) -> Vec<MapOutcome> {
    reqs.par_iter()
        .map(|r| {
            let env = ExecEnv {
                telemetry: Some(Telemetry::enabled()),
                ..Default::default()
            };
            execute(r, &env)
        })
        .collect()
}

/// Aggregate rows per mapper: success rate, mean II among successes,
/// mean compile time, and mean search effort (from telemetry).
#[derive(Debug, Clone, Serialize)]
pub struct MapperSummary {
    pub mapper: String,
    pub family_label: String,
    pub exact: bool,
    pub spatial: bool,
    pub attempts: usize,
    pub successes: usize,
    pub mean_ii: Option<f64>,
    pub mean_compile_ms: f64,
    pub mean_hops: Option<f64>,
    /// Mean II probes per (mapper, kernel) run, over all attempts.
    pub mean_ii_attempts: Option<f64>,
    /// Mean backtracks per run, over all attempts.
    pub mean_backtracks: Option<f64>,
    /// Mean placements tried per run, over all attempts.
    pub mean_placements: Option<f64>,
}

/// Per-mapper accumulator used by the single-pass [`summarise`].
#[derive(Default)]
struct Acc {
    family_label: String,
    exact: bool,
    spatial: bool,
    attempts: usize,
    successes: usize,
    ii_sum: f64,
    hops_sum: f64,
    compile_ms_sum: f64,
    stats_runs: usize,
    ii_attempts_sum: f64,
    backtracks_sum: f64,
    placements_sum: f64,
}

/// Summarise outcomes per mapper (insertion order preserved).
/// Single pass over the outcomes: an index map keyed by mapper name
/// resolves each row to its accumulator in O(1).
pub fn summarise(entries: &[MapOutcome]) -> Vec<MapperSummary> {
    let mut index: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut order: Vec<&str> = Vec::new();
    let mut accs: Vec<Acc> = Vec::new();
    for e in entries {
        let slot = *index.entry(e.mapper.as_str()).or_insert_with(|| {
            order.push(e.mapper.as_str());
            accs.push(Acc {
                family_label: e.family.clone(),
                exact: e.exact,
                spatial: e.spatial,
                ..Acc::default()
            });
            accs.len() - 1
        });
        let acc = &mut accs[slot];
        acc.attempts += 1;
        acc.compile_ms_sum += e.compile_ms;
        if let Some(m) = &e.metrics {
            acc.successes += 1;
            acc.ii_sum += m.ii as f64;
            acc.hops_sum += m.route_hops as f64;
        }
        if let Some(s) = &e.stats {
            acc.stats_runs += 1;
            acc.ii_attempts_sum += s.ii_attempts as f64;
            acc.backtracks_sum += s.backtracks as f64;
            acc.placements_sum += s.placements_tried as f64;
        }
    }
    order
        .into_iter()
        .zip(accs)
        .map(|(name, acc)| {
            let per_success = |sum: f64| (acc.successes > 0).then(|| sum / acc.successes as f64);
            let per_stats_run =
                |sum: f64| (acc.stats_runs > 0).then(|| sum / acc.stats_runs as f64);
            MapperSummary {
                mapper: name.to_string(),
                family_label: acc.family_label.clone(),
                exact: acc.exact,
                spatial: acc.spatial,
                attempts: acc.attempts,
                successes: acc.successes,
                mean_ii: per_success(acc.ii_sum),
                mean_compile_ms: acc.compile_ms_sum / acc.attempts.max(1) as f64,
                mean_hops: per_success(acc.hops_sum),
                mean_ii_attempts: per_stats_run(acc.ii_attempts_sum),
                mean_backtracks: per_stats_run(acc.backtracks_sum),
                mean_placements: per_stats_run(acc.placements_sum),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{FabricSpec, KernelSpec};

    fn requests(mappers: &[&str], kernels: &[&str], fabric: FabricSpec) -> Vec<MapRequest> {
        mappers
            .iter()
            .flat_map(|m| kernels.iter().map(move |k| (m, k)))
            .map(|(m, k)| MapRequest {
                fabric,
                ..MapRequest::new(KernelSpec::Named(k.to_string()), *m)
            })
            .collect()
    }

    #[test]
    fn portfolio_runs_and_summarises() {
        let entries = run_requests(&requests(
            &["modulo-list", "spatial-greedy"],
            &["dot_product", "sad"],
            FabricSpec::default(),
        ));
        assert_eq!(entries.len(), 4);
        let modulo_ok = entries
            .iter()
            .filter(|e| e.mapper == "modulo-list")
            .all(|e| e.succeeded());
        assert!(modulo_ok);
        let summary = summarise(&entries);
        assert_eq!(summary.len(), 2);
        let ml = summary.iter().find(|s| s.mapper == "modulo-list").unwrap();
        assert_eq!(ml.attempts, 2);
        assert_eq!(ml.successes, 2);
        assert!(ml.mean_ii.unwrap() >= 1.0);
        // Every job runs under its own sink, so search-effort stats
        // are recorded and aggregated.
        assert!(entries.iter().all(|e| e.stats.is_some()));
        assert!(ml.mean_ii_attempts.unwrap() >= 1.0);
        assert!(ml.mean_placements.unwrap() >= 1.0);
        assert!(ml.mean_backtracks.is_some());
    }

    #[test]
    fn failures_are_recorded_not_panicked() {
        // Too big for 2x2.
        let tiny = FabricSpec {
            rows: 2,
            cols: 2,
            ..FabricSpec::default()
        };
        let entries = run_requests(&requests(&["spatial-greedy"], &["sobel"], tiny));
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].succeeded());
        assert!(entries[0].error.is_some());
    }
}
