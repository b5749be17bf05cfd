//! The mapper portfolio: run many mappers over many kernels (in
//! parallel) and collect the rows of the Table I experiment.

use crate::diagnosis::Diagnosis;
use crate::ledger::{Ledger, LedgerEvent};
use crate::mapper::{Family, MapConfig, MapError, Mapper};
use crate::metrics::{Metrics, UtilizationMap};
use crate::report::LatencySummary;
use crate::telemetry::{StatsSnapshot, Telemetry};
use crate::validate::validate;
use cgra_arch::Fabric;
use cgra_ir::Dfg;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One (mapper, kernel) outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortfolioEntry {
    pub mapper: String,
    pub family_label: String,
    pub exact: bool,
    pub spatial: bool,
    pub kernel: String,
    /// `Some(metrics)` on success (and validation), `None` on failure.
    pub metrics: Option<Metrics>,
    /// Human-readable rendering of `error_detail`.
    pub error: Option<String>,
    /// The typed failure, so JSON consumers dispatch on the variant
    /// (`Cancelled` race losers, `Timeout`, …) instead of parsing
    /// prose. Invalid mapper output is recorded as `Infeasible`.
    #[serde(default)]
    pub error_detail: Option<MapError>,
    pub compile_ms: f64,
    /// Search-effort counters recorded by a per-job telemetry sink
    /// (present for both successes and failures).
    #[serde(default)]
    pub stats: Option<StatsSnapshot>,
    /// Run-ledger events recorded by a per-job journal (incumbents and
    /// II probes; empty when the job shared an engine-level ledger).
    #[serde(default)]
    pub events: Vec<LedgerEvent>,
    /// Events lost to the journal's bounded capacity.
    #[serde(default)]
    pub events_dropped: u64,
    /// Failure forensics: which resource class bound the search (only
    /// when the job ran with `explain` and the mapper diagnosed it).
    #[serde(default)]
    pub diagnosis: Option<Diagnosis>,
    /// Phase spans lost to the telemetry buffer cap (histograms still
    /// cover them; see `RunReport::spans_dropped`).
    #[serde(default)]
    pub spans_dropped: u64,
    /// Per-phase latency percentiles from the job's telemetry sink.
    #[serde(default)]
    pub latency: Vec<LatencySummary>,
    /// Fabric occupancy heatmap data (successes only).
    #[serde(default)]
    pub utilization: Option<UtilizationMap>,
}

impl PortfolioEntry {
    pub fn succeeded(&self) -> bool {
        self.metrics.is_some()
    }
}

/// Run a batch of [`crate::request::MapRequest`]s in parallel through
/// [`crate::service::execute`], each with its own observability sinks,
/// returning outcomes in request order. This is the request-native
/// form of [`run_portfolio`]: drivers like `table1` construct
/// requests (the same objects `cgra-serve` caches on) and bridge the
/// outcomes back to [`PortfolioEntry`] rows via
/// [`crate::request::MapOutcome::to_entry`].
pub fn run_requests(reqs: &[crate::request::MapRequest]) -> Vec<crate::request::MapOutcome> {
    reqs.par_iter()
        .map(|r| {
            let env = crate::service::ExecEnv {
                collect: true,
                ..Default::default()
            };
            crate::service::execute(r, &env)
        })
        .collect()
}

/// Run every mapper on every kernel. Mapper outputs are validated; a
/// mapper returning an invalid mapping is recorded as an error (this
/// is the framework's no-invalid-output guarantee surfacing in the
/// data rather than a panic).
pub fn run_portfolio(
    mappers: &[Box<dyn Mapper>],
    kernels: &[Dfg],
    fabric: &Fabric,
    cfg: &MapConfig,
) -> Vec<PortfolioEntry> {
    let jobs: Vec<(usize, usize)> = (0..mappers.len())
        .flat_map(|m| (0..kernels.len()).map(move |k| (m, k)))
        .collect();
    jobs.par_iter()
        .map(|&(mi, ki)| {
            let mapper = &mappers[mi];
            let kernel = &kernels[ki];
            // Each job gets its own sink so counters are attributable
            // to a single (mapper, kernel) pair even under rayon.
            let mut job_cfg = cfg.clone();
            job_cfg.telemetry = Telemetry::enabled();
            job_cfg.ledger = Ledger::enabled();
            let start = Instant::now();
            let result = mapper.map(kernel, fabric, &job_cfg);
            let compile_ms = start.elapsed().as_secs_f64() * 1e3;
            let (metrics, utilization, error_detail) = match result {
                Ok(m) => match validate(&m, kernel, fabric) {
                    Ok(()) => (
                        Some(Metrics::of(&m, kernel, fabric)),
                        Some(UtilizationMap::of(&m, kernel, fabric)),
                        None,
                    ),
                    Err(e) => (
                        None,
                        None,
                        Some(MapError::infeasible(format!("INVALID OUTPUT: {e}"))),
                    ),
                },
                Err(e) => (None, None, Some(e)),
            };
            let diagnosis = error_detail.as_ref().and_then(|e| e.diagnosis().cloned());
            PortfolioEntry {
                mapper: mapper.name().to_string(),
                family_label: mapper.family().label().to_string(),
                exact: mapper.family().is_exact(),
                spatial: mapper.is_spatial(),
                kernel: kernel.name.clone(),
                metrics,
                error: error_detail.as_ref().map(|e| e.to_string()),
                error_detail,
                compile_ms,
                stats: job_cfg.telemetry.snapshot(),
                events: job_cfg.ledger.events(),
                events_dropped: job_cfg.ledger.events_dropped(),
                diagnosis,
                spans_dropped: job_cfg.telemetry.spans_dropped(),
                latency: LatencySummary::rows_from(&job_cfg.telemetry),
                utilization,
            }
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

/// Summarise portfolio entries per mapper (insertion order preserved).
/// Single pass over the entries: an index map keyed by mapper name
/// resolves each row to its accumulator in O(1).
pub fn summarise(entries: &[PortfolioEntry]) -> Vec<MapperSummary> {
    let mut index: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut order: Vec<&str> = Vec::new();
    let mut accs: Vec<Acc> = Vec::new();
    for e in entries {
        let slot = *index.entry(e.mapper.as_str()).or_insert_with(|| {
            order.push(e.mapper.as_str());
            accs.push(Acc {
                family_label: e.family_label.clone(),
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

/// Convenience: is this family expected to prove optimality (Table I's
/// exact column)?
pub fn family_of(name: &str, mappers: &[Box<dyn Mapper>]) -> Option<Family> {
    mappers
        .iter()
        .find(|m| m.name() == name)
        .map(|m| m.family())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mappers::{ModuloList, SpatialGreedy};
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    #[test]
    fn portfolio_runs_and_summarises() {
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(ModuloList::default()),
            Box::new(SpatialGreedy::default()),
        ];
        let kernels = vec![kernels::dot_product(), kernels::sad()];
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let entries = run_portfolio(&mappers, &kernels, &fabric, &MapConfig::fast());
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
        let mappers: Vec<Box<dyn Mapper>> = vec![Box::new(SpatialGreedy::default())];
        let kernels = vec![kernels::unrolled_mac(20)]; // too big for 2x2
        let fabric = Fabric::homogeneous(2, 2, Topology::Mesh);
        let entries = run_portfolio(&mappers, &kernels, &fabric, &MapConfig::fast());
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].succeeded());
        assert!(entries[0].error.is_some());
    }
}
