//! The run-report artifact and its renderings.
//!
//! A run report is a [`MapOutcome`] written to a file: the kernel and
//! fabric, the mapper, the mapping with its metrics (or the typed
//! failure with its diagnosis), the counter snapshot, latency rows and
//! the event timeline. There is no second record — the file
//! `table1 --report` writes per (mapper, kernel) cell is the value
//! `execute` returned, the spill file `cgra-serve` evicts to is the same
//! value, and `cgra-report` loads either back for convergence tables and
//! the regression gate. Spans and events also render as Chrome
//! `trace_event` JSON ([`chrome_trace`]) loadable in `chrome://tracing`
//! / Perfetto.
//!
//! Loading decodes through the same derive that writes the file:
//! unknown fields are ignored and absent ones default, so readers and
//! files tolerate additive changes.

use crate::ledger::EventKind;
use crate::request::MapOutcome;
use crate::telemetry::{Histogram, Phase, Telemetry};
use serde::{Deserialize, Serialize, Value};
use std::path::Path;

/// Percentile summary of one latency histogram (µs): one row per
/// pipeline phase that recorded spans, plus the per-route-call
/// distribution. Reports carry the summary rows, not the raw buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Phase label (`"map"`, `"route"`, …) or `"route-call"` for the
    /// per-router-invocation distribution.
    pub phase: String,
    pub count: u64,
    pub p50_us: u64,
    pub p90_us: u64,
    pub p99_us: u64,
}

impl LatencySummary {
    fn of(phase: &str, h: &Histogram) -> LatencySummary {
        LatencySummary {
            phase: phase.to_string(),
            count: h.count(),
            p50_us: h.p50(),
            p90_us: h.p90(),
            p99_us: h.p99(),
        }
    }

    /// Summary rows for every non-empty histogram in `tele`, in
    /// [`Phase::ALL`] order, route-call distribution last. Empty when
    /// telemetry was disabled.
    pub fn rows_from(tele: &Telemetry) -> Vec<LatencySummary> {
        let mut rows = Vec::new();
        for p in Phase::ALL {
            if let Some(h) = tele.phase_histogram(p) {
                if !h.is_empty() {
                    rows.push(LatencySummary::of(p.label(), &h));
                }
            }
        }
        if let Some(h) = tele.route_histogram() {
            if !h.is_empty() {
                rows.push(LatencySummary::of("route-call", &h));
            }
        }
        rows
    }
}

impl MapOutcome {
    /// A filename-safe `kernel__fabric__mapper` stem unique per
    /// report key.
    pub fn file_stem(&self) -> String {
        let clean = |s: &str| {
            s.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect::<String>()
        };
        format!(
            "{}__{}__{}",
            clean(&self.kernel),
            clean(&self.fabric),
            clean(&self.mapper)
        )
    }

    /// Write the outcome as pretty JSON.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Decode one outcome from JSON text. `Err` on malformed JSON, a
    /// wrong-typed field, or an object that is neither a mapping nor a
    /// typed failure (`{}`, foreign JSON) — every field defaults, so
    /// that last check is what tells an outcome from any other object.
    pub fn parse(text: &str) -> Result<MapOutcome, String> {
        let out: MapOutcome = serde_json::from_str_as(text).map_err(|e| e.to_string())?;
        if out.mapping.is_none() && out.error.is_none() {
            return Err("neither a mapping nor an error".to_string());
        }
        Ok(out)
    }

    /// Read one outcome back.
    pub fn load(path: &Path) -> Result<MapOutcome, String> {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| MapOutcome::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Load every `*.json` outcome in `dir`, sorted by file name.
    /// Other JSON files are skipped silently so a results directory
    /// can mix artifacts.
    pub fn load_dir(dir: &Path) -> Result<Vec<MapOutcome>, String> {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        Ok(paths
            .iter()
            .filter_map(|p| MapOutcome::load(p).ok())
            .collect())
    }
}

/// Render a run's phase spans plus events as Chrome `trace_event` JSON
/// (the object form: `{"traceEvents":[…]}`), loadable in
/// `chrome://tracing` and Perfetto.
///
/// Track layout: tid 0 is the pipeline (one complete event per phase
/// span); each mapper appearing in the journal gets its own tid, named
/// via `thread_name` metadata. `RaceStart`…`RaceWin`/`RaceLoss` pairs
/// become complete ("X") events spanning the mapper's racing window;
/// incumbents and II probes become instant ("i") events on the
/// mapper's track. Latency-summary rows (p50/p90/p99 per phase) land
/// as instant events on the pipeline track so percentiles survive even
/// when the span log was truncated.
pub fn chrome_trace(tele: &Telemetry) -> Value {
    let (spans, events) = (tele.spans(), tele.events());
    let latency = LatencySummary::rows_from(tele);
    let mut out: Vec<Value> = Vec::new();
    let pid = 1u64;

    out.push(serde_json::json!({
        "ph": "M", "name": "process_name", "pid": pid,
        "args": serde_json::json!({"name": "cgra-map"}),
    }));
    out.push(serde_json::json!({
        "ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
        "args": serde_json::json!({"name": "pipeline"}),
    }));
    for s in &spans {
        let name = match s.ii {
            Some(ii) => format!("{} ii={ii}", s.phase.label()),
            None => s.phase.label().to_string(),
        };
        out.push(serde_json::json!({
            "ph": "X", "name": name, "cat": "phase", "pid": pid, "tid": 0,
            "ts": s.start_us, "dur": s.dur_us,
        }));
    }

    // One track per mapper, in first-appearance order.
    let mut mappers: Vec<&str> = Vec::new();
    for e in &events {
        if !mappers.contains(&e.kind.mapper()) {
            mappers.push(e.kind.mapper());
        }
    }
    let tid_of =
        |mapper: &str| -> u64 { mappers.iter().position(|m| *m == mapper).unwrap_or(0) as u64 + 1 };
    for m in &mappers {
        out.push(serde_json::json!({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid_of(m),
            "args": serde_json::json!({"name": *m}),
        }));
    }

    let last_t = events.last().map(|e| e.t_us).unwrap_or(0);
    for (i, e) in events.iter().enumerate() {
        let tid = tid_of(e.kind.mapper());
        match &e.kind {
            EventKind::RaceStart { mapper } => {
                // Span until this mapper's win/loss (or the last event).
                let end = events[i + 1..]
                    .iter()
                    .find(|later| {
                        later.kind.mapper() == mapper
                            && matches!(
                                later.kind,
                                EventKind::RaceWin { .. } | EventKind::RaceLoss { .. }
                            )
                    })
                    .map(|later| later.t_us)
                    .unwrap_or(last_t);
                let outcome = events[i + 1..]
                    .iter()
                    .find_map(|later| match &later.kind {
                        EventKind::RaceWin { mapper: m, .. } if m == mapper => Some("win"),
                        EventKind::RaceLoss { mapper: m, .. } if m == mapper => Some("loss"),
                        _ => None,
                    })
                    .unwrap_or("unresolved");
                out.push(serde_json::json!({
                    "ph": "X", "name": format!("race: {mapper}"), "cat": "race",
                    "pid": pid, "tid": tid,
                    "ts": e.t_us, "dur": end.saturating_sub(e.t_us).max(1),
                    "args": serde_json::json!({"outcome": outcome}),
                }));
            }
            EventKind::Incumbent { ii, cost, .. } => {
                out.push(serde_json::json!({
                    "ph": "i", "s": "t", "name": format!("incumbent ii={ii}"),
                    "cat": "incumbent", "pid": pid, "tid": tid, "ts": e.t_us,
                    "args": serde_json::json!({"ii": *ii, "cost": *cost}),
                }));
            }
            EventKind::RaceWin { ii, .. } => {
                out.push(serde_json::json!({
                    "ph": "i", "s": "g", "name": format!("race win ii={ii}"),
                    "cat": "race", "pid": pid, "tid": tid, "ts": e.t_us,
                    "args": serde_json::json!({"ii": *ii}),
                }));
            }
            EventKind::RaceLoss { reason, .. } => {
                out.push(serde_json::json!({
                    "ph": "i", "s": "t", "name": "race loss",
                    "cat": "race", "pid": pid, "tid": tid, "ts": e.t_us,
                    "args": serde_json::json!({"reason": reason.clone()}),
                }));
            }
            EventKind::BudgetExhausted { .. } => {
                out.push(serde_json::json!({
                    "ph": "i", "s": "t", "name": "budget exhausted",
                    "cat": "budget", "pid": pid, "tid": tid, "ts": e.t_us,
                }));
            }
            EventKind::IiAttempt { ii, .. } => {
                out.push(serde_json::json!({
                    "ph": "i", "s": "t", "name": format!("try ii={ii}"),
                    "cat": "ii", "pid": pid, "tid": tid, "ts": e.t_us,
                    "args": serde_json::json!({"ii": *ii}),
                }));
            }
            EventKind::Request { trace, .. } => {
                out.push(serde_json::json!({
                    "ph": "i", "s": "p", "name": format!("request trace={trace}"),
                    "cat": "request", "pid": pid, "tid": tid, "ts": e.t_us,
                    "args": serde_json::json!({"trace": trace.clone()}),
                }));
            }
        }
    }

    let last_span_t = spans
        .iter()
        .map(|s| s.start_us + s.dur_us)
        .max()
        .unwrap_or(0);
    for row in &latency {
        out.push(serde_json::json!({
            "ph": "i", "s": "g",
            "name": format!("latency {}: p50={}us p90={}us p99={}us",
                            row.phase, row.p50_us, row.p90_us, row.p99_us),
            "cat": "latency", "pid": pid, "tid": 0,
            "ts": last_span_t.max(last_t),
            "args": serde_json::json!({
                "phase": row.phase.clone(), "count": row.count,
                "p50_us": row.p50_us, "p90_us": row.p90_us, "p99_us": row.p99_us,
            }),
        }));
    }

    serde_json::json!({
        "traceEvents": out,
        "displayTimeUnit": "ms",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::telemetry::StatsSnapshot;

    fn sample_report() -> MapOutcome {
        let tele = Telemetry::enabled();
        tele.race_start("sa");
        tele.incumbent("sa", 2, 10.0);
        tele.race_win("sa", 2);
        MapOutcome {
            kernel: "dot_product".into(),
            fabric: "4x4 mesh".into(),
            mapper: "sa".into(),
            mapping: Some(crate::mapping::Mapping {
                ii: 2,
                place: Vec::new(),
                routes: Vec::new(),
            }),
            metrics: Some(Metrics {
                ii: 2,
                schedule_len: 6,
                fu_utilisation: 0.5,
                route_hops: 7,
                register_cycles: 9,
                peak_registers: 2,
                throughput: 0.5,
            }),
            compile_ms: 12.5,
            stats: Some(StatsSnapshot {
                ii_attempts: 2,
                incumbents: 1,
                ..StatsSnapshot::default()
            }),
            events: tele.events(),
            spans_dropped: 3,
            latency: vec![LatencySummary {
                phase: "map".into(),
                count: 2,
                p50_us: 127,
                p90_us: 255,
                p99_us: 255,
            }],
            utilization: Some(crate::metrics::UtilizationMap {
                rows: 2,
                cols: 2,
                ii: 2,
                fu_used: vec![2, 1, 0, 0],
                reg_used: vec![0, 3, 0, 0],
            }),
            ..MapOutcome::default()
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        let back = MapOutcome::parse(&serde_json::to_string(&r).unwrap()).expect("parses");
        assert_eq!(back.kernel, r.kernel);
        assert_eq!(back.fabric, r.fabric);
        assert_eq!(back.mapper, r.mapper);
        assert_eq!(back.ii(), Some(2));
        assert_eq!(back.compile_ms, r.compile_ms);
        assert_eq!(back.stats.unwrap(), r.stats.unwrap());
        assert_eq!(back.events, r.events);
        assert!(back.succeeded());
        // Forensics fields round-trip exactly.
        assert_eq!(back.mapping, r.mapping);
        assert_eq!(back.spans_dropped, 3);
        assert_eq!(back.latency, r.latency);
        assert_eq!(back.utilization, r.utilization);
    }

    #[test]
    fn save_load_dir_skips_foreign_json() {
        let dir = std::env::temp_dir().join("cgra-report-tests");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let r = sample_report();
        r.save(&dir.join(format!("{}.json", r.file_stem())))
            .unwrap();
        std::fs::write(dir.join("other.json"), "{\"not\": \"a report\"}").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let loaded = MapOutcome::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].mapper, "sa");
        let one = MapOutcome::load(&dir.join(format!("{}.json", r.file_stem()))).unwrap();
        assert_eq!(one.kernel, "dot_product");
    }

    #[test]
    fn chrome_trace_has_a_track_per_mapper_and_instants() {
        let tele = Telemetry::enabled();
        {
            let _g = tele.span(Phase::Parse);
        }
        tele.race_start("sa");
        tele.race_start("ilp");
        tele.incumbent("sa", 2, 10.0);
        tele.race_win("sa", 2);
        tele.race_loss("ilp", "cancelled");
        let trace = chrome_trace(&tele);
        let lat_events: Vec<&Value> = trace["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["cat"] == "latency")
            .collect();
        assert_eq!(lat_events.len(), 1, "one summary row for the parse span");
        assert_eq!(lat_events[0]["args"]["phase"], "parse");
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        // Named tracks: pipeline + sa + ilp (plus the process name).
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e["ph"] == "M" && e["name"] == "thread_name")
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["pipeline", "sa", "ilp"]);
        // One complete event per racing mapper, with its outcome.
        let races: Vec<&Value> = events
            .iter()
            .filter(|e| e["ph"] == "X" && e["cat"] == "race")
            .collect();
        assert_eq!(races.len(), 2);
        assert_eq!(races[0]["args"]["outcome"], "win");
        assert_eq!(races[1]["args"]["outcome"], "loss");
        // The incumbent appears as an instant event on sa's track.
        let inc = events
            .iter()
            .find(|e| e["ph"] == "i" && e["cat"] == "incumbent")
            .expect("incumbent instant");
        assert_eq!(inc["tid"], races[0]["tid"]);
        // Every event carries the same pid (one process).
        assert!(events.iter().all(|e| e["pid"] == 1u64));
    }
}
