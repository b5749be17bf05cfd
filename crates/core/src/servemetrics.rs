//! Service-level observability for the mapping daemon: the
//! [`ServiceMetrics`] registry, the Prometheus text renderer behind
//! `cgra-serve --metrics-addr` and the `metrics` wire op, and the
//! structured JSONL access log behind `--access-log`.
//!
//! The split of responsibilities mirrors the rest of the codebase:
//!
//! * **Counters and gauges** live on [`ServiceStats`] — the service
//!   takes them under one lock so a scrape can never observe a torn
//!   snapshot (`hits + misses == requests`, always).
//! * **Latency distributions** live here, on the same deterministic
//!   log2 [`Histogram`] machinery the search telemetry uses: queue
//!   wait (admission gate), solve wall-clock, and end-to-end request
//!   latency, all in microseconds.
//! * [`ServiceMetrics`] follows the [`Telemetry`](crate::Telemetry)
//!   handle idiom — a cheap clonable `Option<Arc<_>>` whose disabled
//!   form makes every record call a no-op, so embedding [`MapService`]
//!   without a scrape endpoint costs nothing (pinned by the
//!   `service_metrics` criterion bench).
//!
//! The exposition format is the Prometheus text format (version
//! 0.0.4): `# HELP`/`# TYPE` headers, `_total`-suffixed counters,
//! and histogram series with cumulative `_bucket{le="..."}` counts
//! plus `_sum`/`_count`. Bucket bounds are the histogram's native
//! powers of two. Because the scraped log2 buckets are coarse, each
//! latency metric also exports `_p50`/`_p90`/`_p99` gauges computed
//! with the same inclusive-upper-bound rule as
//! [`LatencySummary`](crate::report::LatencySummary), so operators get
//! tail percentiles without PromQL.

use crate::request::CacheStatus;
use crate::service::ServiceStats;
use crate::telemetry::{AtomicHistogram, Histogram, HISTOGRAM_BUCKETS};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One latency distribution: a lock-free log2 histogram plus the sum
/// of all recorded samples (Prometheus histograms export both).
#[derive(Default)]
pub struct LatencyTrack {
    hist: AtomicHistogram,
    sum_us: AtomicU64,
}

impl LatencyTrack {
    #[inline]
    pub fn record(&self, us: u64) {
        self.hist.record(us);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// `(distribution, sum of samples in µs)`.
    pub fn snapshot(&self) -> (Histogram, u64) {
        (self.hist.snapshot(), self.sum_us.load(Ordering::Relaxed))
    }
}

/// The registry's storage: one [`LatencyTrack`] per lifecycle edge.
#[derive(Default)]
pub struct MetricsInner {
    /// Admission-gate wait of every solved miss (hits never queue).
    queue_wait: LatencyTrack,
    /// End-to-end `MapService::handle` latency, hits included.
    request_lat: LatencyTrack,
    /// Solve wall-clock of admitted misses (the `execute` call alone).
    solve_lat: LatencyTrack,
}

/// Handle to the service metrics registry. Disabled by default
/// ([`ServiceMetrics::off`]): every observation is a no-op and render
/// still works (empty histograms), so callers never branch.
#[derive(Clone, Default)]
pub struct ServiceMetrics(Option<Arc<MetricsInner>>);

impl ServiceMetrics {
    /// A disabled handle; observations are no-ops.
    pub fn off() -> ServiceMetrics {
        ServiceMetrics(None)
    }

    /// A fresh enabled registry.
    pub fn enabled() -> ServiceMetrics {
        ServiceMetrics(Some(Arc::new(MetricsInner::default())))
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    #[inline]
    pub fn observe_queue_wait(&self, us: u64) {
        if let Some(m) = &self.0 {
            m.queue_wait.record(us);
        }
    }

    #[inline]
    pub fn observe_request(&self, us: u64) {
        if let Some(m) = &self.0 {
            m.request_lat.record(us);
        }
    }

    #[inline]
    pub fn observe_solve(&self, us: u64) {
        if let Some(m) = &self.0 {
            m.solve_lat.record(us);
        }
    }

    /// Snapshot of `(queue wait, end-to-end, solve)` distributions
    /// with their sample sums; empty when disabled.
    pub fn latency_snapshot(&self) -> [(Histogram, u64); 3] {
        match &self.0 {
            Some(m) => [
                m.queue_wait.snapshot(),
                m.request_lat.snapshot(),
                m.solve_lat.snapshot(),
            ],
            None => Default::default(),
        }
    }
}

/// Append one Prometheus counter with its headers.
fn counter(out: &mut String, name: &str, help: &str, v: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
    ));
}

/// Append one Prometheus gauge with its headers.
fn gauge(out: &mut String, name: &str, help: &str, v: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
    ));
}

/// Append one histogram in Prometheus exposition form: cumulative
/// `_bucket{le="..."}` series up to the highest occupied bucket, the
/// mandatory `+Inf` bucket, `_sum`, `_count` — plus `_p50/_p90/_p99`
/// gauges (inclusive bucket upper bounds, like the phase-latency
/// tables).
fn histogram(out: &mut String, name: &str, help: &str, h: &Histogram, sum_us: u64) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let hi = h
        .buckets()
        .iter()
        .rposition(|&n| n > 0)
        .unwrap_or(0)
        .min(HISTOGRAM_BUCKETS - 2);
    let mut cum = 0u64;
    for b in 0..=hi {
        cum += h.buckets()[b];
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cum}\n",
            Histogram::bucket_bound(b)
        ));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{name}_sum {sum_us}\n"));
    out.push_str(&format!("{name}_count {}\n", h.count()));
    for (p, v) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
        gauge(
            out,
            &format!("{name}_{p}"),
            &format!("{help} ({p}, inclusive bucket upper bound)."),
            v,
        );
    }
}

/// Render the full scrape payload: the consistent counter/gauge
/// snapshot plus the registry's latency histograms. All metric names
/// carry the `cgra_serve_` prefix; DESIGN.md §11 documents the
/// contract.
pub fn render_prometheus(stats: &ServiceStats, metrics: &ServiceMetrics) -> String {
    let mut out = String::new();
    counter(
        &mut out,
        "cgra_serve_requests_total",
        "Requests classified by the service (hits + misses, exactly).",
        stats.requests,
    );
    counter(
        &mut out,
        "cgra_serve_cache_hits_total",
        "Requests answered from the result cache or a coalesced solve.",
        stats.hits,
    );
    counter(
        &mut out,
        "cgra_serve_cache_misses_total",
        "Requests that went to a solver (warm or cold).",
        stats.misses,
    );
    counter(
        &mut out,
        "cgra_serve_warm_starts_total",
        "Timed-out misses answered by the incumbent fallback.",
        stats.warm,
    );
    counter(
        &mut out,
        "cgra_serve_coalesced_total",
        "Requests deduplicated onto an identical in-flight solve.",
        stats.coalesced,
    );
    counter(
        &mut out,
        "cgra_serve_cache_evictions_total",
        "Entries evicted from the in-memory result cache.",
        stats.evictions,
    );
    counter(
        &mut out,
        "cgra_serve_disk_spills_total",
        "Evicted entries persisted to the spill directory.",
        stats.disk_spills,
    );
    counter(
        &mut out,
        "cgra_serve_spill_rejects_total",
        "Spilled entries refused on reload because their mapping no longer validated.",
        stats.spill_rejects,
    );
    counter(
        &mut out,
        "cgra_serve_cancellations_total",
        "Solves that returned the typed Cancelled outcome.",
        stats.cancellations,
    );
    counter(
        &mut out,
        "cgra_serve_admission_rejections_total",
        "Requests shed because the admission queue was full.",
        stats.rejections,
    );
    gauge(
        &mut out,
        "cgra_serve_cache_entries",
        "Resident in-memory result-cache entries.",
        stats.cache_entries,
    );
    gauge(
        &mut out,
        "cgra_serve_in_flight",
        "Requests currently inside the service (any stage).",
        stats.in_flight,
    );
    gauge(
        &mut out,
        "cgra_serve_queue_depth",
        "Solves waiting on the admission gate.",
        stats.queue_depth,
    );
    gauge(
        &mut out,
        "cgra_serve_running_solves",
        "Solves holding an admission permit right now.",
        stats.running,
    );
    gauge(
        &mut out,
        "cgra_serve_cores",
        "Admission permits (concurrent solve budget); utilization is running_solves / cores.",
        stats.cores,
    );
    let [(queue_h, queue_sum), (req_h, req_sum), (solve_h, solve_sum)] = metrics.latency_snapshot();
    histogram(
        &mut out,
        "cgra_serve_queue_wait_us",
        "Admission-gate wait per solved miss, microseconds.",
        &queue_h,
        queue_sum,
    );
    histogram(
        &mut out,
        "cgra_serve_request_us",
        "End-to-end request latency (hits included), microseconds.",
        &req_h,
        req_sum,
    );
    histogram(
        &mut out,
        "cgra_serve_solve_us",
        "Solver wall-clock per admitted miss, microseconds.",
        &solve_h,
        solve_sum,
    );
    out
}

/// One access-log line: everything needed to replay the service's view
/// of a request offline. All fields are integers or strings, so the
/// JSON round trip is exact (property-tested in
/// `tests/access_log_props.rs`). Absent fields default (additive-safe,
/// like every other wire type here); an unknown `cache` label is an
/// error since replay math keys on it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(default)]
pub struct AccessRecord {
    /// Monotone per-log sequence number (assigned on append).
    pub seq: u64,
    /// Microseconds since the log was opened (assigned on append).
    pub t_us: u64,
    /// The request's trace id (16 hex chars, server-minted at ingress
    /// unless the client supplied one).
    pub trace: String,
    /// Client-assigned request id.
    pub id: u64,
    /// Peer address of the connection that carried the request.
    pub client: String,
    pub kernel: String,
    /// The mapper that produced the outcome (race winner under race).
    pub mapper: String,
    pub cache: CacheStatus,
    /// Admission-gate wait, µs (0 for hits).
    pub queue_us: u64,
    /// Server-side wall clock for the whole request, µs.
    pub server_us: u64,
    /// Achieved II; 0 when the request failed.
    pub ii: u32,
    /// The typed failure's rendering, when the mapping failed.
    pub error: Option<String>,
}

/// Append-only JSONL access log: one line per request, flushed per
/// record so a crash (or a scraper tailing the file) never sees a
/// torn line. Sequence numbers and timestamps are assigned under the
/// writer lock, so `seq` is strictly monotone in file order.
pub struct AccessLog {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
    epoch: Instant,
    seq: AtomicU64,
}

impl AccessLog {
    /// Create (truncate) the log file, creating parent directories.
    pub fn create(path: &Path) -> std::io::Result<AccessLog> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(AccessLog {
            out: Mutex::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
        })
    }

    /// Stamp `seq`/`t_us` and append one line. IO errors are
    /// swallowed: the log must never fail a request.
    pub fn append(&self, rec: &mut AccessRecord) {
        rec.t_us = self.epoch.elapsed().as_micros() as u64;
        let mut out = self.out.lock().unwrap();
        rec.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut line = String::new();
        rec.write_json(&mut line);
        line.push('\n');
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> ServiceStats {
        ServiceStats {
            requests: 10,
            hits: 7,
            misses: 3,
            warm: 1,
            coalesced: 2,
            evictions: 4,
            disk_spills: 4,
            spill_rejects: 6,
            cancellations: 1,
            rejections: 5,
            cache_entries: 3,
            running: 1,
            in_flight: 2,
            queue_depth: 1,
            cores: 2,
        }
    }

    #[test]
    fn exposition_carries_every_counter_and_gauge() {
        let m = ServiceMetrics::enabled();
        m.observe_queue_wait(100);
        m.observe_request(900);
        m.observe_solve(800);
        let text = render_prometheus(&sample_stats(), &m);
        for line in [
            "cgra_serve_requests_total 10",
            "cgra_serve_cache_hits_total 7",
            "cgra_serve_cache_misses_total 3",
            "cgra_serve_warm_starts_total 1",
            "cgra_serve_coalesced_total 2",
            "cgra_serve_cache_evictions_total 4",
            "cgra_serve_disk_spills_total 4",
            "cgra_serve_spill_rejects_total 6",
            "cgra_serve_cancellations_total 1",
            "cgra_serve_admission_rejections_total 5",
            "cgra_serve_cache_entries 3",
            "cgra_serve_in_flight 2",
            "cgra_serve_queue_depth 1",
            "cgra_serve_running_solves 1",
            "cgra_serve_cores 2",
            "cgra_serve_queue_wait_us_count 1",
            "cgra_serve_request_us_count 1",
            "cgra_serve_solve_us_count 1",
            "cgra_serve_solve_us_sum 800",
        ] {
            assert!(text.contains(line), "missing `{line}` in:\n{text}");
        }
        // Every series has HELP + TYPE headers in text-format order.
        for name in ["cgra_serve_requests_total", "cgra_serve_request_us"] {
            let help = text.find(&format!("# HELP {name} ")).expect("HELP");
            let ty = text.find(&format!("# TYPE {name} ")).expect("TYPE");
            assert!(help < ty);
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let m = ServiceMetrics::enabled();
        // Samples in buckets 1 (value 1) and 3 (values 4..=7).
        m.observe_request(1);
        m.observe_request(5);
        m.observe_request(6);
        let text = render_prometheus(&sample_stats(), &m);
        assert!(text.contains("cgra_serve_request_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("cgra_serve_request_us_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("cgra_serve_request_us_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("cgra_serve_request_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("cgra_serve_request_us_sum 12\n"));
        assert!(text.contains("cgra_serve_request_us_count 3\n"));
        // Percentile gauges use the inclusive bucket upper bound.
        assert!(text.contains("cgra_serve_request_us_p50 7\n"));
        assert!(text.contains("cgra_serve_request_us_p99 7\n"));
    }

    #[test]
    fn disabled_registry_renders_empty_histograms() {
        let text = render_prometheus(&sample_stats(), &ServiceMetrics::off());
        assert!(text.contains("cgra_serve_request_us_count 0"));
        assert!(text.contains("cgra_serve_request_us_bucket{le=\"+Inf\"} 0"));
        // Counters still render — they come from the stats snapshot.
        assert!(text.contains("cgra_serve_requests_total 10"));
    }

    #[test]
    fn access_log_stamps_monotone_sequence_numbers() {
        let dir = std::env::temp_dir().join(format!("cgra-accesslog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("access.jsonl");
        let log = AccessLog::create(&path).unwrap();
        for i in 0..3u64 {
            let mut rec = AccessRecord {
                id: i,
                trace: format!("{i:016x}"),
                ..AccessRecord::default()
            };
            log.append(&mut rec);
            assert_eq!(rec.seq, i);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let seqs: Vec<u64> = text
            .lines()
            .map(|l| {
                AccessRecord::from_value(&serde_json::from_str(l).unwrap())
                    .unwrap()
                    .seq
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
