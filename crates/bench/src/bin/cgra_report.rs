//! `cgra-report` — inspect and regression-gate directories of run
//! reports: saved [`MapOutcome`]s (written by `table1 --report DIR` or
//! any other driver that saves them).
//!
//! ```text
//! cgra-report DIR                      render convergence + race summary
//! cgra-report --baseline BASE DIR      diff DIR against BASE and gate:
//!                                      exit 1 if any (kernel, arch, mapper)
//!                                      cell loses its mapping or worsens
//!                                      its II
//! cgra-report --baseline BASE DIR --max-slowdown 50
//!                                      also fail cells >50% slower in wall
//! ```
//!
//! The gate ignores cells present on only one side (suite drift is a
//! review concern, not a regression), so baselines stay usable while
//! the kernel suite grows.

use cgra::cli::{EXIT_FAILURE, EXIT_USAGE};
use cgra::mapper::fleet::FleetReport;
use cgra::mapper::ledger::LedgerEvent;
use cgra::mapper::request::MapOutcome;
use cgra::mapper::servemetrics::AccessRecord;
use cgra::mapper::telemetry::Histogram;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Options {
    dir: Option<String>,
    baseline: Option<String>,
    /// Wall-clock regression tolerance in percent; `None` = no wall gate.
    max_slowdown: Option<f64>,
    /// Render fabric utilization heatmaps for successful cells.
    heatmap: bool,
    /// Render a cgra-serve access log (JSONL) instead of run reports.
    serve_log: Option<String>,
    /// Render a cgra-fleet JSON report instead of run reports.
    fleet: Option<String>,
}

fn usage() -> &'static str {
    "usage: cgra-report [--baseline BASE_DIR] [--max-slowdown PCT] [--heatmap] DIR\n\
     \u{20}      cgra-report --serve-log FILE\n\
     \u{20}      cgra-report --fleet FILE\n\
     \n\
     Renders per-mapper convergence tables, phase-latency percentiles,\n\
     failure diagnoses, and the race timeline from a directory of\n\
     run-report JSON artifacts. With --heatmap, also renders ASCII fabric\n\
     utilization heatmaps for every successful cell. With --baseline,\n\
     diffs DIR against BASE_DIR and exits non-zero when any (kernel,\n\
     arch, mapper) cell regresses: a lost mapping, a worse II, or (with\n\
     --max-slowdown) a wall-time slowdown beyond PCT percent.\n\
     \n\
     With --serve-log, reads a cgra-serve access log (one JSON record\n\
     per request) and renders the service view instead: hit rate over\n\
     time, queue-wait and end-to-end latency percentiles, and a\n\
     per-client breakdown.\n\
     \n\
     With --fleet, reads a cgra-fleet --json report and renders the\n\
     fleet view: makespan vs the sequential baseline, per-fabric\n\
     utilization, and the per-job schedule."
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        dir: None,
        baseline: None,
        max_slowdown: None,
        heatmap: false,
        serve_log: None,
        fleet: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--baseline" => opts.baseline = Some(need("--baseline")?),
            "--max-slowdown" => {
                opts.max_slowdown = Some(
                    need("--max-slowdown")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--heatmap" => opts.heatmap = true,
            "--serve-log" => opts.serve_log = Some(need("--serve-log")?),
            "--fleet" => opts.fleet = Some(need("--fleet")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            dir => opts.dir = Some(dir.to_string()),
        }
    }
    if opts.dir.is_none() && opts.serve_log.is_none() && opts.fleet.is_none() {
        return Err(usage().to_string());
    }
    Ok(opts)
}

fn load(dir: &str) -> Result<Vec<MapOutcome>, String> {
    let reports =
        MapOutcome::load_dir(std::path::Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
    if reports.is_empty() {
        return Err(format!("{dir}: no run reports found"));
    }
    Ok(reports)
}

/// The identity of one experiment cell across runs.
fn key(r: &MapOutcome) -> (String, String, String) {
    (r.kernel.clone(), r.fabric.clone(), r.mapper.clone())
}

fn fmt_ii(r: &MapOutcome) -> String {
    match r.ii() {
        Some(ii) => format!("II={ii}"),
        None => "failed".to_string(),
    }
}

/// Per-report convergence row: how the search's incumbents evolved.
fn convergence_row(r: &MapOutcome) -> String {
    let incumbents: Vec<&LedgerEvent> = r
        .events
        .iter()
        .filter(|e| e.kind.label() == "incumbent")
        .collect();
    let attempts = r
        .events
        .iter()
        .filter(|e| e.kind.label() == "ii_attempt")
        .count();
    let trail = match (incumbents.first(), incumbents.last()) {
        (Some(first), Some(last)) if incumbents.len() > 1 => format!(
            "{} @{}us -> {} @{}us",
            first.kind.ii().map(|x| x.to_string()).unwrap_or_default(),
            first.t_us,
            last.kind.ii().map(|x| x.to_string()).unwrap_or_default(),
            last.t_us
        ),
        (Some(only), _) => format!(
            "{} @{}us",
            only.kind.ii().map(|x| x.to_string()).unwrap_or_default(),
            only.t_us
        ),
        _ => "-".to_string(),
    };
    format!(
        "  {:<18} {:<14} {:>8} {:>9} {:>10.1}  {}",
        r.kernel,
        fmt_ii(r),
        attempts,
        incumbents.len(),
        r.compile_ms,
        trail
    )
}

/// Render the per-mapper convergence tables.
fn render_convergence(reports: &[MapOutcome]) {
    let mut by_mapper: BTreeMap<&str, Vec<&MapOutcome>> = BTreeMap::new();
    for r in reports {
        by_mapper.entry(&r.mapper).or_default().push(r);
    }
    for (mapper, rows) in by_mapper {
        println!("\nmapper `{mapper}`:");
        println!(
            "  {:<18} {:<14} {:>8} {:>9} {:>10}  incumbent trail (II @ time)",
            "kernel", "result", "IIs", "incumb.", "wall ms"
        );
        for r in rows {
            println!("{}", convergence_row(r));
        }
    }
}

/// Render every race timeline found in the reports' event journals.
fn render_races(reports: &[MapOutcome]) {
    let mut printed_header = false;
    for r in reports {
        let race: Vec<&LedgerEvent> = r
            .events
            .iter()
            .filter(|e| e.kind.label().starts_with("race_"))
            .collect();
        if race.is_empty() {
            continue;
        }
        if !printed_header {
            println!("\nrace timelines:");
            printed_header = true;
        }
        println!("  {} / {} / {}:", r.kernel, r.fabric, r.mapper);
        for e in race {
            let who = e.kind.mapper();
            let detail = match (e.kind.label(), e.kind.ii()) {
                ("race_win", Some(ii)) => format!("won at II={ii}"),
                ("race_win", None) => "won".to_string(),
                ("race_start", _) => "entered".to_string(),
                _ => "out".to_string(),
            };
            println!("    {:>8}us  {:<16} {}", e.t_us, who, detail);
        }
    }
}

/// Render per-phase latency percentiles for every report that carries
/// them (reports written before histograms existed simply have none).
fn render_latency(reports: &[MapOutcome]) {
    let mut printed_header = false;
    for r in reports {
        if r.latency.is_empty() {
            continue;
        }
        if !printed_header {
            println!("\nphase latencies (per span, microseconds):");
            println!(
                "  {:<18} {:<16} {:<12} {:>7} {:>8} {:>8} {:>8}",
                "kernel", "mapper", "phase", "spans", "p50", "p90", "p99"
            );
            printed_header = true;
        }
        for row in &r.latency {
            println!(
                "  {:<18} {:<16} {:<12} {:>7} {:>8} {:>8} {:>8}",
                r.kernel, r.mapper, row.phase, row.count, row.p50_us, row.p90_us, row.p99_us
            );
        }
    }
}

/// Render the failure diagnosis of every cell that carries one.
fn render_diagnoses(reports: &[MapOutcome]) {
    let mut printed_header = false;
    for r in reports {
        let Some(d) = r.error.as_ref().and_then(|e| e.diagnosis()) else {
            continue;
        };
        if !printed_header {
            println!("\nfailure diagnoses:");
            printed_header = true;
        }
        println!("  {} / {} / {}:", r.kernel, r.fabric, r.mapper);
        for line in d.render().lines() {
            println!("    {line}");
        }
    }
}

/// Render ASCII utilization heatmaps for every successful cell.
fn render_heatmaps(reports: &[MapOutcome]) {
    for r in reports {
        let Some(u) = &r.utilization else { continue };
        println!(
            "\n{} / {} / {} (II={}):",
            r.kernel, r.fabric, r.mapper, u.ii
        );
        for line in u.render_standalone(&r.fabric).lines() {
            println!("  {line}");
        }
    }
}

/// Parse a cgra-serve access log: one JSON [`AccessRecord`] per line.
fn load_serve_log(path: &str) -> Result<Vec<AccessRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut recs = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = serde_json::from_str_as(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        recs.push(rec);
    }
    if recs.is_empty() {
        return Err(format!("{path}: no access records"));
    }
    Ok(recs)
}

/// Latency percentiles over one field of the access records, rebuilt
/// through the same log2 histogram the live metrics endpoint uses so
/// offline and scraped percentiles agree.
fn latency_row(label: &str, samples: impl Iterator<Item = u64>) -> String {
    let mut hist = Histogram::default();
    let mut sum = 0u64;
    for us in samples {
        hist.record(us);
        sum += us;
    }
    let n = hist.count();
    let mean = if n > 0 { sum as f64 / n as f64 } else { 0.0 };
    format!(
        "  {:<16} {:>8} {:>10.1} {:>8} {:>8} {:>8}",
        label,
        n,
        mean,
        hist.p50(),
        hist.p90(),
        hist.p99()
    )
}

/// Render the service view of an access log: hit rate over time,
/// latency percentiles, and a per-client breakdown.
fn render_serve_log(recs: &[AccessRecord]) {
    let hits = |rs: &[&AccessRecord]| rs.iter().filter(|r| r.cache.label() == "hit").count();
    let all: Vec<&AccessRecord> = recs.iter().collect();
    let errors = all.iter().filter(|r| r.error.is_some()).count();
    let span_us = recs.iter().map(|r| r.t_us).max().unwrap_or(0)
        - recs.iter().map(|r| r.t_us).min().unwrap_or(0);
    println!(
        "{} requests over {:.1} s: {} hits ({:.1}%), {} errors",
        recs.len(),
        span_us as f64 / 1e6,
        hits(&all),
        100.0 * hits(&all) as f64 / recs.len() as f64,
        errors
    );

    let mut by_cache: BTreeMap<&str, usize> = BTreeMap::new();
    for r in recs {
        *by_cache.entry(r.cache.label()).or_default() += 1;
    }
    println!(
        "  cache: {}",
        by_cache
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Hit rate over time: up to 10 equal wall-clock buckets. The cache
    // warming up shows as the hit column climbing bucket over bucket.
    let t0 = recs.iter().map(|r| r.t_us).min().unwrap_or(0);
    let buckets = 10.min(recs.len());
    let width = (span_us / buckets as u64).max(1);
    println!(
        "\nhit rate over time ({buckets} buckets of {:.1} ms):",
        width as f64 / 1e3
    );
    println!(
        "  {:<12} {:>9} {:>6} {:>7}",
        "t+ms", "requests", "hits", "hit%"
    );
    for b in 0..buckets as u64 {
        let lo = t0 + b * width;
        // Last bucket absorbs the rounding remainder.
        let hi = if b + 1 == buckets as u64 {
            u64::MAX
        } else {
            lo + width
        };
        let slice: Vec<&AccessRecord> = recs
            .iter()
            .filter(|r| r.t_us >= lo && r.t_us < hi)
            .collect();
        if slice.is_empty() {
            continue;
        }
        let h = hits(&slice);
        println!(
            "  {:<12.1} {:>9} {:>6} {:>6.1}%",
            (lo - t0) as f64 / 1e3,
            slice.len(),
            h,
            100.0 * h as f64 / slice.len() as f64
        );
    }

    println!("\nlatency percentiles (microseconds):");
    println!(
        "  {:<16} {:>8} {:>10} {:>8} {:>8} {:>8}",
        "metric", "count", "mean", "p50", "p90", "p99"
    );
    println!(
        "{}",
        latency_row("queue_wait", recs.iter().map(|r| r.queue_us))
    );
    println!(
        "{}",
        latency_row("server_total", recs.iter().map(|r| r.server_us))
    );

    let mut by_client: BTreeMap<&str, Vec<&AccessRecord>> = BTreeMap::new();
    for r in recs {
        by_client.entry(r.client.as_str()).or_default().push(r);
    }
    println!("\nper-client breakdown:");
    println!(
        "  {:<22} {:>9} {:>6} {:>7} {:>7} {:>12}",
        "client", "requests", "hits", "hit%", "errors", "mean us"
    );
    for (client, rs) in &by_client {
        let h = hits(rs);
        let errs = rs.iter().filter(|r| r.error.is_some()).count();
        let mean = rs.iter().map(|r| r.server_us).sum::<u64>() as f64 / rs.len() as f64;
        println!(
            "  {:<22} {:>9} {:>6} {:>6.1}% {:>7} {:>12.1}",
            client,
            rs.len(),
            h,
            100.0 * h as f64 / rs.len() as f64,
            errs,
            mean
        );
    }
}

/// What `cgra-fleet --baseline` appends to the report object.
#[derive(Deserialize)]
struct Baseline {
    speedup: Option<f64>,
}

/// Render a cgra-fleet `--json` report: the fleet summary line,
/// per-fabric utilization, and the per-job schedule in queue order.
fn render_fleet(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report: FleetReport = serde_json::from_str_as(&text).map_err(|e| {
        let hint = if e.is_syntax() {
            ""
        } else {
            " (not a cgra-fleet report?)"
        };
        format!("{path}: {e}{hint}")
    })?;

    print!(
        "fleet: {} scheduled, {} failed, makespan {:.1} ms (sum of work {:.1} ms)",
        report.scheduled, report.failed, report.makespan_ms, report.sum_ms
    );
    if let Ok(Baseline {
        speedup: Some(speedup),
    }) = serde_json::from_str_as(&text)
    {
        print!(", {speedup:.2}x vs sequential baseline");
    }
    println!();

    println!("\nper-fabric utilization:");
    println!(
        "  {:<18} {:<14} {:>5} {:>10} {:>7} {:>8}",
        "fabric", "spec", "jobs", "busy ms", "util%", "mean fu%"
    );
    for f in &report.fabrics {
        println!(
            "  {:<18} {:<14} {:>5} {:>10.1} {:>6.1}% {:>7.1}%",
            f.name,
            f.spec,
            f.jobs,
            f.busy_ms,
            100.0 * f.utilization,
            100.0 * f.mean_fu
        );
    }

    println!("\nschedule ({} jobs):", report.jobs.len());
    println!(
        "  {:>3} {:<16} {:<18} {:>4} {:>9} {:>4} {:<6} {:<4} result",
        "#", "kernel", "fabric", "slot", "wall ms", "II", "cache", "warm"
    );
    for j in &report.jobs {
        let result = match &j.error {
            Some(e) => format!("FAILED: {e}"),
            None => "ok".into(),
        };
        println!(
            "  {:>3} {:<16} {:<18} {:>4} {:>9.1} {:>4} {:<6} {:<4} {result}",
            j.queue_index,
            j.kernel,
            j.fabric,
            j.slot,
            j.wall_ms,
            j.ii.map_or("-".into(), |ii| ii.to_string()),
            j.cache.label(),
            if j.warm { "yes" } else { "no" }
        );
    }
    if report.failed > 0 {
        return Err(format!("{} fleet job(s) failed", report.failed));
    }
    Ok(())
}

/// One regression found by the baseline gate.
struct Regression {
    cell: (String, String, String),
    what: String,
}

/// Diff current against baseline; returns regressions (gate failures).
fn diff(
    baseline: &[MapOutcome],
    current: &[MapOutcome],
    max_slowdown: Option<f64>,
) -> Vec<Regression> {
    let base: BTreeMap<_, &MapOutcome> = baseline.iter().map(|r| (key(r), r)).collect();
    let mut regressions = Vec::new();
    let mut improvements = 0usize;
    let mut matched = 0usize;
    for cur in current {
        let k = key(cur);
        let Some(prev) = base.get(&k) else { continue };
        matched += 1;
        match (prev.ii(), cur.ii()) {
            (Some(b), Some(c)) if c > b => regressions.push(Regression {
                cell: k.clone(),
                what: format!("II regressed {b} -> {c}"),
            }),
            (Some(b), None) => regressions.push(Regression {
                cell: k.clone(),
                what: format!(
                    "lost its mapping (baseline II={b}, now: {})",
                    cur.error
                        .as_ref()
                        .map_or("unknown failure".to_string(), |e| e.to_string())
                ),
            }),
            (Some(b), Some(c)) if c < b => improvements += 1,
            (None, Some(_)) => improvements += 1,
            _ => {}
        }
        if let Some(pct) = max_slowdown {
            if prev.compile_ms > 0.0 && cur.compile_ms > prev.compile_ms * (1.0 + pct / 100.0) {
                regressions.push(Regression {
                    cell: k.clone(),
                    what: format!(
                        "wall time {:.1} ms -> {:.1} ms (> {pct}% slower)",
                        prev.compile_ms, cur.compile_ms
                    ),
                });
            }
        }
    }
    println!(
        "\nbaseline gate: {matched} cells compared, {improvements} improved, {} regressed",
        regressions.len()
    );
    regressions
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if let Some(path) = &opts.serve_log {
        return match load_serve_log(path) {
            Ok(recs) => {
                render_serve_log(&recs);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(EXIT_USAGE)
            }
        };
    }
    if let Some(path) = &opts.fleet {
        return match render_fleet(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(EXIT_USAGE)
            }
        };
    }
    let dir = opts.dir.as_deref().expect("checked in parse_args");
    let current = match load(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    println!(
        "{} run reports from {dir} ({} mappers, {} kernels)",
        current.len(),
        current
            .iter()
            .map(|r| r.mapper.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        current
            .iter()
            .map(|r| r.kernel.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );
    let truncated = current.iter().filter(|r| r.spans_dropped > 0).count();
    if truncated > 0 {
        let dropped: u64 = current.iter().map(|r| r.spans_dropped).sum();
        eprintln!(
            "warning: {truncated} report(s) hit the span buffer cap ({dropped} spans dropped); \
             latency percentiles still cover every span, but trace timelines are truncated"
        );
    }
    render_convergence(&current);
    render_latency(&current);
    render_diagnoses(&current);
    render_races(&current);
    if opts.heatmap {
        render_heatmaps(&current);
    }

    if let Some(base_dir) = &opts.baseline {
        let baseline = match load(base_dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        let regressions = diff(&baseline, &current, opts.max_slowdown);
        if !regressions.is_empty() {
            for r in &regressions {
                let (kernel, arch, mapper) = &r.cell;
                eprintln!("REGRESSION {kernel} / {arch} / {mapper}: {}", r.what);
            }
            return ExitCode::from(EXIT_FAILURE);
        }
        println!("baseline gate: OK");
    }
    ExitCode::SUCCESS
}
