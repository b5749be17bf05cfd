//! `cgra-map` — compile a MiniC kernel, map it onto a CGRA fabric,
//! simulate, and report.
//!
//! ```text
//! cgra-map <file.mc> [--kernel NAME] [--fabric RxC] [--topology mesh|meshplus|torus|onehop]
//!          [--mapper NAME] [--race] [--parallel-ii] [--adres] [--iters N]
//!          [--max-ii N] [--seed N] [--time-limit SECS]
//!          [--connect ADDR] [--trace FILE] [--chrome-trace FILE] [--profile]
//!          [--explain] [--json] [--show-config] [--list-mappers]
//! ```
//!
//! Every run is a [`MapRequest`]: the CLI flags canonicalize into the
//! same request object the `cgra-serve` daemon caches on, and the
//! mapping itself comes back as a [`MapOutcome`] — either from the
//! in-process engine ([`cgra::mapper::service::execute`]) or, with
//! `--connect`, from a running daemon whose content-addressed cache
//! turns repeat solves into hash lookups. Simulation and reporting
//! always run locally.
//!
//! Mapping failures exit with a distinct code per failure kind so
//! scripts can dispatch without parsing stderr: 3 infeasible,
//! 4 timeout, 5 cancelled, 6 unsupported (1 for everything else) —
//! see [`cgra::cli`].

use cgra::cli::CliError;
use cgra::mapper::report;
use cgra::mapper::request::{
    CacheStatus, ExecMode, FabricSpec, KernelSpec, MapOutcome, MapRequest, RequestConfig,
};
use cgra::mapper::service::{self, ExecEnv};
use cgra::mapper::telemetry::{Counter, Phase, Telemetry};
use cgra::prelude::*;
use cgra::serve::Client;
use serde::Serialize as _;
use std::io::Write;
use std::process::ExitCode;

struct Options {
    file: Option<String>,
    kernel: Option<String>,
    rows: u16,
    cols: u16,
    topology: Topology,
    adres: bool,
    mapper: String,
    race: bool,
    parallel_ii: bool,
    iters: usize,
    max_ii: u32,
    seed: u64,
    time_limit: Option<u64>,
    connect: Option<String>,
    trace: Option<String>,
    chrome_trace: Option<String>,
    profile: bool,
    explain: bool,
    json: bool,
    show_config: bool,
    list_mappers: bool,
}

fn usage() -> &'static str {
    "usage: cgra-map <file.mc> [options]\n\
     options:\n\
       --kernel NAME       kernel to compile (default: first in file)\n\
       --fabric RxC        fabric size (default 4x4)\n\
       --topology T        mesh | meshplus | torus | onehop (default mesh)\n\
       --adres             use the heterogeneous ADRES-like preset\n\
       --mapper NAME       mapping technique (see --list-mappers; default modulo-list)\n\
       --race              race the whole mapper zoo; first validated mapping wins\n\
       --parallel-ii       race candidate IIs concurrently instead of bottom-up\n\
       --iters N           iterations to simulate (default 16)\n\
       --max-ii N          II search bound (default 16)\n\
       --seed N            RNG seed for stochastic mappers\n\
       --time-limit SECS   wall-clock mapping budget in seconds\n\
       --connect ADDR      send the request to a running cgra-serve instead of solving here\n\
       --trace FILE        write a JSONL search trace (phase spans + ledger events + counters)\n\
       --chrome-trace FILE write a Chrome trace_event file (load in Perfetto / about:tracing)\n\
       --profile           print a search-effort profile (counters + phase times)\n\
       --explain           on failure, diagnose which resource class bound the search\n\
       --json              machine-readable report\n\
       --show-config       print the configuration stream (Fig. 2c view)\n\
       --list-mappers      list available mapping techniques"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        file: None,
        kernel: None,
        rows: 4,
        cols: 4,
        topology: Topology::Mesh,
        adres: false,
        mapper: "modulo-list".into(),
        race: false,
        parallel_ii: false,
        iters: 16,
        max_ii: 16,
        seed: 0xC612A,
        time_limit: None,
        connect: None,
        trace: None,
        chrome_trace: None,
        profile: false,
        explain: false,
        json: false,
        show_config: false,
        list_mappers: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--kernel" => opts.kernel = Some(need("--kernel")?),
            "--fabric" => {
                let v = need("--fabric")?;
                let (r, c) = v
                    .split_once('x')
                    .ok_or_else(|| format!("bad --fabric `{v}`, want RxC"))?;
                opts.rows = r.parse().map_err(|_| format!("bad rows `{r}`"))?;
                opts.cols = c.parse().map_err(|_| format!("bad cols `{c}`"))?;
            }
            "--topology" => {
                opts.topology = match need("--topology")?.as_str() {
                    "mesh" => Topology::Mesh,
                    "meshplus" => Topology::MeshPlus,
                    "torus" => Topology::Torus,
                    "onehop" => Topology::OneHop,
                    other => return Err(format!("unknown topology `{other}`")),
                }
            }
            "--adres" => opts.adres = true,
            "--mapper" => opts.mapper = need("--mapper")?,
            "--race" => opts.race = true,
            "--parallel-ii" => opts.parallel_ii = true,
            "--iters" => opts.iters = need("--iters")?.parse().map_err(|e| format!("{e}"))?,
            "--max-ii" => opts.max_ii = need("--max-ii")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => opts.seed = need("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--time-limit" => {
                opts.time_limit = Some(need("--time-limit")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--connect" => opts.connect = Some(need("--connect")?),
            "--trace" => opts.trace = Some(need("--trace")?),
            "--chrome-trace" => opts.chrome_trace = Some(need("--chrome-trace")?),
            "--profile" => opts.profile = true,
            "--explain" => opts.explain = true,
            "--json" => opts.json = true,
            "--show-config" => opts.show_config = true,
            "--list-mappers" => opts.list_mappers = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            file => opts.file = Some(file.to_string()),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

/// Canonicalize the CLI flags into the request object shared with the
/// serve protocol and its cache keys.
fn build_request(opts: &Options) -> Result<MapRequest, CliError> {
    let file = opts.file.as_ref().ok_or_else(|| usage().to_string())?;
    let source = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let defaults = RequestConfig::default();
    let mut req = MapRequest::new(
        KernelSpec::Source {
            source,
            name: opts.kernel.clone(),
        },
        opts.mapper.clone(),
    );
    // Tie the request id to the process so `cancel` from another
    // client can name this job while it is in flight on a server.
    req.id = std::process::id() as u64;
    req.fabric = FabricSpec {
        rows: opts.rows,
        cols: opts.cols,
        topology: opts.topology,
        adres: opts.adres,
    };
    req.mode = if opts.race {
        ExecMode::Race
    } else if opts.parallel_ii {
        ExecMode::ParallelIi
    } else {
        ExecMode::Single
    };
    req.config = RequestConfig {
        max_ii: opts.max_ii,
        seed: opts.seed,
        time_limit_ms: opts
            .time_limit
            .map(|s| s.saturating_mul(1000))
            .unwrap_or(defaults.time_limit_ms),
        explain: opts.explain,
        ..defaults
    };
    Ok(req)
}

fn run() -> Result<(), CliError> {
    let opts = parse_args().map_err(CliError::usage)?;
    if opts.list_mappers {
        println!("available mappers:");
        for spec in MapperRegistry::standard().specs() {
            println!("  {:<16} {}", spec.name, spec.family.label());
        }
        return Ok(());
    }
    if opts.race && opts.parallel_ii {
        return Err(CliError::usage(
            "--race and --parallel-ii are mutually exclusive",
        ));
    }
    let observing = opts.trace.is_some() || opts.chrome_trace.is_some() || opts.profile;
    if opts.connect.is_some() && observing {
        return Err(CliError::usage(
            "--trace/--chrome-trace/--profile need the in-process engine; \
             drop --connect to use them",
        ));
    }

    let req = build_request(&opts)?;

    // One sink for the whole pipeline when observability is requested;
    // disabled otherwise (every telemetry call is then a null check).
    // The engine records parse/optimize/map/validate spans and the
    // search events into it via ExecEnv; simulation adds its span
    // afterwards.
    let tele = if observing {
        Telemetry::enabled()
    } else {
        Telemetry::off()
    };

    // Client-observed wall clock for --connect; the server-reported
    // breakdown (queue wait + solve time) is printed alongside it so
    // users can see where a slow remote map actually spent its time.
    let mut client_ms: Option<f64> = None;
    let outcome = match &opts.connect {
        Some(addr) => {
            let mut client = Client::connect(addr.as_str())
                .map_err(|e| CliError::from(format!("connect {addr}: {e}")))?;
            let t0 = std::time::Instant::now();
            let out = client.map(&req).map_err(|e| CliError::from(e.0))?;
            client_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
            out
        }
        None => {
            let env = ExecEnv {
                telemetry: observing.then(|| tele.clone()),
                ..ExecEnv::default()
            };
            service::execute(&req, &env)
        }
    };

    if let Some(err) = &outcome.error {
        if req.mode == ExecMode::Race && !outcome.race.is_empty() {
            let mut cli: CliError = err.into();
            cli.msg = format!("{}\n{}", race_failure_report(&outcome), cli.msg);
            return Err(cli);
        }
        return Err(err.into());
    }
    let mapping = outcome
        .mapping
        .clone()
        .ok_or("INTERNAL: successful outcome without a mapping")?;
    let metrics = outcome
        .metrics
        .clone()
        .ok_or("INTERNAL: successful outcome without metrics")?;

    // Re-derive the DFG and fabric locally: simulation, the config
    // stream, and validation of server-returned mappings all need
    // them, and the request is the single source of truth for both.
    let dfg = req.kernel.compile().map_err(|e| e.0)?;
    let fabric = req.fabric.build().map_err(|e| e.0)?;
    {
        let _span = tele.span(Phase::Validate);
        validate(&mapping, &dfg, &fabric).map_err(|e| format!("INTERNAL: invalid mapping: {e}"))?;
    }

    // Simulate with a deterministic synthetic tape.
    let streams = dfg
        .nodes()
        .filter_map(|(_, n)| match n.op {
            OpKind::Input(s) => Some(s as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let tape = Tape::generate(streams, opts.iters, |s, i| ((s + 2) * (i + 1)) as i64 % 97)
        .with_memory(vec![1; 256]);
    let stats = {
        let _span = tele.span(Phase::Simulate);
        cgra::sim::simulate_verified(&mapping, &dfg, &fabric, opts.iters, &tape)
            .map_err(|e| format!("simulation mismatch: {e}"))?
    };
    let energy = EnergyModel::default();
    let run_energy = energy.run_energy(&mapping, &dfg, &fabric, opts.iters as u64);

    if let Some(path) = &opts.trace {
        write_trace(path, &tele)?;
    }
    if let Some(path) = &opts.chrome_trace {
        let trace = report::chrome_trace(&tele);
        std::fs::write(path, serde_json::to_string_pretty(&trace).unwrap())
            .map_err(|e| format!("{path}: {e}"))?;
    }

    if opts.json {
        let config_json = serde_json::json!({
            "max_ii": req.config.max_ii,
            "seed": req.config.seed,
            "time_limit_secs": req.config.time_limit_ms as f64 / 1e3,
        });
        let race_json = if req.mode == ExecMode::Race {
            serde_json::json!({
                "winner": outcome.mapper,
                "wall_ms": outcome.race_wall_ms,
                "entries": outcome.race,
            })
        } else {
            serde_json::Value::Null
        };
        let report = serde_json::json!({
            "kernel": outcome.kernel,
            "fabric": outcome.fabric,
            "mapper": outcome.mapper,
            "family": outcome.family,
            "cache": outcome.cache.label(),
            "cache_key": req.cache_key().hex(),
            "trace": outcome.trace,
            "compile_ms": outcome.compile_ms,
            "queue_ms": outcome.queue_us as f64 / 1e3,
            "client_ms": client_ms,
            "config": config_json,
            "metrics": metrics,
            "cycles": stats.cycles,
            "throughput": stats.throughput,
            "energy": run_energy,
            "search_stats": outcome.stats,
            "spans_dropped": outcome.spans_dropped,
            "latency": outcome.latency,
            "utilization": outcome.utilization,
            "race": race_json,
        });
        println!("{}", serde_json::to_string_pretty(&report).unwrap());
    } else {
        let via = match (&opts.connect, outcome.cache) {
            (Some(addr), CacheStatus::Hit) => format!(" [cache hit via {addr}]"),
            (Some(addr), status) => format!(" [{} via {addr}]", status.label()),
            (None, _) => String::new(),
        };
        println!(
            "mapped `{}` ({} ops) onto {} with `{}` in {:.1} ms{via}",
            outcome.kernel,
            dfg.node_count(),
            outcome.fabric,
            outcome.mapper,
            outcome.compile_ms,
        );
        if let Some(wall) = client_ms {
            println!(
                "  server: cache={} queue={:.1} ms solve={:.1} ms trace={} (client wall {:.1} ms)",
                outcome.cache.label(),
                outcome.queue_us as f64 / 1e3,
                outcome.compile_ms,
                if outcome.trace.is_empty() {
                    "-"
                } else {
                    &outcome.trace
                },
                wall,
            );
        }
        if req.mode == ExecMode::Race {
            println!("{}", render_race(&outcome));
        }
        println!(
            "  II={} schedule={} utilisation={:.1}% hops={} peak-regs={}",
            metrics.ii,
            metrics.schedule_len,
            metrics.fu_utilisation * 100.0,
            metrics.route_hops,
            metrics.peak_registers
        );
        println!(
            "  simulated {} iterations in {} cycles ({:.3} iters/cycle), energy {:.1} units",
            stats.iterations, stats.cycles, stats.throughput, run_energy
        );
        println!("  functional check vs reference interpreter: OK");
        if opts.show_config {
            let cs = ConfigStream::generate(&mapping, &dfg, &fabric);
            println!("\n{}", cs.render(&fabric));
        }
    }
    if opts.profile {
        let profile = render_profile(&tele);
        if opts.json {
            // Keep stdout valid JSON.
            eprint!("{profile}");
        } else {
            print!("{profile}");
        }
    }
    Ok(())
}

/// One line per race entry: status (II or typed error kind) + time.
fn render_race(outcome: &MapOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  race over {} mappers decided in {:.1} ms wall:",
        outcome.race.len(),
        outcome.race_wall_ms
    );
    let _ = writeln!(out, "    {:<16} {:>10} {:>10}", "mapper", "status", "ms");
    for e in &outcome.race {
        let status = match (e.ii(), &e.error) {
            (Some(ii), _) => format!("II={ii}"),
            (None, Some(err)) => err.kind().to_string(),
            (None, None) => "-".to_string(),
        };
        let marker = if e.mapper == outcome.mapper {
            " <- winner"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {:<16} {:>10} {:>10.1}{marker}",
            e.mapper, status, e.compile_ms
        );
    }
    out.trim_end().to_string()
}

/// The report for a race in which no mapper produced a valid mapping.
fn race_failure_report(outcome: &MapOutcome) -> String {
    let detail: Vec<String> = outcome
        .race
        .iter()
        .map(|e| match &e.error {
            Some(err) => format!("{}: {err}", e.mapper),
            None => format!("{}: no mapping", e.mapper),
        })
        .collect();
    format!("race failed: no mapper won\n  {}", detail.join("\n  "))
}

/// Emit the trace as JSON Lines: one `span` event per recorded phase
/// span (completion order), one line per search event (incumbents,
/// race timeline, II probes), a single `counters` event, and a closing
/// `meta` line accounting for anything the bounded logs dropped.
fn write_trace(path: &str, tele: &Telemetry) -> Result<(), CliError> {
    let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(f);
    let mut emit = |line: serde_json::Value| -> Result<(), CliError> {
        writeln!(w, "{line}").map_err(|e| CliError::from(format!("{path}: {e}")))
    };
    for s in tele.spans() {
        emit(serde_json::json!({
            "event": "span",
            "phase": s.phase.label(),
            "ii": s.ii,
            "start_us": s.start_us,
            "dur_us": s.dur_us,
        }))?;
    }
    for e in tele.events() {
        emit(e.to_value())?;
    }
    if let Some(snap) = tele.snapshot() {
        emit(serde_json::json!({ "event": "counters", "counters": snap }))?;
    }
    emit(serde_json::json!({
        "event": "meta",
        "spans_dropped": tele.spans_dropped(),
        "events_dropped": tele.events_dropped(),
    }))?;
    Ok(())
}

/// Human-readable search-effort profile: wall-clock per phase, then
/// every nonzero counter.
fn render_profile(tele: &Telemetry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let spans = tele.spans();
    let _ = writeln!(out, "\nsearch profile:");
    let _ = writeln!(out, "  {:<22} {:>10} {:>12}", "phase", "spans", "total ms");
    for p in Phase::ALL {
        let group: Vec<_> = spans.iter().filter(|s| s.phase == p).collect();
        if group.is_empty() {
            continue;
        }
        let total_ms = group.iter().map(|s| s.dur_us).sum::<u64>() as f64 / 1e3;
        let _ = writeln!(
            out,
            "  {:<22} {:>10} {:>12.2}",
            p.label(),
            group.len(),
            total_ms
        );
    }
    if let Some(snap) = tele.snapshot() {
        let _ = writeln!(out, "  {:<22} {:>10}", "counter", "value");
        for c in Counter::ALL {
            let v = snap.get(c);
            if v > 0 {
                let _ = writeln!(out, "  {:<22} {:>10}", c.label(), v);
            }
        }
    }
    out
}
