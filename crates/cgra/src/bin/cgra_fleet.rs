//! `cgra-fleet` — schedule a queue of kernels across a farm of CGRAs.
//!
//! Two modes:
//!
//! * **Temporal fleet scheduling** (default): a deterministic LPT list
//!   scheduler assigns every kernel a (fabric, slot) by predicted cost
//!   and one worker per fabric drains its queue concurrently. Unless
//!   `--no-baseline`, the same queue also runs one-at-a-time on the
//!   first fabric and the speedup is reported.
//! * **Spatial co-mapping** (`--co-map`): kernels map onto disjoint
//!   rectangular partitions of the *first* fabric simultaneously;
//!   failed partitions re-merge and retry at coarser granularity.

use cgra::cli::{CliError, EXIT_FAILURE, EXIT_USAGE};
use cgra_mapper_core::fleet::{self, CoMapReport, FleetFabric, FleetReport};
use cgra_mapper_core::request::{KernelSpec, MapRequest};
use cgra_mapper_core::service::{MapService, ServiceOptions};
use serde::{Serialize, Value};
use std::process::ExitCode;

const USAGE: &str = "\
cgra-fleet - multi-kernel, multi-CGRA fleet scheduler

USAGE:
    cgra-fleet [KERNEL.mc ...] [OPTIONS]

KERNEL SOURCES (any mix; at least one):
    KERNEL.mc ...      MiniC kernel files (positional)
    --kernels-dir DIR  Every .mc file in DIR, sorted by name
    --named A,B,C      Built-in named kernels (dot_product, fir4, ...)

OPTIONS:
    --fabrics SPECS   Comma-separated farm, each ROWSxCOLS[:TOPOLOGY|:adres]
                      (default 8x8,6x6:meshplus)
    --mapper NAME     Mapper for every request (default modulo-list)
    --time-limit MS   Per-request time limit in milliseconds
    --seed N          Request seed (affects stochastic mappers)
    --co-map          Co-map all kernels onto partitions of the first fabric
    --no-baseline     Skip the sequential single-fabric baseline run
    --json            Emit one JSON report object instead of tables
    -h, --help        Show this help
";

struct Options {
    files: Vec<String>,
    kernels_dir: Option<String>,
    named: Vec<String>,
    fabrics: String,
    mapper: String,
    time_limit: Option<u64>,
    seed: Option<u64>,
    co_map: bool,
    baseline: bool,
    json: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, CliError> {
    let mut opts = Options {
        files: Vec::new(),
        kernels_dir: None,
        named: Vec::new(),
        fabrics: "8x8,6x6:meshplus".into(),
        mapper: "modulo-list".into(),
        time_limit: None,
        seed: None,
        co_map: false,
        baseline: true,
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, CliError> {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--kernels-dir" => opts.kernels_dir = Some(value("--kernels-dir")?),
            "--named" => opts
                .named
                .extend(value("--named")?.split(',').map(str::to_string)),
            "--fabrics" => opts.fabrics = value("--fabrics")?,
            "--mapper" => opts.mapper = value("--mapper")?,
            "--time-limit" => {
                opts.time_limit = Some(parse_num(&value("--time-limit")?, "--time-limit")?);
            }
            "--seed" => opts.seed = Some(parse_num(&value("--seed")?, "--seed")?),
            "--co-map" => opts.co_map = true,
            "--no-baseline" => opts.baseline = false,
            "--json" => opts.json = true,
            other if !other.starts_with('-') => opts.files.push(other.to_string()),
            other => {
                return Err(CliError::usage(format!(
                    "unknown option `{other}` (try --help)"
                )));
            }
        }
    }
    Ok(Some(opts))
}

fn parse_num(s: &str, name: &str) -> Result<u64, CliError> {
    s.parse()
        .map_err(|_| CliError::usage(format!("{name}: `{s}` is not a number")))
}

/// Gather the request queue from files, a directory sweep, and named
/// built-ins, in that order; ids are 1-based queue positions.
fn build_queue(opts: &Options) -> Result<Vec<MapRequest>, CliError> {
    let mut files = opts.files.clone();
    if let Some(dir) = &opts.kernels_dir {
        let mut found: Vec<String> = std::fs::read_dir(dir)
            .map_err(|e| CliError::from(format!("{dir}: {e}")))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "mc"))
            .map(|p| p.display().to_string())
            .collect();
        found.sort();
        files.extend(found);
    }
    let mut queue = Vec::new();
    for file in &files {
        let source =
            std::fs::read_to_string(file).map_err(|e| CliError::from(format!("{file}: {e}")))?;
        queue.push(MapRequest::new(
            KernelSpec::Source { source, name: None },
            opts.mapper.clone(),
        ));
    }
    for name in &opts.named {
        queue.push(MapRequest::new(
            KernelSpec::Named(name.clone()),
            opts.mapper.clone(),
        ));
    }
    if queue.is_empty() {
        return Err(CliError::usage(
            "no kernels: pass .mc files, --kernels-dir, or --named",
        ));
    }
    for (i, req) in queue.iter_mut().enumerate() {
        req.id = i as u64 + 1;
        if let Some(ms) = opts.time_limit {
            req.config.time_limit_ms = ms;
        }
        if let Some(seed) = opts.seed {
            req.config.seed = seed;
        }
    }
    Ok(queue)
}

fn fresh_service(cores: usize) -> MapService {
    MapService::with_options(ServiceOptions {
        cores,
        ..ServiceOptions::default()
    })
}

fn print_fleet_tables(report: &FleetReport) {
    println!(
        "fleet: {} jobs on {} fabrics, makespan {:.1} ms (sum of walls {:.1} ms), {} failed",
        report.scheduled,
        report.fabrics.len(),
        report.makespan_ms,
        report.sum_ms,
        report.failed
    );
    println!("\n  fabric             jobs   busy ms    util   mean fu");
    for f in &report.fabrics {
        println!(
            "  {:<18} {:>4} {:>9.1} {:>6.1}% {:>8.2}",
            f.name,
            f.jobs,
            f.busy_ms,
            f.utilization * 100.0,
            f.mean_fu
        );
    }
    println!("\n  # kernel             fabric             slot  wall ms  II  cache    warm");
    for j in &report.jobs {
        println!(
            "  {} {:<18} {:<18} {:>4} {:>8.1} {:>3} {:<8} {}",
            j.queue_index,
            j.kernel,
            j.fabric,
            j.slot,
            j.wall_ms,
            j.ii.map(|ii| ii.to_string()).unwrap_or("-".into()),
            j.cache.label(),
            if j.warm { "yes" } else { "" },
        );
    }
    for j in report.jobs.iter().filter(|j| j.error.is_some()) {
        println!(
            "  job {} ({}) failed: {}",
            j.queue_index,
            j.kernel,
            j.error.as_deref().unwrap_or("")
        );
    }
}

fn co_map_to_value(report: &CoMapReport) -> Value {
    Value::Object(vec![
        ("mode".into(), Value::Str("co-map".into())),
        (
            "fabric".into(),
            Value::Str(fleet::fabric_label(&report.fabric)),
        ),
        ("waves".into(), Value::UInt(report.waves as u64)),
        ("merges".into(), Value::UInt(report.merges as u64)),
        ("wall_ms".into(), Value::Float(report.wall_ms)),
        (
            "jobs".into(),
            Value::Array(
                report
                    .jobs
                    .iter()
                    .map(|j| {
                        let partition = match &j.partition {
                            Some(p) => Value::Object(vec![
                                ("row0".into(), Value::UInt(p.row0 as u64)),
                                ("col0".into(), Value::UInt(p.col0 as u64)),
                                ("rows".into(), Value::UInt(p.spec.rows as u64)),
                                ("cols".into(), Value::UInt(p.spec.cols as u64)),
                            ]),
                            None => Value::Null,
                        };
                        Value::Object(vec![
                            ("kernel".into(), Value::Str(j.outcome.kernel.clone())),
                            ("wave".into(), Value::UInt(j.wave as u64)),
                            ("partition".into(), partition),
                            (
                                "ii".into(),
                                match j.outcome.ii() {
                                    Some(ii) => Value::UInt(ii as u64),
                                    None => Value::Null,
                                },
                            ),
                            (
                                "error".into(),
                                match &j.outcome.error {
                                    Some(e) => Value::Str(e.to_string()),
                                    None => Value::Null,
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_co_map(queue: &[MapRequest], farm: &[FleetFabric], opts: &Options) -> Result<(), CliError> {
    let fabric = farm[0].spec;
    let report = fleet::co_map(queue, &fabric).map_err(|e| CliError::from(e.0))?;
    let failed = report
        .jobs
        .iter()
        .filter(|j| j.outcome.error.is_some())
        .count();
    if opts.json {
        println!("{}", co_map_to_value(&report).render());
    } else {
        println!(
            "co-map: {} kernels on {} in {} wave(s), {} merge retr{}, {:.1} ms",
            report.jobs.len(),
            fleet::fabric_label(&report.fabric),
            report.waves,
            report.merges,
            if report.merges == 1 { "y" } else { "ies" },
            report.wall_ms
        );
        println!("\n  kernel             wave  partition        II");
        for j in &report.jobs {
            let part = match &j.partition {
                Some(p) => format!("{}x{}@({},{})", p.spec.rows, p.spec.cols, p.row0, p.col0),
                None => "full fabric".into(),
            };
            println!(
                "  {:<18} {:>4}  {:<15} {:>3}",
                j.outcome.kernel,
                j.wave,
                part,
                j.outcome
                    .ii()
                    .map(|ii| ii.to_string())
                    .unwrap_or("-".into()),
            );
        }
        for j in report.jobs.iter().filter(|j| j.outcome.error.is_some()) {
            println!(
                "  {} failed: {}",
                j.outcome.kernel,
                j.outcome.error.as_ref().unwrap()
            );
        }
    }
    if failed > 0 {
        return Err(CliError {
            msg: format!("{failed} kernel(s) failed to map"),
            code: EXIT_FAILURE,
        });
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(opts) = parse_args(args)? else {
        return Ok(());
    };
    let farm: Vec<FleetFabric> = opts
        .fabrics
        .split(',')
        .map(|s| FleetFabric::parse(s.trim()).map_err(|e| CliError::usage(e.0)))
        .collect::<Result<_, _>>()?;
    if farm.is_empty() {
        return Err(CliError::usage("--fabrics needs at least one spec"));
    }
    let queue = build_queue(&opts)?;

    if opts.co_map {
        return run_co_map(&queue, &farm, &opts);
    }

    // Baseline: the whole queue, one at a time, on the first fabric,
    // against a fresh service so no cache state leaks between runs.
    let baseline = if opts.baseline {
        let service = fresh_service(1);
        Some(fleet::run_sequential(&queue, &farm[0], &service).map_err(|e| CliError::from(e.0))?)
    } else {
        None
    };

    // The fleet run proper: plan, then one worker per fabric.
    let service = fresh_service(farm.len().max(2));
    let plan = fleet::plan(&queue, &farm, Some(&service)).map_err(|e| CliError::from(e.0))?;
    let report = fleet::run(&queue, &farm, &plan, &service);

    let speedup = baseline
        .as_ref()
        .filter(|_| report.makespan_ms > 0.0)
        .map(|b| b.makespan_ms / report.makespan_ms);

    if opts.json {
        let mut obj = match report.to_value() {
            Value::Object(pairs) => pairs,
            _ => unreachable!("fleet report renders as an object"),
        };
        obj.push(("mode".into(), Value::Str("fleet".into())));
        obj.push(("kernels".into(), Value::UInt(queue.len() as u64)));
        if let Some(b) = &baseline {
            obj.push(("baseline_ms".into(), Value::Float(b.makespan_ms)));
        }
        if let Some(s) = speedup {
            obj.push(("speedup".into(), Value::Float(s)));
        }
        println!("{}", Value::Object(obj).render());
    } else {
        print_fleet_tables(&report);
        if let (Some(b), Some(s)) = (&baseline, speedup) {
            println!(
                "\nbaseline (sequential on {}): {:.1} ms -> fleet speedup {:.2}x",
                farm[0].name, b.makespan_ms, s
            );
        }
    }

    if report.failed > 0 {
        return Err(CliError {
            msg: format!("{} job(s) failed to map", report.failed),
            code: EXIT_FAILURE,
        });
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cgra-fleet: {}", e.msg);
            if e.code == EXIT_USAGE {
                eprintln!("\n{USAGE}");
            }
            ExitCode::from(e.code)
        }
    }
}
