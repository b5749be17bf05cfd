//! `cgra-benchmark`: one end-to-end + per-layer benchmark for the
//! mapping pipeline and the `cgra-serve` daemon. See `README.md`;
//! `run.sh` is the entry point.
//!
//! ```text
//! cgra-benchmark run --workload W --seed N --seconds S --trace 0|1 [--scratch DIR]
//! cgra-benchmark suite [--seed N] [--seconds S] [--out FILE] [--scratch DIR]
//! cgra-benchmark compare A.json B.json
//! cgra-benchmark manifest
//! ```

mod catalog;
mod compare;
mod gen;
mod layers;
mod oracle;
mod pin;
mod span;
mod stats;
mod workloads;

use compare::{Results, Row};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Args, Report};

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or(format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("bad --{name} `{v}`")),
            None => Ok(default),
        }
    }

    fn scratch(&self) -> PathBuf {
        PathBuf::from(self.get("scratch").unwrap_or("benchmark/out"))
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = catalog::find(name).map_or("", |m| m.unit);
            (
                name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Float(*value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(report.correct())),
        ("attempted".into(), Value::UInt(report.attempted.max(1))),
        ("failed".into(), Value::UInt(report.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
    .render()
}

fn run(flags: &Flags) -> Result<(), String> {
    let workload = flags.get("workload").ok_or("run needs --workload")?;
    if !catalog::is_workload(workload) {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("unknown workload `{workload}`; one of {names:?}"));
    }
    let args = Args {
        workload: workload.to_string(),
        seed: flags.number("seed", 1)?,
        seconds: flags.number("seconds", catalog::RUN_SECONDS as f64)?,
        trace: flags.number::<u8>("trace", 0)? != 0,
        scratch: flags.scratch(),
    };
    match pin::pin_to_one_cpu() {
        Some(cpu) => eprintln!("{}: pinned to cpu {cpu}", args.workload),
        None => eprintln!(
            "{}: not pinned to one cpu; expect noisier timings",
            args.workload
        ),
    }
    let report = if args.trace {
        layers::traced(&args)?
    } else {
        workloads::end_to_end(&args)?
    };
    for p in &report.problems {
        eprintln!("FAILED {}: {p}", args.workload);
    }
    println!("{}", result_line(&report));
    Ok(())
}

/// One child run of this same binary; its last stdout line parsed.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &std::path::Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--scratch")
        .arg(scratch)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no result line"))?;
    serde_json::from_str(line).map_err(|e| format!("{workload}: {e}"))
}

/// Rounds of the suite; each metric is the median of its round values.
const ROUNDS: usize = 3;

/// Every workload round-robin for [`ROUNDS`] rounds with tracing off
/// (each in its own process, so set-up time and peak RSS are its own;
/// interleaved, so slow drift of a shared box hits all alike), then
/// one traced pass each. Prints `name workload value unit`.
fn suite(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.number("seed", 1)?;
    let seconds: f64 = flags.number("seconds", catalog::RUN_SECONDS as f64)?;
    let scratch = flags.scratch();
    let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.0).collect();

    // values[workload][metric] = one entry per round.
    let mut values: Vec<Vec<(String, Vec<f64>)>> = vec![Vec::new(); names.len()];
    let mut ops: Vec<(String, u64, u64)> = names.iter().map(|w| (w.to_string(), 0, 0)).collect();
    let mut record = |wi: usize, v: &Value| {
        ops[wi].1 += v.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        ops[wi].2 += v.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Object(metrics)) = v.get("metrics") {
            for (name, m) in metrics {
                let x = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                match values[wi].iter_mut().find(|(n, _)| n == name) {
                    Some((_, xs)) => xs.push(x),
                    None => values[wi].push((name.clone(), vec![x])),
                }
            }
        }
    };
    for round in 1..=ROUNDS {
        for (wi, w) in names.iter().enumerate() {
            eprintln!("round {round}/{ROUNDS}: {w}");
            record(wi, &child_run(w, seed, seconds, false, &scratch)?);
        }
    }
    for (wi, w) in names.iter().enumerate() {
        eprintln!("traced pass: {w}");
        record(wi, &child_run(w, seed, seconds, true, &scratch)?);
    }

    let mut results = Results {
        seed,
        seconds,
        rows: Vec::new(),
        ops,
    };
    for (wi, w) in names.iter().enumerate() {
        for (name, xs) in &values[wi] {
            let (value, spread) = stats::median_of_rounds(xs);
            results.rows.push(Row {
                name: name.clone(),
                workload: w.to_string(),
                value,
                spread,
                rounds: xs.clone(),
            });
        }
    }
    for r in &results.rows {
        let unit = catalog::find(&r.name).map_or("", |m| m.unit);
        let spread = if r.rounds.len() > 1 {
            format!("  spread {:.1}% of {}", r.spread * 100.0, r.rounds.len())
        } else {
            String::new()
        };
        println!("{} {} {} {}{}", r.name, r.workload, r.value, unit, spread);
    }
    let mut failed = false;
    for (w, attempted, bad) in &results.ops {
        println!("ops {w} {attempted} count");
        println!("ops_failed {w} {bad} count");
        failed |= *bad > 0;
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(path, results.to_json().render_pretty(2) + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(!failed)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv
        .split_first()
        .ok_or("usage: cgra-benchmark run|suite|compare|manifest")?;
    match cmd.as_str() {
        "run" => run(&Flags::parse(rest)?).map(|()| true),
        "suite" => suite(&Flags::parse(rest)?),
        "compare" => {
            let [a, b] = rest else {
                return Err("usage: cgra-benchmark compare A.json B.json".into());
            };
            let (text, worse) = compare::compare(&Results::load(a)?, &Results::load(b)?);
            print!("{text}");
            Ok(!worse)
        }
        "manifest" => {
            println!("{}", catalog::manifest().render_pretty(2));
            Ok(true)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cgra-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
