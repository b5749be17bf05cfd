//! Experiment: **Table I** — the survey's classification of mapping
//! techniques, regenerated twice:
//!
//! 1. *Taxonomically*, from the bibliographic corpus (`cgra-survey`):
//!    the exact cells of the published table.
//! 2. *Empirically*, by running every implemented technique family on
//!    the classic kernel suite and reporting success rate, achieved
//!    II, and compile time — the quantitative form of the survey's
//!    qualitative claims.
//!
//! ```sh
//! cargo run --release -p cgra-bench --bin table1
//! cargo run --release -p cgra-bench --bin table1 -- \
//!     --report reports/ --kernels dot_product,fir4 --mappers modulo-list,sa
//! ```
//!
//! With `--report DIR`, each (mapper, kernel) cell's [`MapOutcome`] is
//! written as one JSON file — the input format of `cgra-report`, which
//! renders convergence tables and gates CI on regressions against a
//! baseline directory.

use cgra::mapper::portfolio::run_requests;
use cgra::mapper::request::{FabricSpec, KernelSpec, MapRequest};
use cgra::prelude::*;
use cgra_bench::{quick, save_json};

struct Options {
    /// Write one outcome file per (mapper, kernel) cell into this dir.
    report: Option<String>,
    /// Restrict the kernel suite to these names (comma-separated).
    kernels: Option<Vec<String>>,
    /// Restrict the mapper zoo to these names (comma-separated).
    mappers: Option<Vec<String>>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        report: None,
        kernels: None,
        mappers: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        let list = |v: String| v.split(',').map(|s| s.trim().to_string()).collect();
        match a.as_str() {
            "--report" => opts.report = Some(need("--report")?),
            "--kernels" => opts.kernels = Some(list(need("--kernels")?)),
            "--mappers" => opts.mappers = Some(list(need("--mappers")?)),
            other => {
                return Err(format!(
                    "unknown option `{other}`\nusage: table1 [--report DIR] [--kernels a,b] [--mappers x,y]"
                ))
            }
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    // Part 1: the published table from the corpus.
    println!("{}", survey::render_table1());

    // Part 2: the empirical counterpart, phrased as the same
    // MapRequest objects the serve cache is keyed on: one request per
    // (mapper, kernel) cell, executed in parallel; the outcomes are the
    // table's rows.
    let fabric_spec = FabricSpec::default(); // homogeneous 4x4 mesh
    let fabric = fabric_spec.build().expect("default fabric builds");
    let mut kernels = kernels::suite();
    if let Some(keep) = &opts.kernels {
        kernels.retain(|k| keep.iter().any(|n| n == &k.name));
        if kernels.is_empty() {
            eprintln!("--kernels matched nothing in the suite");
            std::process::exit(2);
        }
    }
    let mut mappers: Vec<String> = MapperRegistry::standard()
        .names()
        .iter()
        .map(|n| n.to_string())
        .collect();
    if let Some(keep) = &opts.mappers {
        mappers.retain(|m| keep.iter().any(|n| n == m));
        if mappers.is_empty() {
            eprintln!("--mappers matched nothing in the registry");
            std::process::exit(2);
        }
    }
    eprintln!(
        "running {} mappers x {} kernels on {} ...",
        mappers.len(),
        kernels.len(),
        fabric.name
    );
    let mut requests = Vec::new();
    for (i, (m, k)) in mappers
        .iter()
        .flat_map(|m| kernels.iter().map(move |k| (m, k)))
        .enumerate()
    {
        let mut req = MapRequest::new(KernelSpec::Named(k.name.clone()), m.clone());
        req.id = i as u64 + 1;
        req.fabric = fabric_spec;
        req.config.time_limit_ms = if quick() { 3_000 } else { 15_000 };
        requests.push(req);
    }
    let entries = run_requests(&requests);
    let summary = cgra::mapper::portfolio::summarise(&entries);

    if let Some(dir) = &opts.report {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("{}: {e}", dir.display());
            std::process::exit(1);
        }
        for e in &entries {
            let path = dir.join(format!("{}.json", e.file_stem()));
            if let Err(err) = e.save(&path) {
                eprintln!("{}: {err}", path.display());
                std::process::exit(1);
            }
        }
        eprintln!("wrote {} run reports to {}", entries.len(), dir.display());
    }

    println!(
        "\nEMPIRICAL TABLE I — {} kernels on {}",
        kernels.len(),
        fabric.name
    );
    println!(
        "{:<16} {:<28} {:>9} {:>9} {:>11} {:>10} {:>12} {:>12}",
        "mapper",
        "family",
        "success",
        "mean II",
        "ms/kernel",
        "IIs tried",
        "placements",
        "backtracks"
    );
    println!("{}", "-".repeat(116));
    let eff = |x: Option<f64>| x.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into());
    for s in &summary {
        println!(
            "{:<16} {:<28} {:>6}/{:<2} {:>9} {:>11.1} {:>10} {:>12} {:>12}",
            s.mapper,
            s.family_label,
            s.successes,
            s.attempts,
            s.mean_ii
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            s.mean_compile_ms,
            eff(s.mean_ii_attempts),
            eff(s.mean_placements),
            eff(s.mean_backtracks),
        );
    }

    // The shape claims of the survey, checked.
    let mean = |pred: &dyn Fn(&cgra::mapper::portfolio::MapperSummary) -> bool,
                f: &dyn Fn(&cgra::mapper::portfolio::MapperSummary) -> f64|
     -> f64 {
        let xs: Vec<f64> = summary.iter().filter(|s| pred(s)).map(f).collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let heuristic_ms = mean(&|s| !s.exact && !s.spatial, &|s| s.mean_compile_ms);
    let exact_ms = mean(&|s| s.exact, &|s| s.mean_compile_ms);
    println!("\nshape checks (survey claims):");
    println!(
        "  heuristics faster than exact methods: {:.1} ms vs {:.1} ms -> {}",
        heuristic_ms,
        exact_ms,
        if heuristic_ms < exact_ms {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    let any_heuristic_failure = entries.iter().any(|e| !e.exact && !e.succeeded());
    println!(
        "  heuristic mapping may fail (survey: 'mapping might fail'): {}",
        if any_heuristic_failure {
            "observed"
        } else {
            "not observed on this suite"
        }
    );

    save_json("table1_entries", &entries);
    save_json("table1_summary", &summary);
}
