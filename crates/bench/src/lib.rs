//! Shared helpers for the experiment drivers (`src/bin/*`) and the
//! Criterion benches (`benches/*`).
//!
//! Each driver regenerates one artifact of the survey:
//!
//! | binary        | artifact |
//! |---------------|----------|
//! | `table1`      | Table I — taxonomy + empirical success/II/time per technique |
//! | `fig1`        | Figure 1 — flexibility/performance/energy-efficiency comparison |
//! | `fig2`        | Figure 2 — the minimal CGRA and its configuration register |
//! | `fig3`        | Figure 3 — the compilation flow on the dot-product example |
//! | `fig4`        | Figure 4 — publications-per-year timeline |
//! | `scalability` | §IV-B — hierarchical vs flat mapping as fabrics grow |
//! | `ablations`   | DESIGN.md §4 — router, II search, cooling, SAT encoding, predication, hw loops, banking |
//!
//! Wall-clock numbers are compared in one place, `benchmark/` (its own
//! workspace). The `bench_fleet` bin here covers what it does not, the
//! fleet scheduler, and ends in [`gate`].

use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where experiment outputs (JSON artifacts) land.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("CGRA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Persist a JSON artifact alongside the printed report.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    save_json_in(&results_dir(), name, value)
}

fn save_json_in<T: Serialize>(dir: &Path, name: &str, value: &T) {
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(saved {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialise {name}: {e}"),
    }
}

/// A gated metric may fall to this fraction of its golden value.
const FLOOR: f64 = 0.75;

/// The tail of a gated bench bin: save `summary` as `<name>.json` in
/// the results dir, then, if the command line says `--check GOLDEN`,
/// hold this run to that file — every `floors` metric at no less than
/// 0.75x the golden's top-level field of the same name, every `exact`
/// metric equal to it. Returns the process exit code: 0 when saved and
/// (if asked) every gate held, 1 when a gate failed or the golden lacks
/// a gated metric, 2 for a command line other than `[--check GOLDEN]`.
///
/// A golden is a saved summary: re-record one by copying
/// `results/<name>.json` over it.
pub fn gate<S: Serialize>(
    name: &str,
    summary: &S,
    floors: &[(&str, f64)],
    exact: &[(&str, f64)],
) -> ExitCode {
    let code = gate_with(
        std::env::args(),
        &results_dir(),
        name,
        summary,
        floors,
        exact,
    );
    ExitCode::from(code)
}

fn gate_with<S: Serialize>(
    mut args: impl Iterator<Item = String>,
    dir: &Path,
    name: &str,
    summary: &S,
    floors: &[(&str, f64)],
    exact: &[(&str, f64)],
) -> u8 {
    let bin = args.next().unwrap_or_default();
    let golden = match (args.next().as_deref(), args.next(), args.next()) {
        (None, ..) => None,
        (Some("--check"), Some(file), None) => Some(file),
        _ => {
            eprintln!("usage: {bin} [--check GOLDEN.json]");
            return 2;
        }
    };
    save_json_in(dir, name, summary);
    let Some(golden) = golden else { return 0 };
    match check(&golden, floors, exact) {
        Ok(()) => {
            println!("\nperf gate: ok");
            0
        }
        Err(why) => {
            eprintln!("\nperf gate FAILED:\n{why}");
            1
        }
    }
}

fn check(golden: &str, floors: &[(&str, f64)], exact: &[(&str, f64)]) -> Result<(), String> {
    let text =
        std::fs::read_to_string(golden).map_err(|e| format!("cannot read golden {golden}: {e}"))?;
    let golden = serde_json::from_str(&text).map_err(|e| format!("bad golden JSON: {e}"))?;
    let mut failures = Vec::new();
    for (gated, equal) in [(floors, false), (exact, true)] {
        for &(metric, value) in gated {
            let Some(gold) = golden.get(metric).and_then(|v| v.as_f64()) else {
                failures.push(format!("golden without `{metric}`"));
                continue;
            };
            // Both comparisons are false for a NaN, so a NaN fails.
            let (ok, want) = if equal {
                (value == gold, format!("exactly {gold:.3}"))
            } else {
                let floor = gold * FLOOR;
                (
                    value >= floor,
                    format!("at least {floor:.3} ({FLOOR} x golden {gold:.3})"),
                )
            };
            if ok {
                eprintln!("  gate ok: {metric} {value:.3}, want {want}");
            } else {
                failures.push(format!("{metric}: {value:.3}, want {want}"));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Quick/full switch: experiment drivers honour `CGRA_QUICK=1` to keep
/// CI fast; the full runs are the defaults.
pub fn quick() -> bool {
    std::env::var("CGRA_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The deliberately mediocre placement of the telemetry router bench:
/// PEs strided across the fabric, ASAP times stretched just far enough
/// that every intra-iteration edge has as many cycles as hops — the
/// router settles anything less from the hop table, without routing —
/// so negotiation has real work.
pub fn strided_placement(
    dfg: &cgra_ir::Dfg,
    fabric: &cgra_arch::Fabric,
) -> Vec<cgra::mapper::mapping::Placement> {
    let topo = cgra_arch::TopologyCache::build(fabric);
    let times = cgra_ir::graph::asap(dfg, &cgra_ir::graph::unit_latency);
    let pe = |n: cgra_ir::NodeId| cgra_arch::PeId((n.0 * 5 % fabric.num_pes() as u32) as u16);
    let stretch = dfg
        .edges()
        .filter(|(_, e)| e.dist == 0)
        .map(|(_, e)| {
            let cycles_needed = topo.hops(pe(e.src), pe(e.dst)) + fabric.latency_of(dfg.op(e.src));
            cycles_needed.div_ceil(times[e.dst.index()] - times[e.src.index()])
        })
        .max()
        .unwrap_or(1);
    dfg.node_ids()
        .map(|n| cgra::mapper::mapping::Placement {
            pe: pe(n),
            time: times[n.index()] * stretch,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results dir of its own, holding a `golden.json` with
    /// `speed` 8 and `plan` 115.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(test: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("cgra-gate-{}-{test}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("golden.json"), r#"{"speed": 8.0, "plan": 115.0}"#).unwrap();
            Scratch(dir)
        }

        fn golden(&self) -> String {
            self.0.join("golden.json").display().to_string()
        }

        /// Exit code of a bin ending in `gate("run", ..)`, started as
        /// `bench_x <args>`.
        fn run(&self, args: &[&str], floors: &[(&str, f64)], exact: &[(&str, f64)]) -> u8 {
            let summary = serde_json::from_str(r#"{"schema": "test"}"#).unwrap();
            let args = ["bench_x"].iter().chain(args).map(|a| a.to_string());
            gate_with(args, &self.0, "run", &summary, floors, exact)
        }

        fn check(&self, floors: &[(&str, f64)], exact: &[(&str, f64)]) -> u8 {
            self.run(&["--check", &self.golden()], floors, exact)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn floor_is_exactly_three_quarters_of_the_golden() {
        let s = Scratch::new("floor");
        assert_eq!(s.check(&[("speed", 6.0)], &[]), 0);
        assert_eq!(s.check(&[("speed", 5.999)], &[]), 1);
        assert_eq!(s.check(&[("speed", f64::NAN)], &[]), 1);
        // The report names the metric that fell, and only that one.
        let why = check(&s.golden(), &[("speed", 5.999), ("plan", 500.0)], &[]).unwrap_err();
        assert!(
            why.starts_with("speed: 5.999, want at least 6.000") && !why.contains("plan"),
            "{why}"
        );
    }

    #[test]
    fn exact_metrics_must_equal_the_golden() {
        let s = Scratch::new("exact");
        assert_eq!(s.check(&[], &[("plan", 115.0)]), 0);
        assert_eq!(s.check(&[], &[("plan", 116.0)]), 1);
        assert_eq!(s.check(&[], &[("plan", 114.0)]), 1);
    }

    #[test]
    fn a_metric_the_golden_lacks_is_a_failure_not_a_pass() {
        let s = Scratch::new("missing");
        assert_eq!(s.check(&[("speedup", 100.0)], &[]), 1);
        assert_eq!(s.check(&[], &[("speedup", 100.0)]), 1);
        let why = check(&s.golden(), &[("speedup", 100.0)], &[]).unwrap_err();
        assert_eq!(why, "golden without `speedup`");
        assert_eq!(s.run(&["--check", "/nonexistent.json"], &[], &[]), 1);
    }

    #[test]
    fn bad_command_lines_exit_2_without_saving() {
        let s = Scratch::new("usage");
        let golden = s.golden();
        for args in [
            &["--chekc"][..],
            &["--check"],
            &["--check", &golden, "extra"],
        ] {
            assert_eq!(s.run(args, &[], &[]), 2, "{args:?}");
        }
        assert!(!s.0.join("run.json").exists());
    }

    #[test]
    fn without_check_the_summary_is_saved_and_nothing_is_gated() {
        let s = Scratch::new("save");
        assert_eq!(s.run(&[], &[("speedup", 0.0)], &[("plan", 0.0)]), 0);
        let saved = std::fs::read_to_string(s.0.join("run.json")).unwrap();
        let saved = serde_json::from_str(&saved).unwrap();
        assert_eq!(saved.get("schema").and_then(|v| v.as_str()), Some("test"));
    }
}
