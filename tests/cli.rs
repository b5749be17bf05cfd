//! The `cgra-map` CLI end to end: compile a temp MiniC file, map it,
//! and check both the human and JSON reports.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cgra-map"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cgra-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const DOT: &str = "kernel dot(in a, in b, inout acc) { acc += a * b; }";

#[test]
fn maps_and_reports() {
    let path = write_temp("dot.mc", DOT);
    let out = bin()
        .arg(&path)
        .args(["--fabric", "4x4", "--mapper", "modulo-list", "--iters", "8"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("II="), "{stdout}");
    assert!(stdout.contains("functional check vs reference interpreter: OK"));
}

#[test]
fn json_report_parses() {
    let path = write_temp("dot2.mc", DOT);
    let out = bin()
        .arg(&path)
        .args(["--json", "--mapper", "epimap"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["mapper"], "epimap");
    assert!(v["metrics"]["ii"].as_u64().unwrap() >= 1);
    assert!(v["throughput"].as_f64().unwrap() > 0.0);
}

#[test]
fn list_mappers_covers_families() {
    let out = bin().arg("--list-mappers").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "modulo-list",
        "sa",
        "ga",
        "ilp",
        "sat",
        "smt",
        "cp",
        "himap",
    ] {
        assert!(stdout.contains(name), "{name} missing:\n{stdout}");
    }
}

#[test]
fn bad_input_fails_cleanly() {
    let path = write_temp("broken.mc", "kernel broken(in a { }");
    let out = bin().arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");

    let out = bin().arg("/nonexistent/file.mc").output().unwrap();
    assert!(!out.status.success());

    let path = write_temp("dot3.mc", DOT);
    let out = bin()
        .arg(&path)
        .args(["--mapper", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown mapper"));
}

#[test]
fn show_config_prints_contexts() {
    let path = write_temp("dot4.mc", DOT);
    let out = bin()
        .arg(&path)
        .args(["--show-config", "--fabric", "3x3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("configuration stream"), "{stdout}");
    assert!(stdout.contains("nop"));
}

#[test]
fn trace_is_line_delimited_json_with_all_phases() {
    let path = write_temp("dot5.mc", DOT);
    let trace = std::env::temp_dir().join("cgra-cli-tests/trace.jsonl");
    let out = bin()
        .arg(&path)
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&trace).unwrap();
    let mut phases = std::collections::HashSet::new();
    let mut counters_lines = 0;
    let mut meta_lines = 0;
    let mut ledger_lines = 0;
    for line in body.lines() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("invalid JSON line `{line}`: {e}"));
        match v["event"].as_str().unwrap() {
            "span" => {
                assert_eq!(meta_lines, 0, "span after the trailing meta line");
                phases.insert(v["phase"].as_str().unwrap().to_string());
                assert!(v["dur_us"].as_u64().is_some(), "{line}");
            }
            "counters" => {
                counters_lines += 1;
                assert!(v["counters"]["ii_attempts"].as_u64().unwrap() >= 1);
                assert!(v["counters"]["placements_tried"].as_u64().unwrap() >= 1);
            }
            "meta" => {
                meta_lines += 1;
                assert!(v["spans_dropped"].as_u64().is_some(), "{line}");
                assert!(v["events_dropped"].as_u64().is_some(), "{line}");
            }
            // Run-ledger events interleave with the spans.
            "ii_attempt" | "incumbent" | "race_start" | "race_win" | "race_loss"
            | "budget_exhausted" => {
                ledger_lines += 1;
                assert!(v["t_us"].as_u64().is_some(), "{line}");
            }
            other => panic!("unexpected event `{other}`"),
        }
    }
    for p in ["parse", "optimize", "map", "route", "validate", "simulate"] {
        assert!(
            phases.contains(p),
            "phase `{p}` missing from trace:\n{body}"
        );
    }
    assert_eq!(counters_lines, 1, "exactly one counters line expected");
    assert_eq!(meta_lines, 1, "exactly one meta line expected");
    assert!(
        ledger_lines >= 1,
        "ledger events missing from trace:\n{body}"
    );
    assert!(
        body.lines().last().unwrap().contains("\"meta\""),
        "meta must be the final line"
    );
}

#[test]
fn profile_reports_search_effort() {
    let path = write_temp("dot6.mc", DOT);
    let out = bin()
        .arg(&path)
        .args(["--mapper", "sa", "--profile", "--seed", "7"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("search profile:"), "{stdout}");
    assert!(stdout.contains("moves_proposed"), "{stdout}");
    assert!(stdout.contains("moves_accepted"), "{stdout}");
    for p in ["parse", "optimize", "map", "simulate"] {
        assert!(stdout.contains(p), "phase `{p}` missing:\n{stdout}");
    }
}

#[test]
fn budget_flags_flow_into_json_config() {
    let path = write_temp("dot7.mc", DOT);
    let out = bin()
        .arg(&path)
        .args(["--json", "--time-limit", "7", "--max-ii", "9"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["config"]["time_limit_secs"].as_f64().unwrap(), 7.0);
    assert_eq!(v["config"]["max_ii"].as_u64().unwrap(), 9);
    // The two knobs no mapper read are gone, flags and report keys both.
    assert!(v["config"].get("effort").is_none());
    let out = bin().arg(&path).args(["--effort", "33"]).output().unwrap();
    assert!(!out.status.success(), "--effort must be an unknown option");
    // Telemetry is off without --trace/--profile: stats serialise null.
    assert!(v["search_stats"].is_null());
}

#[test]
fn json_with_profile_includes_search_stats() {
    let path = write_temp("dot8.mc", DOT);
    let out = bin()
        .arg(&path)
        .args(["--json", "--profile"])
        .output()
        .unwrap();
    assert!(out.status.success());
    // The profile goes to stderr so stdout stays valid JSON.
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(v["search_stats"]["placements_tried"].as_u64().unwrap() >= 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("search profile:"), "{stderr}");
}
