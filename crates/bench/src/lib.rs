//! Shared helpers for the experiment drivers (`src/bin/*`).
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
//! workspace).

use serde::Serialize;
use std::path::{Path, PathBuf};

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

/// Quick/full switch: experiment drivers honour `CGRA_QUICK=1` to keep
/// CI fast; the full runs are the defaults.
pub fn quick() -> bool {
    std::env::var("CGRA_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_json_in_writes_the_named_file() {
        let dir = std::env::temp_dir().join(format!("cgra-save-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let value = serde_json::from_str(r#"{"schema": "test"}"#).unwrap();
        save_json_in(&dir, "run", &value);
        let saved = std::fs::read_to_string(dir.join("run.json"));
        let _ = std::fs::remove_dir_all(&dir);
        let saved: serde_json::Value = serde_json::from_str(&saved.unwrap()).unwrap();
        assert_eq!(saved.get("schema").and_then(|v| v.as_str()), Some("test"));
    }
}
