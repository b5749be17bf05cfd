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

use serde::Serialize;
use std::path::PathBuf;

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
    let path = results_dir().join(format!("{name}.json"));
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

/// The deliberately mediocre placement of the router benches: PEs
/// strided across the fabric, ASAP times stretched just far enough that
/// every intra-iteration edge has as many cycles as hops — the router
/// settles anything less from the hop table, without routing — so
/// negotiation has real work.
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

/// Input-stream count of a DFG (for tape generation).
pub fn stream_count(dfg: &cgra_ir::Dfg) -> usize {
    dfg.nodes()
        .filter_map(|(_, n)| match n.op {
            cgra_ir::OpKind::Input(s) => Some(s as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn stream_count_works() {
        let dfg = cgra_ir::kernels::dot_product();
        assert_eq!(super::stream_count(&dfg), 2);
    }
}
