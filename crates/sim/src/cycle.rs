//! Cycle-accurate execution of a mapped loop.
//!
//! The simulator executes the software-pipelined schedule exactly as
//! the fabric would: iteration `i` of operation `n` issues at absolute
//! cycle `time(n) + i·II`; operand values are read through the mapped
//! routes (iteration `i − dist` of the producer); stream I/O and data
//! memory behave as in the reference interpreter. The run is verified
//! by comparing every output stream against
//! [`cgra_ir::Interpreter`] — the end-to-end check that a mapping is
//! not merely structurally valid but *functionally correct*.
//!
//! Within one cycle, memory operations execute in deterministic
//! (cycle, PE-index) order. Kernels whose cross-iteration memory
//! aliasing depends on intra-iteration program order beyond their
//! dependence edges are rejected by comparison against the interpreter
//! rather than silently mis-simulated.

use cgra_arch::Fabric;
use cgra_ir::interp::Tape;
use cgra_ir::{Dfg, NodeId, OpKind, Value};
use cgra_mapper_core::Mapping;
use serde::Serialize;
use std::collections::HashMap;

/// Execution statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimStats {
    pub iterations: usize,
    /// Total cycles: pipeline fill + (iters − 1)·II + drain.
    pub cycles: u64,
    /// Iterations per cycle in steady state.
    pub throughput: f64,
    /// Issue slots used / issue slots available over the whole run.
    pub utilisation: f64,
    /// Output streams, `outputs[stream][iteration]`.
    pub outputs: Vec<Vec<Value>>,
    /// Final memory image.
    pub memory: Vec<Value>,
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The mapping failed validation first.
    Invalid(String),
    /// An input stream ran dry.
    MissingInput { stream: u32, iteration: usize },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Invalid(e) => write!(f, "invalid mapping: {e}"),
            SimError::MissingInput { stream, iteration } => {
                write!(f, "input {stream} dry at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Execute `iters` iterations of a mapped loop.
pub fn simulate(
    mapping: &Mapping,
    dfg: &Dfg,
    fabric: &Fabric,
    iters: usize,
    tape: &Tape,
) -> Result<SimStats, SimError> {
    cgra_mapper_core::validate(mapping, dfg, fabric)
        .map_err(|e| SimError::Invalid(e.to_string()))?;

    // Event list: (cycle, pe-index for determinism, node, iteration).
    let mut events: Vec<(u64, u16, NodeId, usize)> = Vec::with_capacity(dfg.node_count() * iters);
    for (id, _) in dfg.nodes() {
        let p = mapping.placement(id);
        for i in 0..iters {
            events.push((p.time as u64 + i as u64 * mapping.ii as u64, p.pe.0, id, i));
        }
    }
    events.sort_unstable();

    let out_streams = dfg
        .node_ids()
        .filter_map(|id| match dfg.op(id) {
            OpKind::Output(s) => Some(s as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut outputs: Vec<Vec<Value>> = vec![vec![0; iters]; out_streams];
    let mut memory = tape.memory.clone();
    // Computed values: (node, iteration) → value. Kept for the whole
    // run: events are ordered by cycle, not iteration, so operations
    // deep in the pipeline still read old iterations late.
    let mut values: HashMap<(u32, usize), Value> = HashMap::new();

    let mut last_cycle = 0u64;
    for &(cycle, _, id, iter) in &events {
        last_cycle = last_cycle.max(cycle + fabric.latency_of(dfg.op(id)) as u64);
        let op = dfg.op(id);
        let arity = op.ports().count();
        let mut operands = [0 as Value; 3];
        for p in 0..arity as u8 {
            let (_, e) = dfg.operand(id, p).expect("validated");
            operands[p as usize] = if (iter as u64) < e.dist as u64 {
                e.init[iter]
            } else {
                *values
                    .get(&(e.src.0, iter - e.dist as usize))
                    .expect("producer executed earlier (validated schedule)")
            };
        }
        let operands = &operands[..arity];
        let v = match op {
            OpKind::Input(s) => *tape
                .inputs
                .get(s as usize)
                .and_then(|st| st.get(iter))
                .ok_or(SimError::MissingInput {
                    stream: s,
                    iteration: iter,
                })?,
            OpKind::Output(s) => {
                outputs[s as usize][iter] = operands[0];
                operands[0]
            }
            OpKind::Load => {
                let len = memory.len().max(1) as Value;
                let addr = operands[0].rem_euclid(len) as usize;
                memory.get(addr).copied().unwrap_or(0)
            }
            OpKind::Store => {
                let len = memory.len().max(1) as Value;
                let addr = operands[0].rem_euclid(len) as usize;
                if addr < memory.len() {
                    memory[addr] = operands[1];
                }
                operands[1]
            }
            other => other.eval(operands),
        };
        values.insert((id.0, iter), v);
    }

    let issue_slots = last_cycle.max(1) * fabric.num_pes() as u64;
    Ok(SimStats {
        iterations: iters,
        cycles: last_cycle,
        throughput: if last_cycle == 0 {
            0.0
        } else {
            iters as f64 / last_cycle as f64
        },
        utilisation: (dfg.node_count() * iters) as f64 / issue_slots as f64,
        outputs,
        memory,
    })
}

/// Simulate and verify against the reference interpreter; returns the
/// stats if and only if every output stream and the final memory match.
pub fn simulate_verified(
    mapping: &Mapping,
    dfg: &Dfg,
    fabric: &Fabric,
    iters: usize,
    tape: &Tape,
) -> Result<SimStats, String> {
    let stats = simulate(mapping, dfg, fabric, iters, tape).map_err(|e| e.to_string())?;
    let golden = cgra_ir::Interpreter::run(dfg, iters, tape).map_err(|e| e.to_string())?;
    if stats.outputs != golden.outputs {
        return Err(format!(
            "output mismatch: mapped {:?} vs golden {:?}",
            stats.outputs, golden.outputs
        ));
    }
    if stats.memory != golden.memory {
        return Err("memory image mismatch".into());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_ir::kernels;
    use cgra_mapper_core::prelude::*;

    fn mesh() -> Fabric {
        Fabric::homogeneous(4, 4, Topology::Mesh)
    }

    #[test]
    fn simulated_dot_product_matches_interpreter() {
        let dfg = kernels::dot_product();
        let f = mesh();
        let m = ModuloList::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        let tape = Tape::generate(2, 8, |s, i| (s as i64 + 1) * (i as i64 + 1));
        let stats = simulate_verified(&m, &dfg, &f, 8, &tape).unwrap();
        assert_eq!(stats.iterations, 8);
        assert!(stats.cycles >= 8);
        assert!(stats.throughput > 0.0);
    }

    #[test]
    fn whole_suite_simulates_correctly_under_modulo_list() {
        let f = mesh();
        for dfg in kernels::suite() {
            let m = ModuloList::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            let streams = dfg
                .nodes()
                .filter_map(|(_, n)| match n.op {
                    cgra_ir::OpKind::Input(s) => Some(s as usize + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let tape = Tape::generate(streams, 6, |s, i| ((s + 2) * (i + 1)) as i64 % 53)
                .with_memory(vec![3; 128]);
            simulate_verified(&m, &dfg, &f, 6, &tape)
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn pipelining_shows_in_cycle_count() {
        // At II=1, N iterations take ~N + depth cycles, far below N x len.
        let dfg = kernels::accumulate();
        let f = mesh();
        let m = ModuloList::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        let iters = 64;
        let tape = Tape::generate(1, iters, |_, i| i as i64);
        let stats = simulate(&m, &dfg, &f, iters, &tape).unwrap();
        let serial_bound = iters as u64 * m.schedule_len(&dfg, &f) as u64;
        assert!(
            stats.cycles < serial_bound / 2,
            "no pipelining visible: {} vs serial {}",
            stats.cycles,
            serial_bound
        );
    }

    #[test]
    fn dry_input_reported() {
        let dfg = kernels::dot_product();
        let f = mesh();
        let m = ModuloList::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        let tape = Tape::generate(2, 3, |_, _| 1);
        let err = simulate(&m, &dfg, &f, 5, &tape).unwrap_err();
        assert!(matches!(err, SimError::MissingInput { .. }));
    }

    #[test]
    fn invalid_mapping_rejected() {
        let dfg = kernels::dot_product();
        let f = mesh();
        let m = Mapping::empty(&dfg, 1);
        let err = simulate(&m, &dfg, &f, 2, &Tape::generate(2, 2, |_, _| 1)).unwrap_err();
        assert!(matches!(err, SimError::Invalid(_)));
    }
}
