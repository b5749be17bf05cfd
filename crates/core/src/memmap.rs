//! Data mapping (survey §III-C): multi-bank memory conflict analysis
//! under interleaved and block-cyclic data placement.
//!
//! The memory model matches the multi-bank scratchpads of the
//! memory-aware mapping literature (Kim et al. TODAES 2011, Yin et al.
//! TPDS 2017, Zhao et al. DATE 2018): `banks` single-ported banks, a
//! placement policy deciding which bank an address lives in, and a
//! stall for every extra same-cycle access to one bank.

use crate::mapping::Mapping;
use cgra_ir::interp::{Interpreter, Tape};
use cgra_ir::{Dfg, NodeId, OpKind, Value};
use serde::Serialize;
use std::collections::HashMap;

/// How addresses map to banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BankPolicy {
    /// `bank = addr % banks` — word interleaving.
    Interleaved,
    /// `bank = (addr / block) % banks` — block-cyclic.
    Blocked { block: u32 },
}

impl BankPolicy {
    #[inline]
    pub fn bank_of(self, addr: Value, banks: u32) -> u32 {
        let a = addr.rem_euclid(i64::MAX) as u64;
        match self {
            BankPolicy::Interleaved => (a % banks as u64) as u32,
            BankPolicy::Blocked { block } => ((a / block.max(1) as u64) % banks as u64) as u32,
        }
    }
}

/// Conflict analysis result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BankReport {
    pub policy: BankPolicy,
    pub banks: u32,
    /// Total stall cycles over the analysed iterations.
    pub stalls: u64,
    /// Effective initiation interval including stalls (steady state).
    pub effective_ii: f64,
}

/// Trace the addresses touched by every memory op over `iters`
/// iterations (via the reference interpreter).
pub fn memory_trace(
    dfg: &Dfg,
    iters: usize,
    tape: &Tape,
) -> Result<HashMap<NodeId, Vec<Value>>, cgra_ir::InterpError> {
    // Probe: add an Output per memory op's *address* operand source.
    let mut probe = dfg.clone();
    let mem_ops: Vec<NodeId> = dfg.node_ids().filter(|&n| dfg.op(n).is_memory()).collect();
    let mut stream = probe
        .node_ids()
        .filter_map(|id| match probe.op(id) {
            OpKind::Output(s) => Some(s + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut probe_streams = Vec::new();
    #[allow(clippy::explicit_counter_loop)] // `stream` continues past existing outputs
    for &m in &mem_ops {
        let addr_src = dfg.operand(m, 0).expect("validated").1.src;
        let o = probe.add_node(OpKind::Output(stream));
        probe.connect(addr_src, o, 0);
        probe_streams.push((m, stream as usize));
        stream += 1;
    }
    let r = Interpreter::run(&probe, iters, tape)?;
    Ok(probe_streams
        .into_iter()
        .map(|(m, s)| (m, r.outputs[s].clone()))
        .collect())
}

/// Analyse bank conflicts of a mapped kernel: memory ops sharing a
/// modulo slot that hit the same bank in the same iteration stall.
pub fn bank_conflicts(
    dfg: &Dfg,
    mapping: &Mapping,
    trace: &HashMap<NodeId, Vec<Value>>,
    banks: u32,
    policy: BankPolicy,
) -> BankReport {
    // Group memory ops by modulo slot.
    let mut by_slot: HashMap<u32, Vec<NodeId>> = HashMap::new();
    for n in dfg.node_ids() {
        if dfg.op(n).is_memory() {
            by_slot
                .entry(mapping.placement(n).time % mapping.ii)
                .or_default()
                .push(n);
        }
    }
    let iters = trace.values().map(|v| v.len()).min().unwrap_or(0);
    let mut stalls = 0u64;
    for ops in by_slot.values() {
        if ops.len() < 2 {
            continue;
        }
        #[allow(clippy::needless_range_loop)] // reads every op's trace at iteration `it`
        for it in 0..iters {
            let mut per_bank: HashMap<u32, u32> = HashMap::new();
            for &op in ops {
                let addr = trace[&op][it];
                *per_bank.entry(policy.bank_of(addr, banks)).or_insert(0) += 1;
            }
            stalls += per_bank
                .values()
                .map(|&c| c.saturating_sub(1) as u64)
                .sum::<u64>();
        }
    }
    let effective_ii = mapping.ii as f64 + stalls as f64 / iters.max(1) as f64;
    BankReport {
        policy,
        banks,
        stalls,
        effective_ii,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::mappers::ModuloList;
    use cgra_arch::{Fabric, Topology};
    use cgra_ir::kernels;

    fn mapped_matmul() -> (Dfg, Fabric, Mapping, HashMap<NodeId, Vec<Value>>) {
        let dfg = kernels::matmul_body();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let m = ModuloList.map(&dfg, &f, &MapConfig::fast()).unwrap();
        let tape = Tape::default().with_memory(vec![1; 256]);
        let trace = memory_trace(&dfg, 16, &tape).unwrap();
        (dfg, f, m, trace)
    }

    #[test]
    fn trace_captures_both_loads() {
        let (dfg, _, _, trace) = mapped_matmul();
        assert_eq!(trace.len(), dfg.memory_ops());
        for addrs in trace.values() {
            assert_eq!(addrs.len(), 16);
        }
        // A addresses 0..16, B addresses 64..80.
        let mut firsts: Vec<Value> = trace.values().map(|v| v[0]).collect();
        firsts.sort();
        assert_eq!(firsts, vec![0, 64]);
    }

    #[test]
    fn bank_policies_differ_on_strided_conflict() {
        let (dfg, _, m, trace) = mapped_matmul();
        // With both streams offset by 64 = multiple of 4 banks,
        // interleaved banking conflicts iff both ops share a slot;
        // measure both policies and ensure the report is consistent.
        let inter = bank_conflicts(&dfg, &m, &trace, 4, BankPolicy::Interleaved);
        let blocked = bank_conflicts(&dfg, &m, &trace, 4, BankPolicy::Blocked { block: 64 });
        assert!(inter.effective_ii >= m.ii as f64);
        assert!(blocked.effective_ii >= m.ii as f64);
    }

    #[test]
    fn no_memory_ops_no_stalls() {
        let dfg = kernels::dot_product();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let m = ModuloList.map(&dfg, &f, &MapConfig::fast()).unwrap();
        let report = bank_conflicts(&dfg, &m, &HashMap::new(), 4, BankPolicy::Interleaved);
        assert_eq!(report.stalls, 0);
    }

    #[test]
    fn bank_of_policies() {
        assert_eq!(BankPolicy::Interleaved.bank_of(5, 4), 1);
        assert_eq!(BankPolicy::Blocked { block: 16 }.bank_of(5, 4), 0);
        assert_eq!(BankPolicy::Blocked { block: 16 }.bank_of(17, 4), 1);
        assert_eq!(BankPolicy::Blocked { block: 16 }.bank_of(64, 4), 0);
    }
}
