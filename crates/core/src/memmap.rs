//! Data mapping (survey §III-C): multi-bank memory conflict analysis,
//! data-placement policy selection, and register allocation for
//! rotating vs unified register files.
//!
//! The memory model matches the multi-bank scratchpads of the
//! memory-aware mapping literature (Kim et al. TODAES 2011, Yin et al.
//! TPDS 2017, Zhao et al. DATE 2018): `banks` single-ported banks, a
//! placement policy deciding which bank an address lives in, and a
//! stall for every extra same-cycle access to one bank.

use crate::mapping::Mapping;
use cgra_arch::Fabric;
use cgra_ir::interp::{Interpreter, Tape};
use cgra_ir::{Dfg, EdgeId, NodeId, OpKind, Value};
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

/// Pick the conflict-minimising placement policy for a mapped kernel
/// (the data-placement optimisation step of §III-C).
pub fn choose_policy(
    dfg: &Dfg,
    mapping: &Mapping,
    trace: &HashMap<NodeId, Vec<Value>>,
    banks: u32,
) -> BankReport {
    let candidates = [
        BankPolicy::Interleaved,
        BankPolicy::Blocked { block: 4 },
        BankPolicy::Blocked { block: 16 },
        BankPolicy::Blocked { block: 64 },
    ];
    candidates
        .into_iter()
        .map(|p| bank_conflicts(dfg, mapping, trace, banks, p))
        .min_by(|a, b| a.stalls.cmp(&b.stalls))
        .expect("non-empty candidate set")
}

// ---------------------------------------------------------------------
// Register allocation
// ---------------------------------------------------------------------

/// Register-file discipline (survey §III-C: rotating — ADRES-style —
/// vs unified register files, cf. De Sutter LCTES 2008 / URECA DATE
/// 2018).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfKind {
    /// Hardware renaming per iteration: a value's interval occupies
    /// only the modulo slots it is live in.
    Rotating,
    /// One flat file: a live value pins its register for the whole II
    /// (software must keep concurrent iteration copies apart).
    Unified,
}

/// A physical register assignment for every route-hold step.
#[derive(Debug, Clone)]
pub struct RegAlloc {
    /// `(edge, step) → register index` for every position a value
    /// holds on a PE.
    pub assignment: HashMap<(EdgeId, usize), u32>,
    /// Peak registers used on any PE.
    pub peak: u32,
}

/// Allocation failure: some PE needs more registers than `rf_size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegAllocError {
    pub pe: cgra_arch::PeId,
    pub needed: u32,
    pub available: u32,
}

impl std::fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} needs {} registers but has {}",
            self.pe, self.needed, self.available
        )
    }
}

impl std::error::Error for RegAllocError {}

/// Allocate physical registers for all routed values.
///
/// Values are grouped per PE into intervals (consecutive cycles the
/// value is present, deduplicated per producer); intervals are
/// first-fit coloured. Under [`RfKind::Rotating`] an interval occupies
/// its live modulo slots; under [`RfKind::Unified`] it pins the whole
/// II, which needs more registers for long-lived values — the
/// quantitative gap the §III-C papers report.
pub fn allocate_registers(
    dfg: &Dfg,
    mapping: &Mapping,
    fabric: &Fabric,
    kind: RfKind,
) -> Result<RegAlloc, RegAllocError> {
    let ii = mapping.ii;
    // Collect per-PE intervals: (producer, start, end, edge-steps).
    struct Interval {
        start: u32,
        end: u32,
        steps: Vec<(EdgeId, usize)>,
    }
    let mut per_pe: HashMap<cgra_arch::PeId, Vec<Interval>> = HashMap::new();
    // (producer, pe) → interval merging across fan-out edges.
    let mut index: HashMap<(u32, cgra_arch::PeId, u32), usize> = HashMap::new();
    for (eid, e) in dfg.edges() {
        let r = mapping.route(eid);
        for (i, &pe) in r.steps.iter().enumerate() {
            let t = r.start_time + i as u32;
            let list = per_pe.entry(pe).or_default();
            match index.get(&(e.src.0, pe, t)) {
                Some(&k) => list[k].steps.push((eid, i)),
                None => {
                    // Extend the previous cycle's interval if contiguous.
                    if let Some(&k) = index.get(&(e.src.0, pe, t.wrapping_sub(1))) {
                        list[k].end = list[k].end.max(t);
                        list[k].steps.push((eid, i));
                        index.insert((e.src.0, pe, t), k);
                    } else {
                        list.push(Interval {
                            start: t,
                            end: t,
                            steps: vec![(eid, i)],
                        });
                        index.insert((e.src.0, pe, t), list.len() - 1);
                    }
                }
            }
        }
    }

    let mut assignment = HashMap::new();
    let mut peak = 0u32;
    for (pe, intervals) in per_pe {
        // Slot occupancy per register.
        let slots_of = |iv: &Interval| -> Vec<u32> {
            match kind {
                RfKind::Rotating => {
                    let len = (iv.end - iv.start + 1).min(ii);
                    (0..len).map(|k| (iv.start + k) % ii).collect()
                }
                RfKind::Unified => (0..ii).collect(),
            }
        };
        let mut regs: Vec<Vec<bool>> = Vec::new(); // reg → slot used
        let mut order: Vec<usize> = (0..intervals.len()).collect();
        order.sort_by_key(|&k| intervals[k].start);
        for k in order {
            let iv = &intervals[k];
            let slots = slots_of(iv);
            let mut chosen = None;
            for (r, used) in regs.iter().enumerate() {
                if slots.iter().all(|&s| !used[s as usize]) {
                    chosen = Some(r);
                    break;
                }
            }
            let r = match chosen {
                Some(r) => r,
                None => {
                    regs.push(vec![false; ii as usize]);
                    regs.len() - 1
                }
            };
            for &s in &slots {
                regs[r][s as usize] = true;
            }
            for &(eid, step) in &iv.steps {
                assignment.insert((eid, step), r as u32);
            }
        }
        let used = regs.len() as u32;
        peak = peak.max(used);
        if used > fabric.rf_size {
            return Err(RegAllocError {
                pe,
                needed: used,
                available: fabric.rf_size,
            });
        }
    }
    Ok(RegAlloc { assignment, peak })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::mappers::ModuloList;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    fn mapped_matmul() -> (Dfg, Fabric, Mapping, HashMap<NodeId, Vec<Value>>) {
        let dfg = kernels::matmul_body();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let m = ModuloList::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
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
        let best = choose_policy(&dfg, &m, &trace, 4);
        assert!(best.stalls <= inter.stalls);
        assert!(best.stalls <= blocked.stalls);
    }

    #[test]
    fn no_memory_ops_no_stalls() {
        let dfg = kernels::dot_product();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let m = ModuloList::default()
            .map(&dfg, &f, &MapConfig::fast())
            .unwrap();
        let report = bank_conflicts(&dfg, &m, &HashMap::new(), 4, BankPolicy::Interleaved);
        assert_eq!(report.stalls, 0);
    }

    #[test]
    fn register_allocation_fits_validated_mapping() {
        let (dfg, f, m, _) = mapped_matmul();
        crate::validate::validate(&m, &dfg, &f).unwrap();
        let alloc = allocate_registers(&dfg, &m, &f, RfKind::Rotating)
            .expect("validated mapping must allocate under rotating RF");
        assert!(alloc.peak <= f.rf_size);
        // Every route step got a register.
        let steps: usize = m.routes.iter().map(|r| r.steps.len()).sum();
        assert!(alloc.assignment.len() <= steps);
        assert!(!alloc.assignment.is_empty());
    }

    #[test]
    fn unified_rf_needs_at_least_as_many_registers() {
        let (dfg, f, m, _) = mapped_matmul();
        let rot = allocate_registers(&dfg, &m, &f, RfKind::Rotating).unwrap();
        match allocate_registers(&dfg, &m, &f, RfKind::Unified) {
            Ok(uni) => assert!(uni.peak >= rot.peak),
            Err(e) => assert!(e.needed > f.rf_size),
        }
    }

    #[test]
    fn bank_of_policies() {
        assert_eq!(BankPolicy::Interleaved.bank_of(5, 4), 1);
        assert_eq!(BankPolicy::Blocked { block: 16 }.bank_of(5, 4), 0);
        assert_eq!(BankPolicy::Blocked { block: 16 }.bank_of(17, 4), 1);
        assert_eq!(BankPolicy::Blocked { block: 16 }.bank_of(64, 4), 0);
    }
}
