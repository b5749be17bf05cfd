//! Failure forensics: structured diagnosis of infeasible mappings.
//!
//! The survey's mapper families fail in characteristically different
//! ways — exact methods refute an II, heuristics run out of capable
//! cells, routers saturate register files — and a prose `Infeasible`
//! string flattens all of that. This module defines the shared
//! vocabulary ([`ResourceClass`]) the solver layers tag their
//! constraint groups with, the [`Diagnosis`] record surfaced inside
//! [`MapError::Infeasible`](crate::MapError), and the analytic
//! MII-bound diagnosis used when the II search range is empty before
//! any solver runs (see DESIGN.md §9 for the contract).
//!
//! Everything here is deterministic: op and cell lists are sorted by
//! id, detail strings are derived from counts, and the same seed (or
//! no seed at all — the MII decomposition is seed-free) produces the
//! same rendered output, which is what lets CI golden-diff
//! `cgra-map --explain`.

use cgra_arch::{Fabric, PeId};
use cgra_ir::{graph, Dfg, NodeId, OpKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The resource classes an infeasibility can be attributed to — one
/// tag per constraint group in the SAT/ILP encodings, plus the two
/// analytic MII components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResourceClass {
    /// An op class outnumbers the cells able to execute it (or no cell
    /// can at all): the at-least-one-candidate constraints.
    Capability,
    /// Per-`(pe, slot mod II)` issue exclusivity.
    SlotExclusive,
    /// Producer→consumer reachability through the operand network.
    Routing,
    /// Dependence/recurrence latency (schedule slack, RecMII).
    DependenceLatency,
    /// Register-file pressure: a placement existed but no conflict-free
    /// register allocation did (CEGAR exhaustion).
    Register,
}

impl ResourceClass {
    pub const ALL: [ResourceClass; 5] = [
        ResourceClass::Capability,
        ResourceClass::SlotExclusive,
        ResourceClass::Routing,
        ResourceClass::DependenceLatency,
        ResourceClass::Register,
    ];

    /// Stable kebab-case name used in rendered diagnoses and reports.
    pub fn label(self) -> &'static str {
        match self {
            ResourceClass::Capability => "capability",
            ResourceClass::SlotExclusive => "slot-exclusivity",
            ResourceClass::Routing => "routing",
            ResourceClass::DependenceLatency => "dependence-latency",
            ResourceClass::Register => "register",
        }
    }
}

impl fmt::Display for ResourceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cap on the op/cell lists a diagnosis carries; beyond it the list
/// ends with a `"+N more"` entry so huge kernels stay readable.
const MAX_NAMED: usize = 12;

/// Why a mapping attempt is infeasible, attributed to a resource
/// class, with the DFG ops and fabric cells involved.
///
/// All fields are plain strings and integers so the record survives
/// JSON round-trips byte-identically; lists are sorted by id, making
/// equal inputs produce equal diagnoses (property-tested).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// The binding resource class.
    pub class: ResourceClass,
    /// The II the diagnosis was made at (the lowest one attempted or,
    /// for MII-bound failures, the II cap that was exceeded).
    pub ii: u32,
    /// The kernel's MII on this fabric (`u32::MAX` when a required
    /// resource class is absent altogether).
    pub mii: u32,
    /// One-sentence account of the bottleneck.
    pub detail: String,
    /// Implicated DFG ops (`"n3:mul"`), sorted by node id.
    pub ops: Vec<String>,
    /// Implicated fabric cells (`"pe5@(1,1)"`), sorted by PE id.
    pub cells: Vec<String>,
    /// Labels of every constraint class in the final conflict core
    /// (singleton for analytic diagnoses).
    pub core: Vec<String>,
}

impl Diagnosis {
    /// A diagnosis with empty attribution lists; callers fill in
    /// `ops` / `cells` / `core` as the evidence allows.
    pub fn new(class: ResourceClass, ii: u32, mii: u32, detail: impl Into<String>) -> Self {
        Diagnosis {
            class,
            ii,
            mii,
            detail: detail.into(),
            ops: Vec::new(),
            cells: Vec::new(),
            core: vec![class.label().to_string()],
        }
    }

    /// Deterministic multi-line rendering — the `cgra-map --explain`
    /// output that CI golden-diffs.
    pub fn render(&self) -> String {
        let mii = if self.mii == u32::MAX {
            "unreachable".to_string()
        } else {
            self.mii.to_string()
        };
        let mut out = format!(
            "diagnosis: binding resource class = {}\n  ii: {} (MII {})\n  detail: {}\n",
            self.class.label(),
            self.ii,
            mii,
            self.detail
        );
        let line = |name: &str, items: &[String]| {
            if items.is_empty() {
                format!("  {name}: none\n")
            } else {
                format!("  {name}: {}\n", items.join(", "))
            }
        };
        out.push_str(&line("ops", &self.ops));
        out.push_str(&line("cells", &self.cells));
        out.push_str(&line("core", &self.core));
        out
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

/// Canonical op name used in diagnoses: `n<id>:<mnemonic>`.
pub fn op_name(dfg: &Dfg, id: NodeId) -> String {
    format!("n{}:{}", id.0, dfg.op(id).mnemonic())
}

/// Canonical cell name used in diagnoses: `pe<id>@(<row>,<col>)`.
pub fn cell_name(fabric: &Fabric, pe: PeId) -> String {
    let (r, c) = fabric.coords(pe);
    format!("pe{}@({r},{c})", pe.0)
}

/// Sort-stable list capping: keeps the first [`MAX_NAMED`] entries and
/// folds the rest into a `"+N more"` tail.
pub(crate) fn cap_list(mut items: Vec<String>) -> Vec<String> {
    if items.len() > MAX_NAMED {
        let extra = items.len() - MAX_NAMED;
        items.truncate(MAX_NAMED);
        items.push(format!("+{extra} more"));
    }
    items
}

/// Ops selected by a predicate, in id order, capped.
fn ops_where(dfg: &Dfg, pred: impl Fn(OpKind) -> bool) -> Vec<String> {
    cap_list(
        dfg.node_ids()
            .filter(|&n| pred(dfg.op(n)))
            .map(|n| op_name(dfg, n))
            .collect(),
    )
}

/// Cells selected by a predicate, in id order, capped.
fn cells_where(fabric: &Fabric, pred: impl Fn(PeId) -> bool) -> Vec<String> {
    cap_list(
        fabric
            .pe_ids()
            .filter(|&pe| pred(pe))
            .map(|pe| cell_name(fabric, pe))
            .collect(),
    )
}

fn is_io(op: OpKind) -> bool {
    matches!(op, OpKind::Input(_) | OpKind::Output(_))
}

/// Analytic capability/recurrence diagnosis for an empty II range: the
/// MII decomposition (per-class ResMII components, io MII, RecMII)
/// re-derived from `(dfg, fabric)`, attributing the bound to the
/// largest component. `ii_cap` is the II bound the MII exceeded
/// (`max_ii` clamped by `context_depth`). Pure arithmetic — no solver
/// runs — so the result is deterministic for a given instance.
pub fn diagnose_mii_bound(dfg: &Dfg, fabric: &Fabric, ii_cap: u32) -> Diagnosis {
    let (alu, mul, mem, io) = fabric.slot_counts();
    let lat = |op: OpKind| fabric.latency_of(op);
    let total = dfg.node_count();
    let muls = dfg.multiplier_ops();
    let mems = dfg.memory_ops();
    let ios = dfg.node_ids().filter(|&n| is_io(dfg.op(n))).count();
    let div_ceil = |a: usize, b: usize| -> u32 {
        if b == 0 {
            if a == 0 {
                1
            } else {
                u32::MAX
            }
        } else {
            (a.div_ceil(b) as u32).max(1)
        }
    };
    let rec = graph::rec_mii(dfg, &lat);
    // (component value, class, op-class label, demand, capable-slot
    // count); evaluated in this fixed order, first maximum wins, so
    // the attribution is deterministic.
    let mul_c = div_ceil(muls, mul);
    let mem_c = div_ceil(mems, mem);
    let io_c = div_ceil(ios, io);
    let alu_c = div_ceil(total, alu);
    let mii = rec.max(mul_c).max(mem_c).max(io_c).max(alu_c);

    let (detail, ops, cells, class) = if mul_c == mii && mul_c >= rec {
        (
            bottleneck_detail("multiplier", muls, mul, mul_c, ii_cap),
            ops_where(dfg, OpKind::needs_multiplier),
            cells_where(fabric, |pe| fabric.caps(pe).mul),
            ResourceClass::Capability,
        )
    } else if mem_c == mii && mem_c >= rec {
        (
            bottleneck_detail("memory", mems, mem, mem_c, ii_cap),
            ops_where(dfg, OpKind::is_memory),
            cells_where(fabric, |pe| fabric.caps(pe).mem),
            ResourceClass::Capability,
        )
    } else if io_c == mii && io_c >= rec {
        (
            bottleneck_detail("I/O", ios, io, io_c, ii_cap),
            ops_where(dfg, is_io),
            cells_where(fabric, |pe| {
                fabric.caps(pe).io
                    && (fabric.io_policy == cgra_arch::IoPolicy::Anywhere || fabric.is_border(pe))
            }),
            ResourceClass::Capability,
        )
    } else if alu_c == mii && alu_c >= rec {
        (
            bottleneck_detail("issue", total, alu, alu_c, ii_cap),
            Vec::new(), // every op competes; naming all is noise
            cells_where(fabric, |pe| fabric.caps(pe).alu),
            ResourceClass::Capability,
        )
    } else {
        // Recurrence-bound: the loop-carried dependence cycles set the
        // floor regardless of resources.
        let carried: Vec<NodeId> = {
            let mut ends: Vec<NodeId> = dfg
                .edges()
                .filter(|(_, e)| e.is_carried())
                .flat_map(|(_, e)| [e.src, e.dst])
                .collect();
            ends.sort();
            ends.dedup();
            ends
        };
        (
            format!("loop-carried recurrences force RecMII {rec}, above the II bound {ii_cap}"),
            cap_list(carried.iter().map(|&n| op_name(dfg, n)).collect()),
            Vec::new(),
            ResourceClass::DependenceLatency,
        )
    };

    let mut d = Diagnosis::new(class, ii_cap, mii, detail);
    d.ops = ops;
    d.cells = cells;
    d
}

fn bottleneck_detail(kind: &str, demand: usize, slots: usize, comp: u32, ii_cap: u32) -> String {
    if slots == 0 {
        format!("kernel needs {demand} {kind} op(s) but the fabric has no {kind}-capable cell")
    } else {
        format!(
            "{demand} {kind} op(s) compete for {slots} {kind}-capable cell(s): \
             ResMII component {comp} exceeds the II bound {ii_cap}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    /// A 2×2 mesh where only pe0 can multiply — the capability
    /// bottleneck fixture the CI smoke also uses.
    fn mul_starved() -> Fabric {
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        f.name = "mul_starved_2x2".into();
        for pe in 1..4 {
            f.cells[pe].mul = false;
        }
        f
    }

    #[test]
    fn mii_bound_diagnosis_names_multiplier_bottleneck() {
        let dfg = kernels::fir(4); // 4 tap multiplies
        let f = mul_starved();
        let d = diagnose_mii_bound(&dfg, &f, 1);
        assert_eq!(d.class, ResourceClass::Capability);
        assert!(d.mii >= 4, "4 muls / 1 mul cell");
        assert_eq!(d.ii, 1);
        assert!(d.detail.contains("multiplier"), "{}", d.detail);
        assert_eq!(d.cells, vec!["pe0@(0,0)".to_string()]);
        assert!(d.ops.iter().all(|o| o.contains("mul")), "{:?}", d.ops);
        assert_eq!(d.core, vec!["capability".to_string()]);
    }

    #[test]
    fn diagnosis_is_deterministic_and_round_trips() {
        let dfg = kernels::fir(4);
        let f = mul_starved();
        let a = diagnose_mii_bound(&dfg, &f, 1);
        let b = diagnose_mii_bound(&dfg, &f, 1);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        // Rendering is stable: every section present, kebab labels.
        let r = a.render();
        for needle in [
            "diagnosis: binding resource class = capability",
            "ii: 1",
            "detail:",
            "ops:",
            "cells:",
            "core:",
        ] {
            assert!(r.contains(needle), "missing {needle:?} in {r}");
        }
    }

    #[test]
    fn missing_resource_class_is_capability_with_no_cells() {
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        for c in &mut f.cells {
            c.mem = false;
        }
        let dfg = kernels::matmul_body(); // has loads
        let d = diagnose_mii_bound(&dfg, &f, 8);
        assert_eq!(d.class, ResourceClass::Capability);
        assert_eq!(d.mii, u32::MAX);
        assert!(d.cells.is_empty());
        assert!(d.render().contains("MII unreachable"));
    }

    #[test]
    fn recurrence_bound_names_dependence_latency() {
        // accumulate has a carried self-edge; a huge fabric removes
        // every resource bound, so pinning ii_cap below RecMII can only
        // be recurrence-driven... RecMII is 1 for accumulate on default
        // latency, so build a longer recurrence.
        use cgra_ir::{Dfg, OpKind};
        let mut g = Dfg::new("long_rec");
        let a = g.add_node(OpKind::Add);
        let b = g.add_node(OpKind::Mul);
        let c = g.add_node(OpKind::Add);
        let k = g.add_node(OpKind::Const(1));
        g.connect(k, a, 1);
        g.connect(a, b, 0);
        g.connect(k, b, 1);
        g.connect(b, c, 0);
        g.connect(k, c, 1);
        g.connect_carried(c, a, 0, 1, vec![0]);
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let d = diagnose_mii_bound(&g, &f, 1);
        assert_eq!(d.class, ResourceClass::DependenceLatency);
        assert!(d.mii >= 3);
        assert!(!d.ops.is_empty());
        assert!(d.cells.is_empty());
    }

    #[test]
    fn long_lists_are_capped() {
        let many: Vec<String> = (0..40).map(|i| format!("n{i}")).collect();
        let capped = cap_list(many);
        assert_eq!(capped.len(), 13);
        assert_eq!(capped.last().unwrap(), "+28 more");
    }
}
