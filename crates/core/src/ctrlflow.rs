//! Control-flow mapping: the four if-then-else schemes of the survey's
//! §III-B1 and the hardware-loop support of §III-B2.
//!
//! Given a CDFG diamond (branch → then/else → join), the schemes
//! trade issue slots for control flexibility:
//!
//! * **Full predication** — both branches execute every iteration;
//!   every variable defined in either branch gets a predicate-driven
//!   `Select` at the join, *including* values only used inside the
//!   branches (no dead-code elimination). Largest op count, simplest
//!   hardware.
//! * **Partial predication** — as above, but only join-live values are
//!   merged and dead code is eliminated; the standard if-conversion.
//! * **Dual-issue single execution** — compatible then/else operations
//!   pair up onto one issue slot (the PE holds both configurations and
//!   the predicate picks one at run time). We model the *schedule
//!   footprint*: the DFG is the partial-predication one, and
//!   [`dual_issue_pairs`] reports how many slots pairing saves.
//! * **Direct CDFG mapping** — each basic block is mapped separately
//!   and the CGRA switches configurations at run time; no predication
//!   ops at all, but every taken branch costs a context switch.

use crate::mapper::{MapConfig, MapError, Mapper};
use crate::mapping::Mapping;
use cgra_arch::Fabric;
use cgra_ir::cdfg::{BlockId, Cdfg, ControlKind};
use cgra_ir::{passes, Dfg, NodeId, OpKind};
use std::collections::HashMap;

/// The four ITE mapping schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IteScheme {
    FullPredication,
    PartialPredication,
    DualIssue,
    DirectCdfg,
}

impl IteScheme {
    pub fn label(self) -> &'static str {
        match self {
            IteScheme::FullPredication => "full predication",
            IteScheme::PartialPredication => "partial predication",
            IteScheme::DualIssue => "dual-issue single execution",
            IteScheme::DirectCdfg => "direct CDFG mapping",
        }
    }
}

/// A flattened diamond: one DFG executing branch + both arms + merge.
#[derive(Debug, Clone)]
pub struct PredicatedKernel {
    pub dfg: Dfg,
    /// Input stream names in stream order.
    pub inputs: Vec<String>,
    /// Output stream names in stream order (join-live variables).
    pub outputs: Vec<String>,
}

/// Errors of the control-flow transforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlFlowError {
    /// The CDFG has no if-then-else diamond.
    NoDiamond,
    /// A block reads a variable defined nowhere on the path.
    Unbound(String),
}

impl std::fmt::Display for CtrlFlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtrlFlowError::NoDiamond => write!(f, "CDFG contains no if-then-else diamond"),
            CtrlFlowError::Unbound(v) => write!(f, "variable `{v}` undefined on the path"),
        }
    }
}

impl std::error::Error for CtrlFlowError {}

/// Splice `block`'s DFG into `out`, resolving its params through `env`
/// (falling back to fresh `Input` streams registered in `inputs`).
/// Returns the mapping from block-local node ids to `out` ids and
/// updates `env` with the block's defs.
fn splice_block(
    out: &mut Dfg,
    cdfg: &Cdfg,
    block: BlockId,
    env: &mut HashMap<String, NodeId>,
    inputs: &mut Vec<String>,
) -> Vec<NodeId> {
    let bb = cdfg.block(block);
    let mut map = Vec::with_capacity(bb.dfg.node_count());
    let order = bb.dfg.topo_order().expect("validated block");
    let mut placed = vec![NodeId(0); bb.dfg.node_count()];
    for id in order {
        let node = bb.dfg.node(id);
        let new_id = match node.op {
            OpKind::Input(i) => {
                let var = &bb.params[i as usize];
                match env.get(var) {
                    Some(&n) => n,
                    None => {
                        let stream = inputs.len() as u32;
                        inputs.push(var.clone());
                        let n = out.add_named(OpKind::Input(stream), var.clone());
                        env.insert(var.clone(), n);
                        n
                    }
                }
            }
            op => {
                let n = out.add_node(op);
                out.node_mut(n).name = node.name.clone();
                for p in 0..op.ports().count() as u8 {
                    let (_, e) = bb.dfg.operand(id, p).expect("validated block");
                    out.add_edge(cgra_ir::Edge {
                        src: placed[e.src.index()],
                        dst: n,
                        port: p,
                        dist: e.dist,
                        init: e.init.clone(),
                    });
                }
                n
            }
        };
        placed[id.index()] = new_id;
    }
    for id in bb.dfg.node_ids() {
        map.push(placed[id.index()]);
    }
    // Apply defs.
    for (var, node) in &bb.defs {
        env.insert(var.clone(), placed[node.index()]);
    }
    map
}

/// Flatten the first diamond of `cdfg` into a predicated kernel under
/// full or partial predication.
pub fn predicate_diamond(
    cdfg: &Cdfg,
    scheme: IteScheme,
) -> Result<PredicatedKernel, CtrlFlowError> {
    let (branch, then_b, else_b, join) = cdfg.find_diamond().ok_or(CtrlFlowError::NoDiamond)?;
    let mut out = Dfg::new(format!(
        "{}_{}",
        cdfg.name,
        match scheme {
            IteScheme::FullPredication => "fullpred",
            IteScheme::PartialPredication => "partpred",
            IteScheme::DualIssue => "dualissue",
            IteScheme::DirectCdfg => "direct",
        }
    ));
    let mut env: HashMap<String, NodeId> = HashMap::new();
    let mut inputs: Vec<String> = Vec::new();

    // Branch block (computes the predicate).
    let bmap = splice_block(&mut out, cdfg, branch, &mut env, &mut inputs);
    let cond = match cdfg.block(branch).terminator {
        ControlKind::Branch { cond, .. } => bmap[cond.index()],
        _ => unreachable!("diamond head must branch"),
    };

    // Both arms over snapshots of the environment.
    let env_before = env.clone();
    let mut env_then = env_before.clone();
    splice_block(&mut out, cdfg, then_b, &mut env_then, &mut inputs);
    let mut env_else = env_before.clone();
    splice_block(&mut out, cdfg, else_b, &mut env_else, &mut inputs);

    // Merge defs with selects.
    let mut merged: Vec<String> = cdfg
        .block(then_b)
        .defs
        .iter()
        .chain(cdfg.block(else_b).defs.iter())
        .map(|(v, _)| v.clone())
        .collect();
    merged.sort();
    merged.dedup();
    let mut env_join = env_before.clone();
    for var in &merged {
        let t = env_then
            .get(var)
            .or_else(|| env_before.get(var))
            .copied()
            .ok_or_else(|| CtrlFlowError::Unbound(var.clone()))?;
        let e = env_else
            .get(var)
            .or_else(|| env_before.get(var))
            .copied()
            .ok_or_else(|| CtrlFlowError::Unbound(var.clone()))?;
        let sel = if t == e {
            t
        } else {
            let s = out.add_named(OpKind::Select, format!("{var}_phi"));
            out.connect(cond, s, 0);
            out.connect(t, s, 1);
            out.connect(e, s, 2);
            s
        };
        env_join.insert(var.clone(), sel);
    }

    // Join block (may compute further, e.g. uses of merged vars).
    splice_block(&mut out, cdfg, join, &mut env_join, &mut inputs);

    // Outputs: merged variables (the join-live values), in sorted order.
    let mut outputs = Vec::new();
    for (stream, var) in merged.iter().enumerate() {
        let o = out.add_named(OpKind::Output(stream as u32), var.clone());
        out.connect(env_join[var], o, 0);
        outputs.push(var.clone());
    }

    // Full predication keeps everything; partial (and the dual-issue
    // footprint base) eliminate dead code.
    if !matches!(scheme, IteScheme::FullPredication) {
        passes::dce(&mut out);
    }
    Ok(PredicatedKernel {
        dfg: out,
        inputs,
        outputs,
    })
}

/// Dual-issue pairing: then/else operations that could share one issue
/// slot (one op from each arm, paired greedily). Returns the number of
/// saved slots.
pub fn dual_issue_pairs(cdfg: &Cdfg) -> Result<usize, CtrlFlowError> {
    let (_, then_b, else_b, _) = cdfg.find_diamond().ok_or(CtrlFlowError::NoDiamond)?;
    let count = |b: BlockId| {
        cdfg.block(b)
            .dfg
            .nodes()
            .filter(|(_, n)| !matches!(n.op, OpKind::Input(_)))
            .count()
    };
    Ok(count(then_b).min(count(else_b)))
}

/// Direct CDFG mapping: map every basic block's DFG independently.
pub struct DirectMapping {
    /// Per-block mappings, indexed like `cdfg.blocks` (blocks with
    /// empty DFGs map to `None`).
    pub blocks: Vec<Option<Mapping>>,
    /// Configuration contexts consumed in total.
    pub total_contexts: u32,
}

/// Map each block of `cdfg` separately with `mapper` — the direct CDFG
/// scheme: the CGRA switches configurations between blocks at run
/// time.
pub fn map_direct(
    cdfg: &Cdfg,
    mapper: &dyn Mapper,
    fabric: &Fabric,
    cfg: &MapConfig,
) -> Result<DirectMapping, MapError> {
    let mut blocks = Vec::with_capacity(cdfg.blocks.len());
    let mut total = 0u32;
    for id in cdfg.block_ids() {
        let bb = cdfg.block(id);
        if bb.dfg.node_count() == 0 {
            blocks.push(None);
            continue;
        }
        // Block DFGs are straight-line; they already use Input nodes
        // for params, so they map like kernels. Blocks without defined
        // outputs still occupy PEs for their computations.
        let mut dfg = bb.dfg.clone();
        // Give terminal defs Output sinks so validation sees live ops.
        let mut stream = dfg
            .nodes()
            .filter_map(|(_, n)| match n.op {
                OpKind::Output(s) => Some(s + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let defs: Vec<NodeId> = bb.defs.iter().map(|(_, n)| *n).collect();
        for d in defs {
            let o = dfg.add_node(OpKind::Output(stream));
            dfg.connect(d, o, 0);
            stream += 1;
        }
        if let ControlKind::Branch { cond, .. } = bb.terminator {
            let o = dfg.add_node(OpKind::Output(stream));
            dfg.connect(cond, o, 0);
        }
        let m = mapper.map(&dfg, fabric, cfg)?;
        total += m.ii;
        blocks.push(Some(m));
    }
    Ok(DirectMapping {
        blocks,
        total_contexts: total,
    })
}

/// §III-B2 hardware loops: wrap a kernel with explicit software loop
/// control (induction increment + bound compare + predicate output) —
/// what a CGRA *without* a hardware loop unit must execute. Comparing
/// the mapping of `with_loop_control(k)` against `k` on a `hw_loop`
/// fabric quantifies the hardware-loop saving.
pub fn with_loop_control(dfg: &Dfg, bound: i64) -> Dfg {
    let mut g = dfg.clone();
    g.name = format!("{}_swloop", dfg.name);
    let one = g.add_node(OpKind::Const(1));
    let i = g.add_named(OpKind::Add, "i");
    g.connect_carried(i, i, 0, 1, vec![-1]);
    g.connect(one, i, 1);
    let n = g.add_node(OpKind::Const(bound));
    let cmp = g.add_named(OpKind::Lt, "i<n");
    g.connect(i, cmp, 0);
    g.connect(n, cmp, 1);
    let stream = g
        .nodes()
        .filter_map(|(_, nd)| match nd.op {
            OpKind::Output(s) => Some(s + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let o = g.add_named(OpKind::Output(stream), "continue");
    g.connect(cmp, o, 0);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_ir::frontend;
    use cgra_ir::interp::{Interpreter, Tape};

    const ITE_SRC: &str = "
        func th(x) {
            var y = 0;
            var dead = 0;
            if (x > 10) { y = x - 10; dead = x * 3; } else { y = 10 - x; }
            var z = y + 1;
            return;
        }";

    fn diamond() -> Cdfg {
        frontend::compile_func(ITE_SRC).unwrap()
    }

    fn run_scheme(scheme: IteScheme, x: i64) -> Vec<(String, i64)> {
        let k = predicate_diamond(&diamond(), scheme).unwrap();
        k.dfg.validate().unwrap();
        let tape = Tape {
            inputs: vec![vec![x]; k.inputs.len()],
            memory: vec![],
        };
        let r = Interpreter::run(&k.dfg, 1, &tape).unwrap();
        k.outputs
            .iter()
            .enumerate()
            .map(|(s, v)| (v.clone(), r.outputs[s][0]))
            .collect()
    }

    #[test]
    fn full_and_partial_agree_with_cdfg_semantics() {
        for x in [25, 3] {
            let full = run_scheme(IteScheme::FullPredication, x);
            let part = run_scheme(IteScheme::PartialPredication, x);
            let want_y = if x > 10 { x - 10 } else { 10 - x };
            for (name, got) in full.iter().chain(part.iter()) {
                if name == "y" {
                    assert_eq!(*got, want_y, "x={x}");
                }
            }
            // Reference: execute the CDFG directly.
            let c = diamond();
            let mut env = std::collections::HashMap::new();
            env.insert("x".to_string(), x);
            let (env, _, _) = c.execute(env, vec![], 100).unwrap();
            assert_eq!(env["y"], want_y);
            assert_eq!(env["z"], want_y + 1);
        }
    }

    #[test]
    fn full_predication_issues_more_ops_than_partial() {
        let full = predicate_diamond(&diamond(), IteScheme::FullPredication).unwrap();
        let part = predicate_diamond(&diamond(), IteScheme::PartialPredication).unwrap();
        assert!(
            full.dfg.node_count() > part.dfg.node_count(),
            "full {} !> partial {} (the dead `dead` def must survive full predication)",
            full.dfg.node_count(),
            part.dfg.node_count()
        );
    }

    #[test]
    fn dual_issue_saves_slots() {
        let pairs = dual_issue_pairs(&diamond()).unwrap();
        assert!(pairs >= 1);
    }

    #[test]
    fn direct_mapping_maps_blocks() {
        use crate::mappers::ModuloList;
        let c = diamond();
        let f = cgra_arch::Fabric::homogeneous(4, 4, cgra_arch::Topology::Mesh);
        let d = map_direct(&c, &ModuloList, &f, &MapConfig::fast()).unwrap();
        assert!(
            d.total_contexts >= 2,
            "several blocks must consume contexts"
        );
        let mapped = d.blocks.iter().filter(|b| b.is_some()).count();
        assert!(mapped >= 3);
    }

    #[test]
    fn no_diamond_reported() {
        let c = frontend::compile_func("func f(x) { var y = x + 1; return; }").unwrap();
        assert_eq!(
            predicate_diamond(&c, IteScheme::PartialPredication).unwrap_err(),
            CtrlFlowError::NoDiamond
        );
    }

    #[test]
    fn loop_control_wrapper_adds_overhead_ops() {
        let k = cgra_ir::kernels::dot_product();
        let sw = with_loop_control(&k, 64);
        sw.validate().unwrap();
        assert_eq!(sw.node_count(), k.node_count() + 5);
        // Semantics of the original streams are preserved.
        let tape = Tape::generate(2, 3, |_, i| i as i64 + 1);
        let orig = Interpreter::run(&k, 3, &tape).unwrap();
        let wrapped = Interpreter::run(&sw, 3, &tape).unwrap();
        assert_eq!(orig.outputs[0], wrapped.outputs[0]);
    }
}
