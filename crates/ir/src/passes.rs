//! Middle-end optimisation passes — the "middle-end" box of the
//! survey's Figure 3.
//!
//! All passes operate on loop-body DFGs and preserve the observable
//! behaviour of the reference interpreter: outputs, memory effects, and
//! loop-carried state evolution.

use crate::dfg::{Dfg, Edge, NodeId};
use crate::op::{OpKind, Value};
use std::collections::HashMap;

/// Fold operations whose operands are all intra-iteration constants.
/// Returns the number of nodes folded.
pub fn const_fold(dfg: &mut Dfg) -> usize {
    let mut folded = 0;
    loop {
        let mut change: Option<(NodeId, Value)> = None;
        'scan: for (id, node) in dfg.nodes() {
            match node.op {
                OpKind::Const(_)
                | OpKind::Input(_)
                | OpKind::Output(_)
                | OpKind::Load
                | OpKind::Store
                | OpKind::Phi => continue,
                _ => {}
            }
            let arity = node.op.ports().count();
            let mut vals = Vec::with_capacity(arity);
            for p in 0..arity as u8 {
                match dfg.operand(id, p) {
                    Some((_, e)) if e.dist == 0 => match dfg.op(e.src) {
                        OpKind::Const(v) => vals.push(v),
                        _ => continue 'scan,
                    },
                    _ => continue 'scan,
                }
            }
            change = Some((id, node.op.eval(&vals)));
            break;
        }
        match change {
            Some((id, v)) => {
                // Drop the operand edges and retype the node.
                let keep: Vec<Edge> = dfg
                    .edges()
                    .filter(|(_, e)| e.dst != id)
                    .map(|(_, e)| e.clone())
                    .collect();
                let mut rebuilt = Dfg::new(dfg.name.clone());
                for (_, n) in dfg.nodes() {
                    let nid = rebuilt.add_node(n.op);
                    rebuilt.node_mut(nid).name = n.name.clone();
                }
                rebuilt.node_mut(id).op = OpKind::Const(v);
                for e in keep {
                    rebuilt.add_edge(e);
                }
                *dfg = rebuilt;
                folded += 1;
            }
            None => return folded,
        }
    }
}

/// Dead-code elimination: remove nodes from which no `Output` or
/// `Store` is reachable. Returns the number of nodes removed.
pub fn dce(dfg: &mut Dfg) -> usize {
    let n = dfg.node_count();
    let mut live = vec![false; n];
    let mut work: Vec<NodeId> = dfg
        .node_ids()
        .filter(|&id| matches!(dfg.op(id), OpKind::Output(_) | OpKind::Store))
        .collect();
    for &id in &work {
        live[id.index()] = true;
    }
    while let Some(id) = work.pop() {
        for (_, e) in dfg.in_edges(id) {
            if !live[e.src.index()] {
                live[e.src.index()] = true;
                work.push(e.src);
            }
        }
    }
    let removed = live.iter().filter(|&&l| !l).count();
    if removed > 0 {
        dfg.retain_nodes(|id| live[id.index()]);
    }
    removed
}

/// CSE identity: opcode plus the per-port `(source, distance, init)`
/// operand signature.
type CseKey = (OpKind, Vec<(NodeId, u32, Vec<Value>)>);

/// Common-subexpression elimination: merge nodes with identical opcode
/// and identical operand edges (source, distance, init). Conservative
/// around memory: `Load`/`Store`/`Input`/`Output` are never merged.
pub fn cse(dfg: &mut Dfg) -> usize {
    let mut merged = 0;
    loop {
        let mut seen: HashMap<CseKey, NodeId> = HashMap::new();
        let mut replace: Option<(NodeId, NodeId)> = None;
        let order = match dfg.topo_order() {
            Ok(o) => o,
            Err(_) => return merged,
        };
        for id in order {
            let op = dfg.op(id);
            if matches!(
                op,
                OpKind::Load | OpKind::Store | OpKind::Input(_) | OpKind::Output(_) | OpKind::Phi
            ) {
                continue;
            }
            // Skip dead nodes: a merged-away duplicate keeps its operand
            // edges until DCE runs, and re-matching it here would loop.
            if dfg.out_edges(id).next().is_none() {
                continue;
            }
            let arity = op.ports().count();
            let mut key_ops = Vec::with_capacity(arity);
            let mut complete = true;
            for p in 0..arity as u8 {
                match dfg.operand(id, p) {
                    Some((_, e)) => key_ops.push((e.src, e.dist, e.init.clone())),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue;
            }
            let key = (op, key_ops);
            if let Some(&prev) = seen.get(&key) {
                if prev != id {
                    replace = Some((id, prev));
                    break;
                }
            } else {
                seen.insert(key, id);
            }
        }
        match replace {
            Some((dup, keep)) => {
                dfg.replace_uses(dup, keep);
                merged += 1;
                // Leave the now-dead node for DCE.
            }
            None => return merged,
        }
    }
}

/// Algebraic simplification / strength reduction:
/// `x*1 → x`, `x*0 → 0`, `x+0 → x`, `x-0 → x`, `x/1 → x`,
/// `x<<0 → x`, `x>>0 → x`, `x*2^k → x<<k`, `x&x → x`, `x|x → x`,
/// `x^x → 0`, `x-x → 0`. Returns rewrites applied.
pub fn algebraic(dfg: &mut Dfg) -> usize {
    let mut rewrites = 0;
    loop {
        let mut action: Option<Action> = None;
        enum Action {
            /// Replace uses of `node` with `with`.
            Forward { node: NodeId, with: NodeId },
            /// Retype `node` as `Const(v)`, dropping operand edges.
            ToConst { node: NodeId, v: Value },
            /// Turn `node` (a Mul by 2^k) into Shl with constant `k`
            /// feeding port 1 (reusing the existing const node).
            MulToShl { node: NodeId, k: Value },
        }
        'scan: for (id, node) in dfg.nodes() {
            let op = node.op;
            let arity = op.ports().count();
            if arity != 2 {
                continue;
            }
            // A node with no consumers is dead (DCE's business): acting
            // on it cannot change behaviour, and a `Forward` rewrite
            // would match it again forever since its operand edges stay.
            if dfg.out_edges(id).next().is_none() {
                continue;
            }
            let e0 = match dfg.operand(id, 0) {
                Some((_, e)) => e.clone(),
                None => continue,
            };
            let e1 = match dfg.operand(id, 1) {
                Some((_, e)) => e.clone(),
                None => continue,
            };
            let c0 = match dfg.op(e0.src) {
                OpKind::Const(v) if e0.dist == 0 => Some(v),
                _ => None,
            };
            let c1 = match dfg.op(e1.src) {
                OpKind::Const(v) if e1.dist == 0 => Some(v),
                _ => None,
            };
            let same_src = e0.src == e1.src && e0.dist == 0 && e1.dist == 0;
            let forward0 = e0.dist == 0;
            let forward1 = e1.dist == 0;
            match op {
                OpKind::Mul => {
                    if c1 == Some(1) && forward0 {
                        action = Some(Action::Forward {
                            node: id,
                            with: e0.src,
                        });
                    } else if c0 == Some(1) && forward1 {
                        action = Some(Action::Forward {
                            node: id,
                            with: e1.src,
                        });
                    } else if c1 == Some(0) || c0 == Some(0) {
                        action = Some(Action::ToConst { node: id, v: 0 });
                    } else if let Some(v) = c1 {
                        if v > 1 && (v & (v - 1)) == 0 {
                            action = Some(Action::MulToShl {
                                node: id,
                                k: v.trailing_zeros() as Value,
                            });
                        }
                    }
                }
                OpKind::Add => {
                    if c1 == Some(0) && forward0 {
                        action = Some(Action::Forward {
                            node: id,
                            with: e0.src,
                        });
                    } else if c0 == Some(0) && forward1 {
                        action = Some(Action::Forward {
                            node: id,
                            with: e1.src,
                        });
                    }
                }
                OpKind::Sub => {
                    if c1 == Some(0) && forward0 {
                        action = Some(Action::Forward {
                            node: id,
                            with: e0.src,
                        });
                    } else if same_src {
                        action = Some(Action::ToConst { node: id, v: 0 });
                    }
                }
                OpKind::Div if c1 == Some(1) && forward0 => {
                    action = Some(Action::Forward {
                        node: id,
                        with: e0.src,
                    });
                }
                OpKind::Shl | OpKind::Shr if c1 == Some(0) && forward0 => {
                    action = Some(Action::Forward {
                        node: id,
                        with: e0.src,
                    });
                }
                OpKind::And | OpKind::Or if same_src && forward0 => {
                    action = Some(Action::Forward {
                        node: id,
                        with: e0.src,
                    });
                }
                OpKind::Xor if same_src => {
                    action = Some(Action::ToConst { node: id, v: 0 });
                }
                _ => {}
            }
            if action.is_some() {
                break 'scan;
            }
        }
        match action {
            Some(Action::Forward { node, with }) => {
                dfg.replace_uses(node, with);
                rewrites += 1;
            }
            Some(Action::ToConst { node, v }) => {
                let edges: Vec<Edge> = dfg
                    .edges()
                    .filter(|(_, e)| e.dst != node)
                    .map(|(_, e)| e.clone())
                    .collect();
                let mut rebuilt = Dfg::new(dfg.name.clone());
                for (_, n) in dfg.nodes() {
                    let nid = rebuilt.add_node(n.op);
                    rebuilt.node_mut(nid).name = n.name.clone();
                }
                rebuilt.node_mut(node).op = OpKind::Const(v);
                for e in edges {
                    rebuilt.add_edge(e);
                }
                *dfg = rebuilt;
                rewrites += 1;
            }
            Some(Action::MulToShl { node, k }) => {
                let kc = dfg.add_node(OpKind::Const(k));
                dfg.node_mut(node).op = OpKind::Shl;
                let eid = dfg.operand(node, 1).map(|(id, _)| id).unwrap();
                let e = dfg.edge_mut(eid);
                e.src = kc;
                e.dist = 0;
                e.init.clear();
                rewrites += 1;
            }
            None => return rewrites,
        }
    }
}

/// Run `const_fold`, `algebraic`, `cse`, and `dce` to a fixpoint.
/// Returns total rewrites.
pub fn optimize(dfg: &mut Dfg) -> usize {
    let mut total = 0;
    loop {
        let n = const_fold(dfg) + algebraic(dfg) + cse(dfg) + dce(dfg);
        total += n;
        if n == 0 {
            return total;
        }
    }
}

/// Unroll a loop body `factor` times.
///
/// The unrolled DFG executes `factor` original iterations per new
/// iteration. Input/output stream `s` of copy `j` becomes stream
/// `s * factor + j`, i.e. streams are interleaved per original stream;
/// [`reshape_tape`] converts tapes accordingly.
pub fn unroll(dfg: &Dfg, factor: u32) -> Dfg {
    assert!(factor >= 1);
    if factor == 1 {
        return dfg.clone();
    }
    let f = factor as i64;
    let mut out = Dfg::new(format!("{}_x{}", dfg.name, factor));
    let n = dfg.node_count();
    // copies[j][orig] = new id
    let mut copies: Vec<Vec<NodeId>> = Vec::with_capacity(factor as usize);
    for j in 0..factor {
        let mut ids = Vec::with_capacity(n);
        for (_, node) in dfg.nodes() {
            let op = match node.op {
                OpKind::Input(s) => OpKind::Input(s * factor + j),
                OpKind::Output(s) => OpKind::Output(s * factor + j),
                other => other,
            };
            let nid = out.add_node(op);
            out.node_mut(nid).name = node.name.as_ref().map(|s| format!("{s}#{j}"));
            ids.push(nid);
        }
        copies.push(ids);
    }
    for (_, e) in dfg.edges() {
        for j in 0..factor as i64 {
            let shifted = j - e.dist as i64;
            let new_dist = (-shifted.div_euclid(f)) as u32;
            let src_copy = shifted.rem_euclid(f) as usize;
            let init: Vec<Value> = (0..new_dist as i64)
                .map(|i| {
                    let orig_iter = (i * f + j) as usize;
                    e.init.get(orig_iter).copied().unwrap_or(0)
                })
                .collect();
            out.add_edge(Edge {
                src: copies[src_copy][e.src.index()],
                dst: copies[j as usize][e.dst.index()],
                port: e.port,
                dist: new_dist,
                init,
            });
        }
    }
    out
}

/// Convert a tape for the original kernel into the tape layout produced
/// by [`unroll`] with the same factor.
pub fn reshape_tape(tape: &crate::interp::Tape, factor: usize) -> crate::interp::Tape {
    let mut inputs = Vec::with_capacity(tape.inputs.len() * factor);
    for s in &tape.inputs {
        for j in 0..factor {
            inputs.push(s.iter().skip(j).step_by(factor).copied().collect());
        }
    }
    crate::interp::Tape {
        inputs,
        memory: tape.memory.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interpreter, Tape};
    use crate::kernels;

    fn behaviour(dfg: &Dfg, streams: usize, iters: usize) -> Vec<Vec<Value>> {
        let tape = Tape::generate(streams, iters, |s, i| (s as i64 + 2) * (i as i64 + 1) % 97)
            .with_memory(vec![7; 64]);
        Interpreter::run(dfg, iters, &tape).unwrap().outputs
    }

    #[test]
    fn const_fold_collapses_constant_trees() {
        let mut g = Dfg::new("cf");
        let a = g.add_node(OpKind::Const(6));
        let b = g.add_node(OpKind::Const(7));
        let m = g.add_node(OpKind::Mul);
        g.connect(a, m, 0);
        g.connect(b, m, 1);
        let o = g.add_node(OpKind::Output(0));
        g.connect(m, o, 0);
        assert_eq!(const_fold(&mut g), 1);
        assert_eq!(g.op(NodeId(2)), OpKind::Const(42));
        dce(&mut g);
        assert_eq!(g.node_count(), 2); // const + output
    }

    #[test]
    fn dce_removes_unreachable() {
        let mut g = kernels::dot_product();
        let dead1 = g.add_node(OpKind::Const(1));
        let dead2 = g.add_node(OpKind::Not);
        g.connect(dead1, dead2, 0);
        assert_eq!(dce(&mut g), 2);
        assert_eq!(g.node_count(), 5);
        g.validate().unwrap();
    }

    #[test]
    fn dce_keeps_stores() {
        let mut g = Dfg::new("st");
        let a = g.add_node(OpKind::Const(3));
        let st = g.add_node(OpKind::Store);
        g.connect(a, st, 0);
        g.connect(a, st, 1);
        assert_eq!(dce(&mut g), 0);
    }

    #[test]
    fn cse_merges_duplicate_exprs() {
        let mut g = Dfg::new("cse");
        let a = g.add_node(OpKind::Input(0));
        let b = g.add_node(OpKind::Input(1));
        let m1 = g.add_node(OpKind::Mul);
        let m2 = g.add_node(OpKind::Mul);
        g.connect(a, m1, 0);
        g.connect(b, m1, 1);
        g.connect(a, m2, 0);
        g.connect(b, m2, 1);
        let s = g.add_node(OpKind::Add);
        g.connect(m1, s, 0);
        g.connect(m2, s, 1);
        let o = g.add_node(OpKind::Output(0));
        g.connect(s, o, 0);
        let before = behaviour(&g, 2, 5);
        assert_eq!(cse(&mut g), 1);
        dce(&mut g);
        assert_eq!(g.node_count(), 5);
        g.validate().unwrap();
        assert_eq!(behaviour(&g, 2, 5), before);
    }

    #[test]
    fn algebraic_mul_one_and_add_zero() {
        let mut g = Dfg::new("alg");
        let x = g.add_node(OpKind::Input(0));
        let one = g.add_node(OpKind::Const(1));
        let zero = g.add_node(OpKind::Const(0));
        let m = g.add_node(OpKind::Mul);
        g.connect(x, m, 0);
        g.connect(one, m, 1);
        let a = g.add_node(OpKind::Add);
        g.connect(m, a, 0);
        g.connect(zero, a, 1);
        let o = g.add_node(OpKind::Output(0));
        g.connect(a, o, 0);
        let before = behaviour(&g, 1, 4);
        assert!(algebraic(&mut g) >= 2);
        dce(&mut g);
        g.validate().unwrap();
        assert_eq!(g.node_count(), 2); // input -> output
        assert_eq!(behaviour(&g, 1, 4), before);
    }

    #[test]
    fn algebraic_mul_pow2_becomes_shift() {
        let mut g = Dfg::new("shl");
        let x = g.add_node(OpKind::Input(0));
        let c8 = g.add_node(OpKind::Const(8));
        let m = g.add_node(OpKind::Mul);
        g.connect(x, m, 0);
        g.connect(c8, m, 1);
        let o = g.add_node(OpKind::Output(0));
        g.connect(m, o, 0);
        let before = behaviour(&g, 1, 4);
        assert_eq!(algebraic(&mut g), 1);
        assert_eq!(g.op(NodeId(2)), OpKind::Shl);
        assert_eq!(behaviour(&g, 1, 4), before);
    }

    #[test]
    fn algebraic_x_minus_x_is_zero() {
        let mut g = Dfg::new("xx");
        let x = g.add_node(OpKind::Input(0));
        let s = g.add_node(OpKind::Sub);
        g.connect(x, s, 0);
        g.connect(x, s, 1);
        let o = g.add_node(OpKind::Output(0));
        g.connect(s, o, 0);
        assert_eq!(algebraic(&mut g), 1);
        assert_eq!(g.op(NodeId(1)), OpKind::Const(0));
    }

    #[test]
    fn optimize_terminates_on_forwarded_mul() {
        // Regression: `1 * x` forwarded by `algebraic` used to leave a
        // dead Mul whose intact operand edges re-matched the rewrite
        // forever, hanging `optimize` (seen on the fir4.mc example).
        let mut g = Dfg::new("fwd");
        let x = g.add_node(OpKind::Input(0));
        let one = g.add_node(OpKind::Const(1));
        let m = g.add_node(OpKind::Mul);
        g.connect(one, m, 0);
        g.connect(x, m, 1);
        let o = g.add_node(OpKind::Output(0));
        g.connect(m, o, 0);
        let before = behaviour(&g, 1, 4);
        optimize(&mut g);
        g.validate().unwrap();
        assert_eq!(behaviour(&g, 1, 4), before);
    }

    #[test]
    fn optimize_preserves_suite_behaviour() {
        for k in kernels::suite() {
            if k.memory_ops() > 0 {
                continue; // memory kernels exercised separately
            }
            let streams = k
                .nodes()
                .filter_map(|(_, n)| match n.op {
                    OpKind::Input(s) => Some(s as usize + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let mut opt = k.clone();
            optimize(&mut opt);
            opt.validate().unwrap();
            assert_eq!(
                behaviour(&k, streams, 6),
                behaviour(&opt, streams, 6),
                "{}",
                k.name
            );
        }
    }

    #[test]
    fn unroll_by_two_matches_original() {
        for k in [kernels::dot_product(), kernels::fir(3), kernels::iir1()] {
            let streams = k
                .nodes()
                .filter_map(|(_, n)| match n.op {
                    OpKind::Input(s) => Some(s as usize + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let u = unroll(&k, 2);
            u.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name));
            let iters = 8;
            let tape = Tape::generate(streams, iters, |s, i| ((s + 1) * (i + 3)) as i64 % 31);
            let orig = Interpreter::run(&k, iters, &tape).unwrap();
            let reshaped = reshape_tape(&tape, 2);
            let unrolled = Interpreter::run(&u, iters / 2, &reshaped).unwrap();
            // De-interleave unrolled outputs and compare.
            for (s, orig_stream) in orig.outputs.iter().enumerate() {
                let mut merged = Vec::new();
                for i in 0..iters / 2 {
                    for j in 0..2 {
                        merged.push(unrolled.outputs[s * 2 + j][i]);
                    }
                }
                assert_eq!(&merged, orig_stream, "{} stream {s}", k.name);
            }
        }
    }

    #[test]
    fn unroll_factor_one_is_identity() {
        let k = kernels::dot_product();
        let u = unroll(&k, 1);
        assert_eq!(u.node_count(), k.node_count());
    }

    #[test]
    fn unroll_grows_linearly() {
        let k = kernels::fir(3);
        let u4 = unroll(&k, 4);
        assert_eq!(u4.node_count(), 4 * k.node_count());
        assert_eq!(u4.edge_count(), 4 * k.edge_count());
    }
}
