//! Control-data-flow graphs: basic blocks of data-flow, connected by
//! control edges.
//!
//! The survey (Section II-B) defines a CDFG as the combination of a
//! control-flow graph whose nodes are basic blocks with a data-flow
//! graph embedded in each block. Cross-block dataflow is expressed here
//! through named variables: each block declares the variables it reads
//! (`params`, bound to the block DFG's `Input` nodes in order) and the
//! variables it defines (`defs`). Executing a block reads the variable
//! environment, evaluates the block DFG for a single "iteration", and
//! writes the defined variables back — which is exactly the φ-free
//! SSA-with-block-arguments form modern compilers use.

use crate::dfg::{Dfg, NodeId};
use crate::op::Value;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// Index of a basic block in its CDFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct BlockId(pub u32);

impl BlockId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// How control leaves a block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ControlKind {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on the value produced by `cond` (a node of the
    /// block's DFG): nonzero → `then_to`, zero → `else_to`.
    Branch {
        cond: NodeId,
        then_to: BlockId,
        else_to: BlockId,
    },
    /// Function exit.
    Return,
}

/// A basic block: a DFG fragment plus its interface and terminator.
#[derive(Debug, Clone, Serialize)]
pub struct BasicBlock {
    pub label: String,
    /// Variables read by this block; `params[i]` binds to the block
    /// DFG's `Input(i)` nodes.
    pub params: Vec<String>,
    /// Variables defined by this block: name → producing node.
    pub defs: Vec<(String, NodeId)>,
    /// The embedded data-flow graph (validated with
    /// [`Dfg::validate_with_phis`]).
    pub dfg: Dfg,
    pub terminator: ControlKind,
}

/// What [`Cdfg::execute`] yields: the final variable environment, the
/// memory image, and the `(stream, value)` output log in issue order.
pub type ExecOutcome = (HashMap<String, Value>, Vec<Value>, Vec<(u32, Value)>);

/// A control-data-flow graph.
#[derive(Debug, Clone, Serialize)]
pub struct Cdfg {
    pub name: String,
    pub blocks: Vec<BasicBlock>,
    pub entry: BlockId,
}

/// Errors raised by CDFG validation or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdfgError {
    UnknownBlock(BlockId),
    UnboundVariable { block: BlockId, var: String },
    BadBlockDfg { block: BlockId, msg: String },
    StepLimit,
}

impl fmt::Display for CdfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdfgError::UnknownBlock(b) => write!(f, "terminator targets unknown block {b}"),
            CdfgError::UnboundVariable { block, var } => {
                write!(f, "{block} reads unbound variable `{var}`")
            }
            CdfgError::BadBlockDfg { block, msg } => write!(f, "{block}: {msg}"),
            CdfgError::StepLimit => write!(f, "execution exceeded the step limit"),
        }
    }
}

impl std::error::Error for CdfgError {}

impl Cdfg {
    pub fn new(name: impl Into<String>) -> Self {
        Cdfg {
            name: name.into(),
            blocks: Vec::new(),
            entry: BlockId(0),
        }
    }

    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Structural validation: targets exist, block DFGs are well formed,
    /// branch conditions are nodes of their own block.
    pub fn validate(&self) -> Result<(), CdfgError> {
        let n = self.blocks.len() as u32;
        for id in self.block_ids() {
            let bb = self.block(id);
            if let Err(e) = bb.dfg.validate_with_phis() {
                return Err(CdfgError::BadBlockDfg {
                    block: id,
                    msg: e.to_string(),
                });
            }
            match &bb.terminator {
                ControlKind::Jump(t) => {
                    if t.0 >= n {
                        return Err(CdfgError::UnknownBlock(*t));
                    }
                }
                ControlKind::Branch {
                    cond,
                    then_to,
                    else_to,
                } => {
                    if then_to.0 >= n {
                        return Err(CdfgError::UnknownBlock(*then_to));
                    }
                    if else_to.0 >= n {
                        return Err(CdfgError::UnknownBlock(*else_to));
                    }
                    if cond.index() >= bb.dfg.node_count() {
                        return Err(CdfgError::BadBlockDfg {
                            block: id,
                            msg: format!("branch condition {cond} out of range"),
                        });
                    }
                }
                ControlKind::Return => {}
            }
        }
        Ok(())
    }

    /// Detect an if-then-else diamond: a branch block whose two
    /// successors both jump to a common join block. Returns
    /// `(branch, then, else, join)`.
    pub fn find_diamond(&self) -> Option<(BlockId, BlockId, BlockId, BlockId)> {
        for id in self.block_ids() {
            if let ControlKind::Branch {
                then_to, else_to, ..
            } = self.block(id).terminator
            {
                if then_to == else_to {
                    continue;
                }
                let j1 = match self.block(then_to).terminator {
                    ControlKind::Jump(t) => t,
                    _ => continue,
                };
                let j2 = match self.block(else_to).terminator {
                    ControlKind::Jump(t) => t,
                    _ => continue,
                };
                if j1 == j2 {
                    return Some((id, then_to, else_to, j1));
                }
            }
        }
        None
    }

    /// Execute the CDFG with initial variable bindings, a memory image,
    /// and per-stream inputs; returns the final environment and memory.
    ///
    /// Block-level `Input(i)` nodes read `params[i]` from the
    /// environment; `Output` nodes write to the `outputs` streams.
    pub fn execute(
        &self,
        mut env: HashMap<String, Value>,
        mut memory: Vec<Value>,
        step_limit: usize,
    ) -> Result<ExecOutcome, CdfgError> {
        use crate::op::OpKind;
        self.validate()?;
        let mut outputs: Vec<(u32, Value)> = Vec::new();
        let mut cur = self.entry;
        for _ in 0..step_limit {
            let bb = self.block(cur);
            // Evaluate the block DFG once.
            let order = bb.dfg.topo_order().map_err(|n| CdfgError::BadBlockDfg {
                block: cur,
                msg: format!("cycle at {n}"),
            })?;
            let mut vals = vec![0 as Value; bb.dfg.node_count()];
            for id in order {
                let op = bb.dfg.op(id);
                let operands: Vec<Value> = (0..op.ports().count() as u8)
                    .map(|p| vals[bb.dfg.operand(id, p).expect("validated").1.src.index()])
                    .collect();
                vals[id.index()] = match op {
                    OpKind::Input(i) => {
                        let var =
                            bb.params
                                .get(i as usize)
                                .ok_or_else(|| CdfgError::BadBlockDfg {
                                    block: cur,
                                    msg: format!("Input({i}) beyond params"),
                                })?;
                        *env.get(var).ok_or_else(|| CdfgError::UnboundVariable {
                            block: cur,
                            var: var.clone(),
                        })?
                    }
                    OpKind::Output(i) => {
                        outputs.push((i, operands[0]));
                        operands[0]
                    }
                    OpKind::Load => {
                        let addr = operands[0].rem_euclid(memory.len().max(1) as Value) as usize;
                        memory.get(addr).copied().unwrap_or(0)
                    }
                    OpKind::Store => {
                        let addr = operands[0].rem_euclid(memory.len().max(1) as Value) as usize;
                        if addr < memory.len() {
                            memory[addr] = operands[1];
                        }
                        operands[1]
                    }
                    OpKind::Phi => operands[0],
                    other => other.eval(&operands),
                };
            }
            for (name, node) in &bb.defs {
                env.insert(name.clone(), vals[node.index()]);
            }
            cur = match bb.terminator {
                ControlKind::Jump(t) => t,
                ControlKind::Branch {
                    cond,
                    then_to,
                    else_to,
                } => {
                    if vals[cond.index()] != 0 {
                        then_to
                    } else {
                        else_to
                    }
                }
                ControlKind::Return => return Ok((env, memory, outputs)),
            };
        }
        Err(CdfgError::StepLimit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    /// Build: `i = 0; sum = 0; while (i < n) { sum += i; i += 1; } return`
    /// as a 4-block CDFG (the survey's Fig. 3 CFG shape: entry, header,
    /// body, exit).
    fn counting_loop() -> Cdfg {
        let mut c = Cdfg::new("count");
        // bb0: entry — define i=0, sum=0
        let mut d0 = Dfg::new("bb0");
        let zero = d0.add_node(OpKind::Const(0));
        let b0 = BasicBlock {
            label: "entry".into(),
            params: vec![],
            defs: vec![("i".into(), zero), ("sum".into(), zero)],
            dfg: d0,
            terminator: ControlKind::Jump(BlockId(1)),
        };
        // bb1: header — branch i < n
        let mut d1 = Dfg::new("bb1");
        let i_in = d1.add_node(OpKind::Input(0));
        let n_in = d1.add_node(OpKind::Input(1));
        let lt = d1.add_node(OpKind::Lt);
        d1.connect(i_in, lt, 0);
        d1.connect(n_in, lt, 1);
        let b1 = BasicBlock {
            label: "header".into(),
            params: vec!["i".into(), "n".into()],
            defs: vec![],
            dfg: d1,
            terminator: ControlKind::Branch {
                cond: lt,
                then_to: BlockId(2),
                else_to: BlockId(3),
            },
        };
        // bb2: body — sum += i; i += 1
        let mut d2 = Dfg::new("bb2");
        let i_in = d2.add_node(OpKind::Input(0));
        let s_in = d2.add_node(OpKind::Input(1));
        let one = d2.add_node(OpKind::Const(1));
        let add_s = d2.add_node(OpKind::Add);
        let add_i = d2.add_node(OpKind::Add);
        d2.connect(s_in, add_s, 0);
        d2.connect(i_in, add_s, 1);
        d2.connect(i_in, add_i, 0);
        d2.connect(one, add_i, 1);
        let b2 = BasicBlock {
            label: "body".into(),
            params: vec!["i".into(), "sum".into()],
            defs: vec![("sum".into(), add_s), ("i".into(), add_i)],
            dfg: d2,
            terminator: ControlKind::Jump(BlockId(1)),
        };
        // bb3: exit
        let b3 = BasicBlock {
            label: "exit".into(),
            params: vec![],
            defs: vec![],
            dfg: Dfg::new("bb3"),
            terminator: ControlKind::Return,
        };
        c.blocks.push(b0);
        c.blocks.push(b1);
        c.blocks.push(b2);
        c.blocks.push(b3);
        c
    }

    #[test]
    fn counting_loop_executes() {
        let c = counting_loop();
        c.validate().unwrap();
        let mut env = HashMap::new();
        env.insert("n".to_string(), 5);
        let (env, _, _) = c.execute(env, vec![], 1000).unwrap();
        assert_eq!(env["sum"], 1 + 2 + 3 + 4);
        assert_eq!(env["i"], 5);
    }

    #[test]
    fn unbound_variable_errors() {
        let c = counting_loop();
        // No `n` in the environment.
        let err = c.execute(HashMap::new(), vec![], 1000).unwrap_err();
        assert!(matches!(err, CdfgError::UnboundVariable { .. }));
    }

    #[test]
    fn step_limit_enforced() {
        let c = counting_loop();
        let mut env = HashMap::new();
        env.insert("n".to_string(), 1_000_000);
        let err = c.execute(env, vec![], 10).unwrap_err();
        assert_eq!(err, CdfgError::StepLimit);
    }

    #[test]
    fn bad_terminator_target_detected() {
        let mut c = counting_loop();
        c.blocks[0].terminator = ControlKind::Jump(BlockId(99));
        assert!(matches!(c.validate(), Err(CdfgError::UnknownBlock(_))));
    }

    #[test]
    fn diamond_detection() {
        // branch -> (then, else) -> join
        let mut c = Cdfg::new("ite");
        let mut d0 = Dfg::new("b");
        let x = d0.add_node(OpKind::Input(0));
        c.blocks.push(BasicBlock {
            label: "b".into(),
            params: vec!["x".into()],
            defs: vec![],
            dfg: d0,
            terminator: ControlKind::Branch {
                cond: x,
                then_to: BlockId(1),
                else_to: BlockId(2),
            },
        });
        for l in ["t", "e"] {
            c.blocks.push(BasicBlock {
                label: l.into(),
                params: vec![],
                defs: vec![],
                dfg: Dfg::new(l),
                terminator: ControlKind::Jump(BlockId(3)),
            });
        }
        c.blocks.push(BasicBlock {
            label: "j".into(),
            params: vec![],
            defs: vec![],
            dfg: Dfg::new("j"),
            terminator: ControlKind::Return,
        });
        assert_eq!(
            c.find_diamond(),
            Some((BlockId(0), BlockId(1), BlockId(2), BlockId(3)))
        );
    }
}
