//! Lowering from MiniC AST to IR.
//!
//! * Kernels lower to a single loop-body [`Dfg`]: `inout` parameters
//!   become loop-carried edges, `if`/`else` is if-converted to `Select`
//!   chains (the *partial predication* scheme of the survey's
//!   Section III-B1), and predicated stores become load-modify-write
//!   sequences so that the flat data-flow graph preserves branch
//!   semantics.
//! * Funcs lower to a [`Cdfg`] with one basic block per straight-line
//!   region, block parameters discovered on first read, and definitions
//!   recorded for the environment-passing execution model.

use super::ast::*;
use crate::cdfg::{BasicBlock, BlockId, Cdfg, ControlKind};
use crate::dfg::{Dfg, NodeId};
use crate::op::{OpKind, Value};
use std::collections::HashMap;
use std::fmt;

/// Lowering failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    UnboundVariable(String),
    /// `while`/`return` used inside a kernel.
    ControlFlowInKernel(&'static str),
    OutputNeverAssigned(String),
    UnknownBuiltin(String),
    BadArity {
        builtin: String,
        want: usize,
        got: usize,
    },
    /// `delay(x, k)` with non-constant or non-positive `k`.
    BadDelay,
    UnreachableCode,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnboundVariable(v) => write!(f, "read of unbound variable `{v}`"),
            LowerError::ControlFlowInKernel(k) => {
                write!(f, "`{k}` is not allowed inside a kernel body")
            }
            LowerError::OutputNeverAssigned(v) => {
                write!(f, "output parameter `{v}` is never assigned")
            }
            LowerError::UnknownBuiltin(b) => write!(f, "unknown builtin `{b}`"),
            LowerError::BadArity { builtin, want, got } => {
                write!(f, "`{builtin}` takes {want} arguments, got {got}")
            }
            LowerError::BadDelay => write!(f, "`delay` needs a positive integer literal count"),
            LowerError::UnreachableCode => write!(f, "statements after `return`"),
        }
    }
}

impl std::error::Error for LowerError {}

/// A value during kernel lowering: a node plus an iteration delay
/// (non-zero only for `delay(x, k)` reads and carried placeholders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Val {
    node: NodeId,
    delay: u32,
}

impl Val {
    fn now(node: NodeId) -> Self {
        Val { node, delay: 0 }
    }
}

/// Result of kernel compilation.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    pub dfg: Dfg,
    /// Input stream names, indexed by stream id.
    pub inputs: Vec<String>,
    /// Output stream names, indexed by stream id.
    pub outputs: Vec<String>,
}

struct KernelLowerer {
    dfg: Dfg,
    env: HashMap<String, Val>,
    consts: HashMap<Value, NodeId>,
    /// `inout` carried state: name → (placeholder node, init value).
    carried: Vec<(String, NodeId, Value)>,
}

impl KernelLowerer {
    fn constant(&mut self, v: Value) -> NodeId {
        if let Some(&n) = self.consts.get(&v) {
            return n;
        }
        let n = self.dfg.add_node(OpKind::Const(v));
        self.consts.insert(v, n);
        n
    }

    /// Connect `val` into `dst.port`, materialising the delay as a
    /// carried edge (zero-filled init; fixed up later for placeholders).
    fn wire(&mut self, val: Val, dst: NodeId, port: u8) {
        if val.delay == 0 {
            self.dfg.connect(val.node, dst, port);
        } else {
            self.dfg
                .connect_carried(val.node, dst, port, val.delay, vec![0; val.delay as usize]);
        }
    }

    fn binary(&mut self, op: OpKind, a: Val, b: Val) -> Val {
        let n = self.dfg.add_node(op);
        self.wire(a, n, 0);
        self.wire(b, n, 1);
        Val::now(n)
    }

    fn unary(&mut self, op: OpKind, a: Val) -> Val {
        let n = self.dfg.add_node(op);
        self.wire(a, n, 0);
        Val::now(n)
    }

    fn select(&mut self, c: Val, a: Val, b: Val) -> Val {
        let n = self.dfg.add_node(OpKind::Select);
        self.wire(c, n, 0);
        self.wire(a, n, 1);
        self.wire(b, n, 2);
        Val::now(n)
    }

    fn expr(&mut self, e: &Expr) -> Result<Val, LowerError> {
        match e {
            Expr::Int(v) => Ok(Val::now(self.constant(*v))),
            Expr::Var(name) => self
                .env
                .get(name)
                .copied()
                .ok_or_else(|| LowerError::UnboundVariable(name.clone())),
            Expr::Unary(op, inner) => {
                let v = self.expr(inner)?;
                Ok(match op {
                    UnOp::Neg => self.unary(OpKind::Neg, v),
                    UnOp::BitNot => self.unary(OpKind::Not, v),
                    UnOp::Not => {
                        let zero = Val::now(self.constant(0));
                        self.binary(OpKind::Eq, v, zero)
                    }
                })
            }
            Expr::Binary(op, a, b) => {
                let (a, b) = (self.expr(a)?, self.expr(b)?);
                let kind = match op {
                    BinOp::Add => OpKind::Add,
                    BinOp::Sub => OpKind::Sub,
                    BinOp::Mul => OpKind::Mul,
                    BinOp::Div => OpKind::Div,
                    BinOp::Rem => OpKind::Rem,
                    BinOp::And => OpKind::And,
                    BinOp::Or => OpKind::Or,
                    BinOp::Xor => OpKind::Xor,
                    BinOp::Shl => OpKind::Shl,
                    BinOp::Shr => OpKind::Shr,
                    BinOp::Eq => OpKind::Eq,
                    BinOp::Ne => OpKind::Ne,
                    BinOp::Lt => OpKind::Lt,
                    BinOp::Le => OpKind::Le,
                    BinOp::Gt => OpKind::Gt,
                    BinOp::Ge => OpKind::Ge,
                    BinOp::LogAnd | BinOp::LogOr => {
                        // Normalise both sides to booleans, then bit-op.
                        let zero = Val::now(self.constant(0));
                        let an = self.binary(OpKind::Ne, a, zero);
                        let bn = self.binary(OpKind::Ne, b, zero);
                        let k = if *op == BinOp::LogAnd {
                            OpKind::And
                        } else {
                            OpKind::Or
                        };
                        return Ok(self.binary(k, an, bn));
                    }
                };
                Ok(self.binary(kind, a, b))
            }
            Expr::Ternary(c, a, b) => {
                let (c, a, b) = (self.expr(c)?, self.expr(a)?, self.expr(b)?);
                Ok(self.select(c, a, b))
            }
            Expr::MemLoad(addr) => {
                let a = self.expr(addr)?;
                Ok(self.unary(OpKind::Load, a))
            }
            Expr::Call(name, args) => self.builtin(name, args),
        }
    }

    fn builtin(&mut self, name: &str, args: &[Expr]) -> Result<Val, LowerError> {
        let arity = |want: usize| -> Result<(), LowerError> {
            if args.len() == want {
                Ok(())
            } else {
                Err(LowerError::BadArity {
                    builtin: name.to_string(),
                    want,
                    got: args.len(),
                })
            }
        };
        match name {
            "abs" => {
                arity(1)?;
                let v = self.expr(&args[0])?;
                Ok(self.unary(OpKind::Abs, v))
            }
            "min" | "max" => {
                arity(2)?;
                let a = self.expr(&args[0])?;
                let b = self.expr(&args[1])?;
                let k = if name == "min" {
                    OpKind::Min
                } else {
                    OpKind::Max
                };
                Ok(self.binary(k, a, b))
            }
            "select" => {
                arity(3)?;
                let c = self.expr(&args[0])?;
                let a = self.expr(&args[1])?;
                let b = self.expr(&args[2])?;
                Ok(self.select(c, a, b))
            }
            "delay" => {
                arity(2)?;
                let k = match &args[1] {
                    Expr::Int(v) if *v > 0 => *v as u32,
                    _ => return Err(LowerError::BadDelay),
                };
                let mut v = self.expr(&args[0])?;
                v.delay += k;
                Ok(v)
            }
            other => Err(LowerError::UnknownBuiltin(other.to_string())),
        }
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), LowerError> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::Assign { name, value } => {
                let v = self.expr(value)?;
                self.env.insert(name.clone(), v);
                Ok(())
            }
            Stmt::MemStore { addr, value } => {
                let a = self.expr(addr)?;
                let v = self.expr(value)?;
                let st = self.dfg.add_node(OpKind::Store);
                self.wire(a, st, 0);
                self.wire(v, st, 1);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond)?;
                let before = self.env.clone();

                self.stmts(then_body)?;
                let then_env = std::mem::replace(&mut self.env, before.clone());

                self.stmts(else_body)?;
                let else_env = std::mem::replace(&mut self.env, before.clone());

                // Merge: any variable whose binding differs gets a Select.
                let mut names: Vec<&String> = then_env.keys().chain(else_env.keys()).collect();
                names.sort();
                names.dedup();
                for name in names {
                    let t = then_env.get(name).or_else(|| before.get(name));
                    let e = else_env.get(name).or_else(|| before.get(name));
                    match (t, e) {
                        (Some(&t), Some(&e)) if t != e => {
                            let merged = self.select(c, t, e);
                            self.env.insert(name.clone(), merged);
                        }
                        (Some(&t), Some(_)) => {
                            self.env.insert(name.clone(), t);
                        }
                        // Defined on one path only and not before: leave
                        // unbound — reading it later errors, which is the
                        // right diagnosis for a maybe-uninitialised var.
                        _ => {}
                    }
                }
                // Predicated stores inside the branches were emitted
                // unconditionally by `stmt`; `lower_if_stores` guards them.
                Ok(())
            }
            Stmt::Seq(stmts) => self.stmts(stmts),
            Stmt::While { .. } => Err(LowerError::ControlFlowInKernel("while")),
            Stmt::Return => Err(LowerError::ControlFlowInKernel("return")),
        }
    }
}

/// Recursively guard `mem[..] = v` statements under `if` by rewriting
/// them to `mem[a] = cond ? v : mem[a]` *before* lowering, so the flat
/// DFG keeps branch semantics. Runs on the AST.
fn guard_stores(body: &mut [Stmt]) {
    fn wrap(body: &mut [Stmt], guard: &Expr) {
        for s in body.iter_mut() {
            match s {
                Stmt::MemStore { addr, value } => {
                    *value = Expr::Ternary(
                        Box::new(guard.clone()),
                        Box::new(value.clone()),
                        Box::new(Expr::MemLoad(Box::new(addr.clone()))),
                    );
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    // Inner stores already carry their own (possibly
                    // nested) guards; conjoin the outer one on top.
                    wrap(then_body, guard);
                    wrap(else_body, guard);
                }
                Stmt::Seq(stmts) => wrap(stmts, guard),
                _ => {}
            }
        }
    }
    for s in body.iter_mut() {
        match s {
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                guard_stores(then_body);
                guard_stores(else_body);
                wrap(then_body, cond);
                let neg = Expr::Unary(UnOp::Not, Box::new(cond.clone()));
                wrap(else_body, &neg);
            }
            Stmt::Seq(stmts) => guard_stores(stmts),
            _ => {}
        }
    }
}

/// Lower a kernel definition to a loop-body DFG.
pub fn lower_kernel(def: &KernelDef) -> Result<CompiledKernel, LowerError> {
    let mut lower = KernelLowerer {
        dfg: Dfg::new(def.name.clone()),
        env: HashMap::new(),
        consts: HashMap::new(),
        carried: Vec::new(),
    };

    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for p in &def.params {
        match p.dir {
            ParamDir::In => {
                let n = lower
                    .dfg
                    .add_named(OpKind::Input(inputs.len() as u32), p.name.clone());
                inputs.push(p.name.clone());
                lower.env.insert(p.name.clone(), Val::now(n));
            }
            ParamDir::Out => {
                outputs.push(p.name.clone());
            }
            ParamDir::InOut => {
                // Placeholder read of the previous iteration's value.
                let ph = lower
                    .dfg
                    .add_named(OpKind::Route, format!("{}@prev", p.name));
                lower.carried.push((p.name.clone(), ph, p.init));
                lower.env.insert(p.name.clone(), Val::now(ph));
                outputs.push(p.name.clone());
            }
        }
    }

    let mut body = def.body.clone();
    guard_stores(&mut body);
    lower.stmts(&body)?;

    // Emit outputs.
    for (stream, name) in outputs.iter().enumerate() {
        let v = *lower
            .env
            .get(name)
            .ok_or_else(|| LowerError::OutputNeverAssigned(name.clone()))?;
        let o = lower
            .dfg
            .add_named(OpKind::Output(stream as u32), name.clone());
        lower.wire(v, o, 0);
    }

    // Resolve carried placeholders: every edge reading `ph` becomes a
    // carried edge from the iteration-final producer, distance +1.
    let mut dfg = lower.dfg;
    for (name, ph, init) in &lower.carried {
        let producer = lower.env.get(name).copied().unwrap_or(Val::now(*ph));
        // A kernel that never reassigns its inout var carries it through
        // unchanged; route the placeholder to itself is meaningless, so
        // treat the placeholder itself as producer only if unassigned.
        let (src, extra_delay) = if producer.node == *ph {
            (*ph, producer.delay)
        } else {
            (producer.node, producer.delay)
        };
        for eid in dfg.edge_ids().collect::<Vec<_>>() {
            let e = dfg.edge(eid);
            if e.src == *ph && src != *ph {
                let dist = e.dist + 1 + extra_delay;
                let mut init_vals = vec![*init];
                init_vals.extend(std::iter::repeat_n(*init, (dist - 1) as usize));
                let em = dfg.edge_mut(eid);
                em.src = src;
                em.dist = dist;
                em.init = init_vals;
            }
        }
    }
    // Drop now-unused placeholders (only those actually replaced).
    let dead: Vec<NodeId> = lower
        .carried
        .iter()
        .filter(|(name, ph, _)| lower.env.get(name).map(|v| v.node != *ph).unwrap_or(false))
        .map(|(_, ph, _)| *ph)
        .collect();
    if !dead.is_empty() {
        dfg.retain_nodes(|id| !dead.contains(&id));
    }

    Ok(CompiledKernel {
        dfg,
        inputs,
        outputs,
    })
}

// ---------------------------------------------------------------------
// Func → CDFG lowering
// ---------------------------------------------------------------------

struct BlockBuilder {
    label: String,
    dfg: Dfg,
    params: Vec<String>,
    env: HashMap<String, NodeId>,
    defs: Vec<String>,
    consts: HashMap<Value, NodeId>,
}

impl BlockBuilder {
    fn new(label: impl Into<String>) -> Self {
        let label = label.into();
        BlockBuilder {
            dfg: Dfg::new(label.clone()),
            label,
            params: Vec::new(),
            env: HashMap::new(),
            defs: Vec::new(),
            consts: HashMap::new(),
        }
    }

    fn read(&mut self, name: &str) -> NodeId {
        if let Some(&n) = self.env.get(name) {
            return n;
        }
        let idx = self.params.len() as u32;
        let n = self.dfg.add_named(OpKind::Input(idx), name.to_string());
        self.params.push(name.to_string());
        self.env.insert(name.to_string(), n);
        n
    }

    fn write(&mut self, name: &str, node: NodeId) {
        self.env.insert(name.to_string(), node);
        if !self.defs.contains(&name.to_string()) {
            self.defs.push(name.to_string());
        }
    }

    fn constant(&mut self, v: Value) -> NodeId {
        if let Some(&n) = self.consts.get(&v) {
            return n;
        }
        let n = self.dfg.add_node(OpKind::Const(v));
        self.consts.insert(v, n);
        n
    }

    fn finish(self, terminator: ControlKind) -> BasicBlock {
        let defs = self
            .defs
            .iter()
            .map(|name| (name.clone(), self.env[name]))
            .collect();
        BasicBlock {
            label: self.label,
            params: self.params,
            defs,
            dfg: self.dfg,
            terminator,
        }
    }
}

struct FuncLowerer {
    blocks: Vec<Option<BasicBlock>>,
    cur: BlockBuilder,
    cur_id: BlockId,
    terminated: bool,
}

impl FuncLowerer {
    fn reserve(&mut self, label: &str) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(None);
        let _ = label;
        id
    }

    fn seal(&mut self, terminator: ControlKind, next: Option<(BlockId, String)>) {
        let finished = std::mem::replace(
            &mut self.cur,
            BlockBuilder::new(next.as_ref().map(|(_, l)| l.clone()).unwrap_or_default()),
        )
        .finish(terminator);
        self.blocks[self.cur_id.index()] = Some(finished);
        if let Some((id, _)) = next {
            self.cur_id = id;
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<NodeId, LowerError> {
        match e {
            Expr::Int(v) => Ok(self.cur.constant(*v)),
            Expr::Var(name) => Ok(self.cur.read(name)),
            Expr::Unary(op, inner) => {
                let v = self.expr(inner)?;
                Ok(match op {
                    UnOp::Neg => {
                        let n = self.cur.dfg.add_node(OpKind::Neg);
                        self.cur.dfg.connect(v, n, 0);
                        n
                    }
                    UnOp::BitNot => {
                        let n = self.cur.dfg.add_node(OpKind::Not);
                        self.cur.dfg.connect(v, n, 0);
                        n
                    }
                    UnOp::Not => {
                        let z = self.cur.constant(0);
                        let n = self.cur.dfg.add_node(OpKind::Eq);
                        self.cur.dfg.connect(v, n, 0);
                        self.cur.dfg.connect(z, n, 1);
                        n
                    }
                })
            }
            Expr::Binary(op, a, b) => {
                let (a, b) = (self.expr(a)?, self.expr(b)?);
                let kind = match op {
                    BinOp::Add => OpKind::Add,
                    BinOp::Sub => OpKind::Sub,
                    BinOp::Mul => OpKind::Mul,
                    BinOp::Div => OpKind::Div,
                    BinOp::Rem => OpKind::Rem,
                    BinOp::And => OpKind::And,
                    BinOp::Or => OpKind::Or,
                    BinOp::Xor => OpKind::Xor,
                    BinOp::Shl => OpKind::Shl,
                    BinOp::Shr => OpKind::Shr,
                    BinOp::Eq => OpKind::Eq,
                    BinOp::Ne => OpKind::Ne,
                    BinOp::Lt => OpKind::Lt,
                    BinOp::Le => OpKind::Le,
                    BinOp::Gt => OpKind::Gt,
                    BinOp::Ge => OpKind::Ge,
                    BinOp::LogAnd => OpKind::And,
                    BinOp::LogOr => OpKind::Or,
                };
                let n = self.cur.dfg.add_node(kind);
                self.cur.dfg.connect(a, n, 0);
                self.cur.dfg.connect(b, n, 1);
                Ok(n)
            }
            Expr::Ternary(c, a, b) => {
                let (c, a, b) = (self.expr(c)?, self.expr(a)?, self.expr(b)?);
                let n = self.cur.dfg.add_node(OpKind::Select);
                self.cur.dfg.connect(c, n, 0);
                self.cur.dfg.connect(a, n, 1);
                self.cur.dfg.connect(b, n, 2);
                Ok(n)
            }
            Expr::MemLoad(addr) => {
                let a = self.expr(addr)?;
                let n = self.cur.dfg.add_node(OpKind::Load);
                self.cur.dfg.connect(a, n, 0);
                Ok(n)
            }
            Expr::Call(name, args) => match (name.as_str(), args.len()) {
                ("abs", 1) => {
                    let v = self.expr(&args[0])?;
                    let n = self.cur.dfg.add_node(OpKind::Abs);
                    self.cur.dfg.connect(v, n, 0);
                    Ok(n)
                }
                ("min", 2) | ("max", 2) => {
                    let a = self.expr(&args[0])?;
                    let b = self.expr(&args[1])?;
                    let k = if name == "min" {
                        OpKind::Min
                    } else {
                        OpKind::Max
                    };
                    let n = self.cur.dfg.add_node(k);
                    self.cur.dfg.connect(a, n, 0);
                    self.cur.dfg.connect(b, n, 1);
                    Ok(n)
                }
                ("select", 3) => {
                    let c = self.expr(&args[0])?;
                    let a = self.expr(&args[1])?;
                    let b = self.expr(&args[2])?;
                    let n = self.cur.dfg.add_node(OpKind::Select);
                    self.cur.dfg.connect(c, n, 0);
                    self.cur.dfg.connect(a, n, 1);
                    self.cur.dfg.connect(b, n, 2);
                    Ok(n)
                }
                _ => Err(LowerError::UnknownBuiltin(name.clone())),
            },
        }
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), LowerError> {
        for s in body {
            if self.terminated {
                return Err(LowerError::UnreachableCode);
            }
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::Assign { name, value } => {
                let v = self.expr(value)?;
                self.cur.write(name, v);
                Ok(())
            }
            Stmt::MemStore { addr, value } => {
                let a = self.expr(addr)?;
                let v = self.expr(value)?;
                let st = self.cur.dfg.add_node(OpKind::Store);
                self.cur.dfg.connect(a, st, 0);
                self.cur.dfg.connect(v, st, 1);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond)?;
                let then_id = self.reserve("then");
                let else_id = self.reserve("else");
                let join_id = self.reserve("join");
                self.seal(
                    ControlKind::Branch {
                        cond: c,
                        then_to: then_id,
                        else_to: else_id,
                    },
                    Some((then_id, "then".into())),
                );
                self.stmts(then_body)?;
                let then_terminated = std::mem::take(&mut self.terminated);
                self.seal(
                    if then_terminated {
                        ControlKind::Return
                    } else {
                        ControlKind::Jump(join_id)
                    },
                    Some((else_id, "else".into())),
                );
                self.stmts(else_body)?;
                let else_terminated = std::mem::take(&mut self.terminated);
                self.seal(
                    if else_terminated {
                        ControlKind::Return
                    } else {
                        ControlKind::Jump(join_id)
                    },
                    Some((join_id, "join".into())),
                );
                Ok(())
            }
            Stmt::While { cond, body } => {
                let header_id = self.reserve("header");
                let body_id = self.reserve("body");
                let exit_id = self.reserve("exit");
                self.seal(
                    ControlKind::Jump(header_id),
                    Some((header_id, "header".into())),
                );
                let c = self.expr(cond)?;
                self.seal(
                    ControlKind::Branch {
                        cond: c,
                        then_to: body_id,
                        else_to: exit_id,
                    },
                    Some((body_id, "body".into())),
                );
                self.stmts(body)?;
                if self.terminated {
                    self.terminated = false;
                    self.seal(ControlKind::Return, Some((exit_id, "exit".into())));
                } else {
                    self.seal(ControlKind::Jump(header_id), Some((exit_id, "exit".into())));
                }
                Ok(())
            }
            Stmt::Seq(stmts) => self.stmts(stmts),
            Stmt::Return => {
                self.terminated = true;
                Ok(())
            }
        }
    }
}

/// Lower a `func` definition to a CDFG. Function arguments are simply
/// free variables of the entry block, bound by the caller's initial
/// environment at execution time.
pub fn lower_func(def: &FuncDef) -> Result<Cdfg, LowerError> {
    let mut fl = FuncLowerer {
        blocks: vec![None],
        cur: BlockBuilder::new("entry"),
        cur_id: BlockId(0),
        terminated: false,
    };
    fl.stmts(&def.body)?;
    fl.terminated = false;
    fl.seal(ControlKind::Return, None);

    let mut cdfg = Cdfg::new(def.name.clone());
    for b in fl.blocks {
        cdfg.blocks
            .push(b.expect("all reserved blocks must be sealed"));
    }
    cdfg.entry = BlockId(0);
    Ok(cdfg)
}

#[cfg(test)]
mod tests {
    use super::super::{compile_func, compile_kernel};
    use crate::interp::{Interpreter, Tape};
    use std::collections::HashMap;

    #[test]
    fn dot_product_kernel_matches_builder() {
        let k = compile_kernel("kernel dot(in a, in b, inout acc) { acc = acc + a * b; }").unwrap();
        k.dfg.validate().unwrap();
        let tape = Tape::generate(2, 4, |s, i| if s == 0 { (i + 1) as i64 } else { 2 });
        let r = Interpreter::run(&k.dfg, 4, &tape).unwrap();
        assert_eq!(r.outputs[0], vec![2, 6, 12, 20]);
    }

    #[test]
    fn inout_init_value_respected() {
        let k = compile_kernel("kernel c(inout acc = 100, in x) { acc += x; }").unwrap();
        let tape = Tape::generate(1, 3, |_, _| 1);
        let r = Interpreter::run(&k.dfg, 3, &tape).unwrap();
        assert_eq!(r.outputs[0], vec![101, 102, 103]);
    }

    #[test]
    fn if_else_is_if_converted() {
        let k = compile_kernel(
            "kernel t(in x, out y) { if (x > 10) { y = x - 10; } else { y = 10 - x; } }",
        )
        .unwrap();
        k.dfg.validate().unwrap();
        // No control flow survives: single DFG with a Select.
        assert!(k
            .dfg
            .nodes()
            .any(|(_, n)| n.op == crate::op::OpKind::Select));
        let tape = Tape {
            inputs: vec![vec![25, 3]],
            memory: vec![],
        };
        let r = Interpreter::run(&k.dfg, 2, &tape).unwrap();
        assert_eq!(r.outputs[0], vec![15, 7]);
    }

    #[test]
    fn nested_if_composes_selects() {
        let k = compile_kernel(
            "kernel t(in x, out y) {
                var v = 0;
                if (x > 0) { if (x > 10) { v = 2; } else { v = 1; } } else { v = -1; }
                y = v;
            }",
        )
        .unwrap();
        let tape = Tape {
            inputs: vec![vec![20, 5, -7]],
            memory: vec![],
        };
        let r = Interpreter::run(&k.dfg, 3, &tape).unwrap();
        assert_eq!(r.outputs[0], vec![2, 1, -1]);
    }

    #[test]
    fn guarded_store_preserves_memory_semantics() {
        let k = compile_kernel(
            "kernel t(in x, in i, out y) {
                if (x > 0) { mem[i] = x; }
                y = x;
            }",
        )
        .unwrap();
        let tape = Tape {
            inputs: vec![vec![5, -3], vec![0, 1]],
            memory: vec![9, 9],
        };
        let r = Interpreter::run(&k.dfg, 2, &tape).unwrap();
        assert_eq!(r.memory, vec![5, 9]); // second store suppressed
    }

    #[test]
    fn delay_builtin_reads_past_inputs() {
        let k = compile_kernel("kernel d(in x, out y) { y = x + delay(x, 1); }").unwrap();
        let tape = Tape {
            inputs: vec![vec![1, 2, 3, 4]],
            memory: vec![],
        };
        let r = Interpreter::run(&k.dfg, 4, &tape).unwrap();
        assert_eq!(r.outputs[0], vec![1, 3, 5, 7]);
    }

    #[test]
    fn output_never_assigned_is_an_error() {
        let err = compile_kernel("kernel t(in x, out y) { var z = x; }").unwrap_err();
        assert!(err.to_string().contains("never assigned"));
    }

    #[test]
    fn while_in_kernel_rejected() {
        let err = compile_kernel("kernel t(in x, out y) { while (x) { y = 1; } }").unwrap_err();
        assert!(err.to_string().contains("not allowed"));
    }

    #[test]
    fn unbound_variable_rejected() {
        let err = compile_kernel("kernel t(out y) { y = q + 1; }").unwrap_err();
        assert!(err.to_string().contains("unbound"));
    }

    #[test]
    fn func_while_loop_executes() {
        let c = compile_func(
            "func triangle(n) {
                var i = 0;
                var sum = 0;
                while (i < n) { sum += i; i += 1; }
                return;
            }",
        )
        .unwrap();
        c.validate().unwrap();
        let mut env = HashMap::new();
        env.insert("n".to_string(), 6_i64);
        let (env, _, _) = c.execute(env, vec![], 10_000).unwrap();
        assert_eq!(env["sum"], 15);
    }

    #[test]
    fn func_if_else_blocks() {
        let c = compile_func(
            "func f(x) {
                var y = 0;
                if (x > 0) { y = 1; } else { y = 2; }
                var z = y * 10;
                return;
            }",
        )
        .unwrap();
        c.validate().unwrap();
        let mut env = HashMap::new();
        env.insert("x".to_string(), -1_i64);
        let (env, _, _) = c.execute(env, vec![], 100).unwrap();
        assert_eq!(env["z"], 20);
        assert!(c.find_diamond().is_some());
    }

    #[test]
    fn func_loop_structure_discovered() {
        use crate::cdfg::ControlKind;
        let c = compile_func("func f(n) { var i = 0; while (i < n) { i += 1; } return; }").unwrap();
        // Blocks are emitted in source order, so the `while` is the one
        // terminator that targets its own block or an earlier one.
        let back_edges = c
            .block_ids()
            .filter(|&b| match c.block(b).terminator {
                ControlKind::Jump(t) => t <= b,
                ControlKind::Branch {
                    then_to, else_to, ..
                } => then_to <= b || else_to <= b,
                ControlKind::Return => false,
            })
            .count();
        assert_eq!(back_edges, 1);
    }

    #[test]
    fn for_loop_executes_in_funcs() {
        let c = compile_func(
            "func squares(n) {
                var total = 0;
                for (i = 0; i < n; i += 1) { total += i * i; }
                return;
            }",
        )
        .unwrap();
        c.validate().unwrap();
        let mut env = HashMap::new();
        env.insert("n".to_string(), 5_i64);
        let (env, _, _) = c.execute(env, vec![], 10_000).unwrap();
        assert_eq!(env["total"], 1 + 4 + 9 + 16);
    }

    #[test]
    fn statements_after_return_rejected() {
        let err = compile_func("func f(x) { return; var y = 1; }").unwrap_err();
        assert!(err.to_string().contains("after"));
    }
}
