//! Reference interpreter for loop-body DFGs.
//!
//! Executes `iters` iterations of a DFG with loop-carried edges,
//! producing golden outputs against which the cycle-accurate CGRA
//! simulator (and therefore every mapper) is verified.

use crate::dfg::Dfg;
use crate::op::{OpKind, Value};

/// External state of a kernel run: per-stream inputs and a data memory.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    /// `inputs[stream][iteration]`.
    pub inputs: Vec<Vec<Value>>,
    /// Flat data memory. Loads/stores wrap addresses into this range.
    pub memory: Vec<Value>,
}

impl Tape {
    /// A tape with `streams` input streams of length `iters`, filled by
    /// `f(stream, iter)`.
    pub fn generate(streams: usize, iters: usize, f: impl Fn(usize, usize) -> Value) -> Self {
        Tape {
            inputs: (0..streams)
                .map(|s| (0..iters).map(|i| f(s, i)).collect())
                .collect(),
            memory: Vec::new(),
        }
    }

    pub fn with_memory(mut self, memory: Vec<Value>) -> Self {
        self.memory = memory;
        self
    }
}

/// Result of interpreting a DFG loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// `outputs[stream][iteration]` for every `Output(stream)` node.
    pub outputs: Vec<Vec<Value>>,
    /// Final memory image.
    pub memory: Vec<Value>,
}

/// Interpretation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The DFG failed structural validation.
    Invalid(String),
    /// An `Input(i)` stream is missing or too short.
    MissingInput { stream: u32, iteration: usize },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Invalid(m) => write!(f, "invalid DFG: {m}"),
            InterpError::MissingInput { stream, iteration } => {
                write!(
                    f,
                    "input stream {stream} has no value for iteration {iteration}"
                )
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// The reference interpreter.
pub struct Interpreter;

impl Interpreter {
    /// Run `iters` iterations of `dfg` over `tape`.
    ///
    /// Within an iteration nodes evaluate in topological order of the
    /// distance-0 subgraph; memory operations therefore execute in a
    /// deterministic order that respects all explicit dependence edges.
    /// A consumer of a distance-`d` edge at iteration `i < d` reads
    /// `edge.init[i]`; from iteration `d` on it reads the producer's
    /// value of iteration `i - d`.
    pub fn run(dfg: &Dfg, iters: usize, tape: &Tape) -> Result<RunResult, InterpError> {
        dfg.validate()
            .map_err(|e| InterpError::Invalid(e.to_string()))?;
        let order = dfg.topo_order().expect("validated");
        let n = dfg.node_count();

        let max_dist = dfg.edges().map(|(_, e)| e.dist as usize).max().unwrap_or(0);
        let ring = max_dist + 1;
        // history[node][iter % ring]
        let mut history = vec![vec![0 as Value; ring]; n];
        let mut memory = tape.memory.clone();

        let out_streams = dfg
            .node_ids()
            .filter_map(|id| match dfg.op(id) {
                OpKind::Output(s) => Some(s as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut outputs = vec![Vec::with_capacity(iters); out_streams];

        for it in 0..iters {
            for &id in &order {
                let op = dfg.op(id);
                let arity = op.ports().count();
                let mut operands = [0 as Value; 3];
                for p in 0..arity as u8 {
                    let (_, e) = dfg.operand(id, p).expect("validated");
                    operands[p as usize] = if e.dist == 0 {
                        history[e.src.index()][it % ring]
                    } else if it < e.dist as usize {
                        e.init[it]
                    } else {
                        history[e.src.index()][(it - e.dist as usize) % ring]
                    };
                }
                let operands = &operands[..arity];
                let v = match op {
                    OpKind::Input(s) => *tape
                        .inputs
                        .get(s as usize)
                        .and_then(|st| st.get(it))
                        .ok_or(InterpError::MissingInput {
                            stream: s,
                            iteration: it,
                        })?,
                    OpKind::Output(s) => {
                        outputs[s as usize].push(operands[0]);
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
                history[id.index()][it % ring] = v;
            }
        }
        Ok(RunResult { outputs, memory })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    #[test]
    fn dot_product_accumulates() {
        let g = kernels::dot_product();
        let tape = Tape::generate(2, 4, |s, i| if s == 0 { (i + 1) as Value } else { 2 });
        let r = Interpreter::run(&g, 4, &tape).unwrap();
        // acc after each iter: 2, 6, 12, 20
        assert_eq!(r.outputs[0], vec![2, 6, 12, 20]);
    }

    #[test]
    fn carried_distance_two_uses_init() {
        use crate::dfg::Dfg;
        use crate::op::OpKind;
        // fib-like: x[i] = x[i-1] + x[i-2], init 1, 1 — classic distance mix.
        let mut g = Dfg::new("fib");
        let add = g.add_node(OpKind::Add);
        g.connect_carried(add, add, 0, 1, vec![1]);
        g.connect_carried(add, add, 1, 2, vec![1, 1]);
        let o = g.add_node(OpKind::Output(0));
        g.connect(add, o, 0);
        g.validate().unwrap();
        let r = Interpreter::run(&g, 6, &Tape::default()).unwrap();
        // i=0: init(1)+init(1)=2; i=1: x0(2)+init(1)=3; i=2: 3+2=5; ...
        assert_eq!(r.outputs[0], vec![2, 3, 5, 8, 13, 21]);
    }

    #[test]
    fn memory_store_then_load() {
        use crate::dfg::Dfg;
        use crate::op::OpKind;
        // mem[i] = i*i, then y = mem[i] (same iteration, dependence via edge)
        let mut g = Dfg::new("sq");
        let i = g.add_node(OpKind::Input(0));
        let sq = g.add_node(OpKind::Mul);
        g.connect(i, sq, 0);
        g.connect(i, sq, 1);
        let st = g.add_node(OpKind::Store);
        g.connect(i, st, 0);
        g.connect(sq, st, 1);
        // Load reads the address fed through the store's result path to
        // order it after the store: ld(addr = st_result? no) — use the
        // store output as data dependence: ld addr = i, but we must
        // sequence via topo order; connect st -> out too.
        let ld = g.add_node(OpKind::Load);
        let _ = ld;
        // Simpler: out = store result
        let o = g.add_node(OpKind::Output(0));
        g.connect(st, o, 0);
        // Give the load an operand so validation passes, and order it
        // after the store by feeding it the store's value as address.
        g.connect(st, ld, 0);
        g.validate().unwrap();
        let tape = Tape::generate(1, 3, |_, i| i as Value).with_memory(vec![0; 16]);
        let r = Interpreter::run(&g, 3, &tape).unwrap();
        assert_eq!(r.outputs[0], vec![0, 1, 4]);
        assert_eq!(r.memory[1], 1);
        assert_eq!(r.memory[2], 4);
    }

    #[test]
    fn missing_input_reported() {
        let g = kernels::dot_product();
        let tape = Tape::generate(1, 4, |_, i| i as Value); // stream 1 missing
        let err = Interpreter::run(&g, 4, &tape).unwrap_err();
        assert!(matches!(err, InterpError::MissingInput { stream: 1, .. }));
    }

    #[test]
    fn short_input_reported() {
        let g = kernels::dot_product();
        let tape = Tape::generate(2, 2, |_, _| 1);
        let err = Interpreter::run(&g, 4, &tape).unwrap_err();
        assert!(matches!(
            err,
            InterpError::MissingInput { iteration: 2, .. }
        ));
    }

    #[test]
    fn zero_iterations_is_empty() {
        let g = kernels::dot_product();
        let r = Interpreter::run(&g, 0, &Tape::generate(2, 0, |_, _| 0)).unwrap();
        assert_eq!(r.outputs[0], Vec::<Value>::new());
    }
}
