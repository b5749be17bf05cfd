//! Operation kinds supported by the IR and by CGRA processing elements.
//!
//! The operation set follows the common denominator of the CGRA-mapping
//! literature: word-level integer ALU operations, multiplication,
//! comparisons, a select (the workhorse of predicated execution), memory
//! accesses, and the pseudo-operations needed by graph-based mappers
//! (`Route` copy nodes) and by CDFG lowering (`Phi`).

use serde::Serialize;
use std::fmt;

/// The scalar value type carried on all DFG edges.
///
/// CGRAs in the surveyed literature are word-level machines; we model the
/// word as a signed 64-bit integer so that every 8/16/32-bit kernel from
/// the benchmark suites evaluates without overflow surprises.
pub type Value = i64;

/// Number of input operands an operation consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PortCount {
    /// Exactly `n` ordered operands.
    Fixed(u8),
    /// `Output` sinks accept exactly one; kept separate for clarity.
    One,
}

impl PortCount {
    /// The concrete operand count.
    #[inline]
    pub fn count(self) -> usize {
        match self {
            PortCount::Fixed(n) => n as usize,
            PortCount::One => 1,
        }
    }
}

/// Every operation a DFG node can perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum OpKind {
    /// Compile-time constant, materialised in the PE configuration.
    Const(Value),
    /// Per-iteration input stream, identified by an index into the tape.
    Input(u32),
    /// Per-iteration output stream, identified by an index into the tape.
    Output(u32),
    Add,
    Sub,
    Mul,
    /// Signed division; division by zero yields 0 (hardware-saturating
    /// semantics, matching the reference interpreters of e.g. CGRA-ME).
    Div,
    /// Remainder; remainder by zero yields 0.
    Rem,
    And,
    Or,
    Xor,
    /// Logical shift left (shift amount masked to 0..=63).
    Shl,
    /// Arithmetic shift right (shift amount masked to 0..=63).
    Shr,
    /// Unary bitwise not.
    Not,
    /// Unary arithmetic negation.
    Neg,
    Min,
    Max,
    /// Unary absolute value.
    Abs,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `Select(cond, a, b)` = `cond != 0 ? a : b`; the primitive of
    /// partial predication and dual-issue execution schemes.
    Select,
    /// Memory load: operand 0 is the address.
    Load,
    /// Memory store: operand 0 is the address, operand 1 the value.
    /// Produces the stored value (so stores can feed forwarding edges).
    Store,
    /// SSA φ-node; only legal inside a CDFG basic block, removed by
    /// if-conversion / lowering before mapping.
    Phi,
    /// Identity copy inserted by mappers to route a value through a PE
    /// or a register file slot. Never produced by the front-end.
    Route,
}

impl OpKind {
    /// Number of operands the operation consumes.
    pub fn ports(self) -> PortCount {
        use OpKind::*;
        match self {
            Const(_) | Input(_) => PortCount::Fixed(0),
            Output(_) => PortCount::One,
            Not | Neg | Abs | Load | Route => PortCount::Fixed(1),
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Min | Max | Eq | Ne | Lt
            | Le | Gt | Ge | Store => PortCount::Fixed(2),
            Select => PortCount::Fixed(3),
            // φ arity is block-dependent; validated by the CDFG, not here.
            Phi => PortCount::Fixed(2),
        }
    }

    /// True for operations with no data inputs.
    #[inline]
    pub fn is_source(self) -> bool {
        matches!(self, OpKind::Const(_) | OpKind::Input(_))
    }

    /// True for the output sink.
    #[inline]
    pub fn is_sink(self) -> bool {
        matches!(self, OpKind::Output(_))
    }

    /// True if the operation touches data memory.
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// True for the multiplier-class operations that heterogeneous
    /// fabrics restrict to dedicated cells.
    #[inline]
    pub fn needs_multiplier(self) -> bool {
        matches!(self, OpKind::Mul | OpKind::Div | OpKind::Rem)
    }

    /// True for pseudo-operations that must not appear in a mappable DFG.
    #[inline]
    pub fn is_pseudo(self) -> bool {
        matches!(self, OpKind::Phi)
    }

    /// True if the node is a routing copy.
    #[inline]
    pub fn is_route(self) -> bool {
        matches!(self, OpKind::Route)
    }

    /// Evaluate the operation on its operand values.
    ///
    /// `Load`/`Store`/`Input`/`Output` require external state and are
    /// handled by the interpreter; calling `eval` on them panics.
    pub fn eval(self, operands: &[Value]) -> Value {
        use OpKind::*;
        let a = |i: usize| operands[i];
        match self {
            Const(c) => c,
            Add => a(0).wrapping_add(a(1)),
            Sub => a(0).wrapping_sub(a(1)),
            Mul => a(0).wrapping_mul(a(1)),
            Div => {
                if a(1) == 0 {
                    0
                } else {
                    a(0).wrapping_div(a(1))
                }
            }
            Rem => {
                if a(1) == 0 {
                    0
                } else {
                    a(0).wrapping_rem(a(1))
                }
            }
            And => a(0) & a(1),
            Or => a(0) | a(1),
            Xor => a(0) ^ a(1),
            Shl => a(0).wrapping_shl((a(1) & 63) as u32),
            Shr => a(0).wrapping_shr((a(1) & 63) as u32),
            Not => !a(0),
            Neg => a(0).wrapping_neg(),
            Min => a(0).min(a(1)),
            Max => a(0).max(a(1)),
            Abs => a(0).wrapping_abs(),
            Eq => (a(0) == a(1)) as Value,
            Ne => (a(0) != a(1)) as Value,
            Lt => (a(0) < a(1)) as Value,
            Le => (a(0) <= a(1)) as Value,
            Gt => (a(0) > a(1)) as Value,
            Ge => (a(0) >= a(1)) as Value,
            Select => {
                if a(0) != 0 {
                    a(1)
                } else {
                    a(2)
                }
            }
            Route => a(0),
            Input(_) | Output(_) | Load | Store | Phi => {
                panic!("OpKind::eval called on stateful op {self:?}")
            }
        }
    }

    /// Short mnemonic used by renderers and configuration dumps.
    pub fn mnemonic(self) -> &'static str {
        use OpKind::*;
        match self {
            Const(_) => "const",
            Input(_) => "in",
            Output(_) => "out",
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Rem => "rem",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            Shr => "shr",
            Not => "not",
            Neg => "neg",
            Min => "min",
            Max => "max",
            Abs => "abs",
            Eq => "eq",
            Ne => "ne",
            Lt => "lt",
            Le => "le",
            Gt => "gt",
            Ge => "ge",
            Select => "sel",
            Load => "ld",
            Store => "st",
            Phi => "phi",
            Route => "rt",
        }
    }

    /// All evaluable binary ALU kinds (used by property tests and random
    /// DFG generators).
    pub fn binary_alu_kinds() -> &'static [OpKind] {
        use OpKind::*;
        &[
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max, Eq, Ne, Lt, Le, Gt, Ge,
        ]
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Const(c) => write!(f, "const({c})"),
            OpKind::Input(i) => write!(f, "in{i}"),
            OpKind::Output(i) => write!(f, "out{i}"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_counts_match_eval_arity() {
        for &k in OpKind::binary_alu_kinds() {
            assert_eq!(k.ports().count(), 2, "{k}");
            // Must not panic with two operands.
            let _ = k.eval(&[7, 3]);
        }
        assert_eq!(OpKind::Select.ports().count(), 3);
        assert_eq!(OpKind::Not.ports().count(), 1);
        assert_eq!(OpKind::Const(5).ports().count(), 0);
    }

    #[test]
    fn division_by_zero_saturates_to_zero() {
        assert_eq!(OpKind::Div.eval(&[42, 0]), 0);
        assert_eq!(OpKind::Rem.eval(&[42, 0]), 0);
        assert_eq!(OpKind::Div.eval(&[42, 5]), 8);
    }

    #[test]
    fn select_semantics() {
        assert_eq!(OpKind::Select.eval(&[1, 10, 20]), 10);
        assert_eq!(OpKind::Select.eval(&[0, 10, 20]), 20);
        assert_eq!(OpKind::Select.eval(&[-3, 10, 20]), 10);
    }

    #[test]
    fn comparisons_produce_zero_or_one() {
        assert_eq!(OpKind::Lt.eval(&[1, 2]), 1);
        assert_eq!(OpKind::Lt.eval(&[2, 1]), 0);
        assert_eq!(OpKind::Ge.eval(&[2, 2]), 1);
    }

    #[test]
    fn wrapping_arithmetic_does_not_panic() {
        assert_eq!(OpKind::Add.eval(&[Value::MAX, 1]), Value::MIN);
        assert_eq!(OpKind::Mul.eval(&[Value::MAX, 2]), -2);
        assert_eq!(OpKind::Neg.eval(&[Value::MIN]), Value::MIN);
        assert_eq!(OpKind::Abs.eval(&[Value::MIN]), Value::MIN);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(OpKind::Shl.eval(&[1, 64]), 1); // 64 & 63 == 0
        assert_eq!(OpKind::Shl.eval(&[1, 3]), 8);
        assert_eq!(OpKind::Shr.eval(&[-8, 1]), -4); // arithmetic shift
    }

    #[test]
    fn memory_and_phi_classification() {
        assert!(OpKind::Load.is_memory());
        assert!(OpKind::Store.is_memory());
        assert!(!OpKind::Add.is_memory());
        assert!(OpKind::Phi.is_pseudo());
        assert!(OpKind::Mul.needs_multiplier());
        assert!(!OpKind::Add.needs_multiplier());
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(OpKind::Const(3).to_string(), "const(3)");
        assert_eq!(OpKind::Input(0).to_string(), "in0");
        assert_eq!(OpKind::Select.to_string(), "sel");
    }
}
