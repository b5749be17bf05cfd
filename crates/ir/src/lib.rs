//! # cgra-ir
//!
//! Intermediate representation for CGRA compilation: data-flow graphs
//! (DFGs) with loop-carried dependencies, control-data-flow graphs
//! (CDFGs), a small C-like front-end ("MiniC"), classic middle-end
//! optimisation passes, and a library of the benchmark kernels used
//! throughout twenty years of CGRA-mapping literature.
//!
//! The survey this crate reproduces (Martin, IPDPSW 2022) describes the
//! classical compilation flow in its Figure 3: a front-end parses source
//! into an IR, a middle-end optimises it, and a back-end *maps* it onto
//! the CGRA. This crate is the front-end and middle-end; the back-end
//! lives in `cgra-mapper-core`.
//!
//! ## Quick tour
//!
//! ```
//! use cgra_ir::prelude::*;
//!
//! // Build the paper's running example (Fig. 3): a dot-product body.
//! let dfg = kernels::dot_product();
//! assert!(dfg.validate().is_ok());
//!
//! // Or compile it from MiniC source (`inout` carries the accumulator
//! // across iterations).
//! let src = r#"
//! kernel dot(in a, in b, inout acc) {
//!     acc = acc + a * b;
//! }
//! "#;
//! let compiled = frontend::compile_kernel(src).unwrap();
//! assert!(compiled.dfg.validate().is_ok());
//! ```

pub mod cdfg;
pub mod dfg;
pub mod frontend;
pub mod graph;
pub mod interp;
pub mod kernels;
pub mod op;
pub mod passes;

pub use cdfg::{BasicBlock, BlockId, Cdfg, ControlKind};
pub use dfg::{Dfg, DfgError, Edge, EdgeId, Node, NodeId};
pub use interp::{InterpError, Interpreter, Tape};
pub use op::{OpKind, PortCount, Value};

/// Convenient glob import for downstream users and examples.
pub mod prelude {
    pub use crate::cdfg::{Cdfg, ControlKind};
    pub use crate::dfg::{Dfg, Edge, Node, NodeId};
    pub use crate::frontend;
    pub use crate::interp::{Interpreter, Tape};
    pub use crate::kernels;
    pub use crate::op::{OpKind, Value};
    pub use crate::passes;
}
