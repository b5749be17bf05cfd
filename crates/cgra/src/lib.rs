//! # cgra
//!
//! The facade crate of the CGRA mapping framework — a from-scratch
//! Rust reproduction of the systems surveyed in Kevin J. M. Martin,
//! *"Twenty Years of Automated Methods for Mapping Applications on
//! CGRA"* (IPDPSW 2022).
//!
//! One `use cgra::prelude::*` brings in:
//!
//! * the IR ([`cgra_ir`]): DFG/CDFG, the MiniC front-end, middle-end
//!   passes, and the classic kernel library;
//! * the architecture model ([`cgra_arch`]): parameterised fabrics,
//!   MRRG occupancy;
//! * every Table I mapping technique ([`cgra_mapper_core`]);
//! * the exact-method engines ([`cgra_solver`]): simplex/ILP, CDCL
//!   SAT, SMT-lite, CP;
//! * configuration generation, cycle-accurate simulation, energy
//!   modelling ([`cgra_sim`]);
//! * the survey's bibliographic corpus ([`cgra_survey`]).
//!
//! ## End-to-end in ten lines
//!
//! ```
//! use cgra::prelude::*;
//!
//! let kernel = frontend::compile_kernel(
//!     "kernel dot(in a, in b, inout acc) { acc += a * b; }").unwrap();
//! let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
//! let mapping = ModuloList
//!     .map(&kernel.dfg, &fabric, &MapConfig::fast()).unwrap();
//! let tape = Tape::generate(2, 8, |_, i| i as i64 + 1);
//! let stats = cgra::sim::simulate_verified(&mapping, &kernel.dfg, &fabric, 8, &tape).unwrap();
//! assert!(stats.throughput > 0.0);
//! ```

pub use cgra_arch as arch;
pub use cgra_ir as ir;
pub use cgra_mapper_core as mapper;
pub use cgra_sim as sim;
pub use cgra_solver as solver;
pub use cgra_survey as survey;

pub mod cli;
pub mod serve;

/// Everything most programs need.
pub mod prelude {
    pub use cgra_arch::{Fabric, IoPolicy, LatencyModel, PeId, Topology};
    pub use cgra_ir::interp::{Interpreter, Tape};
    pub use cgra_ir::{frontend, kernels, passes, Dfg, OpKind};
    pub use cgra_mapper_core::prelude::*;
    pub use cgra_sim::{simulate, ConfigStream, EnergyModel};
    pub use cgra_survey as survey;
}
