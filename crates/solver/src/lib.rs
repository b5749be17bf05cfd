//! # cgra-solver
//!
//! From-scratch exact-method engines backing the "exact methods" column
//! of the survey's Table I. The CGRA-mapping literature delegates these
//! to CPLEX/Gurobi (ILP), MiniSat (SAT), Z3 (SMT) or JaCoP (CP); the
//! Rust EDA ecosystem has no canonical equivalents, so this crate
//! implements each oracle directly:
//!
//! * [`lp`] — bounded-variable dual simplex for linear programs,
//! * [`ilp`] — 0/1 integer linear programming by branch-and-bound over
//!   warm-started LP relaxations,
//! * [`sat`] — a CDCL SAT solver (two-watched literals, VSIDS, 1-UIP
//!   learning, Luby restarts),
//! * [`cnf`] — CNF construction helpers (at-most-one / exactly-one
//!   encodings),
//! * [`smt`] — lazy SMT over integer difference logic (CDCL(T) with a
//!   Bellman-Ford theory checker),
//! * [`cp`] — a finite-domain constraint-programming engine (AC-3,
//!   all-different, MRV/degree branching).
//!
//! Every engine accepts an [`Interrupt`] (deadline + shared cancel
//! flag, stride-amortised polling) so callers can abort a search
//! mid-flight; see [`interrupt`].
//!
//! The engines are general-purpose: nothing in this crate knows about
//! CGRAs. `cgra-mapper-core` builds the mapping encodings on top.

pub mod cnf;
pub mod cp;
pub mod ilp;
pub mod interrupt;
pub mod lp;
pub mod sat;
pub mod smt;
pub mod stats;

pub use cp::{CpModel, CpSolution, CpVar};
pub use ilp::{IlpConfig, IlpModel, IlpResult, IlpVar, IncumbentHook};
pub use interrupt::Interrupt;
pub use lp::{Cmp, Lp, LpResult};
pub use sat::{Lit, SatResult, SatSolver, SatVar};
pub use smt::{DiffAtom, SmtResult, SmtSolver};
pub use stats::SolverStats;
