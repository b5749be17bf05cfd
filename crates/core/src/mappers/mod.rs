//! All mapping techniques, one module per Table I lineage.
//!
//! Every mapper implements [`crate::Mapper`] and returns mappings that
//! pass [`crate::validate::validate`]. See the crate docs for the
//! family ↔ mapper table. The 14 temporal techniques share one II
//! sweep (`sweep.rs`): each file holds its constants and its per-II probe.

mod bnb;
mod cp_mapper;
mod edge_centric;
mod epimap;
pub(crate) mod exact_common;
mod ga;
mod graph_drawing;
mod graph_minor;
mod himap;
mod ilp_mapper;
pub(crate) mod meta_common;
mod modulo_list;
mod qea;
mod ramp;
mod sa;
mod sat_mapper;
mod smt_mapper;
mod spatial_greedy;
pub(crate) mod state;
pub(crate) mod sweep;

pub use bnb::BranchAndBound;
pub use cp_mapper::CpMapper;
pub use edge_centric::EdgeCentric;
pub use epimap::EpiMap;
pub use ga::Genetic;
pub use graph_drawing::GraphDrawing;
pub use graph_minor::GraphMinor;
pub use himap::HiMap;
pub use ilp_mapper::IlpMapper;
pub use modulo_list::ModuloList;
pub use qea::Qea;
pub use ramp::Ramp;
pub use sa::{Cooling, SimulatedAnnealing};
pub use sat_mapper::SatMapper;
pub use smt_mapper::SmtMapper;
pub use spatial_greedy::SpatialGreedy;
