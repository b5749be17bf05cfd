//! # cgra-arch
//!
//! Parameterised CGRA fabric model: the architecture side of the
//! mapping problem.
//!
//! The survey's Figure 2 shows the minimal CGRA this crate models: a 2-D
//! array of reconfigurable cells (PEs), each with a functional unit, a
//! small register file, and a configuration register, connected by an
//! operand network (mesh by default). The model is deliberately the
//! common denominator of DRESC/ADRES, SPR, EPIMap, RAMP and HiMap-style
//! mappers:
//!
//! * every PE has one **issue slot per cycle** (capacity-1 `Fu`
//!   resource),
//! * every PE can **hold values** in its register file across cycles
//!   (capacity-`rf_size` `Reg` resource),
//! * values move one **hop per cycle** along the operand network,
//! * per-PE **capabilities** restrict which operations may issue where
//!   (multiplier columns, memory columns, border I/O),
//! * a mapping with initiation interval II folds time modulo II, turning
//!   the time-extended CGRA (TEC) into the **modulo routing resource
//!   graph** (MRRG).
//!
//! ```
//! use cgra_arch::{Fabric, Topology};
//!
//! let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
//! assert_eq!(fabric.num_pes(), 16);
//! let hops = fabric.hop_distance();
//! assert_eq!(hops[0][15], 6); // corner-to-corner Manhattan distance
//! ```

pub mod fabric;
pub mod render;
pub mod spacetime;
pub mod topo;

pub use fabric::{CellCaps, Fabric, IoPolicy, LatencyModel, PeId, Topology};
pub use render::{render_fabric, render_heatmap_grid};
pub use spacetime::{ResourceKey, SpaceTime};
pub use topo::TopologyCache;
