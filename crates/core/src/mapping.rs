//! The mapping representation shared by every mapper.
//!
//! ## Model
//!
//! A mapping binds every DFG node to a **placement** `(pe, time)` —
//! the PE and absolute issue cycle — and every DFG edge to a **route**:
//! the cycle-by-cycle positions of the value between producer and
//! consumer. Time folds modulo the **initiation interval** `ii`:
//! resource usage at absolute cycle `t` lands on modulo slot
//! `t % ii`.
//!
//! For an edge `src → dst` with dependence distance `d`:
//!
//! * the value becomes ready at `tr = time(src) + lat(src)`,
//! * it is consumed at `tc = time(dst) + ii·d` (the consumer of the
//!   `d`-iterations-later instance),
//! * the route holds positions `x_tr, …, x_tc` with `x_tr = pe(src)`,
//!   `x_tc = pe(dst)`, and each step either stays put or moves one hop
//!   on the operand network,
//! * every step `(x_t, t)` occupies one register at `(x_t, t % ii)`;
//!   steps of routes fanning out from the *same producer* at the same
//!   `(pe, t)` share one register (a value is stored once).
//!
//! A **spatial mapping** is the special case `ii == 1` with at most one
//! operation per PE: every PE repeats its operation every cycle, which
//! is exactly the FPGA-like spatial-computation model of the survey.

use cgra_arch::{Fabric, PeId, SpaceTime};
use cgra_ir::{Dfg, EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Where and when a node issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    pub pe: PeId,
    /// Absolute issue cycle (`0 ≤ time`, not folded).
    pub time: u32,
}

impl From<(PeId, u32)> for Placement {
    fn from((pe, time): (PeId, u32)) -> Self {
        Placement { pe, time }
    }
}

/// The cycle-by-cycle positions of a value between producer and
/// consumer (inclusive at both ends). `steps[i]` is the position at
/// absolute cycle `start_time + i`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Route {
    pub start_time: u32,
    pub steps: Vec<PeId>,
}

impl Route {
    /// Position at absolute cycle `t`, if the route covers it.
    pub fn at(&self, t: u32) -> Option<PeId> {
        t.checked_sub(self.start_time)
            .and_then(|i| self.steps.get(i as usize).copied())
    }

    /// Every `(pe, cycle)` the value occupies, in time order.
    pub fn cells(&self) -> impl Iterator<Item = (PeId, u32)> + '_ {
        (self.start_time..).zip(&self.steps).map(|(t, &pe)| (pe, t))
    }

    /// Number of PE-to-PE hops (non-hold steps).
    pub fn hops(&self) -> usize {
        self.steps.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

/// A complete mapping of one DFG onto one fabric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    /// Initiation interval (1 for spatial mappings).
    pub ii: u32,
    /// Per-node placements, indexed by `NodeId`.
    pub place: Vec<Placement>,
    /// Per-edge routes, indexed by `EdgeId`.
    pub routes: Vec<Route>,
}

impl Mapping {
    /// An unrouted mapping shell with every node at `(pe0, 0)`.
    pub fn empty(dfg: &Dfg, ii: u32) -> Self {
        Mapping {
            ii,
            place: vec![
                Placement {
                    pe: PeId(0),
                    time: 0
                };
                dfg.node_count()
            ],
            routes: vec![Route::default(); dfg.edge_count()],
        }
    }

    /// The same mapping with every PE — placements and route steps —
    /// renamed by `f`; `ii` and all times are kept. Whether the result
    /// is valid on the fabric `f` maps into is for the caller to check.
    pub fn map_pes(&self, f: impl Fn(PeId) -> PeId) -> Mapping {
        Mapping {
            ii: self.ii,
            place: self
                .place
                .iter()
                .map(|p| Placement {
                    pe: f(p.pe),
                    time: p.time,
                })
                .collect(),
            routes: self
                .routes
                .iter()
                .map(|r| Route {
                    start_time: r.start_time,
                    steps: r.steps.iter().map(|&pe| f(pe)).collect(),
                })
                .collect(),
        }
    }

    #[inline]
    pub fn placement(&self, n: NodeId) -> Placement {
        self.place[n.index()]
    }

    #[inline]
    pub fn route(&self, e: EdgeId) -> &Route {
        &self.routes[e.index()]
    }

    /// Schedule length: latest issue time + its latency.
    pub fn schedule_len(&self, dfg: &Dfg, fabric: &Fabric) -> u32 {
        self.place
            .iter()
            .enumerate()
            .map(|(i, p)| p.time + fabric.latency_of(dfg.op(NodeId(i as u32))))
            .max()
            .unwrap_or(0)
    }

    /// Ready time of the value produced by `src`.
    pub fn ready_time(&self, dfg: &Dfg, fabric: &Fabric, src: NodeId) -> u32 {
        self.placement(src).time + fabric.latency_of(dfg.op(src))
    }

    /// Consumption time of edge `e` (folding in `ii · dist`).
    pub fn consume_time(&self, dfg: &Dfg, e: EdgeId) -> u32 {
        let edge = dfg.edge(e);
        self.placement(edge.dst).time + self.ii * edge.dist
    }

    /// Build the occupancy of this mapping: FU slots per placement and
    /// register slots per route step, with fan-out routes of one
    /// producer deduplicated at identical `(pe, absolute cycle)`.
    pub fn occupancy(&self, dfg: &Dfg, fabric: &Fabric) -> SpaceTime {
        let mut st = SpaceTime::new(fabric, self.ii);
        for p in &self.place {
            st.occupy_fu(p.pe, p.time);
        }
        // Deduplicate register usage by (producer, pe, absolute cycle).
        let mut seen: HashMap<(u32, PeId, u32), ()> = HashMap::new();
        for (eid, edge) in dfg.edges() {
            for (pe, t) in self.routes[eid.index()].cells() {
                if seen.insert((edge.src.0, pe, t), ()).is_none() {
                    st.occupy_reg(pe, t);
                }
            }
        }
        st
    }

    /// True if this mapping is spatial: II = 1 and at most one op per PE.
    pub fn is_spatial(&self) -> bool {
        if self.ii != 1 {
            return false;
        }
        let mut used = std::collections::HashSet::new();
        self.place.iter().all(|p| used.insert(p.pe))
    }

    /// Pretty per-slot rendering (the "configuration" view of the
    /// survey's Fig. 2c): which op issues on which PE in each II slot.
    pub fn render(&self, dfg: &Dfg, fabric: &Fabric) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "mapping of `{}` on `{}`: II={}, schedule length {}",
            dfg.name,
            fabric.name,
            self.ii,
            self.schedule_len(dfg, fabric)
        );
        for slot in 0..self.ii {
            let _ = writeln!(s, " slot {slot}:");
            for r in 0..fabric.rows {
                let mut row = String::from("   ");
                for c in 0..fabric.cols {
                    let pe = fabric.pe_at(r, c);
                    let op = self
                        .place
                        .iter()
                        .enumerate()
                        .find(|(_, p)| p.pe == pe && p.time % self.ii == slot)
                        .map(|(i, p)| {
                            format!("{:>5}@{}", dfg.op(NodeId(i as u32)).mnemonic(), p.time)
                        })
                        .unwrap_or_else(|| "    .  ".into());
                    row.push_str(&format!("[{op:^9}]"));
                }
                let _ = writeln!(s, "{row}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    #[test]
    fn route_accessors() {
        let r = Route {
            start_time: 3,
            steps: vec![PeId(0), PeId(0), PeId(1), PeId(5)],
        };
        assert_eq!(r.at(3), Some(PeId(0)));
        assert_eq!(r.at(5), Some(PeId(1)));
        assert_eq!(r.at(2), None);
        assert_eq!(r.at(7), None);
        assert_eq!(r.hops(), 2);
    }

    #[test]
    fn occupancy_dedups_fanout() {
        // One producer feeding two consumers over identical prefixes
        // counts each (pe, t) once.
        let mut dfg = Dfg::new("fan");
        let a = dfg.add_node(cgra_ir::OpKind::Input(0));
        let n1 = dfg.add_node(cgra_ir::OpKind::Not);
        let n2 = dfg.add_node(cgra_ir::OpKind::Neg);
        let e1 = dfg.connect(a, n1, 0);
        let e2 = dfg.connect(a, n2, 0);
        let fabric = Fabric::homogeneous(2, 2, Topology::Mesh);
        let mut m = Mapping::empty(&dfg, 4);
        m.place[a.index()] = Placement {
            pe: PeId(0),
            time: 0,
        };
        m.place[n1.index()] = Placement {
            pe: PeId(1),
            time: 2,
        };
        m.place[n2.index()] = Placement {
            pe: PeId(1),
            time: 3,
        };
        m.routes[e1.index()] = Route {
            start_time: 1,
            steps: vec![PeId(0), PeId(1)],
        };
        m.routes[e2.index()] = Route {
            start_time: 1,
            steps: vec![PeId(0), PeId(1), PeId(1)],
        };
        let st = m.occupancy(&dfg, &fabric);
        // (pe0, t1) shared; (pe1, t2) shared; (pe1, t3) only e2.
        assert_eq!(st.reg_count(PeId(0), 1), 1);
        assert_eq!(st.reg_count(PeId(1), 2), 1);
        assert_eq!(st.reg_count(PeId(1), 3), 1);
    }

    #[test]
    fn spatial_detection() {
        let dfg = kernels::dot_product();
        let mut m = Mapping::empty(&dfg, 1);
        for (i, p) in m.place.iter_mut().enumerate() {
            p.pe = PeId(i as u16);
        }
        assert!(m.is_spatial());
        m.place[1].pe = PeId(0);
        assert!(!m.is_spatial());
        m.ii = 2;
        assert!(!m.is_spatial());
    }

    #[test]
    fn schedule_len_uses_latency() {
        let dfg = kernels::dot_product();
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let mut m = Mapping::empty(&dfg, 2);
        m.place[2] = Placement {
            pe: PeId(3),
            time: 5,
        }; // the Mul
        assert_eq!(m.schedule_len(&dfg, &fabric), 6);
    }

    #[test]
    fn render_mentions_ops() {
        let dfg = kernels::dot_product();
        let fabric = Fabric::homogeneous(2, 2, Topology::Mesh);
        let m = Mapping::empty(&dfg, 1);
        let r = m.render(&dfg, &fabric);
        assert!(r.contains("II=1"));
    }
}
