//! The CGRA fabric: cells, capabilities, topology, and latency model.

use cgra_ir::OpKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a processing element (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PeId(pub u16);

impl PeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

/// What a cell's functional unit can do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CellCaps {
    /// Plain ALU operations (always true in practice).
    pub alu: bool,
    /// Multiplier-class operations (`mul`, `div`, `rem`).
    pub mul: bool,
    /// Memory port (`ld`, `st`).
    pub mem: bool,
    /// Stream I/O (`in`, `out`).
    pub io: bool,
}

impl CellCaps {
    pub const FULL: CellCaps = CellCaps {
        alu: true,
        mul: true,
        mem: true,
        io: true,
    };

    /// Can this cell issue `op`?
    pub fn supports(&self, op: OpKind) -> bool {
        match op {
            OpKind::Input(_) | OpKind::Output(_) => self.io,
            OpKind::Load | OpKind::Store => self.mem,
            _ if op.needs_multiplier() => self.mul,
            OpKind::Route => true, // routing through the FU is always possible
            _ => self.alu,
        }
    }
}

/// Operand-network topologies from the literature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Topology {
    /// 4-neighbour 2-D mesh (N/S/E/W) — ADRES/MorphoSys baseline.
    Mesh,
    /// Mesh plus the four diagonals (8 neighbours).
    MeshPlus,
    /// Mesh with wrap-around links.
    Torus,
    /// Mesh plus same-row/same-column one-hop bypass (distance-2 links),
    /// as in one-hop CGRAs.
    OneHop,
}

impl Topology {
    /// Parse the lowercase label (`"mesh"`, what requests and CLI fabric
    /// specs write) or the serialized variant name (`"Mesh"`).
    pub fn from_label(s: &str) -> Option<Topology> {
        match s {
            "mesh" | "Mesh" => Some(Topology::Mesh),
            "meshplus" | "MeshPlus" => Some(Topology::MeshPlus),
            "torus" | "Torus" => Some(Topology::Torus),
            "onehop" | "OneHop" => Some(Topology::OneHop),
            _ => None,
        }
    }
}

// Hand-written because it accepts both spellings; the derive would
// take only the variant name.
impl Deserialize for Topology {
    fn read_json(r: &mut serde::Reader<'_>) -> Result<Self, serde::DeError> {
        serde::read_label(r, "topology", Topology::from_label)
    }
}

/// Where stream I/O operations may be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum IoPolicy {
    /// Only border cells have stream ports (common in tiled CGRAs).
    BorderOnly,
    /// Any cell may perform stream I/O.
    Anywhere,
}

/// Per-operation-class latencies (issue → result available), in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct LatencyModel {
    pub alu: u32,
    pub mul: u32,
    pub mem: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // The unit-latency model used by most mapping papers.
        LatencyModel {
            alu: 1,
            mul: 1,
            mem: 1,
        }
    }
}

impl LatencyModel {
    /// A model with a 2-cycle multiplier and memory port, stressing
    /// recurrence-limited kernels.
    pub fn multi_cycle() -> Self {
        LatencyModel {
            alu: 1,
            mul: 2,
            mem: 2,
        }
    }

    /// Latency of `op`.
    pub fn of(&self, op: OpKind) -> u32 {
        if op.needs_multiplier() {
            self.mul
        } else if op.is_memory() {
            self.mem
        } else {
            self.alu
        }
    }
}

/// A CGRA fabric description. See the crate docs for the model.
#[derive(Debug, Clone, Serialize)]
pub struct Fabric {
    pub name: String,
    pub rows: u16,
    pub cols: u16,
    /// Row-major per-cell capabilities.
    pub cells: Vec<CellCaps>,
    pub topology: Topology,
    /// Values each PE can hold per cycle (register-file capacity).
    pub rf_size: u32,
    /// Whether the register file rotates (one window per II slot, as in
    /// ADRES) — affects register allocation, not routing capacity.
    pub rf_rotating: bool,
    /// Configuration-memory depth: the maximum supported II.
    pub context_depth: u32,
    /// Dedicated hardware loop unit (survey §III-B2 "hardware loops").
    pub hw_loop: bool,
    /// Number of memory banks behind the memory ports.
    pub mem_banks: u32,
    pub io_policy: IoPolicy,
    pub latency: LatencyModel,
}

impl Fabric {
    /// A fully homogeneous fabric: every cell does everything, border
    /// I/O, RF of 8, context depth 32.
    pub fn homogeneous(rows: u16, cols: u16, topology: Topology) -> Self {
        let cells = vec![CellCaps::FULL; rows as usize * cols as usize];
        Fabric {
            name: format!("homogeneous_{rows}x{cols}"),
            rows,
            cols,
            cells,
            topology,
            rf_size: 8,
            rf_rotating: false,
            context_depth: 32,
            hw_loop: false,
            mem_banks: 4,
            io_policy: IoPolicy::Anywhere,
            latency: LatencyModel::default(),
        }
    }

    /// An ADRES-like heterogeneous fabric: memory ports on the first
    /// column, multipliers on even columns, I/O on the border, and a
    /// small 4-entry register file (the constrained design point).
    pub fn adres_like(rows: u16, cols: u16) -> Self {
        let mut f = Fabric::homogeneous(rows, cols, Topology::Mesh);
        f.name = format!("adres_like_{rows}x{cols}");
        f.rf_size = 4;
        f.io_policy = IoPolicy::BorderOnly;
        for r in 0..rows {
            for c in 0..cols {
                let idx = (r * cols + c) as usize;
                f.cells[idx] = CellCaps {
                    alu: true,
                    mul: c % 2 == 0,
                    mem: c == 0,
                    io: r == 0 || c == 0 || r == rows - 1 || c == cols - 1,
                };
            }
        }
        f
    }

    /// The minimal 4×4 mesh of the survey's Figure 2.
    pub fn figure2() -> Self {
        let mut f = Fabric::homogeneous(4, 4, Topology::Mesh);
        f.name = "figure2_4x4".into();
        f
    }

    #[inline]
    pub fn num_pes(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    pub fn pe_ids(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.num_pes() as u16).map(PeId)
    }

    #[inline]
    pub fn pe_at(&self, row: u16, col: u16) -> PeId {
        PeId(row * self.cols + col)
    }

    #[inline]
    pub fn coords(&self, pe: PeId) -> (u16, u16) {
        (pe.0 / self.cols, pe.0 % self.cols)
    }

    #[inline]
    pub fn caps(&self, pe: PeId) -> CellCaps {
        self.cells[pe.index()]
    }

    /// Can `op` issue on `pe` (capabilities + I/O policy)?
    pub fn supports(&self, pe: PeId, op: OpKind) -> bool {
        if matches!(op, OpKind::Input(_) | OpKind::Output(_))
            && self.io_policy == IoPolicy::BorderOnly
            && !self.is_border(pe)
        {
            return false;
        }
        self.caps(pe).supports(op)
    }

    /// Is `pe` on the array border?
    pub fn is_border(&self, pe: PeId) -> bool {
        let (r, c) = self.coords(pe);
        r == 0 || c == 0 || r == self.rows - 1 || c == self.cols - 1
    }

    /// Operand-network neighbours of `pe` (excluding itself; "stay put"
    /// is always possible and not listed).
    pub fn neighbors(&self, pe: PeId) -> Vec<PeId> {
        let (r, c) = self.coords(pe);
        let (rows, cols) = (self.rows as i32, self.cols as i32);
        let (r, c) = (r as i32, c as i32);
        let mut offs: Vec<(i32, i32)> = vec![(-1, 0), (1, 0), (0, -1), (0, 1)];
        match self.topology {
            Topology::Mesh => {}
            Topology::MeshPlus => offs.extend([(-1, -1), (-1, 1), (1, -1), (1, 1)]),
            Topology::OneHop => offs.extend([(-2, 0), (2, 0), (0, -2), (0, 2)]),
            Topology::Torus => {}
        }
        let mut out = Vec::with_capacity(offs.len());
        for (dr, dc) in offs {
            let (mut nr, mut nc) = (r + dr, c + dc);
            if self.topology == Topology::Torus {
                nr = nr.rem_euclid(rows);
                nc = nc.rem_euclid(cols);
            }
            if nr >= 0 && nr < rows && nc >= 0 && nc < cols && (nr, nc) != (r, c) {
                let id = self.pe_at(nr as u16, nc as u16);
                if !out.contains(&id) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// All-pairs hop distance over the operand network (BFS from every
    /// PE). `hop[a][b]` is the minimum number of move cycles between
    /// the two cells; used as the admissible routing lower bound by
    /// exact mappers and as the wirelength term of meta-heuristics.
    pub fn hop_distance(&self) -> Vec<Vec<u32>> {
        let n = self.num_pes();
        let mut dist = vec![vec![u32::MAX; n]; n];
        for (s, row) in dist.iter_mut().enumerate() {
            let mut q = std::collections::VecDeque::new();
            row[s] = 0;
            q.push_back(PeId(s as u16));
            while let Some(p) = q.pop_front() {
                let d = row[p.index()];
                for nb in self.neighbors(p) {
                    if row[nb.index()] == u32::MAX {
                        row[nb.index()] = d + 1;
                        q.push_back(nb);
                    }
                }
            }
        }
        dist
    }

    /// Total issue slots per cycle for each op class:
    /// `(alu, mul, mem, io)` — inputs to ResMII.
    pub fn slot_counts(&self) -> (usize, usize, usize, usize) {
        let mut alu = 0;
        let mut mul = 0;
        let mut mem = 0;
        let mut io = 0;
        for pe in self.pe_ids() {
            let c = self.caps(pe);
            if c.alu {
                alu += 1;
            }
            if c.mul {
                mul += 1;
            }
            if c.mem {
                mem += 1;
            }
            if c.io && (self.io_policy == IoPolicy::Anywhere || self.is_border(pe)) {
                io += 1;
            }
        }
        (alu, mul, mem, io)
    }

    /// Latency of `op` on this fabric.
    #[inline]
    pub fn latency_of(&self, op: OpKind) -> u32 {
        self.latency.of(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_neighbour_counts() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        assert_eq!(f.neighbors(f.pe_at(0, 0)).len(), 2); // corner
        assert_eq!(f.neighbors(f.pe_at(0, 1)).len(), 3); // edge
        assert_eq!(f.neighbors(f.pe_at(1, 1)).len(), 4); // interior
    }

    #[test]
    fn meshplus_has_diagonals() {
        let f = Fabric::homogeneous(4, 4, Topology::MeshPlus);
        assert_eq!(f.neighbors(f.pe_at(1, 1)).len(), 8);
        assert_eq!(f.neighbors(f.pe_at(0, 0)).len(), 3);
    }

    #[test]
    fn torus_wraps() {
        let f = Fabric::homogeneous(4, 4, Topology::Torus);
        let n = f.neighbors(f.pe_at(0, 0));
        assert_eq!(n.len(), 4);
        assert!(n.contains(&f.pe_at(3, 0)));
        assert!(n.contains(&f.pe_at(0, 3)));
    }

    #[test]
    fn onehop_has_distance_two_links() {
        let f = Fabric::homogeneous(4, 4, Topology::OneHop);
        let n = f.neighbors(f.pe_at(0, 0));
        assert!(n.contains(&f.pe_at(2, 0)));
        assert!(n.contains(&f.pe_at(0, 2)));
    }

    #[test]
    fn hop_distance_is_manhattan_on_mesh() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let d = f.hop_distance();
        for a in f.pe_ids() {
            for b in f.pe_ids() {
                let (ar, ac) = f.coords(a);
                let (br, bc) = f.coords(b);
                let manhattan = (ar.abs_diff(br) + ac.abs_diff(bc)) as u32;
                assert_eq!(d[a.index()][b.index()], manhattan);
            }
        }
    }

    #[test]
    fn hop_distance_torus_shrinks() {
        let f = Fabric::homogeneous(4, 4, Topology::Torus);
        let d = f.hop_distance();
        assert_eq!(d[0][15], 2); // (0,0) -> (3,3) wraps both ways
    }

    #[test]
    fn adres_like_heterogeneity() {
        let f = Fabric::adres_like(4, 4);
        // Column 0 is memory-capable.
        assert!(f.supports(f.pe_at(1, 0), OpKind::Load));
        assert!(!f.supports(f.pe_at(1, 1), OpKind::Load));
        // Odd columns lack multipliers.
        assert!(!f.supports(f.pe_at(1, 1), OpKind::Mul));
        assert!(f.supports(f.pe_at(1, 2), OpKind::Mul));
        // Interior cells cannot do I/O under BorderOnly.
        assert!(!f.supports(f.pe_at(1, 1), OpKind::Input(0)));
        assert!(f.supports(f.pe_at(0, 1), OpKind::Input(0)));
    }

    #[test]
    fn slot_counts_reflect_caps() {
        let f = Fabric::adres_like(4, 4);
        let (alu, mul, mem, io) = f.slot_counts();
        assert_eq!(alu, 16);
        assert_eq!(mul, 8);
        assert_eq!(mem, 4);
        assert_eq!(io, 12); // border cells
    }

    #[test]
    fn latency_model_classes() {
        let m = LatencyModel::multi_cycle();
        assert_eq!(m.of(OpKind::Mul), 2);
        assert_eq!(m.of(OpKind::Load), 2);
        assert_eq!(m.of(OpKind::Add), 1);
    }

    #[test]
    fn route_is_supported_everywhere() {
        let f = Fabric::adres_like(4, 4);
        for pe in f.pe_ids() {
            assert!(f.supports(pe, OpKind::Route));
        }
    }
}
