//! Precomputed topology cache: the P&R-side lookup tables that every
//! mapper needs, computed **once per fabric** instead of once per
//! search.
//!
//! `Fabric::neighbors` allocates a fresh `Vec` per call and
//! `Fabric::hop_distance` runs an all-pairs BFS — fine for one-off
//! queries, ruinous inside a router expanding thousands of nodes or a
//! racing portfolio where sixteen mappers each rebuild the same table.
//! PathFinder-lineage tools precompute these structures per device, not
//! per search; this module does the same for the fabric model:
//!
//! * **CSR adjacency** — `neighbors(pe)` returns a borrowed slice into
//!   one flat array (no allocation, cache-friendly iteration),
//! * **flat hop matrix** — `hops(a, b)` is one indexed load,
//! * **adjacency bitset** — `adjacent(a, b)` is O(1), replacing the
//!   linear `neighbors(a).contains(&b)` scans,
//! * **border / capability bitsets** — `is_border` and `supports`
//!   without re-deriving coordinates or I/O policy.
//!
//! The cache carries a fingerprint of the topological inputs (grid
//! shape, topology, I/O policy, per-cell capabilities) so a shared
//! `Arc<TopologyCache>` can be verified against the fabric it is used
//! with via [`TopologyCache::matches`].
//!
//! ```
//! use cgra_arch::{Fabric, PeId, Topology, TopologyCache};
//!
//! let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
//! let topo = TopologyCache::build(&fabric);
//! assert_eq!(topo.hops(PeId(0), PeId(15)), 6);
//! assert!(topo.adjacent(PeId(0), PeId(1)));
//! assert!(!topo.adjacent(PeId(0), PeId(15)));
//! assert_eq!(topo.neighbors(PeId(5)).len(), fabric.neighbors(PeId(5)).len());
//! ```

use crate::fabric::{CellCaps, Fabric, IoPolicy, LatencyModel, PeId, Topology};
use cgra_ir::OpKind;
use std::collections::VecDeque;

/// Distance value for unreachable PE pairs (mirrors
/// `Fabric::hop_distance`).
pub const UNREACHABLE: u32 = u32::MAX;

/// A fixed-size bitset over PE indices (or PE-pair indices).
#[derive(Debug, Clone, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(bits: usize) -> Self {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, bit: usize) {
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    #[inline]
    fn get(&self, bit: usize) -> bool {
        (self.words[bit / 64] >> (bit % 64)) & 1 != 0
    }
}

/// The semantic identity of the fabric the cache was derived from:
/// every field of [`Fabric`] except the display name. Two fabrics with
/// equal fingerprints have identical adjacency, distance, border, and
/// capability tables — and, because the non-topological knobs
/// (register file, context depth, latency model, memory banks) are
/// included too, identical solver encodings. A mapper handed a shared
/// cache that [`TopologyCache::matches`] its fabric trusts it whole, so
/// the fingerprint must cover *everything* a mapper's encoding can
/// depend on, not just what the hop tables depend on; omitting the
/// latency model here once let two fabrics differing only in `mul`
/// latency share derived solver state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    rows: u16,
    cols: u16,
    topology: Topology,
    io_policy: IoPolicy,
    cells: Vec<CellCaps>,
    rf_size: u32,
    rf_rotating: bool,
    context_depth: u32,
    hw_loop: bool,
    mem_banks: u32,
    latency: LatencyModel,
}

impl Fingerprint {
    fn of(fabric: &Fabric) -> Self {
        Fingerprint {
            rows: fabric.rows,
            cols: fabric.cols,
            topology: fabric.topology,
            io_policy: fabric.io_policy,
            cells: fabric.cells.clone(),
            rf_size: fabric.rf_size,
            rf_rotating: fabric.rf_rotating,
            context_depth: fabric.context_depth,
            hw_loop: fabric.hw_loop,
            mem_banks: fabric.mem_banks,
            latency: fabric.latency,
        }
    }
}

/// Immutable per-fabric lookup tables. Build once with
/// [`TopologyCache::build`], share via `Arc` across racing mappers and
/// per-II sweeps.
#[derive(Debug, Clone)]
pub struct TopologyCache {
    num_pes: usize,
    /// CSR offsets: neighbours of `pe` live in
    /// `adj[adj_off[pe] .. adj_off[pe + 1]]`.
    adj_off: Vec<u32>,
    adj: Vec<PeId>,
    /// Flat row-major `n × n` hop-distance matrix.
    hops: Vec<u32>,
    /// `n × n` adjacency bitset (symmetric).
    adj_bits: BitSet,
    /// Border cells.
    border: BitSet,
    /// Capability bitsets; `io` folds in the fabric's I/O policy.
    alu: BitSet,
    mul: BitSet,
    mem: BitSet,
    io: BitSet,
    fingerprint: Fingerprint,
}

impl TopologyCache {
    /// Derive all tables from `fabric`. Cost: one `neighbors` sweep to
    /// build the CSR plus an all-pairs BFS over it — paid once, after
    /// which every query is an indexed load.
    pub fn build(fabric: &Fabric) -> Self {
        let n = fabric.num_pes();

        // CSR adjacency from the naive per-PE neighbour lists.
        let mut adj_off = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        let mut adj_bits = BitSet::new(n * n);
        adj_off.push(0u32);
        for pe in fabric.pe_ids() {
            for nb in fabric.neighbors(pe) {
                adj.push(nb);
                adj_bits.set(pe.index() * n + nb.index());
            }
            adj_off.push(adj.len() as u32);
        }

        // All-pairs BFS over the CSR (identical semantics to
        // `Fabric::hop_distance`, minus the per-expansion allocation).
        let mut hops = vec![UNREACHABLE; n * n];
        let mut queue = VecDeque::new();
        for s in 0..n {
            let row = s * n;
            hops[row + s] = 0;
            queue.push_back(s);
            while let Some(p) = queue.pop_front() {
                let d = hops[row + p];
                let (lo, hi) = (adj_off[p] as usize, adj_off[p + 1] as usize);
                for nb in &adj[lo..hi] {
                    let cell = &mut hops[row + nb.index()];
                    if *cell == UNREACHABLE {
                        *cell = d + 1;
                        queue.push_back(nb.index());
                    }
                }
            }
        }

        // Border and capability bitsets.
        let mut border = BitSet::new(n);
        let mut alu = BitSet::new(n);
        let mut mul = BitSet::new(n);
        let mut mem = BitSet::new(n);
        let mut io = BitSet::new(n);
        for pe in fabric.pe_ids() {
            let i = pe.index();
            if fabric.is_border(pe) {
                border.set(i);
            }
            let caps = fabric.caps(pe);
            if caps.alu {
                alu.set(i);
            }
            if caps.mul {
                mul.set(i);
            }
            if caps.mem {
                mem.set(i);
            }
            if caps.io && (fabric.io_policy == IoPolicy::Anywhere || fabric.is_border(pe)) {
                io.set(i);
            }
        }

        TopologyCache {
            num_pes: n,
            adj_off,
            adj,
            hops,
            adj_bits,
            border,
            alu,
            mul,
            mem,
            io,
            fingerprint: Fingerprint::of(fabric),
        }
    }

    #[inline]
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Operand-network neighbours of `pe` as a borrowed CSR slice —
    /// the allocation-free replacement for `Fabric::neighbors`.
    #[inline]
    pub fn neighbors(&self, pe: PeId) -> &[PeId] {
        let (lo, hi) = (
            self.adj_off[pe.index()] as usize,
            self.adj_off[pe.index() + 1] as usize,
        );
        &self.adj[lo..hi]
    }

    /// O(1) adjacency test (one network hop apart).
    #[inline]
    pub fn adjacent(&self, a: PeId, b: PeId) -> bool {
        self.adj_bits.get(a.index() * self.num_pes + b.index())
    }

    /// Minimum move cycles between two cells (O(1) lookup into the
    /// precomputed all-pairs table). [`UNREACHABLE`] when disconnected.
    #[inline]
    pub fn hops(&self, a: PeId, b: PeId) -> u32 {
        self.hops[a.index() * self.num_pes + b.index()]
    }

    /// Is `pe` on the array border?
    #[inline]
    pub fn is_border(&self, pe: PeId) -> bool {
        self.border.get(pe.index())
    }

    /// Can `op` issue on `pe`? Bitset-backed equivalent of
    /// `Fabric::supports` (capabilities with the I/O policy folded in).
    #[inline]
    pub fn supports(&self, pe: PeId, op: OpKind) -> bool {
        let i = pe.index();
        match op {
            OpKind::Input(_) | OpKind::Output(_) => self.io.get(i),
            OpKind::Load | OpKind::Store => self.mem.get(i),
            OpKind::Route => true,
            _ if op.needs_multiplier() => self.mul.get(i),
            _ => self.alu.get(i),
        }
    }

    /// Does this cache describe `fabric`? Used by consumers handed a
    /// shared cache to decide between reuse and rebuild. Strict over
    /// the full semantic fingerprint (not just the hop-table inputs):
    /// every field a mapper's encoding can depend on counts. The only
    /// ignored field is the display name.
    pub fn matches(&self, fabric: &Fabric) -> bool {
        self.num_pes == fabric.num_pes() && self.fingerprint == Fingerprint::of(fabric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPOLOGIES: [Topology; 4] = [
        Topology::Mesh,
        Topology::MeshPlus,
        Topology::Torus,
        Topology::OneHop,
    ];

    #[test]
    fn csr_matches_naive_neighbors() {
        for topo in TOPOLOGIES {
            let f = Fabric::homogeneous(4, 5, topo);
            let cache = TopologyCache::build(&f);
            for pe in f.pe_ids() {
                assert_eq!(
                    cache.neighbors(pe),
                    f.neighbors(pe).as_slice(),
                    "{topo:?} {pe}"
                );
            }
        }
    }

    #[test]
    fn hop_matrix_matches_naive_bfs() {
        for topo in TOPOLOGIES {
            let f = Fabric::homogeneous(5, 4, topo);
            let cache = TopologyCache::build(&f);
            let naive = f.hop_distance();
            for a in f.pe_ids() {
                for b in f.pe_ids() {
                    assert_eq!(cache.hops(a, b), naive[a.index()][b.index()]);
                }
            }
        }
    }

    #[test]
    fn adjacency_bitset_matches_contains() {
        for topo in TOPOLOGIES {
            let f = Fabric::homogeneous(4, 4, topo);
            let cache = TopologyCache::build(&f);
            for a in f.pe_ids() {
                let nbs = f.neighbors(a);
                for b in f.pe_ids() {
                    assert_eq!(cache.adjacent(a, b), nbs.contains(&b), "{topo:?} {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn border_and_support_bitsets() {
        let f = Fabric::adres_like(4, 4);
        let cache = TopologyCache::build(&f);
        for pe in f.pe_ids() {
            assert_eq!(cache.is_border(pe), f.is_border(pe));
            for op in [
                OpKind::Add,
                OpKind::Mul,
                OpKind::Load,
                OpKind::Input(0),
                OpKind::Route,
            ] {
                assert_eq!(cache.supports(pe, op), f.supports(pe, op), "{pe} {op:?}");
            }
        }
    }

    #[test]
    fn fingerprint_detects_mismatch() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let cache = TopologyCache::build(&f);
        assert!(cache.matches(&f));
        // The display name is the only field that doesn't matter.
        let mut same = f.clone();
        same.name = "renamed".into();
        assert!(cache.matches(&same));
        // Topology, shape, policy, or capability changes invalidate.
        let other = Fabric::homogeneous(4, 4, Topology::Torus);
        assert!(!cache.matches(&other));
        let bigger = Fabric::homogeneous(4, 5, Topology::Mesh);
        assert!(!cache.matches(&bigger));
        let mut hetero = f.clone();
        hetero.cells[3].mul = false;
        assert!(!cache.matches(&hetero));
        // So do the non-topological solver-visible knobs: encodings
        // depend on these even though the hop tables don't.
        let knobs: [fn(&mut Fabric); 6] = [
            |f| f.rf_size = 2,
            |f| f.rf_rotating = !f.rf_rotating,
            |f| f.context_depth += 1,
            |f| f.hw_loop = !f.hw_loop,
            |f| f.mem_banks += 1,
            |f| f.latency.mul = 2,
        ];
        for (i, knob) in knobs.iter().enumerate() {
            let mut other = f.clone();
            knob(&mut other);
            assert!(!cache.matches(&other), "knob {i} must be covered");
        }
    }
}
