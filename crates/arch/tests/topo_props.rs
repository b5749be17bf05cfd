//! Property tests for [`TopologyCache`]: on random fabrics across all
//! four operand-network topologies, the cached CSR adjacency, the flat
//! hop matrix, and the capability bitsets must agree exactly with the
//! naive `Fabric` queries they replace (`neighbors()`, `hop_distance()`,
//! `supports()`, `is_border()`). Torus wraparound and OneHop skip links
//! are the interesting cases — their adjacency is not a plain
//! Manhattan-distance predicate.

use cgra_arch::{CellCaps, Fabric, IoPolicy, Topology, TopologyCache};
use cgra_ir::OpKind;
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    (0u8..4).prop_map(|k| {
        [
            Topology::Mesh,
            Topology::MeshPlus,
            Topology::Torus,
            Topology::OneHop,
        ][k as usize]
    })
}

/// A random fabric: 2..=6 rows/cols, any topology, random per-cell
/// capabilities (ALU always on, as in real designs) and I/O policy.
fn arb_fabric() -> impl Strategy<Value = Fabric> {
    (
        2u16..=6,
        2u16..=6,
        arb_topology(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(rows, cols, topology, capseed, border_io)| {
            let mut f = Fabric::homogeneous(rows, cols, topology);
            let mut state = capseed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for cell in f.cells.iter_mut() {
                *cell = CellCaps {
                    alu: true,
                    mul: next() % 2 == 0,
                    mem: next() % 3 == 0,
                    io: next() % 2 == 0,
                };
            }
            if border_io {
                f.io_policy = IoPolicy::BorderOnly;
            }
            f
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn csr_neighbors_match_naive(f in arb_fabric()) {
        let topo = TopologyCache::build(&f);
        prop_assert_eq!(topo.num_pes(), f.num_pes());
        for pe in f.pe_ids() {
            prop_assert_eq!(topo.neighbors(pe), f.neighbors(pe).as_slice());
        }
    }

    #[test]
    fn adjacency_bitset_matches_contains(f in arb_fabric()) {
        let topo = TopologyCache::build(&f);
        for a in f.pe_ids() {
            let naive = f.neighbors(a);
            for b in f.pe_ids() {
                prop_assert_eq!(
                    topo.adjacent(a, b),
                    naive.contains(&b),
                    "adjacency differs at {} -> {} on {:?}", a, b, f.topology
                );
            }
        }
    }

    #[test]
    fn hop_table_matches_naive_bfs(f in arb_fabric()) {
        let topo = TopologyCache::build(&f);
        let naive = f.hop_distance();
        for a in f.pe_ids() {
            for b in f.pe_ids() {
                prop_assert_eq!(
                    topo.hops(a, b),
                    naive[a.index()][b.index()],
                    "hops differ at {} -> {} on {:?}", a, b, f.topology
                );
            }
        }
    }

    #[test]
    fn support_and_border_bitsets_match_naive(f in arb_fabric()) {
        let topo = TopologyCache::build(&f);
        let probes = [
            OpKind::Add,
            OpKind::Mul,
            OpKind::Load,
            OpKind::Store,
            OpKind::Input(0),
            OpKind::Output(0),
            OpKind::Route,
        ];
        for pe in f.pe_ids() {
            prop_assert_eq!(topo.is_border(pe), f.is_border(pe));
            for op in probes {
                prop_assert_eq!(
                    topo.supports(pe, op),
                    f.supports(pe, op),
                    "supports({}, {:?}) differs", pe, op
                );
            }
        }
    }

    #[test]
    fn fingerprint_matches_only_the_source_fabric(f in arb_fabric()) {
        let topo = TopologyCache::build(&f);
        prop_assert!(topo.matches(&f));
        // A different shape must never fingerprint-match.
        let other = Fabric::homogeneous(f.rows + 1, f.cols, f.topology);
        prop_assert!(!topo.matches(&other));
    }

    #[test]
    fn torus_wraparound_is_adjacent(rows in 3u16..=6, cols in 3u16..=6) {
        let f = Fabric::homogeneous(rows, cols, Topology::Torus);
        let topo = TopologyCache::build(&f);
        // Opposite ends of row 0 wrap to each other.
        prop_assert!(topo.adjacent(f.pe_at(0, 0), f.pe_at(0, cols - 1)));
        prop_assert!(topo.adjacent(f.pe_at(0, 0), f.pe_at(rows - 1, 0)));
        prop_assert_eq!(topo.hops(f.pe_at(0, 0), f.pe_at(0, cols - 1)), 1);
    }

    #[test]
    fn onehop_skip_links_are_adjacent(rows in 3u16..=6, cols in 3u16..=6) {
        let f = Fabric::homogeneous(rows, cols, Topology::OneHop);
        let topo = TopologyCache::build(&f);
        // Distance-2 bypass along a row and a column.
        prop_assert!(topo.adjacent(f.pe_at(0, 0), f.pe_at(0, 2)));
        prop_assert!(topo.adjacent(f.pe_at(0, 0), f.pe_at(2, 0)));
        prop_assert_eq!(topo.hops(f.pe_at(0, 0), f.pe_at(0, 2)), 1);
        // But never diagonally.
        prop_assert!(!topo.adjacent(f.pe_at(0, 0), f.pe_at(1, 1)));
    }
}

/// Non-proptest sanity: the cache survives `PeId`s outside the fabric
/// when used through `matches` (a smaller fabric never matches).
#[test]
fn smaller_fabric_never_matches() {
    let f = Fabric::homogeneous(4, 4, Topology::Mesh);
    let topo = TopologyCache::build(&f);
    assert!(!topo.matches(&Fabric::homogeneous(3, 4, Topology::Mesh)));
    assert!(!topo.matches(&Fabric::homogeneous(4, 4, Topology::Torus)));
    assert!(!topo.matches(&Fabric::adres_like(4, 4)));
}
