//! Differential audit of the goal-directed router against the frozen
//! reference.
//!
//! `find_route_with` answers hop-infeasible queries from the hop table
//! and never relaxes a state the goal is out of reach from; both are
//! claimed to be invisible in the result. These properties hold it to
//! that: the same route as `naive::find_route`, step for step, over
//! random fabrics, occupancy, history and — because a zero-cost cell is
//! where equal-cost states of adjacent layers interleave in pop order —
//! non-empty shared sets, with about half the queries hop-infeasible.
//! One `RouterScratch` serves every query of a case, so anything an
//! earlier search left in it (`prev` is never refilled) would show.

use cgra_arch::{Fabric, PeId, SpaceTime, Topology, TopologyCache};
use cgra_ir::{graph, kernels};
use cgra_mapper_core::mapping::Placement;
use cgra_mapper_core::route::{find_route_with, route_all_with, History, RouteOpts, RouterScratch};
use cgra_mapper_core::telemetry::Telemetry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

mod naive;

const TOPOLOGIES: [Topology; 4] = [
    Topology::Mesh,
    Topology::MeshPlus,
    Topology::Torus,
    Topology::OneHop,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn find_route_with_matches_naive_step_for_step(
        topology in 0usize..TOPOLOGIES.len(),
        rows in 2u16..=8,
        cols in 2u16..=8,
        ii in 1u32..=6,
        rf_size in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fabric = Fabric::homogeneous(rows, cols, TOPOLOGIES[topology]);
        fabric.rf_size = rf_size;
        let topo = TopologyCache::build(&fabric);
        let n = fabric.num_pes() as u16;

        // Registers from empty to over-subscribed, and a history with
        // a few hot cells.
        let mut st = SpaceTime::new(&fabric, ii);
        let mut hist = History::new(&fabric, ii);
        let density = rng.random_range(0..=3u32);
        for pe in fabric.pe_ids() {
            for slot in 0..ii {
                if rng.random_range(0..4u32) < density {
                    for _ in 0..rng.random_range(1..=rf_size + 1) {
                        st.occupy_reg(pe, slot);
                    }
                }
                if rng.random_bool(0.2) {
                    hist.bump(pe, slot, rng.random_range(1..=400u64));
                }
            }
        }

        let mut scratch = RouterScratch::new();
        for _ in 0..12 {
            let from = PeId(rng.random_range(0..n));
            let to = PeId(rng.random_range(0..n));
            let hops = topo.hops(from, to);
            // Half the queries one or more cycles short of the hops.
            let slack = if hops > 0 && rng.random_bool(0.5) {
                rng.random_range(0..hops)
            } else {
                hops + rng.random_range(0..=6u32)
            };
            let tr = rng.random_range(0..=9u32);
            let tc = tr + slack;
            // Shared cells in and around the window, sparse to dense.
            let mut shared = HashSet::new();
            for _ in 0..rng.random_range(1..=(n as u32) * (slack + 1) / 2 + 1) {
                let t = (tr + rng.random_range(0..=slack + 4)).saturating_sub(2);
                shared.insert((PeId(rng.random_range(0..n)), t));
            }
            let hist = rng.random_bool(0.5).then_some(&hist);
            let opts = RouteOpts {
                allow_overuse: rng.random_bool(0.5),
                ..RouteOpts::default()
            };

            let want = naive::find_route(&fabric, &st, from, tr, to, tc, &shared, hist, opts);
            let got = find_route_with(
                &fabric,
                &topo,
                &st,
                from,
                tr,
                to,
                tc,
                shared.iter().copied(),
                hist,
                opts,
                &mut scratch,
            );
            prop_assert_eq!(
                &got, &want,
                "{:?} {}x{} ii {} rf {}: {:?}@{} -> {:?}@{} shared {:?}",
                TOPOLOGIES[topology], rows, cols, ii, rf_size, from, tr, to, tc, shared
            );
            if let Some(r) = &got {
                for (pe, t) in r.cells() {
                    prop_assert_eq!(scratch.is_shared(pe, t), shared.contains(&(pe, t)));
                }
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    #[test]
    fn route_all_with_matches_naive_on_suite_kernels(
        kernel in 0usize..13,
        topology in 0usize..TOPOLOGIES.len(),
        side in 3u16..=6,
        ii in 1u32..=8,
        stretch in 1u32..=12,
        negotiated in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dfg = kernels::suite().swap_remove(kernel);
        let fabric = Fabric::homogeneous(side, side, TOPOLOGIES[topology]);
        let topo = TopologyCache::build(&fabric);
        // ASAP times stretched and jittered, each node moved later
        // until its issue slot is free: a long stretch leaves every edge
        // room and the registers decide, a short one leaves some edge
        // short of hops or of latency.
        let asap = graph::asap(&dfg, &graph::unit_latency);
        let mut issue_slots = HashSet::new();
        let place: Vec<Placement> = dfg
            .node_ids()
            .map(|node| {
                let pe = PeId(rng.random_range(0..fabric.num_pes() as u16));
                let t0 = asap[node.index()] * stretch + rng.random_range(0..=2u32);
                let time = (t0..t0 + ii)
                    .find(|t| issue_slots.insert((pe, t % ii)))
                    .unwrap_or(t0);
                Placement { pe, time }
            })
            .collect();
        let want = naive::route_all(&fabric, &dfg, &place, ii, 6, negotiated);
        let got = route_all_with(
            &fabric, &topo, &dfg, &place, ii, 6, negotiated, &Telemetry::off(),
        );
        prop_assert_eq!(got, want, "{} on {:?} {}x{} ii {}", dfg.name, TOPOLOGIES[topology], side, side, ii);
    }
}
