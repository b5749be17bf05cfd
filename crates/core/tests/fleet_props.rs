//! Property audit of the fleet scheduler's two load-bearing
//! contracts.
//!
//! **Partition soundness**: `partition_fabric` must tile the fabric
//! exactly — every cell covered once, every sub-fabric in bounds with
//! sides >= MIN_SIDE — for any feasible (fabric, parts) pair on a
//! partition-faithful topology, and a mapping solved on a sub-fabric
//! must stay valid on the full fabric after `translate_up`. A hole or
//! an overlap would let two co-mapped kernels claim the same PE; a
//! translation bug would ship mappings that route through links the
//! real fabric does not have.
//!
//! **Scheduler determinism**: the same queue over the same farm must
//! produce the identical plan on every run and every hash seed, cover
//! every queue index exactly once, and hand each fabric a contiguous
//! slot sequence. The unit tests in `fleet.rs` pin one instance of
//! each; these properties sweep the space, and one reference queue's
//! cold plan is pinned by equality.

use cgra_arch::{Topology, TopologyCache};
use cgra_mapper_core::fleet::{self, FleetFabric, MIN_SIDE};
use cgra_mapper_core::request::{FabricSpec, KernelSpec, MapRequest};
use cgra_mapper_core::service::{execute, ExecEnv};
use cgra_mapper_core::telemetry::Telemetry;
use proptest::prelude::*;

/// Topologies whose links are relative offsets, so a sub-rectangle
/// inherits exactly the full fabric's internal links.
const FAITHFUL: [Topology; 3] = [Topology::Mesh, Topology::MeshPlus, Topology::OneHop];

fn spec(rows: u16, cols: u16, topology: Topology) -> FabricSpec {
    FabricSpec {
        rows,
        cols,
        topology,
        adres: false,
    }
}

proptest! {
    /// Partitions tile the fabric exactly: disjoint, in bounds, no
    /// holes, and never thinner than MIN_SIDE on either axis.
    #[test]
    fn partitions_tile_exactly(
        rows in 2u16..=9,
        cols in 2u16..=9,
        topo in 0usize..FAITHFUL.len(),
        want in 1usize..=16,
    ) {
        let full = spec(rows, cols, FAITHFUL[topo]);
        let max = fleet::max_partitions(&full);
        let parts = want.min(max).max(1);
        let topo_cache = TopologyCache::build(&full.build().unwrap());
        let tiles = fleet::partition_fabric(&full, parts, &topo_cache).unwrap();
        prop_assert_eq!(tiles.len(), parts);

        let mut covered = vec![false; rows as usize * cols as usize];
        for t in &tiles {
            prop_assert!(t.spec.rows >= MIN_SIDE && t.spec.cols >= MIN_SIDE);
            prop_assert!(t.row0 + t.spec.rows <= rows);
            prop_assert!(t.col0 + t.spec.cols <= cols);
            prop_assert_eq!(t.spec.topology, full.topology);
            for (r, c) in t.cells() {
                let cell = &mut covered[r as usize * cols as usize + c as usize];
                prop_assert!(!*cell, "cell ({r},{c}) covered twice");
                *cell = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "tiling left holes");
    }

    /// Position-dependent layouts cannot be carved into
    /// partition-faithful rectangles and must be rejected, as must
    /// degenerate partition counts.
    #[test]
    fn unfaithful_fabrics_are_rejected(
        rows in 4u16..=8,
        cols in 4u16..=8,
        parts in 1usize..=4,
    ) {
        let torus = spec(rows, cols, Topology::Torus);
        let torus_cache = TopologyCache::build(&torus.build().unwrap());
        prop_assert!(fleet::partition_fabric(&torus, parts, &torus_cache).is_err());

        let mut adres = spec(rows, cols, Topology::Mesh);
        adres.adres = true;
        let adres_cache = TopologyCache::build(&adres.build().unwrap());
        prop_assert!(fleet::partition_fabric(&adres, parts, &adres_cache).is_err());

        let mesh = spec(rows, cols, Topology::Mesh);
        let mesh_cache = TopologyCache::build(&mesh.build().unwrap());
        prop_assert!(fleet::partition_fabric(&mesh, 0, &mesh_cache).is_err());
        let over = fleet::max_partitions(&mesh) + 1;
        prop_assert!(fleet::partition_fabric(&mesh, over, &mesh_cache).is_err());
    }
}

proptest! {
    // Each case solves a real mapping per partition; keep the sweep
    // small enough for CI while still varying shape and topology.
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// A mapping solved on a sub-fabric, translated to absolute
    /// coordinates, passes full validation on the whole fabric — the
    /// invariant that makes co-mapped results composable.
    #[test]
    fn translated_mappings_validate_on_the_full_fabric(
        rows in 4u16..=6,
        cols in 4u16..=6,
        topo in 0usize..FAITHFUL.len(),
        parts in 2usize..=3,
    ) {
        let full = spec(rows, cols, FAITHFUL[topo]);
        let topo_cache = TopologyCache::build(&full.build().unwrap());
        let tiles = fleet::partition_fabric(&full, parts, &topo_cache).unwrap();
        let full_fabric = full.build().unwrap();

        for t in &tiles {
            let mut req = MapRequest::new(
                KernelSpec::Named("dot_product".into()),
                "modulo-list",
            );
            req.fabric = t.spec;
            let out = execute(&req, &ExecEnv::default());
            let mapping = out.mapping.expect("dot_product maps on any >=2x2 tile");
            let abs = t.translate_up(&mapping, &full);
            let dfg = req.kernel.compile_with(&Telemetry::off()).unwrap();
            cgra_mapper_core::validate::validate(&abs, &dfg, &full_fabric)
                .expect("translated mapping must validate on the full fabric");
        }
    }
}

/// A queue of distinct requests: named kernels crossed with seeds so
/// cache keys differ even when kernels repeat.
fn queue(n: usize) -> Vec<MapRequest> {
    const KERNELS: [&str; 6] = [
        "dot_product",
        "fir4",
        "accumulate",
        "clip",
        "ema",
        "polyval",
    ];
    (0..n)
        .map(|i| {
            let mut req = MapRequest::new(
                KernelSpec::Named(KERNELS[i % KERNELS.len()].into()),
                "modulo-list",
            );
            req.config.seed = i as u64;
            req
        })
        .collect()
}

proptest! {
    /// The same queue over the same farm plans identically on every
    /// call (the plan is a pure function — no hash-map iteration
    /// order, no RNG), covers every queue index exactly once, and
    /// gives each fabric a contiguous slot sequence 0..jobs.
    #[test]
    fn plan_is_deterministic_and_covers_the_queue(
        n in 1usize..=12,
        farm_cols in 4u16..=8,
    ) {
        let reqs = queue(n);
        let farm = vec![
            FleetFabric::new("a", spec(4, farm_cols, Topology::Mesh)),
            FleetFabric::new("b", spec(6, 6, Topology::MeshPlus)),
        ];
        let first = fleet::plan(&reqs, &farm, None).unwrap();
        let again = fleet::plan(&reqs, &farm, None).unwrap();
        prop_assert_eq!(&first, &again, "plan must be deterministic");

        let mut seen = vec![0usize; n];
        for job in &first.jobs {
            prop_assert!(job.fabric_index < farm.len());
            seen[job.queue_index] += 1;
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "every job exactly once");

        for f in 0..farm.len() {
            let mut slots: Vec<usize> = first
                .jobs
                .iter()
                .filter(|j| j.fabric_index == f)
                .map(|j| j.slot)
                .collect();
            slots.sort_unstable();
            let want: Vec<usize> = (0..slots.len()).collect();
            prop_assert_eq!(slots, want, "slots on fabric {} not contiguous", f);
        }
    }
}

/// The cold plan of a fixed 20-job queue — ten suite kernels × seeds
/// 1–2 over an 8×8 mesh + 6×6 mesh-plus farm — pinned by equality.
/// The plan is a pure function of the queue, so its balance is a
/// fact about the planner, not about how many cores a run got; a
/// change to the cost model or the LPT order moves these numbers.
#[test]
fn cold_plan_of_the_reference_queue_is_pinned() {
    const KERNELS: [&str; 10] = [
        "dot_product",
        "accumulate",
        "fir4",
        "iir1",
        "conv3",
        "sad",
        "horner4",
        "threshold",
        "fft_butterfly",
        "laplacian",
    ];
    let reqs: Vec<MapRequest> = (1..=2u64)
        .flat_map(|seed| KERNELS.iter().map(move |k| (seed, k)))
        .zip(1u64..)
        .map(|((seed, k), id)| {
            let mut req = MapRequest::new(KernelSpec::Named(k.to_string()), "modulo-list");
            req.config.seed = seed;
            req.id = id;
            req
        })
        .collect();
    assert_eq!(reqs.len(), 20);
    let farm = [
        FleetFabric::new("8x8 mesh", spec(8, 8, Topology::Mesh)),
        FleetFabric::new("6x6 mesh+", spec(6, 6, Topology::MeshPlus)),
    ];
    let plan = fleet::plan(&reqs, &farm, None).unwrap();
    for (f, fabric) in farm.iter().enumerate() {
        let jobs = plan.jobs.iter().filter(|j| j.fabric_index == f).count();
        assert_eq!(jobs, 10, "jobs on {}", fabric.name);
    }
    assert_eq!(plan.loads, vec![115.0, 115.0]);
    assert_eq!(plan.makespan, 115.0);
}
