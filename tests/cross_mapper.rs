//! Cross-mapper consistency: the relations the survey's taxonomy
//! predicts between technique families, checked on real runs.

use cgra::prelude::*;
use std::time::Duration;

fn cfg() -> MapConfig {
    MapConfig {
        time_limit: Duration::from_secs(15),
        ..MapConfig::default()
    }
}

#[test]
fn exact_ii_never_worse_than_heuristic_on_shared_successes() {
    // Where both the SAT mapper (exact within its window) and the
    // modulo-list heuristic succeed, the exact II must be ≤ the
    // heuristic's: the exact method proves optimality per II probe.
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let heuristic = ModuloList::default();
    let exact = SatMapper::default();
    let mut compared = 0;
    for dfg in kernels::small_suite() {
        let h = heuristic.map(&dfg, &fabric, &cfg());
        let e = exact.map(&dfg, &fabric, &cfg());
        if let (Ok(h), Ok(e)) = (h, e) {
            assert!(
                e.ii <= h.ii,
                "{}: exact II {} > heuristic II {}",
                dfg.name,
                e.ii,
                h.ii
            );
            compared += 1;
        }
    }
    assert!(compared >= 4, "only {compared} kernels compared");
}

#[test]
fn all_successful_mappers_agree_on_functional_semantics() {
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let dfg = kernels::sad();
    let tape = Tape::generate(2, 6, |s, i| ((s + 1) * (i + 1)) as i64 % 17);
    let golden = Interpreter::run(&dfg, 6, &tape).unwrap();
    let mut succeeded = 0;
    for mapper in all_mappers() {
        if let Ok(m) = mapper.map(&dfg, &fabric, &cfg()) {
            let stats = simulate(&m, &dfg, &fabric, 6, &tape)
                .unwrap_or_else(|e| panic!("{}: {e}", mapper.name()));
            assert_eq!(stats.outputs, golden.outputs, "{}", mapper.name());
            succeeded += 1;
        }
    }
    assert!(succeeded >= 10, "only {succeeded} mappers succeeded on sad");
}

#[test]
fn spatial_mappers_produce_ii_one_and_temporal_mappers_respect_mii() {
    let fabric = Fabric::homogeneous(6, 6, Topology::Mesh);
    let dfg = kernels::fir(3);
    let mii = ModuloList::mii(&dfg, &fabric);
    for mapper in all_mappers() {
        if let Ok(m) = mapper.map(&dfg, &fabric, &cfg()) {
            if mapper.is_spatial() {
                assert_eq!(m.ii, 1, "{}", mapper.name());
                assert!(m.is_spatial(), "{}", mapper.name());
            } else {
                assert!(
                    m.ii >= mii,
                    "{}: II {} below MII {mii}",
                    mapper.name(),
                    m.ii
                );
            }
        }
    }
}

#[test]
fn temporal_mappers_answer_inside_the_requested_ii_range() {
    // The range is the contract `parallel_ii` pins jobs with: a
    // mapping outside `max(min_ii, MII)..=max_ii` answers a question
    // nobody asked.
    let fabric = Fabric::homogeneous(3, 3, Topology::Mesh);
    for max_ii in 1..=3 {
        let cfg = MapConfig { max_ii, ..cfg() };
        for dfg in kernels::small_suite() {
            let lo = cfg.min_ii.max(ModuloList::mii(&dfg, &fabric));
            for mapper in all_mappers().iter().filter(|m| !m.is_spatial()) {
                if let Ok(m) = mapper.map(&dfg, &fabric, &cfg) {
                    assert!(
                        (lo..=max_ii).contains(&m.ii),
                        "{} on {}: II {} outside {lo}..={max_ii}",
                        mapper.name(),
                        dfg.name,
                        m.ii
                    );
                }
            }
        }
    }
}

#[test]
fn sat_and_cp_agree_on_ii() {
    // ROADMAP's "exact means exact" oracle, for the pair of exact
    // mappers that agrees today: same candidate windows (`window_iis`
    // 2), same placement model, so the same II — which the other exact
    // mappers are to be held to once their disagreements are closed.
    let (sat, cp) = (SatMapper::default(), CpMapper::default());
    let mut iis = Vec::new();
    for dfg in kernels::small_suite() {
        for side in [3, 4] {
            let fabric = Fabric::homogeneous(side, side, Topology::Mesh);
            let s = sat.map(&dfg, &fabric, &cfg()).expect("sat maps").ii;
            let c = cp.map(&dfg, &fabric, &cfg()).expect("cp maps").ii;
            assert_eq!(s, c, "{} on {side}x{side}: sat {s}, cp {c}", dfg.name);
            iis.push(s);
        }
    }
    assert_eq!(iis, [1, 1, 1, 1, 3, 3, 1, 1, 1, 1, 2, 2]);
}

#[test]
fn tighter_fabric_cannot_improve_best_ii() {
    // Monotonicity: the best II on a 2x2 can never beat the best II on
    // a 4x4 (more resources never hurt an exact probe).
    let big = Fabric::homogeneous(4, 4, Topology::Mesh);
    let small = Fabric::homogeneous(2, 2, Topology::Mesh);
    let exact = SatMapper::default();
    for dfg in [kernels::dot_product(), kernels::accumulate()] {
        let on_big = exact.map(&dfg, &big, &cfg()).expect("big fabric maps");
        if let Ok(on_small) = exact.map(&dfg, &small, &cfg()) {
            assert!(
                on_small.ii >= on_big.ii,
                "{}: small {} < big {}",
                dfg.name,
                on_small.ii,
                on_big.ii
            );
        }
    }
}

#[test]
fn failure_modes_are_reported_not_panicked() {
    // An impossible kernel (more live values than the machine can hold)
    // must yield Err from every mapper, never a panic or an invalid map.
    let fabric = Fabric::homogeneous(2, 2, Topology::Mesh);
    let dfg = kernels::unrolled_mac(30);
    for mapper in all_mappers() {
        if let Ok(m) = mapper.map(&dfg, &fabric, &MapConfig::fast()) {
            validate(&m, &dfg, &fabric)
                .unwrap_or_else(|e| panic!("{}: invalid: {e}", mapper.name()))
        }
    }
}

#[test]
fn survey_families_all_represented() {
    use cgra::mapper::Family;
    let mappers = all_mappers();
    for family in [
        Family::Heuristic,
        Family::MetaPopulation,
        Family::MetaLocalSearch,
        Family::ExactIlp,
        Family::ExactCsp,
    ] {
        assert!(
            mappers.iter().any(|m| m.family() == family),
            "{family:?} unimplemented"
        );
    }
    // And the Table I corpus backs every implemented family.
    let table = survey::table1_cells();
    assert!(table
        .keys()
        .any(|(_, t)| matches!(t, survey::Technique::Sat)));
    assert!(table
        .keys()
        .any(|(_, t)| matches!(t, survey::Technique::Smt)));
}

/// FNV-1a digest of everything a mapping decides: II, every placement,
/// every route step.
fn mapping_digest(m: &Mapping) -> u64 {
    let mut h = cgra::mapper::request::Fnv::new();
    h.u64(m.ii as u64);
    for p in &m.place {
        h.u64(p.pe.0 as u64).u64(p.time as u64);
    }
    for r in &m.routes {
        h.u64(r.start_time as u64).u64(r.steps.len() as u64);
        for pe in &r.steps {
            h.u64(pe.0 as u64);
        }
    }
    h.finish()
}

/// One `mapper kernel NxN digest` line per mapper × kernel × square
/// fabric, compared with (or, under `CGRA_BLESS`, written to)
/// `tests/golden/<file>`. A torus is labelled `NxNt`, as `benchmark/`
/// labels it.
fn check_golden_digests(
    file: &str,
    mappers: &[(&str, Box<dyn Mapper>)],
    dfgs: &[Dfg],
    fabrics: &[(u16, Topology)],
) {
    let path = format!("{}/../../tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let mut got = String::new();
    for (name, mapper) in mappers {
        for dfg in dfgs {
            for &(side, topology) in fabrics {
                let fabric = Fabric::homogeneous(side, side, topology);
                let digest = match mapper.map(dfg, &fabric, &cfg()) {
                    Ok(m) => format!("{:016x}", mapping_digest(&m)),
                    Err(_) => "unmapped".to_string(),
                };
                let t = if topology == Topology::Torus { "t" } else { "" };
                got += &format!("{name} {} {side}x{side}{t} {digest}\n", dfg.name);
            }
        }
    }
    if std::env::var_os("CGRA_BLESS").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "mapping changed");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

#[test]
fn heuristic_mappings_match_the_golden_digests() {
    // Pins mapping identity, not just II: a router or placement change
    // that claims to be result-identical must leave every line of
    // tests/golden/mapping_digests.txt alone. Regenerate (only for an
    // intended behaviour change) with
    //   CGRA_BLESS=1 cargo test --offline -p cgra --test cross_mapper golden_digests
    use cgra::mapper::Family;
    let mappers: Vec<_> = cgra::mapper::MapperRegistry::standard()
        .specs()
        .iter()
        .filter(|s| !matches!(s.family, Family::ExactIlp | Family::ExactCsp))
        .map(|s| (s.name, s.build()))
        .collect();
    check_golden_digests(
        "mapping_digests.txt",
        &mappers,
        &kernels::small_suite(),
        &[(4, Topology::Mesh), (8, Topology::Mesh)],
    );
}

#[test]
fn meta_mappings_match_the_golden_digests() {
    // The same pin for the meta-heuristics on every kernel `map_heuristic`
    // runs them on: the suite minus its three largest kernels, on a 4×4
    // mesh (same CGRA_BLESS recipe). A change to how a binding is scored
    // that claims the same costs must leave every line alone.
    let registry = cgra::mapper::MapperRegistry::standard();
    let mappers: Vec<_> = ["sa", "ga", "qea"]
        .into_iter()
        .map(|name| (name, registry.build(name).expect("registry mapper")))
        .collect();
    let large = ["sobel", "yuv2rgb", "fft_butterfly"];
    let dfgs: Vec<Dfg> = kernels::suite()
        .into_iter()
        .filter(|k| !large.contains(&k.name.as_str()))
        .collect();
    assert_eq!(dfgs.len(), 10);
    check_golden_digests(
        "meta_mapping_digests.txt",
        &mappers,
        &dfgs,
        &[(4, Topology::Mesh)],
    );
}

#[test]
fn serve_mappings_match_the_golden_digests() {
    // The same pin for the four mappers `cgra-serve`'s miss workload
    // asks for, on the fabrics most of its routing time is spent on: a
    // 6×6 mesh and an 8×8 torus (same CGRA_BLESS recipe).
    let registry = cgra::mapper::MapperRegistry::standard();
    let mappers: Vec<_> = ["modulo-list", "edge-centric", "epimap", "himap"]
        .into_iter()
        .map(|name| (name, registry.build(name).expect("registry mapper")))
        .collect();
    check_golden_digests(
        "serve_mapping_digests.txt",
        &mappers,
        &kernels::small_suite(),
        &[(6, Topology::Mesh), (8, Topology::Torus)],
    );
}

#[test]
fn exact_mappings_match_the_golden_digests() {
    // The same pin for the exact families, on the fabrics `map_exact`
    // uses: an encoding or CEGAR change that claims to be
    // result-identical must leave tests/golden/exact_mapping_digests.txt
    // alone (same CGRA_BLESS recipe). `smt` is left out because its
    // digest would pin the clock, not the search: threshold/4x4 and
    // horner4/4x4 run into the 15 s limit and horner4/3x3 fails after
    // 9-10 s, so what it returns depends on how fast the box is.
    let registry = cgra::mapper::MapperRegistry::standard();
    let mappers: Vec<_> = ["sat", "cp", "ilp", "bnb"]
        .into_iter()
        .map(|name| (name, registry.build(name).expect("registry mapper")))
        .collect();
    check_golden_digests(
        "exact_mapping_digests.txt",
        &mappers,
        &kernels::small_suite(),
        &[(3, Topology::Mesh), (4, Topology::Mesh)],
    );
}
