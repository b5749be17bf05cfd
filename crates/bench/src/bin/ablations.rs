//! Experiment: **ablations** — the design choices DESIGN.md §4 calls
//! out, each measured on the kernel suite:
//!
//! 1. negotiated (PathFinder) vs single-pass routing,
//! 2. II search order (bottom-up vs binary),
//! 3. SA cooling schedule (geometric vs linear),
//! 4. SAT at-most-one encoding (pairwise vs sequential),
//! 5. predication scheme on an ITE kernel,
//! 6. hardware loop unit on/off,
//! 7. memory banking policy on the matmul body.
//!
//! ```sh
//! cargo run --release -p cgra-bench --bin ablations
//! ```

use cgra::mapper::ctrlflow::{predicate_diamond, with_loop_control, IteScheme};
use cgra::mapper::memmap::{bank_conflicts, memory_trace, BankPolicy};
use cgra::prelude::*;
use cgra_bench::save_json;
use cgra_solver::cnf::AmoEncoding;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Abl {
    experiment: String,
    variant: String,
    metric: String,
    value: f64,
}

/// Binary search over pinned single-II jobs (`min_ii == max_ii`), the
/// way `parallel_ii` probes. Feasibility is not monotone for greedy
/// list scheduling, so this is the smallest II among the probes, not
/// the minimum.
fn bisect_ii(mapper: &dyn Mapper, k: &Dfg, fabric: &Fabric, cfg: &MapConfig) -> Option<u32> {
    let (mut lo, mut hi) = cfg.ii_range(ModuloList::mii(k, fabric), fabric).ok()?;
    let mut best = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let pinned = MapConfig {
            min_ii: mid,
            max_ii: mid,
            ..cfg.clone()
        };
        if mapper.map(k, fabric, &pinned).is_ok() {
            best = Some(mid);
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    best
}

fn main() {
    let mut out: Vec<Abl> = Vec::new();
    let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
    let cfg = MapConfig::default();
    let suite = kernels::suite();

    // 1. Negotiated vs plain routing (spatial mapper carries the flag).
    println!("== ablation 1: negotiated vs single-pass routing ==");
    for (label, plain) in [("negotiated", false), ("single-pass", true)] {
        let mapper = SpatialGreedy {
            plain_routing: plain,
        };
        let ok = suite
            .iter()
            .filter(|k| mapper.map(k, &fabric, &cfg).is_ok())
            .count();
        println!("  {label:<12} spatial success {ok}/{}", suite.len());
        out.push(Abl {
            experiment: "routing".into(),
            variant: label.into(),
            metric: "spatial successes".into(),
            value: ok as f64,
        });
    }

    // 2. II search order: the sweep every temporal mapper runs, against
    //    a bisection of the same range.
    println!("\n== ablation 2: II search order ==");
    let mapper = ModuloList;
    for (label, bisect) in [("bottom-up", false), ("binary", true)] {
        let search = |k: &Dfg| {
            if bisect {
                bisect_ii(&mapper, k, &fabric, &cfg)
            } else {
                mapper.map(k, &fabric, &cfg).ok().map(|m| m.ii)
            }
        };
        let start = Instant::now();
        let iis: Vec<u32> = suite.iter().filter_map(search).collect();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let mean_ii = iis.iter().sum::<u32>() as f64 / iis.len().max(1) as f64;
        println!(
            "  {label:<10} {} successes, mean II {mean_ii:.2}, total {ms:.0} ms",
            iis.len()
        );
        out.push(Abl {
            experiment: "ii-search".into(),
            variant: label.into(),
            metric: "mean II".into(),
            value: mean_ii,
        });
        out.push(Abl {
            experiment: "ii-search".into(),
            variant: label.into(),
            metric: "total ms".into(),
            value: ms,
        });
    }

    // 3. SA cooling.
    println!("\n== ablation 3: SA cooling schedule ==");
    for (label, cooling) in [
        ("geometric", cgra::mapper::mappers::Cooling::Geometric),
        ("linear", cgra::mapper::mappers::Cooling::Linear),
    ] {
        let mapper = SimulatedAnnealing { cooling };
        let ok = kernels::small_suite()
            .iter()
            .filter(|k| mapper.map(k, &fabric, &cfg).is_ok())
            .count();
        println!(
            "  {label:<10} {ok}/{} small kernels",
            kernels::small_suite().len()
        );
        out.push(Abl {
            experiment: "sa-cooling".into(),
            variant: label.into(),
            metric: "successes".into(),
            value: ok as f64,
        });
    }

    // 4. SAT at-most-one encoding.
    println!("\n== ablation 4: SAT at-most-one encoding ==");
    for (label, amo) in [
        ("pairwise", AmoEncoding::Pairwise),
        ("sequential", AmoEncoding::Sequential),
    ] {
        let mapper = SatMapper { amo };
        let start = Instant::now();
        let ok = kernels::small_suite()
            .iter()
            .filter(|k| mapper.map(k, &fabric, &cfg).is_ok())
            .count();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        println!("  {label:<11} {ok} successes in {ms:.0} ms");
        out.push(Abl {
            experiment: "sat-amo".into(),
            variant: label.into(),
            metric: "total ms".into(),
            value: ms,
        });
    }

    // 5. Predication schemes on a control-heavy func.
    println!("\n== ablation 5: ITE mapping schemes ==");
    let ite = frontend::compile_func(
        "func t(x) {
            var y = 0; var z = 0;
            if (x > 64) { y = (x - 64) * 3; z = y + x; } else { y = 64 - x; }
            var w = y + z;
            return;
        }",
    )
    .expect("compiles");
    for scheme in [IteScheme::FullPredication, IteScheme::PartialPredication] {
        let k = predicate_diamond(&ite, scheme).expect("diamond");
        let m = ModuloList.map(&k.dfg, &fabric, &cfg);
        let ii = m.map(|m| m.ii).unwrap_or(0);
        println!(
            "  {:<28} {} ops, II {}",
            scheme.label(),
            k.dfg.node_count(),
            ii
        );
        out.push(Abl {
            experiment: "predication".into(),
            variant: scheme.label().into(),
            metric: "ops".into(),
            value: k.dfg.node_count() as f64,
        });
    }

    // 5b. EPIMap routing slack (the stand-in for its graph transform):
    // a tight window forbids the "inserted route node" slack.
    println!("\n== ablation 5b: EPIMap routing slack (graph-transform stand-in) ==");
    for (label, window) in [("tight (w=1)", 1u32), ("transformed (w=3)", 3)] {
        let mapper = EpiMap { window_iis: window };
        let ok = suite
            .iter()
            .filter(|k| mapper.map(k, &fabric, &cfg).is_ok())
            .count();
        println!("  {label:<18} {ok}/{} kernels", suite.len());
        out.push(Abl {
            experiment: "epimap-window".into(),
            variant: label.into(),
            metric: "successes".into(),
            value: ok as f64,
        });
    }

    // 6. Hardware loops.
    println!("\n== ablation 6: hardware loop unit ==");
    let dot = kernels::dot_product();
    let sw = with_loop_control(&dot, 256);
    let m_hw = ModuloList.map(&dot, &fabric, &cfg).unwrap();
    let m_sw = ModuloList.map(&sw, &fabric, &cfg).unwrap();
    println!(
        "  hw-loop: {} ops II {} | sw-loop: {} ops II {}",
        dot.node_count(),
        m_hw.ii,
        sw.node_count(),
        m_sw.ii
    );
    out.push(Abl {
        experiment: "hw-loop".into(),
        variant: "hardware".into(),
        metric: "ops".into(),
        value: dot.node_count() as f64,
    });
    out.push(Abl {
        experiment: "hw-loop".into(),
        variant: "software".into(),
        metric: "ops".into(),
        value: sw.node_count() as f64,
    });

    // 7. Memory banking on the matmul body.
    println!("\n== ablation 7: memory banking policy ==");
    let mat = kernels::matmul_body();
    let m = ModuloList.map(&mat, &fabric, &cfg).unwrap();
    let tape = Tape::default().with_memory(vec![1; 256]);
    let trace = memory_trace(&mat, 64, &tape).expect("trace");
    for (label, policy) in [
        ("interleaved", BankPolicy::Interleaved),
        ("blocked-64", BankPolicy::Blocked { block: 64 }),
    ] {
        let r = bank_conflicts(&mat, &m, &trace, 4, policy);
        println!(
            "  {label:<12} stalls {} -> effective II {:.2}",
            r.stalls, r.effective_ii
        );
        out.push(Abl {
            experiment: "banking".into(),
            variant: label.into(),
            metric: "effective II".into(),
            value: r.effective_ii,
        });
    }

    save_json("ablations", &out);
}
