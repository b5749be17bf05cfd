//! The traced pass: per-layer metrics, measured from outside by timing
//! calls into each layer's public functions and by reading what the
//! public API already returns (`MapOutcome.{queue_us,stats}`, the span
//! stream of a caller-owned `Telemetry`, `MapService::stats()`).
//!
//! A traced request is the real request (over the wire for `serve_*`,
//! `execute` for `map_*`) followed by a *replay*: the same request
//! walked through the layers one public call at a time, each call a
//! span. End-to-end numbers never come from this pass.

use crate::catalog;
use crate::gen;
use crate::oracle::{Fabrics, Subject};
use crate::span::{SpanId, Tracer};
use crate::stats;
use crate::workloads::{
    check_service_stats, map_instances, map_setup, serve_setup, Args, Report, ServeKind,
};
use cgra::arch::TopologyCache;
use cgra::ir::{frontend, passes};
use cgra::mapper::request::{CacheKey, KernelSpec, MapOutcome, MapRequest};
use cgra::mapper::route::route_all_with;
use cgra::mapper::service::{execute, ExecEnv, MapService, ResultCache, ServiceOptions};
use cgra::mapper::{
    MapperRegistry, Mapping, Metrics, Phase, ServiceMetrics, StatsSnapshot, Telemetry,
    UtilizationMap,
};
use cgra::serve::{Op, ServeOptions};
use cgra::solver::{Cmp, CpModel, IlpModel, Lit, Lp, SatSolver, SatVar};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Whole passes per second of `--seconds`: the traced pass is bounded
/// by a request count, not by the clock, so that the `service.*`
/// counts repeat exactly from run to run.
fn traced_passes(kind: ServeKind, seconds: f64) -> u64 {
    let per_second = match kind {
        ServeKind::Hit => 10.0,
        ServeKind::Miss => 0.2,
    };
    ((seconds * per_second).round() as u64).max(1)
}

/// Requests whose spans are written to the trace file.
const TRACE_FILE_REQUESTS: usize = 200;

/// Per-layer values by metric name; anything never set reads 0.
#[derive(Default)]
struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        debug_assert!(catalog::find(name).is_some(), "unknown metric {name}");
        self.0.insert(name.to_string(), value);
    }

    fn into_metrics(self) -> Vec<(String, f64)> {
        catalog::per_layer()
            .into_iter()
            .map(|m| {
                let v = self.0.get(&m.name).copied().unwrap_or(0.0);
                (m.name, v)
            })
            .collect()
    }
}

fn median_us(tr: &Tracer, name: &str) -> f64 {
    stats::median(&tr.durations_us(name))
}

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// Search-effort counters and per-mapper figures summed over every
/// traced `execute`.
#[derive(Default)]
struct Effort {
    stats: Vec<StatsSnapshot>,
    /// `(mapper, kernel, fabric label, ii, execute ms)`.
    runs: Vec<(String, String, String, u32, f64)>,
    execute_ns: u64,
    route_ns: u64,
}

impl Effort {
    fn sum(&self, f: impl Fn(&StatsSnapshot) -> u64) -> f64 {
        self.stats.iter().map(f).sum::<u64>() as f64
    }

    fn report(&self, layers: &mut Layers) {
        for m in catalog::MAPPERS {
            let mine: Vec<&(String, String, String, u32, f64)> =
                self.runs.iter().filter(|r| r.0 == m).collect();
            if mine.is_empty() {
                continue;
            }
            let ms: Vec<f64> = mine.iter().map(|r| r.4).collect();
            layers.set(&format!("mappers.{m}.map_ms"), stats::geomean(&ms));
            layers.set(
                &format!("mappers.{m}.ii_sum"),
                mine.iter().map(|r| r.3 as f64).sum(),
            );
        }
        layers.set("mappers.ii_attempts", self.sum(|s| s.ii_attempts));
        layers.set("mappers.placements_tried", self.sum(|s| s.placements_tried));
        layers.set("mappers.backtracks", self.sum(|s| s.backtracks));
        layers.set("mappers.moves_proposed", self.sum(|s| s.moves_proposed));
        layers.set(
            "mappers.exact_ii_disagreements",
            self.exact_ii_disagreements().len() as f64,
        );
        let calls = self.sum(|s| s.routing_calls);
        let failures = self.sum(|s| s.routing_failures);
        layers.set("route.calls", calls);
        layers.set("route.failures", failures);
        if calls > 0.0 {
            layers.set("route.useful_ratio", 1.0 - failures / calls);
        }
        if self.execute_ns > 0 {
            layers.set(
                "route.span_share",
                self.route_ns as f64 / self.execute_ns as f64,
            );
        }
        layers.set("solver.decisions", self.sum(|s| s.solver_decisions));
        layers.set("solver.propagations", self.sum(|s| s.solver_propagations));
        layers.set("solver.conflicts", self.sum(|s| s.solver_conflicts));
        layers.set("solver.restarts", self.sum(|s| s.solver_restarts));
        layers.set(
            "solver.assumption_solves",
            self.sum(|s| s.solver_assumption_solves),
        );
        layers.set("solver.learnt_kept", self.sum(|s| s.solver_learnt_kept));
    }

    /// `kernel/fabric: mapper=ii …` for every instance on which two
    /// exact mappers returned different IIs — a finding, not a failure.
    fn exact_ii_disagreements(&self) -> Vec<String> {
        let mut by_instance: BTreeMap<(String, String), Vec<(String, u32)>> = BTreeMap::new();
        for (mapper, kernel, fabric, ii, _) in &self.runs {
            let exact = MapperRegistry::standard()
                .get(mapper)
                .is_some_and(|spec| spec.family.is_exact());
            if exact {
                by_instance
                    .entry((kernel.clone(), fabric.clone()))
                    .or_default()
                    .push((mapper.clone(), *ii));
            }
        }
        by_instance
            .into_iter()
            .filter(|(_, iis)| iis.iter().any(|(_, ii)| *ii != iis[0].1))
            .map(|((kernel, fabric), iis)| {
                let row: Vec<String> = iis.iter().map(|(m, ii)| format!("{m}={ii}")).collect();
                format!("{kernel}/{fabric}: {}", row.join(" "))
            })
            .collect()
    }
}

fn phase_span_name(p: Phase) -> &'static str {
    match p {
        Phase::Parse => "core.parse",
        Phase::Optimize => "core.optimize",
        Phase::Map => "core.map",
        Phase::Route => "core.route",
        Phase::Validate => "core.validate",
        Phase::Simulate => "core.simulate",
    }
}

/// `execute` under a caller-owned telemetry sink: one `service.execute`
/// span with the program's own phase spans attached beneath it.
fn traced_execute(tr: &mut Tracer, req: &MapRequest, effort: &mut Effort) -> (MapOutcome, SpanId) {
    let id = tr.enter("service.execute");
    let base_ns = tr.now_ns();
    let tele = Telemetry::enabled();
    let env = ExecEnv {
        telemetry: Some(tele.clone()),
        ..ExecEnv::default()
    };
    let out = execute(req, &env);
    let dur_ns = tr.exit(id);

    // Outer spans first, so `attach` nests route under map.
    let mut spans = tele.spans();
    spans.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.dur_us)));
    let mut route_reach = 0u64;
    for s in &spans {
        let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
        tr.attach(
            id,
            phase_span_name(s.phase),
            base_ns + lo * 1000,
            base_ns + hi * 1000,
        );
        if s.phase == Phase::Route && hi > route_reach {
            effort.route_ns += (hi - lo.max(route_reach)) * 1000;
            route_reach = hi;
        }
    }
    effort.execute_ns += dur_ns;
    if let Some(s) = out.stats {
        effort.stats.push(s);
    }
    if let Some(ii) = out.ii() {
        effort.runs.push((
            req.mapper.clone(),
            out.kernel.clone(),
            gen::fabric_label(&req.fabric),
            ii,
            dur_ns as f64 / 1e6,
        ));
    }
    (out, id)
}

/// The layers a mapping passes through, one public call each.
/// Returns the DFG's size before and after the middle-end for a
/// `Source` kernel.
fn probe_layers(
    tr: &mut Tracer,
    req: &MapRequest,
    m: &Mapping,
    subject: &Subject,
) -> Option<(usize, usize)> {
    let mut nodes = None;
    if let KernelSpec::Source { source, name } = &req.kernel {
        let compiled = tr.time("ir.frontend", || match name {
            Some(n) => frontend::compile_kernel_named(source, n),
            None => frontend::compile_kernel(source),
        });
        if let Ok(k) = compiled {
            let mut dfg = k.dfg;
            let before = dfg.node_count();
            tr.time("ir.passes", || passes::optimize(&mut dfg));
            nodes = Some((before, dfg.node_count()));
        }
    }
    if let Ok(fabric) = tr.time("arch.fabric_build", || req.fabric.build()) {
        black_box(tr.time("arch.topo_build", || TopologyCache::build(&fabric)));
    }
    black_box(tr.time("route.route_all", || {
        route_all_with(
            &subject.fabric,
            &subject.topo,
            &subject.dfg,
            &m.place,
            m.ii,
            12,
            true,
            &Telemetry::off(),
        )
    }));
    let _ = black_box(tr.time("validate.validate", || subject.validate(m)));
    let _ = black_box(tr.time("validate.sim_verify", || subject.simulate(m)));
    black_box(tr.time("metrics.of", || {
        (
            Metrics::of(m, &subject.dfg, &subject.fabric),
            UtilizationMap::of(m, &subject.dfg, &subject.fabric),
        )
    }));
    nodes
}

/// Metrics every workload derives from the probe spans it recorded.
fn report_probes(tr: &Tracer, node_counts: &[(usize, usize)], layers: &mut Layers) {
    for (metric, span) in [
        ("ir.frontend_us", "ir.frontend"),
        ("ir.passes_us", "ir.passes"),
        ("route.route_all_us", "route.route_all"),
        ("validate.validate_us", "validate.validate"),
        ("validate.sim_verify_us", "validate.sim_verify"),
        ("metrics.of_us", "metrics.of"),
    ] {
        layers.set(metric, median_us(tr, span));
    }
    if !node_counts.is_empty() {
        let (ins, outs): (Vec<f64>, Vec<f64>) = node_counts
            .iter()
            .map(|&(i, o)| (i as f64, o as f64))
            .unzip();
        layers.set("ir.nodes_in", stats::median(&ins));
        layers.set("ir.nodes_out", stats::median(&outs));
    }
}

/// `arch.*`: fabric and topology-table construction, 4×4 and 8×8.
fn arch_probes(layers: &mut Layers) {
    for (side, label) in [(4u16, "4x4"), (8, "8x8")] {
        let spec = gen::mesh(side, side);
        let fabric = spec.build().expect("non-empty fabric");
        let build = median_secs(200, || {
            black_box(spec.build().expect("non-empty fabric"));
        });
        let topo = median_secs(200, || {
            black_box(TopologyCache::build(&fabric));
        });
        layers.set(&format!("arch.fabric_build_{label}_us"), build * 1e6);
        layers.set(&format!("arch.topo_build_{label}_us"), topo * 1e6);
    }
}

/// `service.cache_*` / `service.spill_*`: direct calls on a
/// `ResultCache` built here, `cap` entries, filled with real outcomes
/// under synthetic keys.
fn cache_probes(outcomes: &[Arc<MapOutcome>], cap: usize, dir: &Path, layers: &mut Layers) {
    const OPS: u64 = 300;
    let key = |i: u64| CacheKey {
        fabric_fp: i,
        kernel_fp: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        config_fp: 7,
    };
    let outcome = |i: u64| Arc::clone(&outcomes[i as usize % outcomes.len()]);
    let full = |spill: Option<&Path>| {
        let cache = ResultCache::new(cap, spill.map(Path::to_path_buf));
        for i in 0..cap as u64 {
            cache.insert(key(i), outcome(i));
        }
        cache
    };
    let timed_each = |lo: u64, f: &mut dyn FnMut(u64)| -> f64 {
        let times: Vec<f64> = (lo..lo + OPS)
            .map(|i| {
                let t = Instant::now();
                f(i);
                t.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&times)
    };

    // Resident lookups, timed in batches: one is below the clock's grain.
    let cache = full(None);
    let batch = median_secs(50, || {
        for i in 0..cap as u64 {
            black_box(cache.get(&key(i)));
        }
    });
    layers.set("service.cache_get_ns", batch / cap as f64 * 1e9);

    // Insert into a full cache: the eviction scan, victim dropped.
    let cap64 = cap as u64;
    let insert = timed_each(cap64, &mut |i| cache.insert(key(i), outcome(i)));
    layers.set("service.cache_insert_us", insert * 1e6);

    // The same with a spill directory: the victim is serialised and
    // written; the difference is the spill write.
    let _ = std::fs::remove_dir_all(dir);
    let spilling = full(Some(dir));
    let insert_spill = timed_each(cap64, &mut |i| spilling.insert(key(i), outcome(i)));
    layers.set(
        "service.spill_write_us",
        (insert_spill - insert).max(0.0) * 1e6,
    );

    // Look up the entries just spilled (keys 0..OPS were the first
    // victims): read + parse + re-admit, which spills another victim;
    // subtracting the spilling insert leaves the load.
    let reload = timed_each(0, &mut |i| {
        black_box(spilling.get(&key(i)));
    });
    layers.set(
        "service.spill_load_us",
        (reload - insert_spill).max(0.0) * 1e6,
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `service.warm_remap_ms` / `cold_remap_ms`: `sat` on `conv3`/3×3
/// re-requested with `max_ii` tightened 16 → 12, on the service that
/// solved the first request (pooled solver state) and on a fresh one.
fn remap_probes(layers: &mut Layers) {
    let request = |max_ii: u32| {
        let mut req = MapRequest::new(KernelSpec::Named("conv3".into()), "sat");
        req.fabric = gen::mesh(3, 3);
        req.config.max_ii = max_ii;
        req
    };
    let mut warm = Vec::new();
    let mut cold = Vec::new();
    for _ in 0..5 {
        let svc = MapService::new(2, 16, None);
        black_box(svc.handle(&request(16)));
        let t = Instant::now();
        black_box(svc.handle(&request(12)));
        warm.push(t.elapsed().as_secs_f64() * 1e3);
        let fresh = MapService::new(2, 16, None);
        let t = Instant::now();
        black_box(fresh.handle(&request(12)));
        cold.push(t.elapsed().as_secs_f64() * 1e3);
    }
    layers.set("service.warm_remap_ms", stats::median(&warm));
    layers.set("service.cold_remap_ms", stats::median(&cold));
}

/// `solver.*_ms`: the stand-alone instances of
/// `crates/bench/benches/solvers.rs`, rebuilt through `cgra_solver`'s
/// public API.
#[allow(clippy::needless_range_loop)] // pigeonhole clauses index p[a][hole] / p[b][hole]
fn solver_probes(layers: &mut Layers) {
    let php = median_secs(5, || {
        let mut s = SatSolver::new();
        let p: Vec<Vec<SatVar>> = (0..7)
            .map(|_| (0..6).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&x| Lit::pos(x)).collect();
            s.add_clause(&c);
        }
        for hole in 0..6 {
            for a in 0..7 {
                for b in (a + 1)..7 {
                    s.add_clause(&[Lit::neg(p[a][hole]), Lit::neg(p[b][hole])]);
                }
            }
        }
        black_box(s.solve());
    });
    layers.set("solver.sat_php_ms", php * 1e3);

    let assign = median_secs(50, || {
        let n = 8usize;
        let mut lp = Lp::new(n * n, true);
        for i in 0..n {
            for j in 0..n {
                lp.set_objective(i * n + j, ((i * 7 + j * 3) % 11) as f64);
            }
        }
        for i in 0..n {
            let row: Vec<(usize, f64)> = (0..n).map(|j| (i * n + j, 1.0)).collect();
            lp.add_constraint(&row, Cmp::Eq, 1.0);
            let col: Vec<(usize, f64)> = (0..n).map(|j| (j * n + i, 1.0)).collect();
            lp.add_constraint(&col, Cmp::Le, 1.0);
        }
        black_box(lp.solve());
    });
    layers.set("solver.lp_assign_us", assign * 1e6);

    let knapsack = median_secs(5, || {
        let mut m = IlpModel::new(true);
        let weights: Vec<(cgra::solver::IlpVar, f64)> = (0..16)
            .map(|i| {
                let v = m.add_var(((i * 13 + 7) % 19 + 1) as f64);
                (v, ((i * 5 + 3) % 9 + 1) as f64)
            })
            .collect();
        m.add_constraint(&weights, Cmp::Le, 30.0);
        black_box(m.solve());
    });
    layers.set("solver.ilp_knapsack_ms", knapsack * 1e3);

    let queens = median_secs(5, || {
        let n = 8u32;
        let mut m = CpModel::new();
        let cols: Vec<_> = (0..n).map(|_| m.add_var(n)).collect();
        m.all_different(&cols);
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                let d = (j - i) as u32;
                m.binary_table(cols[i], cols[j], move |a, b| a.abs_diff(b) != d);
            }
        }
        black_box(m.solve());
    });
    layers.set("solver.cp_queens_ms", queens * 1e3);
}

/// The `map` op's request line and response line, as `serve.rs`
/// shapes them.
fn map_op(req: &MapRequest) -> Value {
    Value::Object(vec![
        ("op".into(), Value::Str("map".into())),
        ("request".into(), req.to_value()),
    ])
}

fn ok_outcome(out: &MapOutcome) -> Value {
    Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("outcome".into(), out.to_value()),
    ])
}

fn write_trace(tr: &Tracer, args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.scratch).map_err(|e| e.to_string())?;
    // `trace.json` is the last traced workload; the per-workload copy
    // survives a whole-suite run.
    let text = tr
        .to_json(&args.workload, args.seed, TRACE_FILE_REQUESTS)
        .render();
    for name in [
        "trace.json".to_string(),
        format!("trace-{}.json", args.workload),
    ] {
        let path = args.scratch.join(name);
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn serve_traced(kind: ServeKind, args: &Args) -> Result<Report, String> {
    let mut serve = serve_setup(kind, args.seed)?;
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut fabrics = Fabrics::default();

    // The mirror: a `MapService` built like the daemon's and fed the
    // same requests in the same order, so an in-process `handle` sees
    // the cache state the daemon's `handle` saw.
    let opts = ServeOptions::default();
    let mirror = MapService::with_options(ServiceOptions {
        cores: opts.cores,
        cache_cap: opts.cache_cap,
        spill: opts.spill,
        metrics: ServiceMetrics::enabled(),
        max_queue: opts.max_queue,
    });
    let warmup = kind.warmup(args.seed);
    for req in serve.items.iter().chain(&warmup) {
        black_box(mirror.handle(req));
    }

    let mut tr = Tracer::new();
    for _ in 0..2000 {
        if let Err(e) = tr.time("serve.ping", || serve.client.ping()) {
            report.fail(format!("ping: {}", e.0));
        }
    }

    let mut effort = Effort::default();
    let mut nodes: Vec<(usize, usize)> = Vec::new();
    let mut line_bytes = Vec::new();
    let mut response_bytes = Vec::new();
    let mut queue_us = Vec::new();
    let mut miss_overhead_us = Vec::new();
    let mut wire_residual_us = Vec::new();
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let mut coverage = Vec::new();
    let ping_ns = stats::median(&tr.durations_us("serve.ping")) * 1e3;
    let mut next_id = serve.items.len() as u64 + 1;
    let mut sent = 0u64;

    for pass in 0..traced_passes(kind, args.seconds) {
        let requests = match kind {
            ServeKind::Miss => gen::block_requests(args.seed, pass),
            _ => serve.items.clone(),
        };
        for (i, mut req) in requests.into_iter().enumerate() {
            if kind == ServeKind::Hit {
                req.id = next_id;
                next_id += 1;
            }
            sent += 1;
            tr.begin_request(
                req.id,
                format!(
                    "{} {}/{}/{}",
                    args.workload,
                    req.kernel.label(),
                    req.mapper,
                    gen::fabric_label(&req.fabric)
                ),
            );
            let root = tr.enter("request");

            let wire = tr.enter("client.map");
            let answer = serve.client.map(&req);
            let wire_ns = tr.exit(wire);
            let answer = match answer {
                Ok(out) if out.succeeded() => out,
                Ok(out) => {
                    report.fail(format!("{}: {:?}", out.kernel, out.error));
                    tr.exit(root);
                    continue;
                }
                Err(e) => {
                    report.fail(e.0);
                    tr.exit(root);
                    continue;
                }
            };
            queue_us.push(answer.queue_us as f64);

            let replay = tr.enter("replay");
            let line = tr.time("request.render", || map_op(&req).render());
            let parsed = tr.time("request.parse", || {
                serde_json::from_str(&line)
                    .map_err(|e| e.to_string())
                    .and_then(|v| Op::from_json(&v).map_err(|e| e.0))
            });
            if !matches!(parsed, Ok(Op::Map(_))) {
                report.fail("the rendered request line did not parse back".into());
            }
            black_box(tr.time("request.cache_key", || req.cache_key()));
            let handle = tr.enter("service.handle");
            let mirrored = mirror.handle(&req);
            let handle_ns = tr.exit(handle);
            let response = tr.time("request.encode", || ok_outcome(&mirrored).render());
            let decoded = tr.time("request.decode", || {
                serde_json::from_str(&response)
                    .ok()
                    .and_then(|v| v.get("outcome").map(MapOutcome::from_json))
            });
            let replay_ns = tr.exit(replay);
            let codec_ns = replay_ns - handle_ns;
            wire_residual_us.push((wire_ns as f64 - replay_ns as f64) / 1e3);
            line_bytes.push(line.len() as f64);
            response_bytes.push(response.len() as f64);
            let same = matches!(&decoded, Some(Ok(d)) if d.mapping == answer.mapping);
            if mirrored.cache != answer.cache || !same {
                report.fail(format!(
                    "{}: daemon answered {} but the mirror {}",
                    answer.kernel,
                    answer.cache.label(),
                    mirrored.cache.label()
                ));
            }

            let mut explained_ns = ping_ns + codec_ns as f64 + handle_ns as f64;
            if kind == ServeKind::Miss {
                // The miss twice more, cold: unobserved, for what the
                // service adds around `execute`; then observed, for the
                // program's phases; then each layer on its own.
                let plain = tr.enter("execute.untraced");
                black_box(execute(&req, &ExecEnv::default()));
                let exec_ns = tr.exit(plain);
                miss_overhead_us.push((handle_ns as f64 - exec_ns as f64) / 1e3);
                let (cold, exec) = traced_execute(&mut tr, &req, &mut effort);
                plain_ns += exec_ns;
                traced_ns += tr.spans()[exec.index()].dur_ns();
                if let (Some(m), Ok(subject)) =
                    (&cold.mapping, Subject::of(&req, &mut fabrics, args.seed))
                {
                    nodes.extend(probe_layers(&mut tr, &req, m, &subject));
                }
                // What the layer spans explain of this miss: the wire
                // as a ping, the codec, the service's own overhead and
                // the program's top-level phases inside `execute`.
                let phases: u64 = tr
                    .spans()
                    .iter()
                    .filter(|s| s.parent == Some(exec.index()))
                    .map(|s| s.dur_ns())
                    .sum();
                explained_ns = ping_ns
                    + codec_ns as f64
                    + (handle_ns as f64 - exec_ns as f64).max(0.0)
                    + phases as f64;
            } else if pass == 0 {
                // Once per key: the layers its priming miss went through.
                if let (Some(m), Ok(subject)) = (
                    &serve.primed[i].mapping,
                    Subject::of(&req, &mut fabrics, args.seed),
                ) {
                    nodes.extend(probe_layers(&mut tr, &req, m, &subject));
                }
            }
            coverage.push(explained_ns / wire_ns as f64);
            tr.exit(root);
        }
    }
    report.attempted = sent;

    // Counters: the daemon's and the mirror's must agree.
    match serve.client.stats() {
        Ok(s) => {
            let primed = (serve.items.len() + warmup.len()) as u64;
            check_service_stats(kind, &s, primed, sent, &mut report);
            let m = mirror.stats();
            if (s.hits, s.misses, s.evictions, s.disk_spills)
                != (m.hits, m.misses, m.evictions, m.disk_spills)
            {
                report.fail(format!("daemon {s:?} and mirror {m:?} disagree"));
            }
            for (name, v) in [
                ("hits", s.hits),
                ("misses", s.misses),
                ("warm", s.warm),
                ("coalesced", s.coalesced),
                ("evictions", s.evictions),
                ("disk_spills", s.disk_spills),
                ("rejections", s.rejections),
            ] {
                layers.set(&format!("service.{name}"), v as f64);
            }
        }
        Err(e) => report.fail(format!("stats op: {}", e.0)),
    }

    layers.set("request.line_bytes", stats::median(&line_bytes));
    layers.set("request.response_bytes", stats::median(&response_bytes));
    layers.set("request.render_us", median_us(&tr, "request.render"));
    layers.set("request.parse_us", median_us(&tr, "request.parse"));
    layers.set(
        "request.cache_key_ns",
        median_us(&tr, "request.cache_key") * 1e3,
    );
    layers.set("request.encode_us", median_us(&tr, "request.encode"));
    layers.set("request.decode_us", median_us(&tr, "request.decode"));
    layers.set("serve.ping_rtt_us", ping_ns / 1e3);
    let handle_us = median_us(&tr, "service.handle");
    layers.set("serve.wire_residual_us", stats::median(&wire_residual_us));
    layers.set("service.queue_wait_us", stats::median(&queue_us));
    if kind == ServeKind::Miss {
        layers.set(
            "service.handle_miss_overhead_us",
            stats::median(&miss_overhead_us),
        );
        layers.set("trace.coverage_miss", stats::median(&coverage));
        layers.set(
            "trace.overhead_share",
            traced_ns as f64 / plain_ns.max(1) as f64 - 1.0,
        );
        remap_probes(&mut layers);
    } else {
        layers.set("service.handle_hit_us", handle_us);
        layers.set("trace.coverage_hit", stats::median(&coverage));
    }
    let outcomes: Vec<Arc<MapOutcome>> = if serve.primed.is_empty() {
        // `serve_miss` primes nothing; probe the cache with one real outcome.
        vec![Arc::new(execute(
            &gen::hit_requests(args.seed)[0],
            &ExecEnv::default(),
        ))]
    } else {
        serve.primed.iter().cloned().map(Arc::new).collect()
    };
    let probe_spill = args
        .scratch
        .join(format!("spill-probe-{}", std::process::id()));
    cache_probes(&outcomes, opts.cache_cap, &probe_spill, &mut layers);
    arch_probes(&mut layers);
    report_probes(&tr, &nodes, &mut layers);
    effort.report(&mut layers);

    drop(serve);
    write_trace(&tr, args)?;
    report.metrics = layers.into_metrics();
    Ok(report)
}

fn map_traced(args: &Args) -> Result<Report, String> {
    let prepared = map_setup(&map_instances(&args.workload), args.seed)?;
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut tr = Tracer::new();
    let mut effort = Effort::default();
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);

    // One pass: each instance unobserved, then observed, then layer by
    // layer. The two `execute` timings side by side are the tracing
    // overhead.
    for p in &prepared {
        report.attempted += 1;
        tr.begin_request(
            p.request.id,
            format!("{} {}", args.workload, p.instance.label()),
        );
        let root = tr.enter("request");
        let plain = tr.enter("execute.untraced");
        black_box(execute(&p.request, &ExecEnv::default()));
        plain_ns += tr.exit(plain);
        let (out, exec) = traced_execute(&mut tr, &p.request, &mut effort);
        traced_ns += tr.spans()[exec.index()].dur_ns();
        match &out.mapping {
            Some(m) => {
                probe_layers(&mut tr, &p.request, m, &p.subject);
            }
            None => report.fail(format!("{}: {:?}", p.instance.label(), out.error)),
        }
        tr.exit(root);
    }

    layers.set(
        "trace.overhead_share",
        traced_ns as f64 / plain_ns.max(1) as f64 - 1.0,
    );
    report_probes(&tr, &[], &mut layers);
    effort.report(&mut layers);
    arch_probes(&mut layers);
    if args.workload == "map_exact" {
        solver_probes(&mut layers);
        for row in effort.exact_ii_disagreements() {
            eprintln!("exact II disagreement: {row}");
        }
    }
    write_trace(&tr, args)?;
    report.metrics = layers.into_metrics();
    Ok(report)
}

/// Run one workload's traced pass and return the per-layer report.
pub fn traced(args: &Args) -> Result<Report, String> {
    match ServeKind::of(&args.workload) {
        Some(kind) => serve_traced(kind, args),
        None => map_traced(args),
    }
}
