//! Fleet scheduling: multi-kernel, multi-CGRA co-mapping (DESIGN §12).
//!
//! The rest of the crate maps *one* kernel onto *one* fabric. Real
//! deployments schedule a dozen kernels across a farm of CGRAs, and
//! this module adds the three missing layers on top of
//! [`service::execute`]:
//!
//! 1. **Spatial partitioning** — [`partition_fabric`] carves a fabric
//!    into rectangular sub-fabrics whose operand links are a subset of
//!    the full fabric's (checked cell-by-cell against the
//!    [`TopologyCache`] adjacency bitsets), so a mapping solved on a
//!    partition translates back to absolute coordinates with
//!    [`Partition::translate_up`] and re-validates on the full fabric.
//! 2. **Co-mapping** — [`co_map`] places independent kernels onto
//!    disjoint partitions concurrently. A partition whose kernel fails
//!    cheaply re-merges: the failed kernels retry at coarser
//!    granularity (half the partitions per wave), down to the whole
//!    fabric, one kernel at a time.
//! 3. **Temporal scheduling** — [`plan`] is a deterministic LPT list
//!    scheduler that time-multiplexes a queue of [`MapRequest`]s
//!    across a heterogeneous farm of fabrics by predicted cost
//!    (MII × DFG size, discounted for requests already solved in a
//!    [`MapService`] cache — warm-start awareness via the cache key),
//!    and [`run`] executes the plan with one worker per fabric,
//!    reporting per-fabric utilization and the fleet makespan.
//!
//! The translation invariant partitioning relies on: `Mesh`,
//! `MeshPlus` and `OneHop` links are relative (row, col) offsets, so
//! every link of a sub-rectangle exists between the corresponding
//! absolute cells. `Torus` wrap-around links and the position-dependent
//! ADRES capability layout break that, so both are rejected with a
//! typed [`FleetError`].

use crate::mapping::Mapping;
use crate::request::{CacheStatus, FabricSpec, MapOutcome, MapRequest};
use crate::service::{execute, ExecEnv, MapService};
use crate::telemetry::Telemetry;
use cgra_arch::{PeId, Topology, TopologyCache};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Typed fleet-layer failure (partitioning or planning; per-kernel
/// mapping failures ride inside their [`MapOutcome`]s instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError(pub String);

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for FleetError {}

impl From<&str> for FleetError {
    fn from(s: &str) -> FleetError {
        FleetError(s.to_string())
    }
}

/// Smallest allowed partition side: a 1-wide strip has no room to
/// route around a busy cell, so partitions stay at least 2×2.
pub const MIN_SIDE: u16 = 2;

/// Cost discount for a request whose exact cache key is already in a
/// [`MapService`] result cache: serving a hit is orders of magnitude
/// cheaper than solving, but not free.
const WARM_DISCOUNT: f64 = 0.05;

/// One rectangular sub-fabric: its origin in the full grid plus the
/// spec a mapper solves against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Top-left corner, absolute row.
    pub row0: u16,
    /// Top-left corner, absolute column.
    pub col0: u16,
    /// The sub-fabric: same topology as the parent, never ADRES.
    pub spec: FabricSpec,
}

impl Partition {
    /// Absolute (row, col) cells this partition owns, row-major.
    pub fn cells(&self) -> Vec<(u16, u16)> {
        let mut out = Vec::with_capacity(self.spec.rows as usize * self.spec.cols as usize);
        for r in 0..self.spec.rows {
            for c in 0..self.spec.cols {
                out.push((self.row0 + r, self.col0 + c));
            }
        }
        out
    }

    /// Does this partition own the absolute cell (r, c)?
    pub fn contains(&self, r: u16, c: u16) -> bool {
        r >= self.row0
            && r < self.row0 + self.spec.rows
            && c >= self.col0
            && c < self.col0 + self.spec.cols
    }

    /// The PE of a `full_cols`-wide grid that sub-fabric PE `pe` of
    /// this partition stands for.
    fn abs(&self, pe: PeId, full_cols: u16) -> PeId {
        let (r, c) = (pe.0 / self.spec.cols, pe.0 % self.spec.cols);
        PeId((r + self.row0) * full_cols + (c + self.col0))
    }

    /// Re-index a mapping solved on this partition's sub-fabric into
    /// the full fabric's absolute coordinates (row-major in both). The
    /// result enters an outcome only through the exit gate
    /// ([`MapOutcome::settle`]) on the full fabric — [`co_map`] and the
    /// service's incumbent fallback both do — which is what makes the
    /// translation invariant a checked contract rather than a
    /// convention.
    pub fn translate_up(&self, m: &Mapping, full: &FabricSpec) -> Mapping {
        m.map_pes(|pe| self.abs(pe, full.cols))
    }
}

/// How many [`MIN_SIDE`]×[`MIN_SIDE`] partitions a fabric can hold —
/// the upper bound [`partition_fabric`] enforces.
pub fn max_partitions(spec: &FabricSpec) -> usize {
    (spec.rows / MIN_SIDE) as usize * (spec.cols / MIN_SIDE) as usize
}

/// Integer square root (floor), for the band-count heuristic.
fn isqrt(n: usize) -> usize {
    let mut r = 0usize;
    while (r + 1) * (r + 1) <= n {
        r += 1;
    }
    r
}

/// Carve `spec` into exactly `parts` rectangular sub-fabrics: `parts`
/// is distributed over horizontal bands (band count chosen so
/// partitions come out near-square), rows over bands and columns
/// within each band as evenly as possible. Every partition is at
/// least [`MIN_SIDE`]×[`MIN_SIDE`]; together they tile the fabric
/// exactly.
///
/// `topo` must be the cache of the *full* fabric: each partition's
/// links are cross-checked against its adjacency bitsets so an
/// unfaithful carve (a sub-fabric link absent between the
/// corresponding absolute cells) is an error here, not a validation
/// surprise later. ADRES presets and `Torus` fabrics are rejected for
/// exactly that reason.
pub fn partition_fabric(
    spec: &FabricSpec,
    parts: usize,
    topo: &TopologyCache,
) -> Result<Vec<Partition>, FleetError> {
    if spec.adres {
        return Err(FleetError(
            "cannot partition an ADRES fabric: the capability layout is position-dependent"
                .to_string(),
        ));
    }
    if spec.topology == Topology::Torus {
        return Err(FleetError(
            "cannot partition a torus fabric: sub-fabric wrap-around links do not exist \
             in the full fabric"
                .to_string(),
        ));
    }
    if parts == 0 {
        return Err("cannot partition into zero parts".into());
    }
    let max = max_partitions(spec);
    if parts > max {
        return Err(FleetError(format!(
            "{}x{} fabric holds at most {max} partitions of {MIN_SIDE}x{MIN_SIDE}, got {parts}",
            spec.rows, spec.cols
        )));
    }

    // Band count: near-square partitions want bands ~ sqrt(parts *
    // rows / cols); clamp so every band is >= MIN_SIDE tall and no
    // band needs more column cuts than fit.
    let per_band_max = (spec.cols / MIN_SIDE) as usize;
    let bands_min = parts.div_ceil(per_band_max);
    let bands_max = ((spec.rows / MIN_SIDE) as usize).min(parts);
    let ideal = isqrt(parts * spec.rows as usize / spec.cols as usize).max(1);
    let bands = ideal.clamp(bands_min, bands_max);

    // Partitions per band: `extra` leading bands take one more.
    let base = parts / bands;
    let extra = parts % bands;
    // Rows per band, proportional to the band's partition count so
    // partition areas stay even; leftover rows go to the first bands.
    let mut out = Vec::with_capacity(parts);
    let mut row0 = 0u16;
    let mut rows_left = spec.rows;
    let mut parts_left = parts;
    for b in 0..bands {
        let band_parts = base + usize::from(b < extra);
        let bands_left = bands - b;
        // Height: proportional share, but always leaving MIN_SIDE rows
        // for each remaining band.
        let h = if bands_left == 1 {
            rows_left
        } else {
            let share = (rows_left as usize * band_parts / parts_left) as u16;
            share.clamp(MIN_SIDE, rows_left - MIN_SIDE * (bands_left as u16 - 1))
        };
        let wbase = spec.cols / band_parts as u16;
        let wextra = spec.cols % band_parts as u16;
        let mut col0 = 0u16;
        for p in 0..band_parts {
            let w = wbase + u16::from((p as u16) < wextra);
            out.push(Partition {
                row0,
                col0,
                spec: FabricSpec {
                    rows: h,
                    cols: w,
                    topology: spec.topology,
                    adres: false,
                },
            });
            col0 += w;
        }
        row0 += h;
        rows_left -= h;
        parts_left -= band_parts;
    }

    // The contract check: every sub-fabric link must exist between the
    // corresponding absolute cells of the full fabric.
    for part in &out {
        let sub = part.spec.build().map_err(|e| FleetError(e.0))?;
        let abs = |pe: PeId| part.abs(pe, spec.cols);
        for pe in sub.pe_ids() {
            for nb in sub.neighbors(pe) {
                if !topo.adjacent(abs(pe), abs(nb)) {
                    return Err(FleetError(format!(
                        "unfaithful partition at ({}, {}): sub-fabric link {}->{} is not a \
                         full-fabric link",
                        part.row0,
                        part.col0,
                        abs(pe).0,
                        abs(nb).0
                    )));
                }
            }
        }
    }
    Ok(out)
}

/// One co-mapped kernel: its outcome (mapping in *absolute* fabric
/// coordinates) plus where and when it landed.
#[derive(Debug, Clone)]
pub struct CoMapped {
    pub outcome: MapOutcome,
    /// The partition it mapped onto; `None` when it needed the whole
    /// fabric (coarsest retry granularity).
    pub partition: Option<Partition>,
    /// 1-based wave index: kernels in the same wave are co-resident on
    /// disjoint partitions; successive waves are reconfigurations.
    pub wave: u32,
}

/// Result of [`co_map`]: per-kernel outcomes index-aligned with the
/// input requests, plus retry accounting.
#[derive(Debug, Clone)]
pub struct CoMapReport {
    pub fabric: FabricSpec,
    pub jobs: Vec<CoMapped>,
    /// Mapping waves executed (1 when everything fit the first carve).
    pub waves: u32,
    /// Granularity-coarsening retries (partition count halvings).
    pub merges: u32,
    pub wall_ms: f64,
}

fn run_one(req: &MapRequest, topo: Option<&Arc<TopologyCache>>) -> MapOutcome {
    let exec = ExecEnv {
        topo: topo.cloned(),
        ..ExecEnv::default()
    };
    execute(req, &exec)
}

/// Map independent kernels onto disjoint partitions of one fabric,
/// concurrently. Wave by wave: up to `parts` kernels map in parallel
/// (one per partition, via [`service::execute`]); successes are
/// translated to absolute coordinates and re-validated on the full
/// fabric; failures re-merge — the next wave retries them at half the
/// partition count, bottoming out at the whole fabric, one kernel at a
/// time.
pub fn co_map(reqs: &[MapRequest], fabric: &FabricSpec) -> Result<CoMapReport, FleetError> {
    let t0 = Instant::now();
    let full = fabric.build().map_err(|e| FleetError(e.0))?;
    let topo = Arc::new(TopologyCache::build(&full));
    let partitionable = !fabric.adres && fabric.topology != Topology::Torus;

    let mut jobs: Vec<Option<CoMapped>> = (0..reqs.len()).map(|_| None).collect();
    let mut pending: Vec<usize> = (0..reqs.len()).collect();
    let mut parts = if partitionable {
        pending.len().min(max_partitions(fabric)).max(1)
    } else {
        1
    };
    let mut waves = 0u32;
    let mut merges = 0u32;

    while !pending.is_empty() {
        waves += 1;
        if parts <= 1 {
            // Coarsest granularity: the whole fabric, sequentially.
            for &i in &pending {
                let mut req = reqs[i].clone();
                req.fabric = *fabric;
                let outcome = run_one(&req, Some(&topo));
                jobs[i] = Some(CoMapped {
                    outcome,
                    partition: None,
                    wave: waves,
                });
            }
            break;
        }

        let partitions = partition_fabric(fabric, parts, &topo)?;
        let batch: Vec<(usize, Partition)> = pending
            .iter()
            .copied()
            .zip(partitions.iter().copied())
            .collect();
        let leftover: Vec<usize> = pending[batch.len()..].to_vec();

        // One kernel per disjoint partition, all at once.
        let results_mx = std::sync::Mutex::new(Vec::with_capacity(batch.len()));
        std::thread::scope(|s| {
            for (i, part) in &batch {
                let results_mx = &results_mx;
                s.spawn(move || {
                    let mut req = reqs[*i].clone();
                    req.fabric = part.spec;
                    let out = run_one(&req, None);
                    results_mx.lock().unwrap().push((*i, *part, out));
                });
            }
        });
        let mut results: Vec<(usize, Partition, MapOutcome)> = results_mx.into_inner().unwrap();
        results.sort_by_key(|(i, _, _)| *i);

        let mut failed = Vec::new();
        for (i, part, mut out) in results {
            // Translate to absolute coordinates and pass the exit gate
            // on the full fabric — the §12 invariant, checked on every
            // job, and what makes the outcome's metrics and utilization
            // the full fabric's rather than the partition's.
            if let (Some(m), Ok(dfg)) = (&out.mapping, reqs[i].kernel.compile()) {
                let lifted = part.translate_up(m, fabric);
                out.settle(Ok(lifted), &dfg, &full, &topo);
                if out.succeeded() {
                    out.fabric = full.name.clone();
                    jobs[i] = Some(CoMapped {
                        outcome: out,
                        partition: Some(part),
                        wave: waves,
                    });
                    continue;
                }
            }
            failed.push(i);
        }

        if !failed.is_empty() {
            merges += 1;
            parts = (parts / 2).max(1);
        }
        pending = failed;
        pending.extend(leftover);
        // Never carve more partitions than kernels still waiting.
        parts = parts.min(pending.len().max(1));
    }

    Ok(CoMapReport {
        fabric: *fabric,
        jobs: jobs
            .into_iter()
            .map(|j| j.expect("every request resolved"))
            .collect(),
        waves,
        merges,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// One machine of the farm: a display name plus its fabric spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetFabric {
    pub name: String,
    pub spec: FabricSpec,
}

impl FleetFabric {
    pub fn new(name: impl Into<String>, spec: FabricSpec) -> FleetFabric {
        FleetFabric {
            name: name.into(),
            spec,
        }
    }

    /// Parse a CLI fabric spec: `ROWSxCOLS[:TOPOLOGY|:adres]`, e.g.
    /// `8x8`, `6x6:meshplus`, `4x4:adres`.
    pub fn parse(s: &str) -> Result<FleetFabric, FleetError> {
        let (dims, suffix) = match s.split_once(':') {
            Some((d, t)) => (d, Some(t)),
            None => (s, None),
        };
        let (r, c) = dims
            .split_once('x')
            .ok_or_else(|| FleetError(format!("fabric `{s}`: expected ROWSxCOLS[:TOPOLOGY]")))?;
        let rows: u16 = r
            .parse()
            .map_err(|_| FleetError(format!("fabric `{s}`: bad rows `{r}`")))?;
        let cols: u16 = c
            .parse()
            .map_err(|_| FleetError(format!("fabric `{s}`: bad cols `{c}`")))?;
        let mut spec = FabricSpec {
            rows,
            cols,
            ..FabricSpec::default()
        };
        match suffix {
            None => {}
            Some("adres") => spec.adres = true,
            Some(t) => {
                spec.topology = cgra_arch::Topology::from_label(t)
                    .ok_or_else(|| FleetError(format!("fabric `{s}`: unknown topology `{t}`")))?;
            }
        }
        Ok(FleetFabric::new(fabric_label(&spec), spec))
    }
}

/// Human label for a fabric spec: `"8x8 mesh"`, `"4x4 adres"`.
pub fn fabric_label(spec: &FabricSpec) -> String {
    if spec.adres {
        format!("{}x{} adres", spec.rows, spec.cols)
    } else {
        format!(
            "{}x{} {}",
            spec.rows,
            spec.cols,
            crate::request::topology_label(spec.topology)
        )
    }
}

/// One job of a [`FleetPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    /// Index into the request queue.
    pub queue_index: usize,
    /// Index into the fabric farm.
    pub fabric_index: usize,
    /// Position in that fabric's sequential queue (0 runs first).
    pub slot: usize,
    /// Predicted cost on the chosen fabric, model units (MII × ops).
    pub cost: f64,
    /// The request's exact cache key was already served — predicted
    /// (near-)free.
    pub warm: bool,
}

/// Deterministic assignment of every queue entry to a (fabric, slot).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// One entry per queue index, in queue order.
    pub jobs: Vec<PlannedJob>,
    /// Predicted per-fabric load, model units.
    pub loads: Vec<f64>,
    /// Predicted makespan = max predicted load.
    pub makespan: f64,
}

/// Predicted solve cost of `dfg` on `fabric`: the analytic MII lower
/// bound times the DFG size. Infinite when the fabric lacks a required
/// resource class. Machine-independent and deterministic — the same
/// queue plans identically across runs and hash seeds (everything here
/// is `Vec`-ordered; no hash-map iteration).
fn predicted_cost(dfg: &cgra_ir::Dfg, fabric: &cgra_arch::Fabric) -> f64 {
    let mii = crate::mappers::ModuloList::mii(dfg, fabric);
    if mii == u32::MAX {
        return f64::INFINITY;
    }
    mii as f64 * dfg.node_count() as f64
}

/// Longest-processing-time list scheduling of `queue` over `fabrics`:
/// jobs are ordered by descending mean predicted cost (ties by queue
/// index) and each greedily takes the fabric minimizing
/// `load + cost_on_that_fabric` (ties to the lowest fabric index).
/// When `warm` is given, requests whose exact cache key is already in
/// its result cache are discounted — the warm-start-aware leg of the
/// predictor.
pub fn plan(
    queue: &[MapRequest],
    fabrics: &[FleetFabric],
    warm: Option<&MapService>,
) -> Result<FleetPlan, FleetError> {
    if fabrics.is_empty() {
        return Err("fleet has no fabrics".into());
    }
    let built: Vec<cgra_arch::Fabric> = fabrics
        .iter()
        .map(|f| f.spec.build().map_err(|e| FleetError(e.0)))
        .collect::<Result<_, _>>()?;

    // cost[i][f] and warmth per (job, fabric).
    let mut costs: Vec<Vec<f64>> = Vec::with_capacity(queue.len());
    let mut warms: Vec<Vec<bool>> = Vec::with_capacity(queue.len());
    for req in queue {
        let dfg = req.kernel.compile_with(&Telemetry::off());
        let mut row = Vec::with_capacity(fabrics.len());
        let mut wrow = Vec::with_capacity(fabrics.len());
        for (f, fabric) in built.iter().enumerate() {
            let mut c = match &dfg {
                Ok(d) => predicted_cost(d, fabric),
                // Uncompilable kernels get a nominal cost; they fail
                // fast at run time with a typed error.
                Err(_) => 1.0,
            };
            let is_warm = warm.is_some_and(|s| {
                let mut probe = req.clone();
                probe.fabric = fabrics[f].spec;
                s.is_cached(&probe)
            });
            if is_warm {
                c *= WARM_DISCOUNT;
            }
            row.push(c);
            wrow.push(is_warm);
        }
        costs.push(row);
        warms.push(wrow);
    }

    // LPT order: descending mean cost across the farm, stable on the
    // queue index.
    let mut order: Vec<usize> = (0..queue.len()).collect();
    let mean = |i: usize| -> f64 {
        let finite: Vec<f64> = costs[i].iter().copied().filter(|c| c.is_finite()).collect();
        if finite.is_empty() {
            f64::MAX
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    };
    order.sort_by(|&a, &b| mean(b).total_cmp(&mean(a)).then(a.cmp(&b)));

    let mut loads = vec![0.0f64; fabrics.len()];
    let mut slots = vec![0usize; fabrics.len()];
    let mut jobs: Vec<Option<PlannedJob>> = (0..queue.len()).map(|_| None).collect();
    for i in order {
        let mut best = 0usize;
        let mut best_finish = f64::INFINITY;
        for f in 0..fabrics.len() {
            let finish = loads[f] + costs[i][f];
            if finish < best_finish {
                best_finish = finish;
                best = f;
            }
        }
        let cost = if costs[i][best].is_finite() {
            costs[i][best]
        } else {
            // Nowhere supports it; park it on fabric 0 to fail with a
            // typed error without skewing the load model.
            best = 0;
            0.0
        };
        jobs[i] = Some(PlannedJob {
            queue_index: i,
            fabric_index: best,
            slot: slots[best],
            cost,
            warm: warms[i][best],
        });
        slots[best] += 1;
        loads[best] += cost;
    }

    let makespan = loads.iter().copied().fold(0.0f64, f64::max);
    Ok(FleetPlan {
        jobs: jobs
            .into_iter()
            .map(|j| j.expect("every job assigned"))
            .collect(),
        loads,
        makespan,
    })
}

/// One executed fleet job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetJobResult {
    pub queue_index: usize,
    pub kernel: String,
    pub mapper: String,
    pub fabric: String,
    pub fabric_index: usize,
    pub slot: usize,
    pub predicted: f64,
    pub warm: bool,
    /// Milliseconds after the fleet clock started that this job began.
    pub start_ms: f64,
    pub wall_ms: f64,
    pub ii: Option<u32>,
    /// The mapping's issue-slot utilisation of its fabric (0 on
    /// failure).
    pub fu: f64,
    pub cache: CacheStatus,
    pub error: Option<String>,
}

/// Per-fabric rollup of a fleet run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetFabricReport {
    pub name: String,
    pub spec: String,
    pub jobs: usize,
    /// Total wall-clock this fabric spent solving.
    pub busy_ms: f64,
    /// `busy_ms / makespan_ms` — how well the schedule kept this
    /// fabric fed.
    pub utilization: f64,
    /// Mean issue-slot utilisation over its successful mappings.
    pub mean_fu: f64,
}

/// The fleet run: per-job and per-fabric accounting plus the headline
/// makespan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    pub schema: u32,
    pub jobs: Vec<FleetJobResult>,
    pub fabrics: Vec<FleetFabricReport>,
    /// Wall-clock from first dispatch to last completion.
    pub makespan_ms: f64,
    /// Sum of per-job walls — what a single fabric would have taken
    /// back-to-back.
    pub sum_ms: f64,
    /// The plan's predicted makespan, model units.
    pub predicted_makespan: f64,
    pub scheduled: usize,
    pub failed: usize,
}

impl FleetReport {
    pub fn succeeded(&self) -> bool {
        self.failed == 0
    }
}

/// Execute a [`FleetPlan`]: one worker per fabric drains its slot
/// queue in order through `service.handle` (so results are cached,
/// deduped, and warm-started like any other service traffic), all
/// fabrics concurrently. For full concurrency the service should be
/// built with at least `fabrics.len()` cores.
pub fn run(
    queue: &[MapRequest],
    fabrics: &[FleetFabric],
    plan: &FleetPlan,
    service: &MapService,
) -> FleetReport {
    // Per-fabric queues, in slot order.
    let mut by_fabric: Vec<Vec<&PlannedJob>> = vec![Vec::new(); fabrics.len()];
    for j in &plan.jobs {
        by_fabric[j.fabric_index].push(j);
    }
    for q in &mut by_fabric {
        q.sort_by_key(|j| j.slot);
    }

    let t0 = Instant::now();
    let results = std::sync::Mutex::new(Vec::<FleetJobResult>::new());
    std::thread::scope(|s| {
        for (f, jobs) in by_fabric.iter().enumerate() {
            let results = &results;
            let fabric = &fabrics[f];
            s.spawn(move || {
                for pj in jobs {
                    let mut req = queue[pj.queue_index].clone();
                    req.fabric = fabric.spec;
                    let start_ms = t0.elapsed().as_secs_f64() * 1e3;
                    let jt = Instant::now();
                    let out = service.handle(&req);
                    let wall_ms = jt.elapsed().as_secs_f64() * 1e3;
                    results.lock().unwrap().push(FleetJobResult {
                        queue_index: pj.queue_index,
                        kernel: out.kernel.clone(),
                        mapper: out.mapper.clone(),
                        fabric: fabric.name.clone(),
                        fabric_index: f,
                        slot: pj.slot,
                        predicted: pj.cost,
                        warm: pj.warm,
                        start_ms,
                        wall_ms,
                        ii: out.ii(),
                        fu: out
                            .metrics
                            .as_ref()
                            .map(|m| m.fu_utilisation)
                            .unwrap_or(0.0),
                        cache: out.cache,
                        error: out.error.as_ref().map(|e| e.to_string()),
                    });
                }
            });
        }
    });
    let makespan_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut jobs = results.into_inner().unwrap();
    jobs.sort_by_key(|j| j.queue_index);
    let sum_ms: f64 = jobs.iter().map(|j| j.wall_ms).sum();
    let failed = jobs.iter().filter(|j| j.error.is_some()).count();

    let fabric_reports = fabrics
        .iter()
        .enumerate()
        .map(|(f, fab)| {
            let mine: Vec<&FleetJobResult> = jobs.iter().filter(|j| j.fabric_index == f).collect();
            let busy_ms: f64 = mine.iter().map(|j| j.wall_ms).sum();
            let oks: Vec<f64> = mine
                .iter()
                .filter(|j| j.error.is_none())
                .map(|j| j.fu)
                .collect();
            FleetFabricReport {
                name: fab.name.clone(),
                spec: fabric_label(&fab.spec),
                jobs: mine.len(),
                busy_ms,
                utilization: if makespan_ms > 0.0 {
                    busy_ms / makespan_ms
                } else {
                    0.0
                },
                mean_fu: if oks.is_empty() {
                    0.0
                } else {
                    oks.iter().sum::<f64>() / oks.len() as f64
                },
            }
        })
        .collect();

    FleetReport {
        schema: 1,
        scheduled: jobs.len(),
        failed,
        jobs,
        fabrics: fabric_reports,
        makespan_ms,
        sum_ms,
        predicted_makespan: plan.makespan,
    }
}

/// The baseline a fleet run is compared with: every request on one
/// fabric, one at a time, in queue order.
pub fn run_sequential(
    queue: &[MapRequest],
    fabric: &FleetFabric,
    service: &MapService,
) -> Result<FleetReport, FleetError> {
    let farm = [fabric.clone()];
    let jobs = (0..queue.len())
        .map(|i| PlannedJob {
            queue_index: i,
            fabric_index: 0,
            slot: i,
            cost: 0.0,
            warm: false,
        })
        .collect();
    let plan = FleetPlan {
        jobs,
        loads: vec![0.0],
        makespan: 0.0,
    };
    Ok(run(queue, &farm, &plan, service))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Placement, Route};
    use crate::request::KernelSpec;

    fn spec(rows: u16, cols: u16, topology: Topology) -> FabricSpec {
        FabricSpec {
            rows,
            cols,
            topology,
            adres: false,
        }
    }

    fn topo_of(s: &FabricSpec) -> TopologyCache {
        TopologyCache::build(&s.build().unwrap())
    }

    #[test]
    fn partitions_tile_disjointly() {
        for parts in 1..=4 {
            let s = spec(6, 6, Topology::Mesh);
            let topo = topo_of(&s);
            let ps = partition_fabric(&s, parts, &topo).unwrap();
            assert_eq!(ps.len(), parts);
            let mut seen = std::collections::BTreeSet::new();
            for p in &ps {
                assert!(p.spec.rows >= MIN_SIDE && p.spec.cols >= MIN_SIDE);
                for cell in p.cells() {
                    assert!(cell.0 < 6 && cell.1 < 6, "{cell:?} out of bounds");
                    assert!(seen.insert(cell), "{cell:?} owned twice");
                }
            }
            assert_eq!(seen.len(), 36, "partitions must tile the fabric");
        }
    }

    #[test]
    fn torus_and_adres_are_rejected() {
        let t = spec(4, 4, Topology::Torus);
        let topo = topo_of(&t);
        assert!(partition_fabric(&t, 2, &topo).is_err());
        let a = FabricSpec {
            adres: true,
            ..spec(4, 4, Topology::Mesh)
        };
        let topo = topo_of(&a);
        assert!(partition_fabric(&a, 2, &topo).is_err());
    }

    #[test]
    fn partition_count_is_bounded() {
        let s = spec(4, 4, Topology::Mesh);
        let topo = topo_of(&s);
        assert_eq!(max_partitions(&s), 4);
        assert!(partition_fabric(&s, 5, &topo).is_err());
        assert!(partition_fabric(&s, 0, &topo).is_err());
    }

    #[test]
    fn translate_up_moves_to_partition_origin() {
        let full = spec(4, 4, Topology::Mesh);
        let part = Partition {
            row0: 2,
            col0: 2,
            spec: spec(2, 2, Topology::Mesh),
        };
        let m = Mapping {
            ii: 1,
            place: vec![Placement {
                pe: PeId(1), // sub (0,1)
                time: 0,
            }],
            routes: vec![Route {
                start_time: 0,
                steps: vec![PeId(1), PeId(3)], // sub (0,1) -> (1,1)
            }],
        };
        let abs = part.translate_up(&m, &full);
        assert_eq!(abs.place[0].pe, PeId(2 * 4 + 3)); // abs (2,3)
        assert_eq!(abs.routes[0].steps, vec![PeId(11), PeId(15)]);
    }

    #[test]
    fn co_map_places_kernels_on_disjoint_partitions() {
        let reqs: Vec<MapRequest> = ["dot_product", "accumulate"]
            .iter()
            .map(|k| MapRequest::new(KernelSpec::Named(k.to_string()), "modulo-list"))
            .collect();
        let fabric = spec(4, 8, Topology::Mesh);
        let report = co_map(&reqs, &fabric).unwrap();
        assert_eq!(report.jobs.len(), 2);
        for job in &report.jobs {
            assert!(
                job.outcome.mapping.is_some(),
                "co-map failed: {:?}",
                job.outcome.error
            );
        }
        // Same-wave kernels must not share cells.
        let (a, b) = (&report.jobs[0], &report.jobs[1]);
        if a.wave == b.wave {
            let (pa, pb) = (a.partition.unwrap(), b.partition.unwrap());
            let cells_a: std::collections::BTreeSet<_> = pa.cells().into_iter().collect();
            assert!(pb.cells().iter().all(|c| !cells_a.contains(c)));
        }
    }

    #[test]
    fn co_mapped_outcomes_are_measured_on_the_full_fabric() {
        let reqs: Vec<MapRequest> = ["dot_product", "accumulate"]
            .iter()
            .map(|k| MapRequest::new(KernelSpec::Named(k.to_string()), "modulo-list"))
            .collect();
        let fabric = spec(8, 8, Topology::Mesh);
        let full = fabric.build().unwrap();
        let report = co_map(&reqs, &fabric).unwrap();
        let partitioned: Vec<(&CoMapped, &MapRequest)> = report
            .jobs
            .iter()
            .zip(&reqs)
            .filter(|(j, _)| j.partition.is_some())
            .collect();
        assert!(!partitioned.is_empty(), "nothing mapped on a partition");
        for (job, req) in partitioned {
            let out = &job.outcome;
            assert_eq!(out.fabric, full.name);
            let u = out.utilization.as_ref().unwrap();
            assert_eq!((u.rows, u.cols, u.fu_used.len()), (8, 8, 64));
            let dfg = req.kernel.compile().unwrap();
            let mapping = out.mapping.as_ref().unwrap();
            assert_eq!(
                out.metrics.as_ref(),
                Some(&crate::metrics::Metrics::of(mapping, &dfg, &full))
            );
        }
    }

    #[test]
    fn plan_covers_every_job_once_and_is_deterministic() {
        let queue: Vec<MapRequest> = ["dot_product", "fir4", "accumulate", "conv3", "horner4"]
            .iter()
            .map(|k| MapRequest::new(KernelSpec::Named(k.to_string()), "modulo-list"))
            .collect();
        let farm = vec![
            FleetFabric::new("a", spec(4, 4, Topology::Mesh)),
            FleetFabric::new("b", spec(5, 5, Topology::MeshPlus)),
        ];
        let p1 = plan(&queue, &farm, None).unwrap();
        let p2 = plan(&queue, &farm, None).unwrap();
        assert_eq!(p1, p2, "planning must be deterministic");
        assert_eq!(p1.jobs.len(), queue.len());
        for (i, j) in p1.jobs.iter().enumerate() {
            assert_eq!(j.queue_index, i);
        }
        // Slots per fabric are 0..k.
        for f in 0..farm.len() {
            let mut slots: Vec<usize> = p1
                .jobs
                .iter()
                .filter(|j| j.fabric_index == f)
                .map(|j| j.slot)
                .collect();
            slots.sort_unstable();
            assert_eq!(slots, (0..slots.len()).collect::<Vec<_>>());
        }
        assert!(p1.makespan > 0.0);
    }

    #[test]
    fn fleet_run_schedules_and_reports() {
        let queue: Vec<MapRequest> = ["dot_product", "accumulate", "fir4", "horner4"]
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let mut r = MapRequest::new(KernelSpec::Named(k.to_string()), "modulo-list");
                r.id = i as u64 + 1;
                r
            })
            .collect();
        let farm = vec![
            FleetFabric::new("a", spec(4, 4, Topology::Mesh)),
            FleetFabric::new("b", spec(4, 4, Topology::Mesh)),
        ];
        let service = MapService::new(2, 64, None);
        let p = plan(&queue, &farm, None).unwrap();
        let report = run(&queue, &farm, &p, &service);
        assert_eq!(report.scheduled, 4);
        assert_eq!(report.failed, 0, "jobs failed: {:?}", report.jobs);
        assert!(report.makespan_ms > 0.0);
        // What `run` guarantees however the OS schedules its threads
        // (four sub-millisecond jobs need not outweigh two spawns).
        let walls: f64 = report.jobs.iter().map(|j| j.wall_ms).sum();
        assert_eq!(report.sum_ms, walls);
        for (i, fabric) in report.fabrics.iter().enumerate() {
            assert!(report.makespan_ms >= fabric.busy_ms, "{fabric:?}");
            let mut mine: Vec<_> = report.jobs.iter().filter(|j| j.fabric_index == i).collect();
            mine.sort_by_key(|j| j.slot);
            assert!(mine.windows(2).all(|w| w[0].start_ms <= w[1].start_ms));
        }
        let indices: Vec<usize> = report.jobs.iter().map(|j| j.queue_index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        // Warm-aware re-plan: everything is now cached, costs collapse.
        let warm = plan(&queue, &farm, Some(&service)).unwrap();
        assert!(warm.jobs.iter().all(|j| j.warm));
        assert!(warm.makespan < p.makespan);
    }

    #[test]
    fn fabric_parse_round_trips() {
        let f = FleetFabric::parse("8x8").unwrap();
        assert_eq!((f.spec.rows, f.spec.cols), (8, 8));
        assert_eq!(f.spec.topology, Topology::Mesh);
        let f = FleetFabric::parse("6x6:meshplus").unwrap();
        assert_eq!(f.spec.topology, Topology::MeshPlus);
        let f = FleetFabric::parse("4x4:adres").unwrap();
        assert!(f.spec.adres);
        assert!(FleetFabric::parse("8by8").is_err());
        assert!(FleetFabric::parse("8x8:blob").is_err());
    }
}
