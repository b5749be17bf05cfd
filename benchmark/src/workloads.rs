//! The four workloads, end to end: set-up, the timed closed loop with
//! one client, the output oracle, and the end-to-end metrics.
//!
//! Every workload is a list of *items* visited in whole *passes* in a
//! seeded order, repeated until `--seconds` have gone by. Whole passes
//! keep the mix of work identical from run to run, so percentiles and
//! throughput move with the program's speed and not with where a run
//! happened to stop.
//!
//! Every pass yields one value of each latency figure, taken over all
//! the requests of that pass, and a run reports the **lower decile**
//! of those values over its passes. On the shared two-core boxes this
//! runs on, a neighbour slows stretches of ten seconds and more by
//! 15–50 %, often most of a run; interference only ever adds time, so
//! a low rank is a pass the machine left alone, and unlike the minimum
//! it does not reward one lucky pass. What the program itself does
//! every so many requests — an eviction scan, an allocator spike, time
//! between requests — is in every pass and so in every figure.
//! `throughput_rps` is read the same way: the requests of a pass over
//! the lower decile of the passes' wall-clock, the client's own work
//! between requests included.

use crate::gen::{self, Instance, Rng};
use crate::oracle::{Fabrics, Subject};
use crate::stats;
use cgra::mapper::request::{CacheStatus, MapOutcome, MapRequest};
use cgra::mapper::service::{execute, ExecEnv, ServiceStats};
use cgra::mapper::Mapping;
use cgra::serve::{Client, ServeOptions, Server};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups are timed in this many batches spread evenly over a run —
/// before the timed phase, after each quarter of it, and at its end —
/// so that a stretch in which a neighbour slows the box does not cover
/// them all. A batch is one set-up, and cheap ones are repeated until
/// [`SETUP_BATCH_TIME`] has gone by (a 1 ms set-up timed once is
/// noise). `setup_s` is the lower quartile of all of them.
const SETUP_BATCHES: u32 = 5;
const SETUP_BATCH_TIME: Duration = Duration::from_millis(200);
const SETUP_BATCH_MAX_REPS: usize = 400;

/// Sweeps over the 48 keys that make one `serve_hit` pass: 1 200
/// requests, so that the ranks from 98.5 % to 99.5 % of a pass, its
/// 99th percentile, are thirteen requests.
const HIT_SWEEPS: usize = 25;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for trace output and probe files, inside the checkout.
    pub scratch: PathBuf,
}

/// What one run prints: the driver's result line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle and expectation violations, for the human reading stderr.
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Hit,
    Miss,
}

impl ServeKind {
    pub fn of(workload: &str) -> Option<ServeKind> {
        match workload {
            "serve_hit" => Some(ServeKind::Hit),
            "serve_miss" => Some(ServeKind::Miss),
            _ => None,
        }
    }

    /// The working set `serve_hit` replays; empty for `serve_miss`,
    /// whose requests are generated block by block.
    pub fn items(self, seed: u64) -> Vec<MapRequest> {
        match self {
            ServeKind::Hit => gen::hit_requests(seed),
            ServeKind::Miss => Vec::new(),
        }
    }

    /// Requests sent once, untimed, after the working set: for
    /// `serve_miss` one block, which fills the result cache so that
    /// timed inserts evict as they do in steady state.
    pub fn warmup(self, seed: u64) -> Vec<MapRequest> {
        match self {
            ServeKind::Hit => Vec::new(),
            ServeKind::Miss => gen::block_requests(seed, WARMUP_BLOCK),
        }
    }
}

/// Block index of the `serve_miss` warm-up, far from the timed blocks
/// (which count up from 0) so its kernels are never requested again.
const WARMUP_BLOCK: u64 = 1 << 32;

/// A bound daemon with one connected client and a primed cache.
pub struct Serve {
    // Field order is drop order: the client goes first, so its worker
    // sees EOF and `Server::drop` joins at once instead of waiting for
    // the idle poll.
    pub client: Client,
    /// Held only to keep the daemon running.
    _server: Server,
    pub items: Vec<MapRequest>,
    /// The priming miss of each item.
    pub primed: Vec<MapOutcome>,
}

/// Process start → first timed request: request generation,
/// `Server::bind`, connect, and the priming misses (for `serve_miss`,
/// the warm-up block).
pub fn serve_setup(kind: ServeKind, seed: u64) -> Result<Serve, String> {
    let items = kind.items(seed);
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    client.ping().map_err(|e| e.0)?;
    let mut primed = Vec::with_capacity(items.len());
    for req in items.iter().chain(&kind.warmup(seed)) {
        let out = client.map(req).map_err(|e| e.0)?;
        if !out.succeeded() || out.cache == CacheStatus::Hit {
            return Err(format!(
                "priming {}/{}: cache={} error={:?}",
                req.kernel.label(),
                req.mapper,
                out.cache.label(),
                out.error
            ));
        }
        if kind == ServeKind::Hit {
            primed.push(out);
        }
    }
    Ok(Serve {
        client,
        _server: server,
        items,
        primed,
    })
}

/// The set-ups timed so far in a run, in seconds each.
#[derive(Default)]
struct Setups {
    seconds: Vec<f64>,
    batches: u32,
}

impl Setups {
    /// Time one batch of `setup` and return what the last one built.
    fn batch<T>(&mut self, mut setup: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        self.batches += 1;
        let started = Instant::now();
        let first = self.seconds.len();
        loop {
            let t = Instant::now();
            let built = setup()?;
            self.seconds.push(t.elapsed().as_secs_f64());
            let reps = self.seconds.len() - first;
            if started.elapsed() >= SETUP_BATCH_TIME || reps >= SETUP_BATCH_MAX_REPS {
                return Ok(built);
            }
            // The previous daemon is gone before the next one binds.
            drop(built);
        }
    }

    /// Whether the timed phase has reached the next batch. None runs
    /// before `peak_rss_mb` is read: a batch of `serve_*` sets up a
    /// second daemon beside the one under test.
    fn due(&self, timed: &Timed, budget: Duration) -> bool {
        timed.rss_mb.is_some()
            && timed.wall < budget
            && timed.wall >= budget * self.batches / (SETUP_BATCHES - 1)
    }
}

/// The pass at whose end `peak_rss_mb` is read (the last one, in a run
/// too slow to get that far): a fixed amount of work, a fifth or less
/// of what the reference box does in a run. The daemon keeps something for
/// every distinct kernel it has seen — `serve_miss` read 8.8 MB after
/// 900 requests and 11.8 MB after 3 060 — so at the end of a
/// time-bounded run a faster program would read as a fatter one.
fn rss_pass(workload: &str) -> u64 {
    match workload {
        "serve_hit" => 40,
        "serve_miss" => 5,
        "map_exact" => 2,
        _ => 3,
    }
}

/// The timed phase, pass by pass.
struct Timed {
    /// Latencies of the pass under way, in ms.
    current: Vec<f64>,
    /// One row per whole pass: the p50, p90, p99 and geometric mean of
    /// the pass's latencies in ms, and the pass's wall-clock in seconds
    /// per request.
    passes: Vec<[f64; 5]>,
    requests: u64,
    /// `VmHWM` at the end of pass [`rss_pass`].
    rss_mb: Option<f64>,
    /// Wall-clock of the passes — everything between the first and the
    /// last request of each pass, the client's own work between
    /// requests included; input generation and the oracle excluded. It
    /// decides when the run stops.
    wall: Duration,
}

impl Timed {
    fn new(requests_per_pass: usize) -> Timed {
        Timed {
            current: Vec::with_capacity(requests_per_pass),
            passes: Vec::new(),
            requests: 0,
            rss_mb: None,
            wall: Duration::ZERO,
        }
    }

    /// One request, sent at `t0`, has been answered.
    fn record(&mut self, t0: Instant) {
        self.current.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// Close the pass of `workload` that started at `started`.
    fn end_pass(&mut self, started: Instant, workload: &str) {
        let wall = started.elapsed();
        self.wall += wall;
        let ms = stats::sort(&mut self.current);
        self.passes.push([
            stats::percentile_band(ms, 0.50, 0.025),
            stats::percentile_band(ms, 0.90, 0.025),
            stats::percentile_band(ms, 0.99, 0.005),
            stats::geomean(ms),
            wall.as_secs_f64() / ms.len().max(1) as f64,
        ]);
        self.requests += ms.len() as u64;
        self.current.clear();
        if self.passes() == rss_pass(workload) {
            self.rss_mb = Some(peak_rss_mb());
        }
    }

    /// Whole passes done.
    fn passes(&self) -> u64 {
        self.passes.len() as u64
    }

    /// Lower decile over the passes of column `figure` of a row: of
    /// `n` passes the one of rank `(n - 1) / 10`, rounded down — the
    /// second lowest of eleven to twenty.
    fn quiet(&self, figure: usize) -> f64 {
        let column: Vec<f64> = self.passes.iter().map(|row| row[figure]).collect();
        stats::low_rank(&column, 10)
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of one run, in catalog order.
fn end_to_end_metrics(timed: &Timed, ii_ratios: &[f64], setups: &Setups) -> Vec<(String, f64)> {
    [
        ("req_p50_ms", timed.quiet(0)),
        ("req_p90_ms", timed.quiet(1)),
        ("req_p99_ms", timed.quiet(2)),
        ("req_geomean_ms", timed.quiet(3)),
        (
            "throughput_rps",
            1.0 / timed.quiet(4).max(f64::MIN_POSITIVE),
        ),
        ("ii_over_mii_geomean", stats::geomean(ii_ratios)),
        ("peak_rss_mb", timed.rss_mb.unwrap_or_else(peak_rss_mb)),
        ("setup_s", stats::low_rank(&setups.seconds, 4)),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// `hits + misses == requests`, and the per-workload expectations.
pub fn check_service_stats(
    kind: ServeKind,
    s: &ServiceStats,
    primed: u64,
    timed: u64,
    report: &mut Report,
) {
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            report.fail(format!("service stats: {what}: {s:?}"));
        }
    };
    expect(s.hits + s.misses == s.requests, "hits + misses != requests");
    expect(s.rejections == 0, "requests were shed");
    match kind {
        ServeKind::Hit => {
            expect(s.misses == primed, "misses != primed keys");
            expect(s.hits == timed, "hits != replays");
            expect(s.evictions == 0, "the working set was evicted");
        }
        ServeKind::Miss => {
            expect(s.hits == 0, "a generated key repeated");
            expect(s.misses == primed + timed, "misses != requests sent");
        }
    }
}

fn serve_end_to_end(kind: ServeKind, args: &Args) -> Result<Report, String> {
    let mut setups = Setups::default();
    let mut serve = setups.batch(|| serve_setup(kind, args.seed))?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = Report::default();

    // The oracle, always outside the timed interval.
    let mut fabrics = Fabrics::default();
    let mut ii_ratios = Vec::new();
    let mut judge = |req: &MapRequest, m: &Mapping, report: &mut Report| match Subject::of(
        req,
        &mut fabrics,
        args.seed,
    ) {
        Ok(subject) => {
            if let Err(e) = subject.check(m) {
                report.fail(format!("{}/{}: {e}", req.kernel.label(), req.mapper));
            }
            ii_ratios.push(subject.ii_over_mii(m));
        }
        Err(e) => report.fail(format!("{}: {e}", req.kernel.label())),
    };

    // The timed phase.
    let classes = gen::miss_classes().len();
    let mut timed = Timed::new(match kind {
        ServeKind::Hit => HIT_SWEEPS * serve.items.len(),
        ServeKind::Miss => classes,
    });
    let mut next_id = serve.items.len() as u64 + 1;
    while timed.wall < budget {
        match kind {
            ServeKind::Hit => {
                let started = Instant::now();
                for _ in 0..HIT_SWEEPS {
                    for (req, primed) in serve.items.iter_mut().zip(&serve.primed) {
                        req.id = next_id;
                        next_id += 1;
                        let t0 = Instant::now();
                        let res = serve.client.map(req);
                        timed.record(t0);
                        match res {
                            Ok(out)
                                if out.cache == CacheStatus::Hit
                                    && out.id == req.id
                                    && out.mapping.is_some()
                                    && out.mapping == primed.mapping => {}
                            Ok(out) => report.fail(format!(
                                "{}/{}: cache={} differs from its priming miss",
                                out.kernel,
                                out.mapper,
                                out.cache.label()
                            )),
                            Err(e) => report.fail(e.0),
                        }
                    }
                }
                timed.end_pass(started, &args.workload);
            }
            ServeKind::Miss => {
                let block = gen::block_requests(args.seed, timed.passes());
                let mut returned: Vec<(MapRequest, Mapping)> = Vec::with_capacity(block.len());
                let started = Instant::now();
                for req in block {
                    let t0 = Instant::now();
                    let res = serve.client.map(&req);
                    timed.record(t0);
                    match res {
                        Ok(MapOutcome {
                            mapping: Some(m),
                            cache: CacheStatus::Miss | CacheStatus::Warm,
                            ..
                        }) => returned.push((req, m)),
                        Ok(out) => report.fail(format!(
                            "{}: cache={} error={:?}",
                            out.kernel,
                            out.cache.label(),
                            out.error
                        )),
                        Err(e) => report.fail(e.0),
                    }
                }
                timed.end_pass(started, &args.workload);
                // Judge the block between passes and let it go, so that
                // memory does not grow with the number of blocks served.
                for (req, m) in &returned {
                    judge(req, m, &mut report);
                }
            }
        }
        if setups.due(&timed, budget) {
            setups.batch(|| serve_setup(kind, args.seed))?;
        }
    }
    report.attempted = timed.requests;

    let primed = match kind {
        ServeKind::Hit => serve.items.len() as u64,
        ServeKind::Miss => classes as u64,
    };
    match serve.client.stats() {
        Ok(s) => check_service_stats(kind, &s, primed, report.attempted, &mut report),
        Err(e) => report.fail(format!("stats op: {}", e.0)),
    }
    // Replays were compared with their priming miss one by one, so the
    // primed outcomes are every distinct mapping `serve_hit` returned;
    // each was replayed equally often.
    for (req, out) in serve.items.iter().zip(&serve.primed) {
        judge(req, out.mapping.as_ref().expect("primed ok"), &mut report);
    }
    drop(serve);
    setups.batch(|| serve_setup(kind, args.seed))?;

    report.metrics = end_to_end_metrics(&timed, &ii_ratios, &setups);
    Ok(report)
}

/// One `map_*` instance ready to run: its request and its oracle.
pub struct Prepared {
    pub instance: Instance,
    pub request: MapRequest,
    pub subject: Subject,
}

/// Set-up of a `map_*` workload: build every request, compile its
/// kernel, build its fabric and topology tables, compute its MII.
pub fn map_setup(instances: &[Instance], seed: u64) -> Result<Vec<Prepared>, String> {
    let mut fabrics = Fabrics::default();
    let mut prepared: Vec<Prepared> = instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let request = inst.request(i as u64 + 1);
            let subject = Subject::of(&request, &mut fabrics, seed)?;
            Ok(Prepared {
                instance: inst.clone(),
                request,
                subject,
            })
        })
        .collect::<Result<_, String>>()?;
    Rng::new(seed).shuffle(&mut prepared);
    Ok(prepared)
}

pub fn map_instances(workload: &str) -> Vec<Instance> {
    match workload {
        "map_exact" => gen::exact_instances(),
        _ => gen::heuristic_instances(),
    }
}

fn map_end_to_end(args: &Args) -> Result<Report, String> {
    let instances = map_instances(&args.workload);
    let mut setups = Setups::default();
    let prepared = setups.batch(|| map_setup(&instances, args.seed))?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = Report::default();
    let mut timed = Timed::new(prepared.len());
    // Distinct mappings returned per instance (one, for a deterministic mapper).
    let mut returned: Vec<Vec<Mapping>> = vec![Vec::new(); prepared.len()];
    let mut ii_ratios = Vec::new();
    while timed.wall < budget {
        let started = Instant::now();
        for (i, p) in prepared.iter().enumerate() {
            let t0 = Instant::now();
            // Cold on purpose: a fresh environment per call, so no
            // cache, no pooled solver state and no pooled topology.
            let out = execute(&p.request, &ExecEnv::default());
            timed.record(t0);
            match out.mapping {
                Some(m) => {
                    ii_ratios.push(p.subject.ii_over_mii(&m));
                    if !returned[i].contains(&m) {
                        returned[i].push(m);
                    }
                }
                None => report.fail(format!("{}: {:?}", p.instance.label(), out.error)),
            }
        }
        timed.end_pass(started, &args.workload);
        if setups.due(&timed, budget) {
            setups.batch(|| map_setup(&instances, args.seed))?;
        }
    }
    report.attempted = timed.requests;
    setups.batch(|| map_setup(&instances, args.seed))?;

    for (p, mappings) in prepared.iter().zip(&returned) {
        for m in mappings {
            if let Err(e) = p.subject.check(m) {
                report.fail(format!("{}: {e}", p.instance.label()));
            }
        }
    }
    report.metrics = end_to_end_metrics(&timed, &ii_ratios, &setups);
    Ok(report)
}

/// Run one workload with tracing off and return the end-to-end report.
pub fn end_to_end(args: &Args) -> Result<Report, String> {
    match ServeKind::of(&args.workload) {
        Some(kind) => serve_end_to_end(kind, args),
        None => map_end_to_end(args),
    }
}
