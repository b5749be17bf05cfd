//! Mapping-as-a-service: the engine behind `cgra-serve`.
//!
//! The survey's central cost lesson is that exact mapping searches are
//! expensive (minutes-per-kernel SAT solves in the SAT-MapIt line),
//! yet a one-shot CLI re-pays that cost on every invocation of the
//! same (fabric, kernel, config) triple. This module amortizes it:
//!
//! * [`execute`] — the one way a [`MapRequest`] becomes a
//!   [`MapOutcome`]. `cgra-map` (local mode), `table1`, and the server
//!   all call it; nothing else constructs outcomes.
//! * [`ResultCache`] — content-addressed outcomes keyed by
//!   [`MapRequest::cache_key`], LRU-bounded in memory with optional
//!   JSON spill to disk. Hits are a hash lookup plus a clone.
//! * [`MapService`] — the serving facade: cache lookup, single-flight
//!   deduplication of identical concurrent misses, admission control
//!   of solves against a core budget, per-request cancellation, and
//!   a fallback to prior work on the same kernel when a solve times
//!   out.
//!
//! ## Warm start: the incumbent fallback
//!
//! Every solve starts cold: no solver state outlives one `map()` call.
//! What a miss can reuse is an earlier *answer*. Every successful solve
//! records its mapping in a per-kernel incumbent index, which keeps the
//! `cache_cap` most recently used kernels. When a later solve of the
//! same kernel *times out*, the best incumbent on the same (or an
//! embeddable smaller) fabric is translated, re-validated against the
//! request's fabric, and returned in place of the timeout if it fits
//! the request's II bounds. Such a reply is [`CacheStatus::Warm`], and
//! only such a reply; every other solved request is
//! [`CacheStatus::Miss`]. The solver's own answer always takes
//! precedence — fallback never changes a successful result, so cached
//! bytes stay deterministic.
//!
//! Cancelled outcomes are never cached: a client abandoning a request
//! must not poison the key for the next client.

use crate::engine::Budget;
use crate::fleet::Partition;
use crate::mapper::{MapConfigBuilder, MapError};
use crate::mapping::Mapping;
use crate::registry::MapperRegistry;
use crate::request::{CacheKey, CacheStatus, ExecMode, FabricSpec, MapOutcome, MapRequest};
use crate::servemetrics::{render_prometheus, ServiceMetrics};
use crate::telemetry::Telemetry;
use crate::unpoison;
use cgra_arch::TopologyCache;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Process-local execution context for [`execute`]: everything a job
/// needs that is *not* part of the request's canonical identity.
#[derive(Default)]
pub struct ExecEnv {
    /// External budget; the job's own `time_limit` tightens it.
    pub budget: Budget,
    /// Pre-built topology cache for the request's fabric, if the
    /// caller has one (the service keeps a per-fabric-spec pool).
    pub topo: Option<Arc<TopologyCache>>,
    /// The run's telemetry sink. When set, [`execute`] records counters,
    /// spans and events into it and carries their payloads on the
    /// outcome (what `table1`/`cgra-map` want), and the caller keeps the
    /// raw span and event streams (`--trace`, `--chrome-trace`) that
    /// the summarized [`MapOutcome::latency`] rows can't reconstruct.
    /// `None` (the server's choice) keeps responses lean.
    pub telemetry: Option<Telemetry>,
    /// Trace id to stamp on the outcome, overriding the request's own
    /// (the service mints one at ingress and threads it through here).
    /// Empty = defer to `req.trace`.
    pub trace: String,
}

/// Run one [`MapRequest`] to completion: compile the kernel, build the
/// fabric, bridge the canonical config through
/// [`MapConfigBuilder::from_request`], execute under the requested
/// mode, and validate the result. Never panics on bad input — every
/// failure becomes a typed [`MapError`] on the outcome.
pub fn execute(req: &MapRequest, env: &ExecEnv) -> MapOutcome {
    let start = Instant::now();
    let mut out = MapOutcome {
        id: req.id,
        trace: if env.trace.is_empty() {
            req.trace.clone()
        } else {
            env.trace.clone()
        },
        kernel: req.kernel.label().to_string(),
        mapper: req.mapper.clone(),
        ..MapOutcome::default()
    };
    let fail = |mut out: MapOutcome, start: Instant, err: MapError| {
        out.error = Some(err);
        out.compile_ms = start.elapsed().as_secs_f64() * 1e3;
        out
    };

    let tele = env.telemetry.clone().unwrap_or_default();
    // Join every observed event stream to the request's trace id.
    if !out.trace.is_empty() {
        tele.request(&req.mapper, &out.trace);
    }

    let dfg = match req.kernel.compile_with(&tele) {
        Ok(d) => d,
        Err(e) => return fail(out, start, MapError::Unsupported(e.0)),
    };
    out.kernel = dfg.name.clone();
    let fabric = match req.fabric.build() {
        Ok(f) => f,
        Err(e) => return fail(out, start, MapError::Unsupported(e.0)),
    };
    out.fabric = fabric.name.clone();

    let mut builder = MapConfigBuilder::from_request(req)
        .budget(env.budget.clone())
        .telemetry(tele.clone());
    if let Some(t) = &env.topo {
        if t.matches(&fabric) {
            builder = builder.topo(Arc::clone(t));
        }
    }
    let mut cfg = match builder.build() {
        Ok(c) => c,
        Err(e) => return fail(out, start, MapError::Unsupported(e.to_string())),
    };
    // One topology table for the run: the mapper and the exit gate
    // share it.
    let topo = cfg.topo_for(&fabric);
    cfg.topo = Some(Arc::clone(&topo));

    let registry = MapperRegistry::standard();
    let result = match req.mode {
        ExecMode::Race => {
            let zoo = registry.build_all();
            let race = crate::engine::race(&zoo, &dfg, &fabric, &cfg, None);
            out.race_wall_ms = race.wall_ms;
            out.race = race.entries;
            match (race.winner, race.mapping) {
                (Some(winner), Some(m)) => {
                    out.mapper = winner;
                    Ok(m)
                }
                // Surface the most informative per-entry failure: a
                // typed Infeasible beats the blanket "nobody won".
                _ => Err(out
                    .race
                    .iter()
                    .filter_map(|e| e.error.clone())
                    .find(|e| !matches!(e, MapError::Cancelled))
                    .unwrap_or(MapError::Timeout)),
            }
        }
        mode => match registry.build(&req.mapper) {
            Err(unknown) => Err(MapError::Unsupported(unknown.to_string())),
            Ok(mapper) => match mode {
                ExecMode::ParallelIi => crate::engine::parallel_ii(&*mapper, &dfg, &fabric, &cfg),
                _ => mapper.map(&dfg, &fabric, &cfg),
            },
        },
    };
    {
        let _span = result
            .is_ok()
            .then(|| tele.span(crate::telemetry::Phase::Validate));
        out.settle(result, &dfg, &fabric, &topo);
    }
    out.compile_ms = start.elapsed().as_secs_f64() * 1e3;
    out.classify();
    out.harvest(&tele);
    out
}

/// Content-addressed outcome store: bounded in-memory LRU with
/// optional JSON spill to disk. Evicted entries are written to
/// `<spill>/<key.hex()>.json` and transparently re-loaded (and
/// re-admitted to memory) on the next lookup, so the cache survives
/// both capacity pressure and — because keys are stable FNV digests —
/// process restarts.
pub struct ResultCache {
    inner: Mutex<Lru<CacheKey, Arc<MapOutcome>>>,
    spill: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    spills: AtomicU64,
    spill_loads: AtomicU64,
    spill_rejects: AtomicU64,
}

/// A map of at most `cap` entries (≥ 1) that evicts the least recently
/// used one. Eviction scans for the oldest stamp, which is O(len); the
/// pools it bounds hold a few hundred entries.
struct Lru<K, V> {
    map: HashMap<K, (u64, V)>,
    tick: u64,
    cap: usize,
}

impl<K: Copy + Eq + std::hash::Hash, V> Lru<K, V> {
    fn new(cap: usize) -> Lru<K, V> {
        Lru {
            map: HashMap::new(),
            tick: 0,
            cap: cap.max(1),
        }
    }

    /// The value under `key`, which becomes the most recently used.
    fn get(&mut self, key: &K) -> Option<&mut V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(used, v)| {
            *used = tick;
            v
        })
    }

    /// Insert or replace `key` as the most recently used entry; returns
    /// the entry evicted to make room, if one was.
    fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        self.map.insert(key, (self.tick, value));
        if self.map.len() <= self.cap {
            return None;
        }
        let victim = *self
            .map
            .iter()
            .min_by_key(|(_, (used, _))| *used)
            .map(|(k, _)| k)
            .expect("an over-capacity map is not empty");
        self.map.remove(&victim).map(|(_, v)| (victim, v))
    }

    /// Is `key` present? Does not count as a use.
    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

impl ResultCache {
    /// `cap` bounds in-memory entries (≥ 1); `spill` is the optional
    /// eviction directory, created on first use.
    pub fn new(cap: usize, spill: Option<PathBuf>) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Lru::new(cap)),
            spill,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            spill_loads: AtomicU64::new(0),
            spill_rejects: AtomicU64::new(0),
        }
    }

    fn spill_path(&self, key: &CacheKey) -> Option<PathBuf> {
        self.spill
            .as_ref()
            .map(|d| d.join(format!("{}.json", key.hex())))
    }

    /// Look a key up in memory, then on disk. Counts exactly one hit
    /// or one miss — the counters are monotone.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<MapOutcome>> {
        self.lookup(key, |_| true)
    }

    /// [`ResultCache::get`] with a gate on the disk-reload path only: a
    /// reloaded outcome `admit` refuses is a miss, like an undecodable
    /// file, and is counted in [`ResultCache::spill_rejects`]. A memory
    /// hit never meets the gate.
    fn lookup(
        &self,
        key: &CacheKey,
        admit: impl FnOnce(&mut MapOutcome) -> bool,
    ) -> Option<Arc<MapOutcome>> {
        if let Some(out) = unpoison(self.inner.lock()).get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(out));
        }
        let reloaded = self.load_spilled(key).and_then(|mut out| {
            let admitted = admit(&mut out);
            if !admitted {
                self.spill_rejects.fetch_add(1, Ordering::Relaxed);
            }
            admitted.then_some(out)
        });
        if let Some(out) = reloaded {
            let arc = Arc::new(out);
            self.admit(*key, Arc::clone(&arc));
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.spill_loads.fetch_add(1, Ordering::Relaxed);
            return Some(arc);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// A file that does not decode to a mapping or a typed failure
    /// (`{}`, foreign JSON, truncated) is not an answer to serve.
    fn load_spilled(&self, key: &CacheKey) -> Option<MapOutcome> {
        MapOutcome::load(&self.spill_path(key)?).ok()
    }

    /// Insert an outcome, evicting (and spilling) the least recently
    /// used entries beyond capacity.
    pub fn insert(&self, key: CacheKey, outcome: Arc<MapOutcome>) {
        self.admit(key, outcome);
    }

    fn admit(&self, key: CacheKey, outcome: Arc<MapOutcome>) {
        let evicted = unpoison(self.inner.lock()).insert(key, outcome);
        // Serialize outside the lock.
        if let Some((k, out)) = evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.write_spill(&k, &out);
        }
    }

    fn write_spill(&self, key: &CacheKey, outcome: &MapOutcome) {
        let Some(path) = self.spill_path(key) else {
            return;
        };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Ok(json) = serde_json::to_string(outcome) {
            if std::fs::write(path, json).is_ok() {
                self.spills.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Would `get` answer this key from memory or disk? Unlike `get`
    /// this neither touches the hit/miss counters nor the LRU clock —
    /// it exists for planners that only want to *predict* warmth (see
    /// [`crate::fleet::plan`]).
    pub fn peek(&self, key: &CacheKey) -> bool {
        if unpoison(self.inner.lock()).contains(key) {
            return true;
        }
        self.spill_path(key).is_some_and(|p| p.exists())
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted from memory (spilled or dropped).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Evicted entries successfully persisted to the spill directory.
    pub fn disk_spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// Lookups answered by re-loading a spilled entry from disk.
    pub fn spill_loads(&self) -> u64 {
        self.spill_loads.load(Ordering::Relaxed)
    }

    /// Spilled entries that decoded but that the reload gate refused
    /// (their mapping no longer validates): each was also a miss.
    pub fn spill_rejects(&self) -> u64 {
        self.spill_rejects.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        unpoison(self.inner.lock()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Best known mapping of one kernel on one fabric spec, which the
/// timeout fallback re-offers. Only the fields needed to re-offer it
/// later: the mapping itself plus the geometry it was solved on.
#[derive(Clone)]
struct Incumbent {
    fabric: FabricSpec,
    ii: u32,
    mapping: Mapping,
}

/// Per-kernel incumbent trail: the best (lowest-II) mapping seen for
/// each (kernel fingerprint, fabric spec) pair, regardless of which
/// config produced it. Holds at most `cap` kernels and forgets the one
/// least recently recorded or consulted.
pub struct WarmIndex {
    by_kernel: Mutex<Lru<u64, Vec<Incumbent>>>,
}

impl WarmIndex {
    fn new(cap: usize) -> WarmIndex {
        WarmIndex {
            by_kernel: Mutex::new(Lru::new(cap)),
        }
    }

    /// Record a successful solve; keeps the lowest II per fabric spec.
    fn record(&self, kernel_fp: u64, fabric: FabricSpec, mapping: &Mapping) {
        let incumbent = || Incumbent {
            fabric,
            ii: mapping.ii,
            mapping: mapping.clone(),
        };
        let mut map = unpoison(self.by_kernel.lock());
        let Some(list) = map.get(&kernel_fp) else {
            map.insert(kernel_fp, vec![incumbent()]);
            return;
        };
        match list.iter_mut().find(|i| i.fabric == fabric) {
            Some(i) => {
                if mapping.ii < i.ii {
                    *i = incumbent();
                }
            }
            None => list.push(incumbent()),
        }
    }

    /// Candidate incumbents for a request: same fabric first, then
    /// smaller same-topology fabrics whose mappings embed into the
    /// request's grid by row-major re-indexing; sorted by II so the
    /// best bound is tried first.
    fn candidates(&self, kernel_fp: u64, target: &FabricSpec) -> Vec<Incumbent> {
        let mut map = unpoison(self.by_kernel.lock());
        let Some(list) = map.get(&kernel_fp) else {
            return Vec::new();
        };
        let mut found: Vec<Incumbent> = list
            .iter()
            .filter(|i| {
                i.fabric == *target
                    || (i.fabric.topology == target.topology
                        && !i.fabric.adres
                        && !target.adres
                        && i.fabric.rows <= target.rows
                        && i.fabric.cols <= target.cols)
            })
            .cloned()
            .collect();
        found.sort_by_key(|i| (i.fabric != *target, i.ii));
        found
    }
}

/// Counting semaphore bounding concurrent cache-miss solves (the
/// "global core budget"). Hits never take a permit. Tracks how many
/// solves are parked waiting (the queue-depth gauge) and, when
/// `max_queue` bounds that number, sheds load instead of queueing.
struct AdmissionGate {
    permits: Mutex<usize>,
    cv: Condvar,
    /// Solves currently blocked in `acquire`. Only mutated with the
    /// `permits` lock held, so the bounded check is race-free; atomic
    /// so the stats snapshot reads it without the lock.
    waiting: AtomicU64,
}

struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl AdmissionGate {
    fn new(n: usize) -> AdmissionGate {
        AdmissionGate {
            permits: Mutex::new(n.max(1)),
            cv: Condvar::new(),
            waiting: AtomicU64::new(0),
        }
    }

    /// Block until a permit frees up. With `max_queue` set, returns
    /// `None` (admission rejection) instead of becoming the
    /// `max_queue + 1`-th waiter.
    fn acquire(&self, max_queue: Option<usize>) -> Option<Permit<'_>> {
        let mut p = unpoison(self.permits.lock());
        if *p == 0 {
            if let Some(max) = max_queue {
                if self.waiting.load(Ordering::Relaxed) >= max as u64 {
                    return None;
                }
            }
            self.waiting.fetch_add(1, Ordering::Relaxed);
            while *p == 0 {
                p = unpoison(self.cv.wait(p));
            }
            self.waiting.fetch_sub(1, Ordering::Relaxed);
        }
        *p -= 1;
        Some(Permit { gate: self })
    }

    fn waiting(&self) -> u64 {
        self.waiting.load(Ordering::Relaxed)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *unpoison(self.gate.permits.lock()) += 1;
        self.gate.cv.notify_one();
    }
}

/// Single-flight table: identical concurrent misses coalesce onto one
/// solve; followers block until the leader publishes.
#[derive(Default)]
struct InFlight {
    flights: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

struct Flight {
    done: Mutex<Option<Arc<MapOutcome>>>,
    cv: Condvar,
}

enum Ticket<'a> {
    Leader(Lead<'a>),
    Follower(Arc<Flight>),
}

/// A leader's flight. Dropping it publishes `out` and retires the
/// flight, so followers wake even if the leader unwinds.
struct Lead<'a> {
    inflight: &'a InFlight,
    key: CacheKey,
    out: Option<Arc<MapOutcome>>,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        let Some(flight) = unpoison(self.inflight.flights.lock()).remove(&self.key) else {
            return;
        };
        let unwound = || MapOutcome {
            error: Some(MapError::infeasible("PANIC: the leading request unwound")),
            ..MapOutcome::default()
        };
        *unpoison(flight.done.lock()) =
            Some(self.out.take().unwrap_or_else(|| Arc::new(unwound())));
        flight.cv.notify_all();
    }
}

impl InFlight {
    fn begin(&self, key: CacheKey) -> Ticket<'_> {
        let mut flights = unpoison(self.flights.lock());
        match flights.get(&key) {
            Some(f) => Ticket::Follower(Arc::clone(f)),
            None => {
                flights.insert(
                    key,
                    Arc::new(Flight {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    }),
                );
                Ticket::Leader(Lead {
                    inflight: self,
                    key,
                    out: None,
                })
            }
        }
    }

    fn wait(flight: &Flight) -> Arc<MapOutcome> {
        let mut done = unpoison(flight.done.lock());
        while done.is_none() {
            done = unpoison(flight.cv.wait(done));
        }
        Arc::clone(done.as_ref().expect("published"))
    }
}

/// Point-in-time service counters (the serve protocol's `stats` op and
/// the counter half of the Prometheus scrape).
///
/// The request-classification triple is taken as one consistent
/// snapshot: `hits + misses == requests` holds in *every* snapshot,
/// not just quiescent ones, so scraped rates are well-defined and each
/// counter is monotone across scrapes. (A request is classified when
/// its cache probe resolves: hit, coalesced onto an in-flight solve —
/// also a hit, plus `coalesced` — or miss.)
///
/// On the wire the original six counters are required; the fields
/// added with the telemetry layer default to 0, so a new client still
/// reads an old server's snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    /// Timed-out misses answered by the incumbent fallback (replied
    /// [`CacheStatus::Warm`]); a subset of `misses`.
    pub warm: u64,
    /// Hits answered by joining an identical in-flight solve
    /// (single-flight dedup); a subset of `hits`.
    #[serde(default)]
    pub coalesced: u64,
    /// Entries evicted from the in-memory result cache.
    #[serde(default)]
    pub evictions: u64,
    /// Evicted entries persisted to the spill directory.
    #[serde(default)]
    pub disk_spills: u64,
    /// Spilled entries that decoded but whose mapping no longer
    /// validated on reload; each was re-solved as a miss.
    #[serde(default)]
    pub spill_rejects: u64,
    /// Solves that returned the typed `Cancelled` outcome.
    #[serde(default)]
    pub cancellations: u64,
    /// Requests shed because the admission queue was at `max_queue`.
    #[serde(default)]
    pub rejections: u64,
    pub cache_entries: u64,
    /// Solves holding an admission permit right now (gauge).
    pub running: u64,
    /// Requests anywhere inside `handle` right now (gauge).
    #[serde(default)]
    pub in_flight: u64,
    /// Solves parked on the admission gate right now (gauge).
    #[serde(default)]
    pub queue_depth: u64,
    /// The admission-permit budget; `running / cores` is worker
    /// utilization.
    #[serde(default)]
    pub cores: u64,
}

/// Construction knobs for [`MapService::with_options`];
/// [`MapService::new`] covers the common subset.
pub struct ServiceOptions {
    /// Concurrent cache-miss solve budget (admission permits).
    pub cores: usize,
    /// In-memory result-cache capacity before LRU eviction; it also
    /// bounds how many kernels the warm-start index remembers.
    pub cache_cap: usize,
    /// Directory for spilled cache entries; `None` = drop on evict.
    pub spill: Option<PathBuf>,
    /// Latency-histogram registry; [`ServiceMetrics::off`] makes every
    /// observation a no-op.
    pub metrics: ServiceMetrics,
    /// Maximum solves allowed to wait on the admission gate before the
    /// service sheds load ([`MapError::Timeout`], never cached).
    /// `None` = queue without bound.
    pub max_queue: Option<usize>,
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            cores: 2,
            cache_cap: 256,
            spill: None,
            metrics: ServiceMetrics::off(),
            max_queue: None,
        }
    }
}

/// Request-classification counters, updated together under one lock so
/// a stats snapshot can never tear (see [`ServiceStats`]).
#[derive(Default)]
struct Counts {
    requests: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
}

/// The leader's solve: [`execute`], or a test's stand-in.
type Exec<'a> = &'a dyn Fn(&MapRequest, &ExecEnv) -> MapOutcome;

/// How many fabrics' topologies a [`MapService`] keeps built. A 32×32
/// fabric's hop table alone is 4 MB, and a client can name about a
/// thousand distinct fabrics within `MAX_FABRIC_PES`.
const TOPO_POOL_CAP: usize = 16;

/// The serving facade: one instance per server process, shared by all
/// connection threads. Thread-safe throughout (`&self` everywhere).
pub struct MapService {
    cache: ResultCache,
    warm: WarmIndex,
    gate: AdmissionGate,
    inflight: InFlight,
    /// At most [`TOPO_POOL_CAP`] fabrics' topologies.
    topos: Mutex<Lru<FabricSpec, Arc<TopologyCache>>>,
    jobs: Mutex<HashMap<u64, Budget>>,
    counts: Mutex<Counts>,
    warm_count: AtomicU64,
    running: AtomicU64,
    in_flight: AtomicU64,
    cancellations: AtomicU64,
    rejections: AtomicU64,
    metrics: ServiceMetrics,
    max_queue: Option<usize>,
    cores: usize,
    /// Trace minting state: a per-service nonce (so two daemons never
    /// collide) mixed with a strictly increasing sequence.
    trace_nonce: u64,
    trace_seq: AtomicU64,
}

impl MapService {
    /// `cores` bounds concurrent miss solves; `cache_cap` bounds
    /// in-memory cached outcomes; `spill` enables disk spill. Metrics
    /// stay off and the admission queue unbounded — use
    /// [`MapService::with_options`] for those.
    pub fn new(cores: usize, cache_cap: usize, spill: Option<PathBuf>) -> MapService {
        MapService::with_options(ServiceOptions {
            cores,
            cache_cap,
            spill,
            ..ServiceOptions::default()
        })
    }

    pub fn with_options(opts: ServiceOptions) -> MapService {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ ((std::process::id() as u64) << 32);
        MapService {
            cache: ResultCache::new(opts.cache_cap, opts.spill),
            warm: WarmIndex::new(opts.cache_cap),
            gate: AdmissionGate::new(opts.cores),
            inflight: InFlight::default(),
            topos: Mutex::new(Lru::new(TOPO_POOL_CAP)),
            jobs: Mutex::new(HashMap::new()),
            counts: Mutex::new(Counts::default()),
            warm_count: AtomicU64::new(0),
            running: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            cancellations: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            metrics: opts.metrics,
            max_queue: opts.max_queue,
            cores: opts.cores.max(1),
            trace_nonce: nonce,
            trace_seq: AtomicU64::new(0),
        }
    }

    /// Mint one trace id: 16 lowercase hex chars, unique within this
    /// service (the multiplied sequence is a bijection of a strictly
    /// increasing counter) and disambiguated across restarts by the
    /// boot-time nonce.
    fn mint_trace(&self) -> String {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        format!(
            "{:016x}",
            self.trace_nonce ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        )
    }

    /// Serve one request: cache → single-flight → admission → solve.
    /// Every path stamps the outcome with a trace id (the request's
    /// own, or a freshly minted one) and records end-to-end latency.
    pub fn handle(&self, req: &MapRequest) -> MapOutcome {
        self.handle_with(req, &execute)
    }

    /// [`MapService::handle`] with `exec` as the leader's solve.
    fn handle_with(&self, req: &MapRequest, exec: Exec) -> MapOutcome {
        let t0 = Instant::now();
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let out = self.classify_and_serve(req, exec);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.metrics
            .observe_request(t0.elapsed().as_micros() as u64);
        out
    }

    fn classify_and_serve(&self, req: &MapRequest, exec: Exec) -> MapOutcome {
        let trace = if req.trace.is_empty() {
            self.mint_trace()
        } else {
            req.trace.clone()
        };
        let key = req.cache_key();
        let lookup = Instant::now();
        if let Some(cached) = self.cache.lookup(&key, |out| self.resettle(req, out)) {
            self.count(|c| {
                c.requests += 1;
                c.hits += 1;
            });
            return personalize(&cached, req.id, &trace, CacheStatus::Hit, lookup);
        }
        match self.inflight.begin(key) {
            Ticket::Follower(flight) => {
                let out = InFlight::wait(&flight);
                // The work was deduplicated away — a hit from this
                // client's perspective, and counted as one.
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                self.count(|c| {
                    c.requests += 1;
                    c.hits += 1;
                    c.coalesced += 1;
                });
                personalize(&out, req.id, &trace, CacheStatus::Hit, lookup)
            }
            Ticket::Leader(mut lead) => {
                self.count(|c| {
                    c.requests += 1;
                    c.misses += 1;
                });
                let (out, cacheable) = self.solve(req, &trace, exec);
                let out = Arc::new(out);
                // Publish before caching so followers wake first.
                lead.out = Some(Arc::clone(&out));
                drop(lead);
                if cacheable {
                    self.cache.insert(key, Arc::clone(&out));
                }
                (*out).clone()
            }
        }
    }

    fn count(&self, f: impl FnOnce(&mut Counts)) {
        let mut counts = unpoison(self.counts.lock());
        f(&mut counts);
    }

    /// The miss path: admission-gated (possibly load-shed),
    /// cancellable, with the incumbent fallback on a timeout. The bool
    /// says whether the outcome may be cached (rejected, panicked and
    /// cancelled outcomes must not be — none reflects the key's true
    /// answer).
    fn solve(&self, req: &MapRequest, trace: &str, exec: Exec) -> (MapOutcome, bool) {
        let unsolved = |error| MapOutcome {
            id: req.id,
            trace: trace.to_string(),
            kernel: req.kernel.label().to_string(),
            mapper: req.mapper.clone(),
            cache: CacheStatus::Miss,
            error: Some(error),
            ..MapOutcome::default()
        };
        let queued = Instant::now();
        let Some(_permit) = self.gate.acquire(self.max_queue) else {
            self.rejections.fetch_add(1, Ordering::Relaxed);
            // Load shedding surfaces as the retryable Timeout — the
            // request spent its patience in the queue, not in a solver.
            return (unsolved(MapError::Timeout), false);
        };
        let queue_us = queued.elapsed().as_micros() as u64;
        self.metrics.observe_queue_wait(queue_us);
        self.running.fetch_add(1, Ordering::Relaxed);
        let kernel_fp = req.kernel.fingerprint();
        let budget =
            Budget::unlimited().fork(Duration::from_millis(req.config.time_limit_ms.max(1)));
        unpoison(self.jobs.lock()).insert(req.id, budget.clone());
        let env = ExecEnv {
            budget,
            topo: self.topo_for(&req.fabric),
            trace: trace.to_string(),
            ..ExecEnv::default()
        };
        let solve_t = Instant::now();
        let solved = panic::catch_unwind(AssertUnwindSafe(|| exec(req, &env)));
        self.metrics
            .observe_solve(solve_t.elapsed().as_micros() as u64);
        unpoison(self.jobs.lock()).remove(&req.id);
        self.running.fetch_sub(1, Ordering::Relaxed);
        let mut out = match solved {
            Ok(out) => out,
            // Like `settle`'s INVALID OUTPUT: this answer is about the
            // solve, not the key, so the next request solves again.
            Err(p) => {
                let said = (p.downcast_ref::<&str>().copied())
                    .or_else(|| p.downcast_ref::<String>().map(String::as_str));
                let why = format!("PANIC: {}", said.unwrap_or("the solve panicked"));
                return (unsolved(MapError::infeasible(why)), false);
            }
        };

        out.queue_us = queue_us;
        out.cache = CacheStatus::Miss;
        match &out.mapping {
            Some(m) => self.warm.record(kernel_fp, req.fabric, m),
            None => {
                if matches!(out.error, Some(MapError::Timeout)) {
                    self.timeout_fallback(req, &mut out);
                }
            }
        }
        let cancelled = matches!(out.error, Some(MapError::Cancelled));
        if cancelled {
            self.cancellations.fetch_add(1, Ordering::Relaxed);
        }
        (out, !cancelled)
    }

    /// The exit gate for an outcome reloaded from a spill file: one that
    /// carries a mapping is settled again against the request's kernel,
    /// fabric and pooled topology, and only a mapping that still
    /// validates is served. An outcome carrying an error passes as is.
    fn resettle(&self, req: &MapRequest, out: &mut MapOutcome) -> bool {
        let Some(m) = out.mapping.take() else {
            return true;
        };
        let (Ok(dfg), Ok(fabric), Some(topo)) = (
            req.kernel.compile(),
            req.fabric.build(),
            self.topo_for(&req.fabric),
        ) else {
            return false;
        };
        out.settle(Ok(m), &dfg, &fabric, &topo);
        out.succeeded()
    }

    /// The warm start: replace a timeout with an incumbent lifted
    /// onto the request's fabric (row-major from the origin; wrap-around
    /// routes or heterogeneous capability layouts make the lift invalid,
    /// which the exit gate catches) when one fits the request's II bounds.
    fn timeout_fallback(&self, req: &MapRequest, out: &mut MapOutcome) {
        let candidates = self.warm.candidates(req.kernel.fingerprint(), &req.fabric);
        if candidates.is_empty() {
            return;
        }
        let (Ok(dfg), Ok(fabric), Some(topo)) = (
            req.kernel.compile(),
            req.fabric.build(),
            self.topo_for(&req.fabric),
        ) else {
            return;
        };
        for inc in candidates {
            if inc.ii < req.config.min_ii || inc.ii > req.config.max_ii {
                continue;
            }
            let origin = Partition {
                row0: 0,
                col0: 0,
                spec: inc.fabric,
            };
            let lifted = origin.translate_up(&inc.mapping, &req.fabric);
            out.settle(Ok(lifted), &dfg, &fabric, &topo);
            if out.succeeded() {
                out.cache = CacheStatus::Warm;
                self.warm_count.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // No incumbent survived the gate: the answer is still the timeout.
        out.settle(Err(MapError::Timeout), &dfg, &fabric, &topo);
    }

    /// The pooled topology of `spec`'s fabric, built on first use.
    /// The build runs outside the `topos` lock, so other misses never
    /// wait behind it; if two threads race on a new spec, the first
    /// insert wins and both use it.
    fn topo_for(&self, spec: &FabricSpec) -> Option<Arc<TopologyCache>> {
        if let Some(t) = unpoison(self.topos.lock()).get(spec) {
            return Some(Arc::clone(t));
        }
        let built = Arc::new(TopologyCache::build(&spec.build().ok()?));
        let mut topos = unpoison(self.topos.lock());
        if let Some(t) = topos.get(spec) {
            return Some(Arc::clone(t));
        }
        topos.insert(*spec, Arc::clone(&built));
        Some(built)
    }

    /// Cancel the in-flight request with this id. Returns whether a
    /// running job was found; its solve returns the typed
    /// [`MapError::Cancelled`] within the engine's latency bound.
    pub fn cancel(&self, id: u64) -> bool {
        match unpoison(self.jobs.lock()).get(&id) {
            Some(b) => {
                b.cancel();
                true
            }
            None => false,
        }
    }

    /// Consistent point-in-time counters. The classification triple
    /// comes from one lock acquisition, so `hits + misses == requests`
    /// in every snapshot; the remaining fields are independently
    /// monotone counters or instantaneous gauges.
    pub fn stats(&self) -> ServiceStats {
        let c = unpoison(self.counts.lock());
        ServiceStats {
            requests: c.requests,
            hits: c.hits,
            misses: c.misses,
            coalesced: c.coalesced,
            warm: self.warm_count.load(Ordering::Relaxed),
            evictions: self.cache.evictions(),
            disk_spills: self.cache.disk_spills(),
            spill_rejects: self.cache.spill_rejects(),
            cancellations: self.cancellations.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
            cache_entries: self.cache.len() as u64,
            running: self.running.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_depth: self.gate.waiting(),
            cores: self.cores as u64,
        }
    }

    /// The latency-histogram registry this service records into.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The full Prometheus text-format scrape payload (the `metrics`
    /// wire op and the `--metrics-addr` HTTP endpoint both serve it).
    pub fn metrics_text(&self) -> String {
        render_prometheus(&self.stats(), &self.metrics)
    }

    /// The shared result cache (benchmarks read its counters).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Would `handle` answer this request straight from the result
    /// cache? A counter-free probe of the content-addressed key —
    /// planners use it to predict warmth without perturbing hit-rate
    /// accounting (see [`crate::fleet::plan`]).
    pub fn is_cached(&self, req: &MapRequest) -> bool {
        self.cache.peek(&req.cache_key())
    }
}

/// A cached outcome re-addressed to one client: its id, trace, cache
/// status, and the (micro-scale) time *this* lookup took rather than
/// the original solve time. The queue wait is zeroed — this client
/// never queued.
fn personalize(
    outcome: &MapOutcome,
    id: u64,
    trace: &str,
    cache: CacheStatus,
    lookup: Instant,
) -> MapOutcome {
    let mut out = outcome.clone();
    out.id = id;
    out.trace = trace.to_string();
    out.cache = cache;
    out.compile_ms = lookup.elapsed().as_secs_f64() * 1e3;
    out.queue_us = 0;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{KernelSpec, RequestConfig};
    use crate::validate::validate;

    fn named(req_id: u64, kernel: &str, mapper: &str) -> MapRequest {
        MapRequest {
            id: req_id,
            ..MapRequest::new(KernelSpec::Named(kernel.into()), mapper)
        }
    }

    #[test]
    fn execute_maps_and_validates() {
        let out = execute(&named(3, "dot_product", "modulo-list"), &ExecEnv::default());
        assert_eq!(out.id, 3);
        assert_eq!(out.kernel, "dot_product");
        assert!(out.succeeded(), "error: {:?}", out.error);
        assert_eq!(out.mapper, "modulo-list");
        assert_eq!(out.family, "heuristic");
        assert!(out.metrics.as_ref().unwrap().ii >= 1);
        assert!(out.utilization.is_some());
        assert_eq!(out.cache, CacheStatus::Uncached);
    }

    #[test]
    fn execute_reports_typed_failures() {
        let unknown = execute(&named(0, "dot_product", "no-such"), &ExecEnv::default());
        assert!(matches!(unknown.error, Some(MapError::Unsupported(_))));
        let bad_kernel = execute(
            &named(0, "no-such-kernel", "modulo-list"),
            &ExecEnv::default(),
        );
        assert!(matches!(bad_kernel.error, Some(MapError::Unsupported(_))));
        let impossible = MapRequest {
            config: RequestConfig {
                max_ii: 1,
                min_ii: 1,
                ..RequestConfig::default()
            },
            fabric: FabricSpec {
                rows: 2,
                cols: 2,
                ..FabricSpec::default()
            },
            ..named(0, "fir4", "modulo-list")
        };
        let out = execute(&impossible, &ExecEnv::default());
        assert!(matches!(out.error, Some(MapError::Infeasible(_))));
    }

    #[test]
    fn execute_collects_observability_when_asked() {
        let env = ExecEnv {
            telemetry: Some(Telemetry::enabled()),
            ..ExecEnv::default()
        };
        let out = execute(&named(0, "dot_product", "modulo-list"), &env);
        assert!(out.stats.is_some());
        assert!(!out.events.is_empty() || out.events_dropped == 0);
    }

    #[test]
    fn cache_hits_and_lru_spill_round_trip() {
        let dir = std::env::temp_dir().join(format!("cgra-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(2, Some(dir.clone()));
        let seeded = |i: u64| MapRequest {
            config: RequestConfig {
                seed: i,
                ..RequestConfig::default()
            },
            ..named(i, "dot_product", "modulo-list")
        };
        let req_key = |i: u64| seeded(i).cache_key();
        let outs: Vec<MapOutcome> = (0..3)
            .map(|i| {
                let out = execute(&seeded(i), &ExecEnv::default());
                cache.insert(req_key(i), Arc::new(out.clone()));
                out
            })
            .collect();
        assert_eq!(cache.len(), 2, "capacity bound must hold");
        // The evicted oldest entry comes back from disk with its
        // mapping intact.
        let key0 = req_key(0);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.disk_spills(), 1);
        let revived = cache.get(&key0).expect("spilled entry reloads");
        assert_eq!(revived.mapping, outs[0].mapping);
        // The reload is lossless: a disk hit renders the bytes a memory
        // hit would have (utilization, stats and all).
        assert_eq!(revived.to_value().render(), outs[0].to_value().render());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.spill_loads(), 1);
        // Re-admitting the revived entry pushed a fresh victim out.
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.disk_spills(), 2);

        // Same for a race outcome, whose per-entry rows (each with its
        // own counters and typed loser errors) ride along.
        let race_req = MapRequest {
            mode: ExecMode::Race,
            ..named(9, "dot_product", "modulo-list")
        };
        let raced = execute(&race_req, &ExecEnv::default());
        assert!(!raced.race.is_empty() && raced.race_wall_ms > 0.0);
        cache.insert(race_req.cache_key(), Arc::new(raced.clone()));
        for out in &outs[1..] {
            cache.insert(req_key(out.id), Arc::new(out.clone()));
        }
        let revived = cache.get(&race_req.cache_key()).expect("race reloads");
        assert_eq!(cache.spill_loads(), 2);
        assert_eq!(revived.to_value().render(), raced.to_value().render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_spill_files_are_misses() {
        let dir = std::env::temp_dir().join(format!("cgra-cache-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = ResultCache::new(1, Some(dir.clone()));
        let req = named(0, "dot_product", "modulo-list");
        let key = req.cache_key();
        let path = dir.join(format!("{}.json", key.hex()));
        let good = execute(&req, &ExecEnv::default()).to_value().render();
        let bad = [
            ("neither mapping nor error", "{}".to_string()),
            ("truncated", good[..good.len() / 2].to_string()),
            (
                "wrong-typed field",
                good.replacen("\"ii\":", "\"ii\":\"x\",\"was\":", 1),
            ),
        ];
        for (what, text) in &bad {
            std::fs::write(&path, text).unwrap();
            assert!(cache.get(&key).is_none(), "{what} must not be served");
        }
        assert_eq!((cache.hits(), cache.misses()), (0, bad.len() as u64));
        std::fs::write(&path, &good).unwrap();
        assert!(cache.get(&key).expect("intact file loads").succeeded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_mappings_invalid_on_the_fabric_are_misses() {
        let dir = std::env::temp_dir().join(format!("cgra-cache-invalid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let req = named(0, "dot_product", "modulo-list");
        let mut forged = execute(&req, &ExecEnv::default());
        // One placement moved to a PE the 4x4 fabric lacks: the file
        // still decodes, but its mapping cannot validate.
        forged.mapping.as_mut().unwrap().place[0].pe = cgra_arch::PeId(99);
        let path = dir.join(format!("{}.json", req.cache_key().hex()));
        std::fs::write(&path, forged.to_value().render()).unwrap();
        assert!(MapOutcome::load(&path).is_ok(), "the forged file decodes");

        let svc = MapService::new(1, 4, Some(dir.clone()));
        let out = svc.handle(&req);
        assert_eq!(out.cache, CacheStatus::Miss, "re-solved, not served");
        let m = out.mapping.as_ref().expect("the re-solve maps");
        let fabric = req.fabric.build().unwrap();
        validate(m, &req.kernel.compile().unwrap(), &fabric).unwrap();
        let s = svc.stats();
        assert_eq!((s.requests, s.hits, s.misses), (1, 0, 1));
        assert_eq!(s.hits + s.misses, s.requests);
        assert_eq!(s.spill_rejects, 1, "the refused reload is counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_hit_path_and_stats() {
        let svc = MapService::new(2, 64, None);
        let req = named(1, "dot_product", "modulo-list");
        let cold = svc.handle(&req);
        assert!(cold.succeeded());
        assert_eq!(cold.cache, CacheStatus::Miss);
        let hot = svc.handle(&MapRequest {
            id: 2,
            ..req.clone()
        });
        assert_eq!(hot.cache, CacheStatus::Hit);
        assert_eq!(hot.id, 2);
        assert_eq!(hot.mapping, cold.mapping, "hits must be byte-identical");
        let s = svc.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.coalesced, 0);
        assert_eq!(s.rejections, 0);
        assert_eq!(s.cores, 2);
        // Every response carries a trace: minted per request, so the
        // hit's differs from the miss's.
        assert_eq!(cold.trace.len(), 16, "minted trace: {:?}", cold.trace);
        assert_eq!(hot.trace.len(), 16);
        assert_ne!(hot.trace, cold.trace);
    }

    #[test]
    fn a_panic_under_a_lock_leaves_the_service_answering() {
        let svc = MapService::new(2, 64, None);
        let req = named(1, "dot_product", "modulo-list");
        let cold = svc.handle(&req);
        assert!(cold.succeeded());
        // A worker dies holding the counters, then the cache: both
        // mutexes are poisoned.
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _counts = svc.counts.lock();
                let _cache = svc.cache.inner.lock();
                panic!("worker panics under both locks");
            })
            .join()
        });
        assert!(died.is_err());
        assert!(svc.counts.is_poisoned() && svc.cache.inner.is_poisoned());
        // Later requests, hit and miss alike, are still answered.
        let hit = svc.handle(&MapRequest {
            id: 2,
            ..req.clone()
        });
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert_eq!(hit.mapping, cold.mapping);
        let miss = svc.handle(&named(3, "fir4", "modulo-list"));
        assert_eq!(miss.cache, CacheStatus::Miss);
        assert!(miss.succeeded(), "error: {:?}", miss.error);
        let s = svc.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.hits + s.misses, s.requests);
    }

    #[test]
    fn a_panicking_solve_answers_its_flight_and_is_not_cached() {
        let svc = MapService::new(2, 64, None);
        let req = named(1, "dot_product", "modulo-list");
        let key = req.cache_key();
        let flight = || {
            unpoison(svc.inflight.flights.lock())
                .get(&key)
                .map(Arc::strong_count)
        };
        let (leader, follower) = std::thread::scope(|s| {
            let leader = s.spawn(|| {
                // Die once a follower has joined this flight.
                let die = |_: &MapRequest, _: &ExecEnv| -> MapOutcome {
                    while flight() != Some(2) {
                        std::thread::yield_now();
                    }
                    panic!("scripted solver panic")
                };
                svc.handle_with(&req, &die)
            });
            while flight().is_none() {
                std::thread::yield_now();
            }
            let never = |_: &MapRequest, _: &ExecEnv| -> MapOutcome { unreachable!() };
            let follower = svc.handle_with(
                &MapRequest {
                    id: 2,
                    ..req.clone()
                },
                &never,
            );
            (leader.join().unwrap(), follower)
        });
        for out in [&leader, &follower] {
            match &out.error {
                Some(MapError::Infeasible(inf)) => {
                    assert_eq!(inf.why, "PANIC: scripted solver panic");
                    assert!(!inf.proven);
                }
                other => panic!("request {}: {other:?}", out.id),
            }
        }
        assert_eq!(
            (leader.cache, follower.cache),
            (CacheStatus::Miss, CacheStatus::Hit)
        );
        let s = svc.stats();
        assert_eq!((s.running, s.in_flight, s.cache_entries), (0, 0, 0));
        assert!(unpoison(svc.jobs.lock()).is_empty());
        assert!(flight().is_none(), "the flight is retired");
        // The service still answers, and the key solves afresh.
        let again = svc.handle(&MapRequest {
            id: 3,
            ..req.clone()
        });
        assert_eq!(again.cache, CacheStatus::Miss);
        assert!(again.succeeded(), "error: {:?}", again.error);
        assert!(svc.handle(&named(4, "fir4", "modulo-list")).succeeded());
        let s = svc.stats();
        assert_eq!((s.requests, s.misses, s.coalesced), (4, 3, 1));
        assert_eq!(s.hits + s.misses, s.requests);
        assert_eq!((s.running, s.in_flight), (0, 0));
    }

    #[test]
    fn client_supplied_traces_are_echoed_verbatim() {
        let svc = MapService::new(2, 64, None);
        let req = MapRequest {
            trace: "feedfacefeedface".into(),
            ..named(1, "dot_product", "modulo-list")
        };
        let out = svc.handle(&req);
        assert_eq!(out.trace, "feedfacefeedface");
        // And the observed execute path journals it.
        let env = ExecEnv {
            telemetry: Some(Telemetry::enabled()),
            trace: "0123456789abcdef".into(),
            ..ExecEnv::default()
        };
        let out = execute(&named(1, "dot_product", "modulo-list"), &env);
        assert_eq!(out.trace, "0123456789abcdef");
        assert!(
            out.events.iter().any(|e| matches!(
                &e.kind,
                crate::ledger::EventKind::Request { trace, .. } if trace == "0123456789abcdef"
            )),
            "the journal must record the trace at ingress"
        );
    }

    #[test]
    fn stats_snapshots_are_consistent_and_monotone_under_load() {
        let svc = MapService::new(2, 64, None);
        // Prime the cache so the storm below is pure hits.
        assert!(svc
            .handle(&named(1, "dot_product", "modulo-list"))
            .succeeded());
        const THREADS: usize = 4;
        const PER_THREAD: usize = 50;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = (t * PER_THREAD + i) as u64 + 2;
                        svc.handle(&named(id, "dot_product", "modulo-list"));
                    }
                });
            }
            // The fix under test: `Relaxed` per-field reads could
            // observe hits + misses != requests mid-storm; the locked
            // snapshot cannot, and `requests` is monotone scrape to
            // scrape.
            let svc = &svc;
            scope.spawn(move || {
                let mut last = 0u64;
                for _ in 0..500 {
                    let s = svc.stats();
                    assert_eq!(s.hits + s.misses, s.requests, "torn snapshot");
                    assert!(s.requests >= last, "requests counter went backwards");
                    last = s.requests;
                }
            });
        });
        let s = svc.stats();
        assert_eq!(s.requests, (THREADS * PER_THREAD) as u64 + 1);
        assert_eq!(s.hits + s.misses, s.requests);
        assert_eq!(s.misses, 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.queue_depth, 0);
    }

    #[test]
    fn full_queue_sheds_load_with_a_typed_rejection() {
        let svc = Arc::new(MapService::with_options(ServiceOptions {
            cores: 1,
            max_queue: Some(0),
            metrics: ServiceMetrics::enabled(),
            ..ServiceOptions::default()
        }));
        // Occupy the single core with a long exact solve.
        let blocker = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let mut req = named(7, "sobel", "sat");
                req.config.time_limit_ms = 60_000;
                svc.handle(&req)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while svc.stats().running == 0 {
            assert!(Instant::now() < deadline, "blocker never started running");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Queue bound 0: the next distinct request is shed instead of
        // queued, without ever reaching a solver.
        let shed = svc.handle(&named(8, "dot_product", "modulo-list"));
        assert!(matches!(shed.error, Some(MapError::Timeout)));
        assert_eq!(shed.cache, CacheStatus::Miss);
        assert_eq!(shed.trace.len(), 16);
        let s = svc.stats();
        assert_eq!(s.rejections, 1);
        assert_eq!(s.cache_entries, 0, "rejected outcomes are never cached");

        assert!(svc.cancel(7));
        let out = blocker.join().unwrap();
        assert!(matches!(out.error, Some(MapError::Cancelled)));
        assert_eq!(svc.stats().cancellations, 1);
    }

    #[test]
    fn service_warm_status_on_adjacent_config() {
        let svc = MapService::new(2, 64, None);
        let a = named(1, "dot_product", "modulo-list");
        assert_eq!(svc.handle(&a).cache, CacheStatus::Miss);
        // Same kernel, different config: solved from scratch, so a
        // plain miss. Knowing the kernel is not a warm start.
        let b = MapRequest {
            config: RequestConfig {
                max_ii: 6,
                ..RequestConfig::default()
            },
            ..a
        };
        assert_eq!(svc.handle(&b).cache, CacheStatus::Miss);
        assert_eq!(svc.stats().warm, 0);
    }

    #[test]
    fn an_exact_miss_does_not_make_later_misses_warm() {
        let svc = MapService::new(2, 64, None);
        let sat = svc.handle(&named(1, "dot_product", "sat"));
        assert!(sat.succeeded(), "error: {:?}", sat.error);
        assert_eq!(sat.cache, CacheStatus::Miss);
        let other = svc.handle(&named(2, "fir4", "modulo-list"));
        assert!(other.succeeded(), "error: {:?}", other.error);
        assert_eq!(other.cache, CacheStatus::Miss);
        assert_eq!(svc.stats().warm, 0);
    }

    #[test]
    fn a_timeout_with_a_recorded_incumbent_is_answered_warm() {
        let svc = MapService::new(2, 64, None);
        let recorded = svc.handle(&named(1, "sobel", "modulo-list"));
        let incumbent = recorded.mapping.expect("modulo-list maps sobel on 4x4");
        assert_eq!(recorded.cache, CacheStatus::Miss);
        // The same kernel through an exact mapper with 1 ms to spend
        // times out, and the fallback serves the recorded incumbent.
        let mut req = named(2, "sobel", "sat");
        req.config.time_limit_ms = 1;
        let out = svc.handle(&req);
        assert_eq!(out.error, None, "the fallback answered");
        assert_eq!(out.cache, CacheStatus::Warm);
        let m = out.mapping.expect("the lifted incumbent");
        assert_eq!(m, incumbent, "same fabric: the incumbent as recorded");
        let fabric = req.fabric.build().unwrap();
        validate(&m, &req.kernel.compile().unwrap(), &fabric).unwrap();
        let s = svc.stats();
        assert_eq!((s.misses, s.warm), (2, 1));
    }

    #[test]
    fn warm_index_keeps_at_most_cap_kernels() {
        let m = execute(&named(0, "dot_product", "modulo-list"), &ExecEnv::default())
            .mapping
            .expect("maps on 4x4");
        let cap = 8;
        let index = WarmIndex::new(cap);
        let spec = FabricSpec::default();
        let known = |fp: u64| index.candidates(fp, &spec).len() == 1;
        index.record(0, spec, &m);
        for fp in 1..(cap as u64 + 5) {
            // Consulting kernel 0 keeps it the most recently used.
            assert!(known(0));
            index.record(fp, spec, &m);
            assert!(unpoison(index.by_kernel.lock()).len() <= cap);
        }
        assert!(known(cap as u64 + 4) && known(0));
        assert!(!known(1), "the least recently used kernel is gone");
    }

    #[test]
    fn topology_pool_stays_bounded() {
        let svc = MapService::new(1, 4, None);
        let spec = |cols: u16| FabricSpec {
            rows: 2,
            cols,
            ..FabricSpec::default()
        };
        let first = svc.topo_for(&spec(2)).expect("builds");
        for cols in 3..(3 + TOPO_POOL_CAP as u16 + 4) {
            // Touching 2×2 keeps it resident while the rest churn.
            let again = svc.topo_for(&spec(2)).expect("resident");
            assert!(
                Arc::ptr_eq(&first, &again),
                "a resident spec is not rebuilt"
            );
            svc.topo_for(&spec(cols)).expect("builds");
            assert!(unpoison(svc.topos.lock()).len() <= TOPO_POOL_CAP);
        }
        assert_eq!(unpoison(svc.topos.lock()).len(), TOPO_POOL_CAP);
    }

    #[test]
    fn translated_incumbent_embeds_into_wider_fabric() {
        let req = named(0, "dot_product", "modulo-list");
        let out = execute(&req, &ExecEnv::default());
        let m = out.mapping.expect("maps on 4x4");
        let wide = FabricSpec {
            rows: 4,
            cols: 6,
            ..FabricSpec::default()
        };
        let origin = Partition {
            row0: 0,
            col0: 0,
            spec: req.fabric,
        };
        let translated = origin.translate_up(&m, &wide);
        let dfg = req.kernel.compile().unwrap();
        let fabric = wide.build().unwrap();
        assert!(validate(&translated, &dfg, &fabric).is_ok());
    }
}
