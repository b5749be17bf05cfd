//! Search telemetry: the one per-run observability sink — lock-free
//! counters and histograms, plus a bounded log of phase spans and
//! search events.
//!
//! The survey's Table I separates mapping techniques by *how they
//! search* — heuristics backtrack, meta-heuristics propose moves, exact
//! methods branch and propagate — yet end-result metrics (II, hops,
//! compile time) cannot distinguish a SAT timeout from an SA one. This
//! module gives every mapper a common vocabulary of search-effort
//! counters, wall-clock phase spans, and a journal of search events
//! ([`crate::ledger`]'s vocabulary: *when* each mapper improved, which
//! II probes ran, who won a race), collected through one optional
//! shared sink so the `Mapper` trait stays untouched.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be free.** [`Telemetry`] wraps
//!    `Option<Arc<SearchStats>>`; every operation on a disabled handle
//!    is a null check, and event payloads (strings) are only built when
//!    a sink is attached. Counters use relaxed atomics so the enabled
//!    path stays lock-free on the router/scheduler hot loops; spans and
//!    events are rare (one per phase, II probe, incumbent or race step)
//!    and share one bounded, mutex-guarded log mechanism.
//! 2. **One clock.** Spans and events are stamped from the sink's one
//!    epoch, and an event is stamped under its log's lock, so journal
//!    order is time order.
//! 3. **No signature churn.** The sink rides in
//!    [`crate::MapConfig::telemetry`]; mappers read it from the config
//!    they already receive.
//! 4. **Deterministic.** Counter values are sums of per-thread
//!    deterministic contributions; relaxed atomic addition commutes, so
//!    same-seed runs produce identical snapshots (tested).
//! 5. **One race timeline.** A race row records into a
//!    [`Telemetry::child`]: counters, spans and histograms of its own,
//!    events on its parent's journal.

use crate::ledger::{EventKind, LedgerEvent, MAX_EVENTS};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Search-effort counters, one per Table I search behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[repr(usize)]
pub enum Counter {
    /// Candidate IIs probed (the "increase II until it fits" loop).
    IiAttempts,
    /// `(op, pe, cycle)` placement attempts by constructive mappers.
    PlacementsTried,
    /// Placements undone or abandoned (heuristic/B&B backtracking).
    Backtracks,
    /// Space-time router searches run (a query the hop table rejects
    /// is not one: callers test it before they count).
    RoutingCalls,
    /// Router searches that found no route.
    RoutingFailures,
    /// Meta-heuristic moves proposed (SA moves, GA/QEA offspring).
    MovesProposed,
    /// Moves accepted / improving offspring.
    MovesAccepted,
    /// Search-tree nodes expanded (B&B).
    NodesExpanded,
    /// Search-tree nodes pruned by bound, beam, or budget.
    NodesPruned,
    /// Solver branching decisions (CDCL decides, CP/ILP branch nodes).
    SolverDecisions,
    /// Solver propagations (unit propagations, AC-3 revisions, LP solves).
    SolverPropagations,
    /// Solver conflicts (CDCL conflicts, CP dead-ends, theory conflicts).
    SolverConflicts,
    /// Solver restarts (Luby restarts).
    SolverRestarts,
    /// Incremental solves answered under assumptions (SAT II sweeps
    /// reusing one solver instance across candidate IIs).
    SolverAssumptionSolves,
    /// Learnt clauses retained across clause-database reductions.
    SolverLearntKept,
    /// Learnt clauses garbage-collected by database reductions.
    SolverLearntGcd,
    /// Simplex pivots of the ILP's LP relaxations.
    SolverLpPivots,
    /// Runs stopped by a budget cancellation (portfolio race losers,
    /// parallel-II jobs dominated by a better II).
    Cancellations,
    /// Improving solutions found (anytime incumbents: routable
    /// bindings, solver models, better objective values), one per
    /// `Incumbent` event.
    Incumbents,
    /// CEGAR rounds of the exact mappers: one per placement solve.
    CegarRounds,
    /// Exact II probes whose CEGAR loop ran out of rounds with solutions
    /// left (`GaveUp`: the II was not refuted, only abandoned).
    CegarGaveUp,
}

impl Counter {
    /// Every counter, in snapshot order.
    pub const ALL: [Counter; 21] = [
        Counter::IiAttempts,
        Counter::PlacementsTried,
        Counter::Backtracks,
        Counter::RoutingCalls,
        Counter::RoutingFailures,
        Counter::MovesProposed,
        Counter::MovesAccepted,
        Counter::NodesExpanded,
        Counter::NodesPruned,
        Counter::SolverDecisions,
        Counter::SolverPropagations,
        Counter::SolverConflicts,
        Counter::SolverRestarts,
        Counter::SolverAssumptionSolves,
        Counter::SolverLearntKept,
        Counter::SolverLearntGcd,
        Counter::SolverLpPivots,
        Counter::Cancellations,
        Counter::Incumbents,
        Counter::CegarRounds,
        Counter::CegarGaveUp,
    ];

    /// Snake-case name used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            Counter::IiAttempts => "ii_attempts",
            Counter::PlacementsTried => "placements_tried",
            Counter::Backtracks => "backtracks",
            Counter::RoutingCalls => "routing_calls",
            Counter::RoutingFailures => "routing_failures",
            Counter::MovesProposed => "moves_proposed",
            Counter::MovesAccepted => "moves_accepted",
            Counter::NodesExpanded => "nodes_expanded",
            Counter::NodesPruned => "nodes_pruned",
            Counter::SolverDecisions => "solver_decisions",
            Counter::SolverPropagations => "solver_propagations",
            Counter::SolverConflicts => "solver_conflicts",
            Counter::SolverRestarts => "solver_restarts",
            Counter::SolverAssumptionSolves => "solver_assumption_solves",
            Counter::SolverLearntKept => "solver_learnt_kept",
            Counter::SolverLearntGcd => "solver_learnt_gcd",
            Counter::SolverLpPivots => "solver_lp_pivots",
            Counter::Cancellations => "cancellations",
            Counter::Incumbents => "incumbents",
            Counter::CegarRounds => "cegar_rounds",
            Counter::CegarGaveUp => "cegar_gave_up",
        }
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();

/// Pipeline phases timed by spans (the CLI's Fig. 3 flow plus the
/// mapper-internal map-per-II and routing phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[repr(usize)]
pub enum Phase {
    Parse,
    Optimize,
    Map,
    Route,
    Validate,
    Simulate,
}

impl Phase {
    pub const ALL: [Phase; 6] = [
        Phase::Parse,
        Phase::Optimize,
        Phase::Map,
        Phase::Route,
        Phase::Validate,
        Phase::Simulate,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Optimize => "optimize",
            Phase::Map => "map",
            Phase::Route => "route",
            Phase::Validate => "validate",
            Phase::Simulate => "simulate",
        }
    }
}

/// One completed span: a phase, an optional II qualifier (map-per-II
/// attempts), and wall-clock bounds relative to the sink's creation.
#[derive(Debug, Clone, Serialize)]
pub struct SpanRecord {
    pub phase: Phase,
    /// `Some(ii)` for per-II mapping attempts, `None` for whole phases.
    pub ii: Option<u32>,
    /// Microseconds since the sink was created.
    pub start_us: u64,
    pub dur_us: u64,
}

/// Span log capacity: inner search loops (one span per II attempt or
/// routing pass) can emit thousands of spans on hard instances; beyond
/// this many the log stops growing and only counts the overflow.
const MAX_SPANS: usize = 16_384;

const NUM_PHASES: usize = Phase::ALL.len();

/// Log2 bucket count: bucket 0 holds the value 0, bucket `b` (1..=62)
/// holds `[2^(b-1), 2^b)`, bucket 63 holds everything from `2^62` up.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A deterministic log2-bucketed latency histogram.
///
/// Bucket boundaries are fixed powers of two, so two histograms built
/// from the same multiset of samples are identical regardless of
/// insertion order, and [`merge`](Histogram::merge) (bucket-wise
/// addition) is associative and commutative — a fleet of per-run
/// histograms folds into one in any order. Percentile queries return
/// the *inclusive upper bound* of the bucket holding the requested
/// rank, so an estimate never undershoots the exact order statistic
/// and never leaves its bucket (both properties are property-tested).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
        }
    }

    /// Bucket index of `v`: its significant-bit count, clamped to the
    /// last bucket.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `b` — what percentile queries
    /// report.
    pub fn bucket_bound(b: usize) -> u64 {
        match b {
            0 => 0,
            _ if b >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw bucket counts (index = [`Histogram::bucket_of`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Fold `other` in by bucket-wise addition.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Upper bound of the bucket holding the rank-`ceil(p/100·n)`
    /// sample (1-based, `p` clamped to `[0, 100]`); 0 when empty. The
    /// exact order statistic lies in the same bucket, at or below the
    /// returned value.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Self::bucket_bound(b);
            }
        }
        Self::bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// Lock-free histogram shared by the telemetry sink: relaxed per-bucket
/// atomics, so concurrent recording commutes and same-seed runs
/// snapshot identical histograms. Also the storage behind the service
/// latency metrics (`servemetrics`), which scrape it concurrently with
/// recording.
pub struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Histogram::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (dst, src) in h.buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
            h.count += *dst;
        }
        h
    }
}

/// A bounded, mutex-guarded log — the one mechanism behind spans and
/// events. Appends past `cap` are counted, not stored.
struct BoundedLog<T> {
    items: Mutex<Vec<T>>,
    dropped: AtomicU64,
    cap: usize,
}

impl<T: Clone> BoundedLog<T> {
    fn new(cap: usize) -> Self {
        BoundedLog {
            items: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        // Every update is one push, so a log poisoned by a panicking
        // recorder is still whole.
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append the entry `make` builds. It runs under the lock, so a
    /// timestamp it takes orders the log by time.
    fn push(&self, make: impl FnOnce() -> T) {
        let mut items = self.lock();
        if items.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        items.push(make());
    }

    fn items(&self) -> Vec<T> {
        self.lock().clone()
    }

    fn len(&self) -> usize {
        self.lock().len()
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Where a sink's events go.
enum Journal {
    /// Its own log: a run's top-level sink.
    Own(BoundedLog<LedgerEvent>),
    /// The parent's journal (a race row's sink); nowhere when the parent
    /// is off.
    Parent(Option<Arc<SearchStats>>),
}

/// The shared sink: lock-free counters and histograms, plus the span
/// log and the event journal.
pub struct SearchStats {
    counters: [AtomicU64; NUM_COUNTERS],
    /// Capped at [`MAX_SPANS`].
    spans: BoundedLog<SpanRecord>,
    /// Capped at [`MAX_EVENTS`].
    journal: Journal,
    /// Per-phase span-duration histograms (µs). Fed by every completed
    /// span, including those the capped span log discards, so
    /// percentiles stay exact under truncation.
    phase_lat: [AtomicHistogram; NUM_PHASES],
    /// Per-route-call latency histogram (µs).
    route_lat: AtomicHistogram,
    epoch: Instant,
}

impl Default for SearchStats {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchStats {
    pub fn new() -> Self {
        Self::with_journal(Instant::now(), Journal::Own(BoundedLog::new(MAX_EVENTS)))
    }

    fn with_journal(epoch: Instant, journal: Journal) -> Self {
        SearchStats {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: BoundedLog::new(MAX_SPANS),
            journal,
            phase_lat: std::array::from_fn(|_| AtomicHistogram::new()),
            route_lat: AtomicHistogram::new(),
            epoch,
        }
    }

    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Record a completed span (called by [`SpanGuard::drop`]).
    fn record_span(&self, phase: Phase, ii: Option<u32>, started: Instant) {
        let start_us = started.duration_since(self.epoch).as_micros() as u64;
        let dur_us = started.elapsed().as_micros() as u64;
        self.phase_lat[phase as usize].record(dur_us);
        self.spans.push(|| SpanRecord {
            phase,
            ii,
            start_us,
            dur_us,
        });
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.items()
    }

    /// Number of recorded span events.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Spans discarded because the log was full.
    pub fn spans_dropped(&self) -> u64 {
        self.spans.dropped()
    }

    /// Journal one event, stamped on this sink's clock.
    fn push_event(&self, kind: EventKind) {
        match &self.journal {
            Journal::Own(log) => log.push(|| LedgerEvent {
                t_us: self.epoch.elapsed().as_micros() as u64,
                kind,
            }),
            Journal::Parent(Some(parent)) => parent.push_event(kind),
            Journal::Parent(None) => {}
        }
    }

    /// Events journalled so far, in time order (empty for a race row's
    /// sink, whose events are its parent's).
    fn events(&self) -> Vec<LedgerEvent> {
        match &self.journal {
            Journal::Own(log) => log.items(),
            Journal::Parent(_) => Vec::new(),
        }
    }

    /// Events discarded because the journal was full.
    fn events_dropped(&self) -> u64 {
        match &self.journal {
            Journal::Own(log) => log.dropped(),
            Journal::Parent(_) => 0,
        }
    }

    /// Record one route call's latency.
    #[inline]
    pub fn record_route_us(&self, us: u64) {
        self.route_lat.record(us);
    }

    /// Span-duration histogram of `phase` (µs).
    pub fn phase_histogram(&self, phase: Phase) -> Histogram {
        self.phase_lat[phase as usize].snapshot()
    }

    /// Per-route-call latency histogram (µs).
    pub fn route_histogram(&self) -> Histogram {
        self.route_lat.snapshot()
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            ii_attempts: self.get(Counter::IiAttempts),
            placements_tried: self.get(Counter::PlacementsTried),
            backtracks: self.get(Counter::Backtracks),
            routing_calls: self.get(Counter::RoutingCalls),
            routing_failures: self.get(Counter::RoutingFailures),
            moves_proposed: self.get(Counter::MovesProposed),
            moves_accepted: self.get(Counter::MovesAccepted),
            nodes_expanded: self.get(Counter::NodesExpanded),
            nodes_pruned: self.get(Counter::NodesPruned),
            solver_decisions: self.get(Counter::SolverDecisions),
            solver_propagations: self.get(Counter::SolverPropagations),
            solver_conflicts: self.get(Counter::SolverConflicts),
            solver_restarts: self.get(Counter::SolverRestarts),
            solver_assumption_solves: self.get(Counter::SolverAssumptionSolves),
            solver_learnt_kept: self.get(Counter::SolverLearntKept),
            solver_learnt_gcd: self.get(Counter::SolverLearntGcd),
            solver_lp_pivots: self.get(Counter::SolverLpPivots),
            cancellations: self.get(Counter::Cancellations),
            incumbents: self.get(Counter::Incumbents),
            cegar_rounds: self.get(Counter::CegarRounds),
            cegar_gave_up: self.get(Counter::CegarGaveUp),
        }
    }
}

impl std::fmt::Debug for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchStats")
            .field("counters", &self.snapshot())
            .field("spans", &self.span_count())
            .finish()
    }
}

/// A plain-data copy of every counter, for reports and serialisation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct StatsSnapshot {
    pub ii_attempts: u64,
    pub placements_tried: u64,
    pub backtracks: u64,
    pub routing_calls: u64,
    pub routing_failures: u64,
    pub moves_proposed: u64,
    pub moves_accepted: u64,
    pub nodes_expanded: u64,
    pub nodes_pruned: u64,
    pub solver_decisions: u64,
    pub solver_propagations: u64,
    pub solver_conflicts: u64,
    pub solver_restarts: u64,
    pub solver_assumption_solves: u64,
    pub solver_learnt_kept: u64,
    pub solver_learnt_gcd: u64,
    pub solver_lp_pivots: u64,
    pub cancellations: u64,
    pub incumbents: u64,
    pub cegar_rounds: u64,
    pub cegar_gave_up: u64,
}

impl StatsSnapshot {
    pub fn get(&self, c: Counter) -> u64 {
        match c {
            Counter::IiAttempts => self.ii_attempts,
            Counter::PlacementsTried => self.placements_tried,
            Counter::Backtracks => self.backtracks,
            Counter::RoutingCalls => self.routing_calls,
            Counter::RoutingFailures => self.routing_failures,
            Counter::MovesProposed => self.moves_proposed,
            Counter::MovesAccepted => self.moves_accepted,
            Counter::NodesExpanded => self.nodes_expanded,
            Counter::NodesPruned => self.nodes_pruned,
            Counter::SolverDecisions => self.solver_decisions,
            Counter::SolverPropagations => self.solver_propagations,
            Counter::SolverConflicts => self.solver_conflicts,
            Counter::SolverRestarts => self.solver_restarts,
            Counter::SolverAssumptionSolves => self.solver_assumption_solves,
            Counter::SolverLearntKept => self.solver_learnt_kept,
            Counter::SolverLearntGcd => self.solver_learnt_gcd,
            Counter::SolverLpPivots => self.solver_lp_pivots,
            Counter::Cancellations => self.cancellations,
            Counter::Incumbents => self.incumbents,
            Counter::CegarRounds => self.cegar_rounds,
            Counter::CegarGaveUp => self.cegar_gave_up,
        }
    }

    pub fn is_empty(&self) -> bool {
        Counter::ALL.iter().all(|&c| self.get(c) == 0)
    }
}

/// The handle mappers hold: either connected to a shared
/// [`SearchStats`] sink or disabled (the default). Cloning is a
/// refcount bump; disabled operations are a null check.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<SearchStats>>);

impl Telemetry {
    /// A disabled handle (every operation is a no-op).
    pub fn off() -> Self {
        Telemetry(None)
    }

    /// A fresh enabled sink.
    pub fn enabled() -> Self {
        Telemetry(Some(Arc::new(SearchStats::new())))
    }

    /// Attach to an existing sink.
    pub fn with_sink(sink: Arc<SearchStats>) -> Self {
        Telemetry(Some(sink))
    }

    /// A fresh enabled sink for one race row: counters, spans and
    /// histograms of its own, on this handle's clock, with every event
    /// journalled on this handle (dropped when it is off).
    pub fn child(&self) -> Self {
        let epoch = self.0.as_ref().map_or_else(Instant::now, |s| s.epoch);
        Telemetry(Some(Arc::new(SearchStats::with_journal(
            epoch,
            Journal::Parent(self.0.clone()),
        ))))
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    pub fn sink(&self) -> Option<&Arc<SearchStats>> {
        self.0.as_ref()
    }

    #[inline]
    pub fn bump(&self, c: Counter) {
        if let Some(s) = &self.0 {
            s.add(c, 1);
        }
    }

    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(s) = &self.0 {
            if n > 0 {
                s.add(c, n);
            }
        }
    }

    /// Start timing `phase`; the span is recorded when the guard drops.
    #[inline]
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        self.span_inner(phase, None)
    }

    /// Start timing one II attempt of the mapping phase.
    #[inline]
    pub fn span_ii(&self, phase: Phase, ii: u32) -> SpanGuard<'_> {
        self.span_inner(phase, Some(ii))
    }

    #[inline]
    fn span_inner(&self, phase: Phase, ii: Option<u32>) -> SpanGuard<'_> {
        SpanGuard {
            live: self
                .0
                .as_deref()
                .map(|sink| (sink, phase, ii, Instant::now())),
        }
    }

    /// Counter snapshot, or `None` when disabled.
    pub fn snapshot(&self) -> Option<StatsSnapshot> {
        self.0.as_ref().map(|s| s.snapshot())
    }

    /// Recorded spans (empty when disabled).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.0.as_ref().map(|s| s.spans()).unwrap_or_default()
    }

    /// Spans discarded once the log hit its capacity (zero when
    /// disabled). Trace consumers use this to detect truncation.
    pub fn spans_dropped(&self) -> u64 {
        self.0.as_ref().map(|s| s.spans_dropped()).unwrap_or(0)
    }

    /// Record one route call's latency (no-op when disabled).
    #[inline]
    pub fn record_route_us(&self, us: u64) {
        if let Some(s) = &self.0 {
            s.record_route_us(us);
        }
    }

    /// Span-duration histogram of `phase`, or `None` when disabled.
    pub fn phase_histogram(&self, phase: Phase) -> Option<Histogram> {
        self.0.as_ref().map(|s| s.phase_histogram(phase))
    }

    /// Per-route-call latency histogram, or `None` when disabled.
    pub fn route_histogram(&self) -> Option<Histogram> {
        self.0.as_ref().map(|s| s.route_histogram())
    }

    /// Journal an event built on demand (payload strings are only
    /// allocated when a sink is attached).
    #[inline]
    fn event(&self, kind: impl FnOnce() -> EventKind) {
        if let Some(s) = &self.0 {
            s.push_event(kind());
        }
    }

    /// An improving solution of `mapper` at `ii`: bumps
    /// [`Counter::Incumbents`] and journals the event.
    #[inline]
    pub fn incumbent(&self, mapper: &str, ii: u32, cost: f64) {
        self.bump(Counter::Incumbents);
        self.event(|| EventKind::Incumbent {
            mapper: mapper.to_string(),
            ii,
            cost,
        });
    }

    /// One candidate II probed by `mapper`: bumps
    /// [`Counter::IiAttempts`] and journals the event.
    #[inline]
    pub fn ii_attempt(&self, mapper: &str, ii: u32) {
        self.bump(Counter::IiAttempts);
        self.event(|| EventKind::IiAttempt {
            mapper: mapper.to_string(),
            ii,
        });
    }

    #[inline]
    pub fn race_start(&self, mapper: &str) {
        self.event(|| EventKind::RaceStart {
            mapper: mapper.to_string(),
        });
    }

    #[inline]
    pub fn race_win(&self, mapper: &str, ii: u32) {
        self.event(|| EventKind::RaceWin {
            mapper: mapper.to_string(),
            ii,
        });
    }

    #[inline]
    pub fn race_loss(&self, mapper: &str, reason: &str) {
        self.event(|| EventKind::RaceLoss {
            mapper: mapper.to_string(),
            reason: reason.to_string(),
        });
    }

    #[inline]
    pub fn budget_exhausted(&self, mapper: &str) {
        self.event(|| EventKind::BudgetExhausted {
            mapper: mapper.to_string(),
        });
    }

    #[inline]
    pub fn request(&self, mapper: &str, trace: &str) {
        self.event(|| EventKind::Request {
            mapper: mapper.to_string(),
            trace: trace.to_string(),
        });
    }

    /// Journalled events in time order (empty when disabled).
    pub fn events(&self) -> Vec<LedgerEvent> {
        self.0.as_ref().map(|s| s.events()).unwrap_or_default()
    }

    /// Events discarded on overflow (zero when disabled).
    pub fn events_dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |s| s.events_dropped())
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Telemetry(off)"),
            Some(s) => write!(f, "Telemetry(on, {} spans)", s.span_count()),
        }
    }
}

/// RAII span timer returned by [`Telemetry::span`]. Disabled guards
/// hold nothing and drop for free.
pub struct SpanGuard<'a> {
    live: Option<(&'a SearchStats, Phase, Option<u32>, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((sink, phase, ii, started)) = self.live.take() {
            sink.record_span(phase, ii, started);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::enabled();
        t.bump(Counter::Backtracks);
        t.add(Counter::Backtracks, 4);
        t.add(Counter::MovesProposed, 10);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.backtracks, 5);
        assert_eq!(snap.moves_proposed, 10);
        assert_eq!(snap.get(Counter::MovesProposed), 10);
        assert!(!snap.is_empty());
    }

    #[test]
    fn spans_record_phase_and_ii() {
        let t = Telemetry::enabled();
        {
            let _g = t.span(Phase::Parse);
        }
        {
            let _g = t.span_ii(Phase::Map, 3);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, Phase::Parse);
        assert_eq!(spans[0].ii, None);
        assert_eq!(spans[1].phase, Phase::Map);
        assert_eq!(spans[1].ii, Some(3));
        assert!(spans[1].start_us >= spans[0].start_us);
    }

    #[test]
    fn disabled_is_inert() {
        let t = Telemetry::off();
        assert!(!t.is_enabled());
        t.bump(Counter::IiAttempts);
        t.add(Counter::RoutingCalls, 100);
        {
            let _g = t.span(Phase::Route);
        }
        assert!(t.snapshot().is_none());
        assert!(t.spans().is_empty());
        assert!(t.sink().is_none());
    }

    #[test]
    fn shared_sink_sums_across_clones() {
        let t = Telemetry::enabled();
        let (a, b) = (t.clone(), t.clone());
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..1000 {
                    a.bump(Counter::RoutingCalls);
                }
            });
            s.spawn(|| {
                for _ in 0..1000 {
                    b.bump(Counter::RoutingCalls);
                }
            });
        });
        assert_eq!(t.snapshot().unwrap().routing_calls, 2000);
    }

    #[test]
    fn labels_are_snake_case_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            let l = c.label();
            assert!(l.chars().all(|ch| ch.is_ascii_lowercase() || ch == '_'));
            assert!(seen.insert(l));
        }
        for p in Phase::ALL {
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        for v in [0u64, 1, 1, 3, 8, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        // Estimates are bucket upper bounds and never undershoot the
        // exact order statistic.
        assert_eq!(h.p50(), 3); // exact rank-4 sample is 3, bucket [2,3]
        assert!(h.p90() >= 100);
        assert!(h.p99() >= 1000);
        assert_eq!(h.percentile(0.0), 0); // rank clamps to 1 → value 0
                                          // Bucket bound round-trips through bucket_of.
        for b in 0..HISTOGRAM_BUCKETS {
            assert_eq!(Histogram::bucket_of(Histogram::bucket_bound(b)), b);
        }
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_merge_sums_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 5, 9] {
            a.record(v);
        }
        for v in [2u64, 5, 1 << 40] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 6);
        let mut all = Histogram::new();
        for v in [1u64, 5, 9, 2, 5, 1 << 40] {
            all.record(v);
        }
        assert_eq!(ab, all);
    }

    #[test]
    fn phase_and_route_histograms_record() {
        let t = Telemetry::enabled();
        {
            let _g = t.span(Phase::Map);
        }
        {
            let _g = t.span_ii(Phase::Map, 2);
        }
        t.record_route_us(7);
        t.record_route_us(900);
        assert_eq!(t.phase_histogram(Phase::Map).unwrap().count(), 2);
        assert_eq!(t.phase_histogram(Phase::Parse).unwrap().count(), 0);
        let r = t.route_histogram().unwrap();
        assert_eq!(r.count(), 2);
        assert!(r.p99() >= 900);
        // Disabled handles report nothing.
        let off = Telemetry::off();
        off.record_route_us(1);
        assert!(off.route_histogram().is_none());
        assert!(off.phase_histogram(Phase::Map).is_none());
    }

    #[test]
    fn snapshot_serialises_every_counter_by_label() {
        let t = Telemetry::enabled();
        t.add(Counter::SolverDecisions, 7);
        let snap = t.snapshot().unwrap();
        let json = serde_json::to_string(&snap).unwrap();
        let v = serde_json::from_str(&json).unwrap();
        for c in Counter::ALL {
            assert_eq!(
                v[c.label()].as_u64(),
                Some(snap.get(c)),
                "field `{}` missing or wrong in {json}",
                c.label()
            );
        }
    }
}
