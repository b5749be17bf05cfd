//! The run ledger: a bounded, lock-free-append journal of search
//! events — *when* each mapper found each improving solution, who was
//! winning a race at t=50ms, which II probes ran.
//!
//! PR 1's counters answer "how much effort"; the ledger answers "what
//! happened when". SAT-MapIt and the connectivity-ILP mapper both
//! report per-instance solve trajectories as first-class results; the
//! ledger is the substrate for those trajectories here. Events are
//! written by the engine's [`crate::engine::race`] /
//! [`crate::engine::parallel_ii`] and by the improving-move paths of
//! the meta-heuristic (SA/GA/QEA) and exact (B&B, SAT/CP/ILP incumbent
//! callbacks) mappers, and leave the process three ways: as the
//! `events` of the job's [`crate::request::MapOutcome`] (the one result
//! record — wire reply, spill file and `table1 --report` artifact
//! alike), as Chrome `trace_event` JSON (`cgra-map --chrome-trace`),
//! and as the `--trace` JSONL stream.
//!
//! Design constraints mirror [`crate::telemetry`]:
//!
//! 1. **Disabled must be free.** [`Ledger`] wraps
//!    `Option<Arc<RunLedger>>`; every emit on a disabled handle is a
//!    null check, and event payloads (strings) are only built when a
//!    sink is attached.
//! 2. **Lock-free append.** A fixed slot array plus an atomic cursor:
//!    writers claim a slot with one `fetch_add` and publish through a
//!    `OnceLock`, so racing mappers never contend on a mutex in their
//!    improving-move paths. Appends past capacity are counted, not
//!    stored.
//! 3. **Deterministic modulo time.** [`RunLedger::events`] returns
//!    events stably sorted by `t_us`; slot order is claim order, which
//!    is causally consistent, so a same-seed run replays the same
//!    event sequence (timestamps aside) — tested per registry mapper.

use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What happened. Every variant carries the emitting mapper's name so
/// multi-mapper ledgers (races, portfolios) stay attributable.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The mapper found an improving solution: a routable binding, a
    /// solver model, or a better objective value. `cost` is the
    /// mapper's own objective (binding cost, ILP objective, CEGAR
    /// round) — comparable within one mapper, not across mappers.
    Incumbent { mapper: String, ii: u32, cost: f64 },
    /// The mapper entered a portfolio race.
    RaceStart { mapper: String },
    /// The mapper won the race with a validated mapping at `ii`.
    RaceWin { mapper: String, ii: u32 },
    /// The mapper lost the race; `reason` is the typed error kind
    /// (`cancelled`, `timeout`, `infeasible`, `unsupported`).
    RaceLoss { mapper: String, reason: String },
    /// The run stopped because its budget ran out before any mapping
    /// was found.
    BudgetExhausted { mapper: String },
    /// One candidate II was probed.
    IiAttempt { mapper: String, ii: u32 },
    /// Service ingress: the run belongs to a traced request. Emitted
    /// once at the start of an observed `execute` so every downstream
    /// event stream (JSONL trace, `MapOutcome::events`, Chrome trace)
    /// can be joined to the daemon's access log and metrics by `trace`.
    Request { mapper: String, trace: String },
}

impl EventKind {
    /// Snake-case discriminant used in traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Incumbent { .. } => "incumbent",
            EventKind::RaceStart { .. } => "race_start",
            EventKind::RaceWin { .. } => "race_win",
            EventKind::RaceLoss { .. } => "race_loss",
            EventKind::BudgetExhausted { .. } => "budget_exhausted",
            EventKind::IiAttempt { .. } => "ii_attempt",
            EventKind::Request { .. } => "request",
        }
    }

    /// The emitting mapper.
    pub fn mapper(&self) -> &str {
        match self {
            EventKind::Incumbent { mapper, .. }
            | EventKind::RaceStart { mapper }
            | EventKind::RaceWin { mapper, .. }
            | EventKind::RaceLoss { mapper, .. }
            | EventKind::BudgetExhausted { mapper }
            | EventKind::IiAttempt { mapper, .. }
            | EventKind::Request { mapper, .. } => mapper,
        }
    }

    /// The II the event refers to, when it has one.
    pub fn ii(&self) -> Option<u32> {
        match self {
            EventKind::Incumbent { ii, .. }
            | EventKind::RaceWin { ii, .. }
            | EventKind::IiAttempt { ii, .. } => Some(*ii),
            _ => None,
        }
    }
}

/// One journal entry: a kind plus microseconds since the ledger was
/// created.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent {
    /// Microseconds since the ledger epoch.
    pub t_us: u64,
    pub kind: EventKind,
}

/// Flat JSON rendering (`{"t_us":…,"event":…,"mapper":…,…}`) used by
/// the JSONL trace and `MapOutcome::events`. Flat rather than
/// enum-tagged so stream consumers dispatch on one `event` field —
/// which is why both directions are written by hand.
impl Serialize for LedgerEvent {
    fn to_value(&self) -> Value {
        serde::object_value(|pair| self.pairs(pair))
    }

    fn write_json(&self, out: &mut String) {
        serde::write_object(out, |pair| self.pairs(pair));
    }
}

impl LedgerEvent {
    fn pairs(&self, pair: &mut serde::PairSink) {
        pair("t_us", &self.t_us);
        pair("event", &self.kind.label());
        pair("mapper", &self.kind.mapper());
        match &self.kind {
            EventKind::Incumbent { ii, cost, .. } => {
                pair("ii", ii);
                pair("cost", cost);
            }
            EventKind::RaceWin { ii, .. } | EventKind::IiAttempt { ii, .. } => pair("ii", ii),
            EventKind::RaceLoss { reason, .. } => pair("reason", reason),
            EventKind::Request { trace, .. } => pair("trace", trace),
            EventKind::RaceStart { .. } | EventKind::BudgetExhausted { .. } => {}
        }
    }
}

impl Deserialize for LedgerEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let mapper: String = serde::get(v, "mapper")?;
        let event: String = serde::get(v, "event")?;
        let kind = match event.as_str() {
            "incumbent" => EventKind::Incumbent {
                mapper,
                ii: serde::get(v, "ii")?,
                cost: serde::get(v, "cost")?,
            },
            "race_start" => EventKind::RaceStart { mapper },
            "race_win" => EventKind::RaceWin {
                mapper,
                ii: serde::get(v, "ii")?,
            },
            "race_loss" => EventKind::RaceLoss {
                mapper,
                reason: serde::get(v, "reason")?,
            },
            "budget_exhausted" => EventKind::BudgetExhausted { mapper },
            "ii_attempt" => EventKind::IiAttempt {
                mapper,
                ii: serde::get(v, "ii")?,
            },
            "request" => EventKind::Request {
                mapper,
                trace: serde::get(v, "trace")?,
            },
            other => return Err(DeError::new(format!("unknown event `{other}`")).at("event")),
        };
        Ok(LedgerEvent {
            t_us: serde::get(v, "t_us")?,
            kind,
        })
    }
}

/// Journal capacity: incumbents and II probes are rare (tens to
/// hundreds per run); this bounds a pathological emitter without
/// growing allocations on the append path.
pub const MAX_EVENTS: usize = 8_192;

/// The shared journal: a fixed slot array, an atomic claim cursor, and
/// an overflow counter.
pub struct RunLedger {
    slots: Box<[OnceLock<LedgerEvent>]>,
    next: AtomicUsize,
    dropped: AtomicU64,
    epoch: Instant,
}

impl Default for RunLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl RunLedger {
    pub fn new() -> Self {
        Self::with_capacity(MAX_EVENTS)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        RunLedger {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Append one event. Lock-free: one `fetch_add` claims a slot, a
    /// `OnceLock::set` publishes it. Past capacity the event is counted
    /// in [`RunLedger::dropped`] and discarded.
    pub fn push(&self, kind: EventKind) {
        let t_us = self.epoch.elapsed().as_micros() as u64;
        let i = self.next.fetch_add(1, Ordering::AcqRel);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let _ = self.slots[i].set(LedgerEvent { t_us, kind });
    }

    /// Events recorded so far, stably sorted by `t_us`. Stability keeps
    /// equal-timestamp events in claim order, which is causally
    /// consistent (a `RaceWin` is always claimed after its
    /// `RaceStart`), so ordering properties hold by construction.
    pub fn events(&self) -> Vec<LedgerEvent> {
        let claimed = self.next.load(Ordering::Acquire).min(self.slots.len());
        let mut out: Vec<LedgerEvent> = self.slots[..claimed]
            .iter()
            .filter_map(|s| s.get().cloned())
            .collect();
        out.sort_by_key(|e| e.t_us);
        out
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Acquire).min(self.slots.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the journal was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for RunLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunLedger")
            .field("events", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// The handle mappers and the engine hold: either connected to a
/// shared [`RunLedger`] or disabled (the default). Cloning is a
/// refcount bump; disabled emits are a null check and build no
/// payload.
#[derive(Clone, Default)]
pub struct Ledger(Option<Arc<RunLedger>>);

impl Ledger {
    /// A disabled handle (every emit is a no-op).
    pub fn off() -> Self {
        Ledger(None)
    }

    /// A fresh enabled journal.
    pub fn enabled() -> Self {
        Ledger(Some(Arc::new(RunLedger::new())))
    }

    /// Attach to an existing journal.
    pub fn with_sink(sink: Arc<RunLedger>) -> Self {
        Ledger(Some(sink))
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    pub fn sink(&self) -> Option<&Arc<RunLedger>> {
        self.0.as_ref()
    }

    /// Append an event built on demand (payload strings are only
    /// allocated when a sink is attached).
    #[inline]
    pub fn emit(&self, kind: impl FnOnce() -> EventKind) {
        if let Some(l) = &self.0 {
            l.push(kind());
        }
    }

    #[inline]
    pub fn incumbent(&self, mapper: &str, ii: u32, cost: f64) {
        self.emit(|| EventKind::Incumbent {
            mapper: mapper.to_string(),
            ii,
            cost,
        });
    }

    #[inline]
    pub fn race_start(&self, mapper: &str) {
        self.emit(|| EventKind::RaceStart {
            mapper: mapper.to_string(),
        });
    }

    #[inline]
    pub fn race_win(&self, mapper: &str, ii: u32) {
        self.emit(|| EventKind::RaceWin {
            mapper: mapper.to_string(),
            ii,
        });
    }

    #[inline]
    pub fn race_loss(&self, mapper: &str, reason: &str) {
        self.emit(|| EventKind::RaceLoss {
            mapper: mapper.to_string(),
            reason: reason.to_string(),
        });
    }

    #[inline]
    pub fn budget_exhausted(&self, mapper: &str) {
        self.emit(|| EventKind::BudgetExhausted {
            mapper: mapper.to_string(),
        });
    }

    #[inline]
    pub fn ii_attempt(&self, mapper: &str, ii: u32) {
        self.emit(|| EventKind::IiAttempt {
            mapper: mapper.to_string(),
            ii,
        });
    }

    #[inline]
    pub fn request(&self, mapper: &str, trace: &str) {
        self.emit(|| EventKind::Request {
            mapper: mapper.to_string(),
            trace: trace.to_string(),
        });
    }

    /// Recorded events sorted by `t_us` (empty when disabled).
    pub fn events(&self) -> Vec<LedgerEvent> {
        self.0.as_ref().map(|l| l.events()).unwrap_or_default()
    }

    /// Events discarded on overflow (zero when disabled).
    pub fn events_dropped(&self) -> u64 {
        self.0.as_ref().map(|l| l.dropped()).unwrap_or(0)
    }
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Ledger(off)"),
            Some(l) => write!(f, "Ledger(on, {} events)", l.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_record_in_order() {
        let l = Ledger::enabled();
        l.race_start("sa");
        l.ii_attempt("sa", 2);
        l.incumbent("sa", 2, 14.0);
        l.race_win("sa", 2);
        let events = l.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind.label(), "race_start");
        assert_eq!(
            events[3].kind,
            EventKind::RaceWin {
                mapper: "sa".into(),
                ii: 2
            }
        );
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert_eq!(l.events_dropped(), 0);
    }

    #[test]
    fn disabled_is_inert() {
        let l = Ledger::off();
        assert!(!l.is_enabled());
        l.incumbent("sa", 1, 0.0);
        l.race_start("sa");
        assert!(l.events().is_empty());
        assert_eq!(l.events_dropped(), 0);
        assert!(l.sink().is_none());
    }

    #[test]
    fn overflow_counts_instead_of_growing() {
        let sink = Arc::new(RunLedger::with_capacity(4));
        let l = Ledger::with_sink(sink.clone());
        for ii in 0..10 {
            l.ii_attempt("bnb", ii);
        }
        assert_eq!(l.events().len(), 4);
        assert_eq!(l.events_dropped(), 6);
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn concurrent_appends_lose_nothing() {
        let l = Ledger::enabled();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let h = l.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        h.ii_attempt("sa", t * 1000 + i);
                    }
                });
            }
        });
        let events = l.events();
        assert_eq!(events.len(), 2000);
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn json_round_trips_every_kind() {
        let kinds = vec![
            EventKind::Incumbent {
                mapper: "ilp".into(),
                ii: 3,
                cost: 42.5,
            },
            EventKind::RaceStart {
                mapper: "sa".into(),
            },
            EventKind::RaceWin {
                mapper: "sa".into(),
                ii: 2,
            },
            EventKind::RaceLoss {
                mapper: "ga".into(),
                reason: "cancelled".into(),
            },
            EventKind::BudgetExhausted {
                mapper: "cp".into(),
            },
            EventKind::IiAttempt {
                mapper: "bnb".into(),
                ii: 7,
            },
            EventKind::Request {
                mapper: "modulo-list".into(),
                trace: "00c0ffee00c0ffee".into(),
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let e = LedgerEvent {
                t_us: i as u64 * 10,
                kind,
            };
            let back = LedgerEvent::from_value(&e.to_value()).expect("parses");
            assert_eq!(back, e);
        }
    }

    #[test]
    fn unknown_events_are_rejected() {
        let v = Value::Object(vec![
            ("t_us".into(), Value::UInt(1)),
            ("event".into(), Value::Str("warp_drive".into())),
            ("mapper".into(), Value::Str("sa".into())),
        ]);
        assert_eq!(
            LedgerEvent::from_value(&v).unwrap_err().to_string(),
            "event: unknown event `warp_drive`"
        );
        assert!(LedgerEvent::from_value(&Value::Null).is_err());
    }
}
