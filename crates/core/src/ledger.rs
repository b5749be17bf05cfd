//! The run ledger's vocabulary: the search events a run journals —
//! *when* each mapper found each improving solution, who was winning a
//! race at t=50ms, which II probes ran.
//!
//! Counters answer "how much effort"; events answer "what happened
//! when". SAT-MapIt and the connectivity-ILP mapper both report
//! per-instance solve trajectories as first-class results; the journal
//! is the substrate for those trajectories here. It lives in the one
//! per-run sink, [`crate::telemetry::Telemetry`], stamped on the same
//! clock as its spans and capped at [`MAX_EVENTS`]. Events are written
//! by the engine's [`crate::engine::race`] /
//! [`crate::engine::parallel_ii`] and by the improving-move paths of
//! the meta-heuristic (SA/GA/QEA) and exact (B&B, SAT/CP/ILP incumbent
//! callbacks) mappers, and leave the process three ways: as the
//! `events` of the job's [`crate::request::MapOutcome`] (the one result
//! record — wire reply, spill file and `table1 --report` artifact
//! alike), as Chrome `trace_event` JSON (`cgra-map --chrome-trace`),
//! and as the `--trace` JSONL stream. A same-seed run replays the same
//! event sequence, timestamps aside (tested per registry mapper).

use serde::{DeError, Deserialize, Reader, Serialize};

/// What happened. Every variant carries the emitting mapper's name so
/// multi-mapper journals (races, portfolios) stay attributable.
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

/// One journal entry: a kind plus microseconds since the sink was
/// created.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent {
    /// Microseconds since the sink's epoch (its spans' clock).
    pub t_us: u64,
    pub kind: EventKind,
}

/// Flat JSON rendering (`{"t_us":…,"event":…,"mapper":…,…}`) used by
/// the JSONL trace and `MapOutcome::events`. Flat rather than
/// enum-tagged so stream consumers dispatch on one `event` field —
/// which is why both directions are written by hand.
impl Serialize for LedgerEvent {
    fn write_json(&self, out: &mut String) {
        serde::write_object(out, |pair| {
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
        });
    }
}

impl Deserialize for LedgerEvent {
    // The keys come in any order: one pass over the object keeps where
    // the first of each starts, then the fields are read in the order
    // their errors rank — `mapper`, `event`, the payload, `t_us`.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let [mapper, event, ii, cost, reason, trace, t_us] =
            r.spans(["mapper", "event", "ii", "cost", "reason", "trace", "t_us"])?;
        let mapper: String = serde::read_at(mapper, "mapper")?;
        let event: String = serde::read_at(event, "event")?;
        let kind = match event.as_str() {
            "incumbent" => EventKind::Incumbent {
                mapper,
                ii: serde::read_at(ii, "ii")?,
                cost: serde::read_at(cost, "cost")?,
            },
            "race_start" => EventKind::RaceStart { mapper },
            "race_win" => EventKind::RaceWin {
                mapper,
                ii: serde::read_at(ii, "ii")?,
            },
            "race_loss" => EventKind::RaceLoss {
                mapper,
                reason: serde::read_at(reason, "reason")?,
            },
            "budget_exhausted" => EventKind::BudgetExhausted { mapper },
            "ii_attempt" => EventKind::IiAttempt {
                mapper,
                ii: serde::read_at(ii, "ii")?,
            },
            "request" => EventKind::Request {
                mapper,
                trace: serde::read_at(trace, "trace")?,
            },
            other => return Err(DeError::new(format!("unknown event `{other}`")).at("event")),
        };
        Ok(LedgerEvent {
            t_us: serde::read_at(t_us, "t_us")?,
            kind,
        })
    }
}

/// Journal capacity: incumbents and II probes are rare (tens to
/// hundreds per run); this bounds a pathological emitter. Appends past
/// it are counted in `events_dropped`, not stored.
pub const MAX_EVENTS: usize = 8_192;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    #[test]
    fn events_record_in_order() {
        let t = Telemetry::enabled();
        t.race_start("sa");
        t.ii_attempt("sa", 2);
        t.incumbent("sa", 2, 14.0);
        t.race_win("sa", 2);
        let events = t.events();
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
        assert_eq!(t.events_dropped(), 0);
        // One call, both halves: the counter moves with its event.
        let snap = t.snapshot().unwrap();
        assert_eq!((snap.ii_attempts, snap.incumbents), (1, 1));
    }

    #[test]
    fn disabled_is_inert() {
        let t = Telemetry::off();
        assert!(!t.is_enabled());
        t.incumbent("sa", 1, 0.0);
        t.race_start("sa");
        assert!(t.events().is_empty());
        assert_eq!(t.events_dropped(), 0);
        assert!(t.sink().is_none());
    }

    #[test]
    fn overflow_counts_instead_of_growing() {
        let t = Telemetry::enabled();
        for ii in 0..MAX_EVENTS as u32 + 6 {
            t.ii_attempt("bnb", ii);
        }
        assert_eq!(t.events().len(), MAX_EVENTS);
        assert_eq!(t.events_dropped(), 6);
        // The counter is not capped: it saw every probe.
        assert_eq!(t.snapshot().unwrap().ii_attempts, MAX_EVENTS as u64 + 6);
    }

    #[test]
    fn concurrent_appends_lose_nothing() {
        let t = Telemetry::enabled();
        std::thread::scope(|s| {
            for k in 0..4u32 {
                let h = t.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        h.ii_attempt("sa", k * 1000 + i);
                    }
                });
            }
        });
        let events = t.events();
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
            // Prints as 22 digits, more than any integer type holds.
            EventKind::Incumbent {
                mapper: "ilp".into(),
                ii: 1,
                cost: 1e21,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let e = LedgerEvent {
                t_us: i as u64 * 10,
                kind,
            };
            let back = LedgerEvent::from_value(&e.to_value()).expect("parses");
            assert_eq!(back, e);
            let text = serde_json::to_string(&e).unwrap();
            assert_eq!(serde_json::from_str_as::<LedgerEvent>(&text), Ok(e));
        }
    }

    #[test]
    fn unknown_events_are_rejected() {
        let text = r#"{"t_us":1,"event":"warp_drive","mapper":"sa"}"#;
        assert_eq!(
            serde_json::from_str_as::<LedgerEvent>(text)
                .unwrap_err()
                .to_string(),
            "event: unknown event `warp_drive`"
        );
        assert!(LedgerEvent::from_value(&serde::Value::Null).is_err());
    }
}
