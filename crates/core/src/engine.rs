//! The map engine: shared budgets, cooperative cancellation, and
//! racing execution modes.
//!
//! Every mapper used to poll its own private `Instant` deadline, which
//! made two things impossible: running the whole Table I zoo against
//! *one* wall-clock budget, and stopping a losing search once a rival
//! had already won. This module centralises both:
//!
//! * [`Budget`] — a deadline plus a shared cancel flag, threaded
//!   through [`MapConfig`](crate::MapConfig) into every mapper and
//!   (via [`Budget::interrupt`]) into the solver engines, with a
//!   stride-amortised [`Budget::expired`] so the hot scheduling loops
//!   pay one relaxed atomic load per poll;
//! * [`race`] — SAT-MapIt-style portfolio racing: all jobs for one
//!   kernel run on the rayon pool under a shared budget, the first
//!   validated mapping (at the target II, if one is set) cancels the
//!   rest, and losers record [`MapError::Cancelled`] with their
//!   telemetry snapshots intact;
//! * [`parallel_ii`] — Walker & Anderson-style per-II sweeps: candidate
//!   IIs race concurrently instead of bottom-up, and a success at II
//!   *k* cancels every job pinned to an II above *k*.

use crate::mapper::{MapConfig, MapError, Mapper};
use crate::mapping::Mapping;
use crate::request::MapOutcome;
use crate::telemetry::Counter;
use crate::validate::validate_with;
use cgra_arch::Fabric;
use cgra_ir::Dfg;
use cgra_solver::Interrupt;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shared cancellation flag. Cloning shares the flag; setting it is
/// one-way (there is no reset — budgets are per-run values).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Signal every budget sharing this token to stop.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    fn flag(&self) -> Arc<AtomicBool> {
        self.0.clone()
    }
}

/// A wall-clock deadline plus a shared cancel flag.
///
/// The hot-path poll is [`Budget::expired`]: the cancel flag is read on
/// every call (a relaxed load), the clock only on every
/// [`Interrupt::STRIDE`]-th call, counted per clone — so a `Budget`
/// can sit in a [`MapConfig`] shared across rayon workers without the
/// poll counter becoming a contended cache line ([`Clone`] resets it).
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    token: CancelToken,
    /// Amortisation counter for deadline polls (fresh per clone).
    probe: AtomicU32,
}

impl Clone for Budget {
    fn clone(&self) -> Self {
        Budget {
            deadline: self.deadline,
            token: self.token.clone(),
            probe: AtomicU32::new(0),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// No deadline; stops only if cancelled.
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            token: CancelToken::new(),
            probe: AtomicU32::new(0),
        }
    }

    /// Expires `limit` from now.
    pub fn for_duration(limit: Duration) -> Self {
        Budget {
            deadline: Some(Instant::now() + limit),
            token: CancelToken::new(),
            probe: AtomicU32::new(0),
        }
    }

    /// Expires at `deadline`.
    pub fn until(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            token: CancelToken::new(),
            probe: AtomicU32::new(0),
        }
    }

    /// A child budget sharing this budget's cancel token, with the
    /// deadline tightened to `min(self.deadline, now + limit)`. This is
    /// how a mapper's per-run `time_limit` composes with an externally
    /// imposed race deadline.
    pub fn child(&self, limit: Duration) -> Budget {
        let local = Instant::now() + limit;
        Budget {
            deadline: Some(self.deadline.map_or(local, |d| d.min(local))),
            token: self.token.clone(),
            probe: AtomicU32::new(0),
        }
    }

    /// A budget under this budget's deadline but with a *fresh* cancel
    /// token, for jobs that must be cancellable individually (per-II
    /// racing). The parent's token is not forwarded; the caller holds
    /// the fork handles and cancels them selectively.
    pub fn fork(&self, limit: Duration) -> Budget {
        let local = Instant::now() + limit;
        Budget {
            deadline: Some(self.deadline.map_or(local, |d| d.min(local))),
            token: CancelToken::new(),
            probe: AtomicU32::new(0),
        }
    }

    /// Amortised stop poll for hot loops: cancel flag every call, clock
    /// every [`Interrupt::STRIDE`]-th call.
    #[inline]
    pub fn expired(&self) -> bool {
        if self.token.is_cancelled() {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if self.probe.fetch_add(1, Ordering::Relaxed) % Interrupt::STRIDE == 0 {
                return Instant::now() > deadline;
            }
        }
        false
    }

    /// Precise stop poll (always reads the clock). For cold paths:
    /// between II attempts, CEGAR rounds, SA sweeps.
    pub fn expired_now(&self) -> bool {
        self.token.is_cancelled() || matches!(self.deadline, Some(d) if Instant::now() > d)
    }

    /// Cancel every budget sharing this token.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// The shared token (to cancel from elsewhere).
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline (`None` = unlimited, zero if past).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The error a mapper should return when this budget stopped it:
    /// [`MapError::Cancelled`] if the token fired (a rival won),
    /// [`MapError::Timeout`] if the clock ran out.
    pub fn error(&self) -> MapError {
        if self.token.is_cancelled() {
            MapError::Cancelled
        } else {
            MapError::Timeout
        }
    }

    /// The solver-side view of this budget: same deadline, same cancel
    /// flag, its own stride counter. Hand this to
    /// `SatSolver::interrupt`, `CpModel::set_interrupt`,
    /// `IlpModel::set_interrupt` so exact engines abort mid-search.
    pub fn interrupt(&self) -> Interrupt {
        Interrupt::new(self.deadline, Some(self.token.flag()))
    }
}

/// One mapper's result in a [`race`].
#[derive(Debug, Clone)]
pub struct RaceOutcome {
    /// Name of the winning mapper, if any job produced a validated
    /// mapping (at the target II, when one was set).
    pub winner: Option<String>,
    /// The winning mapping.
    pub mapping: Option<Mapping>,
    /// Per-job rows, in mapper order — losers carry
    /// [`MapError::Cancelled`] and their telemetry snapshots. No row
    /// keeps its mapping: the winner's is `mapping`, the rest drop.
    pub entries: Vec<MapOutcome>,
    /// Wall-clock for the whole race.
    pub wall_ms: f64,
}

/// Race every mapper on one kernel: jobs run on the rayon pool under a
/// shared budget derived from `cfg` (`cfg.budget` tightened by
/// `cfg.time_limit`); the first job whose mapping passes the exit gate
/// ([`MapOutcome::settle`]) — and meets `target_ii`, when given —
/// cancels the rest. Losing jobs record [`MapError::Cancelled`] with
/// telemetry snapshots intact, so the race still yields a full effort
/// profile.
pub fn race(
    mappers: &[Box<dyn Mapper>],
    dfg: &Dfg,
    fabric: &Fabric,
    cfg: &MapConfig,
    target_ii: Option<u32>,
) -> RaceOutcome {
    // The race token must be local (`fork`, not `child`): the winner
    // cancels it to stop its rivals, and with a shared token that
    // cancel would outlive the race and poison the caller's budget for
    // every later run under the same config. External cancellation of
    // `cfg.budget` is still honoured at job boundaries below.
    let shared = cfg.budget.fork(cfg.time_limit);
    // One topology table shared by every job and the winner validation.
    let topo = cfg.topo_for(fabric);
    let winner: Mutex<Option<(String, Mapping)>> = Mutex::new(None);
    let start = Instant::now();

    // RaceStart events are journalled sequentially before the jobs
    // spawn, so every later RaceWin/RaceLoss lands after its start.
    for mapper in mappers {
        cfg.telemetry.race_start(mapper.name());
    }

    let entries: Vec<MapOutcome> = mappers
        .par_iter()
        .map(|mapper| {
            let mut job_cfg = cfg.clone();
            // The row's own counters and spans; its mapper's events
            // land on the caller's race timeline.
            job_cfg.telemetry = cfg.telemetry.child();
            job_cfg.budget = shared.clone();
            job_cfg.topo = Some(Arc::clone(&topo));
            let mut row = MapOutcome {
                kernel: dfg.name.clone(),
                fabric: fabric.name.clone(),
                mapper: mapper.name().to_string(),
                ..MapOutcome::default()
            };
            let job_start = Instant::now();
            // A job that only gets scheduled after the race is decided
            // (or after the caller cancelled the whole race) skips the
            // map call entirely.
            let result = if shared.is_cancelled() || cfg.budget.is_cancelled() {
                Err(MapError::Cancelled)
            } else {
                mapper.map(dfg, fabric, &job_cfg)
            };
            row.compile_ms = job_start.elapsed().as_secs_f64() * 1e3;
            row.settle(result, dfg, fabric, &topo);
            // No row keeps its mapping: the first on-target one moves
            // into the race result, the rest drop.
            let mut won = false;
            if let (Some(m), Some(ii)) = (row.mapping.take(), row.ii()) {
                if target_ii.is_none_or(|t| ii <= t) {
                    let mut w = winner.lock().unwrap();
                    if w.is_none() {
                        *w = Some((row.mapper.clone(), m));
                        shared.cancel();
                        won = true;
                        cfg.telemetry.race_win(&row.mapper, ii);
                    }
                }
            }
            match &row.error {
                // Mapped successfully but another mapper (or a target
                // II miss) decided the race.
                None if !won => cfg.telemetry.race_loss(mapper.name(), "beaten"),
                Some(e) => {
                    if matches!(e, MapError::Cancelled) {
                        job_cfg.telemetry.bump(Counter::Cancellations);
                    }
                    cfg.telemetry.race_loss(mapper.name(), e.kind());
                }
                None => {}
            }
            row.classify();
            // A child sink journals nothing of its own, so the row's
            // `events` stay empty.
            row.harvest(&job_cfg.telemetry);
            row
        })
        .collect();

    let (winner, mapping) = match winner.into_inner().unwrap() {
        Some((name, m)) => (Some(name), Some(m)),
        None => (None, None),
    };
    if winner.is_none() && shared.expired_now() {
        cfg.telemetry.budget_exhausted("race");
    }
    RaceOutcome {
        winner,
        mapping,
        entries,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Race candidate IIs concurrently instead of bottom-up.
///
/// Each job pins the mapper to a single II (via `min_ii == max_ii`)
/// under its own forked budget; a validated mapping at II *k* cancels
/// every job pinned above *k*, and the smallest successful II wins.
/// Spatial mappers (always II = 1) fall through to a plain call.
pub fn parallel_ii(
    mapper: &dyn Mapper,
    dfg: &Dfg,
    fabric: &Fabric,
    cfg: &MapConfig,
) -> Result<Mapping, MapError> {
    if mapper.is_spatial() {
        return mapper.map(dfg, fabric, cfg);
    }
    let mii = crate::mappers::ModuloList::mii(dfg, fabric);
    let (lo, hi) = cfg.ii_range_for(dfg, mii, fabric)?;
    if lo == hi {
        return mapper.map(dfg, fabric, cfg);
    }

    let parent = cfg.budget.child(cfg.time_limit);
    // One topology table shared by every per-II job.
    let topo = cfg.topo_for(fabric);
    let iis: Vec<u32> = (lo..=hi).collect();
    // One individually cancellable budget per II job.
    let budgets: Vec<Budget> = iis.iter().map(|_| parent.fork(cfg.time_limit)).collect();
    let best: Mutex<Option<(u32, Mapping)>> = Mutex::new(None);
    let best_ii = AtomicU32::new(u32::MAX);

    let errors: Vec<Option<MapError>> = (0..iis.len())
        .into_par_iter()
        .map(|j| {
            let ii = iis[j];
            // Dominated before it started (a lower II already won, or
            // the whole sweep was cancelled from outside).
            if best_ii.load(Ordering::Acquire) <= ii || parent.is_cancelled() {
                cfg.telemetry.bump(Counter::Cancellations);
                return Some(MapError::Cancelled);
            }
            let mut job_cfg = cfg.clone();
            job_cfg.min_ii = ii;
            job_cfg.max_ii = ii;
            job_cfg.budget = budgets[j].clone();
            job_cfg.topo = Some(Arc::clone(&topo));
            // No `ii_attempt` here: the mapper itself journals it,
            // exactly as in the sequential bottom-up sweep, so
            // convergence views agree between the two paths.
            match mapper.map(dfg, fabric, &job_cfg) {
                Ok(m) => {
                    if validate_with(&m, dfg, fabric, &topo).is_err() {
                        return Some(MapError::infeasible(format!("INVALID OUTPUT at II {ii}")));
                    }
                    let mut b = best.lock().unwrap();
                    if b.as_ref().is_none_or(|(bi, _)| ii < *bi) {
                        *b = Some((ii, m));
                        best_ii.fetch_min(ii, Ordering::AcqRel);
                        cfg.telemetry.incumbent(mapper.name(), ii, ii as f64);
                        // Cancel every job chasing a worse II.
                        for (k, budget) in budgets.iter().enumerate() {
                            if iis[k] > ii {
                                budget.cancel();
                            }
                        }
                    }
                    None
                }
                Err(e) => {
                    // A job cancelled mid-search (a lower II validated
                    // while it was running) counts like one skipped
                    // before starting.
                    if matches!(e, MapError::Cancelled) {
                        cfg.telemetry.bump(Counter::Cancellations);
                    }
                    Some(e)
                }
            }
        })
        .collect();

    if let Some((_, m)) = best.into_inner().unwrap() {
        return Ok(m);
    }
    // No II succeeded: report a timeout/cancellation if any job hit
    // one, otherwise infeasibility over the whole range.
    if parent.is_cancelled() {
        return Err(MapError::Cancelled);
    }
    if errors.iter().any(|e| matches!(e, Some(MapError::Timeout))) || parent.expired_now() {
        cfg.telemetry.budget_exhausted(mapper.name());
        return Err(MapError::Timeout);
    }
    Err(MapError::infeasible(format!(
        "no II in {lo}..={hi} admits a schedule"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mappers::{ModuloList, SpatialGreedy};
    use crate::validate::validate;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    #[test]
    fn unlimited_budget_never_expires() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(!b.expired());
        }
        assert!(!b.expired_now());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn cancel_is_seen_by_every_clone() {
        let b = Budget::for_duration(Duration::from_secs(3600));
        let c = b.clone();
        let child = b.child(Duration::from_secs(3600));
        b.cancel();
        assert!(c.expired());
        assert!(child.expired());
        assert_eq!(child.error(), MapError::Cancelled);
    }

    #[test]
    fn fork_is_isolated_from_siblings() {
        let parent = Budget::for_duration(Duration::from_secs(3600));
        let a = parent.fork(Duration::from_secs(3600));
        let b = parent.fork(Duration::from_secs(3600));
        a.cancel();
        assert!(a.expired_now());
        assert!(!b.expired_now());
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn expired_deadline_reports_timeout() {
        let b = Budget::until(Instant::now() - Duration::from_millis(1));
        assert!(b.expired_now());
        assert_eq!(b.error(), MapError::Timeout);
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn interrupt_view_shares_the_token() {
        let b = Budget::unlimited();
        let i = b.interrupt();
        assert!(!i.should_stop_now());
        b.cancel();
        assert!(i.should_stop_now());
        assert!(i.is_cancelled());
    }

    #[test]
    fn race_produces_validated_winner() {
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(SpatialGreedy::default()),
            Box::new(ModuloList::default()),
        ];
        let dfg = kernels::dot_product();
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let out = race(&mappers, &dfg, &fabric, &MapConfig::fast(), None);
        assert!(out.winner.is_some());
        let m = out.mapping.as_ref().unwrap();
        validate(m, &dfg, &fabric).unwrap();
        assert_eq!(out.entries.len(), 2);
        assert!(out.entries.iter().all(|e| e.stats.is_some()));
        // No row keeps its mapping; a valid one, winner or beaten,
        // still counts as a success and reports its II.
        for e in &out.entries {
            assert!(e.mapping.is_none(), "{}", e.mapper);
            assert_eq!(e.succeeded(), e.error.is_none(), "{}", e.mapper);
            assert_eq!(e.ii().is_some(), e.error.is_none(), "{}", e.mapper);
        }
    }

    #[test]
    fn parallel_ii_journals_attempts_like_the_sequential_sweep() {
        use crate::ledger::EventKind;
        use crate::telemetry::Telemetry;
        let mapper = ModuloList::default();
        let dfg = kernels::fir(4);
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let attempts = |l: &Telemetry| -> Vec<(String, u32)> {
            l.events()
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::IiAttempt { mapper, ii } => Some((mapper.clone(), *ii)),
                    _ => None,
                })
                .collect()
        };
        let seq_tele = Telemetry::enabled();
        let seq_cfg = MapConfig {
            telemetry: seq_tele.clone(),
            ..MapConfig::fast()
        };
        let seq = mapper.map(&dfg, &fabric, &seq_cfg).unwrap();
        let par_tele = Telemetry::enabled();
        let par_cfg = MapConfig {
            telemetry: par_tele.clone(),
            ..MapConfig::fast()
        };
        let par = parallel_ii(&mapper, &dfg, &fabric, &par_cfg).unwrap();
        assert_eq!(par.ii, seq.ii);
        // The engine no longer double-emits on top of the mapper's own
        // journal: each (mapper, II) attempt appears exactly once, as
        // in the sequential sweep, so convergence views agree.
        let par_attempts = attempts(&par_tele);
        let mut dedup = par_attempts.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(par_attempts.len(), dedup.len(), "duplicate IiAttempt");
        assert!(par_attempts.contains(&("modulo-list".to_string(), par.ii)));
        assert!(attempts(&seq_tele).contains(&("modulo-list".to_string(), seq.ii)));
    }

    #[test]
    fn parallel_ii_matches_bottom_up_ii() {
        // Sequential and parallel are two schedules over one probe:
        // whoever maps fir4 bottom-up lands on the same II racing.
        // (ilp and smt run out of budget here and sit this one out;
        // everyone else needs under 0.1 s.)
        let dfg = kernels::fir(4);
        let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
        let cfg = MapConfig {
            time_limit: Duration::from_secs(2),
            ..MapConfig::fast()
        };
        let mut compared = 0;
        for spec in crate::MapperRegistry::standard().specs() {
            let mapper = spec.build();
            let Ok(seq) = mapper.map(&dfg, &fabric, &cfg) else {
                continue;
            };
            if spec.spatial {
                continue;
            }
            let par = parallel_ii(mapper.as_ref(), &dfg, &fabric, &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            validate(&par, &dfg, &fabric).unwrap();
            assert_eq!(par.ii, seq.ii, "{}", spec.name);
            compared += 1;
        }
        assert!(compared >= 8, "only {compared} mappers compared");
    }
}
