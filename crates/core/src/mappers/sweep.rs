//! The temporal-search skeleton: the one II sweep every temporal
//! technique shares (DESIGN.md §2, "Temporal-search skeleton").
//!
//! Table I's temporal column has one algorithmic constant — compute
//! the MII, probe an II, on failure raise it — and only the per-II
//! probe differs between techniques. [`sweep`] owns everything else:
//! kernel validation, the MII and the II range, the topology cache and
//! run budget, the per-candidate journal (`IiAttempts` bump and
//! `IiAttempt` event → `Phase::Map` span), the budget poll
//! between probes, and the exhausted-range `Infeasible` with its
//! optional probe diagnosis. A technique implements [`TemporalSearch`]
//! — its name, its family and `try_ii` — and receives [`Mapper`] from
//! the blanket impl below.

use super::ModuloList;
use crate::diagnosis::Diagnosis;
use crate::engine::Budget;
use crate::mapper::{Family, MapConfig, MapError, Mapper};
use crate::mapping::{Mapping, Placement};
use crate::route::route_all_with;
use crate::telemetry::{Phase, Telemetry};
use cgra_arch::{Fabric, TopologyCache};
use cgra_ir::Dfg;
use std::sync::Arc;

/// Everything one sweep's probes share. Telemetry, seed and `explain`
/// are read through `cfg`.
pub(crate) struct SweepCtx<'a> {
    pub dfg: &'a Dfg,
    pub fabric: &'a Fabric,
    pub cfg: &'a MapConfig,
    pub topo: Arc<TopologyCache>,
    pub budget: Budget,
    pub mii: u32,
    /// The inclusive II range under search: `max(mii, min_ii)` to
    /// `min(max_ii, context_depth)`.
    pub lo: u32,
    pub hi: u32,
}

impl<'a> SweepCtx<'a> {
    /// The shared prologue. `Err` when the kernel is malformed or the
    /// II range is empty (with the analytic MII diagnosis under
    /// `explain`, see [`MapConfig::ii_range_for`]).
    pub fn open(dfg: &'a Dfg, fabric: &'a Fabric, cfg: &'a MapConfig) -> Result<Self, MapError> {
        dfg.validate()
            .map_err(|e| MapError::Unsupported(e.to_string()))?;
        let mii = ModuloList::mii(dfg, fabric);
        let (lo, hi) = cfg.ii_range_for(dfg, mii, fabric)?;
        Ok(SweepCtx {
            dfg,
            fabric,
            cfg,
            topo: cfg.topo_for(fabric),
            budget: cfg.run_budget(),
            mii,
            lo,
            hi,
        })
    }

    pub fn tele(&self) -> &Telemetry {
        &self.cfg.telemetry
    }

    /// Journal an anytime incumbent of `mapper` at `ii`; `cost` is
    /// whatever the technique minimises (see each probe).
    pub fn incumbent(&self, mapper: &str, ii: u32, cost: f64) {
        self.cfg.telemetry.incumbent(mapper, ii, cost);
    }

    /// Turn a complete placement into a mapping by negotiated routing;
    /// `None` when the router cannot realise it.
    pub fn route<P: Into<Placement>>(
        &self,
        ii: u32,
        place: impl IntoIterator<Item = P>,
    ) -> Option<Mapping> {
        let place: Vec<Placement> = place.into_iter().map(Into::into).collect();
        let routes = route_all_with(
            self.fabric,
            &self.topo,
            self.dfg,
            &place,
            ii,
            12,
            true,
            self.tele(),
        )?;
        Some(Mapping { ii, place, routes })
    }
}

/// One temporal mapping technique, reduced to what is its own.
pub(crate) trait TemporalSearch: Send + Sync {
    /// Registry name, as reported by [`Mapper::name`] and journalled.
    const NAME: &'static str;
    const FAMILY: Family;
    /// The exhausted-range wording; `{range}` becomes `lo..=hi`.
    const EXHAUSTED: &'static str = "no II in {range} admits a schedule";

    /// Per-run state: built once by [`prepare`](Self::prepare), passed
    /// to every probe, dropped when the sweep ends.
    type State;

    fn prepare(&self, ctx: &SweepCtx<'_>) -> Self::State;

    /// The IIs to probe, in order, all within `ctx.lo..=ctx.hi`.
    fn candidates(&self, ctx: &SweepCtx<'_>) -> Vec<u32> {
        (ctx.lo..=ctx.hi).collect()
    }

    /// Probe one II: `Ok(Some)` on a mapping, `Ok(None)` when this II
    /// fails, `Err` to abort the sweep (budget, unsupported kernel).
    fn try_ii(
        &self,
        ctx: &SweepCtx<'_>,
        st: &mut Self::State,
        ii: u32,
    ) -> Result<Option<Mapping>, MapError>;

    /// Failure forensics at `ii`, run under `explain` once the range
    /// is exhausted.
    fn diagnose(&self, _ctx: &SweepCtx<'_>, _ii: u32) -> Option<Diagnosis> {
        None
    }
}

/// The II loop.
fn search<S: TemporalSearch>(
    s: &S,
    ctx: &SweepCtx<'_>,
    st: &mut S::State,
) -> Result<Mapping, MapError> {
    for ii in s.candidates(ctx) {
        ctx.tele().ii_attempt(S::NAME, ii);
        let _span = ctx.tele().span_ii(Phase::Map, ii);
        if let Some(m) = s.try_ii(ctx, st, ii)? {
            return Ok(m);
        }
        if ctx.budget.expired_now() {
            return Err(ctx.budget.error());
        }
    }
    let range = format!("{}..={}", ctx.lo, ctx.hi);
    Err(MapError::infeasible(
        S::EXHAUSTED.replace("{range}", &range),
    ))
}

/// Run `s` over its II candidates — the body of [`Mapper::map`] for
/// every temporal technique.
pub(crate) fn sweep<S: TemporalSearch>(
    s: &S,
    dfg: &Dfg,
    fabric: &Fabric,
    cfg: &MapConfig,
) -> Result<Mapping, MapError> {
    let mut ctx = SweepCtx::open(dfg, fabric, cfg)?;
    let out = search(s, &ctx, &mut s.prepare(&ctx));
    match out {
        Err(MapError::Infeasible(mut inf)) if cfg.explain && inf.diagnosis.is_none() => {
            // The probe re-solves, so it gets a run budget of its own.
            ctx.budget = cfg.run_budget();
            inf.diagnosis = s.diagnose(&ctx, ctx.hi).map(Box::new);
            Err(MapError::Infeasible(inf))
        }
        out => out,
    }
}

impl<S: TemporalSearch> Mapper for S {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn family(&self) -> Family {
        S::FAMILY
    }

    fn map(&self, dfg: &Dfg, fabric: &Fabric, cfg: &MapConfig) -> Result<Mapping, MapError> {
        sweep(self, dfg, fabric, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnosis::{diagnose_mii_bound, ResourceClass};
    use crate::ledger::EventKind;
    use cgra_arch::Topology;
    use cgra_ir::kernels;
    use std::collections::VecDeque;
    use std::sync::Mutex;
    use std::time::Duration;

    /// What the scripted probe does on its next call.
    enum Step {
        /// `Ok(None)` at once.
        Fail,
        Map,
        CancelThenFail,
        Abort(MapError),
    }

    /// A probe that replays a script and records what the driver did.
    struct Fake {
        script: Mutex<VecDeque<Step>>,
        probed: Mutex<Vec<u32>>,
    }

    impl Fake {
        fn new(script: impl IntoIterator<Item = Step>) -> Self {
            Fake {
                script: Mutex::new(script.into_iter().collect()),
                probed: Mutex::default(),
            }
        }

        fn probed(&self) -> Vec<u32> {
            self.probed.lock().unwrap().clone()
        }
    }

    impl TemporalSearch for Fake {
        const NAME: &'static str = "fake";
        const FAMILY: Family = Family::Heuristic;
        type State = ();

        fn prepare(&self, _: &SweepCtx<'_>) {}

        fn try_ii(
            &self,
            ctx: &SweepCtx<'_>,
            _: &mut (),
            ii: u32,
        ) -> Result<Option<Mapping>, MapError> {
            self.probed.lock().unwrap().push(ii);
            // An exhausted script keeps failing.
            match self.script.lock().unwrap().pop_front() {
                None | Some(Step::Fail) => Ok(None),
                // The driver hands the probe's mapping through untouched.
                Some(Step::Map) => Ok(Some(Mapping {
                    ii,
                    place: Vec::new(),
                    routes: Vec::new(),
                })),
                Some(Step::CancelThenFail) => {
                    ctx.budget.cancel();
                    Ok(None)
                }
                Some(Step::Abort(e)) => Err(e),
            }
        }

        fn diagnose(&self, ctx: &SweepCtx<'_>, ii: u32) -> Option<Diagnosis> {
            Some(Diagnosis::new(
                ResourceClass::Routing,
                ii,
                ctx.mii,
                "scripted",
            ))
        }
    }

    fn mesh() -> Fabric {
        Fabric::homogeneous(4, 4, Topology::Mesh)
    }

    /// II range `lo..=hi` with the sink on.
    fn cfg(lo: u32, hi: u32) -> MapConfig {
        MapConfig {
            min_ii: lo,
            max_ii: hi,
            telemetry: Telemetry::enabled(),
            ..MapConfig::fast()
        }
    }

    fn attempts(cfg: &MapConfig) -> Vec<u32> {
        let events = cfg.telemetry.events();
        assert!(events
            .iter()
            .all(|e| matches!(&e.kind, EventKind::IiAttempt { mapper, .. } if mapper == "fake")));
        events.iter().filter_map(|e| e.kind.ii()).collect()
    }

    fn bumps(cfg: &MapConfig) -> u64 {
        cfg.telemetry.snapshot().unwrap().ii_attempts
    }

    #[test]
    fn one_attempt_event_and_one_bump_per_candidate() {
        let fake = Fake::new([Step::Fail, Step::Fail, Step::Map]);
        let cfg = cfg(2, 6);
        let m = fake.map(&kernels::dot_product(), &mesh(), &cfg).unwrap();
        assert_eq!(m.ii, 4);
        assert_eq!(fake.probed(), [2, 3, 4]);
        assert_eq!(attempts(&cfg), [2, 3, 4]);
        assert_eq!(bumps(&cfg), 3);
    }

    #[test]
    fn pinned_range_probes_exactly_one_ii_and_exhausts() {
        let fake = Fake::new([]);
        let cfg = cfg(3, 3);
        let err = fake
            .map(&kernels::dot_product(), &mesh(), &cfg)
            .unwrap_err();
        assert_eq!(
            err,
            MapError::infeasible("no II in 3..=3 admits a schedule")
        );
        assert_eq!(fake.probed(), [3]);
        assert_eq!(attempts(&cfg), [3]);
        assert_eq!(bumps(&cfg), 1);
    }

    #[test]
    fn budget_stops_are_attributed_through_the_budget() {
        // A token fired mid-probe reads as Cancelled...
        let fake = Fake::new([Step::CancelThenFail]);
        let cancelled = cfg(1, 6);
        let err = fake.map(&kernels::dot_product(), &mesh(), &cancelled);
        assert_eq!(err.unwrap_err(), MapError::Cancelled);
        // ...a deadline that passed as Timeout; either way the sweep
        // stops after the probe that was running.
        let timed_out = MapConfig {
            time_limit: Duration::from_nanos(1),
            ..cfg(1, 6)
        };
        let err = fake.map(&kernels::dot_product(), &mesh(), &timed_out);
        assert_eq!(err.unwrap_err(), MapError::Timeout);
        assert_eq!(fake.probed(), [1, 1]);
        assert_eq!(attempts(&cancelled), [1]);
        assert_eq!(attempts(&timed_out), [1]);
    }

    #[test]
    fn probe_error_aborts_the_sweep() {
        let boom = MapError::Unsupported("scripted".into());
        let fake = Fake::new([Step::Fail, Step::Abort(boom.clone())]);
        let cfg = cfg(1, 6);
        let err = fake.map(&kernels::dot_product(), &mesh(), &cfg);
        assert_eq!(err.unwrap_err(), boom);
        assert_eq!(attempts(&cfg), [1, 2]);
    }

    #[test]
    fn explain_diagnoses_an_empty_range_analytically_and_an_exhausted_one_by_probe() {
        // iir1's recurrence forces MII 3: nothing to probe under II 2.
        let (dfg, fabric) = (kernels::iir1(), mesh());
        let fake = Fake::new([]);
        let empty = MapConfig {
            explain: true,
            ..cfg(1, 2)
        };
        let err = fake.map(&dfg, &fabric, &empty).unwrap_err();
        assert_eq!(err.diagnosis(), Some(&diagnose_mii_bound(&dfg, &fabric, 2)));
        assert!(fake.probed().is_empty() && attempts(&empty).is_empty());
        // A range searched in vain is diagnosed by the technique's own
        // probe at the top of the range — only when asked.
        let exhausted = MapConfig {
            explain: true,
            ..cfg(1, 4)
        };
        let err = fake.map(&dfg, &fabric, &exhausted).unwrap_err();
        let d = err.diagnosis().expect("probe diagnosis");
        assert_eq!((d.ii, d.mii, d.detail.as_str()), (4, 3, "scripted"));
        assert_eq!(fake.probed(), [3, 4]);
        let err = fake.map(&dfg, &fabric, &cfg(1, 4)).unwrap_err();
        assert!(err.diagnosis().is_none());
    }
}
