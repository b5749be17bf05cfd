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
//!
//! A probe says what it proved at its II, as a [`Verdict`]; only the
//! sweep decides. An exhausted range is a proven `Infeasible` only if
//! every II in it was refuted.

use super::ModuloList;
use crate::diagnosis::Diagnosis;
use crate::engine::Budget;
use crate::mapper::{Family, Infeasibility, MapConfig, MapError, Mapper};
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

/// What a probe proved about its II (for `T` a CEGAR backend's choice,
/// what one solve found).
pub(crate) enum Verdict<T = Mapping> {
    Mapped(T),
    /// No mapping exists at this II (see DESIGN.md §2 for what counts).
    Refuted,
    /// Nothing found and nothing proven.
    Unproven,
}

impl<T> From<Option<T>> for Verdict<T> {
    fn from(found: Option<T>) -> Self {
        found.map_or(Verdict::Unproven, Verdict::Mapped)
    }
}

/// One temporal mapping technique, reduced to what is its own.
pub(crate) trait TemporalSearch: Send + Sync {
    /// Registry name, as reported by [`Mapper::name`] and journalled.
    const NAME: &'static str;
    const FAMILY: Family;

    /// Per-run state: built once by [`prepare`](Self::prepare), passed
    /// to every probe, dropped when the sweep ends.
    type State;

    fn prepare(&self, ctx: &SweepCtx<'_>) -> Self::State;

    /// Probe one II and say what it proved. A probe never decides the
    /// run: a budget stop is `Unproven`, and the sweep's poll after it
    /// tells `Timeout` from `Cancelled`.
    fn try_ii(&self, ctx: &SweepCtx<'_>, st: &mut Self::State, ii: u32) -> Verdict;

    /// Failure forensics at `ii`, run under `explain` once the range
    /// is exhausted.
    fn diagnose(&self, _ctx: &SweepCtx<'_>, _ii: u32) -> Option<Diagnosis> {
        None
    }
}

/// The exhausted-range error over `lo..=hi`, one sentence per verdict;
/// `parallel_ii` words its own the same way.
pub(crate) fn exhausted(lo: u32, hi: u32, proven: bool) -> MapError {
    let why = match proven {
        true => format!("every II in {lo}..={hi} is refuted"),
        false => format!("no mapping found for II {lo}..={hi} (not proven infeasible)"),
    };
    MapError::Infeasible(Infeasibility {
        proven,
        ..why.into()
    })
}

/// The II loop, and the one reader of the probes' verdicts.
fn search<S: TemporalSearch>(
    s: &S,
    ctx: &SweepCtx<'_>,
    st: &mut S::State,
) -> Result<Mapping, MapError> {
    // Every II below `bound` is refuted.
    let mut bound = ctx.lo;
    for ii in ctx.lo..=ctx.hi {
        ctx.tele().ii_attempt(S::NAME, ii);
        let _span = ctx.tele().span_ii(Phase::Map, ii);
        match s.try_ii(ctx, st, ii) {
            Verdict::Mapped(m) => return Ok(m),
            Verdict::Refuted if bound == ii => bound += 1,
            Verdict::Refuted | Verdict::Unproven => {}
        }
        if ctx.budget.expired_now() {
            return Err(ctx.budget.error());
        }
    }
    Err(exhausted(ctx.lo, ctx.hi, bound > ctx.hi))
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
    use crate::unpoison;
    use cgra_arch::Topology;
    use cgra_ir::kernels;
    use std::collections::VecDeque;
    use std::sync::Mutex;
    use std::time::Duration;

    /// What the scripted probe does on its next call.
    #[derive(Clone, Copy)]
    enum Step {
        /// `Unproven` at once.
        Fail,
        Refute,
        Map,
        CancelThenFail,
    }

    /// A probe that replays a script (or, if `by_ii` is set, answers by
    /// II, as racing jobs need) and records what the driver did.
    struct Fake {
        script: Mutex<VecDeque<Step>>,
        by_ii: Option<fn(u32) -> Step>,
        probed: Mutex<Vec<u32>>,
    }

    impl Fake {
        fn new(script: impl IntoIterator<Item = Step>) -> Self {
            Fake {
                script: Mutex::new(script.into_iter().collect()),
                by_ii: None,
                probed: Mutex::default(),
            }
        }

        fn probed(&self) -> Vec<u32> {
            unpoison(self.probed.lock()).clone()
        }
    }

    impl TemporalSearch for Fake {
        const NAME: &'static str = "fake";
        const FAMILY: Family = Family::Heuristic;
        type State = ();

        fn prepare(&self, _: &SweepCtx<'_>) {}

        fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Verdict {
            unpoison(self.probed.lock()).push(ii);
            // An exhausted script keeps failing.
            let step = match self.by_ii {
                Some(at) => at(ii),
                None => unpoison(self.script.lock())
                    .pop_front()
                    .unwrap_or(Step::Fail),
            };
            match step {
                Step::Fail => Verdict::Unproven,
                Step::Refute => Verdict::Refuted,
                // The driver hands the probe's mapping through untouched.
                Step::Map => Verdict::Mapped(Mapping {
                    ii,
                    place: Vec::new(),
                    routes: Vec::new(),
                }),
                Step::CancelThenFail => {
                    ctx.budget.cancel();
                    Verdict::Unproven
                }
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
        assert_eq!(err, exhausted(3, 3, false));
        assert_eq!(
            err.to_string(),
            "infeasible: no mapping found for II 3..=3 (not proven infeasible)"
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
    fn only_an_unbroken_run_of_refutations_proves() {
        use Step::{Fail, Map, Refute};
        let dfg = kernels::dot_product();
        let run = |script: Vec<Step>| Fake::new(script).map(&dfg, &mesh(), &cfg(2, 4));
        assert_eq!(run(vec![Refute, Refute, Map]).unwrap().ii, 4);
        let proven = run(vec![Refute; 3]).unwrap_err();
        assert_eq!(proven, exhausted(2, 4, true));
        assert_eq!(
            proven.to_string(),
            "infeasible: every II in 2..=4 is refuted"
        );
        // One unproven II anywhere, and a refuted II after it, prove
        // nothing.
        for gap in 0..3 {
            let mut script = vec![Refute; 3];
            script[gap] = Fail;
            assert_eq!(
                run(script).unwrap_err(),
                exhausted(2, 4, false),
                "gap {gap}"
            );
        }
    }

    #[test]
    fn parallel_ii_is_proven_only_when_every_job_is() {
        let dfg = kernels::dot_product();
        let run = |by_ii: fn(u32) -> Step| {
            let fake = Fake {
                by_ii: Some(by_ii),
                ..Fake::new([])
            };
            crate::engine::parallel_ii(&fake, &dfg, &mesh(), &cfg(2, 4)).unwrap_err()
        };
        assert_eq!(run(|_| Step::Refute), exhausted(2, 4, true));
        let one_open = |ii| if ii == 3 { Step::Fail } else { Step::Refute };
        assert_eq!(run(one_open), exhausted(2, 4, false));
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
