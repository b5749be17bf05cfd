//! The `Mapper` trait, configuration, errors, and the Table I taxonomy.

use crate::diagnosis::Diagnosis;
use crate::engine::Budget;
use crate::mapping::Mapping;
use crate::telemetry::Telemetry;
use cgra_arch::{Fabric, TopologyCache};
use cgra_ir::Dfg;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The survey's Table I classification axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Family {
    /// Problem-specific constructive heuristics.
    Heuristic,
    /// Population-based meta-heuristics (GA, QEA).
    MetaPopulation,
    /// Local-search meta-heuristics (SA).
    MetaLocalSearch,
    /// ILP or branch-and-bound exact methods.
    ExactIlp,
    /// Constraint-satisfaction exact methods (CP, SAT, SMT).
    ExactCsp,
}

impl Family {
    /// Approximate vs exact — the top-level split of Table I.
    pub fn is_exact(self) -> bool {
        matches!(self, Family::ExactIlp | Family::ExactCsp)
    }

    pub fn label(self) -> &'static str {
        match self {
            Family::Heuristic => "heuristic",
            Family::MetaPopulation => "meta-heuristic (population)",
            Family::MetaLocalSearch => "meta-heuristic (local search)",
            Family::ExactIlp => "exact (ILP/B&B)",
            Family::ExactCsp => "exact (CSP)",
        }
    }
}

/// Mapper configuration and budgets. It carries no solver state: what
/// an exact mapper builds (SAT's solver, ILP's model, one per II probe)
/// lives inside one [`Mapper::map`] call and is dropped when it ends.
#[derive(Debug, Clone)]
pub struct MapConfig {
    /// Search IIs from `max(MII, min_ii)` up to this bound (inclusive).
    pub max_ii: u32,
    /// Floor on the II search (default 1). The parallel-II engine pins
    /// a job to a single II by setting `min_ii == max_ii`.
    pub min_ii: u32,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// RNG seed for stochastic mappers.
    pub seed: u64,
    /// Optional search-telemetry sink. Disabled by default; when
    /// enabled, mappers record counters, phase spans and timestamped
    /// events (incumbents, race outcomes, II probes) into it. See
    /// [`crate::telemetry`].
    pub telemetry: Telemetry,
    /// Externally imposed budget (deadline + cancel token). Unlimited
    /// by default; mappers derive their per-run budget from it via
    /// [`MapConfig::run_budget`], so a racing engine can cancel a run
    /// mid-search through the shared token. See [`crate::engine`].
    pub budget: Budget,
    /// Optional shared topology cache. `None` by default; mappers
    /// obtain their per-run cache via [`MapConfig::topo_for`], which
    /// reuses this one when it matches the fabric and builds a private
    /// one otherwise. The racing and parallel-II engines pre-seed it so
    /// every concurrent attempt shares a single table.
    pub topo: Option<Arc<TopologyCache>>,
    /// Failure forensics: when on, infeasible outcomes carry a
    /// structured [`Diagnosis`] (unsat-core probes in the exact
    /// mappers, the analytic MII decomposition everywhere). Off by
    /// default — the probes re-solve, so they cost real time on the
    /// failure path. See [`crate::diagnosis`].
    pub explain: bool,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            max_ii: 16,
            min_ii: 1,
            time_limit: Duration::from_secs(20),
            seed: 0xC6_12A,
            telemetry: Telemetry::off(),
            budget: Budget::unlimited(),
            topo: None,
            explain: false,
        }
    }
}

impl MapConfig {
    /// A quick-budget configuration for tests.
    pub fn fast() -> Self {
        MapConfig {
            max_ii: 8,
            time_limit: Duration::from_secs(10),
            ..Self::default()
        }
    }

    /// A validating builder (rejects zero II bounds and budgets).
    pub fn builder() -> MapConfigBuilder {
        MapConfigBuilder::default()
    }

    /// The budget one mapper run must obey: the externally imposed
    /// [`MapConfig::budget`] tightened by this config's `time_limit`.
    /// Replaces the per-mapper `Instant::now() + time_limit` deadlines.
    pub fn run_budget(&self) -> Budget {
        self.budget.child(self.time_limit)
    }

    /// The topology cache a run against `fabric` should use: the
    /// pre-seeded [`MapConfig::topo`] when its fingerprint matches the
    /// fabric (an `Arc` clone, no table rebuild), or a freshly built
    /// private cache otherwise. Mappers call this once per `map()` and
    /// thread the result through their search.
    pub fn topo_for(&self, fabric: &Fabric) -> Arc<TopologyCache> {
        match &self.topo {
            Some(t) if t.matches(fabric) => Arc::clone(t),
            _ => Arc::new(TopologyCache::build(fabric)),
        }
    }

    /// The II range a temporal mapper must search, given the kernel's
    /// MII — the shared guard of every II loop. `Err` when the fabric
    /// lacks a required resource class (`mii == u32::MAX`) or the range
    /// is empty under `max_ii`/`context_depth`/`min_ii`.
    pub fn ii_range(&self, mii: u32, fabric: &Fabric) -> Result<(u32, u32), MapError> {
        let hi = self.max_ii.min(fabric.context_depth);
        let lo = mii.max(self.min_ii);
        let why = match mii {
            u32::MAX => "fabric lacks a required resource class".to_string(),
            _ if lo > hi => format!("MII {lo} exceeds the II bound {hi}"),
            _ => return Ok((lo, hi)),
        };
        // Only the MII proves anything, not a min_ii set above the bound.
        Err(MapError::Infeasible(Infeasibility {
            proven: mii > hi,
            ..why.into()
        }))
    }

    /// [`MapConfig::ii_range`] plus failure forensics: when the range
    /// is empty (or a required resource class is absent) and
    /// [`MapConfig::explain`] is on, the error carries the analytic
    /// MII-bound [`Diagnosis`] naming the binding resource class. The
    /// shared entry guard of every temporal mapper's II loop.
    pub fn ii_range_for(
        &self,
        dfg: &Dfg,
        mii: u32,
        fabric: &Fabric,
    ) -> Result<(u32, u32), MapError> {
        self.ii_range(mii, fabric).map_err(|e| match e {
            MapError::Infeasible(mut inf) if self.explain => {
                let hi = self.max_ii.min(fabric.context_depth);
                inf.diagnosis = Some(Box::new(crate::diagnosis::diagnose_mii_bound(
                    dfg, fabric, hi,
                )));
                MapError::Infeasible(inf)
            }
            other => other,
        })
    }
}

/// Builder for [`MapConfig`] that validates bounds at `build()`.
///
/// ```
/// use cgra_mapper_core::MapConfig;
/// use std::time::Duration;
///
/// let cfg = MapConfig::builder()
///     .max_ii(8)
///     .time_limit(Duration::from_secs(5))
///     .build()
///     .unwrap();
/// assert_eq!(cfg.max_ii, 8);
/// assert!(MapConfig::builder().max_ii(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MapConfigBuilder {
    cfg: MapConfig,
}

impl MapConfigBuilder {
    /// Seed a builder from a request's canonical config — the bridge
    /// between the serializable [`MapRequest`](crate::request::MapRequest)
    /// API and the in-process config. Callers chain the non-canonical
    /// process-local fields (telemetry, budget, topo) before
    /// `build()`.
    pub fn from_request(req: &crate::request::MapRequest) -> MapConfigBuilder {
        MapConfig::builder()
            .max_ii(req.config.max_ii)
            .min_ii(req.config.min_ii)
            .time_limit(Duration::from_millis(req.config.time_limit_ms))
            .seed(req.config.seed)
            .explain(req.config.explain)
    }

    pub fn max_ii(mut self, max_ii: u32) -> Self {
        self.cfg.max_ii = max_ii;
        self
    }

    pub fn min_ii(mut self, min_ii: u32) -> Self {
        self.cfg.min_ii = min_ii;
        self
    }

    pub fn time_limit(mut self, time_limit: Duration) -> Self {
        self.cfg.time_limit = time_limit;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    pub fn budget(mut self, budget: Budget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Pre-seed the shared topology cache (see [`MapConfig::topo`]).
    pub fn topo(mut self, topo: Arc<TopologyCache>) -> Self {
        self.cfg.topo = Some(topo);
        self
    }

    /// Enable failure forensics (see [`MapConfig::explain`]).
    pub fn explain(mut self, explain: bool) -> Self {
        self.cfg.explain = explain;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<MapConfig, ConfigError> {
        let c = &self.cfg;
        if c.max_ii == 0 {
            return Err(ConfigError("max_ii must be at least 1".into()));
        }
        if c.min_ii == 0 {
            return Err(ConfigError("min_ii must be at least 1".into()));
        }
        if c.min_ii > c.max_ii {
            return Err(ConfigError(format!(
                "min_ii {} exceeds max_ii {}",
                c.min_ii, c.max_ii
            )));
        }
        if c.time_limit.is_zero() {
            return Err(ConfigError("time_limit must be positive".into()));
        }
        Ok(self.cfg)
    }
}

/// An invalid [`MapConfig`] rejected by the builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid map config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// The structured payload of [`MapError::Infeasible`]: the classic
/// prose reason plus, when failure forensics ran, a machine-readable
/// [`Diagnosis`] attributing the failure to a resource class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Infeasibility {
    /// Human-readable reason (what the old `Infeasible(String)` held).
    pub why: String,
    /// Structured attribution, present when [`MapConfig::explain`] was
    /// on and a diagnosis could be extracted. Boxed so the common
    /// no-diagnosis error stays small on the `Result` hot paths.
    pub diagnosis: Option<Box<Diagnosis>>,
    /// No mapping exists in the range: every II was refuted, or the MII
    /// rules the range out. False when the search merely found nothing.
    #[serde(default)]
    pub proven: bool,
}

impl fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.why)?;
        if let Some(d) = &self.diagnosis {
            write!(f, " [{}-bound]", d.class.label())?;
        }
        Ok(())
    }
}

impl<S: Into<String>> From<S> for Infeasibility {
    fn from(why: S) -> Self {
        Infeasibility {
            why: why.into(),
            diagnosis: None,
            proven: false,
        }
    }
}

/// Why a mapper failed. Structured and serializable so `--json`
/// consumers can dispatch on the variant instead of parsing prose.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapError {
    /// No mapping within the II/horizon bounds, proven or merely not
    /// found: [`Infeasibility::proven`] says which.
    Infeasible(Infeasibility),
    /// Budget exhausted before a valid mapping was found.
    Timeout,
    /// The run was cancelled through its budget's token (e.g. a rival
    /// mapper won a portfolio race first).
    Cancelled,
    /// The DFG uses a feature the mapper does not support.
    Unsupported(String),
}

impl MapError {
    /// An unproven [`MapError::Infeasible`] with no diagnosis attached
    /// — the construction every mapper uses on its plain failure paths.
    pub fn infeasible(why: impl Into<String>) -> Self {
        MapError::Infeasible(why.into().into())
    }

    /// The diagnosis, if this is an explained infeasibility.
    pub fn diagnosis(&self) -> Option<&Diagnosis> {
        match self {
            MapError::Infeasible(inf) => inf.diagnosis.as_deref(),
            _ => None,
        }
    }

    /// Stable machine-readable discriminant for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            MapError::Infeasible(_) => "infeasible",
            MapError::Timeout => "timeout",
            MapError::Cancelled => "cancelled",
            MapError::Unsupported(_) => "unsupported",
        }
    }
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Infeasible(why) => write!(f, "infeasible: {why}"),
            MapError::Timeout => write!(f, "budget exhausted"),
            MapError::Cancelled => write!(f, "cancelled: budget token fired"),
            MapError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for MapError {}

/// A mapping technique. Implementations must return mappings that pass
/// [`crate::validate::validate`].
pub trait Mapper: Send + Sync {
    /// Short name used in reports ("modulo-list", "sa", "ilp", …).
    fn name(&self) -> &'static str;

    /// Taxonomy cell for the Table I reproduction.
    fn family(&self) -> Family;

    /// True if the mapper produces spatial (II = 1, one-op-per-PE)
    /// mappings rather than temporal ones.
    fn is_spatial(&self) -> bool {
        false
    }

    /// Map `dfg` onto `fabric`.
    fn map(&self, dfg: &Dfg, fabric: &Fabric, cfg: &MapConfig) -> Result<Mapping, MapError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_split() {
        assert!(Family::ExactIlp.is_exact());
        assert!(Family::ExactCsp.is_exact());
        assert!(!Family::Heuristic.is_exact());
        assert!(!Family::MetaPopulation.is_exact());
    }

    #[test]
    fn config_defaults_sane() {
        let c = MapConfig::default();
        assert!(c.max_ii >= 4);
        let f = MapConfig::fast();
        assert!(f.time_limit <= c.time_limit);
    }
}
