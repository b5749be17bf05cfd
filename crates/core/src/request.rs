//! The serializable `MapRequest`/`MapOutcome` pair — the single source
//! of truth for "a mapping job and its result".
//!
//! Every front door of the framework used to spell a mapping job
//! differently: `cgra-map` held positional CLI options, `table1` built
//! `(mapper, kernel)` index pairs, and each binary invented its own
//! JSON shape for the result. [`MapRequest`] replaces all of them: one
//! value that names the kernel (inline MiniC source or a suite entry),
//! the fabric, the mapper and execution mode, and the canonicalized
//! configuration knobs. [`MapOutcome`] is the matching result: the
//! mapping (or typed [`MapError`]), metrics, search-effort telemetry,
//! and — in a serving context — how the cache answered.
//!
//! ## Canonicalization and the cache key
//!
//! `cgra-serve` keys its content-addressed result cache on
//! [`MapRequest::cache_key`]: three stable 64-bit FNV-1a digests over
//!
//! 1. the **fabric spec** (rows × cols × topology × preset) — not the
//!    built [`Fabric`], so the hit path never constructs one;
//! 2. the **kernel content** (the exact source bytes plus the kernel
//!    selector, or the suite entry name) — not the compiled DFG, so
//!    the hit path never runs the front-end;
//! 3. the **canonicalized config**: every semantically relevant knob
//!    (`max_ii`, `min_ii`, `time_limit_ms`, `seed`, `explain`) plus
//!    the mapper name and execution mode.
//!    Parsing fills defaults *before* fingerprinting, so two requests
//!    that spell the same effective config — one explicitly, one by
//!    omission — share a key, while requests differing in any knob
//!    never alias (see `tests/request_props.rs`).
//!
//! The digests are FNV-1a with fixed per-field tags, so keys are
//! stable across processes and platforms — a spilled cache written by
//! one server generation is readable by the next.
//!
//! ## Wire format
//!
//! The struct definitions are the wire contract: values serialize and
//! decode through the workspace `serde` derives (DESIGN.md §10 "How a
//! wire type is defined"). Unknown fields are ignored and
//! `#[serde(default)]` fields default, so old clients tolerate additive
//! server changes; a present field of the wrong type or out of range
//! is an error naming its path, never a silent default.

use crate::mapper::MapError;
use crate::mapping::Mapping;
use crate::metrics::{Metrics, UtilizationMap};
use crate::registry::MapperRegistry;
use crate::report::LatencySummary;
use crate::telemetry::{StatsSnapshot, Telemetry};
use crate::validate::validate_with;
use cgra_arch::{Fabric, Topology, TopologyCache};
use cgra_ir::{frontend, kernels, passes, Dfg};
use serde::{DeError, Deserialize, Reader, Serialize, Value};
use std::fmt;

/// A malformed or unsatisfiable request (parse error, unknown kernel,
/// bad fabric spec). Distinct from [`MapError`], which reports how a
/// well-formed mapping job *failed*.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RequestError(pub String);

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad request: {}", self.0)
    }
}

impl std::error::Error for RequestError {}

impl<S: Into<String>> From<S> for RequestError {
    fn from(s: S) -> Self {
        RequestError(s.into())
    }
}

/// Stable 64-bit FNV-1a — the cross-process content hash behind every
/// cache key. Not `DefaultHasher`: the std hasher is documented as
/// unstable across releases, and spilled cache entries outlive the
/// process that wrote them.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        // Length-prefix so ("ab","c") never collides with ("a","bc").
        self.u64(s.len() as u64).write(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Which kernel a request maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelSpec {
    /// Inline MiniC source, optionally selecting one kernel by name
    /// (the first kernel in the file otherwise).
    Source {
        source: String,
        name: Option<String>,
    },
    /// An entry of [`kernels::suite`] by name (`"fir4"`, `"sad"`, …).
    Named(String),
}

// Hand-rolled both ways to keep the wire shape flat and lowercase
// (`{"named": ...}` / `{"source": ..., "name": ...}`) — not the
// derive's tagged-variant form.
impl Serialize for KernelSpec {
    fn write_json(&self, out: &mut String) {
        serde::write_object(out, |pair| match self {
            KernelSpec::Source { source, name } => {
                pair("source", source);
                pair("name", name);
            }
            KernelSpec::Named(name) => pair("named", name),
        });
    }
}

impl Deserialize for KernelSpec {
    // One pass reads the first of each key, keeping its type error for
    // later; then the decisions, in their order: `named` wins over
    // `source`, and either is required. The source is copied once.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let (mut named, mut source, mut name) = (None, None, None);
        r.read_pairs(|r, key| {
            match &*key {
                "named" if named.is_none() => named = Some(serde::read_or_skip(r, "named")?),
                "source" if source.is_none() => source = Some(serde::read_or_skip(r, "source")?),
                "name" if name.is_none() => name = Some(serde::read_or_skip(r, "name")?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        match (named, source) {
            (Some(named), _) => named.map(KernelSpec::Named),
            (None, Some(source)) => Ok(KernelSpec::Source {
                source: source?,
                name: name.unwrap_or(Ok(None))?,
            }),
            (None, None) => Err(DeError::new("kernel needs `named` or `source`")),
        }
    }
}

impl KernelSpec {
    /// Compile (and optimize) the kernel this spec names.
    pub fn compile(&self) -> Result<Dfg, RequestError> {
        self.compile_with(&crate::telemetry::Telemetry::off())
    }

    /// [`KernelSpec::compile`], recording front-end phase spans on the
    /// caller's telemetry sink (what `cgra-map --trace` shows).
    pub fn compile_with(&self, tele: &crate::telemetry::Telemetry) -> Result<Dfg, RequestError> {
        use crate::telemetry::Phase;
        match self {
            KernelSpec::Source { source, name } => {
                let compiled = {
                    let _span = tele.span(Phase::Parse);
                    match name {
                        Some(n) => frontend::compile_kernel_named(source, n),
                        None => frontend::compile_kernel(source),
                    }
                    .map_err(|e| RequestError(format!("compile: {e}")))?
                };
                let mut dfg = compiled.dfg;
                {
                    let _span = tele.span(Phase::Optimize);
                    passes::optimize(&mut dfg);
                }
                Ok(dfg)
            }
            KernelSpec::Named(name) => kernels::suite()
                .into_iter()
                .find(|k| &k.name == name)
                .ok_or_else(|| RequestError(format!("unknown suite kernel `{name}`"))),
        }
    }

    /// Content fingerprint: exact source bytes + selector, or the
    /// suite entry name. Computable without running the front-end —
    /// this is what keeps cache hits at hash-lookup cost.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            KernelSpec::Source { source, name } => {
                h.str("source")
                    .str(source)
                    .str(name.as_deref().unwrap_or(""));
            }
            KernelSpec::Named(name) => {
                h.str("named").str(name);
            }
        }
        h.finish()
    }

    /// Display name (for logs; the authoritative name is the DFG's).
    pub fn label(&self) -> &str {
        match self {
            KernelSpec::Source { name, .. } => name.as_deref().unwrap_or("<inline>"),
            KernelSpec::Named(name) => name,
        }
    }
}

/// Which fabric a request maps onto. A spec, not a built [`Fabric`]:
/// the cache key hashes these four fields directly, so hits never pay
/// fabric construction. Absent fields read as the default 4×4 mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(default)]
pub struct FabricSpec {
    pub rows: u16,
    pub cols: u16,
    pub topology: Topology,
    /// Use the heterogeneous ADRES-like preset instead of the
    /// homogeneous grid (ignores `topology`).
    pub adres: bool,
}

impl Default for FabricSpec {
    fn default() -> Self {
        FabricSpec {
            rows: 4,
            cols: 4,
            topology: Topology::Mesh,
            adres: false,
        }
    }
}

/// The most PEs a [`FabricSpec`] may name: 32×32. The largest fabric
/// anything here maps onto is `scalability`'s 24×24 (576 PEs). The
/// bound keeps a request from sizing the daemon's memory (a topology's
/// hop table is n² `u32`s: 4 MiB here, 32 GB at 300×300) and keeps every
/// PE index far inside `PeId`'s `u16`.
pub const MAX_FABRIC_PES: usize = 1024;

impl FabricSpec {
    /// The fabric this spec names, or why it names none: an empty
    /// dimension, or more than [`MAX_FABRIC_PES`] PEs.
    pub fn build(&self) -> Result<Fabric, RequestError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(RequestError(format!(
                "fabric {}x{} has an empty dimension",
                self.rows, self.cols
            )));
        }
        let pes = self.rows as usize * self.cols as usize;
        if pes > MAX_FABRIC_PES {
            return Err(RequestError(format!(
                "fabric {}x{} has {pes} PEs, over the limit of {MAX_FABRIC_PES} (MAX_FABRIC_PES)",
                self.rows, self.cols
            )));
        }
        Ok(if self.adres {
            Fabric::adres_like(self.rows, self.cols)
        } else {
            Fabric::homogeneous(self.rows, self.cols, self.topology)
        })
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.rows as u64)
            .u64(self.cols as u64)
            .str(topology_label(self.topology))
            .u64(self.adres as u64);
        h.finish()
    }
}

pub fn topology_label(t: Topology) -> &'static str {
    match t {
        Topology::Mesh => "mesh",
        Topology::MeshPlus => "meshplus",
        Topology::Torus => "torus",
        Topology::OneHop => "onehop",
    }
}

/// How the job executes: one mapper bottom-up, the registry zoo
/// racing, or one mapper with candidate IIs racing concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    #[default]
    Single,
    Race,
    ParallelIi,
}

impl ExecMode {
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Single => "single",
            ExecMode::Race => "race",
            ExecMode::ParallelIi => "parallel-ii",
        }
    }

    pub fn from_label(s: &str) -> Option<ExecMode> {
        match s {
            "single" => Some(ExecMode::Single),
            "race" => Some(ExecMode::Race),
            "parallel-ii" => Some(ExecMode::ParallelIi),
            _ => None,
        }
    }
}

impl Serialize for ExecMode {
    fn write_json(&self, out: &mut String) {
        self.label().write_json(out);
    }
}

impl Deserialize for ExecMode {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        serde::read_label(r, "mode", ExecMode::from_label)
    }
}

/// The canonicalized configuration knobs of a request — the exact
/// subset of [`MapConfig`](crate::MapConfig) that can change a mapping
/// outcome. Decoding fills absent knobs from [`Default`], so a
/// `RequestConfig` is always the *effective* config;
/// [`MapRequest::config_fingerprint`] hashes every field, so the serve
/// cache can never alias two requests that differ only in a knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct RequestConfig {
    pub max_ii: u32,
    pub min_ii: u32,
    pub time_limit_ms: u64,
    pub seed: u64,
    pub explain: bool,
}

impl Default for RequestConfig {
    fn default() -> Self {
        let d = crate::mapper::MapConfig::default();
        RequestConfig {
            max_ii: d.max_ii,
            min_ii: d.min_ii,
            time_limit_ms: d.time_limit.as_millis() as u64,
            seed: d.seed,
            explain: d.explain,
        }
    }
}

/// One mapping job: kernel × fabric × mapper/mode × canonical config.
/// Only `kernel` is required on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapRequest {
    /// Client-assigned correlation id, echoed into the outcome and
    /// addressable by the serve protocol's `cancel` op.
    #[serde(default)]
    pub id: u64,
    /// Per-request trace id (16 lowercase hex chars). Usually empty on
    /// submission — the service mints one at ingress — but a client
    /// propagating a distributed trace may set it. Like `id`, it is
    /// *not* part of the cache key: traces identify requests, not
    /// results.
    #[serde(default)]
    pub trace: String,
    pub kernel: KernelSpec,
    #[serde(default)]
    pub fabric: FabricSpec,
    /// Registry name of the mapper (`"modulo-list"`, `"sat"`, …; the
    /// former when absent). Ignored under [`ExecMode::Race`], which
    /// runs the whole zoo.
    #[serde(default = "default_mapper")]
    pub mapper: String,
    #[serde(default)]
    pub mode: ExecMode,
    #[serde(default)]
    pub config: RequestConfig,
}

fn default_mapper() -> String {
    "modulo-list".into()
}

impl MapRequest {
    /// A request with default fabric/config, the idiom of tests and
    /// programmatic callers.
    pub fn new(kernel: KernelSpec, mapper: impl Into<String>) -> MapRequest {
        MapRequest {
            id: 0,
            trace: String::new(),
            kernel,
            fabric: FabricSpec::default(),
            mapper: mapper.into(),
            mode: ExecMode::Single,
            config: RequestConfig::default(),
        }
    }

    /// Digest of the canonical config plus the mapper/mode selection —
    /// the third leg of the cache key.
    pub fn config_fingerprint(&self) -> u64 {
        let mapper = match self.mode {
            // The zoo is the mapper under race mode; the field is
            // canonicalized away so `--race` requests share keys
            // regardless of what the mapper field happens to hold.
            ExecMode::Race => "<race>",
            _ => self.mapper.as_str(),
        };
        let c = &self.config;
        let mut h = Fnv::new();
        h.str(mapper)
            .str(self.mode.label())
            .u64(c.max_ii as u64)
            .u64(c.min_ii as u64)
            .u64(c.time_limit_ms)
            .u64(c.seed)
            .u64(c.explain as u64);
        h.finish()
    }

    /// The content-addressed identity of this job.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey {
            fabric_fp: self.fabric.fingerprint(),
            kernel_fp: self.kernel.fingerprint(),
            config_fp: self.config_fingerprint(),
        }
    }
}

/// The content-addressed identity of one mapping job:
/// `(fabric fingerprint × kernel content hash × canonical config)`.
/// All three digests are stable FNV-1a, so keys survive process
/// restarts and index spilled cache entries on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CacheKey {
    pub fabric_fp: u64,
    pub kernel_fp: u64,
    pub config_fp: u64,
}

impl CacheKey {
    /// Filesystem-safe hex form, the spill file stem.
    pub fn hex(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}",
            self.fabric_fp, self.kernel_fp, self.config_fp
        )
    }
}

/// How the serving layer answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheStatus {
    /// Solved directly, no cache involved (CLI local mode, `table1`).
    #[default]
    Uncached,
    /// Answered from the result cache (memory or disk).
    Hit,
    /// Solved cold and admitted into the cache.
    Miss,
    /// The solve timed out, and the service answered with an earlier
    /// incumbent of the same kernel (same fabric or an embeddable
    /// smaller one) lifted onto the request's fabric and re-validated.
    Warm,
}

impl CacheStatus {
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Uncached => "uncached",
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Warm => "warm",
        }
    }

    pub fn from_label(s: &str) -> Option<CacheStatus> {
        match s {
            "uncached" => Some(CacheStatus::Uncached),
            "hit" => Some(CacheStatus::Hit),
            "miss" => Some(CacheStatus::Miss),
            "warm" => Some(CacheStatus::Warm),
            _ => None,
        }
    }
}

impl Serialize for CacheStatus {
    fn write_json(&self, out: &mut String) {
        self.label().write_json(out);
    }
}

impl Deserialize for CacheStatus {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        serde::read_label(r, "cache status", CacheStatus::from_label)
    }
}

/// The result of one [`MapRequest`]: mapping or typed failure, plus
/// metrics and the observability payloads every consumer used to
/// re-derive for itself. Every field round-trips, so an outcome revived
/// from a spill file renders the bytes it was written from; absent
/// fields read as [`Default`].
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
#[serde(default)]
pub struct MapOutcome {
    /// Echo of the request id.
    pub id: u64,
    /// The request's trace id: echoed from the request when set,
    /// otherwise minted by the service at ingress (16 hex chars).
    /// Empty only for purely local `execute` calls with no trace.
    pub trace: String,
    pub kernel: String,
    pub fabric: String,
    /// The mapper that produced the result (race winner under race
    /// mode; the requested mapper otherwise).
    pub mapper: String,
    pub family: String,
    pub exact: bool,
    pub spatial: bool,
    pub cache: CacheStatus,
    /// Wall-clock to produce this outcome where it was produced (the
    /// server's solve time for misses, its lookup time for hits).
    pub compile_ms: f64,
    /// Time this request waited on the server's admission gate, µs
    /// (0 for cache hits and local execution).
    pub queue_us: u64,
    pub mapping: Option<Mapping>,
    pub metrics: Option<Metrics>,
    /// The typed failure; `None` iff `mapping` is `Some`.
    pub error: Option<MapError>,
    pub stats: Option<StatsSnapshot>,
    pub events: Vec<crate::ledger::LedgerEvent>,
    pub events_dropped: u64,
    pub spans_dropped: u64,
    pub latency: Vec<LatencySummary>,
    pub utilization: Option<UtilizationMap>,
    /// One row per racing mapper when the job raced the zoo (empty
    /// otherwise). A row keeps its metrics but not its mapping: the
    /// winner's is this outcome's, the losers' are dropped.
    pub race: Vec<MapOutcome>,
    /// Race wall-clock (race mode only).
    pub race_wall_ms: f64,
}

impl MapOutcome {
    /// A mapping was produced and validated. Race rows drop the
    /// mapping and keep the metrics, so this reads the metrics.
    pub fn succeeded(&self) -> bool {
        self.metrics.is_some()
    }

    pub fn ii(&self) -> Option<u32> {
        self.metrics.as_ref().map(|m| m.ii)
    }

    /// The exit gate: the one place a [`Mapping`] is validated,
    /// measured and put into an outcome, so no mapping is in an
    /// outcome unless it validated on `fabric` — which must be the
    /// fabric the outcome names, and `topo` its topology cache. Invalid
    /// mapper output becomes an `Infeasible` error.
    pub fn settle(
        &mut self,
        result: Result<Mapping, MapError>,
        dfg: &Dfg,
        fabric: &Fabric,
        topo: &TopologyCache,
    ) {
        let checked = result.and_then(|m| match validate_with(&m, dfg, fabric, topo) {
            Ok(()) => Ok(m),
            Err(e) => Err(MapError::infeasible(format!("INVALID OUTPUT: {e}"))),
        });
        (self.metrics, self.utilization, self.error, self.mapping) = match checked {
            Ok(m) => (
                Some(Metrics::of(&m, dfg, fabric)),
                Some(UtilizationMap::of(&m, dfg, fabric)),
                None,
                Some(m),
            ),
            Err(e) => (None, None, Some(e), None),
        };
    }

    /// Fill the observability payload from the job's sink (all empty
    /// when it is off).
    pub fn harvest(&mut self, tele: &Telemetry) {
        self.stats = tele.snapshot();
        self.spans_dropped = tele.spans_dropped();
        self.latency = LatencySummary::rows_from(tele);
        self.events = tele.events();
        self.events_dropped = tele.events_dropped();
    }

    /// Fill the Table I classification of `self.mapper` from its
    /// registry spec (left empty for a name the registry lacks).
    pub fn classify(&mut self) {
        if let Some(spec) = MapperRegistry::standard().get(&self.mapper) {
            self.family = spec.family.label().to_string();
            self.exact = spec.family.is_exact();
            self.spatial = spec.spatial;
        }
    }

    /// [`Deserialize::from_value`] with the protocol's error type.
    pub fn from_json(v: &Value) -> Result<MapOutcome, RequestError> {
        MapOutcome::from_value(v).map_err(|e| RequestError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot_request() -> MapRequest {
        MapRequest::new(
            KernelSpec::Source {
                source: "kernel dot(in a, in b, inout acc) { acc += a * b; }".into(),
                name: None,
            },
            "modulo-list",
        )
    }

    #[test]
    fn gate_admits_valid_mappings_and_rejects_invalid_ones() {
        use crate::mapper::{MapConfig, Mapper};
        let dfg = kernels::dot_product();
        let fabric = FabricSpec::default().build().unwrap();
        let topo = TopologyCache::build(&fabric);
        let good = crate::mappers::ModuloList
            .map(&dfg, &fabric, &MapConfig::fast())
            .unwrap();
        let mut out = MapOutcome::default();
        out.settle(Ok(good.clone()), &dfg, &fabric, &topo);
        assert!(out.succeeded() && out.error.is_none());
        assert_eq!(out.metrics, Some(Metrics::of(&good, &dfg, &fabric)));
        assert_eq!(
            out.utilization,
            Some(UtilizationMap::of(&good, &dfg, &fabric))
        );
        assert_eq!(out.mapping.as_ref(), Some(&good));

        // Two ops on one (pe, slot): the same outcome loses all three.
        let mut bad = good;
        bad.place[1] = bad.place[0];
        out.settle(Ok(bad), &dfg, &fabric, &topo);
        assert!(!out.succeeded());
        assert_eq!(
            (&out.mapping, &out.metrics, &out.utilization),
            (&None, &None, &None)
        );
        match &out.error {
            Some(MapError::Infeasible(inf)) => {
                assert!(inf.why.starts_with("INVALID OUTPUT"), "{}", inf.why)
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn request_round_trips_through_json() {
        let req = MapRequest {
            id: 7,
            mode: ExecMode::ParallelIi,
            fabric: FabricSpec {
                rows: 3,
                cols: 5,
                topology: Topology::Torus,
                adres: false,
            },
            config: RequestConfig {
                max_ii: 9,
                seed: 42,
                ..RequestConfig::default()
            },
            ..dot_request()
        };
        let wire = serde_json::to_string(&req).unwrap();
        let back = MapRequest::from_value(&serde_json::from_str(&wire).unwrap()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.cache_key(), req.cache_key());
    }

    #[test]
    fn trace_id_round_trips_but_never_touches_the_key() {
        // Traces identify requests, not results: two requests that
        // differ only in trace (or id) must share one cache key, or
        // traced replays would stop hitting.
        let plain = dot_request();
        let traced = MapRequest {
            id: 99,
            trace: "00c0ffee00c0ffee".into(),
            ..plain.clone()
        };
        assert_eq!(traced.cache_key(), plain.cache_key());
        let wire = serde_json::to_string(&traced).unwrap();
        let back = MapRequest::from_value(&serde_json::from_str(&wire).unwrap()).unwrap();
        assert_eq!(back.trace, "00c0ffee00c0ffee");
        // And the outcome echoes it over the wire.
        let out = MapOutcome {
            trace: traced.trace.clone(),
            queue_us: 1234,
            ..MapOutcome::default()
        };
        let wire = serde_json::to_string(&out).unwrap();
        let back = MapOutcome::from_value(&serde_json::from_str(&wire).unwrap()).unwrap();
        assert_eq!(back.trace, "00c0ffee00c0ffee");
        assert_eq!(back.queue_us, 1234);
    }

    #[test]
    fn defaults_canonicalize_to_the_same_key() {
        // Spelling the default config explicitly or omitting it must
        // land on the same cache key.
        let explicit = dot_request();
        let wire = r#"{"kernel":{"source":"kernel dot(in a, in b, inout acc) { acc += a * b; }"},
                       "mapper":"modulo-list"}"#;
        let implicit = MapRequest::from_value(&serde_json::from_str(wire).unwrap()).unwrap();
        assert_eq!(implicit.cache_key(), explicit.cache_key());
        // So does a request from an older client that still sends the
        // two removed knobs: unknown keys are ignored.
        let legacy = wire.replace(
            r#""mapper""#,
            r#""config":{"effort":100,"horizon_factor":4},"mapper""#,
        );
        let legacy = MapRequest::from_value(&serde_json::from_str(&legacy).unwrap()).unwrap();
        assert_eq!(legacy, explicit);
    }

    #[test]
    fn every_config_knob_changes_the_key() {
        let base = dot_request();
        let base_key = base.cache_key();
        let variants: Vec<MapRequest> = vec![
            MapRequest {
                config: RequestConfig {
                    max_ii: base.config.max_ii + 1,
                    ..base.config
                },
                ..base.clone()
            },
            MapRequest {
                config: RequestConfig {
                    min_ii: base.config.min_ii + 1,
                    ..base.config
                },
                ..base.clone()
            },
            MapRequest {
                config: RequestConfig {
                    time_limit_ms: base.config.time_limit_ms + 1,
                    ..base.config
                },
                ..base.clone()
            },
            MapRequest {
                config: RequestConfig {
                    seed: base.config.seed + 1,
                    ..base.config
                },
                ..base.clone()
            },
            MapRequest {
                config: RequestConfig {
                    explain: !base.config.explain,
                    ..base.config
                },
                ..base.clone()
            },
            MapRequest {
                mapper: "sat".into(),
                ..base.clone()
            },
            MapRequest {
                mode: ExecMode::ParallelIi,
                ..base.clone()
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(
                v.cache_key(),
                base_key,
                "variant {i} aliased the base request"
            );
        }
    }

    #[test]
    fn kernel_and_fabric_legs_are_independent() {
        let base = dot_request();
        let other_kernel = MapRequest {
            kernel: KernelSpec::Named("fir4".into()),
            ..base.clone()
        };
        let other_fabric = MapRequest {
            fabric: FabricSpec {
                rows: 8,
                ..base.fabric
            },
            ..base.clone()
        };
        assert_eq!(
            other_kernel.cache_key().config_fp,
            base.cache_key().config_fp
        );
        assert_ne!(
            other_kernel.cache_key().kernel_fp,
            base.cache_key().kernel_fp
        );
        assert_ne!(
            other_fabric.cache_key().fabric_fp,
            base.cache_key().fabric_fp
        );
    }

    #[test]
    fn fabric_size_is_bounded() {
        let spec = |rows, cols, adres| FabricSpec {
            rows,
            cols,
            adres,
            ..FabricSpec::default()
        };
        assert_eq!(spec(32, 32, false).build().unwrap().num_pes(), 1024);
        assert_eq!(spec(1, 1024, true).build().unwrap().num_pes(), 1024);
        for (rows, cols) in [(33, 32), (300, 300), (u16::MAX, u16::MAX)] {
            for adres in [false, true] {
                let err = spec(rows, cols, adres).build().unwrap_err();
                assert_eq!(
                    err.0,
                    format!(
                        "fabric {rows}x{cols} has {} PEs, over the limit of 1024 (MAX_FABRIC_PES)",
                        rows as usize * cols as usize
                    )
                );
            }
        }
    }

    #[test]
    fn named_kernel_compiles_from_suite() {
        let dfg = KernelSpec::Named("fir4".into()).compile().unwrap();
        assert_eq!(dfg.name, "fir4");
        assert!(KernelSpec::Named("nope".into()).compile().is_err());
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        let a = {
            let mut h = Fnv::new();
            h.str("ab").str("c");
            h.finish()
        };
        let b = {
            let mut h = Fnv::new();
            h.str("a").str("bc");
            h.finish()
        };
        assert_ne!(a, b, "length prefixing must separate field splits");
        // Pinned digest: the disk-spill format depends on this value
        // never changing across releases.
        let mut h = Fnv::new();
        h.write(b"cgra");
        assert_eq!(h.finish(), 0xc780_a790_f2f9_5152, "FNV-1a drifted");
    }
}
