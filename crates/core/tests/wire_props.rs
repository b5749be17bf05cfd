//! Property audit of the one wire codec: every type that crosses the
//! JSON boundary — serve requests and replies, spill files, run-report
//! artifacts, access-log lines, fleet reports — is defined once, by
//! its struct, and decodes through `serde::Deserialize`.
//!
//! For every such type `T` and every generated `x: T`:
//!
//! 1. **Lossless:** `T::from_value(&x.to_value())?.to_value()` equals
//!    `x.to_value()`, and the same holds through rendered text.
//! 2. **Forward compatible:** an unknown key injected into every
//!    object level of the encoding decodes to the same value.
//! 3. **Defaults are the documented ones:** dropping a key listed in
//!    the type's default table yields exactly that default; dropping
//!    any other key is an error, never a silent zero.
//!
//! 4. **Round trip:** `T::read_json` (through
//!    `serde_json::from_str_as`) reads `x.write_json(..)`'s text, compact
//!    or pretty, back into `x`. Those two methods are each type's one
//!    definition of its wire form; the tree forms are derived from them.
//! 5. **Pinned verdicts:** on rendered, extended, truncated and
//!    wrong-typed encodings alike, what `read_json` returns — the value
//!    or the error string — matches `tests/golden/wire_decode_digests.txt`,
//!    recorded when a separate tree decoder checked every one of them.
//!    Every wire type, derived or hand-shaped, is in the list below or
//!    under it.
//!
//! `access_log_props.rs` and `request_props.rs` keep their sharper,
//! type-specific properties; this file is the net under all of them.

use cgra_arch::{PeId, Topology};
use cgra_mapper_core::diagnosis::{Diagnosis, ResourceClass};
use cgra_mapper_core::fleet::{FleetFabricReport, FleetJobResult, FleetReport};
use cgra_mapper_core::ledger::{EventKind, LedgerEvent};
use cgra_mapper_core::mapper::{Infeasibility, MapError};
use cgra_mapper_core::request::{
    CacheStatus, ExecMode, FabricSpec, KernelSpec, MapOutcome, MapRequest, RequestConfig,
};
use cgra_mapper_core::telemetry::StatsSnapshot;
use cgra_mapper_core::{
    AccessRecord, LatencySummary, Mapping, Metrics, Placement, Route, ServiceStats, UtilizationMap,
};
use proptest::prelude::*;
use serde::{DeError, Deserialize, Serialize, Value};

/// SplitMix64 value generator seeded per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Integers biased to the edges of the range.
    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => self.below(100),
            _ => self.next(),
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn u16(&mut self) -> u16 {
        self.u64() as u16
    }

    /// Finite floats, integral ones included (they render without a
    /// fraction and reparse as integers).
    fn f64(&mut self) -> f64 {
        let x = self.below(1 << 40) as f64 / [1.0, 8.0, 1000.0, 3.0][self.below(4) as usize];
        if self.below(8) == 0 {
            -x - 0.5
        } else {
            x
        }
    }

    /// Strings that stress the JSON escaper.
    fn text(&mut self) -> String {
        const TEXTS: [&str; 6] = [
            "",
            "modulo-list",
            "4x4 mesh",
            "quote\" slash\\ newline\n tab\t",
            "ünïcode λ 漢字",
            "ctrl\u{1}\u{1f} x_future",
        ];
        TEXTS[self.below(6) as usize].to_string()
    }

    /// A flag from a copy of the stream, leaving `self` where it was, so
    /// a field added late to one type does not move every later value.
    fn side_flag(&self) -> bool {
        Gen(self.0 ^ 0x5bd1_e995).flag()
    }

    fn opt<T>(&mut self, make: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.flag().then(|| make(self))
    }

    fn vec<T>(&mut self, max: u64, mut make: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| make(self)).collect()
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

const STATUSES: [CacheStatus; 4] = [
    CacheStatus::Uncached,
    CacheStatus::Hit,
    CacheStatus::Miss,
    CacheStatus::Warm,
];
const MODES: [ExecMode; 3] = [ExecMode::Single, ExecMode::Race, ExecMode::ParallelIi];
const TOPOLOGIES: [Topology; 4] = [
    Topology::Mesh,
    Topology::MeshPlus,
    Topology::Torus,
    Topology::OneHop,
];

fn kernel(g: &mut Gen) -> KernelSpec {
    if g.flag() {
        KernelSpec::Named(g.text())
    } else {
        KernelSpec::Source {
            source: g.text(),
            name: g.opt(Gen::text),
        }
    }
}

fn fabric(g: &mut Gen) -> FabricSpec {
    FabricSpec {
        rows: g.u16(),
        cols: g.u16(),
        topology: g.pick(&TOPOLOGIES),
        adres: g.flag(),
    }
}

fn config(g: &mut Gen) -> RequestConfig {
    RequestConfig {
        max_ii: g.u32(),
        min_ii: g.u32(),
        time_limit_ms: g.u64(),
        seed: g.u64(),
        explain: g.flag(),
    }
}

fn request(g: &mut Gen) -> MapRequest {
    MapRequest {
        id: g.u64(),
        trace: g.text(),
        kernel: kernel(g),
        fabric: fabric(g),
        mapper: g.text(),
        mode: g.pick(&MODES),
        config: config(g),
    }
}

fn mapping(g: &mut Gen) -> Mapping {
    Mapping {
        ii: g.u32(),
        place: g.vec(4, |g| Placement {
            pe: PeId(g.u16()),
            time: g.u32(),
        }),
        routes: g.vec(3, |g| Route {
            start_time: g.u32(),
            steps: g.vec(4, |g| PeId(g.u16())),
        }),
    }
}

fn metrics(g: &mut Gen) -> Metrics {
    Metrics {
        ii: g.u32(),
        schedule_len: g.u32(),
        fu_utilisation: g.f64(),
        route_hops: g.u64() as usize,
        register_cycles: g.u64() as usize,
        peak_registers: g.u32(),
        throughput: g.f64(),
    }
}

fn diagnosis(g: &mut Gen) -> Diagnosis {
    Diagnosis {
        class: g.pick(&ResourceClass::ALL),
        ii: g.u32(),
        mii: g.u32(),
        detail: g.text(),
        ops: g.vec(3, Gen::text),
        cells: g.vec(3, Gen::text),
        core: g.vec(2, Gen::text),
    }
}

fn map_error(g: &mut Gen) -> MapError {
    match g.below(4) {
        0 => MapError::Timeout,
        1 => MapError::Cancelled,
        2 => MapError::Unsupported(g.text()),
        _ => MapError::Infeasible(Infeasibility {
            why: g.text(),
            diagnosis: g.opt(diagnosis).map(Box::new),
            proven: g.side_flag(),
        }),
    }
}

fn snapshot(g: &mut Gen) -> StatsSnapshot {
    StatsSnapshot {
        ii_attempts: g.u64(),
        routing_calls: g.u64(),
        solver_conflicts: g.u64(),
        incumbents: g.u64(),
        ..StatsSnapshot::default()
    }
}

fn event(g: &mut Gen) -> LedgerEvent {
    let mapper = g.text();
    let kind = match g.below(7) {
        0 => EventKind::Incumbent {
            mapper,
            ii: g.u32(),
            cost: g.f64(),
        },
        1 => EventKind::RaceStart { mapper },
        2 => EventKind::RaceWin {
            mapper,
            ii: g.u32(),
        },
        3 => EventKind::RaceLoss {
            mapper,
            reason: g.text(),
        },
        4 => EventKind::BudgetExhausted { mapper },
        5 => EventKind::IiAttempt {
            mapper,
            ii: g.u32(),
        },
        _ => EventKind::Request {
            mapper,
            trace: g.text(),
        },
    };
    LedgerEvent {
        t_us: g.u64(),
        kind,
    }
}

fn latency(g: &mut Gen) -> LatencySummary {
    LatencySummary {
        phase: g.text(),
        count: g.u64(),
        p50_us: g.u64(),
        p90_us: g.u64(),
        p99_us: g.u64(),
    }
}

fn utilization(g: &mut Gen) -> UtilizationMap {
    UtilizationMap {
        rows: g.u16(),
        cols: g.u16(),
        ii: g.u32(),
        fu_used: g.vec(4, Gen::u32),
        reg_used: g.vec(4, Gen::u32),
    }
}

/// An outcome whose `race` rows nest `depth` more levels.
fn outcome(g: &mut Gen, depth: u32) -> MapOutcome {
    MapOutcome {
        id: g.u64(),
        trace: g.text(),
        kernel: g.text(),
        fabric: g.text(),
        mapper: g.text(),
        family: g.text(),
        exact: g.flag(),
        spatial: g.flag(),
        cache: g.pick(&STATUSES),
        compile_ms: g.f64(),
        queue_us: g.u64(),
        mapping: g.opt(mapping),
        metrics: g.opt(metrics),
        error: g.opt(map_error),
        stats: g.opt(snapshot),
        events: g.vec(3, event),
        events_dropped: g.u64(),
        spans_dropped: g.u64(),
        latency: g.vec(2, latency),
        utilization: g.opt(utilization),
        race: match depth {
            0 => Vec::new(),
            _ => g.vec(2, |g| outcome(g, depth - 1)),
        },
        race_wall_ms: g.f64(),
    }
}

fn access_record(g: &mut Gen) -> AccessRecord {
    AccessRecord {
        seq: g.u64(),
        t_us: g.u64(),
        trace: g.text(),
        id: g.u64(),
        client: g.text(),
        kernel: g.text(),
        mapper: g.text(),
        cache: g.pick(&STATUSES),
        queue_us: g.u64(),
        server_us: g.u64(),
        ii: g.u32(),
        error: g.opt(Gen::text),
    }
}

fn service_stats(g: &mut Gen) -> ServiceStats {
    ServiceStats {
        requests: g.u64(),
        hits: g.u64(),
        misses: g.u64(),
        warm: g.u64(),
        coalesced: g.u64(),
        evictions: g.u64(),
        disk_spills: g.u64(),
        spill_rejects: g.u64(),
        cancellations: g.u64(),
        rejections: g.u64(),
        cache_entries: g.u64(),
        running: g.u64(),
        in_flight: g.u64(),
        queue_depth: g.u64(),
        cores: g.u64(),
    }
}

fn fleet_report(g: &mut Gen) -> FleetReport {
    FleetReport {
        schema: g.u32(),
        jobs: g.vec(3, |g| FleetJobResult {
            queue_index: g.u64() as usize,
            kernel: g.text(),
            mapper: g.text(),
            fabric: g.text(),
            fabric_index: g.u64() as usize,
            slot: g.u64() as usize,
            predicted: g.f64(),
            warm: g.flag(),
            start_ms: g.f64(),
            wall_ms: g.f64(),
            ii: g.opt(Gen::u32),
            fu: g.f64(),
            cache: g.pick(&STATUSES),
            error: g.opt(Gen::text),
        }),
        fabrics: g.vec(2, |g| FleetFabricReport {
            name: g.text(),
            spec: g.text(),
            jobs: g.u64() as usize,
            busy_ms: g.f64(),
            utilization: g.f64(),
            mean_fu: g.f64(),
        }),
        makespan_ms: g.f64(),
        sum_ms: g.f64(),
        predicted_makespan: g.f64(),
        scheduled: g.u64() as usize,
        failed: g.u64() as usize,
    }
}

/// One generated value of one wire type, type-erased to its encoding,
/// its decode-then-re-encode function and its default table.
struct Case {
    name: &'static str,
    value: Value,
    /// What `write_json` appended for the same `x`.
    written: String,
    recode: fn(&Value) -> Result<Value, DeError>,
    /// Text decoded by `read_json` and re-written by `write_json`, or
    /// the error's string.
    verdict: fn(&str) -> Result<String, String>,
    /// Top-level keys that may be absent, with what they then read as.
    /// Every other top-level key is required.
    defaults: Vec<(String, Value)>,
}

/// What `write_json` appends for `x`.
fn written<T: Serialize>(x: &T) -> String {
    let mut out = String::new();
    x.write_json(&mut out);
    out
}

fn case<T: Serialize + Deserialize>(name: &'static str, x: &T) -> Case {
    Case {
        name,
        value: x.to_value(),
        written: written(x),
        recode: |v| T::from_value(v).map(|x| x.to_value()),
        verdict: verdict::<T>,
        defaults: Vec::new(),
    }
}

/// `text` → `T` by `read_json`, re-written as text.
fn verdict<T: Serialize + Deserialize>(text: &str) -> Result<String, String> {
    serde_json::from_str_as::<T>(text)
        .map(|x| serde_json::to_string(&x).unwrap())
        .map_err(|e| e.to_string())
}

impl Case {
    /// These keys default to these values.
    fn defaults(mut self, table: &[(&str, Value)]) -> Case {
        self.defaults
            .extend(table.iter().map(|(k, v)| (k.to_string(), v.clone())));
        self
    }

    /// `#[serde(default)]` on the container: every key defaults to the
    /// field of `T::default()`.
    fn container_default<T: Serialize + Default>(mut self) -> Case {
        if let Value::Object(pairs) = T::default().to_value() {
            self.defaults = pairs;
        }
        self
    }
}

/// Every wire type, once.
fn cases(g: &mut Gen) -> Vec<Case> {
    let zero = Value::UInt(0);
    let infeasible = Infeasibility {
        why: g.text(),
        diagnosis: g.opt(diagnosis).map(Box::new),
        proven: g.side_flag(),
    };
    vec![
        case("KernelSpec", &kernel(g)),
        case("FabricSpec", &fabric(g)).container_default::<FabricSpec>(),
        case("RequestConfig", &config(g)).container_default::<RequestConfig>(),
        case("MapRequest", &request(g)).defaults(&[
            ("id", zero.clone()),
            ("trace", "".to_value()),
            ("fabric", FabricSpec::default().to_value()),
            ("mapper", "modulo-list".to_value()),
            ("mode", "single".to_value()),
            ("config", RequestConfig::default().to_value()),
        ]),
        case("ExecMode", &g.pick(&MODES)),
        case("CacheStatus", &g.pick(&STATUSES)),
        case("Topology", &g.pick(&TOPOLOGIES)),
        case("MapOutcome", &outcome(g, 1)).container_default::<MapOutcome>(),
        case("Mapping", &mapping(g)),
        case("Metrics", &metrics(g)),
        case("MapError", &map_error(g)),
        case("Infeasibility", &infeasible)
            .defaults(&[("diagnosis", Value::Null), ("proven", false.to_value())]),
        case("Diagnosis", &diagnosis(g)),
        case("UtilizationMap", &utilization(g)),
        case("LatencySummary", &latency(g)),
        case("StatsSnapshot", &snapshot(g)).container_default::<StatsSnapshot>(),
        case("LedgerEvent", &event(g)),
        case("AccessRecord", &access_record(g)).container_default::<AccessRecord>(),
        case("ServiceStats", &service_stats(g)).defaults(
            &[
                "coalesced",
                "evictions",
                "disk_spills",
                "spill_rejects",
                "cancellations",
                "rejections",
                "in_flight",
                "queue_depth",
                "cores",
            ]
            .map(|k| (k, zero.clone())),
        ),
        case("FleetReport", &fleet_report(g)),
    ]
}

/// `v` with `x_future` pushed onto every struct-level object. The
/// single-key object of an externally tagged variant (`{"Infeasible":
/// {…}}`, CamelCase key) is a tag, not a struct level, and stays as is.
fn with_unknown_keys(v: &Value) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(with_unknown_keys).collect()),
        Value::Object(pairs) => {
            let mut out: Vec<(String, Value)> = pairs
                .iter()
                .map(|(k, x)| (k.clone(), with_unknown_keys(x)))
                .collect();
            let is_tag = pairs.len() == 1 && pairs[0].0.starts_with(char::is_uppercase);
            if !is_tag {
                out.push(("x_future".into(), Value::Array(vec![Value::Null])));
            }
            Value::Object(out)
        }
        leaf => leaf.clone(),
    }
}

/// How many scalars (non-container values) `v` holds.
fn scalars(v: &Value) -> usize {
    match v {
        Value::Array(items) => items.iter().map(scalars).sum(),
        Value::Object(pairs) => pairs.iter().map(|(_, x)| scalars(x)).sum(),
        _ => 1,
    }
}

/// `v` with its scalar number `k` (in text order) replaced by one of
/// another type.
fn mistyped(v: &Value, k: &mut usize) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(|x| mistyped(x, k)).collect()),
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .map(|(key, x)| (key.clone(), mistyped(x, k)))
                .collect(),
        ),
        leaf => {
            let hit = *k == 0;
            *k = k.wrapping_sub(1);
            match leaf {
                _ if !hit => leaf.clone(),
                Value::Str(_) => Value::UInt(7),
                Value::Null => Value::Bool(true),
                Value::Bool(_) => Value::Str("true".into()),
                _ => Value::Str("7".into()),
            }
        }
    }
}

/// Encodings of `c`'s value to decode: rendered, pretty, with unknown
/// keys, with each top-level key dropped, and four times mistyped at a
/// scalar `g` picks — whole, cut where `g` picks, and with trailing
/// input.
fn texts(c: &Case, g: &mut Gen) -> Vec<String> {
    let mut texts = vec![
        c.value.render(),
        c.value.render_pretty(2),
        with_unknown_keys(&c.value).render(),
    ];
    if let Value::Object(pairs) = &c.value {
        for i in 0..pairs.len() {
            let mut without = pairs.clone();
            without.remove(i);
            texts.push(Value::Object(without).render());
        }
    }
    for _ in 0..4 {
        let mut k = g.below(scalars(&c.value).max(1) as u64) as usize;
        let wrong = mistyped(&c.value, &mut k).render();
        // A type error the reader meets before a syntax error must
        // still lose to it: trailing input, a cut.
        let mut cut = g.below(wrong.len() as u64 + 1) as usize;
        while !wrong.is_char_boundary(cut) {
            cut -= 1;
        }
        texts.push(wrong[..cut].to_string());
        texts.push(format!("{wrong} x"));
        texts.push(wrong);
    }
    texts
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every decode verdict on [`texts`] of every wire type, as one
/// `seed type digest` line per type for seeds 0..32, compared with (or,
/// under `CGRA_BLESS`, written to) `tests/golden/wire_decode_digests.txt`.
/// A verdict is the decoded value re-written as text, or the error's
/// string: what a codec change that claims the same decoding must keep.
#[test]
fn decode_verdicts_match_the_golden_digests() {
    let path = format!(
        "{}/../../tests/golden/wire_decode_digests.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut got = String::new();
    for seed in 0..32 {
        let mut g = Gen(seed);
        for c in cases(&mut Gen(seed)) {
            let mut h = 0xcbf2_9ce4_8422_2325;
            for text in texts(&c, &mut g) {
                let (tag, said) = match (c.verdict)(&text) {
                    Ok(text) => ("ok", text),
                    Err(e) => ("err", e),
                };
                h = fnv(fnv(fnv(h, tag.as_bytes()), said.as_bytes()), &[0]);
            }
            got += &format!("{seed} {} {h:016x}\n", c.name);
        }
    }
    if std::env::var_os("CGRA_BLESS").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "a decode verdict changed");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    #[test]
    fn every_wire_type_reads_back_what_it_writes(seed in any::<u64>()) {
        for c in cases(&mut Gen(seed)) {
            // What `read_json` makes of `write_json`'s text, compact or
            // pretty, writes that text again: `x` came back.
            prop_assert_eq!((c.verdict)(&c.written), Ok(c.written.clone()), "{}", c.name);
            let pretty = serde_json::to_string_pretty(&c.value).unwrap();
            prop_assert_eq!((c.verdict)(&pretty), Ok(c.written.clone()), "{} pretty", c.name);
        }
    }

    #[test]
    fn every_wire_type_round_trips_losslessly(seed in any::<u64>()) {
        for c in cases(&mut Gen(seed)) {
            let back = (c.recode)(&c.value);
            prop_assert_eq!(back.as_ref(), Ok(&c.value), "{}", c.name);
            // And through text, the way files and sockets carry it.
            let text = c.value.render();
            let reparsed = serde_json::from_str(&text).expect("rendered JSON parses");
            let back = (c.recode)(&reparsed).map(|v| v.render());
            prop_assert_eq!(back, Ok(text), "{} via text", c.name);
        }
    }

    #[test]
    fn unknown_keys_are_ignored_at_every_level(seed in any::<u64>()) {
        for c in cases(&mut Gen(seed)) {
            let back = (c.recode)(&with_unknown_keys(&c.value));
            prop_assert_eq!(back.as_ref(), Ok(&c.value), "{}", c.name);
        }
    }

    #[test]
    fn absent_keys_read_as_the_documented_default_or_fail(seed in any::<u64>()) {
        for c in cases(&mut Gen(seed)) {
            // Hand-shaped flat types choose their keys by variant.
            let Value::Object(pairs) = &c.value else { continue };
            if matches!(c.name, "KernelSpec" | "LedgerEvent" | "MapError") {
                continue;
            }
            for (i, (key, _)) in pairs.iter().enumerate() {
                let mut without = pairs.clone();
                without.remove(i);
                let back = (c.recode)(&Value::Object(without));
                match c.defaults.iter().find(|(k, _)| k == key) {
                    Some((_, default)) => {
                        let mut want = pairs.clone();
                        want[i].1 = default.clone();
                        prop_assert_eq!(back, Ok(Value::Object(want)), "{}.{}", c.name, key);
                    }
                    None => {
                        let err = back.expect_err("a required key was defaulted");
                        prop_assert_eq!(&err.path, key, "{}: {}", c.name, err);
                    }
                }
            }
        }
    }
}

/// Item shapes the derive supports but no wire type happens to use
/// today, so the generated code for them is compiled and exercised.
mod shapes {
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    pub struct Unit;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    pub struct Pair(pub u8, pub String);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    pub enum Shape {
        Dot,
        Line(i32, i32),
        Rect {
            w: u32,
            #[serde(default = "one")]
            h: u32,
            label: Option<String>,
        },
    }

    fn one() -> u32 {
        1
    }
}

#[test]
fn derive_covers_tuple_unit_and_struct_variant_shapes() {
    use shapes::{Pair, Shape, Unit};
    let recode = |x: &Shape| Shape::from_value(&x.to_value());
    for x in [
        Shape::Dot,
        Shape::Line(-3, 4),
        Shape::Rect {
            w: 2,
            h: 5,
            label: Some("r".into()),
        },
    ] {
        assert_eq!(written(&x), x.to_value().render());
        assert_eq!(recode(&x), Ok(x));
    }
    let from = |text: &str| Shape::from_value(&serde_json::from_str(text).unwrap());
    assert_eq!(
        from(r#"{"Rect":{"w":2,"depth":9}}"#),
        Ok(Shape::Rect {
            w: 2,
            h: 1,
            label: None
        })
    );
    let err = |text: &str| from(text).unwrap_err().to_string();
    assert_eq!(err(r#"{"Rect":{"h":2}}"#), "Rect.w: missing field");
    assert_eq!(
        err(r#"{"Line":[1,"2"]}"#),
        "Line[1]: expected i32, got a string"
    );
    assert_eq!(
        err(r#"{"Line":[1]}"#),
        "Line: expected an array of 2, got an array"
    );
    assert_eq!(err(r#"{"Oval":1}"#), "unknown variant `Oval` of Shape");
    assert_eq!(
        err(r#"{"Dot":1,"Line":[1,2]}"#),
        "expected a variant of Shape, got an object"
    );
    assert_eq!(Unit::from_value(&Unit.to_value()), Ok(Unit));
    assert_eq!(written(&Unit), "null");
    let pair = Pair(7, "x\"y".into());
    assert_eq!(written(&pair), pair.to_value().render());
    assert_eq!(Pair::from_value(&pair.to_value()), Ok(pair));
}

/// The derive's spare shapes read from text: what `Shape`, `Pair` and
/// `Unit` each make of it (re-written) or the error. Recorded when a
/// tree decoder stood beside each reader and agreed with it on every
/// row, so the order of checks a tree implies — the one-pair tag before
/// the payload, the array's length before its items, syntax before
/// types — is pinned.
#[test]
fn derive_shapes_read_as_recorded() {
    use shapes::{Pair, Shape, Unit};
    type Verdict = Result<&'static str, &'static str>;
    const NOT_PAIR: Verdict = Err("expected an array of 2, got an object");
    const UNIT: Verdict = Ok("null");
    let table: [(&str, Verdict, Verdict, Verdict); 26] = [
        (
            r#""Dot""#,
            Ok(r#""Dot""#),
            Err("expected an array of 2, got a string"),
            UNIT,
        ),
        (
            r#"{"Line":[-3,4]}"#,
            Ok(r#"{"Line":[-3,4]}"#),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Rect":{"w":2,"h":5,"label":"r"}}"#,
            Ok(r#"{"Rect":{"w":2,"h":5,"label":"r"}}"#),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Rect":{"w":2,"depth":9}}"#,
            Ok(r#"{"Rect":{"w":2,"h":1,"label":null}}"#),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Rect":{"h":2}}"#,
            Err("Rect.w: missing field"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Rect":{"w":"2"}}"#,
            Err("Rect.w: expected u32, got a string"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Line":[1,"2"]}"#,
            Err("Line[1]: expected i32, got a string"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Line":[1]}"#,
            Err("Line: expected an array of 2, got an array"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Oval":1}"#,
            Err("unknown variant `Oval` of Shape"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Dot":1,"Line":[1,2]}"#,
            Err("expected a variant of Shape, got an object"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"[7,"x\"y"]"#,
            Err("expected a variant of Shape, got an array"),
            Ok(r#"[7,"x\"y"]"#),
            UNIT,
        ),
        (
            "[7]",
            Err("expected a variant of Shape, got an array"),
            Err("expected an array of 2, got an array"),
            UNIT,
        ),
        (
            r#"[7,"x",9]"#,
            Err("expected a variant of Shape, got an array"),
            Err("expected an array of 2, got an array"),
            UNIT,
        ),
        (
            "null",
            Err("expected a variant of Shape, got null"),
            Err("expected an array of 2, got null"),
            UNIT,
        ),
        (
            "3",
            Err("expected a variant of Shape, got a number"),
            Err("expected an array of 2, got a number"),
            UNIT,
        ),
        (
            "",
            Err("JSON error: unexpected None at byte 0"),
            Err("JSON error: unexpected None at byte 0"),
            Err("JSON error: unexpected None at byte 0"),
        ),
        (
            "[7,",
            Err("JSON error: unexpected None at byte 3"),
            Err("JSON error: unexpected None at byte 3"),
            Err("JSON error: unexpected None at byte 3"),
        ),
        (
            r#"{"Rect":{"w":2,"w":"dup"}}"#,
            Ok(r#"{"Rect":{"w":2,"h":1,"label":null}}"#),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Line":[1,"2"],"Dot":1}"#,
            Err("expected a variant of Shape, got an object"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Oval":[1,"#,
            Err("JSON error: unexpected None at byte 11"),
            Err("JSON error: unexpected None at byte 11"),
            Err("JSON error: unexpected None at byte 11"),
        ),
        (
            r#"{"Line":[1,2,3]}"#,
            Err("Line: expected an array of 2, got an array"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Rect":3}"#,
            Err("Rect: expected an object, got a number"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"{"Dot":null}"#,
            Err("unknown variant `Dot` of Shape"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#""Line""#,
            Err("unknown variant `Line` of Shape"),
            Err("expected an array of 2, got a string"),
            UNIT,
        ),
        (
            "{}",
            Err("expected a variant of Shape, got an object"),
            NOT_PAIR,
            UNIT,
        ),
        (
            r#"[7,"x"] 1"#,
            Err("JSON error: trailing input at byte 8"),
            Err("JSON error: trailing input at byte 8"),
            Err("JSON error: trailing input at byte 8"),
        ),
    ];
    let owned = |v: Verdict| v.map(str::to_string).map_err(str::to_string);
    for (text, shape, pair, unit) in table {
        assert_eq!(verdict::<Shape>(text), owned(shape), "Shape: {text}");
        assert_eq!(verdict::<Pair>(text), owned(pair), "Pair: {text}");
        assert_eq!(verdict::<Unit>(text), owned(unit), "Unit: {text}");
    }
}

/// The hand-shaped decoders and the error-path format, pinned by
/// example (DESIGN.md §10 documents exactly these strings' shape).
#[test]
fn decode_errors_name_the_path() {
    let err = |text: &str| {
        MapRequest::from_value(&serde_json::from_str(text).unwrap())
            .unwrap_err()
            .to_string()
    };
    assert_eq!(err(r#"{}"#), "kernel: missing field");
    assert_eq!(
        err(r#"{"kernel":{}}"#),
        "kernel: kernel needs `named` or `source`"
    );
    assert_eq!(
        err(r#"{"kernel":{"named":7}}"#),
        "kernel.named: expected a string, got a number"
    );
    assert_eq!(
        err(r#"{"kernel":{"named":"k"},"fabric":{"rows":65537}}"#),
        "fabric.rows: 65537 is out of range for u16"
    );
    assert_eq!(
        err(r#"{"kernel":{"named":"k"},"fabric":{"rows":100000000000000000000}}"#),
        "fabric.rows: expected u16, got a number"
    );
    assert_eq!(
        err(r#"{"kernel":{"named":"k"},"fabric":{"topology":"ring"}}"#),
        "fabric.topology: unknown topology `ring`"
    );
    assert_eq!(
        err(r#"{"kernel":{"named":"k"},"mode":"fast"}"#),
        "mode: unknown mode `fast`"
    );
    assert_eq!(err(r#"[]"#), "expected an object, got an array");
    // Both topology spellings decode; the first of a repeated key wins,
    // as `Value::get` has it.
    let req = r#"{"kernel":{"named":"k"},"fabric":{"topology":"torus"},"id":1,"id":2}"#;
    let req = MapRequest::from_value(&serde_json::from_str(req).unwrap()).unwrap();
    assert_eq!((req.fabric.topology, req.id), (Topology::Torus, 1));
    // Array elements and enum payloads carry their position.
    let out = r#"{"mapping":{"ii":1,"place":[],"routes":[{"start_time":0,"steps":[1,-2]}]}}"#;
    let e = MapOutcome::from_value(&serde_json::from_str(out).unwrap()).unwrap_err();
    assert_eq!(
        e.to_string(),
        "mapping.routes[0].steps[1]: -2 is out of range for u16"
    );
    let out = r#"{"error":{"Infeasible":{"why":3}}}"#;
    let e = MapOutcome::from_value(&serde_json::from_str(out).unwrap()).unwrap_err();
    assert_eq!(
        e.to_string(),
        "error.Infeasible.why: expected a string, got a number"
    );
    let e = MapError::from_value(&Value::Str("Exploded".into())).unwrap_err();
    assert_eq!(e.to_string(), "unknown variant `Exploded` of MapError");
}
