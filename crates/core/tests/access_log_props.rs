//! Property audit of the access-log wire format.
//!
//! `cgra-report --serve-log` replays logs written by any daemon
//! version, so [`AccessRecord`]'s JSON round trip must be lossless for
//! *every* representable record — including hostile client strings,
//! zero-valued timings, and absent errors — and tolerant of fields a
//! newer writer may add. The unit tests in `servemetrics` check one
//! hand-picked record each way; these properties sweep the space.

use cgra_mapper_core::request::CacheStatus;
use cgra_mapper_core::servemetrics::AccessRecord;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

const STATUSES: [CacheStatus; 4] = [
    CacheStatus::Uncached,
    CacheStatus::Hit,
    CacheStatus::Miss,
    CacheStatus::Warm,
];

/// String pool that stresses the JSON escaper: quotes, backslashes,
/// newlines, control characters, non-ASCII, and the empty string.
const TEXTS: [&str; 6] = [
    "",
    "modulo-list",
    "127.0.0.1:52114",
    "quote\" slash\\ newline\n tab\t",
    "ünïcode λ 漢字",
    "ctrl\u{1}\u{1f} spaced  out ",
];

fn arb_record() -> impl Strategy<Value = AccessRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (
            0usize..TEXTS.len(),
            0usize..TEXTS.len(),
            0usize..TEXTS.len(),
        ),
        (
            0usize..STATUSES.len(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
        ),
        (any::<bool>(), 0usize..TEXTS.len()),
    )
        .prop_map(
            |(
                (seq, t_us, trace_bits, id),
                (c, k, m),
                (st, queue_us, server_us, ii),
                (has_error, e),
            )| {
                AccessRecord {
                    seq,
                    t_us,
                    trace: format!("{trace_bits:016x}"),
                    id,
                    client: TEXTS[c].to_string(),
                    kernel: TEXTS[k].to_string(),
                    mapper: TEXTS[m].to_string(),
                    cache: STATUSES[st],
                    queue_us,
                    server_us,
                    ii,
                    error: has_error.then(|| TEXTS[e].to_string()),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Serialize -> parse -> compare: the full JSON round trip is the
    /// identity, via the same `serde_json::from_str` path the offline
    /// renderer uses on real log files.
    #[test]
    fn access_records_round_trip_through_json(rec in arb_record()) {
        let line = serde_json::to_string(&rec.to_value()).expect("serialize");
        prop_assert!(!line.contains('\n'), "a record must stay on one log line");
        let value = serde_json::from_str(&line).expect("reparse");
        let back = AccessRecord::from_value(&value).expect("decode");
        prop_assert_eq!(back, rec);
    }

    /// Forward compatibility: a reader must ignore fields it does not
    /// know, so logs from newer daemons still render.
    #[test]
    fn unknown_fields_are_ignored(rec in arb_record()) {
        let mut value = rec.to_value();
        if let serde_json::Value::Object(map) = &mut value {
            map.push(("x_future_field".to_string(), serde_json::Value::Bool(true)));
        }
        let back = AccessRecord::from_value(&value).expect("decode with extra field");
        prop_assert_eq!(back, rec);
    }
}
