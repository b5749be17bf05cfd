//! Integration contracts of the `cgra-serve` daemon under concurrency:
//! parallel clients observe byte-identical mappings to a
//! single-threaded baseline, replayed workloads drive the hit rate
//! monotonically up, and mid-request cancellation over the wire
//! returns the typed `Cancelled` outcome within the engine's latency
//! bound — without poisoning the cache for the next client.

use cgra::mapper::request::{CacheStatus, KernelSpec, MapOutcome, MapRequest};
use cgra::mapper::MapError;
use cgra::serve::{Client, ServeOptions, Server};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The mixed workload: distinct cache keys across kernels and both
/// heuristic families, all cheap enough for CI.
const WORKLOAD: &[(&str, &str)] = &[
    ("dot_product", "modulo-list"),
    ("accumulate", "modulo-list"),
    ("fir4", "modulo-list"),
    ("dot_product", "spatial-greedy"),
    ("accumulate", "spatial-greedy"),
];

fn request(id: u64, kernel: &str, mapper: &str) -> MapRequest {
    let mut req = MapRequest::new(KernelSpec::Named(kernel.into()), mapper);
    req.id = id;
    req
}

/// Scrape the Prometheus endpoint with a raw HTTP/1.1 GET.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("http response");
    assert!(head.contains("200"), "{head}");
    body.to_string()
}

/// The value of an un-labelled sample (`name <value>`) in an exposition.
fn metric_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{exposition}"))
}

#[test]
fn concurrent_clients_match_the_single_threaded_baseline() {
    // Reference run: one worker thread, one core, one client,
    // strictly sequential.
    let baseline_server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            threads: 1,
            cores: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(baseline_server.addr()).unwrap();
    let mut baseline = HashMap::new();
    for (i, (kernel, mapper)) in WORKLOAD.iter().enumerate() {
        let out = client.map(&request(i as u64 + 1, kernel, mapper)).unwrap();
        assert!(out.succeeded(), "{kernel}/{mapper}: {:?}", out.error);
        baseline.insert((*kernel, *mapper), out.mapping.clone());
    }

    // Storm run: 4 clients x 3 rounds over the same workload, each
    // client starting at a different offset so the interleavings
    // actually differ.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            threads: 4,
            cores: 2,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let maddr = server.metrics_addr().expect("metrics listener enabled");
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    let storm_done = AtomicBool::new(false);
    type Outcomes<'a> = Vec<(usize, &'a str, &'a str, MapOutcome)>;
    let (outcomes, scrapes): (Outcomes<'_>, Vec<u64>) = std::thread::scope(|scope| {
        // Scrape the metrics endpoint concurrently with the storm:
        // the requests_total counter must read monotonically even
        // while the hot path is mutating it.
        let scraper = scope.spawn(|| {
            let mut seen = Vec::new();
            while !storm_done.load(Ordering::Acquire) {
                seen.push(metric_value(&scrape(maddr), "cgra_serve_requests_total"));
                std::thread::sleep(Duration::from_millis(5));
            }
            seen
        });
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut got = Vec::new();
                    for round in 0..ROUNDS {
                        for slot in 0..WORKLOAD.len() {
                            let (kernel, mapper) = WORKLOAD[(slot + c) % WORKLOAD.len()];
                            let id = (c * ROUNDS * WORKLOAD.len() + round * WORKLOAD.len() + slot)
                                as u64
                                + 1;
                            let out = client.map(&request(id, kernel, mapper)).unwrap();
                            assert_eq!(out.id, id, "outcome not personalized to its request");
                            got.push((c, kernel, mapper, out));
                        }
                    }
                    got
                })
            })
            .collect();
        let outcomes = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        storm_done.store(true, Ordering::Release);
        (outcomes, scraper.join().unwrap())
    });

    assert_eq!(outcomes.len(), CLIENTS * ROUNDS * WORKLOAD.len());
    for (c, kernel, mapper, out) in &outcomes {
        assert!(
            out.succeeded(),
            "client {c} {kernel}/{mapper}: {:?}",
            out.error
        );
        assert_eq!(
            &out.mapping,
            &baseline[&(*kernel, *mapper)],
            "client {c} {kernel}/{mapper}: concurrent mapping diverged from the \
             single-threaded baseline"
        );
    }

    // Counter invariant: every request is classified exactly once at
    // the cache probe — leaders count a miss, resident-hit and
    // coalesced followers count a hit — so hits + misses equals
    // requests exactly, even under concurrency. Every distinct key
    // cost at least one leader solve, and only the five keys are
    // resident.
    let stats = server.service().stats();
    let total = (CLIENTS * ROUNDS * WORKLOAD.len()) as u64;
    assert_eq!(stats.requests, total);
    assert_eq!(stats.hits + stats.misses, total);
    assert!(stats.misses >= WORKLOAD.len() as u64);
    assert!(stats.coalesced <= stats.hits);
    assert_eq!(stats.cache_entries, WORKLOAD.len() as u64);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queue_depth, 0);

    // Every outcome carries a unique 16-hex-char trace id.
    let traces: HashSet<&str> = outcomes
        .iter()
        .map(|(_, _, _, out)| {
            assert_eq!(out.trace.len(), 16, "bad trace `{}`", out.trace);
            out.trace.as_str()
        })
        .collect();
    assert_eq!(traces.len(), outcomes.len(), "trace ids must be unique");

    // Mid-storm scrapes are monotone, and the final exposition agrees
    // with the stats op: the request histogram observed every request.
    assert!(
        scrapes.windows(2).all(|w| w[0] <= w[1]),
        "requests_total went backwards: {scrapes:?}"
    );
    let text = scrape(maddr);
    assert_eq!(metric_value(&text, "cgra_serve_requests_total"), total);
    assert_eq!(
        metric_value(&text, "cgra_serve_cache_hits_total"),
        stats.hits
    );
    assert_eq!(
        metric_value(&text, "cgra_serve_cache_misses_total"),
        stats.misses
    );
    assert_eq!(metric_value(&text, "cgra_serve_request_us_count"), total);
    assert_eq!(
        metric_value(&text, "cgra_serve_queue_wait_us_count"),
        stats.misses,
        "every admitted solve records exactly one queue wait"
    );
}

#[test]
fn replayed_workloads_drive_the_hit_rate_monotonically_up() {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut last_rate = -1.0;
    for round in 0..4u64 {
        for (i, (kernel, mapper)) in WORKLOAD.iter().enumerate() {
            let id = round * WORKLOAD.len() as u64 + i as u64 + 1;
            let out = client.map(&request(id, kernel, mapper)).unwrap();
            assert!(out.succeeded(), "{kernel}/{mapper}: {:?}", out.error);
            // After round 0 every key is resident, so replays must hit.
            if round > 0 {
                assert_eq!(
                    out.cache,
                    CacheStatus::Hit,
                    "{kernel}/{mapper} round {round}"
                );
            }
        }
        let stats = client.stats().unwrap();
        assert_eq!(
            stats.hits + stats.misses,
            stats.requests,
            "sequential replay must count exactly one hit or miss per request"
        );
        let rate = stats.hits as f64 / stats.requests as f64;
        assert!(
            rate >= last_rate,
            "hit rate fell from {last_rate:.3} to {rate:.3} after round {round}"
        );
        last_rate = rate;
    }
    // 1 cold round + 3 replayed rounds = 75% overall.
    assert!(last_rate >= 0.5, "final hit rate {last_rate:.3}");
}

#[test]
fn cancellation_returns_typed_cancelled_within_150ms() {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.addr();

    // A solve that runs for minutes if left alone: exact SAT search on
    // sobel with a generous deadline.
    let mapping_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut req = request(99, "sobel", "sat");
        req.config.time_limit_ms = 120_000;
        let out = client.map(&req).unwrap();
        (out, Instant::now())
    });

    // Poll cancel until the job is registered as in flight; the server
    // answers `false` until the solve has been admitted.
    let mut canceller = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let cancelled_at = loop {
        assert!(Instant::now() < deadline, "solve never became cancellable");
        let attempt = Instant::now();
        if canceller.cancel(99).unwrap() {
            break attempt;
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    let (out, returned_at) = mapping_thread.join().unwrap();
    let lag = returned_at.saturating_duration_since(cancelled_at);
    assert!(
        lag <= Duration::from_millis(150),
        "cancelled solve returned {}ms after the cancel",
        lag.as_millis()
    );
    assert!(!out.succeeded());
    assert!(
        matches!(out.error, Some(MapError::Cancelled)),
        "expected the typed Cancelled error, got {:?}",
        out.error
    );
    assert_eq!(out.id, 99);

    // A client abandoning its request must not poison the key: the
    // cancelled outcome was never cached, and a later cancel of the
    // retired id reports nothing in flight.
    assert_eq!(server.service().stats().cache_entries, 0);
    assert!(!canceller.cancel(99).unwrap());
}

/// Send `line` and a newline on a fresh connection and read one reply
/// line; `None` if the server closed (or reset) without answering.
fn raw_exchange(addr: SocketAddr, line: &[u8]) -> Option<String> {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // The server may stop reading before the client stops writing.
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            (&stream)
                .write_all(line)
                .and_then(|_| (&stream).write_all(b"\n"))
        });
        let mut reply = String::new();
        let got = reader.read_line(&mut reply);
        let _ = writer.join().unwrap();
        matches!(got, Ok(n) if n > 0).then_some(reply)
    })
}

#[test]
fn hostile_lines_are_refused_and_the_daemon_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let out = client
        .map(&request(1, "dot_product", "modulo-list"))
        .unwrap();
    assert!(out.succeeded());

    // 10 000 levels of nesting in 20 KB: a parser that recursed per
    // level overflowed the worker's stack, which aborts the process.
    let deep = format!(
        r#"{{"op":"ping","pad":{}{}}}"#,
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    let reply = raw_exchange(addr, deep.as_bytes()).expect("a reply to the deep line");
    assert!(
        reply.starts_with(r#"{"ok":false,"error":"bad JSON: "#),
        "{reply}"
    );
    assert!(reply.contains("nested deeper than 128 levels"), "{reply}");
    client.ping().unwrap();

    // Bytes that are not UTF-8 are a protocol error, not a disconnect.
    let reply = raw_exchange(addr, b"{\"op\":\"ping\",\"pad\":\"\xff\xfe\"}").expect("a reply");
    assert!(
        reply.starts_with(r#"{"ok":false,"error":"bad JSON: "#),
        "{reply}"
    );

    // One byte over the cap with no newline yet, on a connection that
    // has already been answered once: refused, then closed.
    const MAX_LINE: usize = 1 << 20;
    let stream = TcpStream::connect(addr).unwrap();
    (&stream).write_all(b"{\"op\":\"ping\"}\n").unwrap();
    (&stream).write_all(&vec![b'a'; MAX_LINE + 1]).unwrap();
    let mut replies = String::new();
    (&stream).read_to_string(&mut replies).unwrap();
    assert_eq!(
        replies,
        "{\"ok\":true,\"pong\":true}\n{\"ok\":false,\"error\":\"line too long\"}\n"
    );
    // A line of exactly the cap is still read whole (and is bad JSON).
    let reply = raw_exchange(addr, &vec![b'a'; MAX_LINE]).expect("a reply at the cap");
    assert!(reply.contains("bad JSON"), "{reply}");
    // 2 MiB: the server stops reading at the cap and closes with the
    // rest unread, so whether the refusal or a reset reaches this end
    // first is the kernel's business; only a wrong answer is a failure.
    if let Some(reply) = raw_exchange(addr, &vec![b'a'; 2 * MAX_LINE]) {
        assert_eq!(reply, "{\"ok\":false,\"error\":\"line too long\"}\n");
    }

    // The daemon is alive and its books balance: none of the refused
    // lines was admitted, the replay of the first request is a hit.
    let mut fresh = Client::connect(addr).unwrap();
    fresh.ping().unwrap();
    let again = fresh
        .map(&request(2, "dot_product", "modulo-list"))
        .unwrap();
    assert_eq!(again.cache, CacheStatus::Hit);
    let stats = fresh.stats().unwrap();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.hits + stats.misses, stats.requests);
}

#[test]
fn deeply_nested_minic_is_refused_and_the_daemon_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Each overflowed the stack of the thread compiling it, aborting
    // the whole process: 5 000 parentheses (10 KB), a flat sum of
    // 20 000 terms (40 KB, a left-deep tree), 5 000 unary minuses.
    for (i, expr) in [
        format!("{}a{}", "(".repeat(5_000), ")".repeat(5_000)),
        format!("a{}", "+a".repeat(20_000)),
        format!("{}a", "-".repeat(5_000)),
    ]
    .into_iter()
    .enumerate()
    {
        let kernel = KernelSpec::Source {
            source: format!("kernel deep(in a, out y) {{ y = {expr}; }}"),
            name: None,
        };
        let mut req = MapRequest::new(kernel, "modulo-list");
        req.id = i as u64 + 1;
        let out = client.map(&req).unwrap();
        match &out.error {
            Some(MapError::Unsupported(why)) => assert_eq!(
                why, "compile: parse error: line 1: nested deeper than 256 levels",
                "shape {i}"
            ),
            other => panic!("shape {i}: expected a compile error, got {other:?}"),
        }
        client.ping().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.requests, i as u64 + 1);
        assert_eq!(stats.hits + stats.misses, stats.requests);
    }
}

#[test]
fn oversized_fabric_is_refused_and_the_daemon_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    // 90 000 PEs: the topology's hop table alone is 90 000² u32s
    // (32.4 GB), and that allocation failing aborted the process.
    let line = r#"{"op":"map","request":{"kernel":{"named":"dot_product"},"mapper":"modulo-list","fabric":{"rows":300,"cols":300}}}"#;
    let stream = TcpStream::connect(server.addr()).unwrap();
    (&stream)
        .write_all(format!("{line}\n{{\"op\":\"ping\"}}\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(&stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.contains(
            r#""Unsupported":"fabric 300x300 has 90000 PEs, over the limit of 1024 (MAX_FABRIC_PES)""#
        ),
        "{reply}"
    );
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply, "{\"ok\":true,\"pong\":true}\n");

    let stats = Client::connect(server.addr()).unwrap().stats().unwrap();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.hits + stats.misses, stats.requests);
}
