//! Mapping-as-a-service: a line-delimited JSON protocol over TCP,
//! served by a plain `std::net` listener and a fixed thread pool.
//!
//! One request per line, one response per line. Every request is a
//! JSON object with an `"op"` field:
//!
//! | op | request fields | response fields |
//! |---|---|---|
//! | `map` | `request`: a [`MapRequest`] | `outcome`: a [`MapOutcome`] |
//! | `batch` | `requests`: array of [`MapRequest`] | `outcomes`: array |
//! | `cancel` | `id`: request id | `cancelled`: bool |
//! | `stats` | — | `stats`: [`ServiceStats`] |
//! | `metrics` | — | `metrics`: Prometheus text (string) |
//! | `fleet` | `requests`: array of [`MapRequest`], `fabrics`: array of fabric specs | `fleet`: a fleet report |
//! | `ping` | — | `pong`: true |
//! | `shutdown` | — | `stopping`: true |
//!
//! Responses always carry `"ok": true|false`; failures add `"error"`.
//! Note that a *typed mapping failure* (infeasible, timeout, …) is a
//! successful protocol exchange — the error rides inside the outcome,
//! mirroring [`MapOutcome::error`] — while `"ok": false` is reserved
//! for malformed requests and transport-level problems. Two of those
//! are limits: JSON nested deeper than 128 levels is a `bad JSON`
//! error, and a line longer than 1 MiB is answered `line too long` and
//! its connection closed.
//!
//! The daemon itself is deliberately boring: all caching, admission
//! control, single-flight dedup, and warm-start policy live in
//! [`MapService`] (`cgra-mapper-core`), so the in-process and
//! over-the-wire paths cannot diverge.

use cgra_mapper_core::fleet::{self, FleetFabric};
use cgra_mapper_core::request::{FabricSpec, MapOutcome, MapRequest, RequestError};
use cgra_mapper_core::servemetrics::{AccessLog, AccessRecord, ServiceMetrics};
use cgra_mapper_core::service::{MapService, ServiceOptions, ServiceStats};
use serde::{DeError, Deserialize, Reader, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often idle connections re-check the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// The longest request line (newline excluded) the daemon buffers. A
/// connection that sends more without a newline is answered `line too
/// long` and closed; a kernel source is a few KB.
const MAX_LINE: usize = 1 << 20;

/// One decoded protocol request.
#[derive(Debug)]
pub enum Op {
    Map(Box<MapRequest>),
    Batch(Vec<MapRequest>),
    Cancel(u64),
    Stats,
    Metrics,
    Fleet {
        requests: Vec<MapRequest>,
        fabrics: Vec<FabricSpec>,
    },
    Ping,
    Shutdown,
}

impl Op {
    /// Decode one request line.
    pub fn from_json(v: &Value) -> Result<Op, RequestError> {
        Op::from_value(v).map_err(de)
    }
}

// Hand-shaped because the protocol tags requests with a flat `"op"`
// field; payloads decode through their derives, so errors name the
// path (`request.fabric.rows`).
impl Deserialize for Op {
    // One pass over the line keeps where the first `op` and each
    // payload field start, and checks and drops everything else; then
    // only the fields the op needs are read. Nothing is decoded before
    // the whole line has been checked, so a syntax error anywhere in it
    // comes first.
    fn read_json(r: &mut Reader<'_>) -> Result<Op, DeError> {
        let [op, request, requests, id, fabrics] =
            r.spans(["op", "request", "requests", "id", "fabrics"])?;
        let op: String = serde::read_at(op, "op")?;
        Ok(match op.as_str() {
            "map" => Op::Map(serde::read_at(request, "request")?),
            "batch" => Op::Batch(serde::read_at(requests, "requests")?),
            "cancel" => Op::Cancel(serde::read_at(id, "id")?),
            "stats" => Op::Stats,
            "metrics" => Op::Metrics,
            "fleet" => Op::Fleet {
                requests: serde::read_at(requests, "requests")?,
                fabrics: serde::read_at(fabrics, "fabrics")?,
            },
            "ping" => Op::Ping,
            "shutdown" => Op::Shutdown,
            other => return Err(DeError::new(format!("unknown op `{other}`"))),
        })
    }
}

fn de(e: DeError) -> RequestError {
    RequestError(e.to_string())
}

/// Append the reply `{"ok":true,"<key>":<payload>}` to `out`.
fn ok_reply(out: &mut String, key: &str, payload: &dyn Serialize) {
    serde::write_object(out, |pair| {
        pair("ok", &true);
        pair(key, payload);
    });
}

/// Append the reply `{"ok":false,"error":"<msg>"}` to `out`.
fn err_reply(out: &mut String, msg: &str) {
    serde::write_object(out, |pair| {
        pair("ok", &false);
        pair("error", &msg);
    });
}

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads accepting client connections.
    pub threads: usize,
    /// Concurrent mapping-core budget handed to [`MapService`].
    pub cores: usize,
    /// In-memory result-cache capacity (entries) before LRU spill.
    pub cache_cap: usize,
    /// Directory for spilled cache entries; `None` = drop on evict.
    pub spill: Option<std::path::PathBuf>,
    /// Bind address for the Prometheus text-exposition HTTP listener
    /// (`GET /metrics`); `None` = no scrape endpoint. Port 0 works for
    /// tests ([`Server::metrics_addr`] resolves it).
    pub metrics_addr: Option<String>,
    /// JSONL access-log path, one [`AccessRecord`] per request;
    /// `None` = no access log.
    pub access_log: Option<std::path::PathBuf>,
    /// Admission-queue bound handed to [`MapService`]; `None` = queue
    /// without bound.
    pub max_queue: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 4,
            cores: 2,
            cache_cap: 256,
            spill: None,
            metrics_addr: None,
            access_log: None,
            max_queue: None,
        }
    }
}

/// A running daemon: listener thread + connection worker pool around
/// one shared [`MapService`].
pub struct Server {
    service: Arc<MapService>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    listener: Option<JoinHandle<()>>,
    metrics_listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral test port) and start
    /// serving in background threads. Returns once the socket is
    /// listening, so [`Server::addr`] is immediately connectable.
    pub fn bind(addr: impl ToSocketAddrs, opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // The daemon always records latency histograms: the registry
        // is a handful of relaxed atomics per request (pinned to noise
        // by the `service_metrics` bench), and a late `metrics` op or
        // scrape should see history, not start cold.
        let service = Arc::new(MapService::with_options(ServiceOptions {
            cores: opts.cores.max(1),
            cache_cap: opts.cache_cap.max(1),
            spill: opts.spill.clone(),
            metrics: ServiceMetrics::enabled(),
            max_queue: opts.max_queue,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let access = match &opts.access_log {
            Some(path) => Some(Arc::new(AccessLog::create(path)?)),
            None => None,
        };
        let (metrics_addr, metrics_listener) = match &opts.metrics_addr {
            Some(spec) => {
                let http = TcpListener::bind(spec.as_str())?;
                let bound = http.local_addr()?;
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                (
                    Some(bound),
                    Some(thread::spawn(move || {
                        serve_metrics_http(http, service, stop)
                    })),
                )
            }
            None => (None, None),
        };

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::new();
        for _ in 0..opts.threads.max(1) {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let access = access.clone();
            workers.push(thread::spawn(move || loop {
                let stream = { rx.lock().unwrap().recv() };
                match stream {
                    Ok(s) => serve_connection(s, &service, &stop, access.as_ref()),
                    Err(_) => break,
                }
            }));
        }

        let accept_stop = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(s) => {
                        // Sender drops only when this loop exits, so
                        // send can't fail while we are accepting.
                        let _ = tx.send(s);
                    }
                    Err(_) => break,
                }
            }
            drop(tx);
        });

        Ok(Server {
            service,
            addr,
            metrics_addr,
            stop,
            listener: Some(handle),
            metrics_listener,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics HTTP listener's bound address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The shared service, for in-process inspection in tests.
    pub fn service(&self) -> &Arc<MapService> {
        &self.service
    }

    /// Request shutdown and join all threads. Idempotent. Idle
    /// connections notice within [`IDLE_POLL`].
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accepts with throwaway connections.
        let _ = TcpStream::connect(self.addr);
        if let Some(m) = self.metrics_addr {
            let _ = TcpStream::connect(m);
        }
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_listener.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Block until a client sends the `shutdown` op (or the listener
    /// dies), then drain the worker pool. Used by the `cgra-serve`
    /// binary's main thread.
    pub fn join(mut self) {
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        self.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one client connection until EOF, protocol error, or server
/// shutdown.
fn serve_connection(
    stream: TcpStream,
    service: &Arc<MapService>,
    stop: &Arc<AtomicBool>,
    access: Option<&Arc<AccessLog>>,
) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let _ = stream.set_nodelay(true);
    // Poll reads so an idle connection can observe shutdown instead
    // of pinning its worker forever.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader);
    let mut writer = stream;
    // One request line and one reply line per connection, reused.
    let mut line = Vec::new();
    let mut reply = String::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Never read past one byte more than the cap. On timeout, bytes
        // read so far stay in `line`; keep accumulating until the
        // newline arrives.
        let room = (MAX_LINE + 1 - line.len()) as u64;
        let read = reader.by_ref().take(room).read_until(b'\n', &mut line);
        if line.len() > MAX_LINE && !line.ends_with(b"\n") {
            reply.clear();
            err_reply(&mut reply, "line too long");
            let _ = send_line(&mut writer, &mut reply);
            return;
        }
        match read {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        let decoded = match line.trim_ascii() {
            [] => None,
            text => Some(serde_json::from_slice_as::<Op>(text)),
        };
        line.clear();
        reply.clear();
        let mut was_shutdown = false;
        match decoded {
            None => continue,
            Some(Ok(op)) => was_shutdown = dispatch(op, service, access, &peer, &mut reply),
            Some(Err(e)) if e.is_syntax() => err_reply(&mut reply, &format!("bad JSON: {e}")),
            Some(Err(e)) => err_reply(&mut reply, &e.to_string()),
        }
        let sent = send_line(&mut writer, &mut reply);
        if was_shutdown {
            stop.store(true, Ordering::SeqCst);
            // Unblock accept(): an accepted socket's local address is
            // the listener's address.
            if let Ok(addr) = writer.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            return;
        }
        if sent.is_err() {
            return;
        }
    }
}

/// Terminate the line in `buf` and send it as one write.
fn send_line(w: &mut TcpStream, buf: &mut String) -> std::io::Result<()> {
    buf.push('\n');
    w.write_all(buf.as_bytes())
}

/// Handle one request and write its access-log line (when logging).
fn handle_logged(
    service: &Arc<MapService>,
    access: Option<&Arc<AccessLog>>,
    client: &str,
    req: &MapRequest,
) -> MapOutcome {
    let t0 = Instant::now();
    let out = service.handle(req);
    if let Some(log) = access {
        let mut rec = AccessRecord {
            seq: 0,
            t_us: 0,
            trace: out.trace.clone(),
            id: req.id,
            client: client.to_string(),
            kernel: req.kernel.label().to_string(),
            mapper: out.mapper.clone(),
            cache: out.cache,
            queue_us: out.queue_us,
            server_us: t0.elapsed().as_micros() as u64,
            ii: out.ii().unwrap_or(0),
            error: out.error.as_ref().map(|e| e.to_string()),
        };
        log.append(&mut rec);
    }
    out
}

/// Execute one op against the shared service and append its reply to
/// `out`. Returns whether it was a shutdown request.
fn dispatch(
    op: Op,
    service: &Arc<MapService>,
    access: Option<&Arc<AccessLog>>,
    client: &str,
    out: &mut String,
) -> bool {
    match op {
        Op::Map(req) => ok_reply(
            out,
            "outcome",
            &handle_logged(service, access, client, &req),
        ),
        Op::Batch(reqs) => {
            // Fan the batch across threads: hits return immediately,
            // misses queue on the service's admission gate, and the
            // single-flight table dedups identical in-batch keys.
            let outcomes: Vec<MapOutcome> = thread::scope(|scope| {
                let handles: Vec<_> = reqs
                    .iter()
                    .map(|r| scope.spawn(|| handle_logged(service, access, client, r)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            ok_reply(out, "outcomes", &outcomes);
        }
        Op::Cancel(id) => ok_reply(out, "cancelled", &service.cancel(id)),
        Op::Stats => ok_reply(out, "stats", &service.stats()),
        Op::Metrics => ok_reply(out, "metrics", &service.metrics_text()),
        Op::Fleet { requests, fabrics } => {
            // Plan against the live service so already-cached requests
            // are predicted warm, then run through the same handle()
            // path as everything else (caching, dedup, metrics).
            let farm: Vec<FleetFabric> = fabrics
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    FleetFabric::new(format!("f{i}:{}", fleet::fabric_label(spec)), *spec)
                })
                .collect();
            match fleet::plan(&requests, &farm, Some(service)) {
                Ok(p) => ok_reply(out, "fleet", &fleet::run(&requests, &farm, &p, service)),
                Err(e) => err_reply(out, &e.0),
            }
        }
        Op::Ping => ok_reply(out, "pong", &true),
        Op::Shutdown => {
            ok_reply(out, "stopping", &true);
            return true;
        }
    }
    false
}

/// The scrape endpoint: a deliberately minimal HTTP/1.1 responder over
/// `std::net`, one request per connection (`Connection: close`), in
/// the spirit of the line-delimited main protocol. `GET /metrics` (or
/// `/`) answers with the Prometheus text format, version 0.0.4;
/// anything else gets a 404.
fn serve_metrics_http(listener: TcpListener, service: Arc<MapService>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { break };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        // Read until the end of the request head; the request line is
        // all we route on.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 512];
        while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
            if buf.len() > 8192 {
                break;
            }
        }
        let head = String::from_utf8_lossy(&buf);
        let mut parts = head.lines().next().unwrap_or("").split_whitespace();
        let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        let response = if method == "GET" && (path == "/metrics" || path == "/") {
            let body = service.metrics_text();
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            )
        } else {
            "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_string()
        };
        let _ = stream.write_all(response.as_bytes());
        let _ = stream.flush();
    }
}

/// Blocking client for the serve protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request line, then the reply line, of the call in progress.
    line: String,
}

impl Client {
    /// Connect to a running `cgra-serve`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    /// One request/response round trip at the [`Value`] level: the
    /// whole reply.
    pub fn call(&mut self, request: &Value) -> Result<Value, RequestError> {
        self.line.clear();
        request.write_json(&mut self.line);
        self.round_trip(None)
    }

    /// One round trip of the request `{"op":"<op>",<fields>…}`, decoding
    /// the `T` under `key` of the reply.
    fn op<T: Deserialize>(
        &mut self,
        op: &str,
        fields: &[(&str, &dyn Serialize)],
        key: &str,
    ) -> Result<T, RequestError> {
        self.line.clear();
        serde::write_object(&mut self.line, |pair| {
            pair("op", &op);
            for (key, payload) in fields {
                pair(key, *payload);
            }
        });
        self.round_trip(Some(key))
    }

    /// Send the request in `self.line`, read the reply line into it and
    /// decode `{"ok":…,"error":…,"<key>":T}` in one pass, an `"ok":false`
    /// reply being the error. With no key, `T` is the whole reply.
    fn round_trip<T: Deserialize>(&mut self, key: Option<&str>) -> Result<T, RequestError> {
        send_line(&mut self.writer, &mut self.line)
            .map_err(|e| RequestError(format!("send: {e}")))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| RequestError(format!("recv: {e}")))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let mut reply = Reader::new(self.line.trim());
        let mut r = reply.clone();
        let (mut ok, mut error, mut payload) = (None, None, None);
        r.read_pairs(|r, k| {
            match &*k {
                "ok" if ok.is_none() => ok = Some(Value::read_json(r)?),
                "error" if error.is_none() => error = Some(Value::read_json(r)?),
                k if key == Some(k) && payload.is_none() => {
                    payload = Some(serde::read_or_skip(r, k)?)
                }
                _ => r.skip()?,
            }
            Ok(())
        })
        .and_then(|()| r.end())
        .map_err(|e| RequestError(e.to_string()))?;
        if ok.as_ref().and_then(Value::as_bool) != Some(true) {
            let msg = error
                .as_ref()
                .and_then(Value::as_str)
                .unwrap_or("unknown server error");
            return Err(RequestError(format!("server: {msg}")));
        }
        match key {
            Some(key) => payload.unwrap_or_else(|| T::missing(key)),
            None => T::read_json(&mut reply),
        }
        .map_err(de)
    }

    /// Map one request.
    pub fn map(&mut self, req: &MapRequest) -> Result<MapOutcome, RequestError> {
        self.op("map", &[("request", req)], "outcome")
    }

    /// Map a batch; outcomes come back in request order.
    pub fn batch(&mut self, reqs: &[MapRequest]) -> Result<Vec<MapOutcome>, RequestError> {
        self.op("batch", &[("requests", &reqs)], "outcomes")
    }

    /// Cancel an in-flight request by id.
    pub fn cancel(&mut self, id: u64) -> Result<bool, RequestError> {
        let cancelled: Option<Value> = self.op("cancel", &[("id", &id)], "cancelled")?;
        Ok(cancelled.and_then(|b| b.as_bool()).unwrap_or(false))
    }

    /// Fetch server statistics.
    pub fn stats(&mut self) -> Result<ServiceStats, RequestError> {
        self.op("stats", &[], "stats")
    }

    /// Fetch the Prometheus text-format metrics payload over the wire
    /// protocol (the same bytes `--metrics-addr` serves over HTTP).
    pub fn metrics(&mut self) -> Result<String, RequestError> {
        match self.op("metrics", &[], "metrics")? {
            Some(Value::Str(text)) => Ok(text),
            _ => Err("response missing `metrics`".into()),
        }
    }

    /// Schedule a queue of requests across a farm of fabrics on the
    /// server; returns the raw fleet report object.
    pub fn fleet(
        &mut self,
        reqs: &[MapRequest],
        fabrics: &[FabricSpec],
    ) -> Result<Value, RequestError> {
        let fields: [(&str, &dyn Serialize); 2] = [("requests", &reqs), ("fabrics", &fabrics)];
        let report: Option<Value> = self.op("fleet", &fields, "fleet")?;
        report.ok_or_else(|| RequestError("response missing `fleet`".into()))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), RequestError> {
        self.op::<Option<Value>>("ping", &[], "pong").map(drop)
    }

    /// Ask the server to stop.
    pub fn shutdown(&mut self) -> Result<(), RequestError> {
        self.op::<Option<Value>>("shutdown", &[], "stopping")
            .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_mapper_core::request::{CacheStatus, KernelSpec};

    fn request(id: u64, kernel: &str, mapper: &str) -> MapRequest {
        let mut req = MapRequest::new(KernelSpec::Named(kernel.into()), mapper);
        req.id = id;
        req
    }

    #[test]
    fn ops_decode_and_reject() {
        let v = serde_json::from_str(r#"{"op":"ping"}"#).unwrap();
        assert!(matches!(Op::from_json(&v).unwrap(), Op::Ping));
        let v = serde_json::from_str(r#"{"op":"cancel","id":7}"#).unwrap();
        assert!(matches!(Op::from_json(&v).unwrap(), Op::Cancel(7)));
        let v = serde_json::from_str(r#"{"op":"warp"}"#).unwrap();
        assert!(Op::from_json(&v).is_err());
        let v = serde_json::from_str(r#"{"op":"map"}"#).unwrap();
        assert!(Op::from_json(&v).is_err());
    }

    /// The daemon's reader answers every line as the tree did, value
    /// or error string, whatever the order and repetition of its keys.
    #[test]
    fn op_lines_read_what_the_tree_decodes() {
        let map = r#""request":{"kernel":{"named":"dot_product"},"id":3}"#;
        for line in [
            r#"{"op":"ping"}"#.to_string(),
            format!(r#"{{"op":"map",{map}}}"#),
            format!(r#"{{{map},"op":"map","pad":[[{{}}]],"op":"warp"}}"#),
            format!(r#"{{"op":"batch","requests":[{{"kernel":{{}}}}],{map}}}"#),
            r#"{"op":"cancel","id":-1}"#.into(),
            r#"{"op":"fleet","requests":[],"fabrics":[{"rows":2}]}"#.into(),
            r#"{"op":"fleet","requests":[]}"#.into(),
            r#"{"op":7,"request":{]}"#.into(),
            r#"{"op":"map","request":{"kernel":{"named":1}}} x"#.into(),
            r#"{"op":"map"}"#.into(),
            r#"["op","ping"]"#.into(),
            r#"{"request":{}}"#.into(),
            r#"{"op":"ping","pad":"\ud800"}"#.into(),
        ] {
            let tree = serde_json::from_str(&line)
                .map_err(|e| e.to_string())
                .and_then(|v| Op::from_value(&v).map_err(|e| e.to_string()));
            let read = serde_json::from_str_as::<Op>(&line).map_err(|e| e.to_string());
            assert_eq!(format!("{read:?}"), format!("{tree:?}"), "{line}");
        }
    }

    #[test]
    fn server_round_trips_map_stats_ping() {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.ping().unwrap();

        let out = client
            .map(&request(1, "dot_product", "modulo-list"))
            .unwrap();
        assert!(out.succeeded(), "serve map failed: {:?}", out.error);
        assert_eq!(out.cache, CacheStatus::Miss);

        let again = client
            .map(&request(2, "dot_product", "modulo-list"))
            .unwrap();
        assert_eq!(again.cache, CacheStatus::Hit);
        assert_eq!(again.id, 2, "hit must be personalized to the new id");
        assert_eq!(again.mapping, out.mapping);

        let stats = client.stats().unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        // The wire round trip covers every field, including the
        // telemetry additions (coalesced/evictions/…/cores).
        assert_eq!(stats, server.service().stats());
        assert_eq!(stats.cores, 2);

        // Both responses carry distinct server-minted traces.
        assert_eq!(out.trace.len(), 16);
        assert_eq!(again.trace.len(), 16);
        assert_ne!(out.trace, again.trace);
    }

    #[test]
    fn fleet_op_schedules_across_fabrics() {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let reqs: Vec<MapRequest> = ["dot_product", "accumulate", "fir4"]
            .iter()
            .enumerate()
            .map(|(i, k)| request(i as u64 + 1, k, "modulo-list"))
            .collect();
        let fabrics = [
            FabricSpec::default(),
            FabricSpec {
                rows: 6,
                cols: 6,
                ..FabricSpec::default()
            },
        ];
        let report = client.fleet(&reqs, &fabrics).unwrap();
        assert_eq!(report.get("scheduled").and_then(Value::as_u64), Some(3));
        assert_eq!(report.get("failed").and_then(Value::as_u64), Some(0));
        assert!(report.get("makespan_ms").and_then(Value::as_f64).unwrap() > 0.0);
        let jobs = report.get("jobs").and_then(Value::as_array).unwrap();
        let mut indices: Vec<u64> = jobs
            .iter()
            .map(|j| j.get("queue_index").and_then(Value::as_u64).unwrap())
            .collect();
        indices.sort_unstable();
        assert_eq!(
            indices,
            vec![0, 1, 2],
            "every request scheduled exactly once"
        );
        assert_eq!(
            report
                .get("fabrics")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            2
        );
        // The jobs ran through the shared service: a warm-aware
        // re-plan now sees every key cached.
        assert!(
            server.service().is_cached(&reqs[0]) || {
                // Requests default to the 4x4 fabric; probe the spec the
                // scheduler actually used.
                let mut probe = reqs[0].clone();
                probe.fabric = fabrics[1];
                server.service().is_cached(&probe)
            }
        );
        let v = serde_json::from_str(r#"{"op":"fleet","requests":[]}"#).unwrap();
        assert!(Op::from_json(&v).is_err(), "fleet needs a fabrics array");
        client.shutdown().unwrap();
    }

    /// Minimal HTTP GET against the metrics listener; returns
    /// (status line, body).
    fn scrape(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let status = text.lines().next().unwrap_or("").to_string();
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn metrics_op_and_http_scrape_agree() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeOptions {
                metrics_addr: Some("127.0.0.1:0".into()),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let out = client
            .map(&request(1, "dot_product", "modulo-list"))
            .unwrap();
        assert!(out.succeeded());

        let text = client.metrics().unwrap();
        assert!(
            text.contains("cgra_serve_requests_total 1"),
            "wire metrics:\n{text}"
        );

        let maddr = server.metrics_addr().expect("listener enabled");
        let (status, body) = scrape(maddr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(
            body.contains("cgra_serve_requests_total 1"),
            "scrape:\n{body}"
        );
        assert!(body.contains("cgra_serve_cache_misses_total 1"));
        assert!(body.contains("cgra_serve_request_us_count 1"));
        assert!(body.contains("cgra_serve_queue_wait_us_count 1"));

        let (status, _) = scrape(maddr, "/no-such-page");
        assert!(status.contains("404"), "{status}");
    }

    #[test]
    fn access_log_writes_one_replayable_record_per_request() {
        let dir = std::env::temp_dir().join(format!("cgra-serve-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("access.jsonl");
        let mut server = Server::bind(
            "127.0.0.1:0",
            ServeOptions {
                access_log: Some(path.clone()),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let miss = client
            .map(&request(1, "dot_product", "modulo-list"))
            .unwrap();
        let hit = client
            .map(&request(2, "dot_product", "modulo-list"))
            .unwrap();
        server.shutdown();

        let text = std::fs::read_to_string(&path).unwrap();
        let recs: Vec<AccessRecord> = text
            .lines()
            .map(|l| serde_json::from_value(&serde_json::from_str(l).unwrap()).unwrap())
            .collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].cache, CacheStatus::Miss);
        assert_eq!(recs[1].cache, CacheStatus::Hit);
        assert_eq!(recs[0].trace, miss.trace);
        assert_eq!(recs[1].trace, hit.trace);
        assert_eq!(recs[0].kernel, "dot_product");
        assert!(recs[0].server_us >= recs[1].server_us.min(1));
        assert!(recs[0].error.is_none());
        assert!(recs[0].client.contains("127.0.0.1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_preserves_order_and_dedups() {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let reqs = vec![
            request(10, "accumulate", "modulo-list"),
            request(11, "dot_product", "modulo-list"),
            request(12, "accumulate", "modulo-list"),
        ];
        let outs = client.batch(&reqs).unwrap();
        assert_eq!(outs.len(), 3);
        for (req, out) in reqs.iter().zip(&outs) {
            assert_eq!(req.id, out.id);
            assert!(out.succeeded(), "{}: {:?}", req.kernel.label(), out.error);
        }
        assert_eq!(outs[0].kernel, outs[2].kernel);
        assert_eq!(outs[0].mapping, outs[2].mapping);
    }

    #[test]
    fn malformed_lines_get_protocol_errors_not_disconnects() {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let err = client
            .call(&Value::Object(vec![(
                "op".into(),
                Value::Str("warp".into()),
            )]))
            .unwrap_err();
        assert!(err.0.contains("unknown op"), "{}", err.0);
        // The connection survives a protocol error.
        client.ping().unwrap();

        // A present field of the wrong type or out of range is an
        // error naming its path — not a default, not a truncation
        // (each of these used to decode to a different request than
        // the one the client sent).
        for (field, path) in [
            (r#""fabric":{"rows":65537}"#, "request.fabric.rows"),
            (r#""config":{"max_ii":"3"}"#, "request.config.max_ii"),
            (r#""id":-1"#, "request.id"),
            (r#""config":{"seed":1.5}"#, "request.config.seed"),
        ] {
            let line = format!(
                r#"{{"op":"map","request":{{"kernel":{{"named":"dot_product"}},{field}}}}}"#
            );
            let err = client
                .call(&serde_json::from_str(&line).unwrap())
                .unwrap_err();
            assert!(err.0.contains(&format!("{path}: ")), "{field}: {}", err.0);
            client.ping().unwrap();
        }
        assert_eq!(server.service().stats().requests, 0, "none was admitted");
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.addr();
        let mut client = Client::connect(addr).unwrap();
        client.shutdown().unwrap();
        server.shutdown();
        // After join, new round trips must fail.
        let mut probe = match Client::connect(addr) {
            Ok(c) => c,
            Err(_) => return,
        };
        assert!(probe.ping().is_err());
    }
}
