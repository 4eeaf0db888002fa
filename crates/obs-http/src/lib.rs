//! Embedded HTTP telemetry plane for live SWORD sessions.
//!
//! A small blocking HTTP/1.1 server over `std::net::TcpListener` — no
//! external crates, in keeping with the workspace's std-only
//! discipline — that any long-running mode (`sword run --live`,
//! `sword watch`, `sword analyze`) mounts with `--listen ADDR`:
//!
//! | endpoint    | payload |
//! |-------------|---------|
//! | `/metrics`  | Prometheus text exposition straight from the live [`sword_obs::Registry`] |
//! | `/status`   | JSON snapshot: watermark, queue depths, races so far, memory vs. the paper bound |
//! | `/races`    | current race list with evidence ids |
//! | `/healthz`  | liveness + overload/backpressure state |
//! | `/events`   | SSE stream of journal events (`?layer=` filters, `?limit=` one-shot reads) |
//!
//! The exporter obeys the discipline it reports on: a bounded worker
//! pool and accept queue (overflow answers 503 and counts a shed),
//! snapshot responses cached for a short TTL so scrape storms cannot
//! amplify registry reads, per-client bounded SSE taps that drop events
//! rather than buffer, and its own cost metered into the registry it
//! serves (`sword_exporter_*`).

#![forbid(unsafe_code)]

pub mod http;
pub mod sse;

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sword_obs::json::Value;
use sword_obs::{Counter, Gauge, Histogram, Layer, Obs};

use http::{read_request, write_response, Request};
use sse::{stream_events, SseClient};

/// A provider of one JSON document (status extras, race lists). Called
/// on demand from exporter worker threads; must only *read* shared
/// state so telemetry can never perturb analysis results.
pub type JsonFn = Arc<dyn Fn() -> Value + Send + Sync>;

/// What the server serves: an observability context plus optional
/// mode-specific providers.
#[derive(Clone)]
pub struct TelemetryHandles {
    /// Journal (SSE source) and registry (/metrics, /status).
    pub obs: Obs,
    /// Extra top-level `/status` fields (session path, watermark,
    /// races-so-far, thread count) merged into the snapshot.
    pub status: Option<JsonFn>,
    /// The `/races` document; `[]` when absent (e.g. collector-only
    /// modes that never analyze).
    pub races: Option<JsonFn>,
}

impl TelemetryHandles {
    /// Handles over one observability context, no extra providers.
    pub fn new(obs: Obs) -> TelemetryHandles {
        TelemetryHandles { obs, status: None, races: None }
    }

    /// Attaches a `/status` extras provider.
    pub fn with_status(mut self, f: JsonFn) -> TelemetryHandles {
        self.status = Some(f);
        self
    }

    /// Attaches a `/races` provider.
    pub fn with_races(mut self, f: JsonFn) -> TelemetryHandles {
        self.races = Some(f);
        self
    }
}

/// Server tuning knobs. Defaults are sized so the exporter's footprint
/// stays far below one collector thread's budget: 2 workers, a
/// 32-connection accept queue, 8 SSE clients × 1024-event taps.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:9464` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads serving snapshot endpoints.
    pub workers: usize,
    /// Accept-queue bound; connections beyond it are shed with 503.
    pub pending: usize,
    /// Snapshot cache TTL in milliseconds for `/metrics` and `/status`.
    pub cache_ms: u64,
    /// Per-SSE-client tap capacity (events buffered before shedding).
    pub sse_queue: usize,
    /// Concurrent SSE client cap; further clients are shed with 503.
    pub max_sse_clients: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            pending: 32,
            cache_ms: 100,
            sse_queue: 1024,
            max_sse_clients: 8,
        }
    }
}

impl ServerConfig {
    /// Config bound to `addr` with default tuning.
    pub fn bind(addr: impl Into<String>) -> ServerConfig {
        ServerConfig { addr: addr.into(), ..ServerConfig::default() }
    }
}

// Exporter self-metering handles, registered into the registry the
// exporter itself serves — its cost is visible on every scrape.
struct ExporterMetrics {
    requests: Counter,
    request_nanos: Histogram,
    bytes: Counter,
    shed: Counter,
    sse_clients: Gauge,
    sse_dropped_events: Counter,
    sse_dropped_clients: Counter,
}

impl ExporterMetrics {
    fn register(obs: &Obs) -> ExporterMetrics {
        let r = &obs.registry;
        ExporterMetrics {
            requests: r.counter("sword_exporter_requests_total", "telemetry requests served"),
            request_nanos: r
                .histogram("sword_exporter_request_nanos", "telemetry request service time"),
            bytes: r.counter("sword_exporter_bytes_total", "telemetry response bytes written"),
            shed: r.counter(
                "sword_exporter_shed_total",
                "telemetry connections shed under overload (503)",
            ),
            sse_clients: r.gauge("sword_exporter_sse_clients", "connected SSE event streams"),
            sse_dropped_events: r.counter(
                "sword_exporter_sse_dropped_events_total",
                "SSE events dropped for slow clients",
            ),
            sse_dropped_clients: r.counter(
                "sword_exporter_sse_dropped_clients_total",
                "SSE clients disconnected for stalling",
            ),
        }
    }
}

struct Shared {
    handles: TelemetryHandles,
    metrics: ExporterMetrics,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    started: Instant,
    cache: Mutex<HashMap<&'static str, (Instant, String)>>,
    sse_active: AtomicUsize,
}

/// A running telemetry server. Dropping it without [`shutdown`] leaves
/// the threads serving until process exit (fine for run-to-completion
/// CLI modes); `shutdown` stops them deterministically.
///
/// [`shutdown`]: TelemetryServer::shutdown
pub struct TelemetryServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds and starts serving. Endpoint threads hold only clones of
    /// the registry/journal handles, so everything served reflects live
    /// state without copying it.
    pub fn start(config: ServerConfig, handles: TelemetryHandles) -> io::Result<TelemetryServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = ExporterMetrics::register(&handles.obs);
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            handles,
            metrics,
            config,
            shutdown: Arc::clone(&shutdown),
            started: Instant::now(),
            cache: Mutex::new(HashMap::new()),
            sse_active: AtomicUsize::new(0),
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(shared.config.pending.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::new();
        for i in 0..shared.config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("obs-http-{i}"))
                    .spawn(move || worker_loop(rx, shared))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("obs-http-accept".to_string())
                .spawn(move || accept_loop(listener, tx, shared))?
        };
        Ok(TelemetryServer { local_addr, shared, acceptor: Some(acceptor), workers })
    }

    /// The bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains the worker pool, and joins every server
    /// thread. SSE clients observe the flag within their keep-alive
    /// interval and disconnect.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Give detached SSE threads a bounded window to observe the
        // flag so their taps unsubscribe before the journal's next use.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.sse_active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn accept_loop(listener: TcpListener, tx: SyncSender<TcpStream>, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Overload: shed at the door rather than queue without
                // bound. The client gets an honest 503.
                shared.metrics.shed.inc();
                let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
                let _ = write_response(
                    &mut stream,
                    503,
                    "application/json",
                    "{\"ok\":false,\"error\":\"overloaded\"}",
                );
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

fn worker_loop(rx: Arc<Mutex<Receiver<TcpStream>>>, shared: Arc<Shared>) {
    loop {
        let stream = {
            let rx = rx.lock().expect("worker queue lock");
            rx.recv()
        };
        let Ok(stream) = stream else { break };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        handle_connection(stream, &shared);
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let t0 = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let request = match read_request(&mut stream) {
        Ok(Some(request)) => request,
        Ok(None) => {
            let _ = write_response(&mut stream, 400, "text/plain", "bad request\n");
            return;
        }
        Err(_) => return,
    };
    shared.metrics.requests.inc();
    if request.method != "GET" {
        let _ = write_response(&mut stream, 405, "text/plain", "only GET is served\n");
        return;
    }
    let written = match request.path.as_str() {
        "/events" => {
            serve_sse(stream, &request, shared);
            shared.metrics.request_nanos.record(t0.elapsed().as_nanos() as u64);
            return;
        }
        "/metrics" => {
            let body =
                cached(shared, "/metrics", || shared.handles.obs.registry.render_prometheus());
            write_response(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/status" => {
            let body = cached(shared, "/status", || status_json(shared).render());
            write_response(&mut stream, 200, "application/json", &body)
        }
        "/races" => {
            let body = match &shared.handles.races {
                Some(f) => f().render(),
                None => "[]".to_string(),
            };
            write_response(&mut stream, 200, "application/json", &body)
        }
        "/healthz" => write_response(&mut stream, 200, "application/json", &healthz_json(shared)),
        _ => write_response(&mut stream, 404, "text/plain", "unknown endpoint\n"),
    };
    if let Ok(n) = written {
        shared.metrics.bytes.add(n as u64);
    }
    shared.metrics.request_nanos.record(t0.elapsed().as_nanos() as u64);
}

// SSE clients park for the life of the stream, so they get their own
// thread instead of occupying the bounded snapshot pool; the count is
// capped and excess clients are shed.
fn serve_sse(mut stream: TcpStream, request: &Request, shared: &Arc<Shared>) {
    let cap = shared.config.max_sse_clients.max(1);
    // Subscribe before the client count becomes visible: whoever sees the
    // count rise may record and drain at once, and a tap that lands after
    // that drain has missed those events for good.
    let tap = shared.handles.obs.journal.tap(shared.config.sse_queue);
    if shared.sse_active.fetch_add(1, Ordering::SeqCst) >= cap {
        shared.sse_active.fetch_sub(1, Ordering::SeqCst);
        shared.metrics.shed.inc();
        let _ = write_response(
            &mut stream,
            503,
            "application/json",
            "{\"ok\":false,\"error\":\"sse client limit\"}",
        );
        return;
    }
    shared.metrics.sse_clients.set(shared.sse_active.load(Ordering::SeqCst) as u64);
    let layers: Vec<Layer> = request
        .query_param("layer")
        .map(|v| v.split(',').filter_map(Layer::from_name).collect())
        .unwrap_or_default();
    let limit = request.query_param("limit").and_then(|v| v.parse().ok()).unwrap_or(0);
    let client =
        SseClient { tap, layers, limit, dropped_events: shared.metrics.sse_dropped_events.clone() };
    let thread_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new().name("obs-http-sse".to_string()).spawn(move || {
        let result = stream_events(&mut stream, client, &thread_shared.shutdown);
        match result {
            Ok(n) => thread_shared.metrics.bytes.add(n as u64),
            Err(_) => thread_shared.metrics.sse_dropped_clients.inc(),
        }
        thread_shared.sse_active.fetch_sub(1, Ordering::SeqCst);
        thread_shared
            .metrics
            .sse_clients
            .set(thread_shared.sse_active.load(Ordering::SeqCst) as u64);
    });
    if spawned.is_err() {
        shared.sse_active.fetch_sub(1, Ordering::SeqCst);
    }
}

// Serves a cached snapshot when it is younger than the TTL; otherwise
// recomputes. Under a scrape storm each window costs one registry read.
fn cached(shared: &Shared, key: &'static str, render: impl FnOnce() -> String) -> String {
    let ttl = Duration::from_millis(shared.config.cache_ms);
    let mut cache = shared.cache.lock().expect("cache lock");
    if let Some((at, body)) = cache.get(key) {
        if at.elapsed() < ttl {
            return body.clone();
        }
    }
    let body = render();
    cache.insert(key, (Instant::now(), body.clone()));
    body
}

fn status_json(shared: &Shared) -> Value {
    let obs = &shared.handles.obs;
    let mut pairs = vec![
        ("ok".to_string(), Value::Bool(true)),
        ("now_us".to_string(), Value::Num(obs.journal.now_us() as f64)),
        ("uptime_us".to_string(), Value::Num(shared.started.elapsed().as_micros() as f64)),
        ("journal_dropped_events".to_string(), Value::Num(obs.journal.dropped_events() as f64)),
        ("sse_clients".to_string(), Value::Num(shared.sse_active.load(Ordering::SeqCst) as f64)),
    ];
    if let Some(f) = &shared.handles.status {
        if let Value::Obj(extra) = f() {
            pairs.extend(extra);
        }
    }
    let snapshot = obs.registry.snapshot();
    let metrics: Vec<(String, Value)> =
        snapshot.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect();
    // Pre-grouped views so dashboards need no name parsing: every
    // `*_queue_depth` gauge, and quantiles per histogram family.
    let queues: Vec<(String, Value)> = snapshot
        .iter()
        .filter(|(k, _)| k.ends_with("_queue_depth"))
        .map(|(k, v)| (k.clone(), Value::Num(*v)))
        .collect();
    let stages: Vec<Value> = sword_obs::histogram_rows(&snapshot)
        .into_iter()
        .map(|row| {
            Value::Obj(vec![
                ("name".to_string(), Value::Str(row.name)),
                ("count".to_string(), Value::Num(row.count as f64)),
                ("p50".to_string(), Value::Num(row.p50 as f64)),
                ("p95".to_string(), Value::Num(row.p95 as f64)),
                ("p99".to_string(), Value::Num(row.p99 as f64)),
                ("max".to_string(), Value::Num(row.max as f64)),
            ])
        })
        .collect();
    pairs.push(("queues".to_string(), Value::Obj(queues)));
    pairs.push(("histograms".to_string(), Value::Arr(stages)));
    pairs.push(("metrics".to_string(), Value::Obj(metrics)));
    Value::Obj(pairs)
}

fn healthz_json(shared: &Shared) -> String {
    let overload = shared.sse_active.load(Ordering::SeqCst) >= shared.config.max_sse_clients.max(1);
    Value::Obj(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("overload".to_string(), Value::Bool(overload)),
        ("sse_clients".to_string(), Value::Num(shared.sse_active.load(Ordering::SeqCst) as f64)),
        ("shed_total".to_string(), Value::Num(shared.metrics.shed.get() as f64)),
        ("workers".to_string(), Value::Num(shared.config.workers as f64)),
        ("uptime_us".to_string(), Value::Num(shared.started.elapsed().as_micros() as f64)),
    ])
    .render()
}

/// Minimal blocking HTTP GET against a telemetry endpoint; returns the
/// response body. Shared by `sword top` and the tests — the same
/// zero-dependency discipline as the server side.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> io::Result<String> {
    use std::io::{Read, Write};
    let sock_addr: SocketAddr = addr
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad address: {e}")))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let Some(split) = response.find("\r\n\r\n") else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "no response head"));
    };
    let head = &response[..split];
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
    if status != 200 {
        return Err(io::Error::other(format!("HTTP {status} from {path}")));
    }
    Ok(response[split + 4..].to_string())
}
