//! Embedded HTTP telemetry plane for live SWORD sessions.
//!
//! A small blocking HTTP/1.1 server over `std::net::TcpListener` — no
//! external crates, in keeping with the workspace's std-only
//! discipline — that any long-running mode (`sword run --live`,
//! `sword watch`, `sword analyze`) mounts with `--listen ADDR`. Every
//! endpoint answers one snapshot and closes the connection:
//!
//! | endpoint    | payload |
//! |-------------|---------|
//! | `/metrics`  | Prometheus text exposition straight from the live [`sword_obs::Registry`] |
//! | `/status`   | JSON snapshot: provider fields (session, watermark, races so far) and the flat `metrics` view |
//! | `/races`    | current race list with evidence ids |
//! | `/healthz`  | liveness, shed count, worker count, uptime |
//!
//! The exporter obeys the discipline it reports on: a fixed pool of two
//! worker threads behind an accept queue of 32 connections (a
//! connection beyond it is answered 503 and counted as a shed), and
//! its own cost metered into the registry it serves
//! (`sword_exporter_*`). The only setting is the listen address.

#![forbid(unsafe_code)]

mod http;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sword_obs::json::Value;
use sword_obs::{Counter, Histogram, Obs};

use http::{read_request, write_response};

// Worker threads serving requests. Two bound how much rendering a
// scrape storm can cause to the run being observed.
const WORKERS: usize = 2;

// Accepted connections waiting for a worker; a connection that finds
// the queue full is shed with 503.
const PENDING: usize = 32;

/// A provider of one JSON document (status extras, race lists). Called
/// on demand from exporter worker threads; must only *read* shared
/// state so telemetry can never perturb analysis results.
pub type JsonFn = Arc<dyn Fn() -> Value + Send + Sync>;

/// What the server serves: an observability context plus optional
/// mode-specific providers.
#[derive(Clone)]
pub struct TelemetryHandles {
    /// Registry (`/metrics`, `/status`) and journal (`now_us`).
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

// Exporter self-metering handles, registered into the registry the
// exporter itself serves — its cost is visible on every scrape.
struct ExporterMetrics {
    requests: Counter,
    request_nanos: Histogram,
    bytes: Counter,
    shed: Counter,
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
        }
    }
}

struct Shared {
    handles: TelemetryHandles,
    metrics: ExporterMetrics,
    shutdown: AtomicBool,
    started: Instant,
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
    /// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free one) and
    /// starts serving. Endpoint threads hold only clones of the registry
    /// and journal handles, so everything served reflects live state
    /// without copying it.
    pub fn start(addr: &str, handles: TelemetryHandles) -> io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = ExporterMetrics::register(&handles.obs);
        let shared = Arc::new(Shared {
            handles,
            metrics,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(PENDING);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(WORKERS);
        for i in 0..WORKERS {
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
    /// thread.
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

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
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
        "/metrics" => write_response(
            &mut stream,
            200,
            "text/plain; version=0.0.4",
            &shared.handles.obs.registry.render_prometheus(),
        ),
        "/status" => {
            write_response(&mut stream, 200, "application/json", &status_json(shared).render())
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

fn status_json(shared: &Shared) -> Value {
    let obs = &shared.handles.obs;
    let mut pairs = vec![
        ("ok".to_string(), Value::Bool(true)),
        ("now_us".to_string(), Value::Num(obs.journal.now_us() as f64)),
        ("uptime_us".to_string(), Value::Num(shared.started.elapsed().as_micros() as f64)),
    ];
    if let Some(f) = &shared.handles.status {
        if let Value::Obj(extra) = f() {
            pairs.extend(extra);
        }
    }
    // The flat registry snapshot, in registration order (the journal's
    // drop count is its `sword_journal_dropped_events_total` row): `sword
    // top` renders it as every report does, dashboards read it as is.
    let metrics = obs.registry.snapshot().into_iter().map(|(k, v)| (k, Value::Num(v))).collect();
    pairs.push(("metrics".to_string(), Value::Obj(metrics)));
    Value::Obj(pairs)
}

fn healthz_json(shared: &Shared) -> String {
    Value::Obj(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("shed_total".to_string(), Value::Num(shared.metrics.shed.get() as f64)),
        ("workers".to_string(), Value::Num(WORKERS as f64)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn shed_total(obs: &Obs) -> f64 {
        let snapshot = obs.registry.snapshot();
        snapshot.iter().find(|(name, _)| name == "sword_exporter_shed_total").unwrap().1
    }

    // Whether the exporter answered this connection 503 on its own.
    fn was_shed(mut stream: &TcpStream, wait: Duration) -> bool {
        stream.set_read_timeout(Some(wait)).unwrap();
        let mut head = [0u8; 12];
        matches!(stream.read(&mut head), Ok(n) if head[..n].starts_with(b"HTTP/1.1 503"))
    }

    #[test]
    fn a_full_accept_queue_sheds_with_503_and_counts_it() {
        let obs = Obs::new();
        let server = TelemetryServer::start("127.0.0.1:0", TelemetryHandles::new(obs.clone()))
            .expect("bind");
        let addr = server.local_addr();
        // Connections that send nothing: each worker blocks reading one
        // (for up to its 2 s read timeout) and the queue fills with the
        // rest. Whether or not the workers have taken theirs yet, these
        // leave no room for one more.
        let idle: Vec<TcpStream> =
            (0..WORKERS + PENDING).map(|_| TcpStream::connect(addr).unwrap()).collect();

        // The next connection finds the queue full: 503 at the door,
        // before it sends a byte.
        let next = TcpStream::connect(addr).unwrap();
        assert!(was_shed(&next, Duration::from_secs(2)), "a full queue must shed");
        // The acceptor handles connections in order, so any idle one it
        // shed already holds its 503. Every shed is counted.
        let idle_shed = idle.iter().filter(|s| was_shed(s, Duration::from_millis(20))).count();
        let mut shed = 1 + idle_shed as u64;
        assert_eq!(shed_total(&obs), shed as f64);

        // Closing the idle connections frees the pool, and `/healthz`
        // serves the count (a retry that is shed itself counts too).
        drop(idle);
        let deadline = Instant::now() + Duration::from_secs(5);
        let health = loop {
            match http_get(&addr.to_string(), "/healthz", Duration::from_secs(1)) {
                Ok(body) => break body,
                Err(e) => {
                    shed += u64::from(e.to_string().contains("HTTP 503"));
                    assert!(Instant::now() < deadline, "pool never recovered: {e}");
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let doc = sword_obs::json::parse(&health).unwrap();
        assert_eq!(doc.get("shed_total").and_then(Value::as_u64), Some(shed));
        server.shutdown();
    }
}
