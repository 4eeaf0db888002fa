//! Endpoint behavior: golden responses for `/metrics`, `/status`,
//! `/healthz`, SSE framing, and snapshot consistency under concurrent
//! registry mutation.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sword_obs::json::{self, Value};
use sword_obs::{Layer, Obs};
use sword_obs_http::{http_get, JsonFn, ServerConfig, TelemetryHandles, TelemetryServer};

const GET_TIMEOUT: Duration = Duration::from_secs(5);

fn start(obs: &Obs, config: ServerConfig, handles: TelemetryHandles) -> (TelemetryServer, String) {
    let _ = obs;
    let server = TelemetryServer::start(config, handles).expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn metrics_endpoint_serves_prometheus_with_quantiles() {
    let obs = Obs::new();
    obs.registry.counter("sword_flushes_total", "flushes").add(7);
    obs.registry.gauge("sword_writer_queue_depth", "depth").set(3);
    let h = obs.registry.histogram("sword_solver_call_nanos", "solver latency");
    for v in [100, 200, 400, 100_000] {
        h.record(v);
    }
    let (server, addr) =
        start(&obs, ServerConfig::bind("127.0.0.1:0"), TelemetryHandles::new(obs.clone()));

    let body = http_get(&addr, "/metrics", GET_TIMEOUT).unwrap();
    assert!(body.contains("# TYPE sword_flushes_total counter"), "{body}");
    assert!(body.contains("sword_flushes_total 7"), "{body}");
    assert!(body.contains("sword_writer_queue_depth 3"), "{body}");
    assert!(body.contains("sword_solver_call_nanos_count 4"), "{body}");
    assert!(body.contains("sword_solver_call_nanos{quantile=\"0.5\"}"), "{body}");
    assert!(body.contains("sword_solver_call_nanos{quantile=\"0.95\"}"), "{body}");
    assert!(body.contains("sword_solver_call_nanos{quantile=\"0.99\"}"), "{body}");
    // The exporter meters itself in the same registry it serves.
    let again = http_get(&addr, "/metrics", GET_TIMEOUT).unwrap();
    assert!(again.contains("sword_exporter_requests_total"), "{again}");
    server.shutdown();
}

#[test]
fn status_endpoint_merges_provider_fields_and_groups_views() {
    let obs = Obs::new();
    obs.registry.gauge("sword_flush_queue_depth", "depth").set(5);
    let h = obs.registry.histogram("sword_stage_wait_nanos", "wait");
    h.record(1000);
    let status: JsonFn = Arc::new(|| {
        Value::Obj(vec![
            ("session".to_string(), Value::Str("/tmp/s".to_string())),
            ("races".to_string(), Value::Num(2.0)),
            ("generation".to_string(), Value::Num(9.0)),
        ])
    });
    let handles = TelemetryHandles::new(obs.clone()).with_status(status);
    let (server, addr) = start(&obs, ServerConfig::bind("127.0.0.1:0"), handles);

    let body = http_get(&addr, "/status", GET_TIMEOUT).unwrap();
    let doc = json::parse(&body).expect("status is valid JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("session").and_then(Value::as_str), Some("/tmp/s"));
    assert_eq!(doc.get("races").and_then(Value::as_u64), Some(2));
    assert_eq!(doc.get("generation").and_then(Value::as_u64), Some(9));
    // Grouped views: queue gauges and histogram quantiles.
    let queues = doc.get("queues").unwrap();
    assert_eq!(queues.get("sword_flush_queue_depth").and_then(Value::as_u64), Some(5));
    let hists = doc.get("histograms").unwrap().as_arr().unwrap();
    assert!(hists
        .iter()
        .any(|r| r.get("name").and_then(Value::as_str) == Some("sword_stage_wait_nanos")));
    // Full flat snapshot rides along for delta-based dashboards.
    let metrics = doc.get("metrics").unwrap();
    assert!(metrics.get("sword_stage_wait_nanos_p95").is_some());
    server.shutdown();
}

#[test]
fn healthz_and_races_and_unknown_paths() {
    let obs = Obs::new();
    let races: JsonFn = Arc::new(|| {
        Value::Arr(vec![Value::Obj(vec![
            ("id".to_string(), Value::Num(0.0)),
            ("evidence".to_string(), Value::Str("a.rs:1|a.rs:2".to_string())),
        ])])
    });
    let handles = TelemetryHandles::new(obs.clone()).with_races(races);
    let (server, addr) = start(&obs, ServerConfig::bind("127.0.0.1:0"), handles);

    let health = http_get(&addr, "/healthz", GET_TIMEOUT).unwrap();
    let doc = json::parse(&health).unwrap();
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("overload"), Some(&Value::Bool(false)));
    assert!(doc.get("sse_clients").is_some());
    assert!(doc.get("shed_total").is_some());

    let races = http_get(&addr, "/races", GET_TIMEOUT).unwrap();
    let doc = json::parse(&races).unwrap();
    assert_eq!(doc.as_arr().unwrap().len(), 1);
    assert_eq!(
        doc.as_arr().unwrap()[0].get("evidence").and_then(Value::as_str),
        Some("a.rs:1|a.rs:2")
    );

    assert!(http_get(&addr, "/nope", GET_TIMEOUT).is_err());
    server.shutdown();
}

#[test]
fn sse_streams_framed_journal_events_with_layer_filter() {
    let obs = Obs::new();
    let handles = TelemetryHandles::new(obs.clone());
    let (server, addr) = start(&obs, ServerConfig::bind("127.0.0.1:0"), handles);

    // Open the SSE stream: runtime layer only, close after 2 events.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(
            format!("GET /events?layer=runtime&limit=2 HTTP/1.1\r\nHost: {addr}\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Wait for the subscription to land, then record and drain (the
    // tap forwards at drain time, like the periodic journal sink).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = http_get(&addr, "/healthz", GET_TIMEOUT).unwrap();
        let doc = json::parse(&health).unwrap();
        if doc.get("sse_clients").and_then(Value::as_u64) == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "SSE client never registered");
        std::thread::sleep(Duration::from_millis(10));
    }
    let rt = obs.journal.for_thread(Layer::Runtime, "app-0");
    let off = obs.journal.for_thread(Layer::Offline, "oa");
    rt.instant("flush-a", vec![("bytes".into(), 64.0)]);
    off.instant("discover", vec![]); // filtered out
    rt.instant("flush-b", vec![]);
    obs.journal.drain();

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Skip response head.
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" {
            break;
        }
    }
    // One deadline for the whole read: keepalives arrive twice a second
    // and each resets the socket's read timeout, so lost events would
    // otherwise spin here forever instead of failing.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut events = Vec::new();
    while events.len() < 2 {
        assert!(Instant::now() < deadline, "only {} of 2 events arrived", events.len());
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        if line.starts_with(": keepalive") {
            continue;
        }
        if line.trim() == "event: journal" {
            let mut data = String::new();
            reader.read_line(&mut data).unwrap();
            let payload = data.strip_prefix("data: ").expect("data line follows event line");
            let doc = json::parse(payload.trim()).expect("SSE payload is one JSON event");
            events.push(doc);
        }
    }
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].get("name").and_then(Value::as_str), Some("flush-a"));
    assert_eq!(events[0].get("layer").and_then(Value::as_str), Some("runtime"));
    assert_eq!(events[1].get("name").and_then(Value::as_str), Some("flush-b"));
    server.shutdown();
}

#[test]
fn snapshots_stay_consistent_under_concurrent_mutation() {
    let obs = Obs::new();
    let counter = obs.registry.counter("sword_mut_total", "mutated");
    let hist = obs.registry.histogram("sword_mut_nanos", "mutated");
    let handles = TelemetryHandles::new(obs.clone());
    // TTL 0 disables the cache so every read hits the live registry.
    let mut config = ServerConfig::bind("127.0.0.1:0");
    config.cache_ms = 0;
    let (server, addr) = start(&obs, config, handles);

    let stop = Arc::new(AtomicBool::new(false));
    let mut mutators = Vec::new();
    for t in 0..4 {
        let stop = Arc::clone(&stop);
        let counter = counter.clone();
        let hist = hist.clone();
        let registry = obs.registry.clone();
        mutators.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                counter.inc();
                hist.record(i % 4096 + 1);
                if i.is_multiple_of(64) {
                    // Metric registration races against snapshot reads.
                    registry.gauge(&format!("sword_mut_gauge_{t}"), "registered live").set(i);
                }
                i += 1;
            }
        }));
    }

    let mut last_count = 0u64;
    for _ in 0..30 {
        let metrics = http_get(&addr, "/metrics", GET_TIMEOUT).unwrap();
        let count = metrics
            .lines()
            .find_map(|l| l.strip_prefix("sword_mut_total "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("counter line present");
        assert!(count >= last_count, "counter went backwards: {count} < {last_count}");
        last_count = count;

        let status = http_get(&addr, "/status", GET_TIMEOUT).unwrap();
        let doc = json::parse(&status).expect("status stays parseable under mutation");
        let m = doc.get("metrics").unwrap();
        let hist_count = m.get("sword_mut_nanos_count").and_then(Value::as_u64).unwrap();
        let hist_p50 = m.get("sword_mut_nanos_p50").and_then(Value::as_u64).unwrap();
        if hist_count > 0 {
            assert!(hist_p50 >= 1, "histogram quantile inconsistent: {hist_p50}");
        }
    }
    stop.store(true, Ordering::Relaxed);
    for m in mutators {
        m.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn sse_client_cap_sheds_with_503_and_overload_is_reported() {
    let obs = Obs::new();
    let mut config = ServerConfig::bind("127.0.0.1:0");
    config.max_sse_clients = 1;
    let (server, addr) = start(&obs, config, TelemetryHandles::new(obs.clone()));

    let mut first = TcpStream::connect(&addr).unwrap();
    first.write_all(format!("GET /events HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = http_get(&addr, "/healthz", GET_TIMEOUT).unwrap();
        let doc = json::parse(&health).unwrap();
        if doc.get("sse_clients").and_then(Value::as_u64) == Some(1) {
            assert_eq!(doc.get("overload"), Some(&Value::Bool(true)));
            break;
        }
        assert!(Instant::now() < deadline, "first SSE client never registered");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The second client is shed, and the shed shows up in /healthz.
    assert!(http_get(&addr, "/events", GET_TIMEOUT).is_err());
    let health = http_get(&addr, "/healthz", GET_TIMEOUT).unwrap();
    let doc = json::parse(&health).unwrap();
    assert!(doc.get("shed_total").and_then(Value::as_u64).unwrap() >= 1);
    drop(first);
    server.shutdown();
}
