//! Endpoint behavior: golden responses for `/metrics`, `/status` and
//! `/healthz`, and snapshot consistency under concurrent registry
//! mutation. The accept-queue shed is tested next to the private pool
//! sizes it depends on, in `src/lib.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sword_obs::json::{self, Value};
use sword_obs::Obs;
use sword_obs_http::{http_get, JsonFn, TelemetryHandles, TelemetryServer};

const GET_TIMEOUT: Duration = Duration::from_secs(5);

fn start(handles: TelemetryHandles) -> (TelemetryServer, String) {
    let server = TelemetryServer::start("127.0.0.1:0", handles).expect("bind");
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
    let (server, addr) = start(TelemetryHandles::new(obs.clone()));

    let body = http_get(&addr, "/metrics", GET_TIMEOUT).unwrap();
    assert!(body.contains("# TYPE sword_flushes_total counter"), "{body}");
    assert!(body.contains("sword_flushes_total 7"), "{body}");
    assert!(body.contains("sword_writer_queue_depth 3"), "{body}");
    assert!(body.contains("sword_solver_call_nanos_count 4"), "{body}");
    assert!(body.contains("sword_solver_call_nanos{quantile=\"0.5\"}"), "{body}");
    assert!(body.contains("sword_solver_call_nanos{quantile=\"0.95\"}"), "{body}");
    assert!(body.contains("sword_solver_call_nanos{quantile=\"0.99\"}"), "{body}");
    // The exporter meters itself in the same registry it serves.
    assert!(body.contains("sword_exporter_requests_total 1"), "{body}");
    assert!(body.contains("sword_exporter_shed_total 0"), "{body}");
    assert!(!body.contains("sword_exporter_sse"), "{body}");
    // Every scrape renders the registry anew: a write made just before
    // it is in the next body.
    obs.registry.counter("sword_flushes_total", "flushes").inc();
    let again = http_get(&addr, "/metrics", GET_TIMEOUT).unwrap();
    assert!(again.contains("sword_flushes_total 8"), "{again}");
    assert!(again.contains("sword_exporter_requests_total 2"), "{again}");
    server.shutdown();
}

#[test]
fn status_endpoint_merges_provider_fields_and_flat_metrics() {
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
    let (server, addr) = start(handles);

    let body = http_get(&addr, "/status", GET_TIMEOUT).unwrap();
    let doc = json::parse(&body).expect("status is valid JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("session").and_then(Value::as_str), Some("/tmp/s"));
    assert_eq!(doc.get("races").and_then(Value::as_u64), Some(2));
    assert_eq!(doc.get("generation").and_then(Value::as_u64), Some(9));
    // One view: the flat registry snapshot. Readers group it themselves.
    let metrics = doc.get("metrics").unwrap();
    assert_eq!(metrics.get("sword_flush_queue_depth").and_then(Value::as_u64), Some(5));
    assert_eq!(metrics.get("sword_stage_wait_nanos_count").and_then(Value::as_u64), Some(1));
    assert!(metrics.get("sword_stage_wait_nanos_p95").is_some());
    assert_eq!(metrics.get("sword_journal_dropped_events_total").and_then(Value::as_u64), Some(0));
    for gone in ["queues", "histograms", "sse_clients", "journal_dropped_events"] {
        assert!(doc.get(gone).is_none(), "{gone}: {body}");
    }
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
    let (server, addr) = start(handles);

    let health = http_get(&addr, "/healthz", GET_TIMEOUT).unwrap();
    let doc = json::parse(&health).unwrap();
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("shed_total").and_then(Value::as_u64), Some(0));
    assert_eq!(doc.get("workers").and_then(Value::as_u64), Some(2));
    assert!(doc.get("uptime_us").is_some());
    assert!(doc.get("overload").is_none() && doc.get("sse_clients").is_none(), "{health}");

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
fn snapshots_stay_consistent_under_concurrent_mutation() {
    let obs = Obs::new();
    let counter = obs.registry.counter("sword_mut_total", "mutated");
    let hist = obs.registry.histogram("sword_mut_nanos", "mutated");
    let (server, addr) = start(TelemetryHandles::new(obs.clone()));

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
