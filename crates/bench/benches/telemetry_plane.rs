//! Telemetry-plane bench: what the embedded HTTP exporter costs.
//!
//! Three legs, all against the live in-process plane (no mock registry):
//!
//! 1. **Exporter overhead** — the Figure 7 CG solver collected twice,
//!    once with observability only and once while a scraper hammers
//!    `/metrics` + `/status` for the whole run. The dimensionless
//!    collection-throughput ratio (unscraped wall over scraped wall) is
//!    the gated number: ≈1.0 means a continuously scraped exporter is
//!    free; CI fails when it drops past the allowance.
//! 2. **`/metrics` latency** — scrape quantiles (p50/p95 µs) against the
//!    registry the run just populated, connection setup included, i.e.
//!    what a Prometheus poll actually pays.
//! 3. **SSE fan-out** — events/s a `/events` subscriber sustains while a
//!    producer thread journals and drains at full tilt, plus how many
//!    events the bounded tap shed to protect the producer.
//!
//! Writes `BENCH_obs.json` at the workspace root (CI uploads it and
//! gates leg 1 against `bench-baselines/BENCH_obs.json`).
//!
//! Run with `cargo bench -p sword-bench --bench telemetry_plane`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sword_bench::{fmt_secs, Table};
use sword_metrics::Stopwatch;
use sword_obs::json::Value;
use sword_obs::{Layer, Obs};
use sword_obs_http::{http_get, ServerConfig, TelemetryHandles, TelemetryServer};
use sword_ompsim::SimConfig;
use sword_runtime::{run_collected, SwordConfig};
use sword_workloads::{find_workload, RunConfig};

/// Timing runs per configuration (best-of defeats CI noise).
const RUNS: usize = 3;

/// `/metrics` scrapes timed for the latency quantiles.
const LATENCY_SAMPLES: usize = 200;

/// Journal events the SSE producer emits.
const SSE_EVENTS: usize = 20_000;

/// Events the producer journals between drains (drain feeds the taps;
/// small batches keep the per-thread ring from wrapping mid-batch).
const SSE_BATCH: usize = 128;

/// Pause between scrape rounds. Still ~200× more aggressive than a
/// stock Prometheus interval, but periodic rather than a busy loop: on
/// the single-core CI container a spinning client steals the core from
/// the collector and the leg measures scheduler contention, not
/// exporter cost.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(5);

/// One timed collection of the workload; `scrape` adds an exporter plus
/// a client scraping it every [`SCRAPE_INTERVAL`] for the whole run.
fn collect_once(scrape: bool) -> f64 {
    let w = find_workload("HPCCG").expect("HPCCG workload");
    let cfg = RunConfig { threads: 8, size: 20 };
    let dir = sword_bench::bench_session_dir("telemetry-overhead");
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Obs::new();
    let server = scrape.then(|| {
        TelemetryServer::start(
            ServerConfig::bind("127.0.0.1:0"),
            TelemetryHandles::new(obs.clone()),
        )
        .expect("exporter")
    });
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = server.as_ref().map(|srv| {
        let addr = srv.local_addr().to_string();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut hits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for path in ["/metrics", "/status"] {
                    if http_get(&addr, path, Duration::from_millis(500)).is_ok() {
                        hits += 1;
                    }
                }
                std::thread::sleep(SCRAPE_INTERVAL);
            }
            hits
        })
    });
    let sw = Stopwatch::start();
    run_collected(SwordConfig::new(&dir).with_obs(obs.clone()), SimConfig::default(), |sim| {
        w.execute(sim, &cfg);
    })
    .expect("sword collection");
    let secs = sw.secs();
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = scraper {
        let hits = h.join().expect("scraper thread");
        assert!(hits > 0, "scraper must actually have exercised the exporter");
    }
    if let Some(srv) = server {
        srv.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    secs
}

fn best_of(scrape: bool) -> f64 {
    (0..RUNS).map(|_| collect_once(scrape)).fold(f64::INFINITY, f64::min)
}

/// Scrape latency quantiles against a populated registry, in µs.
fn metrics_latency(addr: &str) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..LATENCY_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            http_get(addr, "/metrics", Duration::from_secs(2)).expect("scrape");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let q = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
    (q(0.50), q(0.95))
}

struct SseRun {
    sent: u64,
    received: u64,
    secs: f64,
    events_per_s: f64,
}

/// Journals [`SSE_EVENTS`] instants (draining each batch so the tap is
/// fed) while one `/events` subscriber counts what arrives.
fn sse_fanout(obs: &Obs, addr: &str) -> SseRun {
    let done = Arc::new(AtomicBool::new(false));
    let producer = {
        let obs = obs.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let tj = obs.journal.for_thread(Layer::Cli, "sse-producer");
            let mut sent = 0u64;
            while sent < SSE_EVENTS as u64 {
                for _ in 0..SSE_BATCH {
                    tj.instant("tick", vec![("n".into(), sent as f64)]);
                    sent += 1;
                }
                obs.journal.drain();
            }
            done.store(true, Ordering::Relaxed);
            sent
        })
    };

    let mut stream = TcpStream::connect(addr).expect("sse connect");
    stream
        .write_all(format!("GET /events HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .expect("sse request");
    stream.set_read_timeout(Some(Duration::from_millis(500))).expect("read timeout");
    let mut reader = BufReader::new(stream);
    let mut received = 0u64;
    let mut first: Option<Instant> = None;
    let mut last = Instant::now();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.starts_with("data:") => {
                first.get_or_insert_with(Instant::now);
                last = Instant::now();
                received += 1;
                if received == SSE_EVENTS as u64 {
                    break;
                }
            }
            Ok(_) => {}
            // The producer is done and the stream has gone quiet: every
            // event still in flight has been counted or shed.
            Err(_) if done.load(Ordering::Relaxed) => break,
            Err(_) => {}
        }
    }
    let sent = producer.join().expect("producer thread");
    let secs = first.map_or(0.0, |t0| (last - t0).as_secs_f64()).max(1e-9);
    SseRun { sent, received, secs, events_per_s: received as f64 / secs }
}

fn main() {
    // Leg 1: exporter overhead on a live collection.
    let plain_secs = best_of(false);
    let scraped_secs = best_of(true);
    let throughput_ratio = plain_secs / scraped_secs.max(1e-9);
    let overhead_pct = (scraped_secs / plain_secs.max(1e-9) - 1.0) * 100.0;

    // Legs 2 and 3 share one server over one registry+journal.
    let obs = Obs::new();
    // Populate the registry so `/metrics` renders a realistic body.
    obs.registry.counter("bench_ticks_total", "bench filler").inc();
    let hist = obs.registry.histogram("bench_wait_us", "bench filler");
    for i in 0..1000 {
        hist.record(i);
    }
    let server = TelemetryServer::start(
        ServerConfig::bind("127.0.0.1:0"),
        TelemetryHandles::new(obs.clone()),
    )
    .expect("exporter");
    let addr = server.local_addr().to_string();
    let (lat_p50_us, lat_p95_us) = metrics_latency(&addr);
    let sse = sse_fanout(&obs, &addr);
    let shed = sse.sent.saturating_sub(sse.received);
    server.shutdown();

    let mut table =
        Table::new("telemetry plane: exporter cost".to_string(), &["leg", "result", "detail"]);
    table.row(&["collection, unscraped".into(), fmt_secs(plain_secs), format!("best of {RUNS}")]);
    table.row(&[
        "collection, scraped".into(),
        fmt_secs(scraped_secs),
        format!("overhead {overhead_pct:+.1}%, ratio {throughput_ratio:.3}"),
    ]);
    table.row(&[
        "/metrics latency".into(),
        format!("p50 {lat_p50_us:.0}us"),
        format!("p95 {lat_p95_us:.0}us over {LATENCY_SAMPLES} scrapes"),
    ]);
    table.row(&[
        "SSE fan-out".into(),
        format!("{:.0} events/s", sse.events_per_s),
        format!("{}/{} delivered, {shed} shed", sse.received, sse.sent),
    ]);
    println!("{}", table.render());

    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let json = obj(vec![
        ("bench", "telemetry_plane".into()),
        (
            "workloads",
            Value::Arr(vec![obj(vec![
                ("workload", "HPCCG".into()),
                ("plain_secs", plain_secs.into()),
                ("scraped_secs", scraped_secs.into()),
                ("overhead_pct", overhead_pct.into()),
                ("exporter_throughput_ratio", throughput_ratio.into()),
            ])]),
        ),
        (
            "metrics_latency_us",
            obj(vec![
                ("p50", lat_p50_us.into()),
                ("p95", lat_p95_us.into()),
                ("samples", (LATENCY_SAMPLES as u64).into()),
            ]),
        ),
        (
            "sse",
            obj(vec![
                ("sent", sse.sent.into()),
                ("received", sse.received.into()),
                ("shed", shed.into()),
                ("secs", sse.secs.into()),
                ("events_per_s", sse.events_per_s.into()),
            ]),
        ),
    ]);
    // `cargo bench` runs with the package dir as cwd; anchor the
    // artifact at the workspace root so CI can pick it up by name.
    let out = std::env::var("BENCH_OBS_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json").to_string()
    });
    std::fs::write(&out, json.render()).expect("write BENCH_obs.json");
    println!("wrote {out}");
}
