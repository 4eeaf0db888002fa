//! Observability must not break the bounded-overhead claim: a collector
//! run with full instrumentation (journal + registry sources + periodic
//! snapshots) must stay within 5% of the uninstrumented run's event
//! throughput on the bench workload — and so must a run that additionally
//! serves the embedded telemetry exporter to a live scraper.
//!
//! The margin holds by construction — the journal records only at flush
//! boundaries (once per `buffer_events` events), registry sources are
//! read-on-demand closures, and the exporter reads snapshots outside the
//! recording hot path — so this test pins the design. The 5% bound is
//! checked in optimized builds (CI runs it under `--release`; see
//! ci.yml); unoptimized builds only get a coarse did-not-regress bound.
//!
//! Methodology is `tests/site_attribution_overhead.rs`'s: a run is a
//! million events (tens of milliseconds, not the few a scheduler hiccup
//! can double), each round measures all three configurations
//! back-to-back, and the assertion takes the *best ratio* across rounds.
//! Machine noise moves every side of a round together, so the cleanest
//! round bounds the true overhead; comparing independent per-side bests
//! lets one lucky baseline sample fail the test on a busy 2-core box.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sword_obs::Obs;
use sword_obs_http::{http_get, ServerConfig, TelemetryHandles, TelemetryServer};
use sword_ompsim::SimConfig;
use sword_runtime::{run_collected, SwordConfig};

const THREADS: usize = 4;
const EVENTS_PER_THREAD: u64 = 250_000;
const ROUNDS: usize = 5;

/// Pause between scrapes. Aggressive next to a stock Prometheus
/// interval (seconds), yet periodic: on a single-core runner one scrape
/// round costs ~600µs of stolen collector time (client and server share
/// the core with the run), so the cadence — not the exporter's own work
/// — sets the floor the 5% bound is checked against.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(25);

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// No observability attached.
    Plain,
    /// Journal + registry wired in.
    Obs,
    /// Observability plus the HTTP exporter, scraped during the run.
    ObsScraped,
}

fn throughput(mode: Mode, tag: &str) -> f64 {
    let dir = std::env::temp_dir().join(format!("sword-obs-overhead-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = SwordConfig::new(&dir).buffer_events(2048);
    let obs = (mode != Mode::Plain).then(Obs::new);
    if let Some(obs) = &obs {
        config = config.with_obs(obs.clone());
    }
    let server = (mode == Mode::ObsScraped).then(|| {
        TelemetryServer::start(
            ServerConfig::bind("127.0.0.1:0"),
            TelemetryHandles::new(obs.clone().expect("scraped implies obs")),
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
                if http_get(&addr, "/metrics", Duration::from_millis(500)).is_ok() {
                    hits += 1;
                }
                // Periodic, like a real scrape loop; a busy loop would
                // measure core stealing on small CI runners instead.
                std::thread::sleep(SCRAPE_INTERVAL);
            }
            hits
        })
    });
    let total = EVENTS_PER_THREAD * THREADS as u64;
    let start = Instant::now();
    let (_, stats) = run_collected(config, SimConfig::default(), |sim| {
        let a = sim.alloc::<u64>(total, 0);
        sim.run(|ctx| {
            ctx.parallel(THREADS, |w| {
                w.for_static(0..total, |i| {
                    w.write(&a, i, i);
                });
            });
        });
    })
    .expect("collection succeeds");
    let secs = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = scraper {
        assert!(h.join().expect("scraper thread") > 0, "scraper never reached the exporter");
    }
    if let Some(srv) = server {
        srv.shutdown();
    }
    assert_eq!(stats.events, total);
    std::fs::remove_dir_all(&dir).ok();
    stats.events as f64 / secs
}

#[test]
fn obs_overhead_within_five_percent() {
    // Warm up allocators, code paths, and the filesystem cache.
    throughput(Mode::Plain, "warm");
    throughput(Mode::Obs, "warm-obs");
    throughput(Mode::ObsScraped, "warm-scraped");
    let mut obs_ratios = Vec::with_capacity(ROUNDS);
    let mut scraped_ratios = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        let plain = throughput(Mode::Plain, &format!("plain{i}"));
        obs_ratios.push(throughput(Mode::Obs, &format!("obs{i}")) / plain);
        scraped_ratios.push(throughput(Mode::ObsScraped, &format!("scraped{i}")) / plain);
    }
    let floor = if cfg!(debug_assertions) { 0.70 } else { 0.95 };
    for (what, ratios) in [("instrumented", &obs_ratios), ("scraped-exporter", &scraped_ratios)] {
        let best = ratios.iter().copied().fold(0.0, f64::max);
        assert!(
            best >= floor,
            "{what} throughput fell more than {:.0}% below uninstrumented in every round \
             (ratios {ratios:?})",
            (1.0 - floor) * 100.0
        );
    }
}
