//! Observability must not break the bounded-overhead claim. A collector
//! run with full instrumentation (journal + registry sources + periodic
//! snapshots), and one that additionally serves the embedded telemetry
//! exporter to a live scraper, are held to two bounds:
//!
//! * **Absolute, at the flush boundary.** The journal records only at
//!   flush hand-offs (once per `buffer_events` events), so the cost of
//!   instrumentation is a cost per flush. With 2,048-event buffers — a
//!   flush twelve times as often as the shipped size — the wall time the
//!   instrumented run adds, divided by its flushes, must stay under
//!   [`ADDED_NS_PER_FLUSH_MAX`]. An absolute bound does not move when
//!   the uninstrumented run gets faster; a ratio does (PR 15 halved the
//!   denominator and a 5% ratio at this buffer size started failing with
//!   no instrumentation change).
//! * **Relative, at the size that ships.** With `PAPER_BUFFER_EVENTS`
//!   buffers, event throughput must stay within 5% of the uninstrumented
//!   run's, scraped or not.
//!
//! Both hold by construction — spans borrow their names and keys,
//! registry sources are read-on-demand closures, and the exporter reads
//! snapshots outside the recording hot path — so this test pins the
//! design. The bounds are checked in optimized builds (CI runs it under
//! `--release`; see ci.yml); unoptimized builds only get a coarse
//! did-not-regress bound.
//!
//! Methodology is `tests/site_attribution_overhead.rs`'s: a run is long
//! enough (tens of milliseconds) that a scheduler hiccup cannot double
//! it, each round measures its configurations back-to-back, and the
//! assertion takes the *best round*. Machine noise moves every side of a
//! round together, so the cleanest round bounds the true overhead;
//! comparing independent per-side bests lets one lucky baseline sample
//! fail the test on a busy 2-core box.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sword_obs::Obs;
use sword_obs_http::{http_get, TelemetryHandles, TelemetryServer};
use sword_ompsim::SimConfig;
use sword_runtime::{run_collected, SwordConfig, PAPER_BUFFER_EVENTS};

const THREADS: usize = 4;
const ROUNDS: usize = 5;

/// Buffer size of the per-flush measurement.
const DENSE_BUFFER_EVENTS: usize = 2_048;
/// Events per thread of a per-flush run: ~490 flushes in all.
const DENSE_EVENTS_PER_THREAD: u64 = 250_000;
/// Events per thread of a shipped-size run. Optimized builds need four
/// times the events to make a run tens of milliseconds long.
const PAPER_EVENTS_PER_THREAD: u64 = if cfg!(debug_assertions) { 250_000 } else { 1_000_000 };

/// Wall nanoseconds one flush may cost an instrumented run over an
/// uninstrumented one, at 2,048-event buffers: a hand-off, a compress
/// and a write span, two queue stamps, and the run's fixed set-up and
/// tear-down (journal file, final drain to JSONL, `metrics.prom`) spread
/// over its ~490 flushes. It is the median the commit before PR 15 read
/// when measured by this very loop (15 rounds, 2-core sandbox: 6.0 µs;
/// PR 15 itself: 5.6 µs — EXPERIMENTS.md "Thread-owned lanes"). Single
/// rounds scatter by ±10 µs around that on a busy box, which is why the
/// assertion takes the best of five.
const ADDED_NS_PER_FLUSH_MAX: f64 = 6_000.0;

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

struct Run {
    secs: f64,
    events: u64,
    flushes: u64,
}

impl Run {
    fn throughput(&self) -> f64 {
        self.events as f64 / self.secs
    }
}

fn run(mode: Mode, buffer_events: usize, events_per_thread: u64, tag: &str) -> Run {
    let dir = std::env::temp_dir().join(format!("sword-obs-overhead-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = SwordConfig::new(&dir).buffer_events(buffer_events);
    let obs = (mode != Mode::Plain).then(Obs::new);
    if let Some(obs) = &obs {
        config = config.with_obs(obs.clone());
    }
    let server = (mode == Mode::ObsScraped).then(|| {
        TelemetryServer::start(
            "127.0.0.1:0",
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
    let total = events_per_thread * THREADS as u64;
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
    Run { secs, events: stats.events, flushes: stats.flushes }
}

#[test]
fn obs_overhead_is_bounded_per_flush_and_at_the_shipped_buffer_size() {
    // Warm up allocators, code paths, and the filesystem cache.
    run(Mode::Plain, DENSE_BUFFER_EVENTS, DENSE_EVENTS_PER_THREAD, "warm");
    run(Mode::Obs, DENSE_BUFFER_EVENTS, DENSE_EVENTS_PER_THREAD, "warm-obs");
    run(Mode::ObsScraped, PAPER_BUFFER_EVENTS, DENSE_EVENTS_PER_THREAD, "warm-scraped");

    // Absolute: added wall time per flush, flushes dense.
    let mut added_ns = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        let plain =
            run(Mode::Plain, DENSE_BUFFER_EVENTS, DENSE_EVENTS_PER_THREAD, &format!("plain{i}"));
        let obs = run(Mode::Obs, DENSE_BUFFER_EVENTS, DENSE_EVENTS_PER_THREAD, &format!("obs{i}"));
        assert_eq!(obs.flushes, plain.flushes, "instrumentation must not change the flush pattern");
        added_ns.push((obs.secs - plain.secs) * 1e9 / obs.flushes as f64);
    }
    let best = added_ns.iter().copied().fold(f64::INFINITY, f64::min);
    // Unoptimized spans cost several times the optimized ones.
    let max = if cfg!(debug_assertions) { 8.0 } else { 1.0 } * ADDED_NS_PER_FLUSH_MAX;
    eprintln!("added ns/flush at {DENSE_BUFFER_EVENTS}-event buffers: {added_ns:.0?}");
    assert!(
        best <= max,
        "instrumentation added more than {max:.0} ns per flush in every round \
         (ns per flush {added_ns:.0?})"
    );

    // Relative: throughput at the shipped buffer size.
    let mut obs_ratios = Vec::with_capacity(ROUNDS);
    let mut scraped_ratios = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        let paper = |mode, tag: &str| {
            run(mode, PAPER_BUFFER_EVENTS, PAPER_EVENTS_PER_THREAD, &format!("{tag}{i}"))
                .throughput()
        };
        let plain = paper(Mode::Plain, "paper-plain");
        obs_ratios.push(paper(Mode::Obs, "paper-obs") / plain);
        scraped_ratios.push(paper(Mode::ObsScraped, "paper-scraped") / plain);
    }
    eprintln!("throughput ratios at {PAPER_BUFFER_EVENTS}-event buffers: instrumented {obs_ratios:.3?}, scraped {scraped_ratios:.3?}");
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
