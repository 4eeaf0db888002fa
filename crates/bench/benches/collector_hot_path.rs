//! Online-collection hot-path microbenchmarks.
//!
//! The paper's data-collection overhead (§IV, Figures 6–7) is dominated
//! by three inner loops: encoding events into the bounded buffer,
//! compressing filled buffers, and writing frames. This target measures
//! each in isolation on an OmpSCR-style event mix, in absolute units,
//! next to the flush counters of a real collected run.
//!
//! Run with `cargo bench -p sword-bench --bench collector_hot_path`.

use sword_bench::Table;
use sword_compress::{decompress, Compressor, FrameWriter};
use sword_metrics::Stopwatch;
use sword_obs::json::Value;
use sword_runtime::{run_collected, SwordConfig, SwordStats};
use sword_trace::{AccessKind, Event, EventEncoder, MemAccess};

/// An OmpSCR-style interval: a few hot PCs doing strided array sweeps
/// with reads and writes interleaved, punctuated by critical sections —
/// the event shape `c_md`/`c_pi`/`c_mandel` produce. ~1 MB encoded at
/// 200k iterations, i.e. several full 25k-event paper buffers.
fn ompscr_events(n: usize) -> Vec<Event> {
    let mut events = Vec::with_capacity(n);
    for i in 0..n as u64 {
        if i % 97 == 96 {
            events.push(Event::MutexAcquire(1));
            events.push(Event::Access(MemAccess::new(0x7000, 8, AccessKind::Write, 90)));
            events.push(Event::MutexRelease(1));
            continue;
        }
        let pc = 40 + (i % 4) as u32;
        let kind = if i % 3 == 0 { AccessKind::Read } else { AccessKind::Write };
        let addr = 0x100000 + (i % 5) * 0x2000 + i * 8;
        events.push(Event::Access(MemAccess::new(addr, 8, kind, pc)));
    }
    events
}

fn encode_block(events: &[Event]) -> Vec<u8> {
    let mut enc = EventEncoder::new();
    let mut buf = Vec::new();
    for e in events {
        enc.encode(e, &mut buf);
    }
    buf
}

/// Best-of-`iters` seconds for one run of `f` (best-of defeats CI noise).
fn best_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let sw = Stopwatch::start();
        f();
        best = best.min(sw.secs());
    }
    best
}

fn mbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-9)
}

/// A short end-to-end collected run whose flush counters go into the
/// machine-readable artifact alongside the microbench numbers.
fn flush_counter_run() -> (f64, SwordStats) {
    let dir = std::env::temp_dir().join(format!("sword-hotpath-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sw = Stopwatch::start();
    let (_, stats) = run_collected(
        SwordConfig::new(&dir).buffer_events(4096),
        sword_ompsim::SimConfig::default(),
        |sim| {
            let n = 40_000u64;
            let a = sim.alloc::<u64>(n, 0);
            sim.run(|ctx| {
                ctx.parallel(4, |w| {
                    w.for_static(0..n, |i| w.write(&a, i, i));
                })
            });
        },
    )
    .expect("collected run");
    let secs = sw.secs();
    let _ = std::fs::remove_dir_all(&dir);
    (secs, stats)
}

/// Writes `BENCH_collector.json` (CI uploads it as an artifact):
/// microbench throughput + the flush counters of a real collected run.
fn write_artifact(encode_mevents_per_s: f64, compress_mbps: f64, ratio: f64, decompress_mbps: f64) {
    let (secs, stats) = flush_counter_run();
    let f = &stats.flush;
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let json = obj(vec![
        ("bench", "collector_hot_path".into()),
        ("encode_mevents_per_s", encode_mevents_per_s.into()),
        ("compress_mbps", compress_mbps.into()),
        ("compression_ratio", ratio.into()),
        ("decompress_mbps", decompress_mbps.into()),
        (
            "collected_run",
            obj(vec![
                ("events", stats.events.into()),
                ("events_per_s", (stats.events as f64 / secs.max(1e-9)).into()),
                ("flushes", f.flushes.into()),
                ("stall_nanos", f.stall_nanos.into()),
                ("compress_nanos", f.compress_nanos.into()),
                ("write_nanos", f.write_nanos.into()),
                ("raw_bytes", f.raw_bytes.into()),
                ("compressed_bytes", f.compressed_bytes.into()),
                ("tool_memory_bytes", stats.tool_memory_bytes.into()),
            ]),
        ),
    ]);
    // `cargo bench` runs with the package dir as cwd; anchor the
    // artifact at the workspace root so CI can pick it up by name.
    let out = std::env::var("BENCH_COLLECTOR_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_collector.json").to_string()
    });
    std::fs::write(&out, json.render()).expect("write BENCH_collector.json");
    println!("wrote {out}");
}

fn main() {
    const EVENTS: usize = 200_000;
    const ITERS: usize = 30;
    let events = ompscr_events(EVENTS);
    let block = encode_block(&events);

    let mut table = Table::new(
        format!("collector hot path ({} events, {} byte block)", events.len(), block.len()),
        &["stage", "throughput", "ratio", "notes"],
    );

    // Event encoding (the per-access cost on the app thread).
    let mut sink = Vec::with_capacity(block.len() + 64);
    let enc_secs = best_secs(ITERS, || {
        sink.clear();
        let mut enc = EventEncoder::new();
        for e in &events {
            enc.encode(e, &mut sink);
        }
    });
    table.row(&[
        "encode".into(),
        format!("{:.0} Mevents/s", events.len() as f64 / 1e6 / enc_secs.max(1e-9)),
        "-".into(),
        format!("{:.0} MB/s encoded", mbps(block.len(), enc_secs)),
    ]);

    // The codec with a reused, worker-owned Compressor.
    let mut out = Vec::new();
    let mut comp = Compressor::new();
    let comp_secs = best_secs(ITERS, || {
        out.clear();
        comp.compress(&block, &mut out);
    });
    let ratio = block.len() as f64 / out.len() as f64;
    table.row(&[
        "compress".into(),
        format!("{:.0} MB/s", mbps(block.len(), comp_secs)),
        format!("{ratio:.2}x"),
        "hash table recycled across blocks".into(),
    ]);

    // Decompression (the offline analyzer's ingest cost).
    let compressed = out.clone();
    let mut plain = Vec::new();
    let dec_secs = best_secs(ITERS, || {
        plain.clear();
        decompress(&compressed, &mut plain).unwrap();
    });
    assert_eq!(plain, block, "roundtrip");
    table.row(&[
        "decompress".into(),
        format!("{:.0} MB/s", mbps(block.len(), dec_secs)),
        "-".into(),
        "wide copies".into(),
    ]);

    // End-to-end flush: frame encoding + buffered write, as one
    // compression worker sees it.
    let flush_secs = best_secs(ITERS, || {
        let mut w = FrameWriter::new(Vec::with_capacity(compressed.len() + 64));
        w.write_frame(&block).unwrap();
    });
    table.row(&[
        "flush (frame + write)".into(),
        format!("{:.0} MB/s", mbps(block.len(), flush_secs)),
        "-".into(),
        "per-buffer handoff cost".into(),
    ]);

    println!("{}", table.render());
    write_artifact(
        events.len() as f64 / 1e6 / enc_secs.max(1e-9),
        mbps(block.len(), comp_secs),
        ratio,
        mbps(block.len(), dec_secs),
    );
}
