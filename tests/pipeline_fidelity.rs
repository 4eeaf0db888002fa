//! Cross-crate integration: the collected session is a faithful,
//! deterministic record of the execution, and the analyzer consumes
//! exactly what the collector produced.

use std::fs;
use std::io::BufReader;
use std::path::PathBuf;

use sword::offline::{analyze, AnalysisConfig, LoadedSession};
use sword::ompsim::{OmpSim, SimConfig};
use sword::runtime::{run_collected, SwordConfig, SwordStats};
use sword::trace::{read_meta, Event, EventDecoder, LogReader, SessionDir};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sword-integ-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn collect_program(dir: &PathBuf) -> SwordStats {
    let (_, stats) = run_collected(SwordConfig::new(dir), SimConfig::default(), |sim| {
        let a = sim.alloc::<f64>(300, 0.0);
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(3, |w| {
                w.for_static(0..300, |i| {
                    w.write(&a, i, i as f64);
                });
                w.critical("c", || {
                    let v = w.read(&c, 0);
                    w.write(&c, 0, v + 1);
                });
                w.barrier();
                w.for_static_nowait(0..300, |i| {
                    let _ = w.read(&a, i);
                });
            });
        });
    })
    .expect("collection");
    stats
}

#[test]
fn every_logged_event_is_decodable_and_counted() {
    let dir = tmp("decode-all");
    let stats = collect_program(&dir);
    let session = SessionDir::new(&dir);
    let mut decoded_total = 0u64;
    for tid in session.thread_ids().unwrap() {
        let rows =
            read_meta(BufReader::new(fs::File::open(session.thread_meta(tid)).unwrap())).unwrap();
        let mut reader = LogReader::new(fs::File::open(session.thread_log(tid)).unwrap());
        for row in &rows {
            let mut bytes = Vec::new();
            reader.read_range(row.data_begin, row.size, &mut bytes).unwrap();
            let events = EventDecoder::new().decode_all(&bytes).unwrap();
            decoded_total += events.len() as u64;
            // Mutex events must be balanced inside each interval.
            let mut depth = 0i64;
            for e in &events {
                match e {
                    Event::MutexAcquire(_) => depth += 1,
                    Event::MutexRelease(_) => depth -= 1,
                    Event::Access(_) => {}
                }
                assert!(depth >= 0, "release before acquire in interval");
            }
            assert_eq!(depth, 0, "unbalanced mutex events in an interval");
        }
    }
    assert_eq!(decoded_total, stats.events, "collector and logs agree on event count");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn collection_is_deterministic_per_thread() {
    // The same pinned program collected twice produces byte-identical
    // per-thread logs and metadata (modulo nothing: static scheduling and
    // virtual addresses are deterministic).
    let d1 = tmp("det-1");
    let d2 = tmp("det-2");
    collect_program(&d1);
    collect_program(&d2);
    let s1 = SessionDir::new(&d1);
    let s2 = SessionDir::new(&d2);
    assert_eq!(s1.thread_ids().unwrap(), s2.thread_ids().unwrap());
    for tid in s1.thread_ids().unwrap() {
        let meta1 = fs::read(s1.thread_meta(tid)).unwrap();
        let meta2 = fs::read(s2.thread_meta(tid)).unwrap();
        assert_eq!(meta1, meta2, "meta files differ for tid {tid}");
        let log1 = fs::read(s1.thread_log(tid)).unwrap();
        let log2 = fs::read(s2.thread_log(tid)).unwrap();
        assert_eq!(log1, log2, "log files differ for tid {tid}");
    }
    fs::remove_dir_all(&d1).unwrap();
    fs::remove_dir_all(&d2).unwrap();
}

#[test]
fn analysis_is_idempotent() {
    let dir = tmp("idem");
    collect_program(&dir);
    let session = SessionDir::new(&dir);
    let r1 = analyze(&session, &AnalysisConfig::sequential()).unwrap();
    let r2 = analyze(&session, &AnalysisConfig::sequential()).unwrap();
    let keys =
        |r: &sword::offline::AnalysisResult| -> Vec<_> { r.races.iter().map(|x| x.key).collect() };
    assert_eq!(keys(&r1), keys(&r2));
    assert_eq!(r1.stats.events, r2.stats.events);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn offline_label_reconstruction_matches_runtime_labels() {
    // A tool records every worker's live label; the analyzer's
    // fork-label · [offset, span] reconstruction must reproduce them
    // exactly, barrier bumps included.
    use std::sync::{Arc, Mutex};
    use sword::ompsim::{ThreadContext, Tool};
    use sword::osl::Label;

    #[derive(Default)]
    struct LabelSpy {
        labels: Mutex<Vec<(u32, u64, u32, Label)>>, // (tid, region, bid, label)
    }
    impl Tool for LabelSpy {
        fn thread_begin(&self, ctx: &ThreadContext<'_>) {
            self.labels.lock().unwrap().push((ctx.tid, ctx.region, ctx.bid, ctx.label.clone()));
        }
        fn barrier_end(&self, ctx: &ThreadContext<'_>) {
            self.labels.lock().unwrap().push((ctx.tid, ctx.region, ctx.bid, ctx.label.clone()));
        }
    }

    // Run the SAME deterministic program twice: once spied, once
    // collected. Static scheduling makes the structures identical.
    let program = |sim: &OmpSim| {
        let a = sim.alloc::<u64>(64, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.write(&a, w.team_index(), 1);
                w.barrier();
                w.parallel(2, |inner| {
                    inner.write(&a, 8 + inner.team_index(), 1);
                });
                w.barrier();
                w.write(&a, 16 + w.team_index(), 1);
            });
        });
    };

    let spy = Arc::new(LabelSpy::default());
    let sim = OmpSim::with_tool(spy.clone());
    program(&sim);

    let dir = tmp("labels");
    run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| program(sim)).unwrap();
    let loaded = LoadedSession::load(&SessionDir::new(&dir)).unwrap();

    // Region ids of concurrent sibling regions may be assigned in either
    // order across runs; the (bid, label) pair is the schedule-invariant
    // identity of a barrier interval.
    let mut live: Vec<(u32, String)> = spy
        .labels
        .lock()
        .unwrap()
        .iter()
        .map(|(_, _, bid, label)| (*bid, format!("{label}")))
        .collect();
    live.sort();
    live.dedup();

    let mut reconstructed: Vec<(u32, String)> = Vec::new();
    for (_, rows) in &loaded.threads {
        for row in rows {
            let label = sword::offline::intervals::full_label(&loaded, row).unwrap();
            reconstructed.push((row.bid, format!("{label}")));
        }
    }
    reconstructed.sort();
    reconstructed.dedup();

    assert_eq!(live, reconstructed, "offline labels must equal runtime labels");
    fs::remove_dir_all(&dir).unwrap();
}
