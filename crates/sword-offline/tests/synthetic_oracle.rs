//! Oracle-based property testing of the offline analyzer.
//!
//! Random single-region sessions are synthesized directly at the trace
//! layer (logs + meta-data, bypassing the runtime), where ground truth is
//! computable by brute force: two accesses race iff they are in the same
//! barrier interval on different threads, byte-overlap, include a write,
//! are not both atomic, and hold no common lock. The analyzer — grouping,
//! streaming decode, summarization trees, mutex-set tracking, and the
//! constraint solver — must report *exactly* the oracle's source-pair
//! set, for every generated session.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;

use proptest::prelude::*;
use sword_offline::{analyze, AnalysisConfig};
use sword_trace::{
    meta, AccessKind, Event, EventEncoder, LogWriter, MemAccess, MetaRecord, MutexId, RegionRecord,
    SessionDir,
};

/// One generated access, pre-lock-resolution.
#[derive(Clone, Debug)]
struct GenAccess {
    addr: u64,
    size: u8,
    kind: AccessKind,
    pc: u32,
    /// Lock held while accessing (one of two locks, or none).
    lock: Option<MutexId>,
}

fn arb_access() -> impl Strategy<Value = GenAccess> {
    (
        0u64..160,
        prop::sample::select(vec![1u8, 2, 4, 8]),
        0u8..4,
        0u32..6,
        prop::option::weighted(0.25, 0u32..2),
    )
        .prop_map(|(addr, size, kind, pc, lock)| GenAccess {
            addr,
            size,
            kind: AccessKind::from_code(kind).unwrap(),
            pc,
            lock,
        })
}

/// Per-(thread, interval) access streams: threads × intervals × accesses.
fn arb_session() -> impl Strategy<Value = Vec<Vec<Vec<GenAccess>>>> {
    let interval = prop::collection::vec(arb_access(), 0..12);
    let thread = prop::collection::vec(interval, 2..4); // intervals per thread (same count across threads)
    prop::collection::vec(thread, 2..4).prop_filter("equal interval counts", |threads| {
        threads.windows(2).all(|p| p[0].len() == p[1].len())
    })
}

fn ranges_overlap(a: &GenAccess, b: &GenAccess) -> bool {
    a.addr < b.addr + b.size as u64 && b.addr < a.addr + a.size as u64
}

/// Brute-force ground truth: racy unordered source pairs.
fn oracle(threads: &[Vec<Vec<GenAccess>>]) -> BTreeSet<(u32, u32)> {
    let mut races = BTreeSet::new();
    let intervals = threads[0].len();
    for bid in 0..intervals {
        for t1 in 0..threads.len() {
            for t2 in t1 + 1..threads.len() {
                for a in &threads[t1][bid] {
                    for b in &threads[t2][bid] {
                        if !ranges_overlap(a, b) {
                            continue;
                        }
                        if !a.kind.is_write() && !b.kind.is_write() {
                            continue;
                        }
                        if a.kind.is_atomic() && b.kind.is_atomic() {
                            continue;
                        }
                        if a.lock.is_some() && a.lock == b.lock {
                            continue;
                        }
                        races.insert((a.pc.min(b.pc), a.pc.max(b.pc)));
                    }
                }
            }
        }
    }
    races
}

/// Writes the generated session to disk in the real formats.
fn write_session(dir: &PathBuf, threads: &[Vec<Vec<GenAccess>>]) -> SessionDir {
    let _ = std::fs::remove_dir_all(dir);
    let session = SessionDir::new(dir);
    session.create().unwrap();
    let span = threads.len() as u64;
    for (tid, intervals) in threads.iter().enumerate() {
        let mut log =
            LogWriter::new(BufWriter::new(File::create(session.thread_log(tid as u32)).unwrap()));
        let mut rows = Vec::new();
        let mut encoder = EventEncoder::new();
        for (bid, accesses) in intervals.iter().enumerate() {
            encoder.reset();
            let begin = log.offset();
            let mut block = Vec::new();
            let mut held: Option<MutexId> = None;
            for a in accesses {
                // Emit minimal lock transitions around each access.
                if a.lock != held {
                    if let Some(m) = held {
                        encoder.encode(&Event::MutexRelease(m), &mut block);
                    }
                    if let Some(m) = a.lock {
                        encoder.encode(&Event::MutexAcquire(m), &mut block);
                    }
                    held = a.lock;
                }
                encoder.encode(
                    &Event::Access(MemAccess::new(a.addr, a.size, a.kind, a.pc)),
                    &mut block,
                );
            }
            if let Some(m) = held {
                encoder.encode(&Event::MutexRelease(m), &mut block);
            }
            log.write_block(&block).unwrap();
            rows.push(MetaRecord {
                pid: 0,
                ppid: None,
                bid: bid as u32,
                offset: tid as u64 + bid as u64 * span,
                span,
                level: 1,
                data_begin: begin,
                size: log.offset() - begin,
            });
        }
        log.flush().unwrap();
        drop(log);
        let mut f = BufWriter::new(File::create(session.thread_meta(tid as u32)).unwrap());
        meta::write_meta(&mut f, &rows).unwrap();
        f.flush().unwrap();
    }
    let mut f = BufWriter::new(File::create(session.regions_path()).unwrap());
    meta::write_regions(
        &mut f,
        &[RegionRecord {
            pid: 0,
            ppid: None,
            level: 1,
            span,
            fork_label: vec![0, 1],
            deps: vec![],
        }],
    )
    .unwrap();
    f.flush().unwrap();
    session
}

fn analyzer_pairs(session: &SessionDir) -> BTreeSet<(u32, u32)> {
    let result = analyze(session, &AnalysisConfig::sequential()).expect("analysis");
    result.races.iter().map(|r| (r.key.pc_lo, r.key.pc_hi)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn analyzer_matches_bruteforce_oracle(threads in arb_session(), case in 0u32..1000) {
        let dir = std::env::temp_dir().join(format!(
            "sword-oracle-{}-{case}",
            std::process::id()
        ));
        let session = write_session(&dir, &threads);
        let expect = oracle(&threads);

        let got = analyzer_pairs(&session);
        prop_assert_eq!(&got, &expect, "mismatch for {:?}", threads);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
