//! The analyzer's open-file bound, counted by the operating system.
//!
//! A worker's `ReaderPool` indexes every thread log it reads and keeps
//! that index for the whole analysis, but it holds only its share of
//! `OPEN_LOGS_BUDGET` files open: past that it closes the least recently
//! read one and reopens it on the next read. Here one pool builds trees
//! for many thread logs twice over, and the process's descriptor count
//! (`/proc/self/fd`) must stay within the pool's share while the trees
//! match those of a pool that keeps every file open. This is the only
//! test in its binary, so no other test opens files meanwhile.

use std::fs;
use std::path::Path;

use sword::offline::build::{BiTree, ReaderPool, DEFAULT_CHUNK_BYTES};
use sword::trace::{
    AccessKind, Event, EventEncoder, LogWriter, MemAccess, SessionDir, SourceStats, ThreadId,
};

const LOGS: ThreadId = 40;
const MAX_OPEN: usize = 4;

/// Descriptors the process holds, or `None` where `/proc` is absent.
fn open_fds() -> Option<usize> {
    Some(fs::read_dir(Path::new("/proc/self/fd")).ok()?.count())
}

/// Thread `tid`'s log: scattered reads over several frames. Returns the
/// uncompressed length.
fn write_log(dir: &SessionDir, tid: ThreadId) -> u64 {
    let mut enc = EventEncoder::new();
    let mut w = LogWriter::new(Vec::new());
    let mut raw = 0;
    let mut x = u64::from(tid) | 1;
    for _frame in 0..3 {
        let mut block = Vec::new();
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let access = MemAccess::new((x % (1 << 20)) * 8, 8, AccessKind::Write, 1);
            enc.encode(&Event::Access(access), &mut block);
        }
        raw += block.len() as u64;
        w.write_block(&block).unwrap();
    }
    fs::write(dir.thread_log(tid), w.into_inner()).unwrap();
    raw
}

fn build_all(pool: &mut ReaderPool, dir: &SessionDir, lens: &[u64]) -> Vec<BiTree> {
    (0..LOGS)
        .map(|tid| pool.build(dir, tid, 0, lens[tid as usize], DEFAULT_CHUNK_BYTES).unwrap())
        .collect()
}

#[test]
fn a_pool_over_many_logs_holds_only_its_share_of_files_open() {
    let Some(before) = open_fds() else { return };
    let path = std::env::temp_dir().join(format!("sword-open-logs-{}", std::process::id()));
    let _ = fs::remove_dir_all(&path);
    let dir = SessionDir::new(&path);
    dir.create().unwrap();
    let lens: Vec<u64> = (0..LOGS).map(|tid| write_log(&dir, tid)).collect();

    // The reference: the whole budget, so every file stays open.
    let mut all_open = ReaderPool::new();
    let reference = build_all(&mut all_open, &dir, &lens);
    assert_eq!(open_fds().unwrap(), before + LOGS as usize, "the count sees held files");
    drop(all_open);
    assert_eq!(open_fds().unwrap(), before);

    // Two passes: the second reopens every file the first closed.
    let mut pool = ReaderPool::sharing(SourceStats::new(), MAX_OPEN);
    for _pass in 0..2 {
        for tid in 0..LOGS {
            let tree = pool.build(&dir, tid, 0, lens[tid as usize], DEFAULT_CHUNK_BYTES).unwrap();
            let want = &reference[tid as usize];
            assert_eq!(tree.node_count(), want.node_count(), "tid {tid}");
            assert_eq!(tree.heap_bytes(), want.heap_bytes(), "tid {tid}");
            assert!(open_fds().unwrap() <= before + MAX_OPEN, "tid {tid}");
        }
    }
    assert_eq!(open_fds().unwrap(), before + MAX_OPEN);
    drop(pool);
    assert_eq!(open_fds().unwrap(), before);
    fs::remove_dir_all(&path).unwrap();
}
