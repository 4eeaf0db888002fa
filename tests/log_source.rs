//! The log reader's contract, through the public API.
//!
//! `MappedLog` reads a thread log one frame at a time from its backing
//! reader. Here it must (1) serve the same bytes from a file and from an
//! in-memory cursor as the forward-streaming `LogReader` does, on a log
//! that mixes stored and compressed frames; (2) hold the same buffer
//! bytes whatever the log's length, so only its frame index grows with
//! the log; and (3) follow a log that was torn when it was opened once
//! the writer appends the rest. A meta row whose range wraps past
//! `u64::MAX` must fail the analysis cleanly rather than wrap offsets.

use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;

use sword::compress::parse_frame;
use sword::offline::{analyze, AnalysisConfig};
use sword::ompsim::SimConfig;
use sword::runtime::{run_collected, SwordConfig};
use sword::trace::{LogReader, LogSource, LogWriter, MappedLog, SessionDir, SourceStats};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sword-log-source-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

/// Blocks alternating compressible runs (compressed frames) and noise
/// (stored frames).
fn mixed_blocks(n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| if i % 2 == 0 { vec![i as u8; len + i] } else { noise(i as u64, len + i) })
        .collect()
}

fn log_of(blocks: &[Vec<u8>]) -> Vec<u8> {
    let mut w = LogWriter::new(Vec::new());
    for b in blocks {
        w.write_block(b).unwrap();
    }
    w.into_inner()
}

fn read(source: &mut impl LogSource, begin: u64, len: u64) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    source.read_range_with(begin, len, 64, &mut |s| {
        out.extend_from_slice(s);
        Ok(())
    })?;
    Ok(out)
}

#[test]
fn file_and_cursor_readers_match_the_streaming_reference() {
    let blocks = mixed_blocks(8, 900);
    let data = blocks.concat();
    let log = log_of(&blocks);
    let (mut stored, mut at) = (Vec::new(), 0);
    while let Some((view, consumed)) = parse_frame(&log[at..]).unwrap() {
        stored.push(view.stored);
        at += consumed;
    }
    assert_eq!(stored, [false, true].repeat(4), "one frame per block, compressed then stored");
    let path = tmp("match").join("thread_0.log");
    fs::write(&path, &log).unwrap();
    let mut file = MappedLog::open(&path, SourceStats::new()).unwrap();
    let mut cursor = MappedLog::from_bytes(log.clone(), SourceStats::new());
    let total = data.len() as u64;
    assert_eq!((file.raw_len(), cursor.raw_len()), (total, total));

    let mut reference = LogReader::new(&log[..]);
    for (begin, len) in [(0u64, 100u64), (100, 1700), (1800, 10), (2000, total - 2000)] {
        let mut streamed = Vec::new();
        reference.read_range(begin, len, &mut streamed).unwrap();
        assert_eq!(streamed, data[begin as usize..(begin + len) as usize], "forward {begin}+{len}");
        assert_eq!(read(&mut file, begin, len).unwrap(), streamed, "file {begin}+{len}");
        assert_eq!(read(&mut cursor, begin, len).unwrap(), streamed, "cursor {begin}+{len}");
    }
    // Backward, empty and whole-log ranges: the frame index makes both
    // readers random-access.
    for (begin, len) in [(5u64, 2000u64), (total, 0), (0, 0), (0, total), (total - 1, 1), (901, 1)]
    {
        let want = &data[begin as usize..(begin + len) as usize];
        assert_eq!(read(&mut file, begin, len).unwrap(), want, "file {begin}+{len}");
        assert_eq!(read(&mut cursor, begin, len).unwrap(), want, "cursor {begin}+{len}");
    }
    fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn held_bytes_grow_with_the_index_only() {
    let blocks = mixed_blocks(4, 4096);
    let mut max_raw = 0;
    let mut max_payload = 0;
    let mut at = 0;
    let one = log_of(&blocks);
    while let Some((view, consumed)) = parse_frame(&one[at..]).unwrap() {
        max_raw = max_raw.max(view.raw_len);
        if !view.stored {
            max_payload = max_payload.max(view.payload.len());
        }
        at += consumed;
    }
    let held = |copies: usize| {
        let blocks: Vec<Vec<u8>> = (0..copies).flat_map(|_| blocks.iter().cloned()).collect();
        let data = blocks.concat();
        let mut log = MappedLog::from_bytes(log_of(&blocks), SourceStats::new());
        assert_eq!(read(&mut log, 0, data.len() as u64).unwrap(), data);
        (log.buffer_bytes(), log.index_bytes())
    };
    let (buffers_1, index_1) = held(1);
    let (buffers_8, index_8) = held(8);
    assert_eq!(buffers_1, buffers_8, "the frame buffers do not grow with the log");
    assert!(index_8 > index_1, "the index does: {index_1} -> {index_8}");
    assert!(
        buffers_8 <= max_raw + max_payload,
        "{buffers_8} buffer bytes > one block ({max_raw}) plus one payload ({max_payload})"
    );
}

#[test]
fn a_log_torn_at_open_reads_once_the_rest_is_appended() {
    let blocks = mixed_blocks(4, 1500);
    let data = blocks.concat();
    let log = log_of(&blocks);
    // Tear inside the last frame's header, then inside its payload.
    let last = log_of(&blocks[..3]).len();
    let cuts = [last + 5, last + 20, log.len()];
    let path = tmp("torn").join("thread_0.log");
    fs::write(&path, &log[..cuts[0]]).unwrap();
    let mut source = MappedLog::open(&path, SourceStats::new()).unwrap();
    let indexed: u64 = blocks[..3].iter().map(|b| b.len() as u64).sum();
    assert_eq!(source.raw_len(), indexed);
    assert_eq!(read(&mut source, 0, indexed).unwrap(), data[..indexed as usize]);

    let total = data.len() as u64;
    let err = read(&mut source, indexed - 10, 20).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "torn header: {err}");
    let mut file = OpenOptions::new().append(true).open(&path).unwrap();
    file.write_all(&log[cuts[0]..cuts[1]]).unwrap();
    let err = read(&mut source, indexed - 10, 20).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "torn payload: {err}");
    file.write_all(&log[cuts[1]..cuts[2]]).unwrap();
    drop(file);

    assert_eq!(read(&mut source, indexed - 10, 20).unwrap(), data[indexed as usize - 10..][..20]);
    assert_eq!(source.raw_len(), total);
    assert_eq!(read(&mut source, 0, total).unwrap(), data);
    let err = read(&mut source, total - 5, 10).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(err.to_string().contains(&format!("{}..{}", total - 5, total + 5)), "{err}");
    fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn a_meta_row_whose_range_wraps_u64_fails_the_analysis_cleanly() {
    let root = tmp("wrap");
    run_collected(SwordConfig::new(&root), SimConfig::default(), |sim| {
        let a = sim.alloc::<i64>(1000, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static(1..1000, |i| {
                    let prev = w.read(&a, i - 1);
                    w.write(&a, i, prev + 1);
                });
            });
        });
    })
    .unwrap();
    let session = SessionDir::new(&root);
    let intact = analyze(&session, &AnalysisConfig::sequential()).unwrap();
    assert_eq!(intact.race_count(), 1);

    // Row 0 of thread 1 now claims 20 bytes from 6 below u64::MAX.
    let meta = session.thread_meta(1);
    let text = fs::read_to_string(&meta).unwrap();
    let mut rows: Vec<String> = text.lines().map(str::to_string).collect();
    let mut cols: Vec<String> = rows[0].split('\t').map(str::to_string).collect();
    cols[6] = (u64::MAX - 5).to_string();
    cols[7] = "20".to_string();
    rows[0] = cols.join("\t");
    fs::write(&meta, rows.join("\n") + "\n").unwrap();

    let err = analyze(&session, &AnalysisConfig::sequential()).map(|r| r.stats.events).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert_eq!(err.to_string(), "invalid meta field `size` on line 1");
    fs::remove_dir_all(&root).unwrap();
}
