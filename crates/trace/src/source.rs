//! Log sources: how the offline phase gets at a thread's uncompressed
//! event bytes.
//!
//! [`MappedLog`] reads a log one frame at a time, where the frame lies.
//! Opening a log scans its frame headers only and keeps a few bytes of
//! index per frame; the payloads stay on disk. A range read seeks to
//! each frame it touches and reads that frame's payload into one
//! recycled per-source buffer: a stored frame lands there as it is, a
//! compressed frame is read into a payload buffer and decoded into it
//! ([`sword_compress::FrameView::decode_into`]). So a source holds one
//! frame's block and payload plus its index, however long the log is,
//! and the same source serves random-access ranges for the whole
//! analysis. A read past the indexed prefix resumes the header scan over
//! whatever the file has grown by, which is how a live log is followed.
//!
//! Torn or truncated logs degrade to clean errors, raised when a read
//! first reaches the damage. The forward-streaming [`crate::LogReader`]
//! is the reference the tests hold range contents against.

use std::fs::File;
use std::io::{self, BufReader, Cursor, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sword_compress::{parse_header, FrameView, FRAME_HEADER_LEN};

/// Buffer of the header scan: a run of small compressed frames is
/// indexed from one read.
const SCAN_BUF_BYTES: usize = 8 * 1024;

/// Shared counters of log-source activity, updated by every source that
/// was opened with a clone of the same stats handle. The offline layer
/// surfaces these as registry rows (bytes read, arena reuse).
#[derive(Clone, Debug, Default)]
pub struct SourceStats(Arc<SourceStatsInner>);

#[derive(Debug, Default)]
struct SourceStatsInner {
    bytes_read: AtomicU64,
    arena_reuses: AtomicU64,
    arena_allocs: AtomicU64,
}

impl SourceStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Log bytes read from the backing readers: frame headers while
    /// indexing, and the payload of every frame a range read fetched.
    pub fn bytes_read(&self) -> u64 {
        self.0.bytes_read.load(Ordering::Relaxed)
    }

    /// Frame decompressions that landed in an already-sized arena
    /// (no allocation).
    pub fn arena_reuses(&self) -> u64 {
        self.0.arena_reuses.load(Ordering::Relaxed)
    }

    /// Frame decompressions that had to grow their arena.
    pub fn arena_allocs(&self) -> u64 {
        self.0.arena_allocs.load(Ordering::Relaxed)
    }

    fn add_read(&self, bytes: usize) {
        self.0.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn count_decode(&self, reused: bool) {
        let cell = if reused { &self.0.arena_reuses } else { &self.0.arena_allocs };
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// A source of uncompressed log bytes, addressed like the meta-data file
/// addresses them: by offset into the uncompressed stream.
pub trait LogSource {
    /// Streams the uncompressed range `[begin, begin + len)` to `sink` as
    /// one or more in-order borrowed slices. `chunk_bytes` is a hint a
    /// buffering implementation may cap its slices by; [`MappedLog`]
    /// hands out frame-sized slices and ignores it.
    fn read_range_with(
        &mut self,
        begin: u64,
        len: u64,
        chunk_bytes: usize,
        sink: &mut dyn FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<()>;
}

/// Where one frame of a [`MappedLog`] lies.
#[derive(Clone, Copy, Debug)]
struct FrameEntry {
    /// Uncompressed offset of the frame's first byte.
    raw_begin: u64,
    /// Offset of the frame's payload in the backing reader.
    payload_pos: u64,
    /// Uncompressed length.
    raw_len: u32,
    payload_len: u32,
    /// The payload is the block itself (stored frame).
    stored: bool,
}

/// A thread log read frame by frame from its backing reader (module
/// docs): a file for the analyzer, a [`Cursor`] over bytes in tests.
#[derive(Debug)]
pub struct MappedLog<R = File> {
    reader: R,
    index: Vec<FrameEntry>,
    /// Uncompressed length covered by `index` (the valid prefix).
    raw_len: u64,
    /// Reader offset where the frame scan stopped; the next scan resumes
    /// here.
    scan_pos: u64,
    /// Why the last scan stopped short of the reader's end, if it did;
    /// reads past `raw_len` reproduce this error — when the torn region
    /// is first reached — instead of failing eagerly at open.
    tail_error: Option<(io::ErrorKind, String)>,
    /// The block of frame `block_frame`, recycled from frame to frame.
    block: Vec<u8>,
    block_frame: Option<usize>,
    /// A compressed frame's payload, read here and decoded into `block`.
    payload: Vec<u8>,
    stats: SourceStats,
}

impl MappedLog {
    /// Opens the log file at `path` and indexes its frames. Reads past
    /// the indexed prefix pick up whatever the file has grown by (live
    /// sessions).
    pub fn open(path: &Path, stats: SourceStats) -> io::Result<MappedLog> {
        MappedLog::new(File::open(path)?, stats)
    }
}

impl MappedLog<Cursor<Vec<u8>>> {
    /// A source over log bytes already in memory.
    pub fn from_bytes(log: Vec<u8>, stats: SourceStats) -> Self {
        MappedLog::new(Cursor::new(log), stats).expect("seeks and in-bounds reads of a Vec succeed")
    }
}

impl<R: Read + Seek> MappedLog<R> {
    /// A source over `reader`, with its frames indexed. Fails only on an
    /// I/O error of the reader; a damaged frame stops the index and is
    /// reported by the first read that reaches it.
    pub fn new(reader: R, stats: SourceStats) -> io::Result<Self> {
        let mut log = MappedLog {
            reader,
            index: Vec::new(),
            raw_len: 0,
            scan_pos: 0,
            tail_error: None,
            block: Vec::new(),
            block_frame: None,
            payload: Vec::new(),
            stats,
        };
        log.scan()?;
        Ok(log)
    }

    /// Extends the frame index over the reader's bytes past `scan_pos`,
    /// reading one header per frame and no payload. The scan only moves
    /// forward, so headers come through one buffer and payloads are
    /// skipped in it: a run of small frames costs one read, not two
    /// syscalls a frame. A frame the reader does not hold in full stops
    /// the scan, and a later scan resumes there: a frame torn only
    /// because the writer was mid-append completes once the rest is
    /// written.
    fn scan(&mut self) -> io::Result<()> {
        self.tail_error = None;
        let end = self.reader.seek(SeekFrom::End(0))?;
        if self.scan_pos >= end {
            return Ok(());
        }
        self.reader.seek(SeekFrom::Start(self.scan_pos))?;
        let mut headers = BufReader::with_capacity(SCAN_BUF_BYTES, &mut self.reader);
        let mut header = [0u8; FRAME_HEADER_LEN];
        while self.scan_pos < end {
            let payload_pos = self.scan_pos + FRAME_HEADER_LEN as u64;
            if payload_pos > end {
                self.tail_error =
                    Some((io::ErrorKind::InvalidData, "truncated frame header".into()));
                break;
            }
            headers.read_exact(&mut header)?;
            self.stats.add_read(FRAME_HEADER_LEN);
            let h = match parse_header(&header) {
                Ok(h) => h,
                Err(e) => {
                    self.tail_error = Some((e.kind(), e.to_string()));
                    break;
                }
            };
            let frame_end = payload_pos + h.payload_len as u64;
            if frame_end > end {
                self.tail_error =
                    Some((io::ErrorKind::UnexpectedEof, "frame payload past end of log".into()));
                break;
            }
            self.index.push(FrameEntry {
                raw_begin: self.raw_len,
                payload_pos,
                raw_len: h.raw_len as u32,
                payload_len: h.payload_len as u32,
                stored: h.stored,
            });
            self.raw_len += h.raw_len as u64;
            self.scan_pos = frame_end;
            headers.seek_relative(h.payload_len as i64)?;
        }
        Ok(())
    }

    /// Makes `block` hold frame `fi`'s uncompressed bytes.
    fn load(&mut self, fi: usize) -> io::Result<()> {
        if self.block_frame == Some(fi) {
            return Ok(());
        }
        self.block_frame = None;
        let f = self.index[fi];
        let len = f.payload_len as usize;
        let into = if f.stored { &mut self.block } else { &mut self.payload };
        into.clear();
        into.reserve_exact(len);
        into.resize(len, 0);
        self.reader.seek(SeekFrom::Start(f.payload_pos))?;
        self.reader.read_exact(into)?;
        self.stats.add_read(len);
        if !f.stored {
            let cap = self.block.capacity();
            let view =
                FrameView { raw_len: f.raw_len as usize, payload: &self.payload, stored: false };
            view.decode_into(&mut self.block)?;
            self.stats.count_decode(cap > 0 && self.block.capacity() == cap);
        }
        self.block_frame = Some(fi);
        Ok(())
    }

    /// The backing reader. Every read of the source seeks before it
    /// reads, so between reads the reader may be let go of and reopened
    /// (a pool of sources closing files it holds too many of).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.reader
    }

    /// Total uncompressed bytes addressable through the valid prefix.
    pub fn raw_len(&self) -> u64 {
        self.raw_len
    }

    /// Bytes held by the frame buffers (their capacities): at most the
    /// largest block plus the largest compressed payload read so far,
    /// whatever the length of the log.
    pub fn buffer_bytes(&self) -> usize {
        self.block.capacity() + self.payload.capacity()
    }

    /// Bytes held by the frame index: a fixed few per frame.
    pub fn index_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<FrameEntry>()
    }

    /// The error a read of `begin..end` past the valid prefix reproduces:
    /// the indexing error for a torn log, EOF for a plain short range.
    fn past_end_error(&self, begin: u64, end: u64) -> io::Error {
        match &self.tail_error {
            Some((kind, msg)) => io::Error::new(*kind, msg.clone()),
            None => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("log ended before range {begin}..{end}"),
            ),
        }
    }
}

impl<R: Read + Seek> LogSource for MappedLog<R> {
    fn read_range_with(
        &mut self,
        begin: u64,
        len: u64,
        _chunk_bytes: usize,
        sink: &mut dyn FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        let end = begin.checked_add(len).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("log range {begin}+{len} wraps past u64::MAX"),
            )
        })?;
        if end > self.raw_len {
            self.scan()?;
            if end > self.raw_len {
                return Err(self.past_end_error(begin, end));
            }
        }
        // First frame whose range reaches past `begin`.
        let mut fi = self.index.partition_point(|f| f.raw_begin + f.raw_len as u64 <= begin);
        let mut pos = begin;
        while pos < end {
            let f = self.index[fi];
            self.load(fi)?;
            let lo = (pos - f.raw_begin) as usize;
            let hi = (end.min(f.raw_begin + f.raw_len as u64) - f.raw_begin) as usize;
            sink(&self.block[lo..hi])?;
            pos = f.raw_begin + hi as u64;
            fi += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogReader, LogWriter};

    fn build_log(blocks: &[Vec<u8>]) -> Vec<u8> {
        let mut w = LogWriter::new(Vec::new());
        for b in blocks {
            w.write_block(b).unwrap();
        }
        w.into_inner()
    }

    fn collect(source: &mut dyn LogSource, begin: u64, len: u64, chunk: usize) -> Vec<u8> {
        let mut out = Vec::new();
        source
            .read_range_with(begin, len, chunk, &mut |s| {
                out.extend_from_slice(s);
                Ok(())
            })
            .unwrap();
        out
    }

    /// Repetitive + incompressible blocks: the log mixes compressed and
    /// stored frames, exercising both mapped read paths.
    fn mixed_blocks() -> Vec<Vec<u8>> {
        let mut x = 0xdeadbeefcafef00du64;
        (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    vec![i as u8; 700 + i * 13]
                } else {
                    (0..500 + i * 7)
                        .map(|_| {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            (x >> 33) as u8
                        })
                        .collect()
                }
            })
            .collect()
    }

    #[test]
    fn mapped_reads_match_the_streaming_reference() {
        let blocks = mixed_blocks();
        let data: Vec<u8> = blocks.concat();
        let log = build_log(&blocks);
        let mut mapped = MappedLog::from_bytes(log.clone(), SourceStats::new());
        let mut reference = LogReader::new(&log[..]);
        assert_eq!(mapped.raw_len(), data.len() as u64);
        // Forward ranges crossing frame boundaries, on both readers.
        let total = data.len() as u64;
        for (begin, len) in [(0u64, 100u64), (100, 900), (1000, total - 1000)] {
            let mut streamed = Vec::new();
            reference.read_range(begin, len, &mut streamed).unwrap();
            assert_eq!(streamed, data[begin as usize..(begin + len) as usize]);
            assert_eq!(collect(&mut mapped, begin, len, 64), streamed, "mapped {begin}+{len}");
        }
        // The map is random-access: whole-log, empty and backward ranges.
        for (begin, len) in [(0u64, total), (total, 0), (5, 20)] {
            let m = collect(&mut mapped, begin, len, 64);
            assert_eq!(m, data[begin as usize..(begin + len) as usize], "mapped {begin}+{len}");
        }
    }

    #[test]
    fn stored_frames_are_never_decompressed() {
        // A single incompressible block: its frame is stored, so a read
        // lands its payload in the block buffer and decodes nothing.
        let mut x = 7u64;
        let noisy: Vec<u8> = (0..2000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let log = build_log(std::slice::from_ref(&noisy));
        let stats = SourceStats::new();
        let mut mapped = MappedLog::from_bytes(log.clone(), stats.clone());
        assert_eq!(collect(&mut mapped, 10, 500, 64), noisy[10..510]);
        assert_eq!(collect(&mut mapped, 0, 2000, 64), noisy);
        assert_eq!(stats.arena_reuses() + stats.arena_allocs(), 0, "no decompression happened");
        assert_eq!(stats.bytes_read(), log.len() as u64, "one header, then the payload once");
    }

    #[test]
    fn a_range_that_wraps_u64_is_invalid_data() {
        let log = build_log(&[vec![1u8; 100]]);
        let mut mapped = MappedLog::from_bytes(log, SourceStats::new());
        let err = mapped.read_range_with(u64::MAX - 5, 20, 64, &mut |_| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("wraps"), "{err}");
    }

    #[test]
    fn arena_recycles_across_frames() {
        let blocks: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 3000]).collect();
        let data: Vec<u8> = blocks.concat();
        let log = build_log(&blocks);
        let stats = SourceStats::new();
        let mut mapped = MappedLog::from_bytes(log, stats.clone());
        assert_eq!(collect(&mut mapped, 0, data.len() as u64, 64), data);
        assert_eq!(stats.arena_reuses() + stats.arena_allocs(), 4, "one decode per frame");
        assert!(stats.arena_reuses() >= 3, "equal-sized frames reuse the arena");
        // Re-reading the last frame costs nothing: it is still decoded.
        let last = data.len() as u64 - 100;
        assert_eq!(collect(&mut mapped, last, 100, 64), data[last as usize..]);
        assert_eq!(stats.arena_reuses() + stats.arena_allocs(), 4);
    }

    #[test]
    fn torn_log_errors_only_when_reached() {
        // Last block is incompressible noise: its frame is stored with a
        // 1000-byte payload, so truncating tears the payload, not a header.
        let mut x = 3u64;
        let noisy: Vec<u8> = (0..1000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let blocks = vec![vec![0u8; 1000], vec![1u8; 1000], noisy];
        let mut log = build_log(&blocks);
        let torn = log.len() - 10;
        log.truncate(torn); // tear the last frame's payload
        let mut mapped = MappedLog::from_bytes(log, SourceStats::new());
        // The valid prefix (first two frames) reads fine.
        assert_eq!(mapped.raw_len(), 2000);
        assert_eq!(collect(&mut mapped, 0, 2000, 64), blocks[..2].concat());
        // Touching the torn frame reproduces the indexing error.
        let err = mapped.read_range_with(1500, 1000, 64, &mut |_| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn range_past_eof_is_clean_eof() {
        let log = build_log(&[vec![1u8; 100]]);
        let mut mapped = MappedLog::from_bytes(log, SourceStats::new());
        let err = mapped.read_range_with(50, 100, 64, &mut |_| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("50..150"), "{err}");
    }
}
