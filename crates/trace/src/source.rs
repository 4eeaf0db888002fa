//! Log sources: how the offline phase gets at a thread's uncompressed
//! event bytes.
//!
//! [`MappedLog`] holds the whole compressed log file as one immutable
//! in-memory image with a frame index built from a header-only scan.
//! Range reads hand out *borrowed* slices: stored frames are served
//! straight from the image with no copy at all, compressed frames are
//! decompressed into one recycled per-source arena
//! ([`sword_compress::FrameView::decode_into`]) and served from there.
//! Random access is free, so a reader pool never reopens a log. This
//! crate forbids `unsafe`, so the image is one `fs::read` where a real
//! `mmap(2)` would slot in — same single allocation, same zero-copy
//! reads off it.
//!
//! Torn or truncated logs degrade to clean errors, raised when a read
//! first reaches the damage. The forward-streaming [`crate::LogReader`]
//! is the reference the tests hold range contents against.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sword_compress::parse_frame;

/// Shared counters of log-source activity, updated by every source that
/// was opened with a clone of the same stats handle. The offline layer
/// surfaces these as registry rows (bytes mapped, arena reuse).
#[derive(Clone, Debug, Default)]
pub struct SourceStats(Arc<SourceStatsInner>);

#[derive(Debug, Default)]
struct SourceStatsInner {
    bytes_mapped: AtomicU64,
    arena_reuses: AtomicU64,
    arena_allocs: AtomicU64,
}

impl SourceStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total log bytes held as in-memory images across all opens.
    pub fn bytes_mapped(&self) -> u64 {
        self.0.bytes_mapped.load(Ordering::Relaxed)
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

    fn add_mapped(&self, bytes: u64) {
        self.0.bytes_mapped.fetch_add(bytes, Ordering::Relaxed);
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

/// One frame of a [`MappedLog`] image.
#[derive(Clone, Copy, Debug)]
struct FrameEntry {
    /// Uncompressed offset of the frame's first byte.
    raw_begin: u64,
    /// Uncompressed length.
    raw_len: u32,
    /// Payload byte range within the image.
    payload_begin: usize,
    payload_len: u32,
    /// Payload is the block itself (stored frame): serve it zero-copy.
    stored: bool,
}

/// Shared store of loaded log images, keyed by path. Each analysis
/// worker opens its own [`MappedLog`] per thread log (sources are
/// stateful: they hold a private decode arena), but the underlying file
/// image is immutable — sharing it here means a session's logs are read
/// and held once per analysis instead of once per worker, the way a real
/// `mmap(2)` would share pages between readers of one file.
#[derive(Clone, Debug, Default)]
pub struct ImageCache(Arc<Mutex<HashMap<std::path::PathBuf, Arc<Vec<u8>>>>>);

impl ImageCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The image for `path`, loading it on first request. `stats`
    /// charges `bytes_mapped` only on an actual load.
    fn load(&self, path: &Path, stats: &SourceStats) -> io::Result<Arc<Vec<u8>>> {
        let mut map = self.0.lock().expect("image cache lock");
        if let Some(image) = map.get(path) {
            return Ok(Arc::clone(image));
        }
        let image = Arc::new(fs::read(path)?);
        stats.add_mapped(image.len() as u64);
        map.insert(path.to_path_buf(), Arc::clone(&image));
        Ok(image)
    }
}

/// Whole-file immutable log image with zero-copy range reads.
#[derive(Debug)]
pub struct MappedLog {
    /// Backing file, when there is one: lets a live (still-growing) log
    /// remap its appended tail on demand. `None` for fixed images.
    path: Option<std::path::PathBuf>,
    image: Arc<Vec<u8>>,
    index: Vec<FrameEntry>,
    /// Uncompressed length covered by `index` (the valid prefix).
    raw_len: u64,
    /// Image offset where the frame scan stopped (resumes here after a
    /// remap appends more bytes).
    scan_pos: usize,
    /// Why the index scan stopped early, if it did; reads past `raw_len`
    /// reproduce this error — when the torn region is first reached —
    /// instead of failing eagerly at open.
    tail_error: Option<(io::ErrorKind, String)>,
    /// Recycled decompression arena and the frame it currently holds.
    arena: Vec<u8>,
    arena_frame: Option<usize>,
    stats: SourceStats,
}

impl MappedLog {
    /// Maps the log file at `path` into memory and indexes its frames.
    /// The mapping refreshes itself if the file grows (live sessions).
    pub fn open(path: &Path, stats: SourceStats) -> io::Result<MappedLog> {
        let mut log = Self::from_bytes(fs::read(path)?, stats);
        log.path = Some(path.to_path_buf());
        Ok(log)
    }

    /// Like [`MappedLog::open`], but the file image comes from (and is
    /// left in) `cache`: sources opened through the same cache share one
    /// image per file. Only the frame index and decode arena are
    /// per-source.
    pub fn open_cached(
        path: &Path,
        stats: SourceStats,
        cache: &ImageCache,
    ) -> io::Result<MappedLog> {
        let image = cache.load(path, &stats)?;
        let mut log = Self::from_image(image, stats);
        log.path = Some(path.to_path_buf());
        Ok(log)
    }

    /// Builds a mapped log over an already-materialized fixed image.
    pub fn from_bytes(image: Vec<u8>, stats: SourceStats) -> MappedLog {
        stats.add_mapped(image.len() as u64);
        Self::from_image(Arc::new(image), stats)
    }

    fn from_image(image: Arc<Vec<u8>>, stats: SourceStats) -> MappedLog {
        let mut log = MappedLog {
            path: None,
            image,
            index: Vec::new(),
            raw_len: 0,
            scan_pos: 0,
            tail_error: None,
            arena: Vec::new(),
            arena_frame: None,
            stats,
        };
        log.scan();
        log
    }

    /// Extends the frame index over image bytes not yet scanned.
    fn scan(&mut self) {
        self.tail_error = None;
        loop {
            match parse_frame(&self.image[self.scan_pos..]) {
                Ok(None) => break,
                Ok(Some((view, consumed))) => {
                    self.index.push(FrameEntry {
                        raw_begin: self.raw_len,
                        raw_len: view.raw_len as u32,
                        payload_begin: self.scan_pos + consumed - view.payload.len(),
                        payload_len: view.payload.len() as u32,
                        stored: view.stored,
                    });
                    self.raw_len += view.raw_len as u64;
                    self.scan_pos += consumed;
                }
                Err(e) => {
                    self.tail_error = Some((e.kind(), e.to_string()));
                    break;
                }
            }
        }
    }

    /// Appends any bytes the backing file has grown by since the last
    /// (re)map and continues the frame scan over them. A frame that was
    /// torn only because the writer was mid-append completes here.
    fn remap_tail(&mut self) -> io::Result<()> {
        use std::io::{Read as _, Seek, SeekFrom};
        let Some(path) = &self.path else { return Ok(()) };
        let mut f = fs::File::open(path)?;
        // A shared (cached) image stays fixed for its other holders:
        // growing detaches this source onto a private copy.
        let image = Arc::make_mut(&mut self.image);
        let before = image.len();
        f.seek(SeekFrom::Start(before as u64))?;
        f.read_to_end(image)?;
        let grown = image.len() - before;
        if grown == 0 {
            return Ok(());
        }
        self.stats.add_mapped(grown as u64);
        self.scan();
        Ok(())
    }

    /// Total uncompressed bytes addressable through the valid prefix.
    pub fn raw_len(&self) -> u64 {
        self.raw_len
    }

    /// The error a read past the valid prefix reproduces: the indexing
    /// error for a torn image, EOF for a plain short range.
    fn past_end_error(&self, begin: u64, len: u64) -> io::Error {
        match &self.tail_error {
            Some((kind, msg)) => io::Error::new(*kind, msg.clone()),
            None => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("log ended before range {}..{}", begin, begin + len),
            ),
        }
    }
}

impl LogSource for MappedLog {
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
        let end = begin + len;
        if end > self.raw_len {
            self.remap_tail()?;
            if end > self.raw_len {
                return Err(self.past_end_error(begin, len));
            }
        }
        // First frame whose range reaches past `begin`.
        let mut fi = self.index.partition_point(|f| f.raw_begin + f.raw_len as u64 <= begin);
        let mut pos = begin;
        while pos < end {
            let f = self.index[fi];
            let frame_end = f.raw_begin + f.raw_len as u64;
            let lo = (pos - f.raw_begin) as usize;
            let hi = (end.min(frame_end) - f.raw_begin) as usize;
            if f.stored {
                let payload =
                    &self.image[f.payload_begin..f.payload_begin + f.payload_len as usize];
                sink(&payload[lo..hi])?;
            } else {
                if self.arena_frame != Some(fi) {
                    let payload =
                        &self.image[f.payload_begin..f.payload_begin + f.payload_len as usize];
                    let view = sword_compress::FrameView {
                        raw_len: f.raw_len as usize,
                        payload,
                        stored: false,
                    };
                    let cap = self.arena.capacity();
                    view.decode_into(&mut self.arena)?;
                    self.stats.count_decode(cap > 0 && self.arena.capacity() == cap);
                    self.arena_frame = Some(fi);
                }
                sink(&self.arena[lo..hi])?;
            }
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
    fn mapped_stored_frames_borrow_the_image() {
        // A single incompressible block: its frame is stored, so a read
        // must not touch the arena at all.
        let mut x = 7u64;
        let noisy: Vec<u8> = (0..2000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let log = build_log(std::slice::from_ref(&noisy));
        let stats = SourceStats::new();
        let mut mapped = MappedLog::from_bytes(log, stats.clone());
        assert_eq!(collect(&mut mapped, 10, 500, 64), noisy[10..510]);
        assert_eq!(stats.arena_reuses() + stats.arena_allocs(), 0, "no decompression happened");
        assert!(stats.bytes_mapped() > 0);
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
