//! Per-thread log files: compressed frames of encoded events, addressed by
//! *uncompressed* byte offsets.
//!
//! The meta-data file locates each barrier interval's events by
//! `(data_begin, size)` in the uncompressed stream (Table I). [`LogWriter`]
//! is what the collector writes through. [`LogReader`] is the paper's
//! streaming algorithm (§III-B) in its plainest form: it streams frames
//! forward, keeping only the window needed for the currently requested
//! range. The analyzer reads through [`crate::MappedLog`] instead; this
//! reader is the small reference its tests compare range contents
//! against.

use std::io::{self, Read, Write};

use sword_compress::{FrameReader, FrameWriter};

/// Writes event blocks as compressed frames, tracking the uncompressed
/// offset that meta-data records reference.
#[derive(Debug)]
pub struct LogWriter<W: Write> {
    frames: FrameWriter<W>,
    uncompressed_offset: u64,
}

impl<W: Write> LogWriter<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        LogWriter { frames: FrameWriter::new(inner), uncompressed_offset: 0 }
    }

    /// Current uncompressed offset — the `data_begin` of the next byte
    /// written.
    pub fn offset(&self) -> u64 {
        self.uncompressed_offset
    }

    /// Compresses and writes one block (one flushed buffer). Empty blocks
    /// are skipped.
    pub fn write_block(&mut self, block: &[u8]) -> io::Result<()> {
        if block.is_empty() {
            return Ok(());
        }
        self.frames.write_frame(block)?;
        self.uncompressed_offset += block.len() as u64;
        Ok(())
    }

    /// Writes a frame already encoded by
    /// [`sword_compress::encode_frame_into`] — the hand-off point for
    /// compression worker pools that encode off the I/O thread. `raw_len`
    /// is the block's uncompressed length; empty blocks are skipped to
    /// match [`LogWriter::write_block`].
    pub fn write_encoded_block(&mut self, frame: &[u8], raw_len: u64) -> io::Result<()> {
        if raw_len == 0 {
            return Ok(());
        }
        self.frames.write_encoded_frame(frame, raw_len)?;
        self.uncompressed_offset += raw_len;
        Ok(())
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.frames.flush()
    }

    /// Total uncompressed bytes accepted.
    pub fn raw_bytes(&self) -> u64 {
        self.frames.raw_bytes()
    }

    /// Total compressed bytes written downstream (headers included).
    pub fn written_bytes(&self) -> u64 {
        self.frames.written_bytes()
    }

    /// Achieved compression ratio.
    pub fn ratio(&self) -> f64 {
        self.frames.ratio()
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.frames.into_inner()
    }
}

/// Streams uncompressed byte ranges out of a log file.
///
/// Ranges must be requested in non-decreasing `begin` order (the offline
/// analyzer visits each thread's barrier intervals in file order); the
/// reader holds only the bytes between the oldest still-needed offset and
/// the newest decompressed frame.
#[derive(Debug)]
pub struct LogReader<R: Read> {
    frames: FrameReader<R>,
    window: Vec<u8>,
    /// Uncompressed offset of `window[0]`.
    window_start: u64,
    eof: bool,
}

impl<R: Read> LogReader<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        LogReader {
            frames: FrameReader::new(inner),
            window: Vec::new(),
            window_start: 0,
            eof: false,
        }
    }

    /// Reads the uncompressed range `[begin, begin + len)` into `out`
    /// (appending). Requests must not go backwards past data already
    /// discarded.
    pub fn read_range(&mut self, begin: u64, len: u64, out: &mut Vec<u8>) -> io::Result<()> {
        let slice = self.range_ref(begin, len)?;
        out.extend_from_slice(slice);
        Ok(())
    }

    /// Like [`LogReader::read_range`], but hands back the range as a
    /// borrowed slice of the streaming window — the zero-copy read path.
    /// The slice is valid until the next call on this reader.
    pub fn range_ref(&mut self, begin: u64, len: u64) -> io::Result<&[u8]> {
        if len == 0 {
            return Ok(&[]);
        }
        if begin < self.window_start {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "log range {}..{} precedes streaming window at {}",
                    begin,
                    begin + len,
                    self.window_start
                ),
            ));
        }
        // Discard bytes before `begin`.
        let skip = (begin - self.window_start) as usize;
        if skip > 0 && skip <= self.window.len() {
            self.window.drain(..skip);
            self.window_start = begin;
        } else if skip > self.window.len() {
            // Skip whole frames; frames entirely before `begin` are
            // discarded without decompression (header-only reads).
            self.window_start += self.window.len() as u64;
            self.window.clear();
            while self.window_start < begin {
                let Some(raw_len) = self.frames.peek_raw_len()? else {
                    self.eof = true;
                    return Err(unexpected_eof(begin, len));
                };
                if self.window_start + raw_len as u64 <= begin {
                    self.frames.skip_frame()?;
                    self.window_start += raw_len as u64;
                } else {
                    self.frames.read_frame(&mut self.window)?;
                    let inner_skip = (begin - self.window_start) as usize;
                    self.window.drain(..inner_skip);
                    self.window_start = begin;
                }
            }
        }
        // Fill until the window covers the request.
        let end = begin + len;
        while self.window_start + (self.window.len() as u64) < end {
            if self.frames.read_frame(&mut self.window)?.is_none() {
                self.eof = true;
                return Err(unexpected_eof(begin, len));
            }
        }
        let lo = (begin - self.window_start) as usize;
        Ok(&self.window[lo..lo + len as usize])
    }

    /// Decompresses the remainder of the stream into `out`; returns bytes
    /// read.
    pub fn read_to_end(&mut self, out: &mut Vec<u8>) -> io::Result<u64> {
        let mut total = self.window.len() as u64;
        out.append(&mut self.window);
        loop {
            let before = out.len();
            match self.frames.read_frame(out)? {
                None => break,
                Some(_) => total += (out.len() - before) as u64,
            }
        }
        self.eof = true;
        Ok(total)
    }
}

fn unexpected_eof(begin: u64, len: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("log ended before range {}..{}", begin, begin + len),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_log(blocks: &[Vec<u8>]) -> Vec<u8> {
        let mut w = LogWriter::new(Vec::new());
        for b in blocks {
            w.write_block(b).unwrap();
        }
        w.into_inner()
    }

    #[test]
    fn offsets_track_uncompressed_bytes() {
        let mut w = LogWriter::new(Vec::new());
        assert_eq!(w.offset(), 0);
        w.write_block(&[1; 100]).unwrap();
        assert_eq!(w.offset(), 100);
        w.write_block(&[]).unwrap();
        assert_eq!(w.offset(), 100, "empty blocks are no-ops");
        w.write_block(&[2; 50]).unwrap();
        assert_eq!(w.offset(), 150);
        assert_eq!(w.raw_bytes(), 150);
    }

    #[test]
    fn encoded_blocks_interleave_with_plain_blocks() {
        // A stream mixing inline-compressed and pre-encoded frames must be
        // indistinguishable to the reader, with offsets tracking raw bytes.
        let a = vec![1u8; 800];
        let b: Vec<u8> = (0..900u32).map(|i| (i * 13) as u8).collect();
        let c = vec![3u8; 700];
        let mut w = LogWriter::new(Vec::new());
        w.write_block(&a).unwrap();
        let mut comp = sword_compress::Compressor::new();
        let mut frame = Vec::new();
        sword_compress::encode_frame_into(&mut comp, &b, &mut frame);
        w.write_encoded_block(&frame, b.len() as u64).unwrap();
        w.write_encoded_block(&[], 0).unwrap(); // empty: no-op
        w.write_block(&c).unwrap();
        assert_eq!(w.offset(), (a.len() + b.len() + c.len()) as u64);
        assert_eq!(w.raw_bytes(), w.offset());
        let log = w.into_inner();
        let mut r = LogReader::new(&log[..]);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, [a, b, c].concat());
    }

    #[test]
    fn read_exact_ranges() {
        let data: Vec<u8> = (0..255u8).cycle().take(10_000).collect();
        let log = build_log(&data.chunks(700).map(|c| c.to_vec()).collect::<Vec<_>>());
        let mut r = LogReader::new(&log[..]);
        let mut out = Vec::new();
        r.read_range(0, 100, &mut out).unwrap();
        assert_eq!(out, data[..100]);
        out.clear();
        // Skip ahead across frame boundaries.
        r.read_range(5000, 2000, &mut out).unwrap();
        assert_eq!(out, data[5000..7000]);
        out.clear();
        // Contiguous follow-up.
        r.read_range(7000, 3000, &mut out).unwrap();
        assert_eq!(out, data[7000..10_000]);
    }

    #[test]
    fn overlapping_forward_ranges() {
        let data: Vec<u8> = (0..200u8).collect();
        let log = build_log(std::slice::from_ref(&data));
        let mut r = LogReader::new(&log[..]);
        let mut out = Vec::new();
        r.read_range(10, 50, &mut out).unwrap();
        out.clear();
        // Overlaps previous range's tail — allowed as long as begin does
        // not go before the discarded prefix.
        r.read_range(30, 50, &mut out).unwrap();
        assert_eq!(out, data[30..80]);
    }

    #[test]
    fn backwards_range_rejected() {
        let log = build_log(&[vec![0; 1000]]);
        let mut r = LogReader::new(&log[..]);
        let mut out = Vec::new();
        r.read_range(500, 10, &mut out).unwrap();
        assert!(r.read_range(100, 10, &mut out).is_err());
    }

    #[test]
    fn range_past_eof_rejected() {
        let log = build_log(&[vec![0; 100]]);
        let mut r = LogReader::new(&log[..]);
        let mut out = Vec::new();
        let err = r.read_range(50, 100, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn read_to_end_collects_everything() {
        let blocks: Vec<Vec<u8>> = (0..5).map(|i| vec![i as u8; 1000]).collect();
        let log = build_log(&blocks);
        let mut r = LogReader::new(&log[..]);
        let mut out = Vec::new();
        assert_eq!(r.read_to_end(&mut out).unwrap(), 5000);
        assert_eq!(out, blocks.concat());
    }

    #[test]
    fn read_to_end_after_partial_reads() {
        let data: Vec<u8> = (0..100u8).collect();
        let log = build_log(std::slice::from_ref(&data));
        let mut r = LogReader::new(&log[..]);
        let mut out = Vec::new();
        r.read_range(0, 10, &mut out).unwrap();
        out.clear();
        let n = r.read_to_end(&mut out).unwrap();
        assert_eq!(n, 100); // window still held the full frame
        assert_eq!(out, data);
    }

    #[test]
    fn zero_length_range_is_noop() {
        let log = build_log(&[vec![9; 10]]);
        let mut r = LogReader::new(&log[..]);
        let mut out = Vec::new();
        r.read_range(3, 0, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn compresses_event_like_data() {
        // Delta-encoded event streams are byte-repetitive; expect >2x.
        let block: Vec<u8> = (0..25_000u32).flat_map(|_| [0x31u8, 0x10, 0x02]).collect();
        let mut w = LogWriter::new(Vec::new());
        w.write_block(&block).unwrap();
        assert!(w.ratio() > 10.0, "ratio {}", w.ratio());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_forward_ranges(
            blocks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..800), 1..10),
            cuts in prop::collection::vec(0.0f64..1.0, 1..12),
        ) {
            let data: Vec<u8> = blocks.concat();
            let mut w = LogWriter::new(Vec::new());
            for b in &blocks {
                w.write_block(b).unwrap();
            }
            let log = w.into_inner();
            let mut r = LogReader::new(&log[..]);
            // Sorted, in-bounds (begin, len) requests.
            let mut begins: Vec<u64> = cuts.iter()
                .map(|f| (f * data.len() as f64) as u64)
                .collect();
            begins.sort_unstable();
            let mut prev_end = 0u64;
            for begin in begins {
                let begin = begin.max(prev_end); // keep strictly forward
                let max_len = data.len() as u64 - begin;
                let len = max_len.min(64);
                let mut out = Vec::new();
                r.read_range(begin, len, &mut out).unwrap();
                prop_assert_eq!(&out[..], &data[begin as usize..(begin + len) as usize]);
                prev_end = begin;
            }
        }
    }
}
