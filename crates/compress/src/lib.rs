//! Block compression for SWORD's bounded-buffer trace pipeline.
//!
//! When a thread's bounded event buffer fills, SWORD compresses it and
//! writes it to the thread's log file asynchronously (§III-A). The paper
//! compared LZO, Snappy, and LZ4, found them interchangeable for this
//! workload, and picked LZO for integration convenience. This crate is the
//! stand-in: a byte-oriented LZ77-family codec of the same family —
//! hash-table match finding with an LZ4-style token stream, skip-trigger
//! acceleration over incompressible runs, and a reusable [`Compressor`]
//! scratch struct so worker threads never re-zero the hash table per
//! block — plus a framed block format ([`FrameWriter`]/[`FrameReader`])
//! with a stored-block fallback so incompressible data never expands by
//! more than the 13-byte frame header. [`encode_frame_into`] exposes the
//! frame encoder directly for compression worker pools that hand finished
//! frame bytes to a separate ordered I/O thread.
//!
//! Trace data (varint-packed deltas of addresses and program counters) is
//! highly repetitive, so ratios on real logs are typically far above 10×;
//! see the `ablation_compression` bench.
//!
//! # Example
//!
//! ```
//! use sword_compress::{FrameReader, FrameWriter};
//!
//! // One frame per flushed event buffer.
//! let mut writer = FrameWriter::new(Vec::new());
//! let buffer = vec![7u8; 25_000];
//! writer.write_frame(&buffer).unwrap();
//! assert!(writer.ratio() > 100.0, "repetitive buffers collapse");
//!
//! let bytes = writer.into_inner();
//! let mut reader = FrameReader::new(&bytes[..]);
//! let mut out = Vec::new();
//! reader.read_frame(&mut out).unwrap();
//! assert_eq!(out, buffer);
//! ```

#![forbid(unsafe_code)]

use std::io::{self, Read, Write};

mod lz;

use lz::max_decompressed_len;
pub use lz::{compress, decompress, max_compressed_len, Compressor, DecodeError};

/// Magic bytes opening every frame: "SWLZ".
pub const FRAME_MAGIC: [u8; 4] = *b"SWLZ";

/// Frame header layout: magic (4) + raw_len (4, LE) + payload_len (4, LE) +
/// flags (1).
pub const FRAME_HEADER_LEN: usize = 13;

/// Flag: payload is stored uncompressed.
const FLAG_STORED: u8 = 1;

/// Encodes `block` as one complete frame (header + payload) appended to
/// `out`, reusing `compressor`'s scratch state. Falls back to a stored
/// payload when compression does not help. Returns the number of frame
/// bytes appended.
///
/// This is the allocation-free building block behind
/// [`FrameWriter::write_frame`]; compression worker pools call it directly
/// to encode frames off the I/O thread and hand finished bytes to an
/// ordered writer.
pub fn encode_frame_into(compressor: &mut Compressor, block: &[u8], out: &mut Vec<u8>) -> usize {
    assert!(block.len() <= u32::MAX as usize, "frame too large");
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    compressor.compress(block, out);
    let mut payload_len = out.len() - start - FRAME_HEADER_LEN;
    let mut flags = 0u8;
    if payload_len >= block.len() {
        out.truncate(start + FRAME_HEADER_LEN);
        out.extend_from_slice(block);
        payload_len = block.len();
        flags = FLAG_STORED;
    }
    let header = &mut out[start..start + FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..8].copy_from_slice(&(block.len() as u32).to_le_bytes());
    header[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    header[12] = flags;
    out.len() - start
}

/// Writes length-prefixed compressed frames to an underlying writer. One
/// frame corresponds to one flushed event buffer.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    compressor: Compressor,
    scratch: Vec<u8>,
    raw_bytes: u64,
    written_bytes: u64,
    frames: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        FrameWriter {
            inner,
            compressor: Compressor::new(),
            scratch: Vec::new(),
            raw_bytes: 0,
            written_bytes: 0,
            frames: 0,
        }
    }

    /// Compresses `block` and writes one frame, reusing this writer's
    /// [`Compressor`] scratch state across calls. Falls back to a stored
    /// frame when compression does not help. Returns the number of bytes
    /// written to the underlying writer (header included).
    pub fn write_frame(&mut self, block: &[u8]) -> io::Result<usize> {
        self.scratch.clear();
        encode_frame_into(&mut self.compressor, block, &mut self.scratch);
        let total = self.scratch.len();
        self.inner.write_all(&self.scratch)?;
        self.raw_bytes += block.len() as u64;
        self.written_bytes += total as u64;
        self.frames += 1;
        Ok(total)
    }

    /// Writes frame bytes already produced by [`encode_frame_into`]
    /// (compressed elsewhere, e.g. by a worker pool), keeping this
    /// writer's ratio accounting consistent. `raw_len` is the block's
    /// uncompressed length.
    pub fn write_encoded_frame(&mut self, frame: &[u8], raw_len: u64) -> io::Result<usize> {
        self.inner.write_all(frame)?;
        self.raw_bytes += raw_len;
        self.written_bytes += frame.len() as u64;
        self.frames += 1;
        Ok(frame.len())
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// Total uncompressed bytes accepted.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Total bytes emitted downstream (headers included).
    pub fn written_bytes(&self) -> u64 {
        self.written_bytes
    }

    /// Number of frames written.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Achieved compression ratio (raw / written); 1.0 when nothing was
    /// written.
    pub fn ratio(&self) -> f64 {
        if self.written_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.written_bytes as f64
        }
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// A parsed frame header: what a reader needs to fetch and decode the
/// payload that follows it.
#[derive(Clone, Copy, Debug)]
pub struct FrameHeader {
    /// Uncompressed length of the frame's block.
    pub raw_len: usize,
    /// Payload bytes following the header.
    pub payload_len: usize,
    /// `true` when the payload *is* the block (stored uncompressed).
    pub stored: bool,
}

/// Parses one frame header: the magic, both lengths and the flags. A
/// stored frame must carry exactly its block, so a stored header whose
/// lengths differ is rejected here, before any payload is read. Every
/// frame reader goes through this one function.
pub fn parse_header(header: &[u8; FRAME_HEADER_LEN]) -> io::Result<FrameHeader> {
    if header[..4] != FRAME_MAGIC {
        return Err(bad_data("bad frame magic"));
    }
    let raw_len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    let payload_len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    let stored = header[12] & FLAG_STORED != 0;
    if stored && payload_len != raw_len {
        return Err(bad_data("stored frame length mismatch"));
    }
    Ok(FrameHeader { raw_len, payload_len, stored })
}

/// Reads frames produced by [`FrameWriter`].
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    payload: Vec<u8>,
    /// Header already read by a peek, not yet consumed.
    pending: Option<FrameHeader>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        FrameReader { inner, payload: Vec::new(), pending: None }
    }

    fn next_header(&mut self) -> io::Result<Option<FrameHeader>> {
        if let Some(h) = self.pending.take() {
            return Ok(Some(h));
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        // Distinguish clean EOF (no bytes) from a truncated header.
        let mut got = 0;
        while got < FRAME_HEADER_LEN {
            let n = self.inner.read(&mut header[got..])?;
            if n == 0 {
                if got == 0 {
                    return Ok(None);
                }
                return Err(bad_data("truncated frame header"));
            }
            got += n;
        }
        parse_header(&header).map(Some)
    }

    /// Uncompressed length of the next frame without consuming it, or
    /// `None` at end of stream.
    pub fn peek_raw_len(&mut self) -> io::Result<Option<usize>> {
        let h = self.next_header()?;
        self.pending = h;
        Ok(h.map(|h| h.raw_len))
    }

    /// Skips the next frame *without decompressing it* — the offline
    /// analyzer uses this to seek log files to a barrier interval's byte
    /// offset cheaply. Returns the skipped frame's raw length, or `None`
    /// at end of stream.
    pub fn skip_frame(&mut self) -> io::Result<Option<usize>> {
        let Some(h) = self.next_header()? else { return Ok(None) };
        self.payload.resize(h.payload_len, 0);
        self.inner.read_exact(&mut self.payload)?;
        Ok(Some(h.raw_len))
    }

    /// Reads the next frame, appending the decompressed block to `out`.
    /// Returns `Ok(None)` at a clean end of stream, the decompressed length
    /// otherwise.
    pub fn read_frame(&mut self, out: &mut Vec<u8>) -> io::Result<Option<usize>> {
        let Some(FrameHeader { raw_len, payload_len, stored }) = self.next_header()? else {
            return Ok(None);
        };
        self.payload.resize(payload_len, 0);
        self.inner.read_exact(&mut self.payload)?;
        if stored {
            out.extend_from_slice(&self.payload);
        } else {
            let before = out.len();
            decompress(&self.payload, out).map_err(|e| bad_data(&format!("corrupt frame: {e}")))?;
            if out.len() - before != raw_len {
                return Err(bad_data("decompressed length mismatch"));
            }
        }
        Ok(Some(raw_len))
    }

    /// Reads every remaining frame into `out`, returning the number of
    /// frames read.
    pub fn read_to_end(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        let mut frames = 0;
        while self.read_frame(out)?.is_some() {
            frames += 1;
        }
        Ok(frames)
    }

    /// Unwraps the underlying reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// One frame's payload, borrowed from wherever the reader holds it — a
/// byte buffer [`parse_frame`] walks, or the payload buffer a
/// frame-at-a-time reader filled — with what its header says about it.
/// This is the decode-into counterpart of [`FrameReader`]: the block is
/// decoded into a caller-recycled arena instead of appended to a stream.
#[derive(Clone, Copy, Debug)]
pub struct FrameView<'a> {
    /// Uncompressed length of the frame's block.
    pub raw_len: usize,
    /// The frame's payload bytes.
    pub payload: &'a [u8],
    /// `true` when the payload *is* the block (stored uncompressed).
    pub stored: bool,
}

impl FrameView<'_> {
    /// Decompresses this frame's block into `arena`, replacing its
    /// contents but keeping its allocation — the recycled-arena decode
    /// path. The arena grows to exactly the block's length, so it never
    /// holds more than the largest block it decoded. Stored frames copy;
    /// for those prefer using [`FrameView::payload`] directly (no copy at
    /// all). Length-checked like [`FrameReader::read_frame`].
    pub fn decode_into(&self, arena: &mut Vec<u8>) -> io::Result<()> {
        arena.clear();
        // A corrupt header may claim more than the payload can decode to;
        // reserve no more than that.
        arena.reserve_exact(self.raw_len.min(max_decompressed_len(self.payload.len())));
        if self.stored {
            arena.extend_from_slice(self.payload);
        } else {
            decompress(self.payload, arena)
                .map_err(|e| bad_data(&format!("corrupt frame: {e}")))?;
        }
        if arena.len() != self.raw_len {
            return Err(bad_data("decompressed length mismatch"));
        }
        Ok(())
    }
}

/// Parses the frame starting at `buf[0]`, returning its borrowed
/// [`FrameView`] and the total encoded bytes it occupies (header +
/// payload). Returns `Ok(None)` on an empty `buf` (clean end of the
/// frames).
///
/// A header torn mid-way is `InvalidData`; a payload extending past
/// `buf` is `UnexpectedEof` — the same split [`FrameReader`] reports on a
/// truncated stream, so buffered and streamed readers degrade alike.
pub fn parse_frame(buf: &[u8]) -> io::Result<Option<(FrameView<'_>, usize)>> {
    if buf.is_empty() {
        return Ok(None);
    }
    let header = buf.get(..FRAME_HEADER_LEN).ok_or_else(|| bad_data("truncated frame header"))?;
    let FrameHeader { raw_len, payload_len, stored } = parse_header(header.try_into().unwrap())?;
    let end =
        FRAME_HEADER_LEN.checked_add(payload_len).filter(|&end| end <= buf.len()).ok_or_else(
            || io::Error::new(io::ErrorKind::UnexpectedEof, "frame payload past end of image"),
        )?;
    Ok(Some((FrameView { raw_len, payload: &buf[FRAME_HEADER_LEN..end], stored }, end)))
}

/// One-shot helper: compress `data` into a standalone frame byte vector.
pub fn frame_compress(data: &[u8]) -> Vec<u8> {
    let mut w = FrameWriter::new(Vec::new());
    w.write_frame(data).expect("vec write cannot fail");
    w.into_inner()
}

/// One-shot helper: decompress a standalone frame produced by
/// [`frame_compress`].
pub fn frame_decompress(frame: &[u8]) -> io::Result<Vec<u8>> {
    let mut r = FrameReader::new(frame);
    let mut out = Vec::new();
    r.read_frame(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty() {
        assert_eq!(frame_decompress(&frame_compress(b"")).unwrap(), b"");
    }

    #[test]
    fn roundtrip_small() {
        let data = b"hello hello hello hello";
        assert_eq!(frame_decompress(&frame_compress(data)).unwrap(), data);
    }

    #[test]
    fn repetitive_data_compresses() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 17) as u8).collect();
        let frame = frame_compress(&data);
        assert!(frame.len() < data.len() / 4, "frame {} vs raw {}", frame.len(), data.len());
        assert_eq!(frame_decompress(&frame).unwrap(), data);
    }

    #[test]
    fn incompressible_data_stores() {
        // Pseudo-random bytes: stored fallback caps expansion at the header.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let frame = frame_compress(&data);
        assert!(frame.len() <= data.len() + FRAME_HEADER_LEN);
        assert_eq!(frame_decompress(&frame).unwrap(), data);
    }

    #[test]
    fn multi_frame_stream() {
        let mut w = FrameWriter::new(Vec::new());
        let blocks: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 1000 * (i + 1)]).collect();
        for b in &blocks {
            w.write_frame(b).unwrap();
        }
        assert_eq!(w.frames(), 10);
        assert!(w.ratio() > 10.0, "constant blocks compress well: {}", w.ratio());
        let bytes = w.into_inner();
        let mut r = FrameReader::new(&bytes[..]);
        let mut out = Vec::new();
        assert_eq!(r.read_to_end(&mut out).unwrap(), 10);
        let expect: Vec<u8> = blocks.concat();
        assert_eq!(out, expect);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut frame = frame_compress(b"some data to protect");
        frame[0] ^= 0xFF;
        assert!(frame_decompress(&frame).is_err());
    }

    #[test]
    fn truncated_header_rejected() {
        let frame = frame_compress(b"some data");
        let err = frame_decompress(&frame[..5]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_rejected() {
        let frame = frame_compress(&vec![7u8; 5000]);
        assert!(frame_decompress(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn skip_and_peek_frames() {
        let mut w = FrameWriter::new(Vec::new());
        w.write_frame(&vec![1u8; 500]).unwrap();
        w.write_frame(&vec![2u8; 700]).unwrap();
        w.write_frame(&vec![3u8; 900]).unwrap();
        let bytes = w.into_inner();
        let mut r = FrameReader::new(&bytes[..]);
        assert_eq!(r.peek_raw_len().unwrap(), Some(500));
        assert_eq!(r.peek_raw_len().unwrap(), Some(500), "peek is idempotent");
        assert_eq!(r.skip_frame().unwrap(), Some(500));
        assert_eq!(r.peek_raw_len().unwrap(), Some(700));
        assert_eq!(r.skip_frame().unwrap(), Some(700));
        let mut out = Vec::new();
        assert_eq!(r.read_frame(&mut out).unwrap(), Some(900));
        assert_eq!(out, vec![3u8; 900]);
        assert_eq!(r.skip_frame().unwrap(), None);
        assert_eq!(r.peek_raw_len().unwrap(), None);
    }

    #[test]
    fn peek_then_read() {
        let bytes = frame_compress(b"peek me");
        let mut r = FrameReader::new(&bytes[..]);
        assert_eq!(r.peek_raw_len().unwrap(), Some(7));
        let mut out = Vec::new();
        assert_eq!(r.read_frame(&mut out).unwrap(), Some(7));
        assert_eq!(out, b"peek me");
    }

    #[test]
    fn eof_between_frames_is_clean() {
        let mut r = FrameReader::new(&b""[..]);
        let mut out = Vec::new();
        assert_eq!(r.read_frame(&mut out).unwrap(), None);
    }

    #[test]
    fn encode_frame_into_matches_write_frame() {
        let blocks: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![7u8; 5000],
            (0..4000u32).flat_map(|i| i.to_le_bytes()).collect(),
            b"mixed mixed mixed 123456".to_vec(),
        ];
        let mut w = FrameWriter::new(Vec::new());
        for b in &blocks {
            w.write_frame(b).unwrap();
        }
        let via_writer = w.into_inner();

        let mut comp = Compressor::new();
        let mut via_encode = Vec::new();
        for b in &blocks {
            encode_frame_into(&mut comp, b, &mut via_encode);
        }
        assert_eq!(via_writer, via_encode, "both paths emit identical frame streams");
    }

    #[test]
    fn write_encoded_frame_accounting_and_decode() {
        let block = vec![3u8; 10_000];
        let mut comp = Compressor::new();
        let mut frame = Vec::new();
        let n = encode_frame_into(&mut comp, &block, &mut frame);
        assert_eq!(n, frame.len());

        let mut w = FrameWriter::new(Vec::new());
        w.write_encoded_frame(&frame, block.len() as u64).unwrap();
        assert_eq!(w.raw_bytes(), block.len() as u64);
        assert_eq!(w.written_bytes(), frame.len() as u64);
        assert_eq!(w.frames(), 1);
        let bytes = w.into_inner();
        let mut out = Vec::new();
        FrameReader::new(&bytes[..]).read_frame(&mut out).unwrap();
        assert_eq!(out, block);
    }

    #[test]
    fn parse_frame_walks_an_image_zero_copy() {
        let mut w = FrameWriter::new(Vec::new());
        let repetitive = vec![5u8; 4000]; // compresses
        let mut x = 0x9e3779b97f4a7c15u64;
        let noisy: Vec<u8> = (0..600)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect(); // stores
        w.write_frame(&repetitive).unwrap();
        w.write_frame(&noisy).unwrap();
        let image = w.into_inner();

        let (f1, n1) = parse_frame(&image).unwrap().unwrap();
        assert!(!f1.stored);
        assert_eq!(f1.raw_len, repetitive.len());
        let mut arena = Vec::new();
        f1.decode_into(&mut arena).unwrap();
        assert_eq!(arena, repetitive);

        let (f2, n2) = parse_frame(&image[n1..]).unwrap().unwrap();
        assert!(f2.stored, "noisy block falls back to stored");
        assert_eq!(f2.payload, &noisy[..], "stored payload borrows the image");
        f2.decode_into(&mut arena).unwrap();
        assert_eq!(arena, noisy);

        assert_eq!(n1 + n2, image.len());
        assert!(parse_frame(&image[n1 + n2..]).unwrap().is_none(), "clean end of image");
    }

    #[test]
    fn parse_frame_reports_torn_images() {
        let image = frame_compress(&vec![9u8; 5000]);
        // Torn header: InvalidData.
        let err = parse_frame(&image[..7]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Torn payload: UnexpectedEof, like a truncated stream read.
        let err = parse_frame(&image[..image.len() - 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Flipped magic: InvalidData.
        let mut bad = image.clone();
        bad[0] ^= 0xFF;
        assert_eq!(parse_frame(&bad).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decode_into_recycles_the_arena() {
        let a = frame_compress(&vec![1u8; 3000]);
        let b = frame_compress(&vec![2u8; 2000]);
        let mut arena = Vec::new();
        let (fa, _) = parse_frame(&a).unwrap().unwrap();
        fa.decode_into(&mut arena).unwrap();
        let cap = arena.capacity();
        let (fb, _) = parse_frame(&b).unwrap().unwrap();
        fb.decode_into(&mut arena).unwrap();
        assert_eq!(arena, vec![2u8; 2000]);
        assert_eq!(arena.capacity(), cap, "smaller block reuses the allocation");
    }

    #[test]
    fn ratio_accounting() {
        let mut w = FrameWriter::new(Vec::new());
        w.write_frame(&vec![0u8; 4096]).unwrap();
        assert_eq!(w.raw_bytes(), 4096);
        assert!(w.written_bytes() < 200);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn frame_roundtrip(data in prop::collection::vec(any::<u8>(), 0..20_000)) {
            prop_assert_eq!(frame_decompress(&frame_compress(&data)).unwrap(), data);
        }

        #[test]
        fn frame_roundtrip_structured(
            runs in prop::collection::vec((any::<u8>(), 1usize..500), 0..60),
        ) {
            // Run-length structured data resembling varint event streams.
            let mut data = Vec::new();
            for (byte, len) in runs {
                data.extend(std::iter::repeat_n(byte, len));
            }
            prop_assert_eq!(frame_decompress(&frame_compress(&data)).unwrap(), data);
        }

        #[test]
        fn multiframe_roundtrip(blocks in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..2000), 0..12)
        ) {
            let mut w = FrameWriter::new(Vec::new());
            for b in &blocks {
                w.write_frame(b).unwrap();
            }
            let bytes = w.into_inner();
            let mut r = FrameReader::new(&bytes[..]);
            let mut out = Vec::new();
            prop_assert_eq!(r.read_to_end(&mut out).unwrap(), blocks.len());
            prop_assert_eq!(out, blocks.concat());
        }
    }
}
