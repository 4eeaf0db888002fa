//! Compact binary encoding of event streams.
//!
//! Layout per event (all varints are LEB128):
//!
//! ```text
//! access      := tag(1B) zigzag_varint(addr Δ) varint(pc Δ as zigzag)
//! mutex_op    := tag(1B) varint(mutex_id)
//! tag         := size_log2 << 4 | kind_code << 1 | 0   (access)
//!              | 0x01 | op << 1                        (mutex: op 4=acq, 5=rel)
//! ```
//!
//! Addresses and PCs are delta-encoded against the previous access in the
//! same *barrier interval*: instrumented loops touch consecutive addresses
//! from a handful of PCs, so deltas are tiny and highly repetitive, which
//! is what makes the downstream LZ pass effective. The encoder is reset at
//! every barrier-interval boundary so each interval's byte range decodes
//! independently — a requirement of the offline streaming reader, which
//! extracts `[data_begin, data_begin + size)` slices per Table I records.

use crate::event::{AccessKind, Event, MemAccess};

/// Encoding/decoding error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Stream ended in the middle of an event.
    Truncated,
    /// Unknown tag or invalid field.
    Invalid,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "event stream truncated"),
            CodecError::Invalid => write!(f, "invalid event encoding"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The fewest bytes an access encodes in: its tag and two one-byte
/// varints. A log of `n` bytes holds at most `n / MIN_ACCESS_BYTES`
/// accesses.
pub const MIN_ACCESS_BYTES: u64 = 3;

// Tag layout: bit 0 distinguishes access (0) from mutex op (1).
const TAG_MUTEX_BIT: u8 = 0x01;
const MUTEX_ACQUIRE: u8 = 0;
const MUTEX_RELEASE: u8 = 1;

/// Writes LEB128.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads LEB128 from `buf[*pos..]`.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    // Unrolled path for varints up to 5 bytes (35 payload bits — every
    // realistic address or PC delta) when that many bytes are in hand:
    // one bounds check instead of one per byte. Longer varints and
    // buffer tails fall through to the loop below, which re-reads from
    // the untouched `*pos` and accepts exactly the same encodings.
    if let &[b0, b1, b2, b3, b4, ..] = &buf[*pos..] {
        let mut v = (b0 & 0x7F) as u64;
        if b0 & 0x80 == 0 {
            *pos += 1;
            return Ok(v);
        }
        v |= ((b1 & 0x7F) as u64) << 7;
        if b1 & 0x80 == 0 {
            *pos += 2;
            return Ok(v);
        }
        v |= ((b2 & 0x7F) as u64) << 14;
        if b2 & 0x80 == 0 {
            *pos += 3;
            return Ok(v);
        }
        v |= ((b3 & 0x7F) as u64) << 21;
        if b3 & 0x80 == 0 {
            *pos += 4;
            return Ok(v);
        }
        v |= ((b4 & 0x7F) as u64) << 28;
        if b4 & 0x80 == 0 {
            *pos += 5;
            return Ok(v);
        }
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        // Ten bytes carry 70 payload bits: an eleventh byte, or a tenth
        // with anything above the value's 64th bit, is not a `u64`.
        if shift >= 64 || (shift == 63 && byte & 0x7E != 0) {
            return Err(CodecError::Invalid);
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Streaming event encoder with per-interval delta state.
#[derive(Clone, Debug, Default)]
pub struct EventEncoder {
    prev_addr: u64,
    prev_pc: u64,
}

impl EventEncoder {
    /// Fresh encoder (state zeroed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets delta state. Must be called at every barrier-interval
    /// boundary so intervals decode independently.
    pub fn reset(&mut self) {
        self.prev_addr = 0;
        self.prev_pc = 0;
    }

    /// Appends the encoding of `event` to `out`, returning the encoded
    /// length in bytes.
    #[inline]
    pub fn encode(&mut self, event: &Event, out: &mut Vec<u8>) -> usize {
        let (op, id) = match event {
            Event::Access(a) => return self.encode_access(a, out),
            Event::MutexAcquire(id) => (MUTEX_ACQUIRE, *id),
            Event::MutexRelease(id) => (MUTEX_RELEASE, *id),
        };
        let start = out.len();
        out.push(TAG_MUTEX_BIT | (op << 1));
        write_varint(out, id as u64);
        out.len() - start
    }

    /// Appends the encoding of one access to `out`, returning the encoded
    /// length in bytes: what [`EventEncoder::encode`] does for an
    /// [`Event::Access`], for callers that hold accesses, not events.
    #[inline]
    pub fn encode_access(&mut self, a: &MemAccess, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let size_log2 = match a.size {
            1 => 0u8,
            2 => 1,
            4 => 2,
            8 => 3,
            16 => 4,
            _ => 5, // explicit size follows
        };
        let tag = (size_log2 << 4) | (a.kind.code() << 1);
        let zz_addr = zigzag(a.addr.wrapping_sub(self.prev_addr) as i64);
        let zz_pc = zigzag(a.pc as i64 - self.prev_pc as i64);
        self.prev_addr = a.addr;
        self.prev_pc = a.pc as u64;
        // The hot shape: a power-of-two-sized access whose PC delta fits
        // one varint byte and whose address delta fits four — a loop body
        // walking a few arrays from a few sites. Its 3 to 6 bytes are
        // assembled in one little-endian word
        //
        //   byte 0        tag
        //   bytes 1..=n   the address delta's 7-bit groups, low group
        //                 first, continuation bit on all but the last
        //   byte n+1      the PC delta
        //
        // and appended as one fixed 8-byte store, then cut back to the
        // event's length: one capacity check per event instead of one per
        // byte, and the bytes that stay are the ones the general path
        // below writes. The cut-off bytes were zeros inside `out`'s own
        // allocation (callers sizing a buffer ahead leave 8 bytes for the
        // last event, not 6).
        if size_log2 != 5 && zz_pc < 0x80 && zz_addr < 1 << 28 {
            let z = zz_addr;
            let n = 1 + (z >= 1 << 7) as u32 + (z >= 1 << 14) as u32 + (z >= 1 << 21) as u32;
            let groups = (z & 0x7F)
                | (z & (0x7F << 7)) << 1
                | (z & (0x7F << 14)) << 2
                | (z & (0x7F << 21)) << 3;
            let continuation = 0x0080_8080u64 >> (8 * (4 - n));
            let word = tag as u64 | (groups | continuation) << 8 | zz_pc << (8 * (1 + n));
            out.extend_from_slice(&word.to_le_bytes());
            out.truncate(start + 2 + n as usize);
        } else {
            out.push(tag);
            if size_log2 == 5 {
                write_varint(out, a.size as u64);
            }
            write_varint(out, zz_addr);
            write_varint(out, zz_pc);
        }
        out.len() - start
    }
}

/// Streaming event decoder mirroring [`EventEncoder`].
#[derive(Clone, Debug, Default)]
pub struct EventDecoder {
    prev_addr: u64,
    prev_pc: u64,
}

impl EventDecoder {
    /// Fresh decoder (state zeroed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets delta state; call at barrier-interval boundaries.
    pub fn reset(&mut self) {
        self.prev_addr = 0;
        self.prev_pc = 0;
    }

    /// Moves the address state `delta` bytes up, as decoding a stretch of
    /// events that ends `delta` bytes past the last address would. A
    /// caller that skips bytes it knows to repeat an earlier stretch
    /// shifted by `delta` keeps the decoder in step with the stream this
    /// way; the PC state is the stretch's own and stays. The sum must not
    /// wrap the address space.
    #[inline]
    pub fn advance_addr(&mut self, delta: u64) {
        self.prev_addr += delta;
    }

    /// Decodes one event from `buf[*pos..]`, advancing `pos`.
    ///
    /// `#[inline]`: the analyzer's per-event loop calls this from another
    /// crate, and the release profile has no LTO.
    #[inline]
    pub fn decode(&mut self, buf: &[u8], pos: &mut usize) -> Result<Event, CodecError> {
        // Fast path for the encoder's hot shape (see `encode_access`): a
        // power-of-two-sized access with a one-to-four-byte address varint
        // and a one-byte PC varint, 3 to 6 bytes, read from one
        // little-endian word while 8 bytes remain. Any condition miss —
        // a longer varint, an explicit size, a mutex op, a PC out of range,
        // a buffer tail — falls through to the general path, which reads
        // from the untouched `*pos` and accepts exactly the same streams; a
        // non-minimal varint (`0x80 0x00`) decodes to the same value on
        // both. Nothing changes before every check has passed.
        if let Some(&word) = buf.get(*pos..).and_then(|b| b.first_chunk::<8>()) {
            let w = u64::from_le_bytes(word);
            let tag = w as u8;
            // The high bits of bytes 1..=4; the first clear one ends the
            // address varint.
            let stops = !w & 0x80_8080_8000;
            if tag & TAG_MUTEX_BIT == 0 && tag >> 4 <= 4 && stops != 0 {
                let n = stops.trailing_zeros() / 8; // address bytes, 1..=4
                let zz_pc = (w >> (8 * (n + 1))) as u8;
                let pc_i = self.prev_pc as i64 + unzigzag(zz_pc as u64);
                let kind = AccessKind::from_code((tag >> 1) & 0x3);
                if let (Some(kind), true) =
                    (kind, zz_pc < 0x80 && (0..=u32::MAX as i64).contains(&pc_i))
                {
                    let z = w >> 8;
                    let groups = (z & 0x7F)
                        | (z >> 1 & 0x7F << 7)
                        | (z >> 2 & 0x7F << 14)
                        | (z >> 3 & 0x7F << 21);
                    let zz_addr = groups & ((1 << (7 * n)) - 1);
                    let addr = self.prev_addr.wrapping_add(unzigzag(zz_addr) as u64);
                    *pos += 2 + n as usize;
                    self.prev_addr = addr;
                    self.prev_pc = pc_i as u64;
                    return Ok(Event::Access(MemAccess {
                        addr,
                        size: 1 << (tag >> 4),
                        kind,
                        pc: pc_i as u32,
                    }));
                }
            }
        }
        self.decode_general(buf, pos)
    }

    /// [`decode`](Self::decode) without its fast path: every event shape,
    /// one field at a time.
    #[inline]
    fn decode_general(&mut self, buf: &[u8], pos: &mut usize) -> Result<Event, CodecError> {
        let tag = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if tag & TAG_MUTEX_BIT != 0 {
            let op = (tag >> 1) & 0x7;
            let id = read_varint(buf, pos)? as u32;
            return match op {
                MUTEX_ACQUIRE => Ok(Event::MutexAcquire(id)),
                MUTEX_RELEASE => Ok(Event::MutexRelease(id)),
                _ => Err(CodecError::Invalid),
            };
        }
        let kind = AccessKind::from_code((tag >> 1) & 0x3).ok_or(CodecError::Invalid)?;
        let size_log2 = tag >> 4;
        let size = match size_log2 {
            0 => 1u64,
            1 => 2,
            2 => 4,
            3 => 8,
            4 => 16,
            5 => read_varint(buf, pos)?,
            _ => return Err(CodecError::Invalid),
        };
        if size == 0 || size > u8::MAX as u64 {
            return Err(CodecError::Invalid);
        }
        let addr_delta = unzigzag(read_varint(buf, pos)?);
        let pc_delta = unzigzag(read_varint(buf, pos)?);
        let addr = self.prev_addr.wrapping_add(addr_delta as u64);
        let pc_i = self.prev_pc as i64 + pc_delta;
        if pc_i < 0 || pc_i > u32::MAX as i64 {
            return Err(CodecError::Invalid);
        }
        self.prev_addr = addr;
        self.prev_pc = pc_i as u64;
        Ok(Event::Access(MemAccess { addr, size: size as u8, kind, pc: pc_i as u32 }))
    }

    /// Decodes every event in `buf`.
    pub fn decode_all(&mut self, buf: &[u8]) -> Result<Vec<Event>, CodecError> {
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < buf.len() {
            out.push(self.decode(buf, &mut pos)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind::*, MemAccess};

    fn roundtrip(events: &[Event]) -> Vec<Event> {
        let mut enc = EventEncoder::new();
        let mut buf = Vec::new();
        for e in events {
            enc.encode(e, &mut buf);
        }
        EventDecoder::new().decode_all(&buf).expect("decode")
    }

    #[test]
    fn empty_stream() {
        assert_eq!(roundtrip(&[]), vec![]);
    }

    #[test]
    fn single_events() {
        let events = vec![
            Event::Access(MemAccess::new(0x1000, 8, Write, 3)),
            Event::Access(MemAccess::new(0x0, 1, Read, 0)),
            Event::Access(MemAccess::new(u64::MAX - 7, 4, AtomicWrite, u32::MAX)),
            Event::MutexAcquire(0),
            Event::MutexRelease(u32::MAX),
        ];
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn sequential_loop_is_tiny() {
        // 1000 consecutive 8-byte writes from one PC: ~3 bytes per event
        // before compression.
        let events: Vec<Event> = (0..1000u64)
            .map(|i| Event::Access(MemAccess::new(0x10000 + i * 8, 8, Write, 42)))
            .collect();
        let mut enc = EventEncoder::new();
        let mut buf = Vec::new();
        for e in &events {
            enc.encode(e, &mut buf);
        }
        assert!(buf.len() <= events.len() * 3 + 8, "encoded {} bytes", buf.len());
        assert_eq!(EventDecoder::new().decode_all(&buf).unwrap(), events);
    }

    #[test]
    fn odd_sizes_roundtrip() {
        let events = vec![
            Event::Access(MemAccess::new(100, 3, Read, 1)),
            Event::Access(MemAccess::new(200, 16, Write, 2)),
            Event::Access(MemAccess::new(300, 255, Read, 3)),
        ];
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn reset_isolates_intervals() {
        let mut enc = EventEncoder::new();
        let mut buf1 = Vec::new();
        enc.encode(&Event::Access(MemAccess::new(0x5000, 8, Write, 9)), &mut buf1);
        enc.reset();
        let mut buf2 = Vec::new();
        enc.encode(&Event::Access(MemAccess::new(0x5008, 8, Write, 9)), &mut buf2);
        // Second interval decodes standalone with a fresh decoder.
        let got = EventDecoder::new().decode_all(&buf2).unwrap();
        assert_eq!(got, vec![Event::Access(MemAccess::new(0x5008, 8, Write, 9))]);
    }

    #[test]
    fn truncation_detected() {
        let mut enc = EventEncoder::new();
        let mut buf = Vec::new();
        enc.encode(&Event::Access(MemAccess::new(0xABCDEF, 8, Read, 77)), &mut buf);
        for cut in 0..buf.len() {
            let mut dec = EventDecoder::new();
            assert!(dec.decode_all(&buf[..cut]).is_err() || cut == 0);
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    /// Nine continuation bytes carrying zero, then `tail`.
    fn ten_byte_varint(tail: &[u8]) -> Vec<u8> {
        let mut buf = vec![0x80u8; 9];
        buf.extend_from_slice(tail);
        buf
    }

    #[test]
    fn varint_tenth_byte_may_carry_the_top_bit() {
        let buf = ten_byte_varint(&[0x01]);
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), Ok(1 << 63));
        assert_eq!(pos, 10);
    }

    #[test]
    fn varint_tenth_byte_of_two_is_invalid_not_zero() {
        // (0x02 & 0x7F) << 63 is 0 in a u64: a damaged log must not decode
        // to another value.
        assert_eq!(read_varint(&ten_byte_varint(&[0x02]), &mut 0), Err(CodecError::Invalid));
    }

    #[test]
    fn varint_tenth_byte_of_all_ones_is_invalid() {
        assert_eq!(read_varint(&ten_byte_varint(&[0x7F]), &mut 0), Err(CodecError::Invalid));
    }

    #[test]
    fn varint_eleventh_byte_is_invalid() {
        assert_eq!(read_varint(&ten_byte_varint(&[0x80, 0x00]), &mut 0), Err(CodecError::Invalid));
        assert_eq!(read_varint(&ten_byte_varint(&[0x81, 0x00]), &mut 0), Err(CodecError::Invalid));
        // Cut short it is still a truncation, as for any other varint.
        assert_eq!(read_varint(&ten_byte_varint(&[0x80]), &mut 0), Err(CodecError::Truncated));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    /// The general path only, no fast-path branch: the reference the
    /// fast path must match byte for byte.
    pub(super) fn encode_reference(events: &[Event]) -> Vec<u8> {
        let mut prev_addr = 0u64;
        let mut prev_pc = 0u64;
        let mut out = Vec::new();
        for event in events {
            match event {
                Event::Access(a) => {
                    let size_log2 = match a.size {
                        1 => 0u8,
                        2 => 1,
                        4 => 2,
                        8 => 3,
                        16 => 4,
                        _ => 5,
                    };
                    out.push((size_log2 << 4) | (a.kind.code() << 1));
                    if size_log2 == 5 {
                        write_varint(&mut out, a.size as u64);
                    }
                    write_varint(&mut out, zigzag(a.addr.wrapping_sub(prev_addr) as i64));
                    write_varint(&mut out, zigzag(a.pc as i64 - prev_pc as i64));
                    prev_addr = a.addr;
                    prev_pc = a.pc as u64;
                }
                Event::MutexAcquire(id) => {
                    out.push(TAG_MUTEX_BIT | (MUTEX_ACQUIRE << 1));
                    write_varint(&mut out, *id as u64);
                }
                Event::MutexRelease(id) => {
                    out.push(TAG_MUTEX_BIT | (MUTEX_RELEASE << 1));
                    write_varint(&mut out, *id as u64);
                }
            }
        }
        out
    }

    #[test]
    fn fast_path_matches_general_path() {
        // Mix small deltas (fast path), large deltas, backwards strides
        // (negative deltas near the 1-byte zigzag boundary), odd sizes,
        // and mutex ops.
        let mut events = Vec::new();
        for i in 0..200u64 {
            events.push(Event::Access(MemAccess::new(0x1000 + i * 8, 8, Write, 42)));
        }
        for i in 0..64u64 {
            // zigzag(±63/±64) straddles the single-byte boundary.
            let addr = 0x9000u64.wrapping_add((i as i64 * 63 - 2048) as u64);
            events.push(Event::Access(MemAccess::new(addr, 4, Read, (40 + i % 3) as u32)));
        }
        events.push(Event::Access(MemAccess::new(u64::MAX - 7, 16, AtomicWrite, u32::MAX)));
        events.push(Event::MutexAcquire(7));
        events.push(Event::Access(MemAccess::new(0, 3, Read, 0)));
        events.push(Event::MutexRelease(7));
        events.push(Event::Access(MemAccess::new(0x4, 1, Write, 1)));

        let mut enc = EventEncoder::new();
        let mut got = Vec::new();
        for e in &events {
            enc.encode(e, &mut got);
        }
        assert_eq!(got, encode_reference(&events), "fast path must not change the stream");
        assert_eq!(EventDecoder::new().decode_all(&got).unwrap(), events);
    }

    /// Address deltas on both sides of every length boundary of the hot
    /// shape's address varint (1|2, 2|3, 3|4 bytes), of the hot shape
    /// itself (2^27 is the last zigzag that fits 28 bits, 2^28 the first
    /// that does not), and one well outside it.
    pub(super) fn edge_addr_deltas() -> Vec<i64> {
        let mut deltas = vec![0i64];
        for k in [6u32, 7, 13, 14, 20, 21, 27, 28, 34] {
            for magnitude in [(1i64 << k) - 1, 1 << k] {
                deltas.extend([magnitude, -magnitude]);
            }
        }
        deltas
    }

    /// PC deltas around the one-byte zigzag boundary: 0x3F → 0x7E,
    /// -0x40 → 0x7F (the last one-byte values), 0x40 → 0x80, -0x41 → 0x81.
    pub(super) const EDGE_PC_DELTAS: [i64; 5] = [0, 0x3F, -0x40, 0x40, -0x41];

    /// The five tag-encoded sizes and one that needs the explicit varint.
    pub(super) const EDGE_SIZES: [u8; 6] = [1, 2, 4, 8, 16, 3];

    /// Encodes `events` through both entry points into buffers prepared
    /// by `fresh`, checks them against each other and the reference —
    /// and, where `fresh` allocated ahead, that the allocation was enough
    /// — and returns the bytes.
    pub(super) fn encode_both_ways(events: &[Event], fresh: impl Fn() -> Vec<u8>) -> Vec<u8> {
        let (mut by_event, mut by_access) = (EventEncoder::new(), EventEncoder::new());
        let (mut out_event, mut out_access) = (fresh(), fresh());
        let (prefix, capacity) = (out_event.len(), out_event.capacity());
        for event in events {
            let before = out_event.len();
            let n = by_event.encode(event, &mut out_event);
            assert_eq!(n, out_event.len() - before, "returned length, {event:?}");
            match event {
                Event::Access(a) => assert_eq!(by_access.encode_access(a, &mut out_access), n),
                other => assert_eq!(by_access.encode(other, &mut out_access), n),
            };
            assert_eq!(
                (by_event.prev_addr, by_event.prev_pc),
                (by_access.prev_addr, by_access.prev_pc),
                "delta state after {event:?}"
            );
        }
        assert_eq!(out_event, out_access, "entry points disagree on {events:?}");
        assert_eq!(&out_event[prefix..], encode_reference(events), "{events:?}");
        if capacity > 0 {
            assert_eq!(out_event.capacity(), capacity, "buffer grew under {events:?}");
            assert_eq!(out_access.capacity(), capacity, "buffer grew under {events:?}");
        }
        out_event.split_off(prefix)
    }

    /// The longest event there is: explicit two-byte size, ten-byte
    /// address delta, five-byte PC delta.
    const LONGEST_EVENT_BYTES: usize = 18;

    #[test]
    fn the_longest_event_is_18_bytes() {
        let longest = MemAccess::new(i64::MIN as u64, 255, AtomicWrite, u32::MAX);
        let bytes = encode_both_ways(&[Event::Access(longest)], Vec::new);
        assert_eq!(bytes.len(), LONGEST_EVENT_BYTES);
    }

    #[test]
    fn the_shortest_access_is_min_access_bytes() {
        let a = Event::Access(MemAccess::new(0x1000, 8, Read, 7));
        let (mut enc, mut buf) = (EventEncoder::new(), Vec::new());
        enc.encode(&a, &mut buf);
        // Zero address and PC deltas: one byte each after the tag.
        assert_eq!(enc.encode(&a, &mut buf) as u64, MIN_ACCESS_BYTES);
    }

    #[test]
    fn hot_shape_edges_match_the_general_path() {
        // A buffer as the collector's pool sizes it — 24 bytes per event
        // of capacity — with room for `events` more, the two before them
        // having been as long as events get: the 8-byte store of a hot
        // shape that is the buffer's last event must still fit.
        let pool_buffer = |events: usize| {
            let mut buf = Vec::with_capacity((2 + events) * 24);
            buf.resize(2 * LONGEST_EVENT_BYTES, 0xAA);
            buf
        };
        let base = MemAccess::new(1 << 40, 8, Write, 1000);
        for da in edge_addr_deltas() {
            for dp in EDGE_PC_DELTAS {
                for size in EDGE_SIZES {
                    let probe = MemAccess::new(
                        base.addr.wrapping_add(da as u64),
                        size,
                        Read,
                        (base.pc as i64 + dp) as u32,
                    );
                    // As the first event after `reset()` the deltas are
                    // the absolute values: put the edge there.
                    let first = MemAccess::new(da as u64, size, AtomicRead, dp.max(0) as u32);
                    for events in [
                        vec![Event::Access(base), Event::Access(probe)],
                        vec![Event::Access(first)],
                    ] {
                        // An empty `Vec::new()` has to grow, and grow right.
                        let grown = encode_both_ways(&events, Vec::new);
                        let in_place = encode_both_ways(&events, || pool_buffer(events.len()));
                        assert_eq!(grown, in_place);
                        assert_eq!(EventDecoder::new().decode_all(&grown).unwrap(), events);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_fast_path_rejects_pc_underflow() {
        // A 3-byte access whose PC delta would drive the PC negative must
        // take the general path's error, not wrap: tag for size=8 write,
        // addr delta 0, pc delta zigzag(-1) = 1, then bytes enough for the
        // word load.
        let buf = [3u8 << 4 | Write.code() << 1, 0, 1, 0, 0, 0, 0, 0];
        let mut dec = EventDecoder::new();
        let mut pos = 0;
        assert!(matches!(dec.decode(&buf, &mut pos), Err(CodecError::Invalid)));
        assert_eq!(dec.prev_pc, 0, "failed decode must not update delta state");
    }

    /// Decodes one event of `bytes` from delta state `state` through
    /// [`EventDecoder::decode`] and through the general path alone, and
    /// checks that they agree on the result, the bytes consumed and the
    /// state left — which a failed decode leaves as it was.
    pub(super) fn decode_both_paths(bytes: &[u8], state: (u64, u64)) -> Result<Event, CodecError> {
        let run = |general: bool| {
            let mut dec = EventDecoder { prev_addr: state.0, prev_pc: state.1 };
            let mut pos = 0;
            let result = match general {
                false => dec.decode(bytes, &mut pos),
                true => dec.decode_general(bytes, &mut pos),
            };
            (result, pos, (dec.prev_addr, dec.prev_pc))
        };
        let (decoded, general) = (run(false), run(true));
        assert_eq!(decoded, general, "{bytes:02x?} from {state:x?}");
        if decoded.0.is_err() {
            assert_eq!(decoded.2, state, "a failed decode changed the state: {bytes:02x?}");
        }
        decoded.0
    }

    #[test]
    fn word_fast_path_decodes_what_the_general_path_decodes() {
        let w8 = 3u8 << 4 | Write.code() << 1;
        let expect = |addr: i64, size: u8, kind: AccessKind, pc: i64| {
            move |(a, p): (u64, u64)| {
                Ok(Event::Access(MemAccess::new(
                    a.wrapping_add(addr as u64),
                    size,
                    kind,
                    (p as i64 + pc) as u32,
                )))
            }
        };
        type Expect = Box<dyn Fn((u64, u64)) -> Result<Event, CodecError>>;
        let cases: Vec<(&str, Vec<u8>, Expect)> = vec![
            ("3-byte hot shape", vec![w8, 0x10, 0x02], Box::new(expect(8, 8, Write, 1))),
            (
                "6-byte hot shape",
                vec![w8, 0xFE, 0xFF, 0xFF, 0x7F, 0x02],
                Box::new(expect((1 << 27) - 1, 8, Write, 1)),
            ),
            (
                "non-minimal 2-byte varint",
                vec![w8, 0x80, 0x00, 0x02],
                Box::new(expect(0, 8, Write, 1)),
            ),
            (
                "non-minimal 4-byte varint",
                vec![w8, 0x90, 0x80, 0x80, 0x00, 0x02],
                Box::new(expect(8, 8, Write, 1)),
            ),
            ("two-byte PC varint", vec![w8, 0x10, 0x80, 0x01], Box::new(expect(8, 8, Write, 64))),
            (
                "five-byte address varint",
                vec![w8, 0x80, 0x80, 0x80, 0x80, 0x01, 0x02],
                Box::new(expect(1 << 27, 8, Write, 1)),
            ),
            ("explicit size", vec![5 << 4, 3, 0x10, 0x02], Box::new(expect(8, 3, Read, 1))),
            ("size code 6", vec![6 << 4, 0x10, 0x02], Box::new(|_| Err(CodecError::Invalid))),
            ("size code 7", vec![7 << 4 | 0x6, 0x10, 0x02], Box::new(|_| Err(CodecError::Invalid))),
            // Bit 3 is no part of the kind code, on either path.
            ("tag bit 3 set", vec![w8 | 0x08, 0x10, 0x02], Box::new(expect(8, 8, Write, 1))),
            ("mutex acquire", vec![0x01, 0x05], Box::new(|_| Ok(Event::MutexAcquire(5)))),
            ("mutex op 7", vec![0x0F, 0x05], Box::new(|_| Err(CodecError::Invalid))),
        ];
        // Address states either side of a wrap; PC states with room for
        // every delta above.
        let states = [(0, 0), (1 << 40, 1000), (u64::MAX - 3, 7), (5, u32::MAX as u64 - 64)];
        for (what, bytes, expect) in &cases {
            for state in states {
                // A tail: fewer than 8 bytes in hand, the general path.
                let tail = decode_both_paths(bytes, state);
                // The same event with bytes after it: the word load.
                let mut padded = bytes.clone();
                padded.extend_from_slice(&[0xFF; 8]);
                let word = decode_both_paths(&padded, state);
                assert_eq!(word, tail, "{what} from {state:x?}");
                assert_eq!(word, expect(state), "{what} from {state:x?}");
            }
        }
        // The PC range check, below and above.
        for (bytes, state) in
            [(vec![w8, 0x10, 0x01], (0, 0)), (vec![w8, 0x10, 0x04], (0, u32::MAX as u64))]
        {
            let mut padded = bytes;
            padded.extend_from_slice(&[0; 8]);
            assert_eq!(decode_both_paths(&padded, state), Err(CodecError::Invalid));
        }
    }

    #[test]
    fn streams_ending_in_short_tails_decode_in_full() {
        // Hot shapes of every length, so that each of the last events is
        // decoded with 1 to 7 bytes left: every event boundary cut decodes
        // to exactly the events before it.
        let mut events = Vec::new();
        let mut addr = 1u64 << 30;
        for step in [8u64, 1 << 8, 1 << 15, 1 << 22, 8, 8, 1 << 15, 8, 1 << 22, 8] {
            addr += step;
            events.push(Event::Access(MemAccess::new(addr, 4, Read, 3)));
        }
        let mut enc = EventEncoder::new();
        let (mut buf, mut ends) = (Vec::new(), Vec::new());
        for e in &events {
            enc.encode(e, &mut buf);
            ends.push(buf.len());
        }
        assert!(ends.windows(2).any(|w| w[1] - w[0] == 6), "a 6-byte event");
        for (i, &end) in ends.iter().enumerate() {
            assert_eq!(EventDecoder::new().decode_all(&buf[..end]).unwrap(), events[..=i]);
        }
    }

    #[test]
    fn garbage_does_not_panic() {
        let mut dec = EventDecoder::new();
        for seed in 0..64u8 {
            let buf: Vec<u8> =
                (0..50u8).map(|i| seed.wrapping_mul(31).wrapping_add(i.wrapping_mul(17))).collect();
            let _ = dec.decode_all(&buf);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::event::MemAccess;
    use proptest::prelude::*;

    fn arb_event() -> impl Strategy<Value = Event> {
        prop_oneof![
            (any::<u64>(), 1u8..=16, 0u8..4, any::<u32>()).prop_map(|(addr, size, k, pc)| {
                Event::Access(MemAccess::new(addr, size, AccessKind::from_code(k).unwrap(), pc))
            }),
            any::<u32>().prop_map(Event::MutexAcquire),
            any::<u32>().prop_map(Event::MutexRelease),
        ]
    }

    /// One step of a generated stream, stated the way the encoder sees
    /// it: an event of any shape, or an access placed by its deltas
    /// against the access before it.
    #[derive(Clone, Debug)]
    enum Step {
        Absolute(Event),
        Delta { addr: i64, pc: i64, size: u8, kind: u8 },
    }

    /// Streams that keep landing on the encoder's shape boundaries:
    /// uniform events (deltas of any width), accesses a hot-shape-sized
    /// step away, and accesses exactly on the edges the unit tests list.
    fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<Event>> {
        use super::tests::{edge_addr_deltas, EDGE_PC_DELTAS, EDGE_SIZES};
        use prop::sample::select;
        let step = prop_oneof![
            arb_event().prop_map(Step::Absolute),
            (-(1i64 << 29)..(1i64 << 29), -0x90i64..0x90, select(EDGE_SIZES.to_vec()), 0u8..4)
                .prop_map(|(addr, pc, size, kind)| Step::Delta { addr, pc, size, kind }),
            (
                select(edge_addr_deltas()),
                select(EDGE_PC_DELTAS.to_vec()),
                select(EDGE_SIZES.to_vec()),
                0u8..4
            )
                .prop_map(|(addr, pc, size, kind)| Step::Delta {
                    addr,
                    pc,
                    size,
                    kind
                }),
        ];
        prop::collection::vec(step, 0..max_len).prop_map(|steps| {
            let (mut prev_addr, mut prev_pc) = (0u64, 0u32);
            steps
                .into_iter()
                .map(|step| {
                    let event = match step {
                        Step::Absolute(event) => event,
                        Step::Delta { addr, pc, size, kind } => Event::Access(MemAccess::new(
                            prev_addr.wrapping_add(addr as u64),
                            size,
                            AccessKind::from_code(kind).unwrap(),
                            (prev_pc as i64 + pc).clamp(0, u32::MAX as i64) as u32,
                        )),
                    };
                    if let Event::Access(a) = event {
                        (prev_addr, prev_pc) = (a.addr, a.pc);
                    }
                    event
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn stream_roundtrip(events in arb_stream(300)) {
            let mut enc = EventEncoder::new();
            let mut buf = Vec::new();
            for e in &events {
                enc.encode(e, &mut buf);
            }
            let got = EventDecoder::new().decode_all(&buf).unwrap();
            prop_assert_eq!(got, events);
        }

        #[test]
        fn interval_split_roundtrip(
            a in prop::collection::vec(arb_event(), 0..100),
            b in prop::collection::vec(arb_event(), 0..100),
        ) {
            // Encode two intervals with a reset between; decode each slice
            // independently.
            let mut enc = EventEncoder::new();
            let mut buf = Vec::new();
            for e in &a { enc.encode(e, &mut buf); }
            let split = buf.len();
            enc.reset();
            for e in &b { enc.encode(e, &mut buf); }
            prop_assert_eq!(EventDecoder::new().decode_all(&buf[..split]).unwrap(), a);
            prop_assert_eq!(EventDecoder::new().decode_all(&buf[split..]).unwrap(), b);
        }

        /// The bound a tree build reserves its nodes by.
        #[test]
        fn no_access_encodes_in_fewer_than_min_access_bytes(events in arb_stream(64)) {
            let (mut enc, mut buf) = (EventEncoder::new(), Vec::new());
            for e in &events {
                let n = enc.encode(e, &mut buf) as u64;
                prop_assert!(!matches!(e, Event::Access(_)) || n >= MIN_ACCESS_BYTES);
            }
        }

        #[test]
        fn decode_garbage_no_panic(buf in prop::collection::vec(any::<u8>(), 0..500)) {
            let _ = EventDecoder::new().decode_all(&buf);
        }

        /// A ten-byte varint whose last byte carries more than the
        /// value's 64th bit is damage, wherever an event keeps a varint:
        /// never a silently different address, PC or mutex id.
        #[test]
        fn overlong_varint_is_invalid_wherever_it_sits(
            low in prop::collection::vec(any::<u8>(), 9..10),
            tenth in 2u8..=0x7F,
            tag in prop::sample::select(vec![0x30u8, 0x32, 0x01, 0x03]),
        ) {
            let mut varint: Vec<u8> = low.iter().map(|b| b | 0x80).collect();
            varint.push(tenth);
            prop_assert_eq!(read_varint(&varint, &mut 0), Err(CodecError::Invalid));
            let mut event = vec![tag];
            event.extend_from_slice(&varint);
            event.push(0); // the access's PC delta; a second event otherwise
            prop_assert_eq!(EventDecoder::new().decode_all(&event), Err(CodecError::Invalid));
        }

        /// `decode` and its general path agree on any bytes from any
        /// state. Bytes below 0x80 are drawn often, so address and PC
        /// varints end where the word fast path looks for their ends.
        #[test]
        fn decode_paths_agree_on_any_bytes(
            bytes in prop::collection::vec(prop_oneof![any::<u8>(), 0u8..0x80], 0..24),
            prev_addr in any::<u64>(),
            prev_pc in prop_oneof![Just(0u64), any::<u32>().prop_map(u64::from), Just(u32::MAX as u64)],
        ) {
            super::tests::decode_both_paths(&bytes, (prev_addr, prev_pc)).ok();
        }

        /// Hot-shape encodings are byte-identical to the general path for
        /// arbitrary event streams, through either entry point (the
        /// branch may only skip work, never change the stream).
        #[test]
        fn fast_path_stream_identical(events in arb_stream(300)) {
            super::tests::encode_both_ways(&events, Vec::new);
        }
    }
}
