//! The LZ77 codec: hash-table match finding with an LZ4-style token
//! stream, an acceleration (skip-trigger) search, and wide match copies.
//!
//! Encoded stream grammar (all lengths little-endian where multi-byte):
//!
//! ```text
//! sequence := token literals… (offset_lo offset_hi)?
//! token    := (lit_len : 4 bits high) | (match_len : 4 bits low)
//! ```
//!
//! * `lit_len` 0–14 inline; 15 means "add following 255-chain bytes".
//! * `match_len` 0 means "no match" (terminal literal run); 1–14 encode a
//!   match of `match_len + MIN_MATCH - 1` bytes; 15 extends via 255-chain.
//! * `offset` is the 16-bit distance back into the already-decoded output
//!   (1-based; ≤ 65535), so matches may overlap themselves, which encodes
//!   RLE runs efficiently — important for the long runs of identical event
//!   headers in SWORD logs.
//!
//! [`Compressor`] emits this format. Its hash table is allocated once
//! and recycled across blocks via an epoch base (entries below the
//! current block's base are stale), match candidates are confirmed with
//! one 4-byte load, matches are extended 8 bytes per step, and a
//! skip-trigger accelerates over incompressible runs (every
//! `2^SKIP_TRIGGER` consecutive misses grow the probe stride by one
//! byte, so pseudo-random input costs ~1 probe per `stride` bytes
//! instead of one per byte).

/// Minimum match length worth encoding (token + offset = 3 bytes).
const MIN_MATCH: usize = 4;
/// Maximum back-reference distance (16-bit offsets).
const MAX_OFFSET: usize = 65_535;
/// log2 of the hash table size.
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Probe-miss budget before the search stride grows by one byte: the
/// stride is `1 + misses / 2^SKIP_TRIGGER`, LZ4's acceleration scheme.
const SKIP_TRIGGER: u32 = 6;
/// Upper bound accepted for a single decoded literal/match run. No
/// stream our compressors emit comes close (runs are bounded by the
/// block size, and blocks by the frame format's u32 `raw_len`); anything
/// larger is adversarial input trying to force a huge reservation.
const MAX_DECODE_RUN: usize = 1 << 30;

/// Errors from [`decompress`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended inside a sequence.
    Truncated,
    /// A match referenced data before the start of the output.
    BadOffset,
    /// A length-extension chain claimed a run larger than any valid
    /// stream can contain (adversarial input; refused before reserving).
    Oversize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "compressed stream truncated"),
            DecodeError::BadOffset => write!(f, "match offset out of range"),
            DecodeError::Oversize => write!(f, "length chain exceeds decodable bounds"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on compressed size for `len` input bytes (worst case is all
/// literals with 255-chain length extension).
pub fn max_compressed_len(len: usize) -> usize {
    len + len / 255 + 16
}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32(input: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(input[pos..pos + 4].try_into().expect("4 bytes"))
}

#[inline]
fn read_u64(input: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(input[pos..pos + 8].try_into().expect("8 bytes"))
}

/// Length of the common prefix of `input[a..]` and `input[b..]` (with
/// `a < b`), compared 8 bytes at a time; the first differing byte is
/// located with a trailing-zeros count instead of a byte loop.
#[inline]
fn common_prefix(input: &[u8], mut a: usize, mut b: usize) -> usize {
    let n = input.len();
    let start = b;
    while b + 8 <= n {
        let x = read_u64(input, a) ^ read_u64(input, b);
        if x != 0 {
            return b - start + (x.trailing_zeros() >> 3) as usize;
        }
        a += 8;
        b += 8;
    }
    while b < n && input[a] == input[b] {
        a += 1;
        b += 1;
    }
    b - start
}

/// Reusable compression state: one hash table per compressor, recycled
/// across blocks without re-zeroing.
///
/// The table maps 4-byte-prefix hashes to `base + position`; `base` is
/// advanced past every compressed block, so entries written by earlier
/// blocks compare below the current block's base and read as empty. The
/// table is only re-zeroed when `base` approaches `u32::MAX` (once per
/// ~4 GiB compressed), making per-block setup O(1) instead of an
/// O(HASH_SIZE) clear.
#[derive(Clone, Debug)]
pub struct Compressor {
    table: Vec<u32>,
    base: u32,
}

impl Default for Compressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor {
    /// A fresh compressor (allocates the hash table once).
    pub fn new() -> Self {
        Compressor { table: vec![0; HASH_SIZE], base: 1 }
    }

    /// Compresses `input` as one standalone stream, appending to `out`.
    pub fn compress(&mut self, input: &[u8], out: &mut Vec<u8>) {
        out.reserve(input.len() / 2 + 16);
        let n = input.len();
        // Claim this block's epoch range [base, base + n); wrap by
        // re-zeroing when u32 positions would run out.
        if self.base as u64 + n as u64 >= u32::MAX as u64 {
            self.table.fill(0);
            self.base = 1;
        }
        let base = self.base;
        self.base += n as u32;

        let mut pos = 0usize;
        let mut literal_start = 0usize;
        let mut probes = 1u32 << SKIP_TRIGGER;
        while pos + MIN_MATCH <= n {
            let here = read_u32(input, pos);
            let h = hash4(here);
            let entry = self.table[h];
            self.table[h] = base + pos as u32;
            if entry >= base {
                let candidate = (entry - base) as usize;
                if pos - candidate <= MAX_OFFSET && read_u32(input, candidate) == here {
                    let len =
                        MIN_MATCH + common_prefix(input, candidate + MIN_MATCH, pos + MIN_MATCH);
                    emit_sequence(out, &input[literal_start..pos], pos - candidate, len);
                    pos += len;
                    literal_start = pos;
                    // Keep the table warm at the match tail so adjacent
                    // repeats chain without per-byte hashing.
                    if pos + MIN_MATCH <= n && pos >= 2 {
                        let p = pos - 2;
                        self.table[hash4(read_u32(input, p))] = base + p as u32;
                    }
                    probes = 1 << SKIP_TRIGGER;
                    continue;
                }
            }
            // Miss: accelerate over incompressible data — the stride
            // grows by one byte per 2^SKIP_TRIGGER consecutive misses.
            pos += (probes >> SKIP_TRIGGER) as usize;
            probes += 1;
        }
        // Terminal literal run (match_len nibble = 0).
        emit_sequence(out, &input[literal_start..], 0, 0);
    }
}

/// Compresses `input`, appending to `out`, with one-shot scratch state.
/// Hot paths should hold a [`Compressor`] instead and reuse its table.
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    Compressor::new().compress(input, out);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    debug_assert!(match_len == 0 || match_len >= MIN_MATCH);
    let lit_len = literals.len();
    let lit_nibble = lit_len.min(15) as u8;
    let match_code = if match_len == 0 { 0 } else { match_len - MIN_MATCH + 1 };
    let match_nibble = match_code.min(15) as u8;
    out.push((lit_nibble << 4) | match_nibble);
    if lit_nibble == 15 {
        emit_chain(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        debug_assert!((1..=MAX_OFFSET).contains(&offset));
        if match_nibble == 15 {
            emit_chain(out, match_code - 15);
        }
        out.extend_from_slice(&(offset as u16).to_le_bytes());
    }
}

/// 255-chain: a run of 0xFF bytes plus a final byte < 0xFF summing to `v`.
fn emit_chain(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

/// Decompresses `input` (one [`compress`] stream), appending to `out`.
pub fn decompress(input: &[u8], out: &mut Vec<u8>) -> Result<(), DecodeError> {
    let mut pos = 0usize;
    let n = input.len();
    let base = out.len();
    loop {
        if pos >= n {
            // A valid stream always ends with an explicit terminal
            // sequence (match nibble 0), so running off the end — even of
            // an empty input — is a truncation.
            return Err(DecodeError::Truncated);
        }
        let token = input[pos];
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        let match_code_nibble = (token & 0x0F) as usize;
        if lit_len == 15 {
            // Literals come from the input itself, so cap the chain by
            // the bytes actually remaining — a claim past that is a
            // truncation however large the chain says it is, and the cap
            // keeps the arithmetic below overflow-free.
            let remaining = n - pos;
            lit_len = lit_len
                .checked_add(read_chain(input, &mut pos, remaining)?)
                .ok_or(DecodeError::Oversize)?;
        }
        if lit_len > n - pos {
            return Err(DecodeError::Truncated);
        }
        out.extend_from_slice(&input[pos..pos + lit_len]);
        pos += lit_len;
        if match_code_nibble == 0 {
            // Terminal sequence.
            if pos != n {
                return Err(DecodeError::Truncated);
            }
            return Ok(());
        }
        let mut match_code = match_code_nibble;
        if match_code == 15 {
            // Match bytes are synthesized into the output, so the
            // remaining-input cap does not apply; refuse runs beyond
            // MAX_DECODE_RUN before reserving anything.
            match_code = match_code
                .checked_add(read_chain(input, &mut pos, MAX_DECODE_RUN)?)
                .ok_or(DecodeError::Oversize)?;
        }
        let match_len = match_code + MIN_MATCH - 1;
        if pos + 2 > n {
            return Err(DecodeError::Truncated);
        }
        let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() - base {
            return Err(DecodeError::BadOffset);
        }
        let start = out.len() - offset;
        if offset >= match_len {
            // Disjoint source: one wide append.
            out.extend_from_within(start..start + match_len);
        } else {
            // Self-overlapping match (RLE semantics): the bytes in
            // `out[start..]` form an `offset`-periodic pattern. Appending
            // a prefix of that region preserves the period, and each
            // append doubles the available source, so the copy completes
            // in O(log(match_len / offset)) wide appends instead of
            // byte-at-a-time pushes.
            out.reserve(match_len);
            let mut remaining = match_len;
            let mut avail = offset;
            while remaining > 0 {
                let step = avail.min(remaining);
                out.extend_from_within(start..start + step);
                remaining -= step;
                avail += step;
            }
        }
    }
}

/// Most bytes [`decompress`] can produce from `input_len` bytes of
/// stream. A literal adds one byte; a match adds at most 18 bytes for its
/// token and two offset bytes, plus 255 for each byte of its 255-chain.
pub(crate) fn max_decompressed_len(input_len: usize) -> usize {
    input_len.saturating_mul(255)
}

/// Reads a 255-chain, refusing totals above `cap` (adversarial chains
/// otherwise force huge downstream reservations).
fn read_chain(input: &[u8], pos: &mut usize, cap: usize) -> Result<usize, DecodeError> {
    let mut total = 0usize;
    loop {
        let b = *input.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        total += b as usize;
        if total > cap {
            return Err(if cap == MAX_DECODE_RUN {
                DecodeError::Oversize
            } else {
                DecodeError::Truncated
            });
        }
        if b != 255 {
            return Ok(total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut c = Vec::new();
        compress(data, &mut c);
        let mut d = Vec::new();
        decompress(&c, &mut d).expect("decompress");
        d
    }

    #[test]
    fn empty() {
        assert_eq!(roundtrip(b""), b"");
    }

    #[test]
    fn short_literals() {
        for len in 0..20 {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(roundtrip(&data), data, "len {len}");
        }
    }

    #[test]
    fn rle_run() {
        let data = vec![42u8; 10_000];
        let mut c = Vec::new();
        compress(&data, &mut c);
        assert!(c.len() < 64, "RLE run should compress to ~nothing, got {}", c.len());
        let mut d = Vec::new();
        decompress(&c, &mut d).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn repeated_pattern() {
        let data: Vec<u8> = b"abcdefgh".iter().cycle().take(8000).copied().collect();
        let mut c = Vec::new();
        compress(&data, &mut c);
        assert!(c.len() < 200);
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn long_literal_chain() {
        // >15 literals exercises the 255-chain.
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + i / 3) as u8).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn long_match_chain() {
        // Match of length >18 exercises match 255-chain.
        let mut data = vec![0u8; 4];
        data.extend((0..50).map(|i| i as u8));
        let pattern = data.clone();
        data.extend(&pattern); // long repeat
        data.extend(&pattern);
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn far_matches_within_window() {
        let mut data = b"0123456789abcdef_payload_".to_vec();
        data.extend(vec![9u8; 60_000]);
        data.extend(b"0123456789abcdef_payload_");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn matches_beyond_window_are_not_used() {
        // Distance > 65535: the second copy must still roundtrip (encoded
        // as literals or nearer matches).
        let mut data = b"unique-prefix-0123456789".to_vec();
        let mut x = 1u64;
        data.extend((0..70_000).map(|_| {
            x = x.wrapping_mul(48271) % 0x7fffffff;
            (x >> 7) as u8
        }));
        data.extend(b"unique-prefix-0123456789");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn truncated_stream_detected() {
        let mut c = Vec::new();
        compress(&vec![7u8; 1000], &mut c);
        for cut in 0..c.len() {
            let mut d = Vec::new();
            assert!(decompress(&c[..cut], &mut d).is_err(), "truncation at {cut} not detected");
        }
    }

    #[test]
    fn bad_offset_detected() {
        // Hand-craft: token with match but offset 0.
        let stream = [0x01u8, 0x00, 0x00]; // lit 0, match_code 1, offset 0
        let mut d = Vec::new();
        assert_eq!(decompress(&stream, &mut d), Err(DecodeError::BadOffset));
        // Offset pointing before start of output.
        let stream = [0x11u8, b'x', 0x05, 0x00]; // 1 literal, match offset 5
        let mut d = Vec::new();
        assert_eq!(decompress(&stream, &mut d), Err(DecodeError::BadOffset));
    }

    #[test]
    fn decompress_appends() {
        let mut c = Vec::new();
        compress(b"hello world hello world", &mut c);
        let mut out = b"prefix:".to_vec();
        decompress(&c, &mut out).unwrap();
        assert_eq!(out, b"prefix:hello world hello world");
    }

    #[test]
    fn max_decompressed_len_holds() {
        // Long zero runs are the codec's best case: one 255-chain byte
        // per 255 output bytes.
        let data = vec![0u8; 1 << 20];
        let mut c = Vec::new();
        compress(&data, &mut c);
        assert!(data.len() <= max_decompressed_len(c.len()), "{} from {}", data.len(), c.len());
        assert!(data.len() * 10 > max_decompressed_len(c.len()), "the bound is near-tight");
    }

    #[test]
    fn max_compressed_len_holds() {
        // Incompressible: every 4-gram unique.
        let data: Vec<u8> = (0..30_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut worst = Vec::new();
        compress(&data, &mut worst);
        assert!(worst.len() <= max_compressed_len(data.len()));
    }

    #[test]
    fn compressor_reuse_across_blocks() {
        // One Compressor over many different blocks: stale table entries
        // from earlier blocks must never alias into later ones.
        let mut comp = Compressor::new();
        let blocks: Vec<Vec<u8>> = (0..32u8)
            .map(|seed| {
                let mut x = seed as u64 + 1;
                (0..5000)
                    .map(|i| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        if i % 7 < 3 {
                            seed
                        } else {
                            (x >> 33) as u8
                        }
                    })
                    .collect()
            })
            .collect();
        for block in &blocks {
            let mut c = Vec::new();
            comp.compress(block, &mut c);
            let mut d = Vec::new();
            decompress(&c, &mut d).unwrap();
            assert_eq!(&d, block);
        }
    }

    #[test]
    fn compressor_epoch_wrap_resets_table() {
        // Force the epoch counter to the wrap threshold and compress
        // across it: the table re-zero must keep streams standalone.
        let mut comp = Compressor::new();
        comp.base = u32::MAX - 100;
        let data: Vec<u8> = b"wrap-around-pattern-".iter().cycle().take(4000).copied().collect();
        for _ in 0..3 {
            let mut c = Vec::new();
            comp.compress(&data, &mut c);
            let mut d = Vec::new();
            decompress(&c, &mut d).unwrap();
            assert_eq!(d, data);
        }
    }

    #[test]
    fn adversarial_literal_chain_rejected_without_reservation() {
        // Token claims a literal run of ~4 GB backed by 3 input bytes:
        // must fail fast as truncation, never reserve.
        let mut stream = vec![0xF0u8];
        stream.extend(std::iter::repeat_n(0xFF, 3));
        stream.push(0x00);
        let mut d = Vec::new();
        assert_eq!(decompress(&stream, &mut d), Err(DecodeError::Truncated));
        assert!(d.capacity() < 1 << 20, "no giant reservation: {}", d.capacity());
    }

    #[test]
    fn adversarial_match_chain_rejected() {
        // A tiny valid prefix, then a match whose 255-chain claims more
        // than MAX_DECODE_RUN bytes: Oversize, not an allocation attempt.
        let mut stream = vec![0x4F, b'a', b'b', b'c', b'd']; // 4 literals, match chain follows
        let chain_bytes = MAX_DECODE_RUN / 255 + 2;
        stream.extend(std::iter::repeat_n(0xFF, chain_bytes));
        stream.push(0x00);
        stream.extend_from_slice(&1u16.to_le_bytes());
        let mut d = Vec::new();
        assert_eq!(decompress(&stream, &mut d), Err(DecodeError::Oversize));
        assert!(d.capacity() < 1 << 20, "no giant reservation: {}", d.capacity());
    }

    #[test]
    fn decompress_appends_overlapping_doubling() {
        // Offsets 1..=9 against lengths around the doubling boundaries.
        for offset in 1usize..10 {
            for extra in [0usize, 1, 7, 8, 9, 63, 64, 255, 256, 1000] {
                let pattern: Vec<u8> = (0..offset as u8).collect();
                let mut data = pattern.clone();
                let match_len = MIN_MATCH + extra;
                for i in 0..match_len {
                    data.push(pattern[i % offset]);
                }
                assert_eq!(roundtrip(&data), data, "offset {offset} extra {extra}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Structured data shaped like encoded event streams: short repeated
    /// records with occasional noise.
    fn arb_eventish() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..6), 1usize..300, any::<u8>()),
            0..30,
        )
        .prop_map(|chunks| {
            let mut data = Vec::new();
            for (record, repeats, noise) in chunks {
                for i in 0..repeats {
                    data.extend_from_slice(&record);
                    if i % 17 == 0 {
                        data.push(noise);
                    }
                }
            }
            data
        })
    }

    proptest! {
        #[test]
        fn roundtrip_random(data in prop::collection::vec(any::<u8>(), 0..30_000)) {
            let mut c = Vec::new();
            compress(&data, &mut c);
            prop_assert!(c.len() <= max_compressed_len(data.len()));
            let mut d = Vec::new();
            decompress(&c, &mut d).unwrap();
            prop_assert_eq!(d, data);
        }

        #[test]
        fn roundtrip_low_entropy(
            runs in prop::collection::vec((0u8..4, 1usize..2000), 0..40),
        ) {
            let mut data = Vec::new();
            for (b, len) in runs {
                data.extend(std::iter::repeat_n(b, len));
            }
            let mut c = Vec::new();
            compress(&data, &mut c);
            let mut d = Vec::new();
            decompress(&c, &mut d).unwrap();
            prop_assert_eq!(d, data);
        }

        #[test]
        fn accelerated_roundtrip_structured(data in arb_eventish()) {
            let mut comp = Compressor::new();
            let mut c = Vec::new();
            comp.compress(&data, &mut c);
            prop_assert!(c.len() <= max_compressed_len(data.len()));
            let mut d = Vec::new();
            decompress(&c, &mut d).unwrap();
            prop_assert_eq!(d, data);
        }

        /// One reused Compressor over a block sequence behaves exactly
        /// like fresh per-block compressors.
        #[test]
        fn reused_compressor_matches_fresh(
            blocks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..4000), 0..8),
        ) {
            let mut shared = Compressor::new();
            for block in &blocks {
                let mut reused = Vec::new();
                shared.compress(block, &mut reused);
                let mut fresh = Vec::new();
                Compressor::new().compress(block, &mut fresh);
                prop_assert_eq!(&reused, &fresh, "reuse must not change the stream");
                let mut d = Vec::new();
                decompress(&reused, &mut d).unwrap();
                prop_assert_eq!(&d, block);
            }
        }

        #[test]
        fn decompress_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..2000)) {
            let mut out = Vec::new();
            let _ = decompress(&data, &mut out); // must not panic
        }
    }
}
