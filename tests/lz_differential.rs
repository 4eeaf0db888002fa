//! The LZ decoder against the byte-at-a-run loop it grew out of: on
//! random streams, valid and garbage, on the adversarial corpus and on
//! every frame of a scattered-gather session, `decompress` must append
//! the same bytes or return the same error as [`reference`], with the
//! output vector reserved exactly (as `FrameView::decode_into` does) or
//! generously.

use proptest::prelude::*;
use sword::compress::{compress, decompress, parse_frame, DecodeError};
use sword::fuzz::adversarial::evil_streams;
use sword::ompsim::SimConfig;
use sword::runtime::{run_collected, SwordConfig};
use sword::trace::SessionDir;

const MIN_MATCH: usize = 4;
const MAX_DECODE_RUN: usize = 1 << 30;

/// The decoder loop before short runs were copied as fixed-size appends:
/// every literal run and disjoint match is one exact-length append, an
/// overlapping match a doubling copy.
fn reference(input: &[u8], out: &mut Vec<u8>) -> Result<(), DecodeError> {
    let mut pos = 0usize;
    let n = input.len();
    let base = out.len();
    loop {
        if pos >= n {
            return Err(DecodeError::Truncated);
        }
        let token = input[pos];
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        let match_code_nibble = (token & 0x0F) as usize;
        if lit_len == 15 {
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
            if pos != n {
                return Err(DecodeError::Truncated);
            }
            return Ok(());
        }
        let mut match_code = match_code_nibble;
        if match_code == 15 {
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
            out.extend_from_within(start..start + match_len);
        } else {
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

/// Decodes `stream` with both decoders after `prefix`, into vectors
/// reserved for `reserve` more bytes, and asserts equal outcomes.
fn assert_same(stream: &[u8], prefix: &[u8], reserve: usize) {
    let fresh = || {
        let mut out = Vec::with_capacity(prefix.len() + reserve);
        out.extend_from_slice(prefix);
        out
    };
    let (mut got, mut want) = (fresh(), fresh());
    let capacity = got.capacity();
    let (got_result, want_result) = (decompress(stream, &mut got), reference(stream, &mut want));
    assert_eq!(got_result, want_result, "outcome of a {}-byte stream", stream.len());
    if want_result.is_ok() {
        assert_eq!(got, want, "bytes of a {}-byte stream", stream.len());
    }
    if want.capacity() == capacity {
        assert_eq!(got.capacity(), capacity, "grew a vector the reference did not");
    }
}

/// Both decoders on `stream`, reserved exactly for what the reference
/// decodes, with nothing spare, and generously.
fn assert_same_everywhere(stream: &[u8]) {
    let mut decoded = Vec::new();
    let exact = reference(stream, &mut decoded).map_or(64, |()| decoded.len());
    for prefix in [&[][..], b"0123456789abcdefghij"] {
        for reserve in [0, exact, exact + 15, exact + 4096] {
            assert_same(stream, prefix, reserve);
        }
    }
}

/// Records of 1–40 bytes repeated at distances below and above 16, with
/// noise: short literals and short matches, overlapping or not.
fn arb_records() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((prop::collection::vec(any::<u8>(), 1..40), 1usize..40, 0u8..4), 0..24)
        .prop_map(|chunks| {
            let mut data = Vec::new();
            for (record, repeats, noise) in chunks {
                for i in 0..repeats {
                    data.extend_from_slice(&record[..record.len() - i % record.len()]);
                    data.extend(std::iter::repeat_n(noise, i % 3));
                }
            }
            data
        })
}

proptest! {
    #[test]
    fn garbage_streams_decode_alike(stream in prop::collection::vec(any::<u8>(), 0..600)) {
        assert_same_everywhere(&stream);
    }

    #[test]
    fn compressed_streams_decode_alike(data in arb_records()) {
        let mut stream = Vec::new();
        compress(&data, &mut stream);
        assert_same_everywhere(&stream);
        // A damaged copy: one byte flipped somewhere in the stream.
        if !stream.is_empty() {
            let at = data.len() % stream.len();
            stream[at] ^= 0x5A;
            assert_same_everywhere(&stream);
        }
    }
}

#[test]
fn the_adversarial_corpus_fails_alike() {
    for case in evil_streams() {
        assert_same_everywhere(&case.bytes);
        let mut out = Vec::new();
        assert_eq!(decompress(&case.bytes, &mut out), Err(case.expect), "case `{}`", case.name);
    }
}

/// Random reads per thread of the gather.
const GATHER: u64 = 1 << 16;

#[test]
fn every_frame_of_a_scattered_gather_decodes_alike() {
    let path = std::env::temp_dir().join(format!("sword-lz-gather-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let table = 8 * GATHER;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let idx: Vec<u64> = (0..2 * GATHER)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % table
        })
        .collect();
    run_collected(SwordConfig::new(&path), SimConfig::default(), |sim| {
        let src = sim.alloc::<u64>(table, 1);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static(0..2 * GATHER, |i| {
                    w.read(&src, idx[i as usize]);
                });
            });
        });
    })
    .expect("collect the gather");

    let dir = SessionDir::new(&path);
    let mut compressed = 0;
    for tid in dir.thread_ids().expect("thread ids") {
        let log = std::fs::read(dir.thread_log(tid)).expect("read log");
        let mut rest = &log[..];
        while let Some((frame, len)) = parse_frame(rest).expect("a whole frame") {
            if !frame.stored {
                compressed += 1;
                for prefix in [&[][..], b"0123456789abcdefghij"] {
                    for reserve in [frame.raw_len, frame.raw_len + 4096] {
                        assert_same(frame.payload, prefix, reserve);
                    }
                }
            }
            rest = &rest[len..];
        }
    }
    assert!(compressed >= 2, "{compressed} compressed frames");
    std::fs::remove_dir_all(&path).expect("remove the session");
}
