//! Minimal rotate-xor hashers for small fixed-shape keys.
//!
//! The summarizing builder hashes its merge key — a few machine words —
//! once per recorded access to index its key cache, and probes its key
//! map on a miss. SipHash's per-hash setup cost is
//! pure overhead there: none of these tables hold attacker-controlled
//! keys (they are derived from the program's own PCs, strides, and fork
//! labels), so a fast non-cryptographic mix in the style of rustc's
//! FxHash is the right trade. Hand-rolled because this workspace takes
//! no external dependencies.

use std::hash::{BuildHasher, Hasher};

/// Multiplier from the FxHash family (a large odd constant with good
/// bit dispersion under multiplication).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time rotate-xor hasher. FxHash, for maps, multiplies
/// every word in (`EACH`); an `IndexHasher` multiplies once, in
/// `finish`, for a direct-mapped index taken from the hash's high bits,
/// where a key of a few words would chain as many dependent multiplies.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher<const EACH: bool = true> {
    hash: u64,
}

/// A multiply per hash: only its high bits are spread.
pub(crate) type IndexHasher = FxHasher<false>;

impl<const EACH: bool> FxHasher<EACH> {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(if EACH { SEED } else { 1 });
    }
}

impl<const EACH: bool> Hasher for FxHasher<EACH> {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.wrapping_mul(if EACH { 1 } else { SEED })
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length in the top byte so "ab" and "ab\0" differ.
            tail[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// [`BuildHasher`] handing out zero-state [`FxHasher`]s, for use as a
/// `HashMap` hasher parameter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher.hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal() {
        let a = (7u32, 1u8, 8u8, 0u32);
        let b = (7u32, 1u8, 8u8, 0u32);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nearby_keys_disperse() {
        // Not a statistical test — just that trivially related keys do
        // not collide and bits spread beyond the low byte.
        let hashes: Vec<u64> = (0..64u32).map(|i| hash_of(&(i, 3u8, 8u8, i ^ 1))).collect();
        let mut uniq = hashes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), hashes.len(), "no collisions on a small dense key set");
        assert!(hashes.iter().any(|h| h >> 56 != hashes[0] >> 56), "high bits vary");
    }

    #[test]
    fn an_index_hash_spreads_nearby_keys_over_its_high_bits() {
        // The builder's key shape, (pc, kind, size, mutex set), for 64
        // consecutive sites of one kind, size and set: their 6-bit memo
        // indices fill most of the 64 slots.
        let index = |k: &(u32, u8, u8, u32)| {
            std::hash::BuildHasherDefault::<IndexHasher>::default().hash_one(k) >> 58
        };
        let mut slots: Vec<u64> = (0..64u32).map(|pc| index(&(pc, 1, 8, 0))).collect();
        assert_eq!(index(&(7, 1, 8, 0)), slots[7], "equal keys index equal");
        slots.sort_unstable();
        slots.dedup();
        assert!(slots.len() >= 32, "{} of 64 slots", slots.len());
    }

    #[test]
    fn byte_slices_length_distinguished() {
        assert_ne!(hash_of(&b"ab".as_slice()), hash_of(&b"ab\0".as_slice()));
        assert_ne!(hash_of(&b"abcdefgh".as_slice()), hash_of(&b"abcdefg".as_slice()));
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: std::collections::HashMap<(u32, u8), u32, FxBuildHasher> =
            std::collections::HashMap::default();
        for i in 0..1000u32 {
            m.insert((i, (i % 7) as u8), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(500, (500 % 7) as u8)], 500);
    }
}
