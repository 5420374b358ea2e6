//! A small deterministic hasher for map keys the program makes itself.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiplier: an odd constant with well-spread bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher for keys the program mints itself.
///
/// The standard `HashMap` hashes with SipHash under a random key, which
/// is what keys from outside the program need: a peer cannot pick
/// request ids or node ids that collide. Keys the program mints itself —
/// local request serials and sequence numbers, host and segment
/// indices, metric names written in the code — need no such defence,
/// and SipHash costs more than the lookup it serves on the request and
/// send paths. This hasher takes one rotate, xor and multiply per
/// integer, and byte strings a word at a time.
///
/// Use it only where the program made the key. Its iteration order is
/// the same in every run, but no map keyed through it may be walked into
/// an output: the standard hasher's order would differ between runs,
/// and a walk that happened to depend on order would then be a bug this
/// hasher hides. Today the only walk of such a map is the multicast
/// fan-out cache's `retain`, which no order can change.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher {
    hash: u64,
}

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed through [`IntHasher`]: for keys the program made.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(key: impl Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn same_key_same_hash_in_every_map() {
        assert_eq!(
            hash((3u32, "net", "sent_pkts")),
            hash((3u32, "net", "sent_pkts"))
        );
        assert_eq!(hash(42u64), hash(42u64));
    }

    #[test]
    fn strings_differ_in_any_byte_and_in_length() {
        let names = ["", "a", "b", "ab", "abcdefgh", "abcdefgi", "abcdefgh\0"];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(hash(a), hash(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn a_map_finds_what_it_holds() {
        let mut m: IntMap<(u16, u16, u8), u32> = IntMap::default();
        for i in 0..1000u32 {
            m.insert(((i % 7) as u16, (i / 7) as u16, (i % 3) as u8), i);
        }
        for i in 0..1000u32 {
            let key = ((i % 7) as u16, (i / 7) as u16, (i % 3) as u8);
            assert_eq!(m.get(&key), Some(&i));
        }
    }
}
