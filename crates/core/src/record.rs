//! Fixed-size record encodings.
//!
//! External-memory algorithms move data in blocks, so the byte layout of a
//! record must be explicit and fixed.  [`Record`] is implemented for the
//! primitive integer types and small tuples here; domain crates implement it
//! for their own structs (edges, events, hash entries, …).  All encodings are
//! little-endian.  Keys are hashed over their encoding only by [`key_hash`]
//! and [`route_hash`].

use crate::hash::{fnv1a, hash_bytes};

/// A value with a fixed-size binary encoding.
///
/// `BYTES` must be positive and no larger than the device block size in use;
/// [`ExtVec`](crate::ExtVec) packs `block_size / BYTES` records per block.
pub trait Record: Clone + Send + 'static {
    /// Encoded size in bytes.
    const BYTES: usize;

    /// Serialize into `buf` (`buf.len() == Self::BYTES`).
    fn write_to(&self, buf: &mut [u8]);

    /// Deserialize from `buf` (`buf.len() == Self::BYTES`).
    fn read_from(buf: &[u8]) -> Self;
}

macro_rules! int_record {
    ($($t:ty),*) => {$(
        impl Record for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_to(&self, buf: &mut [u8]) {
                buf.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_from(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf.try_into().expect("record size"))
            }
        }
    )*};
}

int_record!(u8, u16, u32, u64, i8, i16, i32, i64);

macro_rules! tuple_record {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Record),+> Record for ($($name,)+) {
            const BYTES: usize = 0 $(+ $name::BYTES)+;
            #[inline]
            fn write_to(&self, buf: &mut [u8]) {
                let mut at = 0;
                $(
                    self.$idx.write_to(&mut buf[at..at + $name::BYTES]);
                    at += $name::BYTES;
                )+
                let _ = at;
            }
            #[inline]
            #[allow(unused_assignments)]
            fn read_from(buf: &[u8]) -> Self {
                let mut at = 0;
                ($(
                    {
                        let v = $name::read_from(&buf[at..at + $name::BYTES]);
                        at += $name::BYTES;
                        v
                    },
                )+)
            }
        }
    };
}

tuple_record!(A: 0);
tuple_record!(A: 0, B: 1);
tuple_record!(A: 0, B: 1, C: 2);
tuple_record!(A: 0, B: 1, C: 2, D: 3);
tuple_record!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_record!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Records up to this many bytes are encoded on the stack.
const STACK_BYTES: usize = 64;

/// `f` of `record`'s encoding: a slice of constant length, on the stack up
/// to [`STACK_BYTES`].
#[inline]
fn with_encoding<R: Record, T>(record: &R, f: impl FnOnce(&[u8]) -> T) -> T {
    if R::BYTES <= STACK_BYTES {
        let mut stack = [0u8; STACK_BYTES];
        let buf = &mut stack[..R::BYTES];
        record.write_to(buf);
        f(buf)
    } else {
        let mut heap = vec![0u8; R::BYTES];
        record.write_to(&mut heap);
        f(&heap)
    }
}

/// The level-0 key hash, [`hash_bytes`] of `key`'s encoding.
pub fn key_hash<R: Record>(key: &R) -> u64 {
    with_encoding(key, hash_bytes)
}

/// The shard-routing hash, [`fnv1a`] of `key`'s encoding.
pub fn route_hash<R: Record>(key: &R) -> u64 {
    with_encoding(key, fnv1a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<R: Record + PartialEq + std::fmt::Debug>(r: R) {
        let mut buf = vec![0u8; R::BYTES];
        r.write_to(&mut buf);
        assert_eq!(R::read_from(&buf), r);
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u16::MAX);
        round_trip(123456789u32);
        round_trip(u64::MAX);
        round_trip(-1i8);
        round_trip(i16::MIN);
        round_trip(-123456789i32);
        round_trip(i64::MIN);
    }

    #[test]
    fn tuple_round_trips() {
        round_trip((7u64,));
        round_trip((1u64, 2u64));
        round_trip((u32::MAX, -5i64, 9u8));
        round_trip((1u8, 2u16, 3u32, 4u64));
        round_trip((1u64, -2i64, 3i64, -4i64, 5i64));
        round_trip((-1i64, 2u8, 3u64, -4i64, 5i64, -6i64));
    }

    #[test]
    fn tuple_sizes_are_sums() {
        assert_eq!(<(u64, u64)>::BYTES, 16);
        assert_eq!(<(u32, i64, u8)>::BYTES, 13);
        assert_eq!(<(u8, u16, u32, u64)>::BYTES, 15);
    }

    /// `hash(r)` equals `reference` over `r`'s `write_to` bytes.
    fn hashes_its_encoding<R: Record>(r: R, hash: fn(&R) -> u64, reference: fn(&[u8]) -> u64) {
        let mut buf = vec![0u8; R::BYTES];
        r.write_to(&mut buf);
        assert_eq!(hash(&r), reference(&buf));
    }

    #[test]
    fn key_and_route_hashes_are_the_hashes_of_the_encoding() {
        hashes_its_encoding(0xDEAD_BEEFu64, key_hash, hash_bytes);
        hashes_its_encoding(0xDEAD_BEEFu64, route_hash, fnv1a);
        hashes_its_encoding((7u32, u64::MAX), key_hash, hash_bytes);
        hashes_its_encoding((7u32, u64::MAX), route_hash, fnv1a);
        hashes_its_encoding((1u64, 2u64, 3u64), key_hash, hash_bytes);
        hashes_its_encoding((1u64, 2u64, 3u64), route_hash, fnv1a);
        // 72 bytes: past the stack buffer, encoded on the heap.
        type Wide = ((u64, u64, u64), (u64, u64, u64), (u64, u64, u64));
        const { assert!(Wide::BYTES > STACK_BYTES) };
        let wide: Wide = ((1, 2, 3), (4, 5, 6), (7, 8, u64::MAX));
        hashes_its_encoding(wide, key_hash, hash_bytes);
        hashes_its_encoding(wide, route_hash, fnv1a);
    }

    #[test]
    fn key_and_route_hashes_are_pinned() {
        // Extendible-hash directories, key filters and shard routing are
        // persisted or routed state: these values never change.
        assert_eq!(key_hash(&0u64), 0xA1B6_1148_46AB_5086);
        assert_eq!(key_hash(&42u64), 0x1A3B_62E0_19A2_35DA);
        assert_eq!(key_hash(&(7u32, 42u64)), 0x54F4_9D68_2EBD_41CD);
        assert_eq!(key_hash(&(1u64, 2u64, 3u64)), 0x4D50_3589_65DB_1C7C);
        assert_eq!(route_hash(&(0u32, 42u64)), 0xAADA_9613_2C80_05BF);
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut buf = [0u8; 4];
        0x0A0B0C0Du32.write_to(&mut buf);
        assert_eq!(buf, [0x0D, 0x0C, 0x0B, 0x0A]);
    }
}
