//! Fixed-size record encodings.
//!
//! External-memory algorithms move data in blocks, so the byte layout of a
//! record must be explicit and fixed.  [`Record`] is implemented for the
//! primitive integer types and small tuples here; domain crates implement it
//! for their own structs (edges, events, hash entries, …).  All encodings are
//! little-endian.

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

    #[test]
    fn encoding_is_little_endian() {
        let mut buf = [0u8; 4];
        0x0A0B0C0Du32.write_to(&mut buf);
        assert_eq!(buf, [0x0D, 0x0C, 0x0B, 0x0A]);
    }
}
