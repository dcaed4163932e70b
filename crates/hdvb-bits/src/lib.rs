//! Bit-level I/O and entropy-coding primitives for the HD-VideoBench
//! codecs.
//!
//! All three codecs in the benchmark are VLC-based (MPEG-2/-4 run-level
//! tables, H.264 Exp-Golomb + CAVLC), so they share this crate's
//! MSB-first [`BitWriter`] / [`BitReader`], Exp-Golomb codes and a generic
//! canonical [`VlcTable`]. As the lowest crate every layer already
//! depends on, it is also the home of the workspace's checksums
//! ([`hash`]) and of the coded-picture vocabulary the codecs and the
//! harness share ([`picture`]: `PacketKind`, `Packet`, `CodecError`, the
//! picture-header prefix, the dimension limits and the GOP scheduler).
//!
//! # Example
//!
//! ```
//! use hdvb_bits::{BitReader, BitWriter};
//!
//! let mut w = BitWriter::new();
//! w.put_bits(0b101, 3);
//! w.put_ue(17);
//! let bytes = w.finish();
//!
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.get_bits(3)?, 0b101);
//! assert_eq!(r.get_ue()?, 17);
//! # Ok::<(), hdvb_bits::BitsError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
pub mod hash;
pub mod picture;
mod reader;
mod vlc;
mod writer;

pub use error::{BitsError, CorruptKind};
pub use reader::BitReader;
pub use vlc::{BuildVlcError, VlcEntry, VlcTable};
pub use writer::BitWriter;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn bits_roundtrip(values in proptest::collection::vec((0u32..=u32::MAX, 1u32..=32), 0..64)) {
            let mut w = BitWriter::new();
            for &(v, n) in &values {
                let masked = if n == 32 { v } else { v & ((1 << n) - 1) };
                w.put_bits(masked, n);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(v, n) in &values {
                let masked = if n == 32 { v } else { v & ((1 << n) - 1) };
                prop_assert_eq!(r.get_bits(n).unwrap(), masked);
            }
        }

        #[test]
        fn ue_roundtrip(values in proptest::collection::vec(0u32..=100_000, 0..64)) {
            let mut w = BitWriter::new();
            for &v in &values {
                w.put_ue(v);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                prop_assert_eq!(r.get_ue().unwrap(), v);
            }
        }

        #[test]
        fn se_roundtrip(values in proptest::collection::vec(-50_000i32..=50_000, 0..64)) {
            let mut w = BitWriter::new();
            for &v in &values {
                w.put_se(v);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                prop_assert_eq!(r.get_se().unwrap(), v);
            }
        }

        #[test]
        fn mixed_roundtrip(ops in proptest::collection::vec((0u8..3, 0u32..1000, 1u32..17), 0..100)) {
            let mut w = BitWriter::new();
            for &(kind, v, n) in &ops {
                match kind {
                    0 => w.put_bits(v & ((1 << n) - 1), n),
                    1 => w.put_ue(v),
                    _ => w.put_se(v as i32 - 500),
                }
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(kind, v, n) in &ops {
                match kind {
                    0 => prop_assert_eq!(r.get_bits(n).unwrap(), v & ((1 << n) - 1)),
                    1 => prop_assert_eq!(r.get_ue().unwrap(), v),
                    _ => prop_assert_eq!(r.get_se().unwrap(), v as i32 - 500),
                }
            }
        }
    }

    // ------------------------------------------------- byte-soup fuzz --
    //
    // Robustness properties: random bytes fed to the readers and to VLC
    // tables must only ever produce Eof/InvalidCode/Overlong errors —
    // never a panic — and must terminate within a decode-step budget
    // (each successful step consumes at least one bit, so `8 * len + 1`
    // steps is a hard upper bound on any loop-free decode).

    fn soup_tables() -> Vec<VlcTable> {
        // A sparse canonical table (leaves many prefixes unassigned, so
        // InvalidCode is reachable) and a dense one (every prefix maps).
        let sparse = VlcTable::from_lengths("soup-sparse", &[1, 3, 3, 5, 5, 8, 8, 12, 12, 16])
            .expect("sparse soup table lengths satisfy Kraft");
        let dense = VlcTable::from_lengths("soup-dense", &[1, 2, 3, 4, 5, 6, 7, 8, 8])
            .expect("dense soup table lengths satisfy Kraft");
        vec![sparse, dense]
    }

    proptest! {
        #[test]
        fn byte_soup_get_bits_never_panics(data in proptest::collection::vec(0u8..=255, 0..256),
                                           widths in proptest::collection::vec(1u32..=32, 1..64)) {
            let mut r = BitReader::new(&data);
            let budget = 8 * data.len() + widths.len() + 1;
            let mut steps = 0usize;
            for &n in &widths {
                steps += 1;
                prop_assert!(steps <= budget, "decode-step budget exceeded");
                if r.get_bits(n).is_err() {
                    // After Eof the reader stays at the end; further reads
                    // keep failing rather than looping or panicking.
                    prop_assert!(r.get_bits(1).is_err());
                    break;
                }
            }
        }

        #[test]
        fn byte_soup_exp_golomb_never_panics(data in proptest::collection::vec(0u8..=255, 0..256)) {
            let budget = 8 * data.len() + 2;
            let mut r = BitReader::new(&data);
            let mut steps = 0usize;
            loop {
                steps += 1;
                prop_assert!(steps <= budget, "get_ue decode-step budget exceeded");
                match r.get_ue() {
                    Ok(_) => {}
                    Err(BitsError::Eof) | Err(BitsError::Overlong) => break,
                    Err(e) => prop_assert!(false, "unexpected error from get_ue: {e}"),
                }
            }
            let mut r = BitReader::new(&data);
            let mut steps = 0usize;
            loop {
                steps += 1;
                prop_assert!(steps <= budget, "get_se decode-step budget exceeded");
                match r.get_se() {
                    Ok(_) => {}
                    Err(BitsError::Eof) | Err(BitsError::Overlong) => break,
                    Err(e) => prop_assert!(false, "unexpected error from get_se: {e}"),
                }
            }
        }

        #[test]
        fn byte_soup_vlc_never_panics(data in proptest::collection::vec(0u8..=255, 0..256)) {
            for table in soup_tables() {
                let mut r = BitReader::new(&data);
                let budget = 8 * data.len() + 2;
                let mut steps = 0usize;
                loop {
                    steps += 1;
                    prop_assert!(steps <= budget, "vlc decode-step budget exceeded");
                    match table.decode(&mut r) {
                        // Every successful decode consumes >= 1 bit.
                        Ok(_) => {}
                        Err(BitsError::Eof) => break,
                        Err(BitsError::InvalidCode { .. }) => break,
                        Err(e) => prop_assert!(false, "unexpected error from vlc: {e}"),
                    }
                }
            }
        }
    }
}
