//! Run-level (de)serialisation of quantised 8×8 coefficient blocks —
//! shared by the encoder and decoder so the two sides cannot drift.

use crate::tables::{
    coef_table, pair_symbol, symbol_pair, MAX_LEVEL, MAX_RUN, SYM_EOB, SYM_ESCAPE, ZIGZAG,
};
use hdvb_bits::picture::CodecError;
use hdvb_bits::{BitReader, BitWriter};
use hdvb_dsp::Block8;

/// Writes the quantised coefficients of `block` in zigzag run-level form.
/// `start` is 1 for intra blocks (DC coded separately) and 0 for inter.
pub(crate) fn write_coeffs(w: &mut BitWriter, block: &Block8, start: usize) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
    let table = coef_table();
    let mut run = 0u32;
    for &pos in &ZIGZAG[start..] {
        let level = block[pos];
        if level == 0 {
            run += 1;
            continue;
        }
        let abs = level.unsigned_abs() as u32;
        if run <= MAX_RUN && abs <= MAX_LEVEL {
            table.encode(pair_symbol(run, abs), w);
            w.put_bit(level < 0);
        } else {
            table.encode(SYM_ESCAPE, w);
            w.put_bits(run, 6);
            w.put_se(i32::from(level));
        }
        run = 0;
    }
    table.encode(SYM_EOB, w);
}

/// Parses one block's coefficients into `block` (which must be zeroed by
/// the caller). Mirrors [`write_coeffs`].
pub(crate) fn read_coeffs(
    r: &mut BitReader<'_>,
    block: &mut Block8,
    start: usize,
) -> Result<(), CodecError> {
    let table = coef_table();
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
    let mut pos = start;
    loop {
        let symbol = table.decode(r)?;
        if symbol == SYM_EOB {
            return Ok(());
        }
        let (run, level) = if symbol == SYM_ESCAPE {
            let run = r.get_bits(6)?;
            let level = r.get_se()?;
            if level == 0 {
                return Err(CodecError::corrupt(
                    hdvb_bits::CorruptKind::BadCoefficients,
                    "escape level of zero",
                ));
            }
            (run, level)
        } else {
            let (run, abs) = symbol_pair(symbol);
            let neg = r.get_bit()?;
            (run, if neg { -(abs as i32) } else { abs as i32 })
        };
        pos += run as usize;
        if pos >= 64 {
            return Err(CodecError::corrupt(
                hdvb_bits::CorruptKind::BadCoefficients,
                format!("coefficient run overflows block ({pos})"),
            ));
        }
        block[ZIGZAG[pos]] = level.clamp(-2047, 2047) as i16;
        pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(block: &Block8, start: usize) -> Block8 {
        let mut w = BitWriter::new();
        write_coeffs(&mut w, block, start);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = [0i16; 64];
        read_coeffs(&mut r, &mut out, start).unwrap();
        out
    }

    #[test]
    fn empty_block_roundtrip() {
        let z = [0i16; 64];
        assert_eq!(roundtrip(&z, 0), z);
        assert_eq!(roundtrip(&z, 1), z);
    }

    #[test]
    fn sparse_block_roundtrip() {
        let mut b = [0i16; 64];
        b[0] = 100;
        b[1] = -3;
        b[8] = 7;
        b[63] = -1;
        assert_eq!(roundtrip(&b, 0), b);
    }

    #[test]
    fn intra_start_skips_dc() {
        let mut b = [0i16; 64];
        b[0] = 999; // DC must NOT be serialised with start == 1
        b[2] = 5;
        let out = roundtrip(&b, 1);
        assert_eq!(out[0], 0);
        assert_eq!(out[2], 5);
    }

    #[test]
    fn escape_paths_roundtrip() {
        let mut b = [0i16; 64];
        b[ZIGZAG[40]] = 900; // large level -> escape
        b[ZIGZAG[63]] = -1; // long run -> escape
        assert_eq!(roundtrip(&b, 0), b);
    }

    #[test]
    fn dense_random_blocks_roundtrip() {
        let mut state = 5u32;
        for _ in 0..50 {
            let mut b = [0i16; 64];
            for v in &mut b {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if state.is_multiple_of(3) {
                    *v = ((state >> 20) as i16 % 801) - 400;
                }
            }
            assert_eq!(roundtrip(&b, 0), b);
            let mut intra = b;
            intra[0] = 0;
            assert_eq!(roundtrip(&intra, 1), intra);
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut b = [0i16; 64];
        b[5] = 3;
        let mut w = BitWriter::new();
        write_coeffs(&mut w, &b, 0);
        let bytes = w.finish();
        // Drop the final byte: EOB disappears.
        let mut r = BitReader::new(&bytes[..bytes.len().saturating_sub(1)]);
        let mut out = [0i16; 64];
        // Must error (or legitimately consume fewer symbols) — never panic.
        let _ = read_coeffs(&mut r, &mut out, 0);
    }

    #[test]
    fn corrupt_run_is_rejected() {
        // Craft: ESCAPE with run 63 then another coefficient overflows.
        let mut w = BitWriter::new();
        let table = coef_table();
        table.encode(SYM_ESCAPE, &mut w);
        w.put_bits(63, 6);
        w.put_se(5);
        table.encode(SYM_ESCAPE, &mut w);
        w.put_bits(10, 6);
        w.put_se(5);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = [0i16; 64];
        assert!(read_coeffs(&mut r, &mut out, 0).is_err());
    }
}
