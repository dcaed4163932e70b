//! 3-D `(last, run, level)` (de)serialisation of quantised 8×8 blocks.
//!
//! Unlike the MPEG-2-style code there is no end-of-block symbol: the
//! final event carries a `last` flag, saving ~2 bits per coded block.
//! Blocks with no coefficients at all are signalled by the macroblock's
//! coded-block pattern, never through this module.

use crate::tables::{
    event_symbol, event_table, symbol_event, MAX_LEVEL, MAX_RUN, SYM_ESCAPE, ZIGZAG,
};
use hdvb_bits::picture::CodecError;
use hdvb_bits::{BitReader, BitWriter};
use hdvb_dsp::Block8;

/// Writes the coefficients of a block that has at least one nonzero
/// value in `ZIGZAG[start..]`.
///
/// # Panics
///
/// Debug-panics if the block is empty in the coded region (the caller
/// must use the coded-block pattern for that case).
pub(crate) fn write_coeffs(w: &mut BitWriter, block: &Block8, start: usize) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
    let table = event_table();
    let last_pos = ZIGZAG[start..]
        .iter()
        .rposition(|&p| block[p] != 0)
        .map(|i| i + start);
    let last_pos = match last_pos {
        Some(p) => p,
        None => {
            debug_assert!(false, "write_coeffs on an empty block");
            return;
        }
    };
    let mut run = 0u32;
    for (zi, &pos) in ZIGZAG.iter().enumerate().take(last_pos + 1).skip(start) {
        let level = block[pos];
        if level == 0 {
            run += 1;
            continue;
        }
        let last = zi == last_pos;
        let abs = level.unsigned_abs() as u32;
        if run <= MAX_RUN && abs <= MAX_LEVEL {
            table.encode(event_symbol(last, run, abs), w);
            w.put_bit(level < 0);
        } else if run <= MAX_RUN && abs <= 2 * MAX_LEVEL {
            // MPEG-4 type-1 escape: re-code with the level reduced by
            // LMAX, reusing the short event table.
            table.encode(SYM_ESCAPE, w);
            w.put_bits(0b0, 1);
            table.encode(event_symbol(last, run, abs - MAX_LEVEL), w);
            w.put_bit(level < 0);
        } else if run > MAX_RUN && run <= 2 * MAX_RUN + 1 && abs <= MAX_LEVEL {
            // Type-2 escape: re-code with the run reduced by RMAX+1.
            table.encode(SYM_ESCAPE, w);
            w.put_bits(0b10, 2);
            table.encode(event_symbol(last, run - (MAX_RUN + 1), abs), w);
            w.put_bit(level < 0);
        } else {
            // Type-3 (full) escape.
            table.encode(SYM_ESCAPE, w);
            w.put_bits(0b11, 2);
            w.put_bit(last);
            w.put_bits(run, 6);
            w.put_se(i32::from(level));
        }
        run = 0;
    }
}

/// Parses one coded block's coefficients into `block` (zeroed by the
/// caller).
pub(crate) fn read_coeffs(
    r: &mut BitReader<'_>,
    block: &mut Block8,
    start: usize,
) -> Result<(), CodecError> {
    let table = event_table();
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
    let mut pos = start;
    loop {
        let symbol = table.decode(r)?;
        let (last, run, level) = if symbol == SYM_ESCAPE {
            if !r.get_bit()? {
                // Type 1: level offset by LMAX.
                let inner = table.decode(r)?;
                if inner == SYM_ESCAPE {
                    return Err(CodecError::corrupt(
                        hdvb_bits::CorruptKind::BadCoefficients,
                        "nested escape in type-1 event",
                    ));
                }
                let (last, run, abs) = symbol_event(inner);
                let neg = r.get_bit()?;
                let abs = abs + MAX_LEVEL;
                (last, run, if neg { -(abs as i32) } else { abs as i32 })
            } else if !r.get_bit()? {
                // Type 2: run offset by RMAX+1.
                let inner = table.decode(r)?;
                if inner == SYM_ESCAPE {
                    return Err(CodecError::corrupt(
                        hdvb_bits::CorruptKind::BadCoefficients,
                        "nested escape in type-2 event",
                    ));
                }
                let (last, run, abs) = symbol_event(inner);
                let neg = r.get_bit()?;
                (
                    last,
                    run + MAX_RUN + 1,
                    if neg { -(abs as i32) } else { abs as i32 },
                )
            } else {
                // Type 3: explicit last/run/level.
                let last = r.get_bit()?;
                let run = r.get_bits(6)?;
                let level = r.get_se()?;
                if level == 0 {
                    return Err(CodecError::corrupt(
                        hdvb_bits::CorruptKind::BadCoefficients,
                        "escape level of zero",
                    ));
                }
                (last, run, level)
            }
        } else {
            let (last, run, abs) = symbol_event(symbol);
            let neg = r.get_bit()?;
            (last, run, if neg { -(abs as i32) } else { abs as i32 })
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
        if last {
            return Ok(());
        }
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
    fn single_coefficient_blocks() {
        for pos in [0usize, 1, 5, 63] {
            let mut b = [0i16; 64];
            b[ZIGZAG[pos]] = -7;
            if pos == 0 {
                assert_eq!(roundtrip(&b, 0), b);
            } else {
                assert_eq!(roundtrip(&b, 1), b);
                assert_eq!(roundtrip(&b, 0), b);
            }
        }
    }

    #[test]
    fn three_d_coding_beats_eob_style_on_single_events() {
        // One small coefficient: (last=1,run,level) in one symbol; the
        // MPEG-2 style would need (run,level) + EOB.
        let mut b = [0i16; 64];
        b[0] = 1;
        let mut w = BitWriter::new();
        write_coeffs(&mut w, &b, 0);
        assert!(w.bit_len() <= 5, "{} bits", w.bit_len());
    }

    #[test]
    fn dense_random_blocks_roundtrip() {
        let mut state = 42u32;
        for _ in 0..60 {
            let mut b = [0i16; 64];
            for v in &mut b {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if state.is_multiple_of(4) {
                    *v = ((state >> 20) as i16 % 901) - 450;
                }
            }
            if b.iter().all(|&v| v == 0) {
                b[10] = 3;
            }
            assert_eq!(roundtrip(&b, 0), b);
        }
    }

    #[test]
    fn escape_with_last_flag_roundtrips() {
        let mut b = [0i16; 64];
        b[ZIGZAG[50]] = 1200; // escape level, also the last event
        assert_eq!(roundtrip(&b, 0), b);
    }

    #[test]
    fn corrupt_overflow_is_error() {
        let table = event_table();
        let mut w = BitWriter::new();
        // Two max-run escapes force pos past 63.
        for _ in 0..2 {
            table.encode(SYM_ESCAPE, &mut w);
            w.put_bit(false);
            w.put_bits(63, 6);
            w.put_se(4);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = [0i16; 64];
        assert!(read_coeffs(&mut r, &mut out, 0).is_err());
    }

    #[test]
    fn truncation_is_error_not_panic() {
        let mut b = [0i16; 64];
        b[3] = 9;
        b[40] = -900;
        let mut w = BitWriter::new();
        write_coeffs(&mut w, &b, 0);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = BitReader::new(&bytes[..cut]);
            let mut out = [0i16; 64];
            let _ = read_coeffs(&mut r, &mut out, 0);
        }
    }
}
