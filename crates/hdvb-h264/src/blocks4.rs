//! Run-level (de)serialisation of quantised 4×4 blocks.

use crate::tables::{
    event_symbol4, event_table4, symbol_event4, MAX_LEVEL4, MAX_RUN4, SYM_ESCAPE4, ZIGZAG4,
};
use hdvb_bits::picture::CodecError;
use hdvb_bits::{BitReader, BitWriter};
use hdvb_dsp::Block4;

/// Writes a 4×4 block that has at least one nonzero coefficient.
pub(crate) fn write_coeffs4(w: &mut BitWriter, block: &Block4) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
    let table = event_table4();
    let last_pos = match ZIGZAG4.iter().rposition(|&p| block[p] != 0) {
        Some(p) => p,
        None => {
            debug_assert!(false, "write_coeffs4 on an empty block");
            return;
        }
    };
    let mut run = 0u32;
    for (zi, &pos) in ZIGZAG4.iter().enumerate().take(last_pos + 1) {
        let level = block[pos];
        if level == 0 {
            run += 1;
            continue;
        }
        let last = zi == last_pos;
        let abs = level.unsigned_abs() as u32;
        if run <= MAX_RUN4 && abs <= MAX_LEVEL4 {
            table.encode(event_symbol4(last, run, abs), w);
            w.put_bit(level < 0);
        } else {
            table.encode(SYM_ESCAPE4, w);
            w.put_bit(last);
            w.put_bits(run, 4);
            w.put_se(i32::from(level));
        }
        run = 0;
    }
}

/// Parses one coded 4×4 block into `block` (zeroed by the caller).
pub(crate) fn read_coeffs4(r: &mut BitReader<'_>, block: &mut Block4) -> Result<(), CodecError> {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
    let table = event_table4();
    let mut pos = 0usize;
    loop {
        let symbol = table.decode(r)?;
        let (last, run, level) = if symbol == SYM_ESCAPE4 {
            let last = r.get_bit()?;
            let run = r.get_bits(4)?;
            let level = r.get_se()?;
            if level == 0 {
                return Err(CodecError::corrupt(
                    hdvb_bits::CorruptKind::BadCoefficients,
                    "escape level of zero",
                ));
            }
            (last, run, level)
        } else {
            let (last, run, abs) = symbol_event4(symbol);
            let neg = r.get_bit()?;
            (last, run, if neg { -(abs as i32) } else { abs as i32 })
        };
        pos += run as usize;
        if pos >= 16 {
            return Err(CodecError::corrupt(
                hdvb_bits::CorruptKind::BadCoefficients,
                "coefficient run overflows 4x4 block",
            ));
        }
        block[ZIGZAG4[pos]] = level.clamp(-2047, 2047) as i16;
        pos += 1;
        if last {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(block: &Block4) -> Block4 {
        let mut w = BitWriter::new();
        write_coeffs4(&mut w, block);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = [0i16; 16];
        read_coeffs4(&mut r, &mut out).unwrap();
        out
    }

    #[test]
    fn single_and_dense_blocks_roundtrip() {
        let mut b = [0i16; 16];
        b[0] = 1;
        assert_eq!(roundtrip(&b), b);
        let mut state = 17u32;
        for _ in 0..60 {
            let mut b = [0i16; 16];
            for v in &mut b {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if state.is_multiple_of(3) {
                    *v = ((state >> 22) as i16 % 401) - 200;
                }
            }
            if b.iter().all(|&v| v == 0) {
                b[5] = -2;
            }
            assert_eq!(roundtrip(&b), b);
        }
    }

    #[test]
    fn long_run_uses_escape() {
        let mut b = [0i16; 16];
        b[ZIGZAG4[15]] = 3; // run 15 > MAX_RUN4
        assert_eq!(roundtrip(&b), b);
    }

    #[test]
    fn corrupt_run_overflow_is_error() {
        let table = event_table4();
        let mut w = BitWriter::new();
        for _ in 0..3 {
            table.encode(SYM_ESCAPE4, &mut w);
            w.put_bit(false);
            w.put_bits(15, 4);
            w.put_se(2);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = [0i16; 16];
        assert!(read_coeffs4(&mut r, &mut out).is_err());
    }
}
