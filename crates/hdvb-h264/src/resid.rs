//! Residual transform, serialisation and reconstruction shared by the
//! encoder and decoder (one implementation, zero drift).

use crate::blocks4::{read_coeffs4, write_coeffs4};
use crate::mc::{add4, copy4, diff4};
use crate::quant4::{dequant4, quant4};
use hdvb_bits::picture::CodecError;
use hdvb_bits::{BitReader, BitWriter};
use hdvb_dsp::{Block4, Dsp};
use hdvb_frame::Plane;

/// Transforms and quantises the 16 luma 4×4 residuals of one macroblock
/// against `pred`; returns the quantised blocks and a 16-bit coded-flag
/// mask (bit `15 - k` for raster block `k`).
pub(crate) fn transform_luma_mb(
    dsp: &Dsp,
    qp: u8,
    intra: bool,
    cur: &Plane,
    mbx: usize,
    mby: usize,
    pred: &[u8; 256],
) -> ([Block4; 16], u16) {
    let mut blocks = [[0i16; 16]; 16];
    let mut flags = 0u16;
    let stride = cur.stride();
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::TransformQuant);
    #[allow(clippy::needless_range_loop)]
    for k in 0..16 {
        let (ox, oy) = ((k % 4) * 4, (k / 4) * 4);
        let cur_off = (mby * 16 + oy) * stride + mbx * 16 + ox;
        let mut b = [0i16; 16];
        diff4(
            &mut b,
            &cur.data()[cur_off..],
            stride,
            &pred[oy * 16 + ox..],
            16,
        );
        dsp.fcore4(&mut b);
        if quant4(&mut b, qp, intra) > 0 {
            flags |= 1 << (15 - k);
        }
        blocks[k] = b;
    }
    (blocks, flags)
}

/// Same for one 8×8 chroma plane (4 blocks, flag bit `3 - k`).
pub(crate) fn transform_chroma_plane(
    dsp: &Dsp,
    qp: u8,
    intra: bool,
    cur: &Plane,
    mbx: usize,
    mby: usize,
    pred: &[u8; 64],
) -> ([Block4; 4], u8) {
    let mut blocks = [[0i16; 16]; 4];
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::TransformQuant);
    let mut flags = 0u8;
    let stride = cur.stride();
    #[allow(clippy::needless_range_loop)]
    for k in 0..4 {
        let (ox, oy) = ((k % 2) * 4, (k / 2) * 4);
        let cur_off = (mby * 8 + oy) * stride + mbx * 8 + ox;
        let mut b = [0i16; 16];
        diff4(
            &mut b,
            &cur.data()[cur_off..],
            stride,
            &pred[oy * 8 + ox..],
            8,
        );
        dsp.fcore4(&mut b);
        if quant4(&mut b, qp, intra) > 0 {
            flags |= 1 << (3 - k);
        }
        blocks[k] = b;
    }
    (blocks, flags)
}

/// Serialises the luma residual: 4-bit quadrant pattern, then 4 flag
/// bits per coded quadrant, then coefficients.
pub(crate) fn write_luma_residual(w: &mut BitWriter, blocks: &[Block4; 16], flags: u16) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
    let mut quad = 0u32;
    for q in 0..4 {
        if quadrant_flags(flags, q) != 0 {
            quad |= 1 << (3 - q);
        }
    }
    w.put_bits(quad, 4);
    for q in 0..4 {
        let qf = quadrant_flags(flags, q);
        if qf != 0 {
            w.put_bits(u32::from(qf), 4);
            for j in 0..4 {
                if qf & (1 << (3 - j)) != 0 {
                    write_coeffs4(w, &blocks[quadrant_block(q, j)]);
                }
            }
        }
    }
}

/// Parses the luma residual written by [`write_luma_residual`].
pub(crate) fn read_luma_residual(r: &mut BitReader<'_>) -> Result<([Block4; 16], u16), CodecError> {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
    let mut blocks = [[0i16; 16]; 16];
    let mut flags = 0u16;
    let quad = r.get_bits(4)?;
    for q in 0..4 {
        if quad & (1 << (3 - q)) != 0 {
            let qf = r.get_bits(4)? as u8;
            for j in 0..4 {
                if qf & (1 << (3 - j)) != 0 {
                    let k = quadrant_block(q, j);
                    read_coeffs4(r, &mut blocks[k])?;
                    flags |= 1 << (15 - k);
                }
            }
        }
    }
    Ok((blocks, flags))
}

/// Serialises one chroma plane's residual: presence bit, then flags and
/// coefficients.
pub(crate) fn write_chroma_residual(w: &mut BitWriter, blocks: &[Block4; 4], flags: u8) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
    w.put_bit(flags != 0);
    if flags != 0 {
        w.put_bits(u32::from(flags), 4);
        #[allow(clippy::needless_range_loop)]
        for k in 0..4 {
            if flags & (1 << (3 - k)) != 0 {
                write_coeffs4(w, &blocks[k]);
            }
        }
    }
}

/// Parses one chroma plane's residual.
pub(crate) fn read_chroma_residual(r: &mut BitReader<'_>) -> Result<([Block4; 4], u8), CodecError> {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
    let mut blocks = [[0i16; 16]; 4];
    let mut flags = 0u8;
    if r.get_bit()? {
        flags = r.get_bits(4)? as u8;
        #[allow(clippy::needless_range_loop)]
        for k in 0..4 {
            if flags & (1 << (3 - k)) != 0 {
                read_coeffs4(r, &mut blocks[k])?;
            }
        }
    }
    Ok((blocks, flags))
}

/// Reconstructs the luma macroblock: `recon = pred (+ residual)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recon_luma_mb(
    dsp: &Dsp,
    qp: u8,
    recon: &mut Plane,
    mbx: usize,
    mby: usize,
    pred: &[u8; 256],
    blocks: &[Block4; 16],
    flags: u16,
) {
    let stride = recon.stride();
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
    #[allow(clippy::needless_range_loop)]
    for k in 0..16 {
        let (ox, oy) = ((k % 4) * 4, (k / 4) * 4);
        let off = (mby * 16 + oy) * stride + mbx * 16 + ox;
        if flags & (1 << (15 - k)) != 0 {
            let mut b = blocks[k];
            dequant4(&mut b, qp);
            dsp.icore4(&mut b);
            add4(
                &mut recon.data_mut()[off..],
                stride,
                &pred[oy * 16 + ox..],
                16,
                &b,
            );
        } else {
            copy4(
                &mut recon.data_mut()[off..],
                stride,
                &pred[oy * 16 + ox..],
                16,
            );
        }
    }
}

/// Reconstructs one chroma plane of the macroblock.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recon_chroma_plane(
    dsp: &Dsp,
    qp: u8,
    recon: &mut Plane,
    mbx: usize,
    mby: usize,
    pred: &[u8; 64],
    blocks: &[Block4; 4],
    flags: u8,
) {
    let stride = recon.stride();
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
    #[allow(clippy::needless_range_loop)]
    for k in 0..4 {
        let (ox, oy) = ((k % 2) * 4, (k / 2) * 4);
        let off = (mby * 8 + oy) * stride + mbx * 8 + ox;
        if flags & (1 << (3 - k)) != 0 {
            let mut b = blocks[k];
            dequant4(&mut b, qp);
            dsp.icore4(&mut b);
            add4(
                &mut recon.data_mut()[off..],
                stride,
                &pred[oy * 8 + ox..],
                8,
                &b,
            );
        } else {
            copy4(
                &mut recon.data_mut()[off..],
                stride,
                &pred[oy * 8 + ox..],
                8,
            );
        }
    }
}

/// Raster index of 4×4 block `j` inside quadrant `q`.
fn quadrant_block(q: usize, j: usize) -> usize {
    let (qx, qy) = (q % 2, q / 2);
    let (jx, jy) = (j % 2, j / 2);
    (qy * 2 + jy) * 4 + qx * 2 + jx
}

/// The four flag bits belonging to quadrant `q` of a 16-bit luma mask.
fn quadrant_flags(flags: u16, q: usize) -> u8 {
    let mut out = 0u8;
    for j in 0..4 {
        if flags & (1 << (15 - quadrant_block(q, j))) != 0 {
            out |= 1 << (3 - j);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdvb_dsp::Dsp;

    #[test]
    fn quadrant_mapping_is_a_bijection() {
        let mut seen = [false; 16];
        for q in 0..4 {
            for j in 0..4 {
                let k = quadrant_block(q, j);
                assert!(!seen[k]);
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn luma_residual_roundtrip() {
        let dsp = Dsp::default();
        let mut cur = Plane::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                cur.set(x, y, ((x * 7 + y * 13) % 256) as u8);
            }
        }
        let pred = [100u8; 256];
        let (blocks, flags) = transform_luma_mb(&dsp, 20, false, &cur, 0, 0, &pred);
        assert!(flags != 0);
        let mut w = BitWriter::new();
        write_luma_residual(&mut w, &blocks, flags);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let (rblocks, rflags) = read_luma_residual(&mut r).unwrap();
        assert_eq!(rflags, flags);
        assert_eq!(rblocks, blocks);
    }

    #[test]
    fn chroma_residual_roundtrip_including_empty() {
        let dsp = Dsp::default();
        let mut cur = Plane::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                cur.set(x, y, ((x * 11 + y * 3) % 256) as u8);
            }
        }
        let pred = [128u8; 64];
        let (blocks, flags) = transform_chroma_plane(&dsp, 24, true, &cur, 0, 0, &pred);
        let mut w = BitWriter::new();
        write_chroma_residual(&mut w, &blocks, flags);
        // Also an empty one.
        write_chroma_residual(&mut w, &[[0i16; 16]; 4], 0);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let (b1, f1) = read_chroma_residual(&mut r).unwrap();
        assert_eq!(f1, flags);
        assert_eq!(b1, blocks);
        let (_, f2) = read_chroma_residual(&mut r).unwrap();
        assert_eq!(f2, 0);
    }

    #[test]
    fn recon_after_transform_is_close_to_source() {
        let dsp = Dsp::default();
        let mut cur = Plane::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                cur.set(x, y, (40 + x * 9 + y * 4) as u8);
            }
        }
        let pred = [90u8; 256];
        let qp = 12;
        let (blocks, flags) = transform_luma_mb(&dsp, qp, true, &cur, 0, 0, &pred);
        let mut recon = Plane::new(16, 16);
        recon_luma_mb(&dsp, qp, &mut recon, 0, 0, &pred, &blocks, flags);
        for y in 0..16 {
            for x in 0..16 {
                let err = (i32::from(cur.get(x, y)) - i32::from(recon.get(x, y))).abs();
                assert!(
                    err <= 6,
                    "({x},{y}): {} vs {}",
                    cur.get(x, y),
                    recon.get(x, y)
                );
            }
        }
    }
}
