//! Scalar pixel-block primitives: SAD, SSD, copy, average, residual
//! computation and reconstruction.

use crate::Block8;

pub(crate) fn sad_scalar(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
) -> u32 {
    let mut sum = 0u32;
    for y in 0..h {
        let ra = &a[y * a_stride..y * a_stride + w];
        let rb = &b[y * b_stride..y * b_stride + w];
        for (&pa, &pb) in ra.iter().zip(rb) {
            sum += u32::from(pa.abs_diff(pb));
        }
    }
    sum
}

pub(crate) fn ssd_scalar(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
) -> u64 {
    let mut sum = 0u64;
    for y in 0..h {
        let ra = &a[y * a_stride..y * a_stride + w];
        let rb = &b[y * b_stride..y * b_stride + w];
        for (&pa, &pb) in ra.iter().zip(rb) {
            let d = i64::from(pa) - i64::from(pb);
            sum += (d * d) as u64;
        }
    }
    sum
}

pub(crate) fn copy_block(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    for y in 0..h {
        dst[y * dst_stride..y * dst_stride + w]
            .copy_from_slice(&src[y * src_stride..y * src_stride + w]);
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn avg_block_scalar(
    dst: &mut [u8],
    dst_stride: usize,
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
) {
    for y in 0..h {
        for x in 0..w {
            let va = u16::from(a[y * a_stride + x]);
            let vb = u16::from(b[y * b_stride + x]);
            dst[y * dst_stride + x] = ((va + vb + 1) >> 1) as u8;
        }
    }
}

/// The fused quarter-pel SAD by definition: [`sad_scalar`] of `cur`
/// against [`avg_block_scalar`]`(p, q)` materialised in a stack buffer
/// (blocks of at most 256 samples).
pub(crate) fn sad_avg_scalar(
    cur: &[u8],
    cur_stride: usize,
    p: &[u8],
    q: &[u8],
    stride: usize,
    w: usize,
    h: usize,
) -> u32 {
    let mut avg = [0u8; 256];
    avg_block_scalar(&mut avg, w, p, stride, q, stride, w, h);
    sad_scalar(cur, cur_stride, &avg, w, w, h)
}

pub(crate) fn add_residual8_scalar(
    dst: &mut [u8],
    dst_stride: usize,
    pred: &[u8],
    pred_stride: usize,
    res: &Block8,
) {
    for y in 0..8 {
        for x in 0..8 {
            let v = i32::from(pred[y * pred_stride + x]) + i32::from(res[y * 8 + x]);
            dst[y * dst_stride + x] = v.clamp(0, 255) as u8;
        }
    }
}

pub(crate) fn diff_block8(
    res: &mut Block8,
    cur: &[u8],
    cur_stride: usize,
    pred: &[u8],
    pred_stride: usize,
) {
    for y in 0..8 {
        for x in 0..8 {
            res[y * 8 + x] =
                i16::from(cur[y * cur_stride + x]) - i16::from(pred[y * pred_stride + x]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sad_with_strides() {
        // 2x2 blocks embedded in wider rows.
        let a = [1u8, 2, 99, 3, 4, 99];
        let b = [2u8, 2, 77, 1, 1, 77];
        assert_eq!(sad_scalar(&a, 3, &b, 3, 2, 2), 1 + 2 + 3);
    }

    #[test]
    fn avg_rounds_up() {
        let a = [0u8, 255, 10, 11];
        let b = [1u8, 255, 11, 11];
        let mut d = [0u8; 4];
        avg_block_scalar(&mut d, 2, &a, 2, &b, 2, 2, 2);
        assert_eq!(d, [1, 255, 11, 11]);
    }

    #[test]
    fn diff_then_add_reconstructs() {
        let cur: Vec<u8> = (0..64).map(|i| (i * 3 + 7) as u8).collect();
        let pred: Vec<u8> = (0..64).map(|i| (200 - i) as u8).collect();
        let mut res = [0i16; 64];
        diff_block8(&mut res, &cur, 8, &pred, 8);
        let mut out = vec![0u8; 64];
        add_residual8_scalar(&mut out, 8, &pred, 8, &res);
        assert_eq!(out, cur);
    }

    #[test]
    fn add_residual_saturates() {
        let pred = [250u8; 64];
        let mut res = [0i16; 64];
        res[0] = 100; // would exceed 255
        res[1] = -300; // would underflow
        let mut out = [0u8; 64];
        add_residual8_scalar(&mut out, 8, &pred, 8, &res);
        assert_eq!(out[0], 255);
        assert_eq!(out[1], 0);
        assert_eq!(out[2], 250);
    }
}
