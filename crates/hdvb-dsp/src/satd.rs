//! Sum of absolute transformed differences via 4×4 Hadamard transforms —
//! the cost function the H.264 encoder uses for sub-pel refinement and
//! mode decision (x264's `--subme 7` relies on it heavily).

/// 4×4 Hadamard SATD of the difference between two blocks.
pub(crate) fn satd4x4_scalar(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize) -> u32 {
    let mut d = [0i32; 16];
    for y in 0..4 {
        for x in 0..4 {
            d[y * 4 + x] = i32::from(a[y * a_stride + x]) - i32::from(b[y * b_stride + x]);
        }
    }
    // Horizontal butterflies.
    for y in 0..4 {
        let r = &mut d[y * 4..y * 4 + 4];
        let s0 = r[0] + r[2];
        let s1 = r[0] - r[2];
        let s2 = r[1] + r[3];
        let s3 = r[1] - r[3];
        r[0] = s0 + s2;
        r[1] = s0 - s2;
        r[2] = s1 + s3;
        r[3] = s1 - s3;
    }
    // Vertical butterflies and accumulation.
    let mut sum = 0u32;
    for x in 0..4 {
        let a0 = d[x];
        let a1 = d[4 + x];
        let a2 = d[8 + x];
        let a3 = d[12 + x];
        let s0 = a0 + a2;
        let s1 = a0 - a2;
        let s2 = a1 + a3;
        let s3 = a1 - a3;
        sum += (s0 + s2).unsigned_abs()
            + (s0 - s2).unsigned_abs()
            + (s1 + s3).unsigned_abs()
            + (s1 - s3).unsigned_abs();
    }
    // Normalise by 2 as x264 does so SATD is comparable to SAD magnitude.
    sum / 2
}

/// SATD over a `w`×`h` region tiled with 4×4 Hadamard transforms.
pub(crate) fn satd_scalar(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
) -> u32 {
    let mut sum = 0;
    let mut y = 0;
    while y < h {
        let mut x = 0;
        while x < w {
            sum += satd4x4_scalar(
                &a[y * a_stride + x..],
                a_stride,
                &b[y * b_stride + x..],
                b_stride,
            );
            x += 4;
        }
        y += 4;
    }
    sum
}

/// The fused quarter-pel SATD by definition: [`satd_scalar`] of `cur`
/// against `avg_block_scalar(p, q)` materialised in a stack buffer
/// (blocks of at most 256 samples).
pub(crate) fn satd_avg_scalar(
    cur: &[u8],
    cur_stride: usize,
    p: &[u8],
    q: &[u8],
    stride: usize,
    w: usize,
    h: usize,
) -> u32 {
    let mut avg = [0u8; 256];
    crate::pixel::avg_block_scalar(&mut avg, w, p, stride, q, stride, w, h);
    satd_scalar(cur, cur_stride, &avg, w, w, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::sad_scalar;

    #[test]
    fn satd_of_identical_blocks_is_zero() {
        let a = [100u8; 64];
        assert_eq!(satd_scalar(&a, 8, &a, 8, 8, 8), 0);
    }

    #[test]
    fn satd_of_dc_offset_equals_sad() {
        // A pure DC difference has all energy in the DC Hadamard
        // coefficient: SATD = |16*d| * ... /2 per 4x4 = 8*d vs SAD = 16*d.
        let a = [100u8; 16];
        let b = [110u8; 16];
        let satd = satd4x4_scalar(&a, 4, &b, 4);
        let sad = sad_scalar(&a, 4, &b, 4, 4, 4);
        assert_eq!(sad, 160);
        assert_eq!(satd, 80); // 16*10/2
    }

    #[test]
    fn satd_penalises_structured_noise_less_than_sad_ratio_suggests() {
        // High-frequency checkerboard: SATD concentrates energy in one
        // coefficient, cheaper relative to SAD than random noise.
        let mut a = [128u8; 16];
        let mut b = [128u8; 16];
        for i in 0..16 {
            if (i / 4 + i % 4) % 2 == 0 {
                a[i] = 138;
                b[i] = 118;
            }
        }
        let satd = satd4x4_scalar(&a, 4, &b, 4);
        assert!(satd > 0);
    }

    #[test]
    fn satd_tiles_regions() {
        let mut a = [50u8; 8 * 8];
        let b = [50u8; 8 * 8];
        a[0] = 60; // only the first 4x4 tile differs
        let whole = satd_scalar(&a, 8, &b, 8, 8, 8);
        let tile = satd4x4_scalar(&a, 8, &b, 8);
        assert_eq!(whole, tile);
    }
}
