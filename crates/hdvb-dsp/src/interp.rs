//! Sub-pel interpolation kernels.
//!
//! * `hpel_*` — bilinear half-pel used by the MPEG-2/MPEG-4-class codecs.
//! * `sixtap_*` — the H.264 6-tap `(1,-5,20,20,-5,1)/32` half-pel filter;
//!   quarter-pel positions are produced by the codecs by averaging these.
//!
//! Slice conventions (all sources must come from a sufficiently padded
//! buffer such as [`hdvb_frame::PaddedPlane`]):
//!
//! * `hpel_interp`: `src[0]` is the block's top-left integer sample.
//! * `sixtap_h`:  `src[0]` is **2 samples left** of the block origin.
//! * `sixtap_v`:  `src[0]` is **2 rows above** the block origin.
//! * `sixtap_hv`: `src[0]` is 2 samples left *and* 2 rows above.

#[allow(clippy::too_many_arguments)]
pub(crate) fn hpel_interp_scalar(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    fx: u8,
    fy: u8,
    w: usize,
    h: usize,
) {
    debug_assert!(fx <= 1 && fy <= 1);
    match (fx, fy) {
        (0, 0) => crate::pixel::copy_block(dst, dst_stride, src, src_stride, w, h),
        (1, 0) => {
            for y in 0..h {
                for x in 0..w {
                    let a = u16::from(src[y * src_stride + x]);
                    let b = u16::from(src[y * src_stride + x + 1]);
                    dst[y * dst_stride + x] = ((a + b + 1) >> 1) as u8;
                }
            }
        }
        (0, 1) => {
            for y in 0..h {
                for x in 0..w {
                    let a = u16::from(src[y * src_stride + x]);
                    let b = u16::from(src[(y + 1) * src_stride + x]);
                    dst[y * dst_stride + x] = ((a + b + 1) >> 1) as u8;
                }
            }
        }
        _ => {
            for y in 0..h {
                for x in 0..w {
                    let a = u16::from(src[y * src_stride + x]);
                    let b = u16::from(src[y * src_stride + x + 1]);
                    let c = u16::from(src[(y + 1) * src_stride + x]);
                    let d = u16::from(src[(y + 1) * src_stride + x + 1]);
                    dst[y * dst_stride + x] = ((a + b + c + d + 2) >> 2) as u8;
                }
            }
        }
    }
}

#[inline]
fn sixtap(m2: i32, m1: i32, z0: i32, p1: i32, p2: i32, p3: i32) -> i32 {
    z0 * 20 + p1 * 20 - m1 * 5 - p2 * 5 + m2 + p3
}

/// Horizontal 6-tap; `src[0]` is 2 samples left of the block origin.
pub(crate) fn sixtap_h_scalar(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    for y in 0..h {
        for x in 0..w {
            let i = y * src_stride + x;
            let v = sixtap(
                i32::from(src[i]),
                i32::from(src[i + 1]),
                i32::from(src[i + 2]),
                i32::from(src[i + 3]),
                i32::from(src[i + 4]),
                i32::from(src[i + 5]),
            );
            dst[y * dst_stride + x] = ((v + 16) >> 5).clamp(0, 255) as u8;
        }
    }
}

/// Vertical 6-tap; `src[0]` is 2 rows above the block origin.
pub(crate) fn sixtap_v_scalar(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    for y in 0..h {
        for x in 0..w {
            let i = y * src_stride + x;
            let v = sixtap(
                i32::from(src[i]),
                i32::from(src[i + src_stride]),
                i32::from(src[i + 2 * src_stride]),
                i32::from(src[i + 3 * src_stride]),
                i32::from(src[i + 4 * src_stride]),
                i32::from(src[i + 5 * src_stride]),
            );
            dst[y * dst_stride + x] = ((v + 16) >> 5).clamp(0, 255) as u8;
        }
    }
}

/// Tallest block [`sixtap_hv`] filters in one call: a macroblock plus the
/// one extra row of the sub-pel refinement window (`crate::qpel`).
pub(crate) const HV_MAX_ROWS: usize = 17;

/// Two-dimensional 6-tap position (the H.264 "j" sample): horizontal
/// filter at full intermediate precision, then vertical with `>> 10`
/// rounding. `src[0]` is 2 samples left and 2 rows above the block
/// origin.
pub(crate) fn sixtap_hv(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    assert!(
        w <= 16 && h <= HV_MAX_ROWS,
        "6-tap 2-D blocks are at most 16x17"
    );
    let tmp_w = w;
    let tmp_h = h + 5;
    let mut tmp = [0i32; 16 * (HV_MAX_ROWS + 5)];
    for ty in 0..tmp_h {
        for x in 0..w {
            let i = ty * src_stride + x;
            tmp[ty * tmp_w + x] = sixtap(
                i32::from(src[i]),
                i32::from(src[i + 1]),
                i32::from(src[i + 2]),
                i32::from(src[i + 3]),
                i32::from(src[i + 4]),
                i32::from(src[i + 5]),
            );
        }
    }
    for y in 0..h {
        for x in 0..w {
            let i = y * tmp_w + x;
            let v = sixtap(
                tmp[i],
                tmp[i + tmp_w],
                tmp[i + 2 * tmp_w],
                tmp[i + 3 * tmp_w],
                tmp[i + 4 * tmp_w],
                tmp[i + 5 * tmp_w],
            );
            dst[y * dst_stride + x] = ((v + 512) >> 10).clamp(0, 255) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 16x16 buffer of a known gradient.
    fn padded_source() -> (Vec<u8>, usize) {
        let stride = 16;
        let mut buf = vec![100u8; stride * 16];
        for y in 0..16 {
            for x in 0..16 {
                buf[y * stride + x] = (40 + x * 9 + y * 5) as u8;
            }
        }
        (buf, stride)
    }

    #[test]
    fn hpel_00_is_copy() {
        let (src, stride) = padded_source();
        let mut dst = vec![0u8; 64];
        hpel_interp_scalar(&mut dst, 8, &src[4 * stride + 4..], stride, 0, 0, 8, 8);
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(dst[y * 8 + x], src[(y + 4) * stride + 4 + x]);
            }
        }
    }

    #[test]
    fn hpel_h_averages_neighbours() {
        let (src, stride) = padded_source();
        let mut dst = vec![0u8; 64];
        hpel_interp_scalar(&mut dst, 8, &src[4 * stride + 4..], stride, 1, 0, 8, 8);
        let a = u16::from(src[4 * stride + 4]);
        let b = u16::from(src[4 * stride + 5]);
        assert_eq!(dst[0], ((a + b + 1) >> 1) as u8);
    }

    #[test]
    fn hpel_hv_averages_four() {
        let (src, stride) = padded_source();
        let mut dst = vec![0u8; 64];
        hpel_interp_scalar(&mut dst, 8, &src[4 * stride + 4..], stride, 1, 1, 8, 8);
        let s = u16::from(src[4 * stride + 4])
            + u16::from(src[4 * stride + 5])
            + u16::from(src[5 * stride + 4])
            + u16::from(src[5 * stride + 5]);
        assert_eq!(dst[0], ((s + 2) >> 2) as u8);
    }

    #[test]
    fn sixtap_on_flat_area_is_identity() {
        let stride = 24;
        let src = vec![77u8; stride * 24];
        let mut dst = vec![0u8; 64];
        sixtap_h_scalar(&mut dst, 8, &src[8 * stride + 6..], stride, 8, 8);
        assert!(dst.iter().all(|&v| v == 77));
        sixtap_v_scalar(&mut dst, 8, &src[6 * stride + 8..], stride, 8, 8);
        assert!(dst.iter().all(|&v| v == 77));
        sixtap_hv(&mut dst, 8, &src[6 * stride + 6..], stride, 8, 8);
        assert!(dst.iter().all(|&v| v == 77));
    }

    #[test]
    fn sixtap_h_on_linear_ramp_is_midpoint() {
        // On a linear signal the 6-tap half-pel equals the midpoint.
        let stride = 16;
        let mut src = vec![0u8; stride * 8];
        for y in 0..8 {
            for x in 0..16 {
                src[y * stride + x] = (x * 8) as u8;
            }
        }
        let mut dst = vec![0u8; 8];
        // Block origin at x=4: src offset = 4 - 2 = 2.
        sixtap_h_scalar(&mut dst, 8, &src[2..], stride, 1, 1);
        // Midpoint of src[4]=32 and src[5]=40 is 36.
        assert_eq!(dst[0], 36);
    }

    #[test]
    fn sixtap_hv_matches_exact_on_linear_field() {
        let stride = 32;
        let mut src = vec![0u8; stride * 32];
        for y in 0..32 {
            for x in 0..32 {
                src[y * stride + x] = (2 * x + 3 * y + 10) as u8;
            }
        }
        let mut d_hv = vec![0u8; 16];
        // Block origin at (8,8): src offset = (8-2) + (8-2)*stride.
        sixtap_hv(&mut d_hv, 4, &src[6 * stride + 6..], stride, 4, 4);
        for y in 0..4 {
            for x in 0..4 {
                let exact = 2.0 * (8.0 + x as f64 + 0.5) + 3.0 * (8.0 + y as f64 + 0.5) + 10.0;
                let got = f64::from(d_hv[y * 4 + x]);
                assert!((got - exact).abs() <= 1.0, "({x},{y}): {got} vs {exact}");
            }
        }
    }
}
