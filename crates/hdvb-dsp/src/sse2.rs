//! SSE2 implementations of the hot kernels.
//!
//! Every function here is bit-exact with its scalar counterpart in the
//! sibling modules (asserted by property tests in `tests/`), so a stream
//! encoded at one [`SimdLevel`](crate::SimdLevel) decodes identically at
//! the other — the property that lets the Figure-1 harness reuse one set
//! of bitstreams for both decoder variants.
//!
//! SSE2 is part of the x86-64 baseline, so the `unsafe` blocks here have
//! no runtime feature precondition on this architecture.

#![allow(unsafe_code)]

use crate::interp::HV_MAX_ROWS;
use crate::quant::QuantMatrix;
use crate::Block8;
use std::arch::x86_64::*;

// ---------------------------------------------------------------- SAD --

/// # Safety
/// Requires SSE2 (always present on x86-64) and slices large enough for
/// the block geometry, as checked by the scalar fallback's indexing.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn sad_sse2(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
) -> u32 {
    debug_assert!(w.is_multiple_of(8));
    debug_assert!(h == 0 || a.len() >= (h - 1) * a_stride + w);
    debug_assert!(h == 0 || b.len() >= (h - 1) * b_stride + w);
    let mut acc = _mm_setzero_si128();
    for y in 0..h {
        let ra = &a[y * a_stride..];
        let rb = &b[y * b_stride..];
        let mut x = 0;
        while x + 16 <= w {
            let va = _mm_loadu_si128(ra.as_ptr().add(x) as *const __m128i);
            let vb = _mm_loadu_si128(rb.as_ptr().add(x) as *const __m128i);
            acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
            x += 16;
        }
        while x + 8 <= w {
            let va = _mm_loadl_epi64(ra.as_ptr().add(x) as *const __m128i);
            let vb = _mm_loadl_epi64(rb.as_ptr().add(x) as *const __m128i);
            acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
            x += 8;
        }
        debug_assert_eq!(x, w);
    }
    let hi = _mm_shuffle_epi32(acc, 0b0100_1110);
    let sum = _mm_add_epi64(acc, hi);
    _mm_cvtsi128_si32(sum) as u32
}

// --------------------------------------------------------------- SATD --

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn abs_epi16(v: __m128i) -> __m128i {
    _mm_max_epi16(v, _mm_sub_epi16(_mm_setzero_si128(), v))
}

/// Horizontal Hadamard stage within each 64-bit half (two rows packed per
/// register). `SWAP1` = distance-1 butterfly, otherwise distance-2.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn hstage(v: __m128i, dist1: bool) -> __m128i {
    let (shuffled, mask) = if dist1 {
        // lanes [1,0,3,2] within each half; keep sums in even lanes.
        let s = _mm_shufflehi_epi16::<0b10_11_00_01>(_mm_shufflelo_epi16::<0b10_11_00_01>(v));
        let m = _mm_set_epi16(-1, 0, -1, 0, -1, 0, -1, 0); // odd lanes select diff
        (s, m)
    } else {
        // lanes [2,3,0,1] within each half; sums in lanes 0-1, diffs 2-3.
        let s = _mm_shufflehi_epi16::<0b01_00_11_10>(_mm_shufflelo_epi16::<0b01_00_11_10>(v));
        let m = _mm_set_epi16(-1, -1, 0, 0, -1, -1, 0, 0);
        (s, m)
    };
    let sum = _mm_add_epi16(v, shuffled);
    let diff = _mm_sub_epi16(v, shuffled);
    _mm_or_si128(_mm_andnot_si128(mask, sum), _mm_and_si128(mask, diff))
}

/// Loads two rows of 4 u8 as 8 i16 lanes `[row y | row y+1]`.
///
/// # Safety
/// Requires SSE2 and 4 readable bytes at both row offsets.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn load_row_pair(p: &[u8], stride: usize, y: usize) -> __m128i {
    let r0 = u32::from_le_bytes(p[y * stride..y * stride + 4].try_into().unwrap());
    let r1 = u32::from_le_bytes(
        p[(y + 1) * stride..(y + 1) * stride + 4]
            .try_into()
            .unwrap(),
    );
    let packed = _mm_set_epi32(0, 0, r1 as i32, r0 as i32);
    _mm_unpacklo_epi8(packed, _mm_setzero_si128())
}

/// 4×4 Hadamard SATD of one tile.
///
/// # Safety
/// Requires SSE2 and at least 4 rows of 4 readable bytes at each pointer
/// offset.
#[target_feature(enable = "sse2")]
unsafe fn satd4x4_tile(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize) -> u32 {
    let a01 = load_row_pair(a, a_stride, 0);
    let a23 = load_row_pair(a, a_stride, 2);
    let b01 = load_row_pair(b, b_stride, 0);
    let b23 = load_row_pair(b, b_stride, 2);
    let d01 = _mm_sub_epi16(a01, b01);
    let d23 = _mm_sub_epi16(a23, b23);

    // Vertical butterflies across rows (see satd_scalar for the order).
    let t0 = _mm_add_epi16(d01, d23); // [r0+r2 | r1+r3]
    let t1 = _mm_sub_epi16(d01, d23); // [r0-r2 | r1-r3]
    let u0 = _mm_unpacklo_epi64(t0, t1); // [r0+r2 | r0-r2]
    let u1 = _mm_unpackhi_epi64(t0, t1); // [r1+r3 | r1-r3]
    let m0 = _mm_add_epi16(u0, u1);
    let m1 = _mm_sub_epi16(u0, u1);

    // Horizontal transform within each packed row.
    let h0 = hstage(hstage(m0, false), true);
    let h1 = hstage(hstage(m1, false), true);

    let ones = _mm_set1_epi16(1);
    let sum = _mm_add_epi32(
        _mm_madd_epi16(abs_epi16(h0), ones),
        _mm_madd_epi16(abs_epi16(h1), ones),
    );
    let s1 = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0b0100_1110));
    let s2 = _mm_add_epi32(s1, _mm_shuffle_epi32(s1, 0b1011_0001));
    (_mm_cvtsi128_si32(s2) as u32) / 2
}

/// # Safety
/// Requires SSE2 and block geometry within the slices; `w`, `h` multiples
/// of 4.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn satd_sse2(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
) -> u32 {
    debug_assert!(w.is_multiple_of(4) && h.is_multiple_of(4));
    debug_assert!(h == 0 || a.len() >= (h - 1) * a_stride + w);
    debug_assert!(h == 0 || b.len() >= (h - 1) * b_stride + w);
    let mut sum = 0;
    let mut y = 0;
    while y < h {
        let mut x = 0;
        while x < w {
            sum += satd4x4_tile(
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

// ------------------------------------------------------------ DCT 8x8 --

const SHIFT: i32 = 11;
const ROUND: i32 = 1 << (SHIFT - 1);

/// Packed coefficient pairs for the forward matrix: entry `[u][x/2]` holds
/// `(COS[u][x], COS[u][x+1])` as two i16 in an i32 for `pmaddwd`.
const FWD_PAIRS: [[i32; 4]; 8] = build_pairs(false);
/// Same for the inverse (transposed) matrix.
const INV_PAIRS: [[i32; 4]; 8] = build_pairs(true);

const fn build_pairs(transpose: bool) -> [[i32; 4]; 8] {
    let cos = crate::dct8::COS;
    let mut out = [[0i32; 4]; 8];
    let mut r = 0;
    while r < 8 {
        let mut p = 0;
        while p < 4 {
            let (c0, c1) = if transpose {
                (cos[2 * p][r], cos[2 * p + 1][r])
            } else {
                (cos[r][2 * p], cos[r][2 * p + 1])
            };
            out[r][p] = ((c1 as u16 as i32) << 16) | (c0 as u16 as i32);
            p += 1;
        }
        r += 1;
    }
    out
}

/// Transposes 8 registers of 8 i16 lanes in place.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn transpose8(r: &mut [__m128i; 8]) {
    let a0 = _mm_unpacklo_epi16(r[0], r[1]);
    let a1 = _mm_unpackhi_epi16(r[0], r[1]);
    let a2 = _mm_unpacklo_epi16(r[2], r[3]);
    let a3 = _mm_unpackhi_epi16(r[2], r[3]);
    let a4 = _mm_unpacklo_epi16(r[4], r[5]);
    let a5 = _mm_unpackhi_epi16(r[4], r[5]);
    let a6 = _mm_unpacklo_epi16(r[6], r[7]);
    let a7 = _mm_unpackhi_epi16(r[6], r[7]);
    let b0 = _mm_unpacklo_epi32(a0, a2);
    let b1 = _mm_unpackhi_epi32(a0, a2);
    let b2 = _mm_unpacklo_epi32(a1, a3);
    let b3 = _mm_unpackhi_epi32(a1, a3);
    let b4 = _mm_unpacklo_epi32(a4, a6);
    let b5 = _mm_unpackhi_epi32(a4, a6);
    let b6 = _mm_unpacklo_epi32(a5, a7);
    let b7 = _mm_unpackhi_epi32(a5, a7);
    r[0] = _mm_unpacklo_epi64(b0, b4);
    r[1] = _mm_unpackhi_epi64(b0, b4);
    r[2] = _mm_unpacklo_epi64(b1, b5);
    r[3] = _mm_unpackhi_epi64(b1, b5);
    r[4] = _mm_unpacklo_epi64(b2, b6);
    r[5] = _mm_unpackhi_epi64(b2, b6);
    r[6] = _mm_unpacklo_epi64(b3, b7);
    r[7] = _mm_unpackhi_epi64(b3, b7);
}

/// One 1-D pass: transpose then `out_r = round(Σ_k pairs[r][k] · in_k)`,
/// reproducing the scalar pass (including its transposed store) exactly.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn dct_pass(r: &mut [__m128i; 8], pairs: &[[i32; 4]; 8]) {
    transpose8(r);
    // Interleave register pairs once: lanes become (in_k, in_{k+1}) pairs.
    let mut lo = [_mm_setzero_si128(); 4];
    let mut hi = [_mm_setzero_si128(); 4];
    for k in 0..4 {
        lo[k] = _mm_unpacklo_epi16(r[2 * k], r[2 * k + 1]);
        hi[k] = _mm_unpackhi_epi16(r[2 * k], r[2 * k + 1]);
    }
    let round = _mm_set1_epi32(ROUND);
    let mut out = [_mm_setzero_si128(); 8];
    for (u, row_pairs) in pairs.iter().enumerate() {
        let mut acc_lo = round;
        let mut acc_hi = round;
        for k in 0..4 {
            let c = _mm_set1_epi32(row_pairs[k]);
            acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(lo[k], c));
            acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(hi[k], c));
        }
        out[u] = _mm_packs_epi32(
            _mm_srai_epi32::<SHIFT>(acc_lo),
            _mm_srai_epi32::<SHIFT>(acc_hi),
        );
    }
    *r = out;
}

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn load_block(block: &Block8) -> [__m128i; 8] {
    let mut r = [_mm_setzero_si128(); 8];
    for (y, reg) in r.iter_mut().enumerate() {
        *reg = _mm_loadu_si128(block.as_ptr().add(y * 8) as *const __m128i);
    }
    r
}

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn store_block(block: &mut Block8, r: &[__m128i; 8]) {
    for (y, reg) in r.iter().enumerate() {
        _mm_storeu_si128(block.as_mut_ptr().add(y * 8) as *mut __m128i, *reg);
    }
}

/// # Safety
/// Requires SSE2.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn fdct8_sse2(block: &mut Block8) {
    let mut r = load_block(block);
    dct_pass(&mut r, &FWD_PAIRS);
    dct_pass(&mut r, &FWD_PAIRS);
    store_block(block, &r);
}

/// # Safety
/// Requires SSE2.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn idct8_sse2(block: &mut Block8) {
    let mut r = load_block(block);
    dct_pass(&mut r, &INV_PAIRS);
    dct_pass(&mut r, &INV_PAIRS);
    store_block(block, &r);
}

// -------------------------------------------------------- quantisation --

/// # Safety
/// Requires SSE2.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn dequant8_sse2(
    block: &mut Block8,
    matrix: &QuantMatrix,
    qscale: u16,
    intra: bool,
) {
    let zero = _mm_setzero_si128();
    let lo_clamp = _mm_set1_epi32(-4096);
    let hi_clamp = _mm_set1_epi32(4095);
    let saved_dc = block[0];
    let qv = _mm_set1_epi16(qscale as i16);
    for chunk in 0..8 {
        let v = _mm_loadu_si128(block.as_ptr().add(chunk * 8) as *const __m128i);
        // mq[i] = matrix[i] * qscale; both operands and the product fit
        // i16 for the benchmark's ranges (matrix <= 255, qscale <= 62).
        let mrow = _mm_loadu_si128(matrix.as_ptr().add(chunk * 8) as *const __m128i);
        let mq = _mm_mullo_epi16(mrow, qv);

        let neg_mask = _mm_cmpgt_epi16(zero, v);
        let abs = _mm_max_epi16(v, _mm_sub_epi16(zero, v));
        // For non-intra reconstruction: (2|l| + 1) where l != 0.
        let nz_mask = _mm_cmpeq_epi16(v, zero); // 1s where zero
        let operand = if intra {
            abs
        } else {
            let two_plus = _mm_add_epi16(_mm_add_epi16(abs, abs), _mm_set1_epi16(1));
            _mm_andnot_si128(nz_mask, two_plus)
        };
        // 32-bit products via interleaved madd: (operand_i * mq_i).
        let op_lo = _mm_unpacklo_epi16(operand, zero);
        let op_hi = _mm_unpackhi_epi16(operand, zero);
        let mq_lo = _mm_unpacklo_epi16(mq, zero);
        let mq_hi = _mm_unpackhi_epi16(mq, zero);
        let prod_lo = _mm_madd_epi16(op_lo, mq_lo);
        let prod_hi = _mm_madd_epi16(op_hi, mq_hi);
        let shift = _mm_cvtsi32_si128(if intra { 4 } else { 5 });
        let res_lo = clamp_epi32(_mm_srl_epi32(prod_lo, shift), lo_clamp, hi_clamp);
        let res_hi = clamp_epi32(_mm_srl_epi32(prod_hi, shift), lo_clamp, hi_clamp);
        let packed = _mm_packs_epi32(res_lo, res_hi);
        // Reapply sign.
        let signed = _mm_sub_epi16(_mm_xor_si128(packed, neg_mask), neg_mask);
        _mm_storeu_si128(block.as_mut_ptr().add(chunk * 8) as *mut __m128i, signed);
    }
    if intra {
        block[0] = saved_dc;
    }
}

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn clamp_epi32(v: __m128i, lo: __m128i, hi: __m128i) -> __m128i {
    // SSE2 has no pmin/pmax_epi32; emulate with compare + blend.
    let gt_hi = _mm_cmpgt_epi32(v, hi);
    let v = _mm_or_si128(_mm_andnot_si128(gt_hi, v), _mm_and_si128(gt_hi, hi));
    let lt_lo = _mm_cmpgt_epi32(lo, v);
    _mm_or_si128(_mm_andnot_si128(lt_lo, v), _mm_and_si128(lt_lo, lo))
}

// ------------------------------------------------------- interpolation --

/// # Safety
/// Requires SSE2; `w % 8 == 0`.
#[target_feature(enable = "sse2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn avg_block_sse2(
    dst: &mut [u8],
    dst_stride: usize,
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
) {
    debug_assert!(w.is_multiple_of(8));
    debug_assert!(h == 0 || dst.len() >= (h - 1) * dst_stride + w);
    debug_assert!(h == 0 || a.len() >= (h - 1) * a_stride + w);
    debug_assert!(h == 0 || b.len() >= (h - 1) * b_stride + w);
    for y in 0..h {
        let mut x = 0;
        while x + 16 <= w {
            let va = _mm_loadu_si128(a.as_ptr().add(y * a_stride + x) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(y * b_stride + x) as *const __m128i);
            _mm_storeu_si128(
                dst.as_mut_ptr().add(y * dst_stride + x) as *mut __m128i,
                _mm_avg_epu8(va, vb),
            );
            x += 16;
        }
        while x + 8 <= w {
            let va = _mm_loadl_epi64(a.as_ptr().add(y * a_stride + x) as *const __m128i);
            let vb = _mm_loadl_epi64(b.as_ptr().add(y * b_stride + x) as *const __m128i);
            _mm_storel_epi64(
                dst.as_mut_ptr().add(y * dst_stride + x) as *mut __m128i,
                _mm_avg_epu8(va, vb),
            );
            x += 8;
        }
    }
}

/// # Safety
/// Requires SSE2; `w % 8 == 0`; source readable one row/column beyond the
/// block for the interpolated positions.
#[target_feature(enable = "sse2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn hpel_interp_sse2(
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
    debug_assert!(w.is_multiple_of(8));
    debug_assert!(h == 0 || dst.len() >= (h - 1) * dst_stride + w);
    debug_assert!(
        h == 0 || src.len() >= (h - 1 + usize::from(fy)) * src_stride + w + usize::from(fx)
    );
    match (fx, fy) {
        (0, 0) => crate::pixel::copy_block(dst, dst_stride, src, src_stride, w, h),
        (1, 0) => avg_block_sse2(
            dst,
            dst_stride,
            src,
            src_stride,
            &src[1..],
            src_stride,
            w,
            h,
        ),
        (0, 1) => avg_block_sse2(
            dst,
            dst_stride,
            src,
            src_stride,
            &src[src_stride..],
            src_stride,
            w,
            h,
        ),
        _ => {
            // Exact (a+b+c+d+2)>>2 via 16-bit widening.
            let zero = _mm_setzero_si128();
            let two = _mm_set1_epi16(2);
            for y in 0..h {
                let mut x = 0;
                while x + 8 <= w {
                    let i = y * src_stride + x;
                    let a = _mm_unpacklo_epi8(
                        _mm_loadl_epi64(src.as_ptr().add(i) as *const __m128i),
                        zero,
                    );
                    let b = _mm_unpacklo_epi8(
                        _mm_loadl_epi64(src.as_ptr().add(i + 1) as *const __m128i),
                        zero,
                    );
                    let c = _mm_unpacklo_epi8(
                        _mm_loadl_epi64(src.as_ptr().add(i + src_stride) as *const __m128i),
                        zero,
                    );
                    let d = _mm_unpacklo_epi8(
                        _mm_loadl_epi64(src.as_ptr().add(i + src_stride + 1) as *const __m128i),
                        zero,
                    );
                    let sum = _mm_add_epi16(_mm_add_epi16(a, b), _mm_add_epi16(c, d));
                    let avg = _mm_srli_epi16(_mm_add_epi16(sum, two), 2);
                    _mm_storel_epi64(
                        dst.as_mut_ptr().add(y * dst_stride + x) as *mut __m128i,
                        _mm_packus_epi16(avg, avg),
                    );
                    x += 8;
                }
            }
        }
    }
}

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn sixtap_epi16(
    m2: __m128i,
    m1: __m128i,
    z0: __m128i,
    p1: __m128i,
    p2: __m128i,
    p3: __m128i,
) -> __m128i {
    let twenty = _mm_set1_epi16(20);
    let five = _mm_set1_epi16(5);
    let center = _mm_mullo_epi16(_mm_add_epi16(z0, p1), twenty);
    let near = _mm_mullo_epi16(_mm_add_epi16(m1, p2), five);
    let far = _mm_add_epi16(m2, p3);
    _mm_add_epi16(_mm_sub_epi16(center, near), far)
}

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn load8_epi16(p: *const u8) -> __m128i {
    _mm_unpacklo_epi8(_mm_loadl_epi64(p as *const __m128i), _mm_setzero_si128())
}

/// Horizontal 6-tap; `src[0]` is 2 samples left of the block origin (same
/// convention as the scalar kernel).
///
/// # Safety
/// Requires SSE2; `w % 8 == 0`; each row must have `w + 5` readable
/// samples.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn sixtap_h_sse2(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    debug_assert!(w.is_multiple_of(8));
    debug_assert!(h == 0 || dst.len() >= (h - 1) * dst_stride + w);
    debug_assert!(h == 0 || src.len() >= (h - 1) * src_stride + w + 5);
    let sixteen = _mm_set1_epi16(16);
    for y in 0..h {
        let mut x = 0;
        while x + 8 <= w {
            let base = src.as_ptr().add(y * src_stride + x);
            let v = sixtap_epi16(
                load8_epi16(base),
                load8_epi16(base.add(1)),
                load8_epi16(base.add(2)),
                load8_epi16(base.add(3)),
                load8_epi16(base.add(4)),
                load8_epi16(base.add(5)),
            );
            let rounded = _mm_srai_epi16::<5>(_mm_add_epi16(v, sixteen));
            _mm_storel_epi64(
                dst.as_mut_ptr().add(y * dst_stride + x) as *mut __m128i,
                _mm_packus_epi16(rounded, rounded),
            );
            x += 8;
        }
    }
}

/// Vertical 6-tap; `src[0]` is 2 rows above the block origin (same
/// convention as the scalar kernel).
///
/// # Safety
/// Requires SSE2; `w % 8 == 0`; `h + 5` rows must be readable.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn sixtap_v_sse2(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    debug_assert!(w.is_multiple_of(8));
    debug_assert!(h == 0 || dst.len() >= (h - 1) * dst_stride + w);
    debug_assert!(h == 0 || src.len() >= (h + 4) * src_stride + w);
    let sixteen = _mm_set1_epi16(16);
    for y in 0..h {
        let mut x = 0;
        while x + 8 <= w {
            let base = src.as_ptr().add(y * src_stride + x);
            let v = sixtap_epi16(
                load8_epi16(base),
                load8_epi16(base.add(src_stride)),
                load8_epi16(base.add(2 * src_stride)),
                load8_epi16(base.add(3 * src_stride)),
                load8_epi16(base.add(4 * src_stride)),
                load8_epi16(base.add(5 * src_stride)),
            );
            let rounded = _mm_srai_epi16::<5>(_mm_add_epi16(v, sixteen));
            _mm_storel_epi64(
                dst.as_mut_ptr().add(y * dst_stride + x) as *mut __m128i,
                _mm_packus_epi16(rounded, rounded),
            );
            x += 8;
        }
    }
}

/// # Safety
/// Requires SSE2; standard 8×8 block bounds.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn add_residual8_sse2(
    dst: &mut [u8],
    dst_stride: usize,
    pred: &[u8],
    pred_stride: usize,
    res: &Block8,
) {
    debug_assert!(dst.len() >= 7 * dst_stride + 8);
    debug_assert!(pred.len() >= 7 * pred_stride + 8);
    let zero = _mm_setzero_si128();
    for y in 0..8 {
        let p = _mm_unpacklo_epi8(
            _mm_loadl_epi64(pred.as_ptr().add(y * pred_stride) as *const __m128i),
            zero,
        );
        let r = _mm_loadu_si128(res.as_ptr().add(y * 8) as *const __m128i);
        let sum = _mm_adds_epi16(p, r);
        _mm_storel_epi64(
            dst.as_mut_ptr().add(y * dst_stride) as *mut __m128i,
            _mm_packus_epi16(sum, sum),
        );
    }
}

// ----------------------------------------------------------- deblock --

/// Horizontal-edge deblock, 8 samples per iteration; bit-exact with the
/// scalar kernel.
///
/// # Safety
/// Requires SSE2 and a slice covering rows q0-2..=q0+1 over `width`
/// samples.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn deblock_horiz_edge_sse2(
    data: &mut [u8],
    stride: usize,
    q0_off: usize,
    width: usize,
    alpha: i32,
    beta: i32,
    tc: i32,
) {
    debug_assert!(q0_off >= 2 * stride);
    debug_assert!(width == 0 || data.len() >= q0_off + stride + width);
    let zero = _mm_setzero_si128();
    let valpha = _mm_set1_epi16(alpha as i16);
    let vbeta = _mm_set1_epi16(beta as i16);
    let vtc = _mm_set1_epi16(tc as i16);
    let vntc = _mm_set1_epi16(-tc as i16);
    let four = _mm_set1_epi16(4);
    let mut x = 0;
    while x + 8 <= width {
        let i = q0_off + x;
        let p1 = _mm_unpacklo_epi8(
            _mm_loadl_epi64(data.as_ptr().add(i - 2 * stride) as *const __m128i),
            zero,
        );
        let p0 = _mm_unpacklo_epi8(
            _mm_loadl_epi64(data.as_ptr().add(i - stride) as *const __m128i),
            zero,
        );
        let q0 = _mm_unpacklo_epi8(
            _mm_loadl_epi64(data.as_ptr().add(i) as *const __m128i),
            zero,
        );
        let q1 = _mm_unpacklo_epi8(
            _mm_loadl_epi64(data.as_ptr().add(i + stride) as *const __m128i),
            zero,
        );
        let abs16 = |v: __m128i| _mm_max_epi16(v, _mm_sub_epi16(zero, v));
        let cond = _mm_and_si128(
            _mm_cmplt_epi16(abs16(_mm_sub_epi16(p0, q0)), valpha),
            _mm_and_si128(
                _mm_cmplt_epi16(abs16(_mm_sub_epi16(p1, p0)), vbeta),
                _mm_cmplt_epi16(abs16(_mm_sub_epi16(q1, q0)), vbeta),
            ),
        );
        // delta = clamp(((q0-p0)*4 + (p1-q1) + 4) >> 3, -tc, tc)
        let diff4 = _mm_slli_epi16::<2>(_mm_sub_epi16(q0, p0));
        let raw = _mm_srai_epi16::<3>(_mm_add_epi16(
            _mm_add_epi16(diff4, _mm_sub_epi16(p1, q1)),
            four,
        ));
        let delta = _mm_max_epi16(vntc, _mm_min_epi16(vtc, raw));
        let masked = _mm_and_si128(delta, cond);
        let new_p0 = _mm_packus_epi16(_mm_add_epi16(p0, masked), zero);
        let new_q0 = _mm_packus_epi16(_mm_sub_epi16(q0, masked), zero);
        _mm_storel_epi64(data.as_mut_ptr().add(i - stride) as *mut __m128i, new_p0);
        _mm_storel_epi64(data.as_mut_ptr().add(i) as *mut __m128i, new_q0);
        x += 8;
    }
    // Scalar tail for non-multiple-of-8 widths.
    if x < width {
        crate::deblock::deblock_horiz_edge_scalar(
            data,
            stride,
            q0_off + x,
            width - x,
            alpha,
            beta,
            tc,
        );
    }
}

// ----------------------------------------------------------------- SSD --

/// # Safety
/// Requires SSE2; `w % 8 == 0` and slices covering the block geometry.
/// Per-row sums fit i32 (`w * 255² < 2^31` for any `w ≤ 16384`).
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn ssd_sse2(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
) -> u64 {
    debug_assert!(w.is_multiple_of(8));
    debug_assert!(h == 0 || a.len() >= (h - 1) * a_stride + w);
    debug_assert!(h == 0 || b.len() >= (h - 1) * b_stride + w);
    let zero = _mm_setzero_si128();
    let mut total = 0u64;
    for y in 0..h {
        let ra = a.as_ptr().add(y * a_stride);
        let rb = b.as_ptr().add(y * b_stride);
        let mut acc = _mm_setzero_si128();
        let mut x = 0;
        while x + 16 <= w {
            let va = _mm_loadu_si128(ra.add(x) as *const __m128i);
            let vb = _mm_loadu_si128(rb.add(x) as *const __m128i);
            let d_lo = _mm_sub_epi16(_mm_unpacklo_epi8(va, zero), _mm_unpacklo_epi8(vb, zero));
            let d_hi = _mm_sub_epi16(_mm_unpackhi_epi8(va, zero), _mm_unpackhi_epi8(vb, zero));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(d_lo, d_lo));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(d_hi, d_hi));
            x += 16;
        }
        while x + 8 <= w {
            let va = _mm_loadl_epi64(ra.add(x) as *const __m128i);
            let vb = _mm_loadl_epi64(rb.add(x) as *const __m128i);
            let d = _mm_sub_epi16(_mm_unpacklo_epi8(va, zero), _mm_unpacklo_epi8(vb, zero));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(d, d));
            x += 8;
        }
        let s1 = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, 0b0100_1110));
        let s2 = _mm_add_epi32(s1, _mm_shuffle_epi32(s1, 0b1011_0001));
        total += u64::from(_mm_cvtsi128_si32(s2) as u32);
    }
    total
}

// ---------------------------------------------------------- copy/diff --

/// # Safety
/// Requires SSE2 and slices covering the block geometry (any width).
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn copy_block_sse2(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    debug_assert!(h == 0 || dst.len() >= (h - 1) * dst_stride + w);
    debug_assert!(h == 0 || src.len() >= (h - 1) * src_stride + w);
    // Width classified once per call so each row loop is a single form
    // (see the AVX2 variant for the rationale).
    if w.is_multiple_of(16) {
        let mut s = src.as_ptr();
        let mut d = dst.as_mut_ptr();
        for _ in 0..h {
            let mut x = 0;
            while x < w {
                _mm_storeu_si128(
                    d.add(x) as *mut __m128i,
                    _mm_loadu_si128(s.add(x) as *const __m128i),
                );
                x += 16;
            }
            s = s.add(src_stride);
            d = d.add(dst_stride);
        }
    } else if w == 8 {
        let mut s = src.as_ptr();
        let mut d = dst.as_mut_ptr();
        for _ in 0..h {
            _mm_storel_epi64(d as *mut __m128i, _mm_loadl_epi64(s as *const __m128i));
            s = s.add(src_stride);
            d = d.add(dst_stride);
        }
    } else {
        crate::pixel::copy_block(dst, dst_stride, src, src_stride, w, h);
    }
}

/// # Safety
/// Requires SSE2; standard 8×8 block bounds.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn diff_block8_sse2(
    res: &mut Block8,
    cur: &[u8],
    cur_stride: usize,
    pred: &[u8],
    pred_stride: usize,
) {
    debug_assert!(cur.len() >= 7 * cur_stride + 8);
    debug_assert!(pred.len() >= 7 * pred_stride + 8);
    let zero = _mm_setzero_si128();
    for y in 0..8 {
        let c = _mm_unpacklo_epi8(
            _mm_loadl_epi64(cur.as_ptr().add(y * cur_stride) as *const __m128i),
            zero,
        );
        let p = _mm_unpacklo_epi8(
            _mm_loadl_epi64(pred.as_ptr().add(y * pred_stride) as *const __m128i),
            zero,
        );
        _mm_storeu_si128(
            res.as_mut_ptr().add(y * 8) as *mut __m128i,
            _mm_sub_epi16(c, p),
        );
    }
}

// ------------------------------------------------ forward quantisation --

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn abs_epi32(v: __m128i) -> __m128i {
    let s = _mm_srai_epi32::<31>(v);
    _mm_sub_epi32(_mm_xor_si128(v, s), s)
}

/// Exact `trunc(num / den)` for four non-negative i32 lanes via
/// double-precision division.
///
/// Exactness: both operands convert to f64 exactly (they are i32), and
/// the correctly-rounded quotient differs from the true rational
/// `num/den` by at most `(num/den)·2⁻⁵³`, while a non-integer quotient
/// sits at least `1/den` from any integer — so truncation crosses an
/// integer boundary only if `num ≥ 2⁵³`, which an i32 never is. Exact
/// integer quotients are reproduced exactly by IEEE division.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn div_trunc_epi32(num: __m128i, den: __m128i) -> __m128i {
    let num_hi = _mm_shuffle_epi32::<0b00_00_11_10>(num);
    let den_hi = _mm_shuffle_epi32::<0b00_00_11_10>(den);
    let q_lo = _mm_cvttpd_epi32(_mm_div_pd(_mm_cvtepi32_pd(num), _mm_cvtepi32_pd(den)));
    let q_hi = _mm_cvttpd_epi32(_mm_div_pd(_mm_cvtepi32_pd(num_hi), _mm_cvtepi32_pd(den_hi)));
    _mm_unpacklo_epi64(q_lo, q_hi)
}

/// Forward quantiser, bit-exact with `quant8_scalar`.
///
/// # Safety
/// Requires SSE2. `matrix[i] * qscale` must fit i16 (true for the MPEG
/// ranges: entries ≤ 255, qscale ≤ 62 — the same precondition as the
/// dequant kernel).
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn quant8_sse2(
    block: &mut Block8,
    matrix: &QuantMatrix,
    qscale: u16,
    intra: bool,
) -> u32 {
    debug_assert!(qscale >= 1);
    let zero = _mm_setzero_si128();
    let qv = _mm_set1_epi16(qscale as i16);
    let max_level = _mm_set1_epi32(2047);
    let saved_dc = block[0];
    let mut nonzero = 0u32;
    for chunk in 0..8 {
        let v = _mm_loadu_si128(block.as_ptr().add(chunk * 8) as *const __m128i);
        let mrow = _mm_loadu_si128(matrix.as_ptr().add(chunk * 8) as *const __m128i);
        // div = matrix[i] * qscale, as i32 lanes (madd against (m, 0)).
        let div_lo = _mm_madd_epi16(_mm_unpacklo_epi16(mrow, zero), qv);
        let div_hi = _mm_madd_epi16(_mm_unpackhi_epi16(mrow, zero), qv);
        // Sign-extend the coefficients to i32 and take magnitudes.
        let c_lo = _mm_srai_epi32::<16>(_mm_unpacklo_epi16(zero, v));
        let c_hi = _mm_srai_epi32::<16>(_mm_unpackhi_epi16(zero, v));
        let abs_lo = abs_epi32(c_lo);
        let abs_hi = abs_epi32(c_hi);
        // intra: (|c|·32 + div) / (2·div)   non-intra: |c|·16 / div
        let (num_lo, num_hi, den_lo, den_hi) = if intra {
            (
                _mm_add_epi32(_mm_slli_epi32::<5>(abs_lo), div_lo),
                _mm_add_epi32(_mm_slli_epi32::<5>(abs_hi), div_hi),
                _mm_slli_epi32::<1>(div_lo),
                _mm_slli_epi32::<1>(div_hi),
            )
        } else {
            (
                _mm_slli_epi32::<4>(abs_lo),
                _mm_slli_epi32::<4>(abs_hi),
                div_lo,
                div_hi,
            )
        };
        let q_lo = clamp_epi32(div_trunc_epi32(num_lo, den_lo), zero, max_level);
        let q_hi = clamp_epi32(div_trunc_epi32(num_hi, den_hi), zero, max_level);
        // Reapply the sign: (q ^ s) - s with s = c >> 31.
        let s_lo = _mm_srai_epi32::<31>(c_lo);
        let s_hi = _mm_srai_epi32::<31>(c_hi);
        let r_lo = _mm_sub_epi32(_mm_xor_si128(q_lo, s_lo), s_lo);
        let r_hi = _mm_sub_epi32(_mm_xor_si128(q_hi, s_hi), s_hi);
        let packed = _mm_packs_epi32(r_lo, r_hi);
        _mm_storeu_si128(block.as_mut_ptr().add(chunk * 8) as *mut __m128i, packed);
        // Each zero i16 lane sets two bytes in the movemask.
        let zmask = _mm_movemask_epi8(_mm_cmpeq_epi16(packed, zero)) as u32;
        nonzero += 8 - zmask.count_ones() / 2;
    }
    if intra {
        // The codec's DC predictor owns the intra DC: undo the SIMD pass
        // on index 0 and restore the scalar counting convention.
        if block[0] != 0 {
            nonzero -= 1;
        }
        block[0] = saved_dc;
        if saved_dc != 0 {
            nonzero += 1;
        }
    }
    nonzero
}

// ------------------------------------------------------ 2-D six-tap ----

const fn pack_taps(even: i16, odd: i16) -> i32 {
    ((odd as u16 as i32) << 16) | (even as u16 as i32)
}

/// Combined 6-tap (the H.264 "j" position): horizontal pass stored at
/// full precision in an i16 buffer (the unrounded 6-tap of u8 inputs
/// spans [-2550, 10710], which fits), vertical pass via three exact
/// i16×i16→i32 multiply-adds with tap pairs (1,-5), (20,20), (-5,1).
///
/// # Safety
/// Requires SSE2; `w % 8 == 0`, `w ≤ 16`, `h ≤ HV_MAX_ROWS`; `src` must
/// cover `h + 5` rows of `w + 5` samples.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn sixtap_hv_sse2(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    debug_assert!(w.is_multiple_of(8) && w <= 16 && h <= HV_MAX_ROWS);
    debug_assert!(h == 0 || dst.len() >= (h - 1) * dst_stride + w);
    debug_assert!(src.len() >= (h + 4) * src_stride + w + 5);
    let mut tmp = [0i16; 16 * (HV_MAX_ROWS + 5)];
    let tmp_h = h + 5;
    for ty in 0..tmp_h {
        let mut x = 0;
        while x + 8 <= w {
            let base = src.as_ptr().add(ty * src_stride + x);
            let v = sixtap_epi16(
                load8_epi16(base),
                load8_epi16(base.add(1)),
                load8_epi16(base.add(2)),
                load8_epi16(base.add(3)),
                load8_epi16(base.add(4)),
                load8_epi16(base.add(5)),
            );
            _mm_storeu_si128(tmp.as_mut_ptr().add(ty * w + x) as *mut __m128i, v);
            x += 8;
        }
    }
    let c01 = _mm_set1_epi32(pack_taps(1, -5));
    let c23 = _mm_set1_epi32(pack_taps(20, 20));
    let c45 = _mm_set1_epi32(pack_taps(-5, 1));
    let round = _mm_set1_epi32(512);
    for y in 0..h {
        let mut x = 0;
        while x + 8 <= w {
            let base = tmp.as_ptr().add(y * w + x);
            let r0 = _mm_loadu_si128(base as *const __m128i);
            let r1 = _mm_loadu_si128(base.add(w) as *const __m128i);
            let r2 = _mm_loadu_si128(base.add(2 * w) as *const __m128i);
            let r3 = _mm_loadu_si128(base.add(3 * w) as *const __m128i);
            let r4 = _mm_loadu_si128(base.add(4 * w) as *const __m128i);
            let r5 = _mm_loadu_si128(base.add(5 * w) as *const __m128i);
            let acc_lo = _mm_add_epi32(
                _mm_add_epi32(
                    _mm_madd_epi16(_mm_unpacklo_epi16(r0, r1), c01),
                    _mm_madd_epi16(_mm_unpacklo_epi16(r2, r3), c23),
                ),
                _mm_add_epi32(_mm_madd_epi16(_mm_unpacklo_epi16(r4, r5), c45), round),
            );
            let acc_hi = _mm_add_epi32(
                _mm_add_epi32(
                    _mm_madd_epi16(_mm_unpackhi_epi16(r0, r1), c01),
                    _mm_madd_epi16(_mm_unpackhi_epi16(r2, r3), c23),
                ),
                _mm_add_epi32(_mm_madd_epi16(_mm_unpackhi_epi16(r4, r5), c45), round),
            );
            let res = _mm_packs_epi32(_mm_srai_epi32::<10>(acc_lo), _mm_srai_epi32::<10>(acc_hi));
            _mm_storel_epi64(
                dst.as_mut_ptr().add(y * dst_stride + x) as *mut __m128i,
                _mm_packus_epi16(res, res),
            );
            x += 8;
        }
    }
}

// ----------------------------------------------- dispatch-table entries --
//
// Safe, total entry points for the one-time kernel table resolved in
// `Dsp::new`. Each wrapper falls back to the scalar kernel for
// geometries the vector kernel does not handle, so a resolved pointer is
// valid for every input the facade accepts.
//
// SAFETY (all entries): SSE2 is part of the x86-64 baseline, so the
// `target_feature(enable = "sse2")` kernels have no runtime feature
// precondition on this architecture.

use crate::dispatch::KernelTable;

fn sad_entry(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize, w: usize, h: usize) -> u32 {
    if w.is_multiple_of(8) {
        unsafe { sad_sse2(a, a_stride, b, b_stride, w, h) }
    } else {
        crate::pixel::sad_scalar(a, a_stride, b, b_stride, w, h)
    }
}

fn satd_entry(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize, w: usize, h: usize) -> u32 {
    unsafe { satd_sse2(a, a_stride, b, b_stride, w, h) }
}

fn ssd_entry(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize, w: usize, h: usize) -> u64 {
    if w.is_multiple_of(8) {
        unsafe { ssd_sse2(a, a_stride, b, b_stride, w, h) }
    } else {
        crate::pixel::ssd_scalar(a, a_stride, b, b_stride, w, h)
    }
}

fn fdct8_entry(block: &mut Block8) {
    unsafe { fdct8_sse2(block) }
}

fn idct8_entry(block: &mut Block8) {
    unsafe { idct8_sse2(block) }
}

fn quant8_entry(block: &mut Block8, matrix: &QuantMatrix, qscale: u16, intra: bool) -> u32 {
    unsafe { quant8_sse2(block, matrix, qscale, intra) }
}

fn dequant8_entry(block: &mut Block8, matrix: &QuantMatrix, qscale: u16, intra: bool) {
    unsafe { dequant8_sse2(block, matrix, qscale, intra) }
}

fn copy_block_entry(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    unsafe { copy_block_sse2(dst, dst_stride, src, src_stride, w, h) }
}

#[allow(clippy::too_many_arguments)]
fn avg_block_entry(
    dst: &mut [u8],
    dst_stride: usize,
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
) {
    if w.is_multiple_of(8) {
        unsafe { avg_block_sse2(dst, dst_stride, a, a_stride, b, b_stride, w, h) }
    } else {
        crate::pixel::avg_block_scalar(dst, dst_stride, a, a_stride, b, b_stride, w, h)
    }
}

#[allow(clippy::too_many_arguments)]
fn hpel_interp_entry(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    fx: u8,
    fy: u8,
    w: usize,
    h: usize,
) {
    if w.is_multiple_of(8) {
        unsafe { hpel_interp_sse2(dst, dst_stride, src, src_stride, fx, fy, w, h) }
    } else {
        crate::interp::hpel_interp_scalar(dst, dst_stride, src, src_stride, fx, fy, w, h)
    }
}

fn sixtap_h_entry(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    if w.is_multiple_of(8) {
        unsafe { sixtap_h_sse2(dst, dst_stride, src, src_stride, w, h) }
    } else {
        crate::interp::sixtap_h_scalar(dst, dst_stride, src, src_stride, w, h)
    }
}

fn sixtap_v_entry(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    if w.is_multiple_of(8) {
        unsafe { sixtap_v_sse2(dst, dst_stride, src, src_stride, w, h) }
    } else {
        crate::interp::sixtap_v_scalar(dst, dst_stride, src, src_stride, w, h)
    }
}

fn sixtap_hv_entry(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    if w.is_multiple_of(8) && w <= 16 && h <= HV_MAX_ROWS {
        unsafe { sixtap_hv_sse2(dst, dst_stride, src, src_stride, w, h) }
    } else {
        crate::interp::sixtap_hv(dst, dst_stride, src, src_stride, w, h)
    }
}

fn add_residual8_entry(
    dst: &mut [u8],
    dst_stride: usize,
    pred: &[u8],
    pred_stride: usize,
    res: &Block8,
) {
    unsafe { add_residual8_sse2(dst, dst_stride, pred, pred_stride, res) }
}

fn diff_block8_entry(
    res: &mut Block8,
    cur: &[u8],
    cur_stride: usize,
    pred: &[u8],
    pred_stride: usize,
) {
    unsafe { diff_block8_sse2(res, cur, cur_stride, pred, pred_stride) }
}

fn deblock_horiz_edge_entry(
    data: &mut [u8],
    stride: usize,
    q0_off: usize,
    width: usize,
    alpha: i32,
    beta: i32,
    tc: i32,
) {
    unsafe { deblock_horiz_edge_sse2(data, stride, q0_off, width, alpha, beta, tc) }
}

// -------------------------------------------------------------- scale --

/// # Safety
/// Requires SSE2 plus the geometry contract of the scalar kernel: every
/// `offsets[i] + 4 <= src.len()` and `dst`/`taps` sized for `offsets`.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn scale_row_h_sse2(dst: &mut [u8], src: &[u8], offsets: &[u32], taps: &[i16]) {
    debug_assert_eq!(offsets.len() * 4, taps.len());
    debug_assert!(dst.len() >= offsets.len());
    let n = offsets.len();
    let round = _mm_set1_epi32(64);
    let mut i = 0;
    while i + 4 <= n {
        // Four output pixels: each window is 4 contiguous source bytes.
        let w0 = u32::from_le_bytes(src[offsets[i] as usize..][..4].try_into().unwrap());
        let w1 = u32::from_le_bytes(src[offsets[i + 1] as usize..][..4].try_into().unwrap());
        let w2 = u32::from_le_bytes(src[offsets[i + 2] as usize..][..4].try_into().unwrap());
        let w3 = u32::from_le_bytes(src[offsets[i + 3] as usize..][..4].try_into().unwrap());
        let px = _mm_set_epi32(w3 as i32, w2 as i32, w1 as i32, w0 as i32);
        let zero = _mm_setzero_si128();
        let lo = _mm_unpacklo_epi8(px, zero); // windows 0,1 as i16
        let hi = _mm_unpackhi_epi8(px, zero); // windows 2,3 as i16
        let c01 = _mm_loadu_si128(taps.as_ptr().add(4 * i).cast());
        let c23 = _mm_loadu_si128(taps.as_ptr().add(4 * i + 8).cast());
        // madd -> per-window partial pairs [p0a,p0b,p1a,p1b].
        let m0 = _mm_madd_epi16(lo, c01);
        let m1 = _mm_madd_epi16(hi, c23);
        // Fold pairs: lane0 += lane1, lane2 += lane3.
        let s0 = _mm_add_epi32(m0, _mm_shuffle_epi32::<0b10_11_00_01>(m0));
        let s1 = _mm_add_epi32(m1, _mm_shuffle_epi32::<0b10_11_00_01>(m1));
        // Gather the four sums into one register: [p0, p1, p2, p3].
        let a02 = _mm_shuffle_epi32::<0b10_00_10_00>(s0);
        let b02 = _mm_shuffle_epi32::<0b10_00_10_00>(s1);
        let four = _mm_unpacklo_epi64(a02, b02);
        let r = _mm_srai_epi32::<7>(_mm_add_epi32(four, round));
        let p16 = _mm_packs_epi32(r, r);
        let p8 = _mm_packus_epi16(p16, p16);
        let out = _mm_cvtsi128_si32(p8) as u32;
        dst[i..i + 4].copy_from_slice(&out.to_le_bytes());
        i += 4;
    }
    if i < n {
        crate::scale::scale_row_h_scalar(&mut dst[i..n], src, &offsets[i..], &taps[4 * i..]);
    }
}

/// # Safety
/// Requires SSE2 and rows at least as long as `dst`.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn scale_row_v_sse2(
    dst: &mut [u8],
    r0: &[u8],
    r1: &[u8],
    r2: &[u8],
    r3: &[u8],
    c: &[i16; 4],
) {
    let w = dst.len();
    debug_assert!(r0.len() >= w && r1.len() >= w && r2.len() >= w && r3.len() >= w);
    let c01 = _mm_set1_epi32((c[0] as u16 as i32) | ((c[1] as i32) << 16));
    let c23 = _mm_set1_epi32((c[2] as u16 as i32) | ((c[3] as i32) << 16));
    let round = _mm_set1_epi32(64);
    let zero = _mm_setzero_si128();
    let mut x = 0;
    while x + 16 <= w {
        let v0 = _mm_loadu_si128(r0.as_ptr().add(x).cast());
        let v1 = _mm_loadu_si128(r1.as_ptr().add(x).cast());
        let v2 = _mm_loadu_si128(r2.as_ptr().add(x).cast());
        let v3 = _mm_loadu_si128(r3.as_ptr().add(x).cast());
        // Interleave row pairs so each i32 lane of madd sees
        // [r0[x], r1[x]] (resp. [r2[x], r3[x]]) as an i16 pair.
        let i01 = _mm_unpacklo_epi8(v0, v1);
        let i01h = _mm_unpackhi_epi8(v0, v1);
        let i23 = _mm_unpacklo_epi8(v2, v3);
        let i23h = _mm_unpackhi_epi8(v2, v3);
        let a0 = _mm_madd_epi16(_mm_unpacklo_epi8(i01, zero), c01);
        let a1 = _mm_madd_epi16(_mm_unpackhi_epi8(i01, zero), c01);
        let a2 = _mm_madd_epi16(_mm_unpacklo_epi8(i01h, zero), c01);
        let a3 = _mm_madd_epi16(_mm_unpackhi_epi8(i01h, zero), c01);
        let b0 = _mm_madd_epi16(_mm_unpacklo_epi8(i23, zero), c23);
        let b1 = _mm_madd_epi16(_mm_unpackhi_epi8(i23, zero), c23);
        let b2 = _mm_madd_epi16(_mm_unpacklo_epi8(i23h, zero), c23);
        let b3 = _mm_madd_epi16(_mm_unpackhi_epi8(i23h, zero), c23);
        let s0 = _mm_srai_epi32::<7>(_mm_add_epi32(_mm_add_epi32(a0, b0), round));
        let s1 = _mm_srai_epi32::<7>(_mm_add_epi32(_mm_add_epi32(a1, b1), round));
        let s2 = _mm_srai_epi32::<7>(_mm_add_epi32(_mm_add_epi32(a2, b2), round));
        let s3 = _mm_srai_epi32::<7>(_mm_add_epi32(_mm_add_epi32(a3, b3), round));
        let lo16 = _mm_packs_epi32(s0, s1);
        let hi16 = _mm_packs_epi32(s2, s3);
        let out = _mm_packus_epi16(lo16, hi16);
        _mm_storeu_si128(dst.as_mut_ptr().add(x).cast(), out);
        x += 16;
    }
    if x < w {
        crate::scale::scale_row_v_scalar(&mut dst[x..], &r0[x..], &r1[x..], &r2[x..], &r3[x..], c);
    }
}

fn scale_h_entry(dst: &mut [u8], src: &[u8], offsets: &[u32], taps: &[i16]) {
    unsafe { scale_row_h_sse2(dst, src, offsets, taps) }
}

fn scale_v_entry(dst: &mut [u8], r0: &[u8], r1: &[u8], r2: &[u8], r3: &[u8], c: &[i16; 4]) {
    unsafe { scale_row_v_sse2(dst, r0, r1, r2, r3, c) }
}

/// The SSE2 tier's resolved kernel table.
pub(crate) static SSE2_KERNELS: KernelTable = KernelTable {
    sad: sad_entry,
    satd: satd_entry,
    ssd: ssd_entry,
    fdct8: fdct8_entry,
    idct8: idct8_entry,
    fcore4: crate::dct4::fcore4,
    icore4: crate::dct4::icore4,
    quant8: quant8_entry,
    dequant8: dequant8_entry,
    copy_block: copy_block_entry,
    avg_block: avg_block_entry,
    hpel_interp: hpel_interp_entry,
    sixtap_h: sixtap_h_entry,
    sixtap_v: sixtap_v_entry,
    sixtap_hv: sixtap_hv_entry,
    add_residual8: add_residual8_entry,
    diff_block8: diff_block8_entry,
    deblock_horiz_edge: deblock_horiz_edge_entry,
    scale_h: scale_h_entry,
    scale_v: scale_v_entry,
};
