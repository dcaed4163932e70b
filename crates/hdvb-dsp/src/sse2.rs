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

// ---------------------------------------------------- prediction rows --

/// Debug-build check that a `w`×`h` block with row stride `stride` lies
/// inside `s`.
pub(crate) fn check_block(s: &[u8], stride: usize, w: usize, h: usize) {
    debug_assert!(h == 0 || s.len() >= (h - 1) * stride + w);
}

/// A cursor over the rows a compare kernel reads: one plane, or — the
/// fused quarter-pel form (`AVG`) — the rounded average of two planes
/// `p` and `q` with one row stride. That average is `pavgb`, i.e.
/// `avg_block`'s `(p + q + 1) >> 1`, formed in registers before widening
/// and never stored. The loads are SSE2, the x86-64 baseline, so the AVX2
/// tier reads through the same type.
///
/// Holds raw pointers: moving the cursor is always allowed, and the
/// kernel that builds one promises (and debug-checks with
/// [`check_block`]) that every load stays inside the slices it came from.
#[derive(Clone, Copy)]
pub(crate) struct Rows<const AVG: bool> {
    p: *const u8,
    q: *const u8,
    stride: usize,
}

impl<const AVG: bool> Rows<AVG> {
    /// Rows of `p`, or of the average of `p` and `q` when `AVG`.
    pub(crate) fn new(p: &[u8], q: &[u8], stride: usize) -> Self {
        Rows {
            p: p.as_ptr(),
            q: q.as_ptr(),
            stride,
        }
    }

    /// The cursor moved to row `y`, column `x`.
    #[inline(always)]
    pub(crate) fn at(self, y: usize, x: usize) -> Self {
        let i = y * self.stride + x;
        Rows {
            p: self.p.wrapping_add(i),
            q: self.q.wrapping_add(i),
            stride: self.stride,
        }
    }

    /// 16 samples of row `y` from column `x`.
    ///
    /// # Safety
    /// 16 readable bytes there in every plane.
    #[inline(always)]
    pub(crate) unsafe fn load16(&self, y: usize, x: usize) -> __m128i {
        let i = y * self.stride + x;
        let v = _mm_loadu_si128(self.p.add(i).cast());
        if AVG {
            let w = _mm_loadu_si128(self.q.add(i).cast());
            _mm_avg_epu8(v, w)
        } else {
            v
        }
    }

    /// 8 samples of row `y` from column `x`, in the low half.
    ///
    /// # Safety
    /// 8 readable bytes there in every plane.
    #[inline(always)]
    pub(crate) unsafe fn load8(&self, y: usize, x: usize) -> __m128i {
        let i = y * self.stride + x;
        let v = _mm_loadl_epi64(self.p.add(i).cast());
        if AVG {
            let w = _mm_loadl_epi64(self.q.add(i).cast());
            _mm_avg_epu8(v, w)
        } else {
            v
        }
    }

    /// 4 samples of row `y` from column `x`, in the low dword.
    ///
    /// # Safety
    /// 4 readable bytes there in every plane.
    #[inline(always)]
    pub(crate) unsafe fn load4(&self, y: usize, x: usize) -> __m128i {
        let at = |s: *const u8, i: usize| {
            _mm_cvtsi32_si128(std::ptr::read_unaligned(s.add(i).cast::<i32>()))
        };
        let i = y * self.stride + x;
        let v = at(self.p, i);
        if AVG {
            _mm_avg_epu8(v, at(self.q, i))
        } else {
            v
        }
    }
}

/// Sum of the four i32 lanes.
///
/// # Safety
/// SSE2, which every x86-64 CPU has.
#[inline(always)]
pub(crate) unsafe fn hsum_epi32(v: __m128i) -> u32 {
    let s = _mm_add_epi32(v, _mm_shuffle_epi32::<0b0100_1110>(v));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b1011_0001>(s));
    _mm_cvtsi128_si32(s) as u32
}

// ---------------------------------------------------------------- SAD --

/// SAD of the block at `a` against `p` — or, with `AVG`, against the
/// rounded average of `p` and `q`.
///
/// # Safety
/// Requires SSE2 (always present on x86-64); `w % 8 == 0` and slices
/// covering the block geometry.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn sad_sse2<const AVG: bool>(
    a: &[u8],
    a_stride: usize,
    p: &[u8],
    q: &[u8],
    stride: usize,
    w: usize,
    h: usize,
) -> u32 {
    debug_assert!(w.is_multiple_of(8));
    check_block(a, a_stride, w, h);
    check_block(p, stride, w, h);
    check_block(q, stride, w, h);
    let (cur, pred) = (
        Rows::<false>::new(a, a, a_stride),
        Rows::<AVG>::new(p, q, stride),
    );
    let mut acc = _mm_setzero_si128();
    for y in 0..h {
        let mut x = 0;
        while x + 16 <= w {
            acc = _mm_add_epi64(acc, _mm_sad_epu8(cur.load16(y, x), pred.load16(y, x)));
            x += 16;
        }
        while x + 8 <= w {
            acc = _mm_add_epi64(acc, _mm_sad_epu8(cur.load8(y, x), pred.load8(y, x)));
            x += 8;
        }
        debug_assert_eq!(x, w);
    }
    let hi = _mm_shuffle_epi32(acc, 0b0100_1110);
    let sum = _mm_add_epi64(acc, hi);
    _mm_cvtsi128_si32(sum) as u32
}

// --------------------------------------------------------------- SATD --
//
// The band algorithm (DESIGN.md §9), shared with the AVX2 tier: a band
// is 4 rows of differences whose registers hold 4×4 tiles side by side.
// The vertical 4-point Hadamard and the first horizontal stage run in
// registers; the last horizontal butterfly is folded by
// |x + y| + |x − y| = 2·max(|x|, |y|), so a tile's `satd4x4_scalar` sum
// (which halves its 16 magnitudes) is exactly the sum of its eight
// pairwise maxima — no per-tile reduction, one horizontal sum per call.
// These helpers carry no `target_feature` (SSE2 is the baseline) and are
// always inlined, so the AVX2 tier's trailing 4-wide column reuses them
// (and gets `pabsw` for `abs_epi16` there).

/// |v| for i16 lanes above `i16::MIN`.
///
/// # Safety
/// SSE2, which every x86-64 CPU has.
#[inline(always)]
unsafe fn abs_epi16(v: __m128i) -> __m128i {
    _mm_max_epi16(v, _mm_sub_epi16(_mm_setzero_si128(), v))
}

/// First horizontal stage of every tile row: columns `(c0, c1, c2, c3)`
/// become `(c0 + c1, c0 − c1, c2 + c3, c2 − c3)` — the row with its odd
/// lanes negated plus the row with neighbouring lanes swapped.
///
/// # Safety
/// SSE2, which every x86-64 CPU has.
#[inline(always)]
unsafe fn hpair(r: __m128i) -> __m128i {
    let odd = _mm_set_epi16(-1, 0, -1, 0, -1, 0, -1, 0);
    let swapped = _mm_shufflehi_epi16::<0b10_11_00_01>(_mm_shufflelo_epi16::<0b10_11_00_01>(r));
    _mm_add_epi16(_mm_sub_epi16(_mm_xor_si128(r, odd), odd), swapped)
}

/// The folded last stage of two rows of magnitudes: per tile row, the
/// maxima of lanes (0, 2) and (1, 3), i.e. of its first and second dword.
///
/// # Safety
/// SSE2, which every x86-64 CPU has.
#[inline(always)]
unsafe fn fold_max(x: __m128i, y: __m128i) -> __m128i {
    let (x, y) = (_mm_castsi128_ps(x), _mm_castsi128_ps(y));
    _mm_max_epi16(
        _mm_castps_si128(_mm_shuffle_ps::<0b10_00_10_00>(x, y)),
        _mm_castps_si128(_mm_shuffle_ps::<0b11_01_11_01>(x, y)),
    )
}

/// One band of two tiles (lanes 0–3 and 4–7 of each row of differences):
/// the sum of every tile's eight pairwise maxima as four i32 lanes.
///
/// # Safety
/// SSE2, which every x86-64 CPU has.
#[inline(always)]
unsafe fn satd_band(d: [__m128i; 4]) -> __m128i {
    let (s01, t01) = (_mm_add_epi16(d[0], d[1]), _mm_sub_epi16(d[0], d[1]));
    let (s23, t23) = (_mm_add_epi16(d[2], d[3]), _mm_sub_epi16(d[2], d[3]));
    let h0 = abs_epi16(hpair(_mm_add_epi16(s01, s23)));
    let h1 = abs_epi16(hpair(_mm_sub_epi16(s01, s23)));
    let h2 = abs_epi16(hpair(_mm_add_epi16(t01, t23)));
    let h3 = abs_epi16(hpair(_mm_sub_epi16(t01, t23)));
    let maxima = _mm_add_epi16(fold_max(h0, h1), fold_max(h2, h3));
    _mm_madd_epi16(maxima, _mm_set1_epi16(1))
}

/// Widens the low 8 bytes to i16 lanes.
///
/// # Safety
/// SSE2, which every x86-64 CPU has.
#[inline(always)]
unsafe fn widen8(v: __m128i) -> __m128i {
    _mm_unpacklo_epi8(v, _mm_setzero_si128())
}

/// The 4-wide column at `x`: two bands per register, band `y` in the low
/// half and band `y + 4` in the high one (zero past the block — a zero
/// difference adds nothing). Returns i32 partial sums.
///
/// # Safety
/// SSE2 and both sources covering the `x + 4`-wide, `h`-row block.
#[inline(always)]
pub(crate) unsafe fn satd_col4<const AVG: bool>(
    cur: Rows<false>,
    pred: Rows<AVG>,
    x: usize,
    h: usize,
) -> __m128i {
    let mut acc = _mm_setzero_si128();
    let mut y = 0;
    while y < h {
        let pair = y + 4 < h;
        let row = |r: usize| {
            let (mut c, mut p) = (cur.load4(y + r, x), pred.load4(y + r, x));
            if pair {
                c = _mm_unpacklo_epi32(c, cur.load4(y + 4 + r, x));
                p = _mm_unpacklo_epi32(p, pred.load4(y + 4 + r, x));
            }
            _mm_sub_epi16(widen8(c), widen8(p))
        };
        acc = _mm_add_epi32(acc, satd_band([row(0), row(1), row(2), row(3)]));
        y += 8;
    }
    acc
}

/// SATD of the block at `a` against `p` — or, with `AVG`, against the
/// rounded average of `p` and `q`: `satd_scalar` exactly.
///
/// # Safety
/// Requires SSE2; `w`, `h` multiples of 4 and slices covering the block
/// geometry.
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn satd_sse2<const AVG: bool>(
    a: &[u8],
    a_stride: usize,
    p: &[u8],
    q: &[u8],
    stride: usize,
    w: usize,
    h: usize,
) -> u32 {
    debug_assert!(w.is_multiple_of(4) && h.is_multiple_of(4));
    check_block(a, a_stride, w, h);
    check_block(p, stride, w, h);
    check_block(q, stride, w, h);
    let (cur, pred) = (
        Rows::<false>::new(a, a, a_stride),
        Rows::<AVG>::new(p, q, stride),
    );
    let mut acc = _mm_setzero_si128();
    let mut x = 0;
    while x + 8 <= w {
        // Row cursors stepped one row per load: rows indexed from the
        // band origin leave LLVM a dozen live pointers in the fused form
        // (DESIGN.md §9).
        let (mut c, mut p) = (cur.at(0, x), pred.at(0, x));
        for _ in 0..h / 4 {
            let mut row = || {
                let d = _mm_sub_epi16(widen8(c.load8(0, 0)), widen8(p.load8(0, 0)));
                (c, p) = (c.at(1, 0), p.at(1, 0));
                d
            };
            let d = [row(), row(), row(), row()];
            acc = _mm_add_epi32(acc, satd_band(d));
        }
        x += 8;
    }
    if x < w {
        acc = _mm_add_epi32(acc, satd_col4(cur, pred, x, h));
    }
    hsum_epi32(acc)
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

/// The deblocking filter's thresholds, broadcast to eight i16 lanes.
#[derive(Clone, Copy)]
struct DeblockParams {
    alpha: __m128i,
    beta: __m128i,
    tc: __m128i,
    neg_tc: __m128i,
}

impl DeblockParams {
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn new(alpha: i32, beta: i32, tc: i32) -> Self {
        DeblockParams {
            alpha: _mm_set1_epi16(alpha as i16),
            beta: _mm_set1_epi16(beta as i16),
            tc: _mm_set1_epi16(tc as i16),
            neg_tc: _mm_set1_epi16(-tc as i16),
        }
    }

    /// The filter on eight sample quadruples (samples in `0..=255`): the
    /// delta that `p0 += delta`, `q0 -= delta` apply, zero in every lane
    /// whose edge is left alone.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn delta(&self, p1: __m128i, p0: __m128i, q0: __m128i, q1: __m128i) -> __m128i {
        let zero = _mm_setzero_si128();
        let abs16 = |v: __m128i| _mm_max_epi16(v, _mm_sub_epi16(zero, v));
        let cond = _mm_and_si128(
            _mm_cmplt_epi16(abs16(_mm_sub_epi16(p0, q0)), self.alpha),
            _mm_and_si128(
                _mm_cmplt_epi16(abs16(_mm_sub_epi16(p1, p0)), self.beta),
                _mm_cmplt_epi16(abs16(_mm_sub_epi16(q1, q0)), self.beta),
            ),
        );
        // delta = clamp(((q0-p0)*4 + (p1-q1) + 4) >> 3, -tc, tc)
        let diff4 = _mm_slli_epi16::<2>(_mm_sub_epi16(q0, p0));
        let raw = _mm_srai_epi16::<3>(_mm_add_epi16(
            _mm_add_epi16(diff4, _mm_sub_epi16(p1, q1)),
            _mm_set1_epi16(4),
        ));
        let delta = _mm_max_epi16(self.neg_tc, _mm_min_epi16(self.tc, raw));
        _mm_and_si128(delta, cond)
    }
}

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
    let params = DeblockParams::new(alpha, beta, tc);
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
        let delta = params.delta(p1, p0, q0, q1);
        let new_p0 = _mm_packus_epi16(_mm_add_epi16(p0, delta), zero);
        let new_q0 = _mm_packus_epi16(_mm_sub_epi16(q0, delta), zero);
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

/// Filters the four vertical edges whose `[p1 p0 q0 q1]` groups are the
/// 16 bytes at `pa` and at `pb` (two rows, or one row twice), in the
/// edges whose i16 lanes of `lanes` are set: lanes 0–3 are the edges of
/// row `pa`, lanes 4–7 those of row `pb`, left to right.
///
/// # Safety
/// Requires SSE2 and 16 readable and writable bytes at `pa` and `pb`.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn deblock_vert_load(params: &DeblockParams, pa: *mut u8, pb: *mut u8, lanes: __m128i) {
    let byte = _mm_set1_epi32(0xFF);
    let a = _mm_loadu_si128(pa as *const __m128i);
    let b = _mm_loadu_si128(pb as *const __m128i);
    // Byte k of every 32-bit lane of both rows as eight i16 lanes.
    let p1 = _mm_packs_epi32(_mm_and_si128(a, byte), _mm_and_si128(b, byte));
    let p0 = _mm_packs_epi32(
        _mm_and_si128(_mm_srli_epi32::<8>(a), byte),
        _mm_and_si128(_mm_srli_epi32::<8>(b), byte),
    );
    let q0 = _mm_packs_epi32(
        _mm_and_si128(_mm_srli_epi32::<16>(a), byte),
        _mm_and_si128(_mm_srli_epi32::<16>(b), byte),
    );
    let q1 = _mm_packs_epi32(_mm_srli_epi32::<24>(a), _mm_srli_epi32::<24>(b));
    let delta = _mm_and_si128(params.delta(p1, p0, q0, q1), lanes);
    // Saturate to bytes, pair each edge's new p0 with its new q0 in one
    // i16 lane, and widen back to one edge per 32-bit lane.
    let packed = _mm_packus_epi16(_mm_add_epi16(p0, delta), _mm_sub_epi16(q0, delta));
    let pq = _mm_unpacklo_epi8(packed, _mm_srli_si128::<8>(packed));
    let zero = _mm_setzero_si128();
    let keep_p1_q1 = _mm_set1_epi32(0xFF00_00FF_u32 as i32);
    let out_a = _mm_or_si128(
        _mm_and_si128(a, keep_p1_q1),
        _mm_slli_epi32::<8>(_mm_unpacklo_epi16(pq, zero)),
    );
    let out_b = _mm_or_si128(
        _mm_and_si128(b, keep_p1_q1),
        _mm_slli_epi32::<8>(_mm_unpackhi_epi16(pq, zero)),
    );
    _mm_storeu_si128(pa as *mut __m128i, out_a);
    _mm_storeu_si128(pb as *mut __m128i, out_b);
}

/// Vertical-edge deblock, four edges of two rows per load pair;
/// bit-exact with the scalar kernel.
///
/// Edge `k` (at x = 4k) reads columns 4k−2 … 4k+1 — its `[p1 p0 q0 q1]`,
/// one 32-bit lane — and writes only its p0 and q0, so lanes, loads and
/// rows are independent and the visiting order cannot change the result.
/// Whole loads cover edges 1–4, 5–8, …; the 1–3 edges left over share
/// one more load ending at the last edge, with the lanes of edges the
/// whole loads filter masked off. A last edge without a q1 (width
/// 4k + 1), and planes with fewer than four edges, go to the scalar
/// kernel.
///
/// # Safety
/// Requires SSE2 and a plane that fits `data`
/// ([`vert_edges_fit`](crate::deblock::vert_edges_fit)).
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn deblock_vert_edges_sse2(
    data: &mut [u8],
    stride: usize,
    width: usize,
    height: usize,
    alpha: i32,
    beta: i32,
    tc: i32,
) {
    debug_assert!(crate::deblock::vert_edges_fit(
        data.len(),
        stride,
        width,
        height
    ));
    let edges = crate::deblock::vector_edges(width, height, 4);
    if edges > 0 {
        let params = DeblockParams::new(alpha, beta, tc);
        let all = _mm_set1_epi16(-1);
        let (loads, left) = (edges / 4, edges % 4);
        let on = |j: usize| -i16::from(j >= 4 - left);
        let left_lanes = _mm_setr_epi16(on(0), on(1), on(2), on(3), on(0), on(1), on(2), on(3));
        // p1 of the first of the last four edges.
        let last_load = 4 * (edges - 3) - 2;
        let base = data.as_mut_ptr();
        let mut y = 0;
        while y < height {
            // An odd last row is filtered as both rows of the pair.
            let (ra, rb) = (
                base.add(y * stride),
                base.add((y + 1).min(height - 1) * stride),
            );
            // Every load spans columns 4k − 2 … 4k + 13 of edges k … k + 3
            // ≤ `edges`, so it ends at column 4 * edges + 1 < width, inside
            // rows y and y + 1 < height of `data`. The overlapping load goes
            // first: a load right after a store to some of its bytes would
            // wait for that store.
            if left > 0 {
                deblock_vert_load(&params, ra.add(last_load), rb.add(last_load), left_lanes);
            }
            for g in 0..loads {
                deblock_vert_load(&params, ra.add(2 + 16 * g), rb.add(2 + 16 * g), all);
            }
            y += 2;
        }
    }
    crate::deblock::deblock_vert_edges_after(edges, data, stride, width, height, alpha, beta, tc);
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
        unsafe { sad_sse2::<false>(a, a_stride, b, b, b_stride, w, h) }
    } else {
        crate::pixel::sad_scalar(a, a_stride, b, b_stride, w, h)
    }
}

fn sad_avg_entry(
    a: &[u8],
    a_stride: usize,
    p: &[u8],
    q: &[u8],
    stride: usize,
    w: usize,
    h: usize,
) -> u32 {
    if w.is_multiple_of(8) {
        unsafe { sad_sse2::<true>(a, a_stride, p, q, stride, w, h) }
    } else {
        crate::pixel::sad_avg_scalar(a, a_stride, p, q, stride, w, h)
    }
}

fn satd_entry(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize, w: usize, h: usize) -> u32 {
    unsafe { satd_sse2::<false>(a, a_stride, b, b, b_stride, w, h) }
}

fn satd_avg_entry(
    a: &[u8],
    a_stride: usize,
    p: &[u8],
    q: &[u8],
    stride: usize,
    w: usize,
    h: usize,
) -> u32 {
    unsafe { satd_sse2::<true>(a, a_stride, p, q, stride, w, h) }
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

fn deblock_vert_edges_entry(
    data: &mut [u8],
    stride: usize,
    width: usize,
    height: usize,
    alpha: i32,
    beta: i32,
    tc: i32,
) {
    // SAFETY: the one caller, `Dsp::deblock_vert_edges`, asserts that
    // the plane fits `data` (`vert_edges_fit`), the kernel's precondition.
    unsafe { deblock_vert_edges_sse2(data, stride, width, height, alpha, beta, tc) }
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
    sad_avg: sad_avg_entry,
    satd: satd_entry,
    satd_avg: satd_avg_entry,
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
    deblock_vert_edges: deblock_vert_edges_entry,
    scale_h: scale_h_entry,
    scale_v: scale_v_entry,
};
