//! AVX2 implementations of the hot kernels (256-bit registers).
//!
//! Bit-exact with the scalar and SSE2 tiers (asserted by the property
//! tests in `tests/simd_equivalence.rs`), so streams encoded at any tier
//! decode identically at every other — the Figure-1 harness reuses one
//! set of bitstreams across all three variants.
//!
//! Unlike SSE2, AVX2 is **not** part of the x86-64 baseline: every
//! kernel here carries a runtime precondition, discharged once in
//! `Dsp::new` (the AVX2 table is only selected after
//! `is_x86_feature_detected!("avx2")` succeeds).

#![allow(unsafe_code)]

use crate::dispatch::KernelTable;
use crate::interp::HV_MAX_ROWS;
use crate::quant::QuantMatrix;
use crate::sse2::{check_block, hsum_epi32, Rows};
use crate::Block8;
use std::arch::x86_64::*;

// ------------------------------------------------------------- helpers --

/// Loads 16 u8 and widens to 16 i16 lanes.
///
/// # Safety
/// Requires AVX2 and 16 readable bytes at `p`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load16_epi16(p: *const u8) -> __m256i {
    _mm256_cvtepu8_epi16(_mm_loadu_si128(p as *const __m128i))
}

/// Packs 16 i16 lanes to 16 u8 (unsigned saturation) and stores them in
/// lane order at `p`.
///
/// # Safety
/// Requires AVX2 and 16 writable bytes at `p`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store16_u8(p: *mut u8, v: __m256i) {
    let packed = _mm256_packus_epi16(v, v);
    // Per-lane pack duplicates each half; pick qwords 0 and 2 to restore
    // lane order.
    let fixed = _mm256_permute4x64_epi64::<0x08>(packed);
    _mm_storeu_si128(p as *mut __m128i, _mm256_castsi256_si128(fixed));
}

/// Rows `y` and `y + 1` of a 16-wide prediction in the two 128-bit lanes.
///
/// # Safety
/// Requires AVX2 and 16 readable bytes at both rows of every source.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn rows2_16<const AVG: bool>(p: Rows<AVG>, y: usize) -> __m256i {
    _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(p.load16(y, 0)), p.load16(y + 1, 0))
}

/// Reduces a `_mm256_sad_epu8` accumulator (four u64 lanes) to u32.
///
/// # Safety
/// Requires AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce_sad_acc(acc: __m256i) -> u32 {
    let s = _mm_add_epi64(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256::<1>(acc),
    );
    let s = _mm_add_epi64(s, _mm_shuffle_epi32(s, 0b0100_1110));
    _mm_cvtsi128_si32(s) as u32
}

/// Sum of the eight i32 lanes.
///
/// # Safety
/// Requires AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum256_epi32(v: __m256i) -> u32 {
    hsum_epi32(_mm_add_epi32(
        _mm256_castsi256_si128(v),
        _mm256_extracti128_si256::<1>(v),
    ))
}

// ---------------------------------------------------------------- SAD --

/// SAD of the block at `a` against `p` — or, with `AVG`, against the
/// rounded average of `p` and `q`.
///
/// # Safety
/// Requires AVX2; `w % 8 == 0` and slices covering the block geometry.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sad_avx2<const AVG: bool>(
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
    let mut acc = _mm256_setzero_si256();
    if w == 16 {
        // The dominant macroblock shape: two rows per 256-bit op.
        let mut y = 0;
        while y + 2 <= h {
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(rows2_16(cur, y), rows2_16(pred, y)));
            y += 2;
        }
        if y < h {
            let row = _mm_sad_epu8(cur.load16(y, 0), pred.load16(y, 0));
            acc = _mm256_add_epi64(acc, _mm256_zextsi128_si256(row));
        }
    } else {
        for y in 0..h {
            let mut x = 0;
            while x + 16 <= w {
                let row = _mm_sad_epu8(cur.load16(y, x), pred.load16(y, x));
                acc = _mm256_add_epi64(acc, _mm256_zextsi128_si256(row));
                x += 16;
            }
            while x + 8 <= w {
                let row = _mm_sad_epu8(cur.load8(y, x), pred.load8(y, x));
                acc = _mm256_add_epi64(acc, _mm256_zextsi128_si256(row));
                x += 8;
            }
        }
    }
    reduce_sad_acc(acc)
}

// --------------------------------------------------------------- SATD --
//
// The SSE2 tier's band algorithm (see there and DESIGN.md §9) on four
// tiles side by side; SSSE3's `psignw` and `pabsw` make the odd-lane
// negation and the magnitudes one instruction each.

/// One band of four tiles (lanes 4k..4k+3 of each row of differences):
/// the sum of every tile's eight pairwise maxima as eight i32 lanes.
///
/// # Safety
/// Requires AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn satd_band(d: [__m256i; 4]) -> __m256i {
    // Lanes alternate +1, −1: negate every odd column.
    let odd = _mm256_set1_epi32(0xFFFF_0001_u32 as i32);
    let stage = |r: __m256i| {
        let swapped =
            _mm256_shufflehi_epi16::<0b10_11_00_01>(_mm256_shufflelo_epi16::<0b10_11_00_01>(r));
        _mm256_abs_epi16(_mm256_add_epi16(_mm256_sign_epi16(r, odd), swapped))
    };
    let fold = |x: __m256i, y: __m256i| {
        let (x, y) = (_mm256_castsi256_ps(x), _mm256_castsi256_ps(y));
        _mm256_max_epi16(
            _mm256_castps_si256(_mm256_shuffle_ps::<0b10_00_10_00>(x, y)),
            _mm256_castps_si256(_mm256_shuffle_ps::<0b11_01_11_01>(x, y)),
        )
    };
    let (s01, t01) = (_mm256_add_epi16(d[0], d[1]), _mm256_sub_epi16(d[0], d[1]));
    let (s23, t23) = (_mm256_add_epi16(d[2], d[3]), _mm256_sub_epi16(d[2], d[3]));
    let h0 = stage(_mm256_add_epi16(s01, s23));
    let h1 = stage(_mm256_sub_epi16(s01, s23));
    let h2 = stage(_mm256_add_epi16(t01, t23));
    let h3 = stage(_mm256_sub_epi16(t01, t23));
    let maxima = _mm256_add_epi16(fold(h0, h1), fold(h2, h3));
    _mm256_madd_epi16(maxima, _mm256_set1_epi16(1))
}

/// SATD of the block at `a` against `p` — or, with `AVG`, against the
/// rounded average of `p` and `q`: `satd_scalar` exactly. 16-wide
/// columns take one band per register, an 8-wide column two (band `y` in
/// the low lane, band `y + 4` in the high one), a trailing 4-wide column
/// the SSE2 form.
///
/// # Safety
/// Requires AVX2; `w`, `h` multiples of 4 and slices covering the block
/// geometry.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn satd_avx2<const AVG: bool>(
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
    let mut acc = _mm256_setzero_si256();
    let mut x = 0;
    while x + 16 <= w {
        // Row cursors stepped one row per load: rows indexed from the
        // band origin leave LLVM a dozen live pointers in the fused form
        // (DESIGN.md §9).
        let (mut c, mut p) = (cur.at(0, x), pred.at(0, x));
        for _ in 0..h / 4 {
            let mut row = || {
                let d = _mm256_sub_epi16(
                    _mm256_cvtepu8_epi16(c.load16(0, 0)),
                    _mm256_cvtepu8_epi16(p.load16(0, 0)),
                );
                (c, p) = (c.at(1, 0), p.at(1, 0));
                d
            };
            let d = [row(), row(), row(), row()];
            acc = _mm256_add_epi32(acc, satd_band(d));
        }
        x += 16;
    }
    if x + 8 <= w {
        let mut y = 0;
        while y < h {
            let pair = y + 4 < h;
            let row = |r: usize| {
                let (mut c, mut p) = (cur.load8(y + r, x), pred.load8(y + r, x));
                if pair {
                    c = _mm_unpacklo_epi64(c, cur.load8(y + 4 + r, x));
                    p = _mm_unpacklo_epi64(p, pred.load8(y + 4 + r, x));
                }
                _mm256_sub_epi16(_mm256_cvtepu8_epi16(c), _mm256_cvtepu8_epi16(p))
            };
            acc = _mm256_add_epi32(acc, satd_band([row(0), row(1), row(2), row(3)]));
            y += 8;
        }
        x += 8;
    }
    if x < w {
        let col = crate::sse2::satd_col4(cur, pred, x, h);
        acc = _mm256_add_epi32(acc, _mm256_zextsi128_si256(col));
    }
    hsum256_epi32(acc)
}

// ----------------------------------------------------------------- SSD --

/// # Safety
/// Requires AVX2; `w % 8 == 0`. Per-row sums fit i32 (`w * 255² < 2^31`
/// for any `w ≤ 16384`).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn ssd_avx2(
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
    let zero = _mm256_setzero_si256();
    let mut total = 0u64;
    for y in 0..h {
        let ra = a.as_ptr().add(y * a_stride);
        let rb = b.as_ptr().add(y * b_stride);
        let mut acc = _mm256_setzero_si256();
        let mut x = 0;
        while x + 32 <= w {
            let va = _mm256_loadu_si256(ra.add(x) as *const __m256i);
            let vb = _mm256_loadu_si256(rb.add(x) as *const __m256i);
            // Lane interleaving scrambles element order, which a sum
            // does not care about.
            let d_lo = _mm256_sub_epi16(
                _mm256_unpacklo_epi8(va, zero),
                _mm256_unpacklo_epi8(vb, zero),
            );
            let d_hi = _mm256_sub_epi16(
                _mm256_unpackhi_epi8(va, zero),
                _mm256_unpackhi_epi8(vb, zero),
            );
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d_lo, d_lo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d_hi, d_hi));
            x += 32;
        }
        while x + 16 <= w {
            let d = _mm256_sub_epi16(load16_epi16(ra.add(x)), load16_epi16(rb.add(x)));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
            x += 16;
        }
        while x + 8 <= w {
            let z = _mm_setzero_si128();
            let va = _mm_loadl_epi64(ra.add(x) as *const __m128i);
            let vb = _mm_loadl_epi64(rb.add(x) as *const __m128i);
            let d = _mm_sub_epi16(_mm_unpacklo_epi8(va, z), _mm_unpacklo_epi8(vb, z));
            acc = _mm256_add_epi32(acc, _mm256_zextsi128_si256(_mm_madd_epi16(d, d)));
            x += 8;
        }
        let row = hsum_epi32(_mm_add_epi32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256::<1>(acc),
        ));
        total += u64::from(row);
    }
    total
}

// ---------------------------------------------------------- copy/avg --

/// # Safety
/// Requires AVX2 and slices covering the block geometry (any width).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn copy_block_avx2(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    debug_assert!(h == 0 || dst.len() >= (h - 1) * dst_stride + w);
    debug_assert!(h == 0 || src.len() >= (h - 1) * src_stride + w);
    // Classify the width once per call, not once per row: a single loop
    // form per class lets the row loop compile to bare load/store pairs
    // instead of re-testing every tail size on every row.
    if w.is_multiple_of(32) {
        let mut s = src.as_ptr();
        let mut d = dst.as_mut_ptr();
        for _ in 0..h {
            let mut x = 0;
            while x < w {
                _mm256_storeu_si256(
                    d.add(x) as *mut __m256i,
                    _mm256_loadu_si256(s.add(x) as *const __m256i),
                );
                x += 32;
            }
            s = s.add(src_stride);
            d = d.add(dst_stride);
        }
    } else if w.is_multiple_of(16) {
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
/// Requires AVX2; `w % 8 == 0` and slices covering the block geometry.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn avg_block_avx2(
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
        let ra = a.as_ptr().add(y * a_stride);
        let rb = b.as_ptr().add(y * b_stride);
        let rd = dst.as_mut_ptr().add(y * dst_stride);
        let mut x = 0;
        while x + 32 <= w {
            let va = _mm256_loadu_si256(ra.add(x) as *const __m256i);
            let vb = _mm256_loadu_si256(rb.add(x) as *const __m256i);
            _mm256_storeu_si256(rd.add(x) as *mut __m256i, _mm256_avg_epu8(va, vb));
            x += 32;
        }
        while x + 16 <= w {
            let va = _mm_loadu_si128(ra.add(x) as *const __m128i);
            let vb = _mm_loadu_si128(rb.add(x) as *const __m128i);
            _mm_storeu_si128(rd.add(x) as *mut __m128i, _mm_avg_epu8(va, vb));
            x += 16;
        }
        while x + 8 <= w {
            let va = _mm_loadl_epi64(ra.add(x) as *const __m128i);
            let vb = _mm_loadl_epi64(rb.add(x) as *const __m128i);
            _mm_storel_epi64(rd.add(x) as *mut __m128i, _mm_avg_epu8(va, vb));
            x += 8;
        }
    }
}

// ------------------------------------------------------- interpolation --

/// # Safety
/// Requires AVX2; `w % 8 == 0`; source readable one row/column beyond
/// the block for the interpolated positions.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn hpel_interp_avx2(
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
        (0, 0) => copy_block_avx2(dst, dst_stride, src, src_stride, w, h),
        (1, 0) => avg_block_avx2(
            dst,
            dst_stride,
            src,
            src_stride,
            &src[1..],
            src_stride,
            w,
            h,
        ),
        (0, 1) => avg_block_avx2(
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
            let two256 = _mm256_set1_epi16(2);
            let two128 = _mm_set1_epi16(2);
            let zero = _mm_setzero_si128();
            for y in 0..h {
                let mut x = 0;
                while x + 16 <= w {
                    let i = y * src_stride + x;
                    let a = load16_epi16(src.as_ptr().add(i));
                    let b = load16_epi16(src.as_ptr().add(i + 1));
                    let c = load16_epi16(src.as_ptr().add(i + src_stride));
                    let d = load16_epi16(src.as_ptr().add(i + src_stride + 1));
                    let sum = _mm256_add_epi16(_mm256_add_epi16(a, b), _mm256_add_epi16(c, d));
                    let avg = _mm256_srli_epi16::<2>(_mm256_add_epi16(sum, two256));
                    store16_u8(dst.as_mut_ptr().add(y * dst_stride + x), avg);
                    x += 16;
                }
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
                    let avg = _mm_srli_epi16(_mm_add_epi16(sum, two128), 2);
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

/// 16-lane 6-tap combiner at i16 precision (all intermediates fit).
///
/// # Safety
/// Requires AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sixtap256_epi16(
    m2: __m256i,
    m1: __m256i,
    z0: __m256i,
    p1: __m256i,
    p2: __m256i,
    p3: __m256i,
) -> __m256i {
    let twenty = _mm256_set1_epi16(20);
    let five = _mm256_set1_epi16(5);
    let center = _mm256_mullo_epi16(_mm256_add_epi16(z0, p1), twenty);
    let near = _mm256_mullo_epi16(_mm256_add_epi16(m1, p2), five);
    let far = _mm256_add_epi16(m2, p3);
    _mm256_add_epi16(_mm256_sub_epi16(center, near), far)
}

/// # Safety
/// Requires AVX2; `w % 8 == 0`; each row must have `w + 5` readable
/// samples.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sixtap_h_avx2(
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
    let w16 = w & !15;
    let sixteen = _mm256_set1_epi16(16);
    for y in 0..h {
        let mut x = 0;
        while x + 16 <= w {
            let base = src.as_ptr().add(y * src_stride + x);
            let v = sixtap256_epi16(
                load16_epi16(base),
                load16_epi16(base.add(1)),
                load16_epi16(base.add(2)),
                load16_epi16(base.add(3)),
                load16_epi16(base.add(4)),
                load16_epi16(base.add(5)),
            );
            let rounded = _mm256_srai_epi16::<5>(_mm256_add_epi16(v, sixteen));
            store16_u8(dst.as_mut_ptr().add(y * dst_stride + x), rounded);
            x += 16;
        }
    }
    if w16 < w {
        crate::sse2::sixtap_h_sse2(
            &mut dst[w16..],
            dst_stride,
            &src[w16..],
            src_stride,
            w - w16,
            h,
        );
    }
}

/// # Safety
/// Requires AVX2; `w % 8 == 0`; `h + 5` rows must be readable.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sixtap_v_avx2(
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
    let w16 = w & !15;
    let sixteen = _mm256_set1_epi16(16);
    for y in 0..h {
        let mut x = 0;
        while x + 16 <= w {
            let base = src.as_ptr().add(y * src_stride + x);
            let v = sixtap256_epi16(
                load16_epi16(base),
                load16_epi16(base.add(src_stride)),
                load16_epi16(base.add(2 * src_stride)),
                load16_epi16(base.add(3 * src_stride)),
                load16_epi16(base.add(4 * src_stride)),
                load16_epi16(base.add(5 * src_stride)),
            );
            let rounded = _mm256_srai_epi16::<5>(_mm256_add_epi16(v, sixteen));
            store16_u8(dst.as_mut_ptr().add(y * dst_stride + x), rounded);
            x += 16;
        }
    }
    if w16 < w {
        crate::sse2::sixtap_v_sse2(
            &mut dst[w16..],
            dst_stride,
            &src[w16..],
            src_stride,
            w - w16,
            h,
        );
    }
}

/// Combined 6-tap, 16 columns per op; same exact scheme as the SSE2
/// kernel (unrounded i16 horizontal pass, madd vertical pass).
///
/// # Safety
/// Requires AVX2; `w % 8 == 0`, `w ≤ 16`, `h ≤ HV_MAX_ROWS`; `src` must
/// cover `h + 5` rows of `w + 5` samples.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sixtap_hv_avx2(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    debug_assert!(w.is_multiple_of(8) && w <= 16 && h <= HV_MAX_ROWS);
    if w != 16 {
        crate::sse2::sixtap_hv_sse2(dst, dst_stride, src, src_stride, w, h);
        return;
    }
    debug_assert!(h == 0 || dst.len() >= (h - 1) * dst_stride + w);
    debug_assert!(src.len() >= (h + 4) * src_stride + w + 5);
    let mut tmp = [0i16; 16 * (HV_MAX_ROWS + 5)];
    let tmp_h = h + 5;
    for ty in 0..tmp_h {
        let base = src.as_ptr().add(ty * src_stride);
        let v = sixtap256_epi16(
            load16_epi16(base),
            load16_epi16(base.add(1)),
            load16_epi16(base.add(2)),
            load16_epi16(base.add(3)),
            load16_epi16(base.add(4)),
            load16_epi16(base.add(5)),
        );
        _mm256_storeu_si256(tmp.as_mut_ptr().add(ty * 16) as *mut __m256i, v);
    }
    let c01 = _mm256_set1_epi32(pack_taps(1, -5));
    let c23 = _mm256_set1_epi32(pack_taps(20, 20));
    let c45 = _mm256_set1_epi32(pack_taps(-5, 1));
    let round = _mm256_set1_epi32(512);
    for y in 0..h {
        let base = tmp.as_ptr().add(y * 16);
        let r0 = _mm256_loadu_si256(base as *const __m256i);
        let r1 = _mm256_loadu_si256(base.add(16) as *const __m256i);
        let r2 = _mm256_loadu_si256(base.add(32) as *const __m256i);
        let r3 = _mm256_loadu_si256(base.add(48) as *const __m256i);
        let r4 = _mm256_loadu_si256(base.add(64) as *const __m256i);
        let r5 = _mm256_loadu_si256(base.add(80) as *const __m256i);
        let acc_lo = _mm256_add_epi32(
            _mm256_add_epi32(
                _mm256_madd_epi16(_mm256_unpacklo_epi16(r0, r1), c01),
                _mm256_madd_epi16(_mm256_unpacklo_epi16(r2, r3), c23),
            ),
            _mm256_add_epi32(_mm256_madd_epi16(_mm256_unpacklo_epi16(r4, r5), c45), round),
        );
        let acc_hi = _mm256_add_epi32(
            _mm256_add_epi32(
                _mm256_madd_epi16(_mm256_unpackhi_epi16(r0, r1), c01),
                _mm256_madd_epi16(_mm256_unpackhi_epi16(r2, r3), c23),
            ),
            _mm256_add_epi32(_mm256_madd_epi16(_mm256_unpackhi_epi16(r4, r5), c45), round),
        );
        let res = _mm256_packs_epi32(
            _mm256_srai_epi32::<10>(acc_lo),
            _mm256_srai_epi32::<10>(acc_hi),
        );
        store16_u8(dst.as_mut_ptr().add(y * dst_stride), res);
    }
}

const fn pack_taps(even: i16, odd: i16) -> i32 {
    ((odd as u16 as i32) << 16) | (even as u16 as i32)
}

// ------------------------------------------------------ residual 8×8 --

/// # Safety
/// Requires AVX2; standard 8×8 block bounds.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn add_residual8_avx2(
    dst: &mut [u8],
    dst_stride: usize,
    pred: &[u8],
    pred_stride: usize,
    res: &Block8,
) {
    debug_assert!(dst.len() >= 7 * dst_stride + 8);
    debug_assert!(pred.len() >= 7 * pred_stride + 8);
    for y in [0usize, 2, 4, 6] {
        let p2 = _mm_unpacklo_epi64(
            _mm_loadl_epi64(pred.as_ptr().add(y * pred_stride) as *const __m128i),
            _mm_loadl_epi64(pred.as_ptr().add((y + 1) * pred_stride) as *const __m128i),
        );
        let p = _mm256_cvtepu8_epi16(p2);
        let r = _mm256_loadu_si256(res.as_ptr().add(y * 8) as *const __m256i);
        let sum = _mm256_adds_epi16(p, r);
        let packed = _mm256_packus_epi16(sum, sum);
        _mm_storel_epi64(
            dst.as_mut_ptr().add(y * dst_stride) as *mut __m128i,
            _mm256_castsi256_si128(packed),
        );
        _mm_storel_epi64(
            dst.as_mut_ptr().add((y + 1) * dst_stride) as *mut __m128i,
            _mm256_extracti128_si256::<1>(packed),
        );
    }
}

/// # Safety
/// Requires AVX2; standard 8×8 block bounds.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn diff_block8_avx2(
    res: &mut Block8,
    cur: &[u8],
    cur_stride: usize,
    pred: &[u8],
    pred_stride: usize,
) {
    debug_assert!(cur.len() >= 7 * cur_stride + 8);
    debug_assert!(pred.len() >= 7 * pred_stride + 8);
    for y in [0usize, 2, 4, 6] {
        let c2 = _mm_unpacklo_epi64(
            _mm_loadl_epi64(cur.as_ptr().add(y * cur_stride) as *const __m128i),
            _mm_loadl_epi64(cur.as_ptr().add((y + 1) * cur_stride) as *const __m128i),
        );
        let p2 = _mm_unpacklo_epi64(
            _mm_loadl_epi64(pred.as_ptr().add(y * pred_stride) as *const __m128i),
            _mm_loadl_epi64(pred.as_ptr().add((y + 1) * pred_stride) as *const __m128i),
        );
        _mm256_storeu_si256(
            res.as_mut_ptr().add(y * 8) as *mut __m256i,
            _mm256_sub_epi16(_mm256_cvtepu8_epi16(c2), _mm256_cvtepu8_epi16(p2)),
        );
    }
}

// -------------------------------------------------------- quantisation --

/// Exact `trunc(num / den)` for eight non-negative i32 lanes via
/// double-precision division (see the SSE2 kernel for the exactness
/// argument — it holds for all i32 operands).
///
/// # Safety
/// Requires AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn div_trunc_epi32_256(num: __m256i, den: __m256i) -> __m256i {
    let n_lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(num));
    let n_hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(num));
    let d_lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(den));
    let d_hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(den));
    let q_lo = _mm256_cvttpd_epi32(_mm256_div_pd(n_lo, d_lo));
    let q_hi = _mm256_cvttpd_epi32(_mm256_div_pd(n_hi, d_hi));
    _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(q_lo), q_hi)
}

/// Forward quantiser, bit-exact with `quant8_scalar`.
///
/// # Safety
/// Requires AVX2; `matrix[i] * qscale` must fit i16 (MPEG ranges).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn quant8_avx2(
    block: &mut Block8,
    matrix: &QuantMatrix,
    qscale: u16,
    intra: bool,
) -> u32 {
    debug_assert!(qscale >= 1);
    let qv = _mm256_set1_epi32(i32::from(qscale));
    let max_level = _mm256_set1_epi32(2047);
    let saved_dc = block[0];
    let mut nonzero = 0u32;
    for chunk in 0..8 {
        let v = _mm_loadu_si128(block.as_ptr().add(chunk * 8) as *const __m128i);
        let c = _mm256_cvtepi16_epi32(v);
        let m = _mm256_cvtepu16_epi32(_mm_loadu_si128(
            matrix.as_ptr().add(chunk * 8) as *const __m128i
        ));
        let div = _mm256_mullo_epi32(m, qv);
        let abs = _mm256_abs_epi32(c);
        let (num, den) = if intra {
            (
                _mm256_add_epi32(_mm256_slli_epi32::<5>(abs), div),
                _mm256_slli_epi32::<1>(div),
            )
        } else {
            (_mm256_slli_epi32::<4>(abs), div)
        };
        let q = _mm256_min_epi32(div_trunc_epi32_256(num, den), max_level);
        // sign(q, c): q where c > 0, -q where c < 0, 0 where c == 0
        // (the quotient is 0 for c == 0 anyway).
        let r = _mm256_sign_epi32(q, c);
        let packed = _mm_packs_epi32(_mm256_castsi256_si128(r), _mm256_extracti128_si256::<1>(r));
        _mm_storeu_si128(block.as_mut_ptr().add(chunk * 8) as *mut __m128i, packed);
        let zmask = _mm_movemask_epi8(_mm_cmpeq_epi16(packed, _mm_setzero_si128())) as u32;
        nonzero += 8 - zmask.count_ones() / 2;
    }
    if intra {
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

/// Inverse quantiser; 16 coefficients per iteration, same magnitude
/// scheme as the SSE2 kernel.
///
/// # Safety
/// Requires AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dequant8_avx2(
    block: &mut Block8,
    matrix: &QuantMatrix,
    qscale: u16,
    intra: bool,
) {
    let zero = _mm256_setzero_si256();
    let lo_clamp = _mm256_set1_epi32(-4096);
    let hi_clamp = _mm256_set1_epi32(4095);
    let saved_dc = block[0];
    let qv = _mm256_set1_epi16(qscale as i16);
    let shift = _mm_cvtsi32_si128(if intra { 4 } else { 5 });
    for chunk in 0..4 {
        let v = _mm256_loadu_si256(block.as_ptr().add(chunk * 16) as *const __m256i);
        let mrow = _mm256_loadu_si256(matrix.as_ptr().add(chunk * 16) as *const __m256i);
        let mq = _mm256_mullo_epi16(mrow, qv);

        let neg_mask = _mm256_cmpgt_epi16(zero, v);
        let abs = _mm256_abs_epi16(v);
        let nz_mask = _mm256_cmpeq_epi16(v, zero);
        let operand = if intra {
            abs
        } else {
            let two_plus = _mm256_add_epi16(_mm256_add_epi16(abs, abs), _mm256_set1_epi16(1));
            _mm256_andnot_si256(nz_mask, two_plus)
        };
        let op_lo = _mm256_unpacklo_epi16(operand, zero);
        let op_hi = _mm256_unpackhi_epi16(operand, zero);
        let mq_lo = _mm256_unpacklo_epi16(mq, zero);
        let mq_hi = _mm256_unpackhi_epi16(mq, zero);
        let prod_lo = _mm256_madd_epi16(op_lo, mq_lo);
        let prod_hi = _mm256_madd_epi16(op_hi, mq_hi);
        let res_lo = _mm256_max_epi32(
            lo_clamp,
            _mm256_min_epi32(hi_clamp, _mm256_srl_epi32(prod_lo, shift)),
        );
        let res_hi = _mm256_max_epi32(
            lo_clamp,
            _mm256_min_epi32(hi_clamp, _mm256_srl_epi32(prod_hi, shift)),
        );
        let packed = _mm256_packs_epi32(res_lo, res_hi);
        let signed = _mm256_sub_epi16(_mm256_xor_si256(packed, neg_mask), neg_mask);
        _mm256_storeu_si256(block.as_mut_ptr().add(chunk * 16) as *mut __m256i, signed);
    }
    if intra {
        block[0] = saved_dc;
    }
}

// ------------------------------------------------------------ deblock --

/// The deblocking filter's thresholds, broadcast to sixteen i16 lanes.
#[derive(Clone, Copy)]
struct DeblockParams {
    alpha: __m256i,
    beta: __m256i,
    tc: __m256i,
    neg_tc: __m256i,
}

impl DeblockParams {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn new(alpha: i32, beta: i32, tc: i32) -> Self {
        DeblockParams {
            alpha: _mm256_set1_epi16(alpha as i16),
            beta: _mm256_set1_epi16(beta as i16),
            tc: _mm256_set1_epi16(tc as i16),
            neg_tc: _mm256_set1_epi16(-tc as i16),
        }
    }

    /// The filter on sixteen sample quadruples (samples in `0..=255`):
    /// the delta that `p0 += delta`, `q0 -= delta` apply, zero in every
    /// lane whose edge is left alone.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn delta(&self, p1: __m256i, p0: __m256i, q0: __m256i, q1: __m256i) -> __m256i {
        let cond = _mm256_and_si256(
            _mm256_cmpgt_epi16(self.alpha, _mm256_abs_epi16(_mm256_sub_epi16(p0, q0))),
            _mm256_and_si256(
                _mm256_cmpgt_epi16(self.beta, _mm256_abs_epi16(_mm256_sub_epi16(p1, p0))),
                _mm256_cmpgt_epi16(self.beta, _mm256_abs_epi16(_mm256_sub_epi16(q1, q0))),
            ),
        );
        let diff4 = _mm256_slli_epi16::<2>(_mm256_sub_epi16(q0, p0));
        let raw = _mm256_srai_epi16::<3>(_mm256_add_epi16(
            _mm256_add_epi16(diff4, _mm256_sub_epi16(p1, q1)),
            _mm256_set1_epi16(4),
        ));
        let delta = _mm256_max_epi16(self.neg_tc, _mm256_min_epi16(self.tc, raw));
        _mm256_and_si256(delta, cond)
    }
}

/// Horizontal-edge deblock, 16 samples per op; SSE2/scalar tail.
///
/// # Safety
/// Requires AVX2 and a slice covering rows q0-2..=q0+1 over `width`
/// samples.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn deblock_horiz_edge_avx2(
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
    let params = DeblockParams::new(alpha, beta, tc);
    let mut x = 0;
    while x + 16 <= width {
        let i = q0_off + x;
        let p1 = load16_epi16(data.as_ptr().add(i - 2 * stride));
        let p0 = load16_epi16(data.as_ptr().add(i - stride));
        let q0 = load16_epi16(data.as_ptr().add(i));
        let q1 = load16_epi16(data.as_ptr().add(i + stride));
        let delta = params.delta(p1, p0, q0, q1);
        store16_u8(
            data.as_mut_ptr().add(i - stride),
            _mm256_add_epi16(p0, delta),
        );
        store16_u8(data.as_mut_ptr().add(i), _mm256_sub_epi16(q0, delta));
        x += 16;
    }
    if x < width {
        crate::sse2::deblock_horiz_edge_sse2(data, stride, q0_off + x, width - x, alpha, beta, tc);
    }
}

/// The SSE2 kernel's `deblock_vert_load` on eight edges of two rows: 32
/// bytes at `pa` and at `pb`. The packs interleave the rows within each
/// 128-bit half, so lanes 0–3 and 8–11 are the edges of row `pa` (left
/// to right), lanes 4–7 and 12–15 those of row `pb`; the unpacks undo it
/// half by half.
///
/// # Safety
/// Requires AVX2 and 32 readable and writable bytes at `pa` and `pb`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn deblock_vert_load(params: &DeblockParams, pa: *mut u8, pb: *mut u8, lanes: __m256i) {
    let byte = _mm256_set1_epi32(0xFF);
    let a = _mm256_loadu_si256(pa as *const __m256i);
    let b = _mm256_loadu_si256(pb as *const __m256i);
    let p1 = _mm256_packs_epi32(_mm256_and_si256(a, byte), _mm256_and_si256(b, byte));
    let p0 = _mm256_packs_epi32(
        _mm256_and_si256(_mm256_srli_epi32::<8>(a), byte),
        _mm256_and_si256(_mm256_srli_epi32::<8>(b), byte),
    );
    let q0 = _mm256_packs_epi32(
        _mm256_and_si256(_mm256_srli_epi32::<16>(a), byte),
        _mm256_and_si256(_mm256_srli_epi32::<16>(b), byte),
    );
    let q1 = _mm256_packs_epi32(_mm256_srli_epi32::<24>(a), _mm256_srli_epi32::<24>(b));
    let delta = _mm256_and_si256(params.delta(p1, p0, q0, q1), lanes);
    let packed = _mm256_packus_epi16(_mm256_add_epi16(p0, delta), _mm256_sub_epi16(q0, delta));
    let pq = _mm256_unpacklo_epi8(packed, _mm256_srli_si256::<8>(packed));
    let zero = _mm256_setzero_si256();
    let keep_p1_q1 = _mm256_set1_epi32(0xFF00_00FF_u32 as i32);
    let out_a = _mm256_or_si256(
        _mm256_and_si256(a, keep_p1_q1),
        _mm256_slli_epi32::<8>(_mm256_unpacklo_epi16(pq, zero)),
    );
    let out_b = _mm256_or_si256(
        _mm256_and_si256(b, keep_p1_q1),
        _mm256_slli_epi32::<8>(_mm256_unpackhi_epi16(pq, zero)),
    );
    _mm256_storeu_si256(pa as *mut __m256i, out_a);
    _mm256_storeu_si256(pb as *mut __m256i, out_b);
}

/// Vertical-edge deblock, eight edges of two rows per load pair — the
/// SSE2 kernel's plan with 32-byte loads (whole loads, then one masked
/// load ending at the last edge). Planes with fewer than eight edges go
/// to the SSE2 kernel.
///
/// # Safety
/// Requires AVX2 and a plane that fits `data`
/// ([`vert_edges_fit`](crate::deblock::vert_edges_fit)).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn deblock_vert_edges_avx2(
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
    let edges = crate::deblock::vector_edges(width, height, 8);
    if edges == 0 {
        return crate::sse2::deblock_vert_edges_sse2(data, stride, width, height, alpha, beta, tc);
    }
    let params = DeblockParams::new(alpha, beta, tc);
    let all = _mm256_set1_epi16(-1);
    let (loads, left) = (edges / 8, edges % 8);
    // Edge j of a load sits in lanes j and j + 4 (j < 4), or j + 4 and
    // j + 8 (j >= 4).
    let on = |lane: usize| {
        let j = lane % 4 + 4 * (lane / 8);
        -i16::from(j >= 8 - left)
    };
    let left_lanes: [i16; 16] = std::array::from_fn(on);
    let left_lanes = _mm256_loadu_si256(left_lanes.as_ptr().cast());
    let last_load = 4 * (edges - 7) - 2;
    let base = data.as_mut_ptr();
    let mut y = 0;
    while y < height {
        let (ra, rb) = (
            base.add(y * stride),
            base.add((y + 1).min(height - 1) * stride),
        );
        // As in the SSE2 kernel: every load ends at or before column
        // 4 * edges + 1 < width, and the overlapping one goes first.
        if left > 0 {
            deblock_vert_load(&params, ra.add(last_load), rb.add(last_load), left_lanes);
        }
        for g in 0..loads {
            deblock_vert_load(&params, ra.add(2 + 32 * g), rb.add(2 + 32 * g), all);
        }
        y += 2;
    }
    crate::deblock::deblock_vert_edges_after(edges, data, stride, width, height, alpha, beta, tc);
}

// ----------------------------------------------- dispatch-table entries --
//
// Safe, total entry points for the one-time kernel table resolved in
// `Dsp::new`. Width fallbacks mirror the SSE2 entries.
//
// SAFETY (all entries): this table is only reachable through `Dsp::new`,
// which selects it after `is_x86_feature_detected!("avx2")` succeeds;
// the debug assertion re-checks that invariant in debug builds.

#[inline]
fn assert_avx2() {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
}

fn sad_entry(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize, w: usize, h: usize) -> u32 {
    assert_avx2();
    if w.is_multiple_of(8) {
        unsafe { sad_avx2::<false>(a, a_stride, b, b, b_stride, w, h) }
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
    assert_avx2();
    if w.is_multiple_of(8) {
        unsafe { sad_avx2::<true>(a, a_stride, p, q, stride, w, h) }
    } else {
        crate::pixel::sad_avg_scalar(a, a_stride, p, q, stride, w, h)
    }
}

fn satd_entry(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize, w: usize, h: usize) -> u32 {
    assert_avx2();
    unsafe { satd_avx2::<false>(a, a_stride, b, b, b_stride, w, h) }
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
    assert_avx2();
    unsafe { satd_avx2::<true>(a, a_stride, p, q, stride, w, h) }
}

fn ssd_entry(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize, w: usize, h: usize) -> u64 {
    assert_avx2();
    if w.is_multiple_of(8) {
        unsafe { ssd_avx2(a, a_stride, b, b_stride, w, h) }
    } else {
        crate::pixel::ssd_scalar(a, a_stride, b, b_stride, w, h)
    }
}

fn fdct8_entry(block: &mut Block8) {
    // The 8×8 DCT stays on the SSE2 kernel: its transpose-heavy data
    // flow gains nothing from 256-bit lanes without a full rewrite.
    unsafe { crate::sse2::fdct8_sse2(block) }
}

fn idct8_entry(block: &mut Block8) {
    unsafe { crate::sse2::idct8_sse2(block) }
}

fn quant8_entry(block: &mut Block8, matrix: &QuantMatrix, qscale: u16, intra: bool) -> u32 {
    assert_avx2();
    unsafe { quant8_avx2(block, matrix, qscale, intra) }
}

fn dequant8_entry(block: &mut Block8, matrix: &QuantMatrix, qscale: u16, intra: bool) {
    assert_avx2();
    unsafe { dequant8_avx2(block, matrix, qscale, intra) }
}

fn copy_block_entry(
    dst: &mut [u8],
    dst_stride: usize,
    src: &[u8],
    src_stride: usize,
    w: usize,
    h: usize,
) {
    assert_avx2();
    unsafe { copy_block_avx2(dst, dst_stride, src, src_stride, w, h) }
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
    assert_avx2();
    if w.is_multiple_of(8) {
        unsafe { avg_block_avx2(dst, dst_stride, a, a_stride, b, b_stride, w, h) }
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
    assert_avx2();
    if w.is_multiple_of(8) {
        unsafe { hpel_interp_avx2(dst, dst_stride, src, src_stride, fx, fy, w, h) }
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
    assert_avx2();
    if w.is_multiple_of(8) {
        unsafe { sixtap_h_avx2(dst, dst_stride, src, src_stride, w, h) }
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
    assert_avx2();
    if w.is_multiple_of(8) {
        unsafe { sixtap_v_avx2(dst, dst_stride, src, src_stride, w, h) }
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
    assert_avx2();
    if w.is_multiple_of(8) && w <= 16 && h <= HV_MAX_ROWS {
        unsafe { sixtap_hv_avx2(dst, dst_stride, src, src_stride, w, h) }
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
    assert_avx2();
    unsafe { add_residual8_avx2(dst, dst_stride, pred, pred_stride, res) }
}

fn diff_block8_entry(
    res: &mut Block8,
    cur: &[u8],
    cur_stride: usize,
    pred: &[u8],
    pred_stride: usize,
) {
    assert_avx2();
    unsafe { diff_block8_avx2(res, cur, cur_stride, pred, pred_stride) }
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
    assert_avx2();
    unsafe { deblock_horiz_edge_avx2(data, stride, q0_off, width, alpha, beta, tc) }
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
    assert_avx2();
    // SAFETY: the one caller, `Dsp::deblock_vert_edges`, asserts that
    // the plane fits `data` (`vert_edges_fit`), the kernel's precondition.
    unsafe { deblock_vert_edges_avx2(data, stride, width, height, alpha, beta, tc) }
}

// -------------------------------------------------------------- scale --

/// # Safety
/// Requires AVX2 plus the geometry contract of the scalar kernel: every
/// `offsets[i] + 4 <= src.len()` and `dst`/`taps` sized for `offsets`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn scale_row_h_avx2(dst: &mut [u8], src: &[u8], offsets: &[u32], taps: &[i16]) {
    debug_assert_eq!(offsets.len() * 4, taps.len());
    debug_assert!(dst.len() >= offsets.len());
    let n = offsets.len();
    let round = _mm256_set1_epi32(64);
    let zero = _mm256_setzero_si256();
    let mut i = 0;
    while i + 8 <= n {
        // Eight output pixels, one 4-byte source window each.
        let win = |k: usize| {
            u32::from_le_bytes(src[offsets[i + k] as usize..][..4].try_into().unwrap()) as i32
        };
        let px = _mm256_set_epi32(
            win(7),
            win(6),
            win(5),
            win(4),
            win(3),
            win(2),
            win(1),
            win(0),
        );
        // Per 128-bit lane: lo = windows {0,1 | 4,5}, hi = {2,3 | 6,7}.
        let lo = _mm256_unpacklo_epi8(px, zero);
        let hi = _mm256_unpackhi_epi8(px, zero);
        // taps[4i..4i+32] is 8 windows × 4 coefficients; regroup so the
        // coefficient lanes line up with the unpacked pixel lanes.
        let cl = _mm256_loadu_si256(taps.as_ptr().add(4 * i).cast()); // w0..w3
        let ch = _mm256_loadu_si256(taps.as_ptr().add(4 * i + 16).cast()); // w4..w7
        let c_lo = _mm256_permute2x128_si256::<0x20>(cl, ch); // {w0,w1 | w4,w5}
        let c_hi = _mm256_permute2x128_si256::<0x31>(cl, ch); // {w2,w3 | w6,w7}
        let m0 = _mm256_madd_epi16(lo, c_lo);
        let m1 = _mm256_madd_epi16(hi, c_hi);
        // Fold partial pairs, then gather all eight sums in lane order.
        let s0 = _mm256_add_epi32(m0, _mm256_shuffle_epi32::<0b10_11_00_01>(m0));
        let s1 = _mm256_add_epi32(m1, _mm256_shuffle_epi32::<0b10_11_00_01>(m1));
        let a02 = _mm256_shuffle_epi32::<0b10_00_10_00>(s0);
        let b02 = _mm256_shuffle_epi32::<0b10_00_10_00>(s1);
        let eight = _mm256_unpacklo_epi64(a02, b02); // {p0..p3 | p4..p7}
        let r = _mm256_srai_epi32::<7>(_mm256_add_epi32(eight, round));
        let p16 = _mm256_packs_epi32(r, r);
        let p8 = _mm256_packus_epi16(p16, p16);
        let lo4 = _mm_cvtsi128_si32(_mm256_castsi256_si128(p8)) as u32;
        let hi4 = _mm_cvtsi128_si32(_mm256_extracti128_si256::<1>(p8)) as u32;
        dst[i..i + 4].copy_from_slice(&lo4.to_le_bytes());
        dst[i + 4..i + 8].copy_from_slice(&hi4.to_le_bytes());
        i += 8;
    }
    if i < n {
        crate::scale::scale_row_h_scalar(&mut dst[i..n], src, &offsets[i..], &taps[4 * i..]);
    }
}

/// # Safety
/// Requires AVX2 and rows at least as long as `dst`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn scale_row_v_avx2(
    dst: &mut [u8],
    r0: &[u8],
    r1: &[u8],
    r2: &[u8],
    r3: &[u8],
    c: &[i16; 4],
) {
    let w = dst.len();
    debug_assert!(r0.len() >= w && r1.len() >= w && r2.len() >= w && r3.len() >= w);
    let c01 = _mm256_set1_epi32((c[0] as u16 as i32) | ((c[1] as i32) << 16));
    let c23 = _mm256_set1_epi32((c[2] as u16 as i32) | ((c[3] as i32) << 16));
    let round = _mm256_set1_epi32(64);
    let zero = _mm256_setzero_si256();
    let mut x = 0;
    while x + 32 <= w {
        let v0 = _mm256_loadu_si256(r0.as_ptr().add(x).cast());
        let v1 = _mm256_loadu_si256(r1.as_ptr().add(x).cast());
        let v2 = _mm256_loadu_si256(r2.as_ptr().add(x).cast());
        let v3 = _mm256_loadu_si256(r3.as_ptr().add(x).cast());
        // Per-lane interleave keeps unpack/pack symmetric, so the final
        // pack restores pixel order without a cross-lane permute.
        let i01 = _mm256_unpacklo_epi8(v0, v1);
        let i01h = _mm256_unpackhi_epi8(v0, v1);
        let i23 = _mm256_unpacklo_epi8(v2, v3);
        let i23h = _mm256_unpackhi_epi8(v2, v3);
        let a0 = _mm256_madd_epi16(_mm256_unpacklo_epi8(i01, zero), c01);
        let a1 = _mm256_madd_epi16(_mm256_unpackhi_epi8(i01, zero), c01);
        let a2 = _mm256_madd_epi16(_mm256_unpacklo_epi8(i01h, zero), c01);
        let a3 = _mm256_madd_epi16(_mm256_unpackhi_epi8(i01h, zero), c01);
        let b0 = _mm256_madd_epi16(_mm256_unpacklo_epi8(i23, zero), c23);
        let b1 = _mm256_madd_epi16(_mm256_unpackhi_epi8(i23, zero), c23);
        let b2 = _mm256_madd_epi16(_mm256_unpacklo_epi8(i23h, zero), c23);
        let b3 = _mm256_madd_epi16(_mm256_unpackhi_epi8(i23h, zero), c23);
        let s0 = _mm256_srai_epi32::<7>(_mm256_add_epi32(_mm256_add_epi32(a0, b0), round));
        let s1 = _mm256_srai_epi32::<7>(_mm256_add_epi32(_mm256_add_epi32(a1, b1), round));
        let s2 = _mm256_srai_epi32::<7>(_mm256_add_epi32(_mm256_add_epi32(a2, b2), round));
        let s3 = _mm256_srai_epi32::<7>(_mm256_add_epi32(_mm256_add_epi32(a3, b3), round));
        let lo16 = _mm256_packs_epi32(s0, s1);
        let hi16 = _mm256_packs_epi32(s2, s3);
        let out = _mm256_packus_epi16(lo16, hi16);
        _mm256_storeu_si256(dst.as_mut_ptr().add(x).cast(), out);
        x += 32;
    }
    if x < w {
        crate::scale::scale_row_v_scalar(&mut dst[x..], &r0[x..], &r1[x..], &r2[x..], &r3[x..], c);
    }
}

fn scale_h_entry(dst: &mut [u8], src: &[u8], offsets: &[u32], taps: &[i16]) {
    assert_avx2();
    unsafe { scale_row_h_avx2(dst, src, offsets, taps) }
}

fn scale_v_entry(dst: &mut [u8], r0: &[u8], r1: &[u8], r2: &[u8], r3: &[u8], c: &[i16; 4]) {
    assert_avx2();
    unsafe { scale_row_v_avx2(dst, r0, r1, r2, r3, c) }
}

/// The AVX2 tier's resolved kernel table.
pub(crate) static AVX2_KERNELS: KernelTable = KernelTable {
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
