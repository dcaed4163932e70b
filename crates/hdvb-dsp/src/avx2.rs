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

/// Loads rows `y` and `y+1` (16 bytes each) into the two 128-bit lanes.
///
/// # Safety
/// Requires AVX2 and 16 readable bytes at both row offsets.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_2rows_16(p: &[u8], stride: usize, y: usize) -> __m256i {
    let r0 = _mm_loadu_si128(p.as_ptr().add(y * stride) as *const __m128i);
    let r1 = _mm_loadu_si128(p.as_ptr().add((y + 1) * stride) as *const __m128i);
    _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(r0), r1)
}

/// Horizontal sum of four i32 lanes.
///
/// # Safety
/// Requires SSE2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: __m128i) -> u32 {
    let s1 = _mm_add_epi32(v, _mm_shuffle_epi32(v, 0b0100_1110));
    let s2 = _mm_add_epi32(s1, _mm_shuffle_epi32(s1, 0b1011_0001));
    _mm_cvtsi128_si32(s2) as u32
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

// ---------------------------------------------------------------- SAD --

/// # Safety
/// Requires AVX2; `w % 8 == 0` and slices covering the block geometry.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sad_avx2(
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
    let mut acc = _mm256_setzero_si256();
    if w == 16 {
        // The dominant macroblock shape: two rows per 256-bit op.
        let mut y = 0;
        while y + 2 <= h {
            let va = load_2rows_16(a, a_stride, y);
            let vb = load_2rows_16(b, b_stride, y);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
            y += 2;
        }
        if y < h {
            let va = _mm_loadu_si128(a.as_ptr().add(y * a_stride) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(y * b_stride) as *const __m128i);
            acc = _mm256_add_epi64(acc, _mm256_zextsi128_si256(_mm_sad_epu8(va, vb)));
        }
    } else {
        for y in 0..h {
            let ra = a.as_ptr().add(y * a_stride);
            let rb = b.as_ptr().add(y * b_stride);
            let mut x = 0;
            while x + 32 <= w {
                let va = _mm256_loadu_si256(ra.add(x) as *const __m256i);
                let vb = _mm256_loadu_si256(rb.add(x) as *const __m256i);
                acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
                x += 32;
            }
            while x + 16 <= w {
                let va = _mm_loadu_si128(ra.add(x) as *const __m128i);
                let vb = _mm_loadu_si128(rb.add(x) as *const __m128i);
                acc = _mm256_add_epi64(acc, _mm256_zextsi128_si256(_mm_sad_epu8(va, vb)));
                x += 16;
            }
            while x + 8 <= w {
                let va = _mm_loadl_epi64(ra.add(x) as *const __m128i);
                let vb = _mm_loadl_epi64(rb.add(x) as *const __m128i);
                acc = _mm256_add_epi64(acc, _mm256_zextsi128_si256(_mm_sad_epu8(va, vb)));
                x += 8;
            }
        }
    }
    reduce_sad_acc(acc)
}

// --------------------------------------------------------------- SATD --

/// 256-bit variant of the SSE2 `hstage`: the shuffles operate within
/// each 128-bit lane, so two tiles transform independently side by side.
///
/// # Safety
/// Requires AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hstage256(v: __m256i, dist1: bool) -> __m256i {
    let (shuffled, mask) = if dist1 {
        let s = _mm256_shufflehi_epi16::<0b10_11_00_01>(_mm256_shufflelo_epi16::<0b10_11_00_01>(v));
        let m = _mm256_set_epi16(-1, 0, -1, 0, -1, 0, -1, 0, -1, 0, -1, 0, -1, 0, -1, 0);
        (s, m)
    } else {
        let s = _mm256_shufflehi_epi16::<0b01_00_11_10>(_mm256_shufflelo_epi16::<0b01_00_11_10>(v));
        let m = _mm256_set_epi16(-1, -1, 0, 0, -1, -1, 0, 0, -1, -1, 0, 0, -1, -1, 0, 0);
        (s, m)
    };
    let sum = _mm256_add_epi16(v, shuffled);
    let diff = _mm256_sub_epi16(v, shuffled);
    _mm256_or_si256(_mm256_andnot_si256(mask, sum), _mm256_and_si256(mask, diff))
}

/// Loads rows `y`/`y+1` of two horizontally adjacent 4×4 tiles: lane 0
/// gets tile 0 `[row y | row y+1]`, lane 1 tile 1.
///
/// # Safety
/// Requires AVX2 and 8 readable bytes at both row offsets.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_row_pair_x2(p: &[u8], stride: usize, y: usize) -> __m256i {
    let zero = _mm_setzero_si128();
    let r0 = _mm_loadl_epi64(p.as_ptr().add(y * stride) as *const __m128i);
    let r1 = _mm_loadl_epi64(p.as_ptr().add((y + 1) * stride) as *const __m128i);
    let w0 = _mm_unpacklo_epi8(r0, zero);
    let w1 = _mm_unpacklo_epi8(r1, zero);
    let lane0 = _mm_unpacklo_epi64(w0, w1);
    let lane1 = _mm_unpackhi_epi64(w0, w1);
    _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(lane0), lane1)
}

/// SATD of two horizontally adjacent 4×4 tiles, one per 128-bit lane.
/// Each tile's sum is normalised (`/ 2`) separately, matching the
/// scalar per-tile accumulation exactly.
///
/// # Safety
/// Requires AVX2 and 4 rows of 8 readable bytes at each offset.
#[target_feature(enable = "avx2")]
unsafe fn satd4x4_pair(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize) -> u32 {
    let a01 = load_row_pair_x2(a, a_stride, 0);
    let a23 = load_row_pair_x2(a, a_stride, 2);
    let b01 = load_row_pair_x2(b, b_stride, 0);
    let b23 = load_row_pair_x2(b, b_stride, 2);
    let d01 = _mm256_sub_epi16(a01, b01);
    let d23 = _mm256_sub_epi16(a23, b23);

    let t0 = _mm256_add_epi16(d01, d23);
    let t1 = _mm256_sub_epi16(d01, d23);
    let u0 = _mm256_unpacklo_epi64(t0, t1);
    let u1 = _mm256_unpackhi_epi64(t0, t1);
    let m0 = _mm256_add_epi16(u0, u1);
    let m1 = _mm256_sub_epi16(u0, u1);

    let h0 = hstage256(hstage256(m0, false), true);
    let h1 = hstage256(hstage256(m1, false), true);

    let ones = _mm256_set1_epi16(1);
    let sum = _mm256_add_epi32(
        _mm256_madd_epi16(_mm256_abs_epi16(h0), ones),
        _mm256_madd_epi16(_mm256_abs_epi16(h1), ones),
    );
    hsum_epi32(_mm256_castsi256_si128(sum)) / 2 + hsum_epi32(_mm256_extracti128_si256::<1>(sum)) / 2
}

/// # Safety
/// Requires AVX2 and block geometry within the slices; `w`, `h`
/// multiples of 4.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn satd_avx2(
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
    let w_pair = w & !7;
    let mut sum = 0u32;
    let mut y = 0;
    while y < h {
        let mut x = 0;
        while x + 8 <= w {
            sum += satd4x4_pair(
                &a[y * a_stride + x..],
                a_stride,
                &b[y * b_stride + x..],
                b_stride,
            );
            x += 8;
        }
        y += 4;
    }
    if w_pair < w {
        // Odd trailing 4-wide column: one tile at a time via SSE2.
        sum += crate::sse2::satd_sse2(
            &a[w_pair..],
            a_stride,
            &b[w_pair..],
            b_stride,
            w - w_pair,
            h,
        );
    }
    sum
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
    let valpha = _mm256_set1_epi16(alpha as i16);
    let vbeta = _mm256_set1_epi16(beta as i16);
    let vtc = _mm256_set1_epi16(tc as i16);
    let vntc = _mm256_set1_epi16(-tc as i16);
    let four = _mm256_set1_epi16(4);
    let mut x = 0;
    while x + 16 <= width {
        let i = q0_off + x;
        let p1 = load16_epi16(data.as_ptr().add(i - 2 * stride));
        let p0 = load16_epi16(data.as_ptr().add(i - stride));
        let q0 = load16_epi16(data.as_ptr().add(i));
        let q1 = load16_epi16(data.as_ptr().add(i + stride));
        let cond = _mm256_and_si256(
            _mm256_cmpgt_epi16(valpha, _mm256_abs_epi16(_mm256_sub_epi16(p0, q0))),
            _mm256_and_si256(
                _mm256_cmpgt_epi16(vbeta, _mm256_abs_epi16(_mm256_sub_epi16(p1, p0))),
                _mm256_cmpgt_epi16(vbeta, _mm256_abs_epi16(_mm256_sub_epi16(q1, q0))),
            ),
        );
        let diff4 = _mm256_slli_epi16::<2>(_mm256_sub_epi16(q0, p0));
        let raw = _mm256_srai_epi16::<3>(_mm256_add_epi16(
            _mm256_add_epi16(diff4, _mm256_sub_epi16(p1, q1)),
            four,
        ));
        let delta = _mm256_max_epi16(vntc, _mm256_min_epi16(vtc, raw));
        let masked = _mm256_and_si256(delta, cond);
        store16_u8(
            data.as_mut_ptr().add(i - stride),
            _mm256_add_epi16(p0, masked),
        );
        store16_u8(data.as_mut_ptr().add(i), _mm256_sub_epi16(q0, masked));
        x += 16;
    }
    if x < width {
        crate::sse2::deblock_horiz_edge_sse2(data, stride, q0_off + x, width - x, alpha, beta, tc);
    }
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
        unsafe { sad_avx2(a, a_stride, b, b_stride, w, h) }
    } else {
        crate::pixel::sad_scalar(a, a_stride, b, b_stride, w, h)
    }
}

fn satd_entry(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize, w: usize, h: usize) -> u32 {
    assert_avx2();
    unsafe { satd_avx2(a, a_stride, b, b_stride, w, h) }
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
