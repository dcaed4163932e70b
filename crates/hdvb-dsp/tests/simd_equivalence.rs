//! Property tests asserting that every dispatched kernel produces
//! bit-identical results at every supported [`SimdLevel`] — scalar,
//! SSE2, and (on capable hardware) AVX2.
//!
//! This equivalence is what lets the Figure-1 harness encode each stream
//! once and decode it under every SIMD setting (and vice versa): the
//! codec builds differ in speed only, never in output — the same property
//! the original benchmark gets from FFmpeg/x264's SIMD being bit-exact
//! with their C paths.

use hdvb_dsp::{Block8, Dsp, SimdLevel, MPEG_DEFAULT_INTRA, MPEG_DEFAULT_NONINTRA};
use proptest::prelude::*;

/// The scalar reference plus one `Dsp` per accelerated tier this CPU
/// supports (SSE2 always on x86-64; AVX2 when detected).
fn reference_and_tiers() -> (Dsp, Vec<Dsp>) {
    let tiers: Vec<Dsp> = SimdLevel::supported_tiers()
        .into_iter()
        .filter(|l| *l != SimdLevel::Scalar)
        .map(Dsp::new)
        .collect();
    (Dsp::new(SimdLevel::Scalar), tiers)
}

fn pixels(len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), len)
}

/// Every SATD block shape with sides in {4, 8, …, 24}.
fn satd_shapes() -> impl Iterator<Item = (usize, usize)> {
    (1..=6).flat_map(|i| (1..=6).map(move |j| (4 * i, 4 * j)))
}

/// The SATD shapes the fused compares take: at most 256 samples, the
/// stack buffer of their scalar definition.
fn avg_shapes() -> impl Iterator<Item = (usize, usize)> {
    satd_shapes().filter(|&(w, h)| w * h <= 256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sad_matches(a in pixels(24 * 24), b in pixels(24 * 24)) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            for &(w, h) in &[(16usize, 16usize), (8, 8), (16, 8), (8, 16), (8, 4)] {
                prop_assert_eq!(
                    s.sad(&a, 24, &b, 24, w, h),
                    v.sad(&a, 24, &b, 24, w, h),
                    "{} {}x{}", v.level().tier_name(), w, h
                );
            }
        }
    }

    #[test]
    fn satd_matches(a in pixels(24 * 24), b in pixels(24 * 24)) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            for (w, h) in satd_shapes() {
                prop_assert_eq!(
                    s.satd(&a, 24, &b, 24, w, h),
                    v.satd(&a, 24, &b, 24, w, h),
                    "{} {}x{}", v.level().tier_name(), w, h
                );
            }
        }
    }

    #[test]
    fn sad_avg_matches(cur in pixels(24 * 24), p in pixels(24 * 24), q in pixels(24 * 24)) {
        let (s, tiers) = reference_and_tiers();
        for v in std::iter::once(&s).chain(&tiers) {
            for (w, h) in avg_shapes() {
                let mut avg = [0u8; 256];
                s.avg_block(&mut avg, w, &p, 24, &q, 24, w, h);
                prop_assert_eq!(
                    v.sad_fn().avg(&cur, 24, &p, &q, 24, w, h),
                    s.sad(&cur, 24, &avg, w, w, h),
                    "{} {}x{}", v.level().tier_name(), w, h
                );
            }
        }
    }

    #[test]
    fn satd_avg_matches(cur in pixels(24 * 24), p in pixels(24 * 24), q in pixels(24 * 24)) {
        let (s, tiers) = reference_and_tiers();
        for v in std::iter::once(&s).chain(&tiers) {
            for (w, h) in avg_shapes() {
                let mut avg = [0u8; 256];
                s.avg_block(&mut avg, w, &p, 24, &q, 24, w, h);
                prop_assert_eq!(
                    v.satd_fn().avg(&cur, 24, &p, &q, 24, w, h),
                    s.satd(&cur, 24, &avg, w, w, h),
                    "{} {}x{}", v.level().tier_name(), w, h
                );
            }
        }
    }

    #[test]
    fn ssd_matches(a in pixels(24 * 24), b in pixels(24 * 24)) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            for &(w, h) in &[(16usize, 16usize), (8, 8), (16, 8), (8, 4)] {
                prop_assert_eq!(
                    s.ssd(&a, 24, &b, 24, w, h),
                    v.ssd(&a, 24, &b, 24, w, h),
                    "{} {}x{}", v.level().tier_name(), w, h
                );
            }
        }
    }

    #[test]
    fn fdct8_matches(vals in proptest::collection::vec(-256i16..=255, 64)) {
        let (s, tiers) = reference_and_tiers();
        let mut expect: Block8 = vals.clone().try_into().unwrap();
        s.fdct8(&mut expect);
        for v in &tiers {
            let mut b: Block8 = vals.clone().try_into().unwrap();
            v.fdct8(&mut b);
            prop_assert_eq!(b, expect, "{}", v.level().tier_name());
        }
    }

    #[test]
    fn idct8_matches(vals in proptest::collection::vec(-4095i16..=4095, 64)) {
        let (s, tiers) = reference_and_tiers();
        let mut expect: Block8 = vals.clone().try_into().unwrap();
        s.idct8(&mut expect);
        for v in &tiers {
            let mut b: Block8 = vals.clone().try_into().unwrap();
            v.idct8(&mut b);
            prop_assert_eq!(b, expect, "{}", v.level().tier_name());
        }
    }

    #[test]
    fn dct8_roundtrip_within_tolerance(vals in proptest::collection::vec(-255i16..=255, 64)) {
        let dsp = Dsp::new(SimdLevel::detect());
        let orig: Block8 = vals.try_into().unwrap();
        let mut b = orig;
        dsp.fdct8(&mut b);
        dsp.idct8(&mut b);
        for i in 0..64 {
            prop_assert!((i32::from(b[i]) - i32::from(orig[i])).abs() <= 2, "sample {}", i);
        }
    }

    #[test]
    fn quant8_matches(
        vals in proptest::collection::vec(-2040i16..=2040, 64),
        qscale in 1u16..=31,
        intra in any::<bool>(),
    ) {
        let (s, tiers) = reference_and_tiers();
        let matrix = if intra { &MPEG_DEFAULT_INTRA } else { &MPEG_DEFAULT_NONINTRA };
        let mut expect: Block8 = vals.clone().try_into().unwrap();
        let n_expect = s.quant8(&mut expect, matrix, qscale, intra);
        for v in &tiers {
            let mut b: Block8 = vals.clone().try_into().unwrap();
            let n = v.quant8(&mut b, matrix, qscale, intra);
            prop_assert_eq!(n, n_expect, "{}", v.level().tier_name());
            prop_assert_eq!(b, expect, "{}", v.level().tier_name());
        }
    }

    #[test]
    fn dequant8_matches(
        vals in proptest::collection::vec(-2047i16..=2047, 64),
        qscale in 1u16..=62,
        intra in any::<bool>(),
    ) {
        let (s, tiers) = reference_and_tiers();
        let matrix = if intra { &MPEG_DEFAULT_INTRA } else { &MPEG_DEFAULT_NONINTRA };
        let mut expect: Block8 = vals.clone().try_into().unwrap();
        s.dequant8(&mut expect, matrix, qscale, intra);
        for v in &tiers {
            let mut b: Block8 = vals.clone().try_into().unwrap();
            v.dequant8(&mut b, matrix, qscale, intra);
            prop_assert_eq!(b, expect, "{}", v.level().tier_name());
        }
    }

    #[test]
    fn copy_block_matches(src in pixels(40 * 36)) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            for &(w, h) in &[(32usize, 32usize), (16, 16), (8, 8), (12, 4), (5, 3)] {
                let mut d1 = vec![0u8; 40 * 36];
                let mut d2 = vec![0u8; 40 * 36];
                s.copy_block(&mut d1, 40, &src, 40, w, h);
                v.copy_block(&mut d2, 40, &src, 40, w, h);
                prop_assert_eq!(&d1, &d2, "{} {}x{}", v.level().tier_name(), w, h);
            }
        }
    }

    #[test]
    fn avg_block_matches(a in pixels(20 * 16), b in pixels(20 * 16)) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            for &(w, h) in &[(16usize, 16usize), (8, 8), (16, 4)] {
                let mut d1 = vec![0u8; 20 * 16];
                let mut d2 = vec![0u8; 20 * 16];
                s.avg_block(&mut d1, 20, &a, 20, &b, 20, w, h);
                v.avg_block(&mut d2, 20, &a, 20, &b, 20, w, h);
                prop_assert_eq!(&d1, &d2, "{} {}x{}", v.level().tier_name(), w, h);
            }
        }
    }

    #[test]
    fn hpel_interp_matches(src in pixels(40 * 24), fx in 0u8..2, fy in 0u8..2) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            let mut d1 = vec![0u8; 16 * 16];
            let mut d2 = vec![0u8; 16 * 16];
            // Block origin inside the buffer, room for +1 in both directions.
            s.hpel_interp(&mut d1, 16, &src[4 * 40 + 4..], 40, fx, fy, 16, 16);
            v.hpel_interp(&mut d2, 16, &src[4 * 40 + 4..], 40, fx, fy, 16, 16);
            prop_assert_eq!(d1, d2, "{} {},{}", v.level().tier_name(), fx, fy);
        }
    }

    #[test]
    fn sixtap_h_matches(src in pixels(48 * 24)) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            for &(w, h) in &[(16usize, 16usize), (8, 8), (8, 4)] {
                let mut d1 = vec![0u8; 16 * 16];
                let mut d2 = vec![0u8; 16 * 16];
                s.sixtap_h(&mut d1, 16, &src[4 * 48 + 2..], 48, w, h);
                v.sixtap_h(&mut d2, 16, &src[4 * 48 + 2..], 48, w, h);
                prop_assert_eq!(&d1, &d2, "{} {}x{}", v.level().tier_name(), w, h);
            }
        }
    }

    #[test]
    fn sixtap_v_matches(src in pixels(48 * 28)) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            for &(w, h) in &[(16usize, 16usize), (8, 8)] {
                let mut d1 = vec![0u8; 16 * 16];
                let mut d2 = vec![0u8; 16 * 16];
                s.sixtap_v(&mut d1, 16, &src[2 * 48 + 4..], 48, w, h);
                v.sixtap_v(&mut d2, 16, &src[2 * 48 + 4..], 48, w, h);
                prop_assert_eq!(&d1, &d2, "{} {}x{}", v.level().tier_name(), w, h);
            }
        }
    }

    #[test]
    fn sixtap_hv_matches(src in pixels(48 * 28)) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            for &(w, h) in &[(16usize, 16usize), (8, 8), (16, 8), (8, 16)] {
                let mut d1 = vec![0u8; 16 * 16];
                let mut d2 = vec![0u8; 16 * 16];
                s.sixtap_hv(&mut d1, 16, &src[2 * 48 + 2..], 48, w, h);
                v.sixtap_hv(&mut d2, 16, &src[2 * 48 + 2..], 48, w, h);
                prop_assert_eq!(&d1, &d2, "{} {}x{}", v.level().tier_name(), w, h);
            }
        }
    }

    #[test]
    fn add_residual8_matches(
        pred in pixels(16 * 8),
        res in proptest::collection::vec(-4500i16..=4500, 64),
    ) {
        let (s, tiers) = reference_and_tiers();
        let res: Block8 = res.try_into().unwrap();
        for v in &tiers {
            let mut d1 = vec![0u8; 16 * 8];
            let mut d2 = vec![0u8; 16 * 8];
            s.add_residual8(&mut d1, 16, &pred, 16, &res);
            v.add_residual8(&mut d2, 16, &pred, 16, &res);
            prop_assert_eq!(d1, d2, "{}", v.level().tier_name());
        }
    }

    #[test]
    fn diff_block8_matches(cur in pixels(16 * 8), pred in pixels(16 * 8)) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            let mut r1: Block8 = [0; 64];
            let mut r2: Block8 = [0; 64];
            s.diff_block8(&mut r1, &cur, 16, &pred, 16);
            v.diff_block8(&mut r2, &cur, 16, &pred, 16);
            prop_assert_eq!(r1, r2, "{}", v.level().tier_name());
        }
    }

    #[test]
    fn deblock_horiz_edge_matches(
        data in pixels(48 * 8),
        alpha in 1i32..=40,
        beta in 1i32..=12,
        tc in 0i32..=6,
    ) {
        let (s, tiers) = reference_and_tiers();
        for v in &tiers {
            for &width in &[48usize, 40, 24, 7] {
                let mut d1 = data.clone();
                let mut d2 = data.clone();
                s.deblock_horiz_edge(&mut d1, 48, 4 * 48, width, alpha, beta, tc);
                v.deblock_horiz_edge(&mut d2, 48, 4 * 48, width, alpha, beta, tc);
                prop_assert_eq!(&d1, &d2, "{} width {}", v.level().tier_name(), width);
            }
        }
    }

    #[test]
    fn deblock_vert_edges_matches(
        raw in pixels(VERT_STRIDE * 16),
        smooth in any::<bool>(),
        alpha in 1i32..=40,
        beta in 1i32..=12,
    ) {
        // Smooth content (a level plus small steps) passes the filter's
        // thresholds often; raw noise mostly does not.
        let data: Vec<u8> = if smooth {
            raw.iter().map(|&b| 100 + b % 16).collect()
        } else {
            raw
        };
        check_vert_edges(&data, alpha, beta);
    }
}

/// Row pitch of the vertical-edge tests: wider than every tested width,
/// and not a multiple of 16.
const VERT_STRIDE: usize = 651;

/// Every tier against scalar on the vertical-edge kernel, over widths
/// with too few edges for a load, whole 16- and 32-byte loads, every
/// count of edges left over after them (36…64 has 8…15 edges), a last
/// edge without a q1 column (4k + 1), odd and even heights, and every
/// `tc` in 0..=6.
fn check_vert_edges(data: &[u8], alpha: i32, beta: i32) {
    const WIDTHS: [usize; 18] = [
        4, 8, 12, 16, 17, 20, 21, 36, 40, 44, 48, 49, 52, 56, 60, 64, 88, 640,
    ];
    let (s, tiers) = reference_and_tiers();
    for width in WIDTHS {
        for &height in &[1usize, 2, 3, 16] {
            for tc in 0..=6 {
                let mut want = data.to_vec();
                s.deblock_vert_edges(&mut want, VERT_STRIDE, width, height, alpha, beta, tc);
                for v in &tiers {
                    let mut got = data.to_vec();
                    v.deblock_vert_edges(&mut got, VERT_STRIDE, width, height, alpha, beta, tc);
                    assert!(
                        got == want,
                        "{} {width}x{height} alpha {alpha} beta {beta} tc {tc}",
                        v.level().tier_name()
                    );
                }
            }
        }
    }
}

/// Columns of saturated samples (0, 255 and their near neighbours), where
/// `p0 ± delta` leaves `0..=255` and the kernels' clamps decide.
#[test]
fn deblock_vert_edges_matches_on_saturated_columns() {
    const LEVELS: [u8; 6] = [0, 1, 11, 244, 254, 255];
    let mut state = 7u32;
    let columns: Vec<u8> = (0..VERT_STRIDE)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            LEVELS[(state >> 24) as usize % LEVELS.len()]
        })
        .collect();
    let data: Vec<u8> = (0..16)
        .flat_map(|y| {
            columns
                .iter()
                .map(move |&c| if y % 5 == 4 { 255 - c } else { c })
        })
        .collect();
    let (s, _) = reference_and_tiers();
    let mut clamped = data.clone();
    s.deblock_vert_edges(&mut clamped, VERT_STRIDE, 640, 16, 255, 18, 6);
    assert_ne!(
        clamped, data,
        "the saturated pattern must trigger the filter"
    );
    for (alpha, beta) in [(1, 1), (40, 12), (255, 12), (255, 18)] {
        check_vert_edges(&data, alpha, beta);
    }
}

/// The SATD total must also agree with a direct sum over 4×4 tiles so the
/// SIMD tiling cannot silently skip partial tiles.
#[test]
fn satd_tiling_consistency() {
    let mut a = vec![0u8; 32 * 32];
    let b = vec![128u8; 32 * 32];
    for (i, v) in a.iter_mut().enumerate() {
        *v = (i * 7 % 251) as u8;
    }
    let (s, tiers) = reference_and_tiers();
    let mut tile_sum = 0;
    for ty in 0..4 {
        for tx in 0..4 {
            tile_sum += s.satd(
                &a[ty * 4 * 32 + tx * 4..],
                32,
                &b[ty * 4 * 32 + tx * 4..],
                32,
                4,
                4,
            );
        }
    }
    assert_eq!(s.satd(&a, 32, &b, 32, 16, 16), tile_sum);
    for v in &tiers {
        assert_eq!(
            v.satd(&a, 32, &b, 32, 16, 16),
            tile_sum,
            "{}",
            v.level().tier_name()
        );
    }
}

/// Saturated differences — a 0/255 checkerboard against its complement,
/// all-255 against all-0 — give the largest transform coefficients, where
/// the SIMD tiers' max-fold of the last butterfly does its widest work.
#[test]
fn satd_matches_on_saturated_blocks() {
    let checker: Vec<u8> = (0..24 * 24)
        .map(|i| if (i / 24 + i % 24) % 2 == 0 { 255 } else { 0 })
        .collect();
    let complement: Vec<u8> = checker.iter().map(|&v| 255 - v).collect();
    let (white, black) = (vec![255u8; 24 * 24], vec![0u8; 24 * 24]);
    let (s, tiers) = reference_and_tiers();
    for (a, b) in [(&checker, &complement), (&white, &black), (&black, &white)] {
        for (w, h) in satd_shapes() {
            let want = s.satd(a, 24, b, 24, w, h);
            assert!(want > 0);
            for v in &tiers {
                assert_eq!(
                    v.satd(a, 24, b, 24, w, h),
                    want,
                    "{} {w}x{h}",
                    v.level().tier_name()
                );
                // The fused form on the same extremes: avg(b, b) = b.
                assert_eq!(
                    v.satd_fn().avg(a, 24, b, b, 24, w.min(16), h.min(16)),
                    s.satd(a, 24, b, 24, w.min(16), h.min(16)),
                    "{} avg {w}x{h}",
                    v.level().tier_name()
                );
            }
        }
    }
}

/// Every tier this CPU reports as supported must construct a `Dsp` at
/// exactly that level (no silent degradation on capable hardware).
#[test]
fn supported_tiers_construct_exactly() {
    for level in SimdLevel::supported_tiers() {
        assert_eq!(Dsp::new(level).level(), level);
    }
}
