//! End-to-end SIMD-invariance tests: the scalar and SIMD builds of every
//! codec must produce bit-identical streams and bit-identical decoded
//! pictures. This is the property that lets the Figure-1 harness reuse
//! one set of bitstreams across both decoder variants (as the original
//! benchmark does with FFmpeg/x264, whose assembly is bit-exact with
//! their C paths).

use hd_videobench::bench::{create_decoder, create_encoder, CodecId, CodingOptions, Packet};
use hd_videobench::dsp::SimdLevel;
use hd_videobench::frame::{Frame, Resolution};
use hd_videobench::seq::{Sequence, SequenceId};

fn encode_all(codec: CodecId, seq: Sequence, frames: u32, simd: SimdLevel) -> Vec<Packet> {
    let options = CodingOptions::default().with_simd(simd);
    let mut enc = create_encoder(codec, seq.resolution(), &options).unwrap();
    let mut packets = Vec::new();
    for i in 0..frames {
        packets.extend(enc.encode_frame(&seq.frame(i)).unwrap());
    }
    packets.extend(enc.finish().unwrap());
    packets
}

fn decode_all(codec: CodecId, packets: &[Packet], simd: SimdLevel) -> Vec<Frame> {
    let mut dec = create_decoder(codec, simd);
    let mut out = Vec::new();
    for p in packets {
        out.extend(dec.decode_packet(&p.data).unwrap());
    }
    out.extend(dec.finish());
    out
}

#[test]
fn encoders_are_simd_invariant() {
    for codec in CodecId::ALL {
        for sid in [SequenceId::BlueSky, SequenceId::Riverbed] {
            let seq = Sequence::new(sid, Resolution::new(96, 80));
            let scalar = encode_all(codec, seq, 5, SimdLevel::Scalar);
            let simd = encode_all(codec, seq, 5, SimdLevel::Sse2);
            assert_eq!(scalar.len(), simd.len(), "{codec}/{sid}");
            for (i, (a, b)) in scalar.iter().zip(&simd).enumerate() {
                assert_eq!(
                    a, b,
                    "{codec}/{sid}: packet {i} differs between SIMD levels"
                );
            }
        }
    }
}

#[test]
fn decoders_are_simd_invariant() {
    for codec in CodecId::ALL {
        let seq = Sequence::new(SequenceId::PedestrianArea, Resolution::new(96, 80));
        let packets = encode_all(codec, seq, 7, SimdLevel::detect());
        let scalar = decode_all(codec, &packets, SimdLevel::Scalar);
        let simd = decode_all(codec, &packets, SimdLevel::Sse2);
        assert_eq!(scalar.len(), simd.len(), "{codec}");
        for (i, (a, b)) in scalar.iter().zip(&simd).enumerate() {
            assert_eq!(
                a, b,
                "{codec}: decoded frame {i} differs between SIMD levels"
            );
        }
    }
}

#[test]
fn cross_level_streams_interoperate() {
    // Scalar-encoded stream decoded by the SIMD decoder and vice versa.
    for codec in CodecId::ALL {
        let seq = Sequence::new(SequenceId::RushHour, Resolution::new(96, 80));
        let scalar_stream = encode_all(codec, seq, 4, SimdLevel::Scalar);
        let a = decode_all(codec, &scalar_stream, SimdLevel::Sse2);
        let b = decode_all(codec, &scalar_stream, SimdLevel::Scalar);
        assert_eq!(a, b, "{codec}");
    }
}

#[test]
fn encoding_is_deterministic_across_runs() {
    for codec in CodecId::ALL {
        let seq = Sequence::new(SequenceId::BlueSky, Resolution::new(96, 80));
        let one = encode_all(codec, seq, 4, SimdLevel::detect());
        let two = encode_all(codec, seq, 4, SimdLevel::detect());
        assert_eq!(one, two, "{codec}: encoder is nondeterministic");
    }
}

// --- Polyphase scaler invariance -----------------------------------------
//
// The ladder runner leans on the same guarantee the codecs do: the
// scaler's SSE2/AVX2 kernels must be bit-exact with the scalar
// reference, or rung streams would differ between machines. Exercised
// here at the geometries production ladders actually hit — odd widths,
// extreme downscale ratios, and half-size chroma planes.

use hd_videobench::dsp::{Dsp, Scaler};
use proptest::prelude::*;

/// Deterministic pseudo-random plane: positional splitmix-style hash so
/// the fixed-geometry tests need no RNG.
fn hashed_plane(w: usize, h: usize, seed: u64) -> Vec<u8> {
    (0..w * h)
        .map(|i| {
            let mut z = seed ^ ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z >> 56) as u8
        })
        .collect()
}

/// Scales `src` at every supported tier and asserts each output is
/// byte-identical to the scalar reference.
fn assert_scale_tier_exact(sw: usize, sh: usize, dw: usize, dh: usize, src: &[u8], what: &str) {
    let mut reference = vec![0u8; dw * dh];
    Scaler::new(Dsp::new(SimdLevel::Scalar), sw, sh, dw, dh).scale(src, &mut reference);
    for level in SimdLevel::supported_tiers() {
        if level == SimdLevel::Scalar {
            continue;
        }
        let mut out = vec![0u8; dw * dh];
        Scaler::new(Dsp::new(level), sw, sh, dw, dh).scale(src, &mut out);
        assert_eq!(
            reference,
            out,
            "{what}: {sw}x{sh} -> {dw}x{dh} differs at {}",
            level.tier_name()
        );
    }
}

#[test]
fn scaler_handles_extreme_ratio_1088p_to_160p() {
    // The ISSUE's stress case: full HD mezzanine down to a thumbnail
    // rung (1920x1088 -> 288x160), plus the matching 4:2:0 chroma
    // geometry (960x544 -> 144x80).
    let luma = hashed_plane(1920, 1088, 0xA1);
    assert_scale_tier_exact(1920, 1088, 288, 160, &luma, "luma");
    let chroma = hashed_plane(960, 544, 0xA2);
    assert_scale_tier_exact(960, 544, 144, 80, &chroma, "chroma");
}

#[test]
fn scaler_handles_upscale_back_to_1088p() {
    let src = hashed_plane(288, 160, 0xB1);
    assert_scale_tier_exact(288, 160, 1920, 1088, &src, "upscale luma");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Odd geometries in both directions, down- and up-scale, with
    /// random pixel data: every tier matches the scalar reference.
    #[test]
    fn scaler_is_tier_exact_at_odd_geometries(
        sw in (5usize..=96).prop_map(|v| v | 1),
        sh in (5usize..=64).prop_map(|v| v | 1),
        dw in (5usize..=96).prop_map(|v| v | 1),
        dh in (5usize..=64).prop_map(|v| v | 1),
        seed in any::<u64>(),
    ) {
        let src: Vec<u8> = hashed_plane(sw, sh, seed);
        let mut reference = vec![0u8; dw * dh];
        Scaler::new(Dsp::new(SimdLevel::Scalar), sw, sh, dw, dh).scale(&src, &mut reference);
        for level in SimdLevel::supported_tiers() {
            if level == SimdLevel::Scalar {
                continue;
            }
            let mut out = vec![0u8; dw * dh];
            Scaler::new(Dsp::new(level), sw, sh, dw, dh).scale(&src, &mut out);
            prop_assert_eq!(
                &reference, &out,
                "{}x{} -> {}x{} differs at {}", sw, sh, dw, dh, level.tier_name()
            );
        }
    }

    /// Chroma-subsampled planes: scaling the half-size plane with the
    /// half-size geometry is tier-exact too (the FrameScaler path).
    #[test]
    fn scaler_is_tier_exact_on_chroma_planes(
        sw in 4usize..=48,
        sh in 4usize..=32,
        dw in 4usize..=48,
        dh in 4usize..=32,
        seed in any::<u64>(),
    ) {
        let (sw, sh, dw, dh) = (sw * 2, sh * 2, dw * 2, dh * 2);
        let luma = hashed_plane(sw, sh, seed);
        let chroma = hashed_plane(sw / 2, sh / 2, seed ^ 0xC0);
        let mut reference = vec![0u8; dw * dh];
        Scaler::new(Dsp::new(SimdLevel::Scalar), sw, sh, dw, dh).scale(&luma, &mut reference);
        let mut c_reference = vec![0u8; (dw / 2) * (dh / 2)];
        Scaler::new(Dsp::new(SimdLevel::Scalar), sw / 2, sh / 2, dw / 2, dh / 2)
            .scale(&chroma, &mut c_reference);
        for level in SimdLevel::supported_tiers() {
            if level == SimdLevel::Scalar {
                continue;
            }
            let mut out = vec![0u8; dw * dh];
            Scaler::new(Dsp::new(level), sw, sh, dw, dh).scale(&luma, &mut out);
            prop_assert_eq!(&reference, &out, "luma {}", level.tier_name());
            let mut c_out = vec![0u8; (dw / 2) * (dh / 2)];
            Scaler::new(Dsp::new(level), sw / 2, sh / 2, dw / 2, dh / 2)
                .scale(&chroma, &mut c_out);
            prop_assert_eq!(&c_reference, &c_out, "chroma {}", level.tier_name());
        }
    }
}

// --- Sub-pel refinement window -------------------------------------------
//
// The encoders refine over `SubpelWindow` predictions and compensate
// with `qpel_luma` / `hpel_interp`; the two must agree byte for byte at
// every tier, and the window's read extent must stay inside the padded
// reference for every vector a motion search can return. The fills
// check that extent with a `debug_assert!`, which this (debug-built)
// suite executes at the extreme vectors below.

use hd_videobench::dsp::SubpelWindow;
use hd_videobench::frame::{PaddedPlane, Plane};

/// Displaced origins of a `bw`×`bh` block in each corner of a `w`×`h`
/// picture, pushed outwards by `reach` full pels on both axes.
fn corner_origins(w: usize, h: usize, bw: usize, bh: usize, reach: isize) -> [(isize, isize); 4] {
    let (right, bottom) = ((w - bw) as isize + reach, (h - bh) as isize + reach);
    [
        (-reach, -reach),
        (right, -reach),
        (-reach, bottom),
        (right, bottom),
    ]
}

#[test]
fn subpel_window_matches_motion_compensation_at_the_search_limits() {
    // The H.264-class geometry: 40 samples of padding, search range 24,
    // and the motion searches' clamp 8 samples inside the padding.
    const PAD: usize = 40;
    let (w, h) = (48, 64);
    let plane = Plane::from_vec(w, h, hashed_plane(w, h, 0x51AB));
    let refp = PaddedPlane::from_plane(&plane, PAD);
    for level in SimdLevel::supported_tiers() {
        let dsp = Dsp::new(level);
        let mut win = SubpelWindow::new();
        for (bw, bh) in [(16, 16), (16, 8), (8, 16), (8, 8)] {
            for reach in [24, PAD as isize - 8] {
                for (x, y) in corner_origins(w, h, bw, bh, reach) {
                    let what = format!("{} {bw}x{bh} at ({x},{y})", level.tier_name());
                    win.fill_sixtap(&dsp, &refp, x, y, bw, bh);
                    for (qx, qy) in (-3..=3).flat_map(|qy| (-3..=3).map(move |qx| (qx, qy))) {
                        let mut want = [0u8; 256];
                        let src =
                            refp.row_from(x + (qx >> 2) as isize - 2, y + (qy >> 2) as isize - 2);
                        let (fx, fy) = ((qx & 3) as u8, (qy & 3) as u8);
                        dsp.qpel_luma(&mut want, bw, src, refp.stride(), fx, fy, bw, bh);
                        let mut scratch = [0u8; 256];
                        let (got, stride) = win.quarter(&dsp, qx, qy, &mut scratch);
                        for r in 0..bh {
                            assert_eq!(
                                &got[r * stride..r * stride + bw],
                                &want[r * bw..(r + 1) * bw],
                                "{what}, offset ({qx},{qy}), row {r}"
                            );
                        }
                    }
                    if (bw, bh) != (16, 16) {
                        continue;
                    }
                    win.fill_bilinear(&dsp, &refp, x, y, 16, 16);
                    for (hx, hy) in (-1..=1).flat_map(|hy| (-1..=1).map(move |hx| (hx, hy))) {
                        let mut want = [0u8; 256];
                        let src = refp.row_from(x + (hx >> 1) as isize, y + (hy >> 1) as isize);
                        let (fx, fy) = ((hx & 1) as u8, (hy & 1) as u8);
                        dsp.hpel_interp(&mut want, 16, src, refp.stride(), fx, fy, 16, 16);
                        let got = win.half(hx, hy);
                        for r in 0..16 {
                            assert_eq!(
                                &got[r * SubpelWindow::STRIDE..r * SubpelWindow::STRIDE + 16],
                                &want[r * 16..(r + 1) * 16],
                                "{what}, bilinear ({hx},{hy}), row {r}"
                            );
                        }
                    }
                }
            }
        }
    }
}
