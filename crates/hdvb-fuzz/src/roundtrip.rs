//! The encoder round-trip differential oracle.
//!
//! The decode oracle ([`crate::oracle`]) fuzzes *bitstreams*; this
//! module fuzzes the **encoder input space**: random frame content at
//! random (macroblock-aligned) resolutions under random coding
//! options, pushed through the full encode→decode round trip of every
//! codec. Two invariants are checked, both across every supported SIMD
//! tier and — when a pool is supplied — across worker threads:
//!
//! 1. **Encode determinism**: every tier emits a byte-identical packet
//!    stream (the kernel tiers are bit-exact by contract; a divergence
//!    here is a dispatch-layer bug, not an input property).
//! 2. **Reconstruction agreement**: decoding that stream under every
//!    tier reconstructs bit-identical frames, and the decoded frame
//!    count equals the encoded frame count.
//!
//! Cases are generated from a seeded [`FuzzRng`], so a failing case is
//! reproduced by its `(seed, index)` pair alone — the failure report
//! names both.

use crate::rng::FuzzRng;
use hdvb_bits::hash::{fnv1a64_update, FNV1A64_INIT};
use hdvb_core::{create_decoder, create_encoder, CodecId, CodingOptions, Packet};
use hdvb_dsp::SimdLevel;
use hdvb_frame::Frame;
use hdvb_par::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One generated round-trip case: random frames plus random options.
#[derive(Clone, Debug)]
pub struct RoundtripCase {
    /// Codec under test.
    pub codec: CodecId,
    /// Frame width (multiple of 16).
    pub width: usize,
    /// Frame height (multiple of 16).
    pub height: usize,
    /// The random input frames.
    pub frames: Vec<Frame>,
    /// Randomised coding options (`simd` is overridden per tier).
    pub options: CodingOptions,
}

/// Generates case `index` of the stream seeded by `seed`. The mapping
/// is pure: the same `(seed, index)` always yields the same case.
pub fn generate_case(seed: u64, index: u64) -> RoundtripCase {
    // A per-case stream: cases are independent of how many ran before.
    let mut rng = FuzzRng::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let codec = CodecId::ALL[rng.below(CodecId::ALL.len())];
    let width = 16 * (1 + rng.below(5)); // 16..=80
    let height = 16 * (1 + rng.below(5));
    let n_frames = 1 + rng.below(5); // 1..=5
    let mut frames = Vec::with_capacity(n_frames);
    // Mix of content classes so the encoder sees flat, structured and
    // noisy macroblocks (pure noise defeats prediction entirely and
    // would leave intra/inter decision paths untested).
    let style = rng.below(3);
    for fi in 0..n_frames {
        let mut frame = Frame::new(width, height);
        let (y, cb, cr) = frame.planes_mut();
        for plane in [y, cb, cr] {
            let w = plane.width();
            for (i, px) in plane.data_mut().iter_mut().enumerate() {
                *px = match style {
                    // Flat with sparse impulses.
                    0 => {
                        if rng.below(32) == 0 {
                            (rng.next_u64() & 0xFF) as u8
                        } else {
                            128
                        }
                    }
                    // Moving gradient (temporal motion for P/B frames).
                    1 => ((i % w + i / w + fi * 3) & 0xFF) as u8,
                    // Full-range noise.
                    _ => (rng.next_u64() & 0xFF) as u8,
                };
            }
        }
        frames.push(frame);
    }
    let options = CodingOptions {
        mpeg_qscale: 1 + rng.below(10) as u16,
        b_frames: rng.below(4) as u8,
        search_range: [8u16, 16, 24][rng.below(3)],
        intra_period: if rng.below(2) == 0 {
            None
        } else {
            Some(1 + rng.below(4) as u32)
        },
        simd: SimdLevel::Scalar,
        h264_refs: 1 + rng.below(3) as u8,
        h264_qp_offset: -5,
    };
    RoundtripCase {
        codec,
        width,
        height,
        frames,
        options,
    }
}

/// Encodes the case's frames under `simd`, returning the packet bytes.
fn encode_under(case: &RoundtripCase, simd: SimdLevel) -> Result<Vec<Packet>, String> {
    let run = || -> Result<Vec<Packet>, String> {
        let resolution = hdvb_frame::Resolution::new(case.width as u32, case.height as u32);
        let options = case.options.with_simd(simd);
        let mut enc =
            create_encoder(case.codec, resolution, &options).map_err(|e| e.to_string())?;
        let mut packets = Vec::new();
        for frame in &case.frames {
            enc.encode_frame_into(frame, &mut packets)
                .map_err(|e| e.to_string())?;
        }
        enc.finish_into(&mut packets).map_err(|e| e.to_string())?;
        Ok(packets)
    };
    catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|p| Err(format!("encoder panic: {}", hdvb_par::panic_text(p))))
}

/// Decodes `packets` under `simd`, returning `(frame_count, hash)`.
fn decode_under(
    codec: CodecId,
    packets: &[Packet],
    simd: SimdLevel,
) -> Result<(usize, u64), String> {
    let run = || -> Result<(usize, u64), String> {
        let mut dec = create_decoder(codec, simd);
        let mut frames = Vec::new();
        for p in packets {
            dec.decode_packet_into(&p.data, &mut frames)
                .map_err(|e| e.to_string())?;
        }
        dec.finish_into(&mut frames);
        let mut hash = FNV1A64_INIT;
        for f in &frames {
            for plane in [f.y(), f.cb(), f.cr()] {
                hash = fnv1a64_update(hash, plane.data());
            }
        }
        Ok((frames.len(), hash))
    };
    catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|p| Err(format!("decoder panic: {}", hdvb_par::panic_text(p))))
}

/// Runs one full round-trip check: encode under every tier (streams
/// must be byte-identical), decode under every tier serially and — when
/// a pool is given — on worker threads (reconstructions must be
/// bit-identical and complete).
///
/// # Errors
///
/// A human-readable description naming the `(seed, index)` reproducer.
pub fn roundtrip_check(seed: u64, index: u64, pool: Option<&ThreadPool>) -> Result<(), String> {
    let case = generate_case(seed, index);
    let ctx = format!(
        "roundtrip seed={seed} index={index}: {} {}x{} frames={} q={} b={} sr={} ip={:?}",
        case.codec,
        case.width,
        case.height,
        case.frames.len(),
        case.options.mpeg_qscale,
        case.options.b_frames,
        case.options.search_range,
        case.options.intra_period,
    );
    let tiers = SimdLevel::supported_tiers();

    // Invariant 1: every tier encodes the same bytes.
    let baseline = encode_under(&case, tiers[0]).map_err(|e| format!("{ctx}: {e}"))?;
    for &tier in &tiers[1..] {
        let packets = encode_under(&case, tier).map_err(|e| format!("{ctx}: {e}"))?;
        let same = packets.len() == baseline.len()
            && packets.iter().zip(&baseline).all(|(a, b)| a.data == b.data);
        if !same {
            return Err(format!(
                "{ctx}: encoder divergence between {:?} and {tier:?} ({} vs {} packets)",
                tiers[0],
                baseline.len(),
                packets.len()
            ));
        }
    }

    // Invariant 2: every tier reconstructs identical frames, all of them.
    let (count0, hash0) =
        decode_under(case.codec, &baseline, tiers[0]).map_err(|e| format!("{ctx}: {e}"))?;
    if count0 != case.frames.len() {
        return Err(format!(
            "{ctx}: decoded {count0} of {} frames",
            case.frames.len()
        ));
    }
    for &tier in &tiers[1..] {
        let (count, hash) =
            decode_under(case.codec, &baseline, tier).map_err(|e| format!("{ctx}: {e}"))?;
        if (count, hash) != (count0, hash0) {
            return Err(format!(
                "{ctx}: reconstruction divergence between {:?} and {tier:?}",
                tiers[0]
            ));
        }
    }
    if let Some(pool) = pool {
        // The thread-count axis: the same decodes fanned across worker
        // threads must agree with the serial baseline.
        let results = pool.par_map(tiers.clone(), |tier| {
            decode_under(case.codec, &baseline, tier)
        });
        let results =
            results.map_err(|p| format!("{ctx}: pooled decode panicked: {}", p.message))?;
        for (tier, r) in tiers.iter().zip(results) {
            let (count, hash) = r.map_err(|e| format!("{ctx}: pool/{tier:?}: {e}"))?;
            if (count, hash) != (count0, hash0) {
                return Err(format!(
                    "{ctx}: pooled reconstruction divergence on {tier:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_reproducible() {
        let a = generate_case(3, 5);
        let b = generate_case(3, 5);
        assert_eq!(a.codec, b.codec);
        assert_eq!(a.width, b.width);
        assert_eq!(a.frames.len(), b.frames.len());
        assert_eq!(a.frames[0].y().data(), b.frames[0].y().data());
        let c = generate_case(3, 6);
        // Different index, different case (width, codec or content).
        let same_everything = a.codec == c.codec
            && a.width == c.width
            && a.height == c.height
            && a.frames.len() == c.frames.len()
            && a.frames[0].y().data() == c.frames[0].y().data();
        assert!(!same_everything);
    }

    #[test]
    fn roundtrips_are_clean_serial_and_pooled() {
        let pool = ThreadPool::new(3);
        for index in 0..6 {
            roundtrip_check(11, index, Some(&pool)).unwrap();
        }
    }
}
