//! Property-based tests over the full codecs: random content must
//! round-trip through every encoder/decoder pair with bounded error and
//! without panics, and random garbage must never crash a decoder.

use hd_videobench::bench::{create_decoder, create_encoder, CodecId, CodingOptions};
use hd_videobench::dsp::SimdLevel;
use hd_videobench::frame::{Frame, Resolution, SequencePsnr};
use proptest::prelude::*;

/// Builds a frame whose luma is an arbitrary mix of gradient + noise and
/// whose chroma carries structure too.
fn arbitrary_frame(w: usize, h: usize, seed: u64, noise: u8) -> Frame {
    let mut f = Frame::new(w, h);
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for y in 0..h {
        for x in 0..w {
            let base = (x * 2 + y * 3) % 200;
            let n = next() % (u32::from(noise) + 1);
            f.y_mut().set(x, y, ((base as u32 + n) % 256) as u8);
        }
    }
    for y in 0..h / 2 {
        for x in 0..w / 2 {
            f.cb_mut().set(x, y, (100 + (next() % 60)) as u8);
            f.cr_mut().set(x, y, (100 + (next() % 60)) as u8);
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_content_roundtrips_all_codecs(
        seed in any::<u64>(),
        noise in 0u8..80,
        qscale in 2u16..20,
    ) {
        let (w, h) = (48, 32);
        let options = CodingOptions::default().with_qscale(qscale);
        for codec in CodecId::ALL {
            let mut enc = create_encoder(codec, Resolution::new(w as u32, h as u32), &options)
                .unwrap();
            let mut dec = create_decoder(codec, SimdLevel::detect());
            let frames: Vec<Frame> = (0..4)
                .map(|i| arbitrary_frame(w, h, seed.wrapping_add(i), noise))
                .collect();
            let mut packets = Vec::new();
            for f in &frames {
                enc.encode_frame_into(f, &mut packets).unwrap();
            }
            enc.finish_into(&mut packets).unwrap();
            let mut out = Vec::new();
            for p in &packets {
                dec.decode_packet_into(&p.data, &mut out).unwrap();
            }
            dec.finish_into(&mut out);
            prop_assert_eq!(out.len(), 4, "{} lost frames", codec);
            let mut acc = SequencePsnr::new();
            for (o, d) in frames.iter().zip(&out) {
                prop_assert_eq!((d.width(), d.height()), (w, h));
                acc.add(o, d);
            }
            // Even at the coarsest quantiser in range, reconstruction
            // must stay recognisable.
            prop_assert!(acc.y_psnr() > 20.0, "{}: psnr {:.1}", codec, acc.y_psnr());
        }
    }

    #[test]
    fn random_garbage_never_panics_decoders(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        for codec in CodecId::ALL {
            let mut dec = create_decoder(codec, SimdLevel::detect());
            let _ = dec.decode_packet_into(&data, &mut Vec::new()); // error or empty, never panic
        }
    }

    #[test]
    fn bitflipped_streams_never_panic_decoders(
        seed in any::<u64>(),
        flip_byte in 0usize..2000,
        flip_mask in 1u8..=255,
    ) {
        let options = CodingOptions::default();
        for codec in CodecId::ALL {
            let mut enc = create_encoder(codec, Resolution::new(48, 32), &options).unwrap();
            let mut packets = Vec::new();
            for i in 0..3u64 {
                let f = arbitrary_frame(48, 32, seed.wrapping_add(i), 30);
                enc.encode_frame_into(&f, &mut packets).unwrap();
            }
            enc.finish_into(&mut packets).unwrap();
            let mut dec = create_decoder(codec, SimdLevel::detect());
            for p in &mut packets {
                if !p.data.is_empty() {
                    let idx = flip_byte % p.data.len();
                    p.data[idx] ^= flip_mask;
                }
                // Corrupt packets may decode to garbage frames or error;
                // either is acceptable, panicking is not.
                let _ = dec.decode_packet_into(&p.data, &mut Vec::new());
            }
        }
    }
}
