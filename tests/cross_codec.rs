//! Cross-crate integration tests: full encode→decode pipelines through
//! the benchmark harness, asserting the paper's qualitative results
//! (Section VI) at reduced geometry.

use hd_videobench::bench::{
    create_decoder, create_encoder, decode_sequence, encode_sequence, measure_rd_point, BenchError,
    CodecId, CodingOptions, PacketKind,
};
use hd_videobench::frame::{Resolution, SequencePsnr};
use hd_videobench::seq::{Sequence, SequenceId};

fn small(id: SequenceId) -> Sequence {
    Sequence::new(id, Resolution::new(96, 80))
}

/// The GOP grid every codec runs under: B pictures between anchors ×
/// periodic intra interval (`None` is the paper's only-the-first).
fn gop_grid() -> impl Iterator<Item = CodingOptions> {
    [0, 1, 2, 4].into_iter().flat_map(|b| {
        [None, Some(2)].map(|intra_period| CodingOptions {
            intra_period,
            ..CodingOptions::default().with_b_frames(b)
        })
    })
}

/// The coding order `(kind, display index)` of `frames` display-order
/// pictures under `options`' GOP, derived from the GOP rules alone: the
/// first picture is an I anchor; each later group of up to `b_frames + 1`
/// pictures codes its last as an anchor, then the rest as B pictures;
/// anchor `n` is intra when `n` is 0 or a multiple of the intra period.
fn expected_coding_order(frames: u32, options: &CodingOptions) -> Vec<(PacketKind, u32)> {
    let b = u32::from(options.b_frames);
    let mut order = Vec::new();
    let (mut next, mut anchors) = (0, 0);
    while next < frames {
        let anchor = if next == 0 {
            0
        } else {
            (next + b).min(frames - 1)
        };
        let intra = anchors == 0 || options.intra_period.is_some_and(|p| anchors % p == 0);
        order.push((if intra { PacketKind::I } else { PacketKind::P }, anchor));
        order.extend((next..anchor).map(|i| (PacketKind::B, i)));
        anchors += 1;
        next = anchor + 1;
    }
    order
}

#[test]
fn all_codecs_roundtrip_all_sequences() {
    let options = CodingOptions::default();
    for codec in CodecId::ALL {
        for sid in SequenceId::ALL {
            let seq = small(sid);
            let rd = measure_rd_point(codec, seq, 5, &options)
                .unwrap_or_else(|e| panic!("{codec}/{sid}: {e}"));
            assert!(
                rd.psnr_y > 25.0,
                "{codec}/{sid}: psnr {:.2} too low",
                rd.psnr_y
            );
            assert!(rd.bitrate_kbps > 0.0);
        }
    }
}

#[test]
fn gop_structure_is_ipbb_with_single_intra() {
    for codec in CodecId::ALL {
        for options in gop_grid() {
            let enc = encode_sequence(codec, small(SequenceId::RushHour), 10, &options).unwrap();
            let order: Vec<_> = enc
                .packets
                .iter()
                .map(|p| (p.kind, p.display_index))
                .collect();
            let what = format!(
                "{codec}, {} b, intra {:?}",
                options.b_frames, options.intra_period
            );
            assert_eq!(order, expected_coding_order(10, &options), "{what}");
        }
        // The paper's own GOP, spelled out.
        let options = CodingOptions::default();
        let enc = encode_sequence(codec, small(SequenceId::RushHour), 10, &options).unwrap();
        let kinds: Vec<PacketKind> = enc.packets.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds.iter().filter(|&&k| k == PacketKind::I).count(),
            1,
            "{codec}: only the first frame is intra (paper Section IV)"
        );
        assert_eq!(kinds[0], PacketKind::I, "{codec}");
        // Two B pictures per anchor group.
        let bs = kinds.iter().filter(|&&k| k == PacketKind::B).count();
        assert_eq!(bs, 6, "{codec}: {kinds:?}");
        // More B pictures than that is rejected before any picture.
        let five = options.with_b_frames(5);
        match create_encoder(codec, Resolution::new(96, 80), &five) {
            Err(BenchError::Codec(msg)) => assert!(
                msg.contains("bad encoder configuration: at most 4 b-frames supported"),
                "{codec}: {msg}"
            ),
            Err(e) => panic!("{codec}: 5 b-frames rejected as {e}"),
            Ok(_) => panic!("{codec}: 5 b-frames accepted"),
        }
    }
}

#[test]
fn decoded_frames_come_back_in_display_order() {
    let seq = small(SequenceId::PedestrianArea);
    for codec in CodecId::ALL {
        for options in gop_grid() {
            let what = format!(
                "{codec}, {} b, intra {:?}",
                options.b_frames, options.intra_period
            );
            let enc = encode_sequence(codec, seq, 7, &options).unwrap();
            let dec = decode_sequence(codec, &enc.packets, options.simd).unwrap();
            assert_eq!(dec.frames.len(), 7, "{what}");
            // Display order: each decoded frame must be closest (in SAD)
            // to its own original, not to a neighbour, and a faithful
            // copy of it.
            for (i, frame) in dec.frames.iter().enumerate() {
                let original = seq.frame(i as u32);
                let own = original.y().sad(frame.y());
                for j in [i.wrapping_sub(1), i + 1] {
                    if j < 7 && j != i {
                        let other = seq.frame(j as u32).y().sad(frame.y());
                        assert!(
                            own <= other,
                            "{what}: decoded frame {i} matches original {j} better"
                        );
                    }
                }
                let mut psnr = SequencePsnr::new();
                psnr.add(&original, frame);
                assert!(
                    psnr.y_psnr() > 25.0,
                    "{what}: frame {i} psnr {:.2}",
                    psnr.y_psnr()
                );
            }
        }
    }
}

/// A packet the decoder rejects must leave the stream where it was: a
/// foreign packet (wrong magic), a P picture cut in half and an I
/// picture of another size cut in half, spliced into a clean I-P-B-B
/// stream, each fail, and everything else decodes to exactly the clean
/// stream's frames, the held-back last anchor included.
#[test]
fn a_rejected_packet_leaves_the_stream_untouched() {
    let seq = small(SequenceId::RushHour);
    let options = CodingOptions::default();
    for codec in CodecId::ALL {
        let clean = encode_sequence(codec, seq, 7, &options).unwrap().packets;
        let expected = decode_sequence(codec, &clean, options.simd).unwrap().frames;
        let p = clean
            .iter()
            .position(|p| p.kind == PacketKind::P)
            .expect("an I-P-B-B stream has a P picture");
        let mut foreign = clean[p].data.clone();
        foreign[0] ^= 0xFF;
        let half = |data: &[u8]| data[..data.len() / 2].to_vec();
        let resized = Sequence::new(SequenceId::RushHour, Resolution::new(64, 48));
        let resized_i = encode_sequence(codec, resized, 1, &options)
            .unwrap()
            .packets;
        // Coding order I, cut P, P, cut resized I, B, foreign, B, …: the
        // cut P fails while the P picture's reference is in use, the cut
        // I where a new size would retire the references, the foreign
        // packet while a B picture is due.
        let mut spliced = Vec::new();
        for (i, packet) in clean.iter().enumerate() {
            if i == p {
                spliced.push((half(&packet.data), false));
            }
            spliced.push((packet.data.clone(), true));
            if i == p {
                spliced.push((half(&resized_i[0].data), false));
            }
            if i == p + 1 {
                spliced.push((foreign.clone(), false));
            }
        }

        let mut dec = create_decoder(codec, options.simd);
        let mut frames = Vec::new();
        for (i, (data, valid)) in spliced.iter().enumerate() {
            let result = dec.decode_packet_into(data, &mut frames);
            assert_eq!(result.is_ok(), *valid, "{codec}: packet {i}: {result:?}");
        }
        dec.finish_into(&mut frames);
        assert!(
            frames == expected,
            "{codec}: output differs from the clean stream"
        );
    }
}

#[test]
fn rate_distortion_ordering_matches_the_paper() {
    // Table V's headline: at equal quality, bitrate(H.264) <
    // bitrate(MPEG-4) <= bitrate(MPEG-2), with H.264 well below both.
    let options = CodingOptions::default();
    let mut totals = [0.0f64; 3];
    let mut psnrs = [0.0f64; 3];
    // Mean per-sequence gains: [mpeg4 vs mpeg2, h264 vs mpeg2, h264 vs mpeg4].
    let mut gains = [0.0f64; 3];
    let frames = 8;
    for sid in SequenceId::ALL {
        let seq = Sequence::new(sid, Resolution::new(160, 128));
        let mut rates = [0.0f64; 3];
        for (ci, codec) in CodecId::ALL.iter().enumerate() {
            let rd = measure_rd_point(*codec, seq, frames, &options).unwrap();
            totals[ci] += rd.bitrate_kbps;
            rates[ci] = rd.bitrate_kbps;
            psnrs[ci] += rd.psnr_y / SequenceId::ALL.len() as f64;
        }
        let n = SequenceId::ALL.len() as f64;
        gains[0] += (1.0 - rates[1] / rates[0]) / n;
        gains[1] += (1.0 - rates[2] / rates[0]) / n;
        gains[2] += (1.0 - rates[2] / rates[1]) / n;
    }
    let [m2, m4, h264] = totals;
    assert!(m4 < m2, "MPEG-4 ({m4:.0}) must beat MPEG-2 ({m2:.0})");
    assert!(h264 < m4, "H.264 ({h264:.0}) must beat MPEG-4 ({m4:.0})");
    // The paper reports *average per-sequence* compression gains; assert
    // on the same statistic (gains average blue_sky..rush_hour equally
    // rather than letting riverbed's huge bitrate dominate).
    let [g_m4, g_h264_m2, g_h264_m4] = gains;
    assert!(
        g_m4 > 0.03,
        "mean MPEG-4 gain vs MPEG-2 only {:.1}%",
        g_m4 * 100.0
    );
    assert!(
        g_h264_m2 > 0.25,
        "mean H.264 gain vs MPEG-2 only {:.1}%",
        g_h264_m2 * 100.0
    );
    assert!(
        g_h264_m4 > 0.20,
        "mean H.264 gain vs MPEG-4 only {:.1}%",
        g_h264_m4 * 100.0
    );
    // Equal-quality protocol: all three PSNRs within a 1.5 dB band.
    let max = psnrs.iter().cloned().fold(f64::MIN, f64::max);
    let min = psnrs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max - min < 1.5,
        "PSNRs diverge: {psnrs:?} (not an equal-quality comparison)"
    );
}

#[test]
fn riverbed_is_the_hardest_sequence_for_every_codec() {
    // The paper picks riverbed as "very hard to code": it must cost the
    // most bits at equal quantiser for every codec.
    let options = CodingOptions::default();
    for codec in CodecId::ALL {
        let bitrate = |sid: SequenceId| {
            measure_rd_point(codec, small(sid), 5, &options)
                .unwrap()
                .bitrate_kbps
        };
        let river = bitrate(SequenceId::Riverbed);
        for other in [
            SequenceId::BlueSky,
            SequenceId::PedestrianArea,
            SequenceId::RushHour,
        ] {
            assert!(
                river > bitrate(other),
                "{codec}: riverbed ({river:.0}) not harder than {other}"
            );
        }
    }
}

#[test]
fn higher_resolution_costs_proportionally_more_bits() {
    let options = CodingOptions::default();
    for codec in CodecId::ALL {
        let small_rd = measure_rd_point(
            codec,
            Sequence::new(SequenceId::RushHour, Resolution::new(96, 80)),
            4,
            &options,
        )
        .unwrap();
        let large_rd = measure_rd_point(
            codec,
            Sequence::new(SequenceId::RushHour, Resolution::new(192, 160)),
            4,
            &options,
        )
        .unwrap();
        assert!(
            large_rd.bitrate_kbps > 1.3 * small_rd.bitrate_kbps,
            "{codec}: 4x pixels should cost much more than 1.3x bits \
             ({:.0} vs {:.0})",
            large_rd.bitrate_kbps,
            small_rd.bitrate_kbps
        );
    }
}
