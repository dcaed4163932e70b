//! Pinned coded-stream digests: the encoders' output bytes are part of
//! the specification. An optimisation of motion estimation or mode
//! decision must reproduce every digest below under every SIMD tier
//! (`scripts/ci.sh` runs this suite under `HDVB_SIMD=scalar` and
//! `=auto`); a change that alters them is a codec change, not a
//! speed-up, and has to say so.
//!
//! 176x144 keeps the run short and puts most macroblocks within one
//! search range of a picture border, so the clamped-vector paths are
//! part of what is pinned.

use hd_videobench::bench::{encode_sequence, CodecId, CodingOptions};
use hd_videobench::bits::hash::{fnv1a64_update, FNV1A64_INIT};
use hd_videobench::frame::Resolution;
use hd_videobench::seq::{Sequence, SequenceId};

const FRAMES: u32 = 9; // I BBP BBP BB

/// FNV-1a 64 of the concatenated packet payloads, coding order.
fn stream_digest(codec: CodecId, sid: SequenceId, b_frames: u8) -> u64 {
    let options = CodingOptions {
        b_frames,
        ..CodingOptions::default()
    };
    let seq = Sequence::new(sid, Resolution::new(176, 144));
    let enc = encode_sequence(codec, seq, FRAMES, &options)
        .unwrap_or_else(|e| panic!("{codec}/{sid}/b{b_frames}: {e}"));
    enc.packets
        .iter()
        .fold(FNV1A64_INIT, |h, p| fnv1a64_update(h, &p.data))
}

/// (codec, B pictures between anchors, digests in `SequenceId::ALL`
/// order: blue_sky, pedestrian_area, riverbed, rush_hour).
const PINNED: [(CodecId, u8, [u64; 4]); 4] = [
    (
        CodecId::Mpeg2,
        2,
        [
            0xaea3_abf3_1fef_2f7e,
            0x8124_0684_aab1_2df1,
            0x7dc7_1f99_37ac_85b5,
            0x1818_1bb0_9bbe_3160,
        ],
    ),
    (
        CodecId::Mpeg4,
        2,
        [
            0x7cc4_2614_fa54_55de,
            0x8a1d_c8a5_220f_f007,
            0x1da8_da4c_3714_24b7,
            0xc286_dce4_c7cc_1448,
        ],
    ),
    (
        CodecId::H264,
        2,
        [
            0xd9a2_400a_a9cf_6d1b,
            0xdb0f_4a97_ec96_7a8a,
            0x2808_857c_4360_ca94,
            0x07a4_c441_1304_8793,
        ],
    ),
    (
        CodecId::H264,
        0,
        [
            0xcbd6_4a27_c10e_74d4,
            0x2198_f425_57c6_e318,
            0x0c31_2328_b126_c6fd,
            0xed75_2d30_c3e9_ec6b,
        ],
    ),
];

#[test]
fn coded_streams_match_pinned_digests() {
    let mut mismatches = Vec::new();
    for (codec, b_frames, want) in PINNED {
        for (sid, want) in SequenceId::ALL.into_iter().zip(want) {
            let got = stream_digest(codec, sid, b_frames);
            if got != want {
                mismatches.push(format!(
                    "{codec}/{sid}/b{b_frames}: got {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "coded bytes changed:\n{}",
        mismatches.join("\n")
    );
}
