//! Pinned coded-stream digests: the encoders' output bytes are part of
//! the specification. An optimisation of motion estimation or mode
//! decision must reproduce every digest below under every SIMD tier
//! (`scripts/ci.sh` runs this suite under `HDVB_SIMD=scalar`, `=sse2`
//! and `=auto`); a change that alters them is a codec change, not a
//! speed-up, and has to say so.
//!
//! Three geometries, each pinning something the others cannot:
//!
//! * 176x144 keeps the run short and puts most macroblocks within one
//!   search range of a picture border, so the clamped-vector paths are
//!   part of what is pinned.
//! * 352x288, H.264 without B pictures, twelve frames: interior
//!   macroblocks whose searches never touch the clamp, and a long run of
//!   consecutive P pictures, each searching the previous one's references
//!   again one slot further down.
//! * 168x104 is not a multiple of 16 either way, so every codec codes an
//!   edge-replicated copy of its input.

use hd_videobench::bench::{encode_sequence, CodecId, CodingOptions};
use hd_videobench::bits::hash::{fnv1a64_update, FNV1A64_INIT};
use hd_videobench::frame::Resolution;
use hd_videobench::seq::{Sequence, SequenceId};
use hd_videobench::trace::{self, Counter};

/// One pinned configuration and its digests in `SequenceId::ALL` order
/// (blue_sky, pedestrian_area, riverbed, rush_hour).
struct Pin {
    codec: CodecId,
    /// B pictures between anchors.
    b_frames: u8,
    width: u32,
    height: u32,
    frames: u32,
    digests: [u64; 4],
}

impl Pin {
    /// FNV-1a 64 of the concatenated packet payloads, coding order.
    fn digest(&self, sid: SequenceId) -> u64 {
        let options = CodingOptions {
            b_frames: self.b_frames,
            ..CodingOptions::default()
        };
        let seq = Sequence::new(sid, Resolution::new(self.width, self.height));
        let enc = encode_sequence(self.codec, seq, self.frames, &options)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name(sid)));
        enc.packets
            .iter()
            .fold(FNV1A64_INIT, |h, p| fnv1a64_update(h, &p.data))
    }

    fn name(&self, sid: SequenceId) -> String {
        let Pin {
            codec,
            b_frames,
            width,
            height,
            frames,
            ..
        } = self;
        format!("{codec}/{sid}/b{b_frames}/{width}x{height}x{frames}")
    }
}

/// `frames = 9` codes I BBP BBP BB with two B pictures.
const PINNED: [Pin; 8] = [
    Pin {
        codec: CodecId::Mpeg2,
        b_frames: 2,
        width: 176,
        height: 144,
        frames: 9,
        digests: [
            0xaea3_abf3_1fef_2f7e,
            0x8124_0684_aab1_2df1,
            0x7dc7_1f99_37ac_85b5,
            0x1818_1bb0_9bbe_3160,
        ],
    },
    Pin {
        codec: CodecId::Mpeg4,
        b_frames: 2,
        width: 176,
        height: 144,
        frames: 9,
        digests: [
            0x7cc4_2614_fa54_55de,
            0x8a1d_c8a5_220f_f007,
            0x1da8_da4c_3714_24b7,
            0xc286_dce4_c7cc_1448,
        ],
    },
    Pin {
        codec: CodecId::H264,
        b_frames: 2,
        width: 176,
        height: 144,
        frames: 9,
        digests: [
            0xd9a2_400a_a9cf_6d1b,
            0xdb0f_4a97_ec96_7a8a,
            0x2808_857c_4360_ca94,
            0x07a4_c441_1304_8793,
        ],
    },
    Pin {
        codec: CodecId::H264,
        b_frames: 0,
        width: 176,
        height: 144,
        frames: 9,
        digests: [
            0xcbd6_4a27_c10e_74d4,
            0x2198_f425_57c6_e318,
            0x0c31_2328_b126_c6fd,
            0xed75_2d30_c3e9_ec6b,
        ],
    },
    Pin {
        codec: CodecId::H264,
        b_frames: 0,
        width: 352,
        height: 288,
        frames: 12,
        digests: [
            0x62ef_410a_9fb9_d049,
            0x05c1_db9f_b4e1_2702,
            0x2299_2779_77c7_d179,
            0xbaa1_6c51_8425_ce15,
        ],
    },
    Pin {
        codec: CodecId::Mpeg2,
        b_frames: 2,
        width: 168,
        height: 104,
        frames: 9,
        digests: [
            0x52b8_e826_6e5f_421f,
            0x9234_b1cb_c6b3_f8d4,
            0x4c51_78e2_d9a0_506c,
            0x7829_350e_1a1b_ac87,
        ],
    },
    Pin {
        codec: CodecId::Mpeg4,
        b_frames: 2,
        width: 168,
        height: 104,
        frames: 9,
        digests: [
            0x3170_6577_6215_9526,
            0xd2d2_82da_3832_e9d8,
            0x72c1_8380_94cf_44cd,
            0xc653_1744_57a5_fbae,
        ],
    },
    Pin {
        codec: CodecId::H264,
        b_frames: 2,
        width: 168,
        height: 104,
        frames: 9,
        digests: [
            0x64a9_3fb3_4869_2842,
            0x6c3a_812a_f1dc_1891,
            0xa820_88fe_076d_6c96,
            0x2755_a1f1_56e1_ecf1,
        ],
    },
];

#[test]
fn coded_streams_match_pinned_digests() {
    let mut mismatches = Vec::new();
    for pin in &PINNED {
        for (sid, want) in SequenceId::ALL.into_iter().zip(pin.digests) {
            let got = pin.digest(sid);
            if got != want {
                mismatches.push(format!(
                    "{}: got {got:#018x}, pinned {want:#018x}",
                    pin.name(sid)
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

/// The H.264 encoder answers a 16×16 reference search it would repeat
/// from the previous P picture's result (DESIGN.md §5, "Reusing a
/// reference search"). On the 176x144 P-only row every reference slot of
/// every P macroblock is either searched or reused, the three sequences
/// with static or slowly moving regions reuse some, and the bytes stay
/// the pinned ones with the counters on.
#[test]
fn p_only_row_reuses_reference_searches() {
    let pin = PINNED
        .iter()
        .find(|p| p.codec == CodecId::H264 && p.b_frames == 0 && p.width == 176)
        .expect("the 176x144 P-only row");
    // After the I picture the reference list grows by one per P picture
    // up to the configured count.
    let refs = u32::from(CodingOptions::default().h264_refs);
    let slots: u32 = (1..pin.frames).map(|p| p.min(refs)).sum();
    let per_clip = u64::from(slots * (pin.width / 16) * (pin.height / 16));

    trace::set_enabled(true);
    let digests: Vec<u64> = std::thread::scope(|s| {
        SequenceId::ALL
            .into_iter()
            .map(|sid| {
                // One named thread per clip: counters are kept per thread.
                std::thread::Builder::new()
                    .name(format!("memo-{sid}"))
                    .spawn_scoped(s, move || pin.digest(sid))
                    .expect("spawn")
                    .join()
                    .expect("encode")
            })
            .collect()
    });
    trace::set_enabled(false);
    let report = trace::collect();
    for (sid, (got, want)) in SequenceId::ALL
        .into_iter()
        .zip(digests.into_iter().zip(pin.digests))
    {
        assert_eq!(
            got,
            want,
            "{}: bytes changed with tracing on",
            pin.name(sid)
        );
        let t = report
            .threads
            .iter()
            .find(|t| t.name == format!("memo-{sid}"))
            .expect("the clip's thread recorded");
        let searched = t.counters[Counter::Me16Searched as usize];
        let reused = t.counters[Counter::Me16Reused as usize];
        assert_eq!(searched + reused, per_clip, "{}", pin.name(sid));
        if sid != SequenceId::Riverbed {
            assert!(reused > 0, "{}: no search reused", pin.name(sid));
        }
    }
}
