//! Seed streams, golden corruption vectors and on-disk corpus handling.
//!
//! Seeds are tiny valid streams encoded deterministically (scalar SIMD,
//! fixed sequence, fixed frame count), so every fuzz run starts from the
//! same baseline regardless of machine. Golden vectors are *derived*
//! corruptions of those seeds — the reproducers the robustness test suite
//! replays — and regenerating them must produce the checked-in bytes
//! exactly (a test guards this).

use hdvb_bits::picture::{write_picture_prefix, PicturePrefix};
use hdvb_bits::BitWriter;
use hdvb_core::{
    encode_sequence, read_stream, write_stream, CodecId, CodingOptions, Packet, PacketKind,
    StreamHeader,
};
use hdvb_dsp::SimdLevel;
use hdvb_frame::{Resolution, VideoFormat};
use hdvb_seq::{Sequence, SequenceId};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Geometry of the seed streams (small enough to fuzz fast, large enough
/// for multi-macroblock rows and real motion).
const SEED_W: u32 = 48;
const SEED_H: u32 = 32;
const SEED_FRAMES: u32 = 4;

/// What the robustness suite asserts about a golden vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Some packet must be rejected with `BenchError::Corrupt` — and
    /// nothing may panic.
    MustCorrupt,
    /// The container itself must be rejected before any codec runs.
    ContainerError,
    /// No behavioural promise beyond "never panics, tiers agree".
    NoPanic,
}

impl Expectation {
    /// File-name tag, parsed back by the robustness tests.
    pub fn tag(self) -> &'static str {
        match self {
            Expectation::MustCorrupt => "corrupt",
            Expectation::ContainerError => "container",
            Expectation::NoPanic => "nopanic",
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<Expectation> {
        match tag {
            "corrupt" => Some(Expectation::MustCorrupt),
            "container" => Some(Expectation::ContainerError),
            "nopanic" => Some(Expectation::NoPanic),
            _ => None,
        }
    }
}

/// One named, checked-in corruption reproducer.
#[derive(Clone, Debug)]
pub struct GoldenVector {
    /// Short kebab-case identifier.
    pub name: String,
    /// What the test suite asserts about it.
    pub expect: Expectation,
    /// The container bytes.
    pub data: Vec<u8>,
}

impl GoldenVector {
    /// File name used when the vector is checked into `tests/corpus/`.
    pub fn file_name(&self) -> String {
        format!("{}--{}.hvb", self.expect.tag(), self.name)
    }
}

/// Encodes the deterministic seed stream for `codec`.
pub fn seed_stream(codec: CodecId) -> Vec<u8> {
    let seq = Sequence::new(SequenceId::RushHour, Resolution::new(SEED_W, SEED_H));
    let options = CodingOptions::default().with_simd(SimdLevel::Scalar);
    let enc = encode_sequence(codec, seq, SEED_FRAMES, &options)
        .expect("seed encode of a valid tiny sequence cannot fail");
    let header = StreamHeader {
        codec,
        format: VideoFormat::at_25fps(Resolution::new(SEED_W, SEED_H)),
    };
    let mut out = Vec::new();
    write_stream(&mut out, &header, &enc.packets).expect("in-memory write cannot fail");
    out
}

/// All seed streams, one valid container per codec.
pub fn seed_entries() -> Vec<(String, Vec<u8>)> {
    CodecId::ALL
        .iter()
        .map(|&c| (format!("seed-{c}"), seed_stream(c)))
        .collect()
}

fn with_packet0<F: FnOnce(&mut Packet)>(stream: &[u8], f: F) -> Vec<u8> {
    let (header, mut packets) = read_stream(stream).expect("seed stream parses by construction");
    f(&mut packets[0]);
    let mut out = Vec::new();
    write_stream(&mut out, &header, &packets).expect("in-memory write cannot fail");
    out
}

/// One-packet stream whose packet is whatever `build` writes.
fn crafted_packet(codec: CodecId, build: impl FnOnce(&mut BitWriter)) -> Vec<u8> {
    let mut w = BitWriter::new();
    build(&mut w);
    let header = StreamHeader {
        codec,
        format: VideoFormat::at_25fps(Resolution::new(SEED_W, SEED_H)),
    };
    let packets = [Packet {
        data: w.finish(),
        kind: PacketKind::I,
        display_index: 0,
    }];
    let mut out = Vec::new();
    write_stream(&mut out, &header, &packets).expect("in-memory write cannot fail");
    out
}

/// One-packet stream that ends right after a well-formed I-picture
/// prefix carrying the given dimensions.
fn crafted_dims(codec: CodecId, width: usize, height: usize) -> Vec<u8> {
    let prefix = PicturePrefix {
        kind: PacketKind::I,
        display_index: 0,
        width,
        height,
    };
    crafted_packet(codec, |w| {
        write_picture_prefix(w, codec.packet_magic(), &prefix)
    })
}

/// Generates the full golden-vector set (deterministic; ≥ 25 entries).
///
/// Categories, per codec: truncation at every fixed-header boundary,
/// start-code/magic corruption, reserved frame types, oversized and
/// undersized dimensions, zero-length packets, and payload damage that
/// must at worst drop frames. Plus container-level framing corruption
/// shared across codecs.
pub fn golden_vectors() -> Vec<GoldenVector> {
    let mut v = Vec::new();
    for codec in CodecId::ALL {
        let seed = seed_stream(codec);
        let push = |v: &mut Vec<GoldenVector>, name: &str, expect, data| {
            v.push(GoldenVector {
                name: format!("{codec}-{name}"),
                expect,
                data,
            });
        };
        // Truncations at each fixed-header boundary of packet 0: inside
        // the magic (1), after the magic (2), inside the display index
        // (4), just before the dimension fields (6). All must fail with
        // a typed Truncated error.
        for cut in [0usize, 1, 2, 4, 6] {
            push(
                &mut v,
                &format!("trunc-{cut}"),
                Expectation::MustCorrupt,
                with_packet0(&seed, |p| p.data.truncate(cut)),
            );
        }
        // Flipped start code: the decoder must identify a foreign packet
        // immediately.
        push(
            &mut v,
            "bad-magic",
            Expectation::MustCorrupt,
            with_packet0(&seed, |p| p.data[0] ^= 0xFF),
        );
        // Reserved frame type (bits 16..18 = 0b11).
        push(
            &mut v,
            "bad-frame-type",
            Expectation::MustCorrupt,
            crafted_packet(codec, |w| {
                w.put_bits(codec.packet_magic(), 16);
                w.put_bits(3, 2);
            }),
        );
        // Oversized dimensions: within the u32 field but far past the
        // 16384 / 64-Mpixel caps. Must fail *before* any allocation.
        push(
            &mut v,
            "oversized-dims",
            Expectation::MustCorrupt,
            crafted_dims(codec, 100_000, 100_000),
        );
        // Zero dimensions (below the 16-pixel minimum).
        push(
            &mut v,
            "zero-dims",
            Expectation::MustCorrupt,
            crafted_dims(codec, 0, 0),
        );
        // Odd dimensions: plausible sizes that 4:2:0 chroma subsampling
        // cannot represent. Found by the fuzzer panicking in the output
        // crop; must now be a typed header rejection.
        push(
            &mut v,
            "odd-dims",
            Expectation::MustCorrupt,
            crafted_dims(codec, 47, 32),
        );
        // Mid-payload truncation and bit damage: the decoder may recover
        // or reject, but must never panic and every tier must agree.
        push(
            &mut v,
            "trunc-half",
            Expectation::NoPanic,
            with_packet0(&seed, |p| {
                let half = p.data.len() / 2;
                p.data.truncate(half);
            }),
        );
        push(
            &mut v,
            "payload-flip",
            Expectation::NoPanic,
            with_packet0(&seed, |p| {
                let mid = p.data.len() / 2;
                p.data[mid] ^= 0x55;
            }),
        );
    }
    // Container-level corruption: rejected before any codec runs.
    let seed = seed_stream(CodecId::Mpeg2);
    let mut bad_magic = seed.clone();
    bad_magic[3] = b'0'; // "HVB1" -> "HVB0"
    v.push(GoldenVector {
        name: "container-bad-magic".into(),
        expect: Expectation::ContainerError,
        data: bad_magic,
    });
    let mut bad_codec = seed.clone();
    bad_codec[4] = 0x7F; // unknown codec id byte
    v.push(GoldenVector {
        name: "container-bad-codec".into(),
        expect: Expectation::ContainerError,
        data: bad_codec,
    });
    v.push(GoldenVector {
        name: "container-trunc-header".into(),
        expect: Expectation::ContainerError,
        data: seed[..9].to_vec(),
    });
    let mut huge_len = seed.clone();
    // Forge the first packet's length field (kind u8 + display u32 follow
    // the 25-byte stream header) to 2^30: must be rejected by the size
    // cap, not allocated.
    huge_len[30..34].copy_from_slice(&(1u32 << 30).to_le_bytes());
    v.push(GoldenVector {
        name: "container-huge-packet-len".into(),
        expect: Expectation::ContainerError,
        data: huge_len,
    });
    v
}

/// Loads every `*.hvb` file from `dir`, sorted by file name for
/// deterministic replay order. A missing directory is an empty corpus.
pub fn load_corpus(dir: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut entries = Vec::new();
    let rd = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(entries),
        Err(e) => return Err(e),
    };
    for entry in rd {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "hvb") {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("entry")
                .to_string();
            entries.push((name, fs::read(&path)?));
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(entries)
}

/// Writes `data` as `<dir>/<name>.hvb`, creating the directory.
pub fn save_entry(dir: &Path, name: &str, data: &[u8]) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.hvb"));
    fs::write(&path, data)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_streams_are_valid_and_deterministic() {
        for codec in CodecId::ALL {
            let a = seed_stream(codec);
            let b = seed_stream(codec);
            assert_eq!(a, b, "{codec}");
            let (header, packets) = read_stream(&a[..]).unwrap_or_else(|e| {
                panic!("{codec} seed must parse: {e}");
            });
            assert_eq!(header.codec, codec);
            assert_eq!(packets.len() as u32, SEED_FRAMES);
        }
    }

    #[test]
    fn golden_set_is_large_enough_and_uniquely_named() {
        let v = golden_vectors();
        assert!(v.len() >= 25, "only {} vectors", v.len());
        let mut names: Vec<_> = v.iter().map(|g| g.file_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), v.len());
    }

    #[test]
    fn huge_packet_len_vector_targets_the_length_field() {
        let g = golden_vectors()
            .into_iter()
            .find(|g| g.name == "container-huge-packet-len")
            .expect("vector exists");
        // Sanity-check the hand-computed offset: the forged field must
        // make read_stream fail with the size-cap error.
        let err = read_stream(&g.data[..]).expect_err("must be rejected");
        assert!(err.to_string().contains("packet size"), "{err}");
    }
}
