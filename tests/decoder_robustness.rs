//! Table-driven robustness tests over the checked-in corruption corpus.
//!
//! Every `tests/corpus/*.hvb` vector is replayed through the decoders
//! under the scalar tier, every detected SIMD tier, and a 4-thread pool,
//! asserting:
//!
//! * nothing ever panics (`catch_unwind` guards every decode),
//! * vectors tagged `corrupt--` are rejected with a typed
//!   `BenchError::Corrupt { .. }`,
//! * the first failing packet of every `corrupt--` vector fails with the
//!   pinned `(CorruptKind, bit offset)`, so a parser refactor that
//!   reorders header reads or checks cannot pass silently,
//! * vectors tagged `container--` never reach a codec at all,
//! * all execution configurations agree on the exact outcome.
//!
//! The corpus itself is regenerated deterministically by
//! `hdvb fuzz --write-golden tests/corpus`; a test below asserts the
//! checked-in bytes still match the generator, so the vectors cannot
//! silently drift from the code that documents them.

use hd_videobench::bench::{create_decoder, read_stream, BenchError, CodecId};
use hd_videobench::bits::BitWriter;
use hd_videobench::dsp::SimdLevel;
use hd_videobench::fuzz::{differential_check, golden_vectors, seed_stream, Expectation};
use hd_videobench::par::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn load_vectors() -> Vec<(String, Expectation, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/corpus exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "hvb") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 corpus file name")
            .to_string();
        let (tag, _name) = stem
            .split_once("--")
            .unwrap_or_else(|| panic!("corpus file {stem} lacks an expectation tag"));
        let expect = Expectation::from_tag(tag)
            .unwrap_or_else(|| panic!("corpus file {stem} has unknown tag {tag}"));
        out.push((stem, expect, std::fs::read(&path).expect("readable vector")));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(out.len() >= 25, "corpus shrank to {} vectors", out.len());
    out
}

/// Decodes one vector under one tier; panics inside the decoder are the
/// failure being tested for, so each packet is unwind-guarded.
fn decode_vector(data: &[u8], simd: SimdLevel) -> Result<(), String> {
    let (header, packets) = match read_stream(data) {
        Ok(x) => x,
        Err(_) => return Ok(()), // container-level rejection is fine
    };
    let mut dec = create_decoder(header.codec, simd);
    for (i, p) in packets.iter().enumerate() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            dec.decode_packet_into(&p.data, &mut Vec::new())
        }));
        match result {
            Ok(_) => {}
            Err(_) => return Err(format!("packet {i} panicked under {simd:?}")),
        }
    }
    Ok(())
}

#[test]
fn no_vector_panics_under_any_tier() {
    for (name, _expect, data) in load_vectors() {
        for simd in SimdLevel::supported_tiers() {
            decode_vector(&data, simd).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

#[test]
fn corrupt_vectors_fail_with_typed_errors() {
    for (name, expect, data) in load_vectors() {
        match expect {
            Expectation::ContainerError => {
                assert!(read_stream(&data[..]).is_err(), "{name}: container parsed");
            }
            Expectation::MustCorrupt => {
                let (header, packets) =
                    read_stream(&data[..]).unwrap_or_else(|e| panic!("{name}: {e}"));
                let mut dec = create_decoder(header.codec, SimdLevel::Scalar);
                let saw_corrupt = packets.iter().any(|p| {
                    let result = dec.decode_packet_into(&p.data, &mut Vec::new());
                    matches!(result, Err(BenchError::Corrupt { .. }))
                });
                assert!(saw_corrupt, "{name}: no packet raised Corrupt");
            }
            Expectation::NoPanic => {} // covered by the panic sweep above
        }
    }
}

/// `(vector suffix, CorruptKind::name(), bit offset)` of the first failing
/// packet, identical for the three codecs because they share the picture
/// header prefix. The crafted `*-dims` vectors end right after the
/// dimension fields, so they fail as `truncated` on the codec-specific
/// field that follows: the dimension check runs only once the whole
/// header has been read. Hoisting it would turn these rows into
/// `bad-dimensions` at an earlier offset.
const PINNED_ERRORS: [(&str, &str, u64); 10] = [
    ("bad-frame-type", "bad-header-field", 18),
    ("bad-magic", "bad-magic", 16),
    ("odd-dims", "truncated", 72),
    ("oversized-dims", "truncated", 120),
    ("trunc-0", "truncated", 0),
    ("trunc-1", "truncated", 8),
    ("trunc-2", "truncated", 16),
    ("trunc-4", "truncated", 32),
    ("trunc-6", "truncated", 48),
    ("zero-dims", "truncated", 56),
];

#[test]
fn corrupt_vectors_fail_at_the_pinned_kind_and_offset() {
    let vectors = load_vectors();
    let mut checked = 0;
    for codec in CodecId::ALL {
        for (suffix, kind, offset) in PINNED_ERRORS {
            let name = format!("corrupt--{codec}-{suffix}");
            let (_, _, data) = vectors
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} missing from tests/corpus"));
            let (header, packets) =
                read_stream(&data[..]).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(header.codec, codec, "{name}");
            let mut dec = create_decoder(codec, SimdLevel::Scalar);
            let first_error = packets
                .iter()
                .find_map(|p| dec.decode_packet_into(&p.data, &mut Vec::new()).err())
                .unwrap_or_else(|| panic!("{name}: every packet decoded"));
            match first_error {
                BenchError::Corrupt {
                    codec: c,
                    offset: o,
                    kind: k,
                    ..
                } => assert_eq!((c, k.name(), o), (codec, kind, offset), "{name}"),
                other => panic!("{name}: untyped failure {other}"),
            }
            checked += 1;
        }
    }
    let corrupt = vectors
        .iter()
        .filter(|(_, e, _)| *e == Expectation::MustCorrupt)
        .count();
    assert_eq!(checked, corrupt, "a corrupt-- vector has no pinned error");
}

/// The corpus never reaches the dimension check itself (see above), so
/// pin it here: a header that is complete but carries odd dimensions must
/// be rejected as `bad-dimensions` *after* the codec-specific fields were
/// read (one `ue` for the MPEG codecs; two `ue` and a flag for H.264) and
/// before their range checks (the all-ones tail reads as qscale 0).
#[test]
fn bad_dimensions_are_rejected_after_the_codec_specific_header_fields() {
    for (codec, offset) in [
        (CodecId::Mpeg2, 73),
        (CodecId::Mpeg4, 73),
        (CodecId::H264, 75),
    ] {
        let (_, seed) = read_stream(&seed_stream(codec)[..]).expect("seed stream parses");
        let mut w = BitWriter::new();
        w.put_bits(
            u32::from(seed[0].data[0]) << 8 | u32::from(seed[0].data[1]),
            16,
        );
        w.put_bits(0, 2); // I picture
        w.put_bits(0, 32); // display index
        w.put_ue(47); // width (11 bits)
        w.put_ue(32); // height (11 bits)
        w.put_bits(0xFFFF, 16); // every following field reads as 0 / true
        let err = create_decoder(codec, SimdLevel::Scalar)
            .decode_packet_into(&w.finish(), &mut Vec::new())
            .expect_err("odd width must be rejected");
        match err {
            BenchError::Corrupt {
                offset: o, kind: k, ..
            } => assert_eq!((k.name(), o), ("bad-dimensions", offset), "{codec}"),
            other => panic!("{codec}: untyped failure {other}"),
        }
    }
}

#[test]
fn all_tiers_and_a_thread_pool_agree_on_every_vector() {
    let pool = ThreadPool::new(4);
    for (name, _expect, data) in load_vectors() {
        let outcome = differential_check(&data, Some(&pool))
            .unwrap_or_else(|d| panic!("{name}: divergence {d:?}"));
        assert!(!outcome.has_panic(), "{name}: decoder panicked");
    }
}

#[test]
fn checked_in_corpus_matches_the_generator() {
    let vectors = golden_vectors();
    let on_disk = load_vectors();
    // Every generated vector must exist on disk with identical bytes
    // (extra on-disk entries — fuzz-found reproducers — are allowed).
    for g in &vectors {
        let stem = g.file_name();
        let stem = stem.trim_end_matches(".hvb");
        let found = on_disk
            .iter()
            .find(|(name, _, _)| name == stem)
            .unwrap_or_else(|| {
                panic!("golden vector {stem} missing from tests/corpus — run `hdvb fuzz --write-golden tests/corpus`")
            });
        assert_eq!(found.2, g.data, "{stem}: bytes drifted from generator");
    }
}
