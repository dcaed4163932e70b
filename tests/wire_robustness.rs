//! Wire-protocol robustness: golden vectors plus mutation fuzzing.
//!
//! The vectors under `tests/corpus/wire/` are regenerated
//! deterministically by `hdvb_net::golden::golden_vectors()`; a test
//! below asserts the checked-in bytes still match the generator
//! (regenerate with `HDVB_WRITE_GOLDEN=1 cargo test --test
//! wire_robustness`). Every `ok--` vector must decode completely,
//! every `err--` vector must fail with a typed `WireError`, and no
//! input — golden or fuzzed — may ever panic the decoder.

use hd_videobench::bits::hash::checksum64;
use hd_videobench::fuzz::{mutate, FuzzRng, Mutator};
use hd_videobench::net::golden::golden_vectors;
use hd_videobench::net::wire::{self, WireError, HEADER_LEN, TRAILER_LEN};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/wire")
}

/// Decodes a buffer as a stream of framed messages; `Ok(n)` when all
/// `n` messages parsed and nothing was left over.
fn decode_all(mut buf: &[u8]) -> Result<usize, wire::WireError> {
    let mut n = 0usize;
    while !buf.is_empty() {
        let (_msg, _seq, used) = wire::decode(buf)?;
        buf = &buf[used..];
        n += 1;
    }
    Ok(n)
}

#[test]
fn checked_in_vectors_match_the_generator() {
    let dir = corpus_dir();
    if std::env::var("HDVB_WRITE_GOLDEN").is_ok() {
        std::fs::create_dir_all(&dir).expect("create corpus dir");
        for g in golden_vectors() {
            std::fs::write(dir.join(format!("{}.bin", g.name)), &g.bytes)
                .expect("write golden vector");
        }
    }
    let vectors = golden_vectors();
    assert!(vectors.len() >= 10, "only {} golden vectors", vectors.len());
    for g in &vectors {
        let path = dir.join(format!("{}.bin", g.name));
        let on_disk = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{} missing ({e}); regenerate with HDVB_WRITE_GOLDEN=1",
                g.name
            )
        });
        assert_eq!(
            on_disk, g.bytes,
            "{} drifted from the generator; regenerate with HDVB_WRITE_GOLDEN=1",
            g.name
        );
    }
    // No stray files either — the corpus is exactly the generator's set.
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus dir readable")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().is_some_and(|x| x == "bin"))
                .then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    stems.sort();
    let mut expected: Vec<String> = vectors.iter().map(|g| g.name.to_string()).collect();
    expected.sort();
    assert_eq!(stems, expected);
}

#[test]
fn golden_vectors_decode_as_tagged_without_panicking() {
    for g in golden_vectors() {
        let outcome = catch_unwind(AssertUnwindSafe(|| decode_all(&g.bytes)))
            .unwrap_or_else(|_| panic!("{}: decoder panicked", g.name));
        assert_eq!(
            outcome.is_ok(),
            g.valid,
            "{}: expected valid={}, got {outcome:?}",
            g.name,
            g.valid
        );
    }
}

fn golden(name: &str) -> Vec<u8> {
    golden_vectors()
        .into_iter()
        .find(|g| g.name == name)
        .unwrap_or_else(|| panic!("no golden vector {name}"))
        .bytes
}

/// The `err--` vectors that exist to pin one specific refusal fail for
/// that reason and no other.
#[test]
fn error_vectors_fail_for_the_reason_they_are_named_for() {
    // A version-2 peer is told so, not misread as corruption.
    assert_eq!(
        decode_all(&golden("err--bad-version")),
        Err(WireError::BadVersion(2))
    );
    assert!(matches!(
        decode_all(&golden("err--bad-payload-checksum")),
        Err(WireError::BadPayloadChecksum { .. })
    ));
    let cut = golden("err--trunc-trailer");
    assert_eq!(
        decode_all(&cut),
        Err(WireError::Truncated {
            need: cut.len() + TRAILER_LEN - 3,
            have: cut.len()
        })
    );
}

/// `encoded_len` is exact for every message the corpus holds, and
/// re-encoding a decoded message reproduces its bytes.
#[test]
fn encoded_len_is_exact_for_every_golden_message() {
    let mut checked = 0usize;
    for g in golden_vectors().into_iter().filter(|g| g.valid) {
        let mut buf = &g.bytes[..];
        while !buf.is_empty() {
            let (msg, seq, used) = wire::decode(buf).expect("ok-- vector");
            assert_eq!(wire::encoded_len(&msg), used, "{}: {msg:?}", g.name);
            let mut again = Vec::new();
            wire::encode(&msg, seq, &mut again);
            assert_eq!(again, &buf[..used], "{}: {msg:?}", g.name);
            buf = &buf[used..];
            checked += 1;
        }
    }
    assert!(checked >= 15, "only {checked} messages checked");
}

/// Every single-bit flip anywhere in the golden 16x16 FRAME — header,
/// each payload lane and tail byte, trailer — is refused; and over the
/// payload alone the checksum itself moves.
#[test]
fn every_bit_flip_in_the_golden_frame_is_detected() {
    let clean = golden("ok--frame-16x16");
    let payload_end = clean.len() - TRAILER_LEN;
    let sum = checksum64(&clean[HEADER_LEN..payload_end]);
    assert_eq!(
        sum.to_le_bytes(),
        clean[payload_end..],
        "trailer is checksum64"
    );
    let mut flipped = clean.clone();
    for bit in 0..clean.len() * 8 {
        let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
        flipped[byte] ^= mask;
        assert!(decode_all(&flipped).is_err(), "bit {bit} went undetected");
        if (HEADER_LEN..payload_end).contains(&byte) {
            assert_ne!(checksum64(&flipped[HEADER_LEN..payload_end]), sum);
        }
        flipped[byte] ^= mask;
    }
}

/// Structure-aware fuzzing: the `hdvb-fuzz` byte-level mutators chew on
/// valid framed session transcripts; whatever comes out, the decoder
/// must return a typed error or a clean parse — never panic. Mutants of
/// mutants keep the pressure on the resynchronisation paths.
#[test]
fn mutated_streams_never_panic_the_decoder() {
    let seeds: Vec<Vec<u8>> = golden_vectors().into_iter().map(|g| g.bytes).collect();
    let mutators = [
        Mutator::BitFlip,
        Mutator::ByteSet,
        Mutator::Truncate,
        Mutator::DuplicateSpan,
        Mutator::Splice,
    ];
    let mut corpus = seeds.clone();
    let mut rng = FuzzRng::new(0x5EED_0001);
    let mut decoded_ok = 0u32;
    let mut rejected = 0u32;
    for round in 0..2_000usize {
        let base = &corpus[round % corpus.len()];
        let other = &corpus[(round * 7 + 1) % corpus.len()];
        let mutator = mutators[round % mutators.len()];
        let mutant = mutate(base, mutator, other, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| decode_all(&mutant))).unwrap_or_else(|_| {
            panic!(
                "decoder panicked on {} mutant of round {round}",
                mutator.name()
            )
        });
        match outcome {
            Ok(_) => decoded_ok += 1,
            Err(_) => rejected += 1,
        }
        // Grow a small rolling corpus so later rounds mutate mutants.
        if corpus.len() < 64 {
            corpus.push(mutant);
        } else {
            let slot = seeds.len() + round % (64 - seeds.len());
            corpus[slot] = mutant;
        }
    }
    // Sanity: the harness exercised both outcomes, so it is actually
    // reaching the decoder (not, say, truncating everything to empty).
    assert!(rejected > 0, "no mutant was ever rejected");
    assert!(
        decoded_ok + rejected == 2_000,
        "accounting broke: {decoded_ok} + {rejected}"
    );
}

/// Every rejection is a *typed* error whose Display text is stable
/// enough to log — exercising the error paths' formatting too.
#[test]
fn wire_errors_render_without_panicking() {
    let mut rng = FuzzRng::new(77);
    let seeds: Vec<Vec<u8>> = golden_vectors().into_iter().map(|g| g.bytes).collect();
    let mut errors = 0u32;
    for round in 0..500usize {
        let base = &seeds[round % seeds.len()];
        let mutant = mutate(base, Mutator::ByteSet, base, &mut rng);
        if let Err(e) = decode_all(&mutant) {
            errors += 1;
            let rendered = e.to_string();
            assert!(!rendered.is_empty());
        }
    }
    assert!(
        errors > 0,
        "byte-set mutation never produced a decode error"
    );
}
