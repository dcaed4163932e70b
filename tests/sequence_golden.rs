//! Golden frame hashes for the four camera-sequence generators.
//!
//! Every coded-stream digest, every Table V cell and every benchmark
//! workload starts from frames that `hdvb-seq` renders, so a renderer
//! change that moves one pixel moves them all. The vectors under
//! `tests/corpus/sequences/` record an FNV-1a hash per frame for each
//! (sequence, geometry) pair; regenerate with
//! `HDVB_WRITE_GOLDEN=1 cargo test --test sequence_golden -- --include-ignored`
//! after an *intentional* generator change.

use hd_videobench::bench::fnv1a64;
use hd_videobench::frame::Resolution;
use hd_videobench::seq::{Sequence, SequenceId};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/sequences")
}

/// The small grid runs in every debug test pass. 168x104 is not a
/// multiple of 16; the frame indices sample the start, a step, the clip's
/// middle and its late frames, where blue_sky's rotated sampling grid
/// reaches furthest into negative coordinates and across both tree rims.
const SMALL_GEOMETRIES: [(u32, u32); 3] = [(96, 64), (176, 144), (168, 104)];
const SMALL_FRAMES: [u32; 6] = [0, 1, 5, 25, 80, 99];

/// The benchmark's own geometries. A 720p blue_sky frame takes seconds
/// in a debug build, so these rows run in release only (`scripts/ci.sh`).
const HD_GEOMETRIES: [(u32, u32); 2] = [(1280, 720), (1920, 1088)];
const HD_FRAMES: [u32; 2] = [0, 57];

fn name(id: SequenceId, (w, h): (u32, u32)) -> String {
    format!("{}--{w}x{h}", id.name())
}

/// One vector per (sequence, geometry): a text file of `index hash`
/// lines, where each hash folds all three planes.
fn golden_vectors(geometries: &[(u32, u32)], frames: &[u32]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for id in SequenceId::ALL {
        for &(w, h) in geometries {
            let seq = Sequence::new(id, Resolution::new(w, h));
            let mut lines = String::new();
            for &i in frames {
                let f = seq.frame(i);
                let mut hash = fnv1a64(f.y().data());
                hash ^= fnv1a64(f.cb().data()).rotate_left(1);
                hash ^= fnv1a64(f.cr().data()).rotate_left(2);
                lines.push_str(&format!("{i} {hash:016x}\n"));
            }
            out.push((name(id, (w, h)), lines));
        }
    }
    out
}

/// Compares `vectors` with the checked-in files, first rewriting them
/// when `HDVB_WRITE_GOLDEN` is set.
fn check(vectors: &[(String, String)]) {
    let dir = corpus_dir();
    if std::env::var("HDVB_WRITE_GOLDEN").is_ok() {
        std::fs::create_dir_all(&dir).expect("create corpus dir");
        for (name, lines) in vectors {
            std::fs::write(dir.join(format!("{name}.txt")), lines).expect("write golden hashes");
        }
    }
    for (name, lines) in vectors {
        let on_disk =
            std::fs::read_to_string(dir.join(format!("{name}.txt"))).unwrap_or_else(|e| {
                panic!("{name} missing ({e}); regenerate with HDVB_WRITE_GOLDEN=1")
            });
        assert_eq!(
            &on_disk, lines,
            "{name} drifted from the generator; regenerate with HDVB_WRITE_GOLDEN=1"
        );
    }
}

#[test]
fn small_frames_match_the_checked_in_hashes() {
    check(&golden_vectors(&SMALL_GEOMETRIES, &SMALL_FRAMES));
}

#[test]
#[ignore = "renders 720p and 1088p frames; scripts/ci.sh runs it in release"]
fn hd_frames_match_the_checked_in_hashes() {
    check(&golden_vectors(&HD_GEOMETRIES, &HD_FRAMES));
}

#[test]
fn corpus_is_exactly_the_grid() {
    // No stray files: every vector on disk belongs to one of the two
    // grids above. A rewriting run checks on its next plain run: the
    // other tests may still be writing the corpus.
    if std::env::var("HDVB_WRITE_GOLDEN").is_ok() {
        return;
    }
    let mut stems: Vec<String> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir readable")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().is_some_and(|x| x == "txt"))
                .then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    stems.sort();
    let mut expected: Vec<String> = SequenceId::ALL
        .into_iter()
        .flat_map(|id| {
            SMALL_GEOMETRIES
                .iter()
                .chain(&HD_GEOMETRIES)
                .map(move |&g| name(id, g))
        })
        .collect();
    expected.sort();
    assert_eq!(stems, expected);
}
