//! Structure-aware bitstream fuzzing and a differential conformance
//! harness for the HD-VideoBench codecs.
//!
//! Three layers, all first-party and deterministic:
//!
//! * **Mutators** ([`mutate`], [`Mutator`]) — blind byte-level damage plus
//!   container/packet-aware corruption that targets header fields, entropy
//!   payloads and stream ordering independently.
//! * **Oracle** ([`differential_check`], [`EntryOutcome`]) — every entry
//!   is decoded under each supported SIMD tier, serially and on a thread
//!   pool, and the outcomes must match exactly: same frames bit-for-bit,
//!   or the same typed [`CorruptKind`](hdvb_bits::CorruptKind) at the same
//!   bit offset. Panics are caught and always count as failures.
//! * **Loop** ([`run_fuzz`], [`FuzzConfig`]) — a coverage-proxy scheduler
//!   keyed on decoder-reported parse positions grows a live corpus from
//!   deterministic seeds, minimises any reproducer it finds and persists
//!   it for check-in as a golden vector ([`golden_vectors`]).
//! * **Round trips** ([`roundtrip_check`]) — the encoder-side oracle:
//!   random frame content, resolutions and coding options are pushed
//!   through the full encode→decode round trip, asserting byte-identical
//!   streams and bit-identical reconstructions across every SIMD tier
//!   and across worker threads.
//!
//! # Example
//!
//! ```
//! use hdvb_fuzz::{run_fuzz, FuzzConfig};
//!
//! let report = run_fuzz(&FuzzConfig {
//!     seconds: 1,
//!     seed: 1,
//!     max_execs: Some(5),
//!     threads: 0,
//!     corpus_dir: None,
//!     roundtrips: 2,
//! })?;
//! assert!(report.failures.is_empty());
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod corpus;
mod mutate;
mod oracle;
mod rng;
mod roundtrip;
mod run;

pub use corpus::{
    golden_vectors, load_corpus, save_entry, seed_entries, seed_stream, Expectation, GoldenVector,
};
pub use mutate::{mutate, Mutator};
pub use oracle::{decode_entry, differential_check, Divergence, EntryOutcome, PacketOutcome};
pub use rng::FuzzRng;
pub use roundtrip::{generate_case, roundtrip_check, RoundtripCase};
pub use run::{minimize, run_fuzz, Failure, FuzzConfig, FuzzReport};
