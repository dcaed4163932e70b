//! The HD-VideoBench benchmark harness.
//!
//! This crate is the paper's actual contribution: a curated set of video
//! codecs ([`CodecId`]), input sequences (re-exported from `hdvb-seq`),
//! tuned coding options ([`CodingOptions`], Section IV of the paper) and
//! a measurement runner that produces the paper's evaluation
//! artifacts — the rate-distortion comparison of Table V and the
//! decode/encode throughput bars of Figure 1.
//!
//! # Example
//!
//! ```
//! use hdvb_core::{encode_sequence, decode_sequence, CodecId, CodingOptions};
//! use hdvb_frame::Resolution;
//! use hdvb_seq::{Sequence, SequenceId};
//!
//! let seq = Sequence::new(SequenceId::RushHour, Resolution::new(64, 48));
//! let options = CodingOptions::default();
//! let encoded = encode_sequence(CodecId::Mpeg2, seq, 3, &options)?;
//! let decoded = decode_sequence(CodecId::Mpeg2, &encoded.packets, options.simd)?;
//! assert_eq!(decoded.frames.len(), 3);
//! # Ok::<(), hdvb_core::BenchError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod codec;
mod error;
mod faults;
mod journal;
mod ladder;
mod options;
mod parallel;
mod report;
mod runner;
mod session;
mod spec;
mod stream;
mod sweep;

pub use codec::{create_decoder, create_encoder, CodecId, Decoder, Encoder, Packet, PacketKind};
pub use error::BenchError;
pub use faults::{parse_fault_spec, FaultPlan, FaultTarget, FaultToken};
/// The workspace's checksums ([`hdvb_bits::hash`]), re-exported for the
/// crates that sit on `hdvb-core` without naming `hdvb-bits`.
pub use hdvb_bits::hash;
pub use hdvb_bits::hash::fnv1a64;
pub use hdvb_bits::CorruptKind;
/// The workspace's one splitmix64 ([`hdvb_seq::splitmix64`]), re-exported for
/// the crates that sit on `hdvb-core` without naming `hdvb-seq`.
pub use hdvb_seq::splitmix64;
pub use journal::{
    load_journal, truncate_journal, JournalLoad, JournalOutcome, JournalRecord, JournalWriter,
};
pub use ladder::{run_ladder, FrameScaler, LadderResult, LadderSpec, RungResult};
pub use options::{h264_qp_for_mpeg_qscale, CodingOptions};
pub use parallel::{
    encode_sequence_parallel, ExecutionReport, Figure1Part, ParallelEncodeStats, ParallelRunner,
};
pub use report::{
    cpu_model, figure1_markdown, machine_attribution, table5_markdown, Figure1Row, Table5Row,
};
pub use runner::{
    decode_sequence, decode_sequence_cancellable, decode_sequence_resilient, encode_sequence,
    encode_sequence_cancellable, measure_figure1_row, measure_figure1_row_cancellable,
    measure_rd_point, measure_rd_point_cancellable, DecodeResult, EncodeResult, RdPoint,
    ResilientDecode, Throughput,
};
pub use session::{CodecSession, SessionInput, SessionOutput};
pub use spec::{Priority, SessionKind, SessionSpec};
pub use stream::{read_stream, write_stream, StreamHeader};
pub use sweep::{CellOutcome, CellReport, CellTimeout, CellValue, FtSweepReport, SweepPolicy};
