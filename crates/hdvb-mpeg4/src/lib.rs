//! An MPEG-4-ASP-class video encoder and decoder.
//!
//! HD-VideoBench's stand-in for the paper's Xvid application: the
//! MPEG-4 Advanced Simple Profile toolset on top of the same 8×8-DCT
//! macroblock machinery as the MPEG-2-class codec, *plus* the ASP tools
//! that give MPEG-4 its rate advantage at equal quality:
//!
//! * **quarter-pel** motion compensation (`qpel` in the paper's Xvid
//!   command line),
//! * **four-MV mode** (an independent vector per 8×8 luma block),
//! * **median motion-vector prediction** from three spatial neighbours,
//! * **adaptive intra DC prediction** (left-or-top by gradient rule),
//! * **3-D run-level entropy coding** (`(last, run, level)` events, no
//!   end-of-block symbol).
//!
//! The bitstream syntax is this crate's own; every tool and the
//! computational profile match the MPEG-4 ASP generation (see
//! DESIGN.md for the documented substitutions: 6-tap instead of 8-tap
//! quarter-pel filter, no GMC, no AC prediction).
//!
//! What a coded picture *is* — [`PacketKind`], [`Packet`], [`CodecError`],
//! the header fields every packet opens with, the I-P-B-B coding order —
//! is the benchmark's definition, shared by all three codecs and
//! re-exported here from `hdvb_bits::picture`. So is the stream around
//! the pictures: `hdvb-core` schedules the GOP, copies the input,
//! cancels and reorders for display. This crate codes one picture at a
//! time ([`Mpeg4Encoder::encode_picture`],
//! [`Mpeg4Decoder::decode_picture`]) with its packet [`MAGIC`] and the
//! coding tools.
//!
//! # Example
//!
//! ```
//! use hdvb_bits::BitReader;
//! use hdvb_dsp::SimdLevel;
//! use hdvb_frame::Frame;
//! use hdvb_mpeg4::{Mpeg4Decoder, Mpeg4Encoder, PacketKind};
//!
//! let simd = SimdLevel::detect();
//! let mut enc = Mpeg4Encoder::new(64, 48, 5, 24, simd)?;
//! let mut dec = Mpeg4Decoder::new(simd);
//! let mut decoded = Vec::new();
//! // Coding order I0 P2 B1: the B picture predicts from both anchors.
//! for (kind, index) in [(PacketKind::I, 0), (PacketKind::P, 2), (PacketKind::B, 1)] {
//!     let packet = enc.encode_picture(&Frame::new(64, 48), kind, index);
//!     decoded.push(dec.decode_picture(&mut BitReader::new(&packet.data))?.0);
//! }
//! assert_eq!(decoded, [PacketKind::I, PacketKind::P, PacketKind::B]);
//! # Ok::<(), hdvb_mpeg4::CodecError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blocks;
mod decoder;
mod encoder;
mod tables;

pub use decoder::Mpeg4Decoder;
pub use encoder::Mpeg4Encoder;
pub use encoder::MAGIC;
pub use hdvb_bits::picture::{CodecError, Packet, PacketKind};
