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
//! re-exported here from `hdvb_bits::picture`; this crate adds its own
//! [`EncoderConfig`], its packet [`MAGIC`] and the coding tools.
//!
//! # Example
//!
//! ```
//! use hdvb_frame::Frame;
//! use hdvb_mpeg4::{EncoderConfig, Mpeg4Decoder, Mpeg4Encoder};
//!
//! let mut enc = Mpeg4Encoder::new(EncoderConfig::new(64, 48))?;
//! let mut dec = Mpeg4Decoder::new();
//! let mut packets = enc.encode(&Frame::new(64, 48))?;
//! packets.extend(enc.flush()?);
//! let mut out = Vec::new();
//! for p in &packets {
//!     out.extend(dec.decode(&p.data)?);
//! }
//! out.extend(dec.flush());
//! assert_eq!(out.len(), 1);
//! # Ok::<(), hdvb_mpeg4::CodecError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blocks;
mod config;
mod decoder;
mod encoder;
mod tables;

pub use config::EncoderConfig;
pub use decoder::Mpeg4Decoder;
pub use encoder::Mpeg4Encoder;
pub use encoder::MAGIC;
pub use hdvb_bits::picture::{CodecError, Packet, PacketKind};
