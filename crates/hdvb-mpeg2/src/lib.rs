//! An MPEG-2-class video encoder and decoder.
//!
//! This is HD-VideoBench's stand-in for the paper's FFmpeg MPEG-2 encoder
//! and `libmpeg2` decoder: a complete codec with the MPEG-2 toolset —
//! 16×16 macroblocks, 8×8 DCT with weighted quantisation, half-pel motion
//! compensation, I/P/B pictures in the paper's I-P-B-B GOP, slice-per-row
//! structure and run-level VLC entropy coding. The bitstream syntax is
//! this crate's own (decoded only by [`Mpeg2Decoder`]), but every coding
//! tool, and therefore the computational profile, matches the MPEG-2
//! generation of codecs.
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
//! use hdvb_mpeg2::{EncoderConfig, Mpeg2Decoder, Mpeg2Encoder};
//!
//! let config = EncoderConfig::new(64, 48).with_qscale(5);
//! let mut enc = Mpeg2Encoder::new(config)?;
//! let mut dec = Mpeg2Decoder::new();
//!
//! let frame = Frame::new(64, 48);
//! let mut packets = enc.encode(&frame)?;
//! packets.extend(enc.flush()?);
//! let mut decoded = Vec::new();
//! for p in &packets {
//!     decoded.extend(dec.decode(&p.data)?);
//! }
//! decoded.extend(dec.flush());
//! assert_eq!(decoded.len(), 1);
//! # Ok::<(), hdvb_mpeg2::CodecError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blocks;
mod config;
mod decoder;
mod encoder;
mod tables;

pub use config::EncoderConfig;
pub use decoder::Mpeg2Decoder;
pub use encoder::Mpeg2Encoder;
pub use encoder::MAGIC;
pub use hdvb_bits::picture::{CodecError, Packet, PacketKind};
