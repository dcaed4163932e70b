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
//! re-exported here from `hdvb_bits::picture`. So is the stream around
//! the pictures: `hdvb-core` schedules the GOP, copies the input,
//! cancels and reorders for display. This crate codes one picture at a
//! time ([`Mpeg2Encoder::encode_picture`],
//! [`Mpeg2Decoder::decode_picture`]) with its packet [`MAGIC`] and the
//! coding tools.
//!
//! # Example
//!
//! ```
//! use hdvb_bits::BitReader;
//! use hdvb_dsp::SimdLevel;
//! use hdvb_frame::Frame;
//! use hdvb_mpeg2::{Mpeg2Decoder, Mpeg2Encoder, PacketKind};
//!
//! let simd = SimdLevel::detect();
//! let mut enc = Mpeg2Encoder::new(64, 48, 5, 24, simd)?;
//! let mut dec = Mpeg2Decoder::new(simd);
//!
//! let packet = enc.encode_picture(&Frame::new(64, 48), PacketKind::I, 0);
//! let (kind, picture) = dec.decode_picture(&mut BitReader::new(&packet.data))?;
//! assert_eq!(kind, PacketKind::I);
//! assert_eq!((picture.width(), picture.height()), (64, 48));
//! # Ok::<(), hdvb_mpeg2::CodecError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blocks;
mod decoder;
mod encoder;
mod tables;

pub use decoder::Mpeg2Decoder;
pub use encoder::Mpeg2Encoder;
pub use encoder::MAGIC;
pub use hdvb_bits::picture::{CodecError, Packet, PacketKind};
