//! An H.264-class video encoder and decoder.
//!
//! HD-VideoBench's stand-in for the paper's x264 encoder and FFmpeg
//! H.264 decoder. It implements the H.264 generation of coding tools on
//! its own bitstream syntax:
//!
//! * **4×4 integer transform** with the standard's bit-exact
//!   quantisation tables (MF/V),
//! * **spatial intra prediction** — 5-mode 4×4, 4-mode 16×16 (including
//!   plane), 3-mode chroma,
//! * **variable block-size inter prediction** (16×16, 16×8, 8×16, 8×8)
//!   with **quarter-pel** 6-tap motion compensation,
//! * **multiple reference frames** (configurable, paper command uses
//!   `--ref 16`; default here 3), each searched once: reference *r* of a
//!   P picture is reference *r − 1* of the P picture before it, so a
//!   macroblock whose 16×16 source samples and median predictor are
//!   unchanged since then takes that picture's 16×16 search result
//!   instead of repeating it — for reference 0, only where the new
//!   picture equals its predecessor over every sample that search read
//!   (DESIGN.md §5; debug builds recompute every reused result and
//!   compare),
//! * **hexagon motion search** (`--me hex` in the paper) with SATD
//!   (`--subme 7`-class) sub-pel refinement,
//! * **in-loop deblocking filter** with the standard α/β/t_c thresholds,
//! * compact run-level VLC over 4×4 blocks plus per-block coded flags
//!   (CAVLC-class cost profile; see DESIGN.md for the substitution
//!   notes).
//!
//! GOP structure and rate control follow the paper: constant QP
//! (`--qp 26` equivalent), I-P-B-B with only the first picture intra.
//!
//! What a coded picture *is* — [`PacketKind`], [`Packet`], [`CodecError`],
//! the header fields every packet opens with, the I-P-B-B coding order —
//! is the benchmark's definition, shared by all three codecs and
//! re-exported here from `hdvb_bits::picture`. So is the stream around
//! the pictures: `hdvb-core` schedules the GOP, copies the input,
//! cancels and reorders for display. This crate codes one picture at a
//! time ([`H264Encoder::encode_picture`],
//! [`H264Decoder::decode_picture`]) with its packet [`MAGIC`] and the
//! coding tools.
//!
//! # Example
//!
//! ```
//! use hdvb_bits::BitReader;
//! use hdvb_dsp::SimdLevel;
//! use hdvb_frame::Frame;
//! use hdvb_h264::{H264Decoder, H264Encoder, PacketKind};
//!
//! let simd = SimdLevel::detect();
//! // QP 26, three reference pictures, search range 24.
//! let mut enc = H264Encoder::new(64, 48, 26, 3, 24, simd)?;
//! let mut dec = H264Decoder::new(simd);
//! for (kind, index) in [(PacketKind::I, 0), (PacketKind::P, 1)] {
//!     let packet = enc.encode_picture(&Frame::new(64, 48), kind, index);
//!     let (got, picture) = dec.decode_picture(&mut BitReader::new(&packet.data))?;
//!     assert_eq!((got, picture.width()), (kind, 64));
//! }
//! # Ok::<(), hdvb_h264::CodecError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blocks4;
mod deblock;
mod decoder;
mod encoder;
mod intra;
mod mc;
mod memo;
mod quant4;
mod resid;
mod tables;

pub use decoder::H264Decoder;
pub use encoder::H264Encoder;
pub use encoder::MAGIC;
pub use hdvb_bits::picture::{CodecError, Packet, PacketKind};
