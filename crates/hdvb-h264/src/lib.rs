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
//! re-exported here from `hdvb_bits::picture`; this crate adds its own
//! [`EncoderConfig`], its packet [`MAGIC`] and the coding tools.
//!
//! # Example
//!
//! ```
//! use hdvb_frame::Frame;
//! use hdvb_h264::{EncoderConfig, H264Decoder, H264Encoder};
//!
//! let mut enc = H264Encoder::new(EncoderConfig::new(64, 48).with_qp(26))?;
//! let mut dec = H264Decoder::new();
//! let mut packets = enc.encode(&Frame::new(64, 48))?;
//! packets.extend(enc.flush()?);
//! let mut out = Vec::new();
//! for p in &packets {
//!     out.extend(dec.decode(&p.data)?);
//! }
//! out.extend(dec.flush());
//! assert_eq!(out.len(), 1);
//! # Ok::<(), hdvb_h264::CodecError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blocks4;
mod config;
mod deblock;
mod decoder;
mod encoder;
mod intra;
mod mc;
mod memo;
mod quant4;
mod resid;
mod tables;

pub use config::EncoderConfig;
pub use decoder::H264Decoder;
pub use encoder::H264Encoder;
pub use encoder::MAGIC;
pub use hdvb_bits::picture::{CodecError, Packet, PacketKind};
