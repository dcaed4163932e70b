//! The codec registry — one entry per application of the paper's
//! Table II — and the one stream lifecycle every codec runs under: the
//! paper codes all three with one GOP and one set of options (Section
//! IV), so scheduling, cancellation, the input copy and display
//! reordering are the benchmark's, written once here, and the codec
//! crates only code pictures.

use crate::{BenchError, CodingOptions};
use hdvb_bits::picture::{CodecError, GopScheduler, Scheduled};
pub use hdvb_bits::picture::{Packet, PacketKind};
use hdvb_bits::BitReader;
use hdvb_dsp::SimdLevel;
use hdvb_frame::{Frame, FramePool, Resolution};
use hdvb_h264::{H264Decoder, H264Encoder};
use hdvb_mpeg2::{Mpeg2Decoder, Mpeg2Encoder};
use hdvb_mpeg4::{Mpeg4Decoder, Mpeg4Encoder};
use hdvb_par::CancelToken;
use std::fmt;

/// The video standards covered by HD-VideoBench (paper Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodecId {
    /// MPEG-2 (paper applications: FFmpeg encoder, libmpeg2 decoder).
    Mpeg2,
    /// MPEG-4 ASP (paper application: Xvid).
    Mpeg4,
    /// H.264/AVC (paper applications: x264 encoder, FFmpeg decoder).
    H264,
}

impl CodecId {
    /// All codecs in the paper's order.
    pub const ALL: [CodecId; 3] = [CodecId::Mpeg2, CodecId::Mpeg4, CodecId::H264];

    /// Short name used in reports and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Mpeg2 => "mpeg2",
            CodecId::Mpeg4 => "mpeg4",
            CodecId::H264 => "h264",
        }
    }

    /// The original benchmark's encoder application for this codec.
    pub fn paper_encoder(self) -> &'static str {
        match self {
            CodecId::Mpeg2 => "ffmpeg-mpeg2",
            CodecId::Mpeg4 => "xvid",
            CodecId::H264 => "x264",
        }
    }

    /// The original benchmark's decoder application for this codec.
    pub fn paper_decoder(self) -> &'static str {
        match self {
            CodecId::Mpeg2 => "libmpeg2",
            CodecId::Mpeg4 => "xvid",
            CodecId::H264 => "ffmpeg-h264",
        }
    }

    /// The 16-bit magic that opens every packet of this codec.
    pub fn packet_magic(self) -> u32 {
        match self {
            CodecId::Mpeg2 => hdvb_mpeg2::MAGIC,
            CodecId::Mpeg4 => hdvb_mpeg4::MAGIC,
            CodecId::H264 => hdvb_h264::MAGIC,
        }
    }

    /// Parses a codec from its short name.
    pub fn from_name(name: &str) -> Option<CodecId> {
        CodecId::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A codec's picture encoder: the part of an [`Encoder`] that differs
/// between codecs.
enum PictureEncoder {
    Mpeg2(Box<Mpeg2Encoder>),
    Mpeg4(Box<Mpeg4Encoder>),
    H264(Box<H264Encoder>),
}

/// A codec's picture decoder: the part of a [`Decoder`] that differs
/// between codecs.
enum PictureDecoder {
    Mpeg2(Box<Mpeg2Decoder>),
    Mpeg4(Box<Mpeg4Decoder>),
    H264(Box<H264Decoder>),
}

/// The encode half of the stream lifecycle, one for every codec:
/// display-order frames in, coding-order packets out.
///
/// It copies each frame into a pooled lookahead slot, orders the slots
/// into the paper's I-P-B-B coding order ([`GopScheduler`]), checks the
/// cancellation token before each picture and hands the picture to the
/// codec's picture encoder. At steady state a submitted frame performs
/// zero heap allocations.
pub struct Encoder {
    coder: PictureEncoder,
    width: usize,
    height: usize,
    gop: GopScheduler<Frame>,
    /// Reusable coding-order buffer handed to the GOP scheduler.
    sched: Vec<Scheduled<Frame>>,
    /// Cooperative cancellation, checkpointed before each coded picture.
    cancel: CancelToken,
}

impl Encoder {
    /// Encodes the next display-order frame, appending the packets that
    /// can now be coded (coding order) to `out`. Packet payloads come
    /// from the global [`BufferPool`](hdvb_frame::BufferPool).
    ///
    /// # Errors
    ///
    /// [`BenchError::Codec`] if the frame geometry differs from the
    /// encoder's; [`BenchError::Cancelled`] once the token fires.
    /// Packets appended before an error stay in `out`.
    pub fn encode_frame_into(
        &mut self,
        frame: &Frame,
        out: &mut Vec<Packet>,
    ) -> Result<(), BenchError> {
        let _span = hdvb_trace::span!(hdvb_trace::Stage::EncodeFrame);
        if (frame.width(), frame.height()) != (self.width, self.height) {
            return Err(CodecError::FrameMismatch {
                expected: (self.width, self.height),
                actual: (frame.width(), frame.height()),
            }
            .into());
        }
        let pooled = {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
            let mut f = FramePool::global().take(self.width, self.height);
            f.copy_from(frame);
            f
        };
        self.gop.push_into(pooled, &mut self.sched);
        self.code_scheduled(out)
    }

    /// Codes the frames still buffered at end of stream into `out`.
    ///
    /// # Errors
    ///
    /// [`BenchError::Cancelled`] once the token fires.
    pub fn finish_into(&mut self, out: &mut Vec<Packet>) -> Result<(), BenchError> {
        let _span = hdvb_trace::span!(hdvb_trace::Stage::EncodeFrame);
        self.gop.finish_into(&mut self.sched);
        self.code_scheduled(out)
    }

    /// Installs a cooperative cancellation token, checked before each
    /// coded picture; once it fires, encoding stops with
    /// [`BenchError::Cancelled`].
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Codes every scheduled picture, recycling each input frame to the
    /// global pool afterwards (also on cancellation).
    fn code_scheduled(&mut self, out: &mut Vec<Packet>) -> Result<(), BenchError> {
        let mut result = Ok(());
        for s in self.sched.drain(..) {
            if result.is_ok() {
                if self.cancel.is_cancelled() {
                    result = Err(BenchError::Cancelled);
                } else {
                    let (frame, kind, index) = (&s.item, s.kind, s.display_index);
                    out.push(match &mut self.coder {
                        PictureEncoder::Mpeg2(c) => c.encode_picture(frame, kind, index),
                        PictureEncoder::Mpeg4(c) => c.encode_picture(frame, kind, index),
                        PictureEncoder::H264(c) => c.encode_picture(frame, kind, index),
                    });
                }
            }
            FramePool::global().put(s.item);
        }
        result
    }
}

/// The decode half of the stream lifecycle, one for every codec:
/// coding-order packets in, display-order frames out.
///
/// Each I or P picture is held back until the next one arrives (a B
/// picture in between displays first); [`finish_into`](Self::finish_into)
/// releases the last. Output frames come from the global frame pool
/// (they can be returned to it).
pub struct Decoder {
    codec: CodecId,
    coder: PictureDecoder,
    /// The newest anchor's display picture, held until the next anchor
    /// arrives (display reordering).
    pending: Option<Frame>,
    /// Cooperative cancellation, checkpointed at each packet boundary.
    cancel: CancelToken,
}

impl Decoder {
    /// Decodes one packet, appending the frames it completes (display
    /// order) to `out`.
    ///
    /// # Errors
    ///
    /// [`BenchError::Corrupt`] on malformed input, with the bit offset
    /// the parse stopped at; [`BenchError::Cancelled`] once the token
    /// fires. Nothing is appended, and the stream state is untouched, so
    /// later packets still decode.
    pub fn decode_packet_into(
        &mut self,
        data: &[u8],
        out: &mut Vec<Frame>,
    ) -> Result<(), BenchError> {
        let _span = hdvb_trace::span!(hdvb_trace::Stage::DecodeFrame);
        if self.cancel.is_cancelled() {
            return Err(BenchError::Cancelled);
        }
        let mut r = BitReader::new(data);
        let decoded = match &mut self.coder {
            PictureDecoder::Mpeg2(c) => c.decode_picture(&mut r),
            PictureDecoder::Mpeg4(c) => c.decode_picture(&mut r),
            PictureDecoder::H264(c) => c.decode_picture(&mut r),
        };
        let (kind, picture) =
            decoded.map_err(|e| BenchError::from_decode(self.codec, e.at_bit(r.bit_pos())))?;
        if kind == PacketKind::B {
            out.push(picture);
        } else if let Some(previous) = self.pending.replace(picture) {
            out.push(previous);
        }
        Ok(())
    }

    /// Appends the last held-back frame at end of stream to `out`.
    pub fn finish_into(&mut self, out: &mut Vec<Frame>) {
        out.extend(self.pending.take());
    }

    /// Installs a cooperative cancellation token, checked at packet
    /// boundaries; once it fires, decoding stops with
    /// [`BenchError::Cancelled`].
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }
}

/// Creates an encoder for `codec` at the benchmark's coding options.
///
/// # Errors
///
/// [`BenchError::Codec`] if the options are invalid for the codec.
pub fn create_encoder(
    codec: CodecId,
    resolution: Resolution,
    options: &CodingOptions,
) -> Result<Encoder, BenchError> {
    if options.b_frames > 4 {
        return Err(CodecError::BadConfig("at most 4 b-frames supported").into());
    }
    let (width, height) = (resolution.width(), resolution.height());
    let (q, range, simd) = (options.mpeg_qscale, options.search_range, options.simd);
    let coder = match codec {
        CodecId::Mpeg2 => {
            PictureEncoder::Mpeg2(Box::new(Mpeg2Encoder::new(width, height, q, range, simd)?))
        }
        CodecId::Mpeg4 => {
            PictureEncoder::Mpeg4(Box::new(Mpeg4Encoder::new(width, height, q, range, simd)?))
        }
        CodecId::H264 => {
            let (qp, refs) = (options.h264_qp(), options.h264_refs);
            PictureEncoder::H264(Box::new(H264Encoder::new(
                width, height, qp, refs, range, simd,
            )?))
        }
    };
    Ok(Encoder {
        coder,
        width,
        height,
        gop: GopScheduler::new(options.b_frames, options.intra_period),
        sched: Vec::new(),
        cancel: CancelToken::never(),
    })
}

/// Creates a decoder for `codec` at the given SIMD level.
pub fn create_decoder(codec: CodecId, simd: SimdLevel) -> Decoder {
    let coder = match codec {
        CodecId::Mpeg2 => PictureDecoder::Mpeg2(Box::new(Mpeg2Decoder::new(simd))),
        CodecId::Mpeg4 => PictureDecoder::Mpeg4(Box::new(Mpeg4Decoder::new(simd))),
        CodecId::H264 => PictureDecoder::H264(Box::new(H264Decoder::new(simd))),
    };
    Decoder {
        codec,
        coder,
        pending: None,
        cancel: CancelToken::never(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_names_roundtrip() {
        for c in CodecId::ALL {
            assert_eq!(CodecId::from_name(c.name()), Some(c));
        }
        assert_eq!(CodecId::from_name("vc1"), None);
    }

    #[test]
    fn paper_applications_match_table_ii() {
        assert_eq!(CodecId::Mpeg2.paper_decoder(), "libmpeg2");
        assert_eq!(CodecId::Mpeg2.paper_encoder(), "ffmpeg-mpeg2");
        assert_eq!(CodecId::Mpeg4.paper_encoder(), "xvid");
        assert_eq!(CodecId::H264.paper_encoder(), "x264");
        assert_eq!(CodecId::H264.paper_decoder(), "ffmpeg-h264");
    }

    #[test]
    fn every_codec_roundtrips_through_the_driver() {
        let res = Resolution::new(48, 32);
        let options = CodingOptions::default();
        for codec in CodecId::ALL {
            let mut enc = create_encoder(codec, res, &options).unwrap();
            let mut dec = create_decoder(codec, options.simd);
            let mut packets = Vec::new();
            enc.encode_frame_into(&Frame::new(48, 32), &mut packets)
                .unwrap();
            enc.finish_into(&mut packets).unwrap();
            let mut out = Vec::new();
            for p in &packets {
                dec.decode_packet_into(&p.data, &mut out).unwrap();
            }
            dec.finish_into(&mut out);
            assert_eq!(out.len(), 1, "{codec}");
            assert_eq!(packets[0].kind, PacketKind::I);
        }
    }

    #[test]
    fn wrong_frame_size_is_rejected() {
        let options = CodingOptions::default();
        for codec in CodecId::ALL {
            let mut enc = create_encoder(codec, Resolution::new(64, 48), &options).unwrap();
            let err = enc
                .encode_frame_into(&Frame::new(32, 32), &mut Vec::new())
                .unwrap_err();
            assert!(matches!(err, BenchError::Codec(_)), "{codec}: {err}");
        }
    }

    #[test]
    fn decoders_reject_cross_codec_streams() {
        let res = Resolution::new(48, 32);
        let options = CodingOptions::default();
        let mut enc = create_encoder(CodecId::Mpeg2, res, &options).unwrap();
        let mut packets = Vec::new();
        enc.encode_frame_into(&Frame::new(48, 32), &mut packets)
            .unwrap();
        let mut dec = create_decoder(CodecId::H264, options.simd);
        assert!(dec
            .decode_packet_into(&packets[0].data, &mut Vec::new())
            .is_err());
    }
}
