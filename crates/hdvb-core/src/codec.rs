//! The codec registry: one entry per application of the paper's Table II,
//! unified behind object-safe encoder/decoder traits.

use crate::{BenchError, CodingOptions};
pub use hdvb_bits::picture::{Packet, PacketKind};
use hdvb_dsp::SimdLevel;
use hdvb_frame::{Frame, Resolution};
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

/// An object-safe encoder: display-order frames in, coding-order packets
/// out.
///
/// The write-into-caller forms are the required methods (the built-in
/// codecs route them through their pooled zero-allocation paths); the
/// allocating forms are provided on top of them.
pub trait VideoEncoder {
    /// Encodes the next display-order frame, appending the coded packets
    /// to `out`.
    ///
    /// # Errors
    ///
    /// Codec-specific configuration or geometry errors; packets appended
    /// before an error stay in `out`.
    fn encode_frame_into(&mut self, frame: &Frame, out: &mut Vec<Packet>)
        -> Result<(), BenchError>;

    /// Flushes buffered frames at end of stream into `out`.
    ///
    /// # Errors
    ///
    /// Codec-specific errors.
    fn finish_into(&mut self, out: &mut Vec<Packet>) -> Result<(), BenchError>;

    /// Allocating form of [`encode_frame_into`](Self::encode_frame_into).
    ///
    /// # Errors
    ///
    /// As [`encode_frame_into`](Self::encode_frame_into).
    fn encode_frame(&mut self, frame: &Frame) -> Result<Vec<Packet>, BenchError> {
        let mut out = Vec::new();
        self.encode_frame_into(frame, &mut out)?;
        Ok(out)
    }

    /// Allocating form of [`finish_into`](Self::finish_into).
    ///
    /// # Errors
    ///
    /// As [`finish_into`](Self::finish_into).
    fn finish(&mut self) -> Result<Vec<Packet>, BenchError> {
        let mut out = Vec::new();
        self.finish_into(&mut out)?;
        Ok(out)
    }

    /// Installs a cooperative cancellation token, checked at picture
    /// boundaries; once it fires, encoding stops with
    /// [`BenchError::Cancelled`]. Implementations that cannot cancel
    /// may ignore the token (the default).
    fn set_cancel(&mut self, _cancel: CancelToken) {}
}

/// An object-safe decoder: coding-order packets in, display-order frames
/// out. As with [`VideoEncoder`], the write-into-caller forms are the
/// required methods.
pub trait VideoDecoder {
    /// Decodes one packet, appending display-order frames to `out`. The
    /// built-in codecs take output frames from the global frame pool
    /// (they can be returned to it).
    ///
    /// # Errors
    ///
    /// [`BenchError::Corrupt`] on malformed input; nothing is appended.
    fn decode_packet_into(&mut self, data: &[u8], out: &mut Vec<Frame>) -> Result<(), BenchError>;

    /// Appends the final buffered frames at end of stream to `out`.
    fn finish_into(&mut self, out: &mut Vec<Frame>);

    /// Allocating form of [`decode_packet_into`](Self::decode_packet_into).
    ///
    /// # Errors
    ///
    /// As [`decode_packet_into`](Self::decode_packet_into).
    fn decode_packet(&mut self, data: &[u8]) -> Result<Vec<Frame>, BenchError> {
        let mut out = Vec::new();
        self.decode_packet_into(data, &mut out)?;
        Ok(out)
    }

    /// Allocating form of [`finish_into`](Self::finish_into).
    fn finish(&mut self) -> Vec<Frame> {
        let mut out = Vec::new();
        self.finish_into(&mut out);
        out
    }

    /// Installs a cooperative cancellation token, checked at packet
    /// boundaries; once it fires, decoding stops with
    /// [`BenchError::Cancelled`]. Implementations that cannot cancel
    /// may ignore the token (the default).
    fn set_cancel(&mut self, _cancel: CancelToken) {}
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
) -> Result<Box<dyn VideoEncoder + Send>, BenchError> {
    let (w, h) = (resolution.width(), resolution.height());
    match codec {
        CodecId::Mpeg2 => {
            let config = hdvb_mpeg2::EncoderConfig::new(w, h)
                .with_qscale(options.mpeg_qscale)
                .with_b_frames(options.b_frames)
                .with_search_range(options.search_range)
                .with_intra_period(options.intra_period)
                .with_simd(options.simd);
            Ok(Box::new(hdvb_mpeg2::Mpeg2Encoder::new(config)?))
        }
        CodecId::Mpeg4 => {
            let config = hdvb_mpeg4::EncoderConfig::new(w, h)
                .with_qscale(options.mpeg_qscale)
                .with_b_frames(options.b_frames)
                .with_search_range(options.search_range)
                .with_intra_period(options.intra_period)
                .with_simd(options.simd);
            Ok(Box::new(hdvb_mpeg4::Mpeg4Encoder::new(config)?))
        }
        CodecId::H264 => {
            let config = hdvb_h264::EncoderConfig::new(w, h)
                .with_qp(options.h264_qp())
                .with_b_frames(options.b_frames)
                .with_search_range(options.search_range)
                .with_intra_period(options.intra_period)
                .with_num_refs(options.h264_refs)
                .with_simd(options.simd);
            Ok(Box::new(hdvb_h264::H264Encoder::new(config)?))
        }
    }
}

/// Creates a decoder for `codec` at the given SIMD level.
pub fn create_decoder(codec: CodecId, simd: SimdLevel) -> Box<dyn VideoDecoder + Send> {
    match codec {
        CodecId::Mpeg2 => Box::new(hdvb_mpeg2::Mpeg2Decoder::with_simd(simd)),
        CodecId::Mpeg4 => Box::new(hdvb_mpeg4::Mpeg4Decoder::with_simd(simd)),
        CodecId::H264 => Box::new(hdvb_h264::H264Decoder::with_simd(simd)),
    }
}

/// Implements the harness traits directly on a codec's encoder and
/// decoder: the codecs already speak [`Packet`] and `CodecError`, so this
/// only opens the frame span, renames the methods and lifts the error.
macro_rules! impl_codec {
    ($enc:ty, $dec:ty, $codec:expr) => {
        impl VideoEncoder for $enc {
            fn encode_frame_into(
                &mut self,
                frame: &Frame,
                out: &mut Vec<Packet>,
            ) -> Result<(), BenchError> {
                let _span = hdvb_trace::span!(hdvb_trace::Stage::EncodeFrame);
                self.encode_into(frame, out).map_err(BenchError::from)
            }

            fn finish_into(&mut self, out: &mut Vec<Packet>) -> Result<(), BenchError> {
                let _span = hdvb_trace::span!(hdvb_trace::Stage::EncodeFrame);
                self.flush_into(out).map_err(BenchError::from)
            }

            fn set_cancel(&mut self, cancel: CancelToken) {
                <$enc>::set_cancel(self, cancel);
            }
        }

        impl VideoDecoder for $dec {
            fn decode_packet_into(
                &mut self,
                data: &[u8],
                out: &mut Vec<Frame>,
            ) -> Result<(), BenchError> {
                let _span = hdvb_trace::span!(hdvb_trace::Stage::DecodeFrame);
                self.decode_into(data, out)
                    .map_err(|e| BenchError::from_decode($codec, e))
            }

            fn finish_into(&mut self, out: &mut Vec<Frame>) {
                self.flush_into(out);
            }

            fn set_cancel(&mut self, cancel: CancelToken) {
                <$dec>::set_cancel(self, cancel);
            }
        }
    };
}

impl_codec!(
    hdvb_mpeg2::Mpeg2Encoder,
    hdvb_mpeg2::Mpeg2Decoder,
    CodecId::Mpeg2
);
impl_codec!(
    hdvb_mpeg4::Mpeg4Encoder,
    hdvb_mpeg4::Mpeg4Decoder,
    CodecId::Mpeg4
);
impl_codec!(
    hdvb_h264::H264Encoder,
    hdvb_h264::H264Decoder,
    CodecId::H264
);

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
    fn every_codec_roundtrips_through_the_trait_objects() {
        let res = Resolution::new(48, 32);
        let options = CodingOptions::default();
        for codec in CodecId::ALL {
            let mut enc = create_encoder(codec, res, &options).unwrap();
            let mut dec = create_decoder(codec, options.simd);
            let frame = Frame::new(48, 32);
            let mut packets = enc.encode_frame(&frame).unwrap();
            packets.extend(enc.finish().unwrap());
            let mut out = Vec::new();
            for p in &packets {
                out.extend(dec.decode_packet(&p.data).unwrap());
            }
            out.extend(dec.finish());
            assert_eq!(out.len(), 1, "{codec}");
            assert_eq!(packets[0].kind, PacketKind::I);
        }
    }

    #[test]
    fn decoders_reject_cross_codec_streams() {
        let res = Resolution::new(48, 32);
        let options = CodingOptions::default();
        let mut enc = create_encoder(CodecId::Mpeg2, res, &options).unwrap();
        let mut packets = enc.encode_frame(&Frame::new(48, 32)).unwrap();
        packets.extend(enc.finish().unwrap());
        let mut dec = create_decoder(CodecId::H264, options.simd);
        assert!(dec.decode_packet(&packets[0].data).is_err());
    }
}
