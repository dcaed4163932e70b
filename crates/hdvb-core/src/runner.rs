//! Timed measurement runner.
//!
//! Timing accumulates only the codec calls (frame generation and PSNR
//! bookkeeping are excluded), mirroring the original benchmark's use of
//! `mplayer -benchmark`, which disables video output and reports codec
//! time.

use crate::{create_decoder, create_encoder, BenchError, CodecId, CodingOptions, Packet};
use hdvb_dsp::SimdLevel;
use hdvb_frame::{Frame, SequencePsnr, Ssim};
use hdvb_par::CancelToken;
use hdvb_seq::Sequence;
use std::time::{Duration, Instant};

/// Result of encoding a sequence.
#[derive(Debug)]
pub struct EncodeResult {
    /// The coded packets in coding order.
    pub packets: Vec<Packet>,
    /// Number of source frames.
    pub frames: u32,
    /// Accumulated encoder time.
    pub elapsed: Duration,
    /// Total coded bits.
    pub bits: u64,
    /// Frames per second of the video (for bitrate conversion).
    pub video_fps: f64,
}

impl EncodeResult {
    /// Encoder throughput in frames per second.
    pub fn encode_fps(&self) -> f64 {
        f64::from(self.frames) / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Bitrate of the coded stream in kilobits per second at the video's
    /// frame rate (the unit of the paper's Table V).
    pub fn bitrate_kbps(&self) -> f64 {
        self.bits as f64 * self.video_fps / f64::from(self.frames.max(1)) / 1000.0
    }
}

/// Result of decoding a packet stream.
#[derive(Debug)]
pub struct DecodeResult {
    /// Decoded frames in display order.
    pub frames: Vec<Frame>,
    /// Accumulated decoder time.
    pub elapsed: Duration,
}

impl DecodeResult {
    /// Decoder throughput in frames per second.
    pub fn decode_fps(&self) -> f64 {
        self.frames.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Encodes `frames` frames of `seq` with `codec`, timing only the
/// encoder.
///
/// # Errors
///
/// Propagates codec configuration errors.
pub fn encode_sequence(
    codec: CodecId,
    seq: Sequence,
    frames: u32,
    options: &CodingOptions,
) -> Result<EncodeResult, BenchError> {
    encode_sequence_cancellable(codec, seq, frames, options, &CancelToken::never())
}

/// [`encode_sequence`] with a cooperative cancellation token: the token
/// is installed on the encoder (checked at picture boundaries) and also
/// checked here before each frame, so an expired cell deadline stops the
/// encode with [`BenchError::Cancelled`] within one frame's work.
///
/// # Errors
///
/// Propagates codec errors; [`BenchError::Cancelled`] once the token
/// fires.
pub fn encode_sequence_cancellable(
    codec: CodecId,
    seq: Sequence,
    frames: u32,
    options: &CodingOptions,
    cancel: &CancelToken,
) -> Result<EncodeResult, BenchError> {
    if frames == 0 {
        return Err(BenchError::BadRequest("cannot encode zero frames"));
    }
    let mut enc = create_encoder(codec, seq.resolution(), options)?;
    enc.set_cancel(cancel.clone());
    let mut packets = Vec::new();
    let mut elapsed = Duration::ZERO;
    for i in 0..frames {
        if cancel.is_cancelled() {
            return Err(BenchError::Cancelled);
        }
        let frame = seq.frame(i); // untimed: input generation
        let t0 = Instant::now();
        enc.encode_frame_into(&frame, &mut packets)?;
        elapsed += t0.elapsed();
    }
    let t0 = Instant::now();
    enc.finish_into(&mut packets)?;
    elapsed += t0.elapsed();
    let bits = packets.iter().map(Packet::bits).sum();
    Ok(EncodeResult {
        packets,
        frames,
        elapsed,
        bits,
        video_fps: seq.format().frame_rate.as_f64(),
    })
}

/// Decodes a packet stream, timing only the decoder.
///
/// # Errors
///
/// [`BenchError::Bitstream`] on malformed packets.
pub fn decode_sequence(
    codec: CodecId,
    packets: &[Packet],
    simd: SimdLevel,
) -> Result<DecodeResult, BenchError> {
    decode_sequence_cancellable(codec, packets, simd, &CancelToken::never())
}

/// [`decode_sequence`] with a cooperative cancellation token, checked
/// at every packet boundary.
///
/// # Errors
///
/// [`BenchError::Bitstream`] on malformed packets;
/// [`BenchError::Cancelled`] once the token fires.
pub fn decode_sequence_cancellable(
    codec: CodecId,
    packets: &[Packet],
    simd: SimdLevel,
    cancel: &CancelToken,
) -> Result<DecodeResult, BenchError> {
    let mut dec = create_decoder(codec, simd);
    dec.set_cancel(cancel.clone());
    let mut frames = Vec::new();
    let mut elapsed = Duration::ZERO;
    for p in packets {
        let t0 = Instant::now();
        dec.decode_packet_into(&p.data, &mut frames)?;
        elapsed += t0.elapsed();
    }
    let t0 = Instant::now();
    dec.finish_into(&mut frames);
    elapsed += t0.elapsed();
    Ok(DecodeResult { frames, elapsed })
}

/// Outcome of a [`decode_sequence_resilient`] run.
#[derive(Debug)]
pub struct ResilientDecode {
    /// Frames recovered from the packets that decoded cleanly.
    pub frames: Vec<Frame>,
    /// Packets that were dropped: input index plus the typed error.
    pub dropped: Vec<(usize, BenchError)>,
}

/// Decodes a packet stream, dropping malformed packets instead of
/// aborting: one corrupt packet costs its frame(s), not the stream.
///
/// Every decoder guarantees that a failed packet leaves its reference
/// state untouched, so decoding simply resumes at the next packet —
/// the container-level equivalent of resynchronising on the next start
/// code.
pub fn decode_sequence_resilient(
    codec: CodecId,
    packets: &[Packet],
    simd: SimdLevel,
) -> ResilientDecode {
    let mut dec = create_decoder(codec, simd);
    let mut frames = Vec::new();
    let mut dropped = Vec::new();
    for (i, p) in packets.iter().enumerate() {
        if let Err(e) = dec.decode_packet_into(&p.data, &mut frames) {
            dropped.push((i, e));
        }
    }
    dec.finish_into(&mut frames);
    ResilientDecode { frames, dropped }
}

/// One rate-distortion point: the paper's Table V cell (plus a mean
/// luma SSIM, an extended metric beyond the paper).
#[derive(Clone, Copy, Debug)]
pub struct RdPoint {
    /// Average luma PSNR in dB (Table V's PSNR column).
    pub psnr_y: f64,
    /// Combined 4:2:0-weighted PSNR in dB.
    pub psnr_combined: f64,
    /// Mean luma SSIM over the clip.
    pub ssim_y: f64,
    /// Bitrate in kbit/s at the sequence frame rate.
    pub bitrate_kbps: f64,
}

/// Measures the rate-distortion point of a codec on a sequence:
/// encode, decode, and compare against the regenerated originals.
///
/// # Errors
///
/// Propagates codec errors; fails if the decoder returns the wrong
/// number of frames.
pub fn measure_rd_point(
    codec: CodecId,
    seq: Sequence,
    frames: u32,
    options: &CodingOptions,
) -> Result<RdPoint, BenchError> {
    measure_rd_point_cancellable(codec, seq, frames, options, &CancelToken::never())
}

/// [`measure_rd_point`] with a cooperative cancellation token threaded
/// through the encode, the decode, and the PSNR comparison loop.
///
/// # Errors
///
/// Propagates codec errors; [`BenchError::Cancelled`] once the token
/// fires.
pub fn measure_rd_point_cancellable(
    codec: CodecId,
    seq: Sequence,
    frames: u32,
    options: &CodingOptions,
    cancel: &CancelToken,
) -> Result<RdPoint, BenchError> {
    let encoded = encode_sequence_cancellable(codec, seq, frames, options, cancel)?;
    let decoded = decode_sequence_cancellable(codec, &encoded.packets, options.simd, cancel)?;
    if decoded.frames.len() != frames as usize {
        return Err(BenchError::Bitstream(format!(
            "decoder returned {} of {} frames",
            decoded.frames.len(),
            frames
        )));
    }
    let mut acc = SequencePsnr::new();
    let mut ssim_sum = 0.0;
    for (i, d) in decoded.frames.iter().enumerate() {
        if cancel.is_cancelled() {
            return Err(BenchError::Cancelled);
        }
        let original = seq.frame(i as u32);
        acc.add(&original, d);
        ssim_sum += Ssim::measure(&original, d).value;
    }
    Ok(RdPoint {
        psnr_y: acc.y_psnr(),
        psnr_combined: acc.combined_psnr(),
        ssim_y: ssim_sum / decoded.frames.len().max(1) as f64,
        bitrate_kbps: encoded.bitrate_kbps(),
    })
}

/// Throughput of one Figure-1 bar: encode and decode fps for a codec on
/// a sequence at a SIMD level, plus per-stage codec time when tracing
/// is enabled (all zeros otherwise).
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Encoder frames per second.
    pub encode_fps: f64,
    /// Decoder frames per second.
    pub decode_fps: f64,
    /// Encoder stage time in nanoseconds, in
    /// [`hdvb_trace::CODEC_STAGES`] order.
    pub encode_stage_ns: [u64; 6],
    /// Decoder stage time in nanoseconds, same order.
    pub decode_stage_ns: [u64; 6],
}

pub(crate) fn stage_delta(after: [u64; 6], before: [u64; 6]) -> [u64; 6] {
    let mut out = [0u64; 6];
    for i in 0..6 {
        out[i] = after[i].saturating_sub(before[i]);
    }
    out
}

/// Measures one Figure-1 data point (both encode and decode fps).
///
/// The cell runs wholly on the calling thread, so deltas of the
/// thread-local stage accumulators around the encode and decode
/// attribute stage time to this cell exactly.
///
/// # Errors
///
/// Propagates codec errors.
pub fn measure_figure1_row(
    codec: CodecId,
    seq: Sequence,
    frames: u32,
    options: &CodingOptions,
) -> Result<Throughput, BenchError> {
    measure_figure1_row_cancellable(codec, seq, frames, options, &CancelToken::never())
}

/// [`measure_figure1_row`] with a cooperative cancellation token.
///
/// On cancellation the error carries no stage attribution; the caller
/// can diff [`hdvb_trace::codec_stage_totals_local`] around the call to
/// attribute the partial work (that is what the fault-tolerant sweep
/// runner reports for `CellOutcome::TimedOut`).
///
/// # Errors
///
/// Propagates codec errors; [`BenchError::Cancelled`] once the token
/// fires.
pub fn measure_figure1_row_cancellable(
    codec: CodecId,
    seq: Sequence,
    frames: u32,
    options: &CodingOptions,
    cancel: &CancelToken,
) -> Result<Throughput, BenchError> {
    let s0 = hdvb_trace::codec_stage_totals_local();
    let encoded = encode_sequence_cancellable(codec, seq, frames, options, cancel)?;
    let s1 = hdvb_trace::codec_stage_totals_local();
    let decoded = decode_sequence_cancellable(codec, &encoded.packets, options.simd, cancel)?;
    let s2 = hdvb_trace::codec_stage_totals_local();
    Ok(Throughput {
        encode_fps: encoded.encode_fps(),
        decode_fps: decoded.decode_fps(),
        encode_stage_ns: stage_delta(s1, s0),
        decode_stage_ns: stage_delta(s2, s1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdvb_frame::Resolution;
    use hdvb_seq::SequenceId;

    fn small_seq(id: SequenceId) -> Sequence {
        Sequence::new(id, Resolution::new(64, 48))
    }

    #[test]
    fn encode_then_decode_counts_match() {
        let seq = small_seq(SequenceId::RushHour);
        let options = CodingOptions::default();
        for codec in CodecId::ALL {
            let enc = encode_sequence(codec, seq, 4, &options).unwrap();
            assert_eq!(enc.packets.len(), 4, "{codec}");
            assert!(enc.bits > 0);
            let dec = decode_sequence(codec, &enc.packets, options.simd).unwrap();
            assert_eq!(dec.frames.len(), 4, "{codec}");
        }
    }

    #[test]
    fn resilient_decode_drops_bad_packets_and_continues() {
        let seq = small_seq(SequenceId::RushHour);
        let options = CodingOptions::default();
        for codec in CodecId::ALL {
            let enc = encode_sequence(codec, seq, 4, &options).unwrap();
            let mut packets = enc.packets;
            // Corrupt the second packet's payload beyond recognition.
            packets[1].data = vec![0xFF; 40];
            let out = decode_sequence_resilient(codec, &packets, options.simd);
            // The corrupted anchor is dropped; B packets that referenced
            // it may cascade, but every drop carries typed attribution.
            assert_eq!(out.dropped[0].0, 1, "{codec}");
            for (i, e) in &out.dropped {
                assert!(
                    matches!(e, BenchError::Corrupt { codec: c, .. } if *c == codec),
                    "{codec} packet {i}: {e:?}"
                );
            }
            // The stream is not dead: the I picture still decodes.
            assert!(!out.frames.is_empty(), "{codec}");
            assert!(
                out.dropped.len() < packets.len(),
                "{codec}: every packet dropped"
            );
        }
    }

    #[test]
    fn zero_frames_is_rejected() {
        let seq = small_seq(SequenceId::BlueSky);
        assert!(matches!(
            encode_sequence(CodecId::Mpeg2, seq, 0, &CodingOptions::default()),
            Err(BenchError::BadRequest(_))
        ));
    }

    #[test]
    fn rd_point_is_sane_for_all_codecs() {
        let seq = small_seq(SequenceId::PedestrianArea);
        let options = CodingOptions::default();
        for codec in CodecId::ALL {
            let rd = measure_rd_point(codec, seq, 4, &options).unwrap();
            assert!(
                rd.psnr_y > 25.0 && rd.psnr_y < 60.0,
                "{codec}: psnr {:.1}",
                rd.psnr_y
            );
            assert!(
                rd.ssim_y > 0.7 && rd.ssim_y <= 1.0,
                "{codec}: ssim {}",
                rd.ssim_y
            );
            assert!(rd.bitrate_kbps > 0.0);
        }
    }

    #[test]
    fn cancelled_token_stops_encode_and_decode() {
        let seq = small_seq(SequenceId::RushHour);
        let options = CodingOptions::default();
        let cancel = hdvb_par::CancelToken::new();
        cancel.cancel();
        for codec in CodecId::ALL {
            assert!(
                matches!(
                    encode_sequence_cancellable(codec, seq, 4, &options, &cancel),
                    Err(BenchError::Cancelled)
                ),
                "{codec}: pre-cancelled encode must stop at the first checkpoint"
            );
            let encoded = encode_sequence(codec, seq, 4, &options).unwrap();
            assert!(
                matches!(
                    decode_sequence_cancellable(codec, &encoded.packets, options.simd, &cancel),
                    Err(BenchError::Cancelled)
                ),
                "{codec}: pre-cancelled decode must stop at the first packet"
            );
            // A live token leaves the measurement untouched.
            let live = hdvb_par::CancelToken::new();
            let a = measure_rd_point(codec, seq, 4, &options).unwrap();
            let b = measure_rd_point_cancellable(codec, seq, 4, &options, &live).unwrap();
            assert_eq!(a.psnr_y.to_bits(), b.psnr_y.to_bits(), "{codec}");
            assert_eq!(
                a.bitrate_kbps.to_bits(),
                b.bitrate_kbps.to_bits(),
                "{codec}"
            );
        }
    }

    #[test]
    fn bitrate_formula_uses_video_fps() {
        // 4 frames at 25 fps carrying 1000 bytes total = 8000 bits ->
        // 8000 * 25 / 4 = 50000 bps = 50 kbps.
        let r = EncodeResult {
            packets: Vec::new(),
            frames: 4,
            elapsed: Duration::from_secs(1),
            bits: 8000,
            video_fps: 25.0,
        };
        assert!((r.bitrate_kbps() - 50.0).abs() < 1e-9);
        assert!((r.encode_fps() - 4.0).abs() < 1e-9);
    }
}
