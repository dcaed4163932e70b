//! The session-facing incremental codec API.
//!
//! The batch runners ([`crate::encode_sequence`] and friends) own the
//! whole input and drive a codec to completion in one call. A serving
//! front end cannot: frames and packets arrive one at a time over the
//! lifetime of a long-running session, interleaved with hundreds of
//! other sessions. [`CodecSession`] is that incremental surface — one
//! state machine per session that accepts inputs as they arrive,
//! returns whatever outputs the codec can emit so far, and flushes the
//! rest on [`finish_into`](CodecSession::finish_into).
//!
//! The session calls exactly the same [`Encoder`]/[`Decoder`] in exactly
//! the same order as the batch path, so a
//! single-session serve run is bit-identical to `encode`/`decode` on
//! the same input and options (enforced by tests here and in
//! `hdvb-serve`).

use crate::{
    create_decoder, create_encoder, BenchError, CodecId, CodingOptions, Decoder, Encoder, Packet,
};
use hdvb_dsp::SimdLevel;
use hdvb_frame::{BufferPool, Frame, FramePool, Resolution};
use hdvb_par::CancelToken;

/// One unit of session input: a raw frame (encode, transcode) or a
/// coded packet (decode).
#[derive(Clone, Debug)]
pub enum SessionInput {
    /// A display-order frame for an encode or transcode session.
    Frame(Frame),
    /// A coding-order packet for a decode session.
    Packet(Vec<u8>),
}

/// Outputs appended by [`CodecSession::push_into`] and
/// [`CodecSession::finish_into`]. Either side may be empty: codecs
/// buffer B-frame lookahead and emit bursts at anchor boundaries.
#[derive(Clone, Debug, Default)]
pub struct SessionOutput {
    /// Coded packets (encode and transcode sessions).
    pub packets: Vec<Packet>,
    /// Decoded frames (decode sessions).
    pub frames: Vec<Frame>,
}

impl SessionOutput {
    /// An empty output, ready to be passed to
    /// [`CodecSession::push_into`].
    pub fn new() -> SessionOutput {
        SessionOutput::default()
    }

    /// True when this step emitted nothing.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty() && self.frames.is_empty()
    }

    /// Number of output items (packets plus frames).
    pub fn len(&self) -> usize {
        self.packets.len() + self.frames.len()
    }

    /// Returns every buffer held by this output to the global pools and
    /// clears both lists. A long-running caller that consumes (copies
    /// out, hashes, discards) each step's outputs can reuse one
    /// `SessionOutput` and recycle it between steps, closing the
    /// producer→consumer loop so steady-state traffic allocates
    /// nothing.
    pub fn recycle(&mut self) {
        for p in self.packets.drain(..) {
            BufferPool::global().put(p.data);
        }
        for f in self.frames.drain(..) {
            FramePool::global().put(f);
        }
    }
}

enum Engine {
    Encode(Encoder),
    Decode(Decoder),
    Transcode { decoder: Decoder, encoder: Encoder },
}

/// An incremental encode, decode or transcode state machine.
///
/// Inputs go in one at a time with [`push_into`](Self::push_into);
/// buffered lookahead is flushed by [`finish_into`](Self::finish_into),
/// after which the
/// session accepts no more input. Sessions are `Send` so a serving
/// front end can migrate them between pool workers (one worker at a
/// time — the codec state is serial).
pub struct CodecSession {
    engine: Engine,
    /// Drop corrupt packets (counted) instead of failing the session.
    resilient: bool,
    /// Checked at every push/finish in addition to the codec's own
    /// picture-boundary checks, so cancellation fires even while the
    /// codec is only buffering lookahead (mirrors
    /// [`crate::encode_sequence_cancellable`]).
    cancel: CancelToken,
    dropped: u64,
    finished: bool,
    /// Transcode staging: decoded frames on their way to the encoder.
    /// Persistent so the decode→encode hop reuses one buffer instead of
    /// allocating a `Vec` per packet; the frames themselves cycle
    /// through the global [`FramePool`].
    frame_buf: Vec<Frame>,
}

impl CodecSession {
    /// An encode session: display-order frames in, packets out.
    ///
    /// # Errors
    ///
    /// [`BenchError::Codec`] if the options are invalid for the codec.
    pub fn encoder(
        codec: CodecId,
        resolution: Resolution,
        options: &CodingOptions,
    ) -> Result<CodecSession, BenchError> {
        Ok(CodecSession {
            engine: Engine::Encode(create_encoder(codec, resolution, options)?),
            resilient: false,
            cancel: CancelToken::never(),
            dropped: 0,
            finished: false,
            frame_buf: Vec::new(),
        })
    }

    /// A decode session: coding-order packets in, display-order frames
    /// out.
    pub fn decoder(codec: CodecId, simd: SimdLevel) -> CodecSession {
        CodecSession {
            engine: Engine::Decode(create_decoder(codec, simd)),
            resilient: false,
            cancel: CancelToken::never(),
            dropped: 0,
            finished: false,
            frame_buf: Vec::new(),
        }
    }

    /// A transcode session: `from`-codec packets in, `to`-codec packets
    /// out, decoding and re-encoding frame by frame.
    ///
    /// # Errors
    ///
    /// [`BenchError::Codec`] if the options are invalid for the target
    /// codec.
    pub fn transcoder(
        from: CodecId,
        to: CodecId,
        resolution: Resolution,
        options: &CodingOptions,
    ) -> Result<CodecSession, BenchError> {
        Ok(CodecSession {
            engine: Engine::Transcode {
                decoder: create_decoder(from, options.simd),
                encoder: create_encoder(to, resolution, options)?,
            },
            resilient: false,
            cancel: CancelToken::never(),
            dropped: 0,
            finished: false,
            frame_buf: Vec::new(),
        })
    }

    /// Enables drop-and-continue decoding: a corrupt packet costs its
    /// frame(s) and bumps [`dropped`](Self::dropped) instead of killing
    /// the session (the per-session form of
    /// [`crate::decode_sequence_resilient`]). Cancellation still
    /// propagates.
    pub fn with_resilience(mut self) -> CodecSession {
        self.resilient = true;
        self
    }

    /// Installs a cooperative cancellation token on the underlying
    /// codec(s), checked at picture/packet boundaries.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel.clone();
        match &mut self.engine {
            Engine::Encode(enc) => enc.set_cancel(cancel),
            Engine::Decode(dec) => dec.set_cancel(cancel),
            Engine::Transcode { decoder, encoder } => {
                decoder.set_cancel(cancel.clone());
                encoder.set_cancel(cancel);
            }
        }
    }

    /// Packets dropped so far by a resilient session.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether [`finish_into`](Self::finish_into) has run.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Feeds one input, appending whatever the codec emits to `out`.
    ///
    /// Input buffers are returned to the global pools once consumed,
    /// output packets and frames carry pooled buffers, and the caller
    /// closes the loop with [`SessionOutput::recycle`] after consuming
    /// them. In steady state (warm pools, reused `out`) a push allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`BenchError::BadRequest`] on an input of the wrong kind for the
    /// session or after [`finish_into`](Self::finish_into); codec errors
    /// otherwise ([`BenchError::Corrupt`] is swallowed and counted by
    /// resilient sessions). `out` keeps anything appended before the
    /// failure.
    pub fn push_into(
        &mut self,
        input: SessionInput,
        out: &mut SessionOutput,
    ) -> Result<(), BenchError> {
        if self.finished {
            return Err(BenchError::BadRequest("push after session finish"));
        }
        if self.cancel.is_cancelled() {
            return Err(BenchError::Cancelled);
        }
        match (&mut self.engine, input) {
            (Engine::Encode(enc), SessionInput::Frame(frame)) => {
                // The encoder copies the frame into its own pooled
                // lookahead slot, so the input can be recycled at once.
                let result = enc.encode_frame_into(&frame, &mut out.packets);
                FramePool::global().put(frame);
                result
            }
            (Engine::Decode(dec), SessionInput::Packet(data)) => {
                let result = Self::decode_step(
                    dec,
                    &data,
                    self.resilient,
                    &mut self.dropped,
                    &mut out.frames,
                );
                BufferPool::global().put(data);
                result.map(|_| ())
            }
            (Engine::Transcode { decoder, encoder }, SessionInput::Packet(data)) => {
                let decoded = Self::decode_step(
                    decoder,
                    &data,
                    self.resilient,
                    &mut self.dropped,
                    &mut self.frame_buf,
                );
                BufferPool::global().put(data);
                if decoded? {
                    Self::encode_all(encoder, &mut self.frame_buf, &mut out.packets)?;
                }
                Ok(())
            }
            (Engine::Encode(_), SessionInput::Packet(_)) => Err(BenchError::BadRequest(
                "encode session expects frames, got a packet",
            )),
            (_, SessionInput::Frame(_)) => Err(BenchError::BadRequest(
                "decode/transcode session expects packets, got a frame",
            )),
        }
    }

    /// Flushes buffered lookahead at end of stream into `out`. The
    /// session accepts no further input afterwards.
    ///
    /// # Errors
    ///
    /// Codec errors; [`BenchError::BadRequest`] on a second call.
    pub fn finish_into(&mut self, out: &mut SessionOutput) -> Result<(), BenchError> {
        if self.finished {
            return Err(BenchError::BadRequest("session already finished"));
        }
        if self.cancel.is_cancelled() {
            return Err(BenchError::Cancelled);
        }
        self.finished = true;
        match &mut self.engine {
            Engine::Encode(enc) => enc.finish_into(&mut out.packets),
            Engine::Decode(dec) => {
                dec.finish_into(&mut out.frames);
                Ok(())
            }
            Engine::Transcode { decoder, encoder } => {
                decoder.finish_into(&mut self.frame_buf);
                Self::encode_all(encoder, &mut self.frame_buf, &mut out.packets)?;
                encoder.finish_into(&mut out.packets)
            }
        }
    }

    /// One decode step honouring the resilience policy: `Ok(false)`
    /// means the packet was dropped and counted, with any partial
    /// output recycled so `out` is untouched.
    fn decode_step(
        dec: &mut Decoder,
        data: &[u8],
        resilient: bool,
        dropped: &mut u64,
        out: &mut Vec<Frame>,
    ) -> Result<bool, BenchError> {
        let mark = out.len();
        match dec.decode_packet_into(data, out) {
            Ok(()) => Ok(true),
            // Cancellation is a session-level event, never a drop.
            Err(BenchError::Cancelled) => Err(BenchError::Cancelled),
            Err(e) if resilient => {
                let _ = e;
                *dropped += 1;
                for f in out.drain(mark..) {
                    FramePool::global().put(f);
                }
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Encodes and recycles every staged frame, draining `frames` even
    /// on error so no pooled frame leaks.
    fn encode_all(
        enc: &mut Encoder,
        frames: &mut Vec<Frame>,
        out: &mut Vec<Packet>,
    ) -> Result<(), BenchError> {
        let mut result = Ok(());
        for f in frames.drain(..) {
            if result.is_ok() {
                result = enc.encode_frame_into(&f, out);
            }
            FramePool::global().put(f);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_sequence, encode_sequence};
    use hdvb_seq::{Sequence, SequenceId};

    fn small_seq() -> Sequence {
        Sequence::new(SequenceId::RushHour, Resolution::new(64, 48))
    }

    #[test]
    fn incremental_encode_is_bit_identical_to_batch() {
        let seq = small_seq();
        let options = CodingOptions::default();
        for codec in CodecId::ALL {
            let batch = encode_sequence(codec, seq, 6, &options).unwrap();
            let mut session = CodecSession::encoder(codec, seq.resolution(), &options).unwrap();
            let mut out = SessionOutput::new();
            for i in 0..6 {
                session
                    .push_into(SessionInput::Frame(seq.frame(i)), &mut out)
                    .unwrap();
            }
            session.finish_into(&mut out).unwrap();
            assert!(out.frames.is_empty(), "{codec}: encoder emitted frames");
            assert_eq!(out.packets, batch.packets, "{codec}");
        }
    }

    #[test]
    fn incremental_decode_is_bit_identical_to_batch() {
        let seq = small_seq();
        let options = CodingOptions::default();
        for codec in CodecId::ALL {
            let encoded = encode_sequence(codec, seq, 6, &options).unwrap();
            let batch = decode_sequence(codec, &encoded.packets, options.simd).unwrap();
            let mut session = CodecSession::decoder(codec, options.simd);
            let mut out = SessionOutput::new();
            for p in &encoded.packets {
                session
                    .push_into(SessionInput::Packet(p.data.clone()), &mut out)
                    .unwrap();
            }
            session.finish_into(&mut out).unwrap();
            assert_eq!(out.frames, batch.frames, "{codec}");
        }
    }

    #[test]
    fn transcode_session_produces_a_decodable_stream() {
        let seq = small_seq();
        let options = CodingOptions::default();
        let encoded = encode_sequence(CodecId::Mpeg2, seq, 6, &options).unwrap();
        let mut session =
            CodecSession::transcoder(CodecId::Mpeg2, CodecId::H264, seq.resolution(), &options)
                .unwrap();
        let mut out = SessionOutput::new();
        for p in &encoded.packets {
            session
                .push_into(SessionInput::Packet(p.data.clone()), &mut out)
                .unwrap();
        }
        session.finish_into(&mut out).unwrap();
        let decoded = decode_sequence(CodecId::H264, &out.packets, options.simd).unwrap();
        assert_eq!(decoded.frames.len(), 6);
    }

    #[test]
    fn resilient_session_drops_corrupt_packets_and_continues() {
        let seq = small_seq();
        let options = CodingOptions::default();
        for codec in CodecId::ALL {
            let encoded = encode_sequence(codec, seq, 4, &options).unwrap();
            let mut session = CodecSession::decoder(codec, options.simd).with_resilience();
            let mut out = SessionOutput::new();
            for (i, p) in encoded.packets.iter().enumerate() {
                let data = if i == 1 {
                    vec![0xFF; 40]
                } else {
                    p.data.clone()
                };
                session
                    .push_into(SessionInput::Packet(data), &mut out)
                    .unwrap();
            }
            session.finish_into(&mut out).unwrap();
            assert!(session.dropped() >= 1, "{codec}");
            assert!(!out.frames.is_empty(), "{codec}: stream died");
        }
    }

    #[test]
    fn strict_session_fails_on_corrupt_packet() {
        let mut session = CodecSession::decoder(CodecId::H264, SimdLevel::Scalar);
        assert!(matches!(
            session.push_into(
                SessionInput::Packet(vec![0xFF; 40]),
                &mut SessionOutput::new()
            ),
            Err(BenchError::Corrupt { .. })
        ));
    }

    #[test]
    fn wrong_input_kind_and_push_after_finish_are_rejected() {
        let seq = small_seq();
        let options = CodingOptions::default();
        let out = &mut SessionOutput::new();
        let mut enc = CodecSession::encoder(CodecId::Mpeg2, seq.resolution(), &options).unwrap();
        assert!(matches!(
            enc.push_into(SessionInput::Packet(vec![0; 4]), out),
            Err(BenchError::BadRequest(_))
        ));
        enc.finish_into(out).unwrap();
        assert!(matches!(
            enc.push_into(SessionInput::Frame(seq.frame(0)), out),
            Err(BenchError::BadRequest(_))
        ));
        assert!(matches!(
            enc.finish_into(out),
            Err(BenchError::BadRequest(_))
        ));

        let mut dec = CodecSession::decoder(CodecId::Mpeg2, options.simd);
        assert!(matches!(
            dec.push_into(SessionInput::Frame(seq.frame(0)), out),
            Err(BenchError::BadRequest(_))
        ));
    }

    #[test]
    fn cancelled_session_stops_with_cancelled() {
        let seq = small_seq();
        let options = CodingOptions::default();
        let cancel = CancelToken::new();
        let out = &mut SessionOutput::new();
        let mut session = CodecSession::encoder(CodecId::H264, seq.resolution(), &options).unwrap();
        session.set_cancel(cancel.clone());
        session
            .push_into(SessionInput::Frame(seq.frame(0)), out)
            .unwrap();
        cancel.cancel();
        assert!(matches!(
            session.push_into(SessionInput::Frame(seq.frame(1)), out),
            Err(BenchError::Cancelled)
        ));
    }

    #[test]
    fn sessions_are_send() {
        fn check<T: Send>() {}
        check::<CodecSession>();
    }
}
