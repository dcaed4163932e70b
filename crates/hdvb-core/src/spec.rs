//! Declarative session descriptions and priority classes.
//!
//! A serving front end opens sessions from *data* — an OPEN message on a
//! wire, a load-generator config, a CLI flag — not from code that calls
//! [`CodecSession::encoder`] directly. [`SessionSpec`] is that data: the
//! codec-facing subset of an open request, wire-representable (every
//! field round-trips through small scalars) and buildable into a live
//! [`CodecSession`] on the server side, where the server — not the
//! client — picks the SIMD tier. [`Priority`] is the scheduling class
//! attached to the open request, honoured by the serve layer at
//! queue-claim time.

use crate::{BenchError, CodecId, CodecSession, CodingOptions};
use hdvb_dsp::SimdLevel;
use hdvb_frame::Resolution;

/// Scheduling class of a serve session. `Live` sessions are claimed
/// before `Batch` sessions whenever pool workers pick the next ready
/// session, and admission control holds `Batch` to a tighter latency
/// threshold so interactive traffic keeps headroom under overload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Interactive/low-latency traffic; claimed first.
    Live,
    /// Throughput traffic; claimed when no live session is ready and
    /// rejected first under overload.
    Batch,
}

impl Default for Priority {
    /// Callers that do not care about scheduling get throughput class.
    fn default() -> Self {
        Priority::Batch
    }
}

impl Priority {
    /// Both classes, claim order first.
    pub const ALL: [Priority; 2] = [Priority::Live, Priority::Batch];

    /// Dense index for per-class arrays (`Live` = 0, `Batch` = 1).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Priority::Live => 0,
            Priority::Batch => 1,
        }
    }

    /// Wire byte for this class.
    pub fn as_u8(self) -> u8 {
        match self {
            Priority::Live => 0,
            Priority::Batch => 1,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Option<Priority> {
        match b {
            0 => Some(Priority::Live),
            1 => Some(Priority::Batch),
            _ => None,
        }
    }

    /// Short name used in reports and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Live => "live",
            Priority::Batch => "batch",
        }
    }

    /// Parses a short name.
    pub fn from_name(name: &str) -> Option<Priority> {
        Priority::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// What a session does with its inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SessionKind {
    /// Raw frames in, `codec` packets out.
    Encode,
    /// `codec` packets in, raw frames out.
    Decode,
    /// `source` packets in, `codec` packets out.
    Transcode,
}

impl SessionKind {
    /// All kinds.
    pub const ALL: [SessionKind; 3] = [
        SessionKind::Encode,
        SessionKind::Decode,
        SessionKind::Transcode,
    ];

    /// Wire byte for this kind.
    pub fn as_u8(self) -> u8 {
        match self {
            SessionKind::Encode => 0,
            SessionKind::Decode => 1,
            SessionKind::Transcode => 2,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Option<SessionKind> {
        match b {
            0 => Some(SessionKind::Encode),
            1 => Some(SessionKind::Decode),
            2 => Some(SessionKind::Transcode),
            _ => None,
        }
    }

    /// Short name used in reports and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            SessionKind::Encode => "encode",
            SessionKind::Decode => "decode",
            SessionKind::Transcode => "transcode",
        }
    }

    /// Parses a short name.
    pub fn from_name(name: &str) -> Option<SessionKind> {
        SessionKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A wire-representable description of a [`CodecSession`] to open.
///
/// Carries only what the *client* legitimately decides (workload shape
/// and operating point); execution policy like the SIMD tier is supplied
/// by the server at [`build`](Self::build) time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionSpec {
    /// Encode, decode or transcode.
    pub kind: SessionKind,
    /// The output codec (encode/transcode) or input codec (decode).
    pub codec: CodecId,
    /// Transcode source codec; ignored for encode/decode.
    pub source: CodecId,
    /// Frame dimensions (encode/transcode; decoders learn it from the
    /// bitstream but admission sizing still uses it).
    pub resolution: Resolution,
    /// MPEG quantiser scale for the operating point (paper default 5).
    pub qscale: u16,
    /// B pictures between anchors (paper default 2).
    pub b_frames: u8,
    /// Drop corrupt packets instead of failing the session.
    pub resilient: bool,
}

impl SessionSpec {
    /// An encode session at the paper's default operating point.
    pub fn encode(codec: CodecId, resolution: Resolution) -> SessionSpec {
        SessionSpec {
            kind: SessionKind::Encode,
            codec,
            source: codec,
            resolution,
            qscale: 5,
            b_frames: 2,
            resilient: false,
        }
    }

    /// A decode session.
    pub fn decode(codec: CodecId, resolution: Resolution) -> SessionSpec {
        SessionSpec {
            kind: SessionKind::Decode,
            ..SessionSpec::encode(codec, resolution)
        }
    }

    /// A transcode session (`source` packets re-encoded as `target`).
    pub fn transcode(source: CodecId, target: CodecId, resolution: Resolution) -> SessionSpec {
        SessionSpec {
            kind: SessionKind::Transcode,
            source,
            ..SessionSpec::encode(target, resolution)
        }
    }

    /// Returns a copy at a different quantiser scale.
    pub fn with_qscale(mut self, qscale: u16) -> SessionSpec {
        self.qscale = qscale;
        self
    }

    /// Returns a copy with a different B-frame count.
    pub fn with_b_frames(mut self, b: u8) -> SessionSpec {
        self.b_frames = b;
        self
    }

    /// Returns a copy with resilient decoding enabled.
    pub fn with_resilience(mut self) -> SessionSpec {
        self.resilient = true;
        self
    }

    /// The coding options this spec implies under the server's chosen
    /// SIMD tier.
    pub fn options(&self, simd: SimdLevel) -> CodingOptions {
        CodingOptions::default()
            .with_qscale(self.qscale)
            .with_b_frames(self.b_frames)
            .with_simd(simd)
    }

    /// Builds the live session this spec describes.
    ///
    /// # Errors
    ///
    /// [`BenchError::Codec`] if the implied options are invalid for the
    /// codec.
    pub fn build(&self, simd: SimdLevel) -> Result<CodecSession, BenchError> {
        let options = self.options(simd);
        let session = match self.kind {
            SessionKind::Encode => CodecSession::encoder(self.codec, self.resolution, &options)?,
            SessionKind::Decode => CodecSession::decoder(self.codec, simd),
            SessionKind::Transcode => {
                CodecSession::transcoder(self.source, self.codec, self.resolution, &options)?
            }
        };
        Ok(if self.resilient {
            session.with_resilience()
        } else {
            session
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SessionInput, SessionOutput};
    use hdvb_frame::Frame;

    #[test]
    fn priority_and_kind_round_trip_their_wire_bytes() {
        for p in Priority::ALL {
            assert_eq!(Priority::from_u8(p.as_u8()), Some(p));
            assert_eq!(Priority::from_name(p.name()), Some(p));
        }
        assert_eq!(Priority::from_u8(9), None);
        for k in SessionKind::ALL {
            assert_eq!(SessionKind::from_u8(k.as_u8()), Some(k));
            assert_eq!(SessionKind::from_name(k.name()), Some(k));
        }
        assert_eq!(SessionKind::from_u8(9), None);
    }

    #[test]
    fn built_encode_session_matches_a_hand_built_one() {
        let res = Resolution::new(96, 80);
        let spec = SessionSpec::encode(CodecId::Mpeg2, res).with_qscale(7);
        let simd = SimdLevel::Scalar;
        let mut from_spec = spec.build(simd).expect("spec build");
        let mut by_hand = CodecSession::encoder(
            CodecId::Mpeg2,
            res,
            &CodingOptions::default().with_qscale(7).with_simd(simd),
        )
        .expect("hand build");

        let mut frame = Frame::new(res.width(), res.height());
        for (i, b) in frame.y_mut().data_mut().iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let (mut a, mut b) = (SessionOutput::new(), SessionOutput::new());
        for _ in 0..4 {
            from_spec
                .push_into(SessionInput::Frame(frame.clone()), &mut a)
                .expect("push");
            by_hand
                .push_into(SessionInput::Frame(frame.clone()), &mut b)
                .expect("push");
        }
        from_spec.finish_into(&mut a).expect("finish");
        by_hand.finish_into(&mut b).expect("finish");
        let (a, b) = (a.packets, b.packets);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data, y.data);
        }
    }

    #[test]
    fn transcode_and_resilient_specs_build() {
        let res = Resolution::new(96, 80);
        let spec = SessionSpec::transcode(CodecId::Mpeg2, CodecId::H264, res);
        assert!(spec.build(SimdLevel::Scalar).is_ok());
        let spec = SessionSpec::decode(CodecId::Mpeg4, res).with_resilience();
        assert!(spec.build(SimdLevel::Scalar).is_ok());
    }
}
