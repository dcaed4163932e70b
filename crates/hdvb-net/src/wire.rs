//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message is a 16-byte header followed by a payload and — when
//! the payload is non-empty — an 8-byte payload checksum trailer:
//!
//! ```text
//! offset  size  field
//!      0     2  magic "HV"
//!      2     1  protocol version (3)
//!      3     1  message type
//!      4     4  payload length, u32 LE (capped at 64 MiB)
//!      8     4  sender sequence number, u32 LE (diagnostic)
//!     12     4  FNV-1a-32 checksum over bytes 0..12, u32 LE
//!     16   len  payload
//!  16+len     8  `checksum64` over the payload, u64 LE
//!               (present only when len > 0)
//! ```
//!
//! All integers are little-endian. The header checksum catches
//! desynchronised framing (a reader that lost its place decodes garbage
//! lengths) before any length is trusted; the payload trailer gives
//! end-to-end integrity for the body, so a single flipped bit anywhere
//! in a message — header or payload — is detected by the receiver.
//! That is a guarantee, not a probability: both sums absorb their input
//! through steps `s' = (s ^ w) * odd`, each a bijection of the state
//! `s` and, for a fixed state, of the absorbed `w`; a change confined
//! to one absorbed unit (a header byte, an aligned 8-byte payload word)
//! therefore always changes the sum, and all of its bits are carried
//! (see [`hdvb_bits::hash::checksum64`](hdvb_core::hash::checksum64)).
//! It is what lets the chaos layer's `garble` fault be injected
//! anywhere and still keep sessions bit-identical: a corrupted message
//! is dropped with the connection and replayed from the resume journal,
//! never consumed.
//!
//! Both ends of this protocol live in this repository, so there is no
//! fallback for other versions: a peer speaking one is refused with
//! [`WireError::BadVersion`].
//!
//! Decoding never panics. Every malformed input — wrong magic, unknown
//! version or type, checksum mismatch, oversized or truncated frame,
//! or a payload whose fields do not parse — returns a typed
//! [`WireError`]. This is enforced by golden vectors in
//! `tests/corpus/wire/` and by mutation fuzzing in
//! `tests/wire_robustness.rs`.

use hdvb_core::hash::checksum64;
use hdvb_core::{CodecId, Packet, PacketKind, Priority, SessionKind, SessionSpec};
use hdvb_frame::{BufferPool, Frame, FramePool, Resolution};
use std::fmt;

/// Returns a sent message's payload buffers to the global pools. The
/// wire owns pixel and bitstream bytes only while they are being
/// serialised; once encoded, the backing storage goes back into
/// circulation so steady-state network traffic reuses the same frames
/// and buffers the codecs do.
pub(crate) fn recycle_msg(msg: Msg) {
    match msg {
        Msg::Frame(f) => FramePool::global().put(f),
        Msg::Packet(p) => BufferPool::global().put(p.data),
        _ => {}
    }
}

/// Encodes `msg` into a buffer from the global pool sized by
/// [`encoded_len`], so the bytes are written once and never regrow.
/// Whoever sends (or journals) them returns the buffer with
/// `BufferPool::global().put`.
pub(crate) fn encode_pooled(msg: &Msg, seq: u32) -> Vec<u8> {
    let mut bytes = BufferPool::global().take(encoded_len(msg));
    encode(msg, seq, &mut bytes);
    bytes
}

/// First two bytes of every message.
pub const MAGIC: [u8; 2] = *b"HV";
/// Current protocol version.
pub const VERSION: u8 = 3;
/// Header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Payload checksum trailer size (present when the payload is
/// non-empty).
pub const TRAILER_LEN: usize = 8;
/// Largest accepted payload (64 MiB — an 8K I420 frame is ~48 MiB).
pub const MAX_PAYLOAD: u32 = 1 << 26;
/// Largest accepted frame dimension on the wire.
pub const MAX_DIMENSION: u32 = 8192;

/// Message type byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Version/role handshake, first message in both directions.
    Hello = 1,
    /// Client requests a session (`SessionSpec` + `Priority`).
    Open = 2,
    /// Server admitted the session.
    OpenOk = 3,
    /// One raw I420 frame (encode/transcode input, decode output).
    Frame = 4,
    /// One coded packet (decode/transcode input, encode output).
    Packet = 5,
    /// End of input: flush lookahead and retire the session.
    Flush = 6,
    /// Server's terminal summary for a flushed session.
    Done = 7,
    /// Client abandons the session (server cancels it).
    Close = 8,
    /// Typed failure; terminal for the session.
    Error = 9,
    /// Heartbeat probe; either side may send it at any time.
    Ping = 10,
    /// Heartbeat reply to a PING.
    Pong = 11,
    /// Client re-attaches to a parked session after a disconnect.
    Resume = 12,
    /// Server accepted a RESUME; journal replay follows.
    ResumeOk = 13,
    /// Client's cumulative count of outputs received (journal trim).
    AckOut = 14,
    /// Server's cumulative count of inputs received (replay-buffer trim).
    AckIn = 15,
}

impl MsgType {
    pub(crate) fn from_u8(b: u8) -> Option<MsgType> {
        Some(match b {
            1 => MsgType::Hello,
            2 => MsgType::Open,
            3 => MsgType::OpenOk,
            4 => MsgType::Frame,
            5 => MsgType::Packet,
            6 => MsgType::Flush,
            7 => MsgType::Done,
            8 => MsgType::Close,
            9 => MsgType::Error,
            10 => MsgType::Ping,
            11 => MsgType::Pong,
            12 => MsgType::Resume,
            13 => MsgType::ResumeOk,
            14 => MsgType::AckOut,
            15 => MsgType::AckIn,
            _ => return None,
        })
    }

    /// True for the heartbeat/acknowledgement messages that carry no
    /// session data. The fault injector skips these when counting
    /// messages so that fault positions stay deterministic regardless
    /// of heartbeat timing.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            MsgType::Ping | MsgType::Pong | MsgType::AckOut | MsgType::AckIn
        )
    }
}

/// Error codes carried by [`Msg::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission control refused the OPEN (fleet p99 over threshold).
    Rejected = 1,
    /// The per-session token bucket refused an input.
    RateLimited = 2,
    /// Request invalid for the session state (e.g. frame to a decoder).
    BadRequest = 3,
    /// The codec failed (invalid options, corrupt stream, ...).
    Codec = 4,
    /// The peer violated the wire protocol.
    Protocol = 5,
    /// Server-side failure unrelated to the request.
    Internal = 6,
    /// A RESUME named a session the server no longer holds (expired,
    /// journal overflow, or never existed).
    NoSession = 7,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Rejected,
            2 => ErrorCode::RateLimited,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::Codec,
            5 => ErrorCode::Protocol,
            6 => ErrorCode::Internal,
            7 => ErrorCode::NoSession,
            _ => return None,
        })
    }

    /// Short name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Rejected => "rejected",
            ErrorCode::RateLimited => "rate-limited",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Codec => "codec",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Internal => "internal",
            ErrorCode::NoSession => "no-session",
        }
    }
}

/// Why a byte sequence failed to decode. Every variant is reachable
/// from a malformed input; none of them panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message type byte.
    UnknownType(u8),
    /// Header checksum mismatch (desynchronised or corrupted framing).
    BadChecksum {
        /// Checksum recomputed over the received header.
        expected: u32,
        /// Checksum carried by the received header.
        found: u32,
    },
    /// Payload checksum trailer mismatch (bytes corrupted in flight).
    BadPayloadChecksum {
        /// Checksum recomputed over the received payload.
        expected: u64,
        /// Checksum carried by the trailer.
        found: u64,
    },
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Declared length.
        len: u32,
    },
    /// The input ended before the declared frame did.
    Truncated {
        /// Bytes the frame needs.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The payload's fields do not parse for its message type.
    BadPayload {
        /// Message type being decoded.
        msg: &'static str,
        /// What was wrong.
        detail: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "header checksum {found:#010x}, expected {expected:#010x}"
                )
            }
            WireError::BadPayloadChecksum { expected, found } => {
                write!(
                    f,
                    "payload checksum {found:#018x}, expected {expected:#018x}"
                )
            }
            WireError::Oversized { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            WireError::BadPayload { msg, detail } => write!(f, "bad {msg} payload: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Terminal statistics for a flushed session, carried by [`Msg::Done`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DoneStats {
    /// Inputs whose processing completed.
    pub completed: u64,
    /// Inputs discarded unprocessed.
    pub discarded: u64,
    /// Corrupt packets dropped by a resilient session.
    pub corrupt_dropped: u64,
    /// Median admission-to-completion latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
}

/// A decoded protocol message.
#[derive(Debug)]
pub enum Msg {
    /// Handshake. `server` is false from the client, true in the reply.
    Hello {
        /// True when sent by the server side.
        server: bool,
    },
    /// Session request.
    Open {
        /// What to run.
        spec: SessionSpec,
        /// Scheduling class.
        priority: Priority,
        /// Client asks the server to journal outputs so the session can
        /// be resumed after a disconnect.
        resume: bool,
    },
    /// Session admitted.
    OpenOk {
        /// Server-assigned session id.
        session_id: u32,
        /// Heartbeat interval the server enforces, in milliseconds.
        /// Zero disables liveness deadlines for this session.
        heartbeat_ms: u32,
    },
    /// One raw frame.
    Frame(Frame),
    /// One coded packet.
    Packet(Packet),
    /// End of input.
    Flush,
    /// Terminal session summary.
    Done(DoneStats),
    /// Client-initiated abandon.
    Close,
    /// Typed failure.
    Error {
        /// What failed.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Heartbeat probe.
    Ping,
    /// Heartbeat reply.
    Pong,
    /// Re-attach to a parked session.
    Resume {
        /// The id handed out by OPEN_OK.
        session_id: u32,
        /// Outputs (journal entries) the client already holds; the
        /// server replays everything after this point.
        outputs_received: u64,
    },
    /// RESUME accepted.
    ResumeOk {
        /// Inputs the server has already consumed; the client resends
        /// everything after this point.
        inputs_received: u64,
    },
    /// Client → server: cumulative outputs received.
    AckOut {
        /// Count of journal entries the client now holds.
        outputs_received: u64,
    },
    /// Server → client: cumulative inputs received.
    AckIn {
        /// Count of inputs the server has consumed.
        inputs_received: u64,
    },
}

impl Msg {
    /// The message's wire type byte.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Msg::Hello { .. } => MsgType::Hello,
            Msg::Open { .. } => MsgType::Open,
            Msg::OpenOk { .. } => MsgType::OpenOk,
            Msg::Frame(_) => MsgType::Frame,
            Msg::Packet(_) => MsgType::Packet,
            Msg::Flush => MsgType::Flush,
            Msg::Done(_) => MsgType::Done,
            Msg::Close => MsgType::Close,
            Msg::Error { .. } => MsgType::Error,
            Msg::Ping => MsgType::Ping,
            Msg::Pong => MsgType::Pong,
            Msg::Resume { .. } => MsgType::Resume,
            Msg::ResumeOk { .. } => MsgType::ResumeOk,
            Msg::AckOut { .. } => MsgType::AckOut,
            Msg::AckIn { .. } => MsgType::AckIn,
        }
    }
}

/// FNV-1a 32-bit: the header checksum. (Payloads are summed by
/// [`checksum64`].)
pub use hdvb_core::hash::fnv1a32 as fnv1a;

/// A parsed message header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Message type.
    pub msg_type: MsgType,
    /// Payload length in bytes.
    pub len: u32,
    /// Sender sequence number.
    pub seq: u32,
}

/// On-wire size of a message with `payload` payload bytes: header,
/// payload, and the trailer only a non-empty payload carries.
pub(crate) fn wire_len(payload: usize) -> usize {
    HEADER_LEN + payload + if payload > 0 { TRAILER_LEN } else { 0 }
}

/// Total on-wire size of the message this header announces, including
/// the payload trailer when one is present.
pub fn frame_len(header: &Header) -> usize {
    wire_len(header.len as usize)
}

/// Validates a payload against its [`TRAILER_LEN`]-byte trailer.
///
/// # Errors
///
/// [`WireError::BadPayloadChecksum`] on mismatch;
/// [`WireError::Truncated`] when `trailer` is not a whole trailer.
pub fn check_trailer(payload: &[u8], trailer: &[u8]) -> Result<(), WireError> {
    let Ok(found) = <[u8; TRAILER_LEN]>::try_from(trailer) else {
        return Err(WireError::Truncated {
            need: TRAILER_LEN,
            have: trailer.len(),
        });
    };
    let found = u64::from_le_bytes(found);
    let expected = checksum64(payload);
    if expected != found {
        return Err(WireError::BadPayloadChecksum { expected, found });
    }
    Ok(())
}

/// Serialises a header.
pub fn encode_header(msg_type: MsgType, len: u32, seq: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..2].copy_from_slice(&MAGIC);
    h[2] = VERSION;
    h[3] = msg_type as u8;
    h[4..8].copy_from_slice(&len.to_le_bytes());
    h[8..12].copy_from_slice(&seq.to_le_bytes());
    let sum = fnv1a(&h[0..12]);
    h[12..16].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Parses and validates a header.
///
/// # Errors
///
/// [`WireError`] on bad magic, version, type, checksum, or an oversized
/// declared length — checked in that order, so a desynchronised reader
/// fails fast on magic before trusting anything else.
pub fn parse_header(h: &[u8; HEADER_LEN]) -> Result<Header, WireError> {
    if h[0..2] != MAGIC {
        return Err(WireError::BadMagic([h[0], h[1]]));
    }
    if h[2] != VERSION {
        return Err(WireError::BadVersion(h[2]));
    }
    let expected = fnv1a(&h[0..12]);
    let found = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
    if expected != found {
        return Err(WireError::BadChecksum { expected, found });
    }
    let msg_type = MsgType::from_u8(h[3]).ok_or(WireError::UnknownType(h[3]))?;
    let len = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized { len });
    }
    let seq = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
    Ok(Header { msg_type, len, seq })
}

// Codec bytes match the HVB1 container's mapping so tooling that knows
// one knows both.
fn codec_byte(c: CodecId) -> u8 {
    match c {
        CodecId::Mpeg2 => 2,
        CodecId::Mpeg4 => 4,
        CodecId::H264 => 64,
    }
}

fn codec_from_byte(b: u8) -> Option<CodecId> {
    match b {
        2 => Some(CodecId::Mpeg2),
        4 => Some(CodecId::Mpeg4),
        64 => Some(CodecId::H264),
        _ => None,
    }
}

/// Payload bytes `msg` encodes to.
fn payload_len(msg: &Msg) -> usize {
    match msg {
        Msg::Hello { .. } => 1,
        Msg::Open { .. } => 17,
        Msg::OpenOk { .. } => 8,
        Msg::Frame(f) => 8 + f.y().data().len() + f.cb().data().len() + f.cr().data().len(),
        Msg::Packet(p) => 5 + p.data.len(),
        Msg::Flush | Msg::Close | Msg::Ping | Msg::Pong => 0,
        Msg::Done(_) => 40,
        Msg::Error { detail, .. } => 1 + detail.len(),
        Msg::Resume { .. } => 12,
        Msg::ResumeOk { .. } | Msg::AckOut { .. } | Msg::AckIn { .. } => 8,
    }
}

/// Exact number of bytes [`encode`] appends for `msg`: what a sender
/// reserves (or takes from a pool) before encoding, so a message is
/// written into its buffer once and the buffer never regrows.
pub fn encoded_len(msg: &Msg) -> usize {
    wire_len(payload_len(msg))
}

/// Appends `msg` (header + payload + payload trailer) to `out`.
///
/// # Panics
///
/// If the payload exceeds `u32::MAX` bytes — no `Msg` the codecs or the
/// decoder can produce comes near ([`MAX_PAYLOAD`] is 64 MiB).
pub fn encode(msg: &Msg, seq: u32, out: &mut Vec<u8>) {
    let len = payload_len(msg);
    out.reserve(wire_len(len));
    let header_len = u32::try_from(len).expect("payload length fits the u32 header field");
    out.extend_from_slice(&encode_header(msg.msg_type(), header_len, seq));
    let payload_at = out.len();
    match msg {
        Msg::Hello { server } => out.push(u8::from(*server)),
        Msg::Open {
            spec,
            priority,
            resume,
        } => {
            out.push(spec.kind.as_u8());
            out.push(codec_byte(spec.codec));
            out.push(codec_byte(spec.source));
            out.push(priority.as_u8());
            out.push(u8::from(spec.resilient));
            out.push(spec.b_frames);
            out.extend_from_slice(&spec.qscale.to_le_bytes());
            out.extend_from_slice(&(spec.resolution.width() as u32).to_le_bytes());
            out.extend_from_slice(&(spec.resolution.height() as u32).to_le_bytes());
            out.push(u8::from(*resume));
        }
        Msg::OpenOk {
            session_id,
            heartbeat_ms,
        } => {
            out.extend_from_slice(&session_id.to_le_bytes());
            out.extend_from_slice(&heartbeat_ms.to_le_bytes());
        }
        Msg::Frame(frame) => {
            out.extend_from_slice(&(frame.width() as u32).to_le_bytes());
            out.extend_from_slice(&(frame.height() as u32).to_le_bytes());
            out.extend_from_slice(frame.y().data());
            out.extend_from_slice(frame.cb().data());
            out.extend_from_slice(frame.cr().data());
        }
        Msg::Packet(p) => {
            out.push(p.kind.as_byte());
            out.extend_from_slice(&p.display_index.to_le_bytes());
            out.extend_from_slice(&p.data);
        }
        Msg::Flush | Msg::Close | Msg::Ping | Msg::Pong => {}
        Msg::Done(s) => {
            out.extend_from_slice(&s.completed.to_le_bytes());
            out.extend_from_slice(&s.discarded.to_le_bytes());
            out.extend_from_slice(&s.corrupt_dropped.to_le_bytes());
            out.extend_from_slice(&s.p50_ns.to_le_bytes());
            out.extend_from_slice(&s.p99_ns.to_le_bytes());
        }
        Msg::Error { code, detail } => {
            out.push(*code as u8);
            out.extend_from_slice(detail.as_bytes());
        }
        Msg::Resume {
            session_id,
            outputs_received,
        } => {
            out.extend_from_slice(&session_id.to_le_bytes());
            out.extend_from_slice(&outputs_received.to_le_bytes());
        }
        Msg::ResumeOk { inputs_received } => {
            out.extend_from_slice(&inputs_received.to_le_bytes());
        }
        Msg::AckOut { outputs_received } => {
            out.extend_from_slice(&outputs_received.to_le_bytes());
        }
        Msg::AckIn { inputs_received } => {
            out.extend_from_slice(&inputs_received.to_le_bytes());
        }
    }
    assert_eq!(
        out.len() - payload_at,
        len,
        "payload_len disagrees with encode"
    );
    if len > 0 {
        let sum = checksum64(&out[payload_at..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Decodes one payload for a validated header. The caller has already
/// verified the payload trailer (see [`check_trailer`]).
///
/// # Errors
///
/// [`WireError::BadPayload`] when the bytes do not form a valid message
/// of `msg_type` (wrong size, out-of-range field, invalid UTF-8, ...).
pub fn decode_payload(msg_type: MsgType, payload: &[u8]) -> Result<Msg, WireError> {
    let bad = |detail: &'static str| WireError::BadPayload {
        msg: match msg_type {
            MsgType::Hello => "hello",
            MsgType::Open => "open",
            MsgType::OpenOk => "open-ok",
            MsgType::Frame => "frame",
            MsgType::Packet => "packet",
            MsgType::Flush => "flush",
            MsgType::Done => "done",
            MsgType::Close => "close",
            MsgType::Error => "error",
            MsgType::Ping => "ping",
            MsgType::Pong => "pong",
            MsgType::Resume => "resume",
            MsgType::ResumeOk => "resume-ok",
            MsgType::AckOut => "ack-out",
            MsgType::AckIn => "ack-in",
        },
        detail,
    };
    match msg_type {
        MsgType::Hello => match payload {
            [role] if *role <= 1 => Ok(Msg::Hello { server: *role == 1 }),
            [_] => Err(bad("role byte out of range")),
            _ => Err(bad("expected exactly one role byte")),
        },
        MsgType::Open => {
            if payload.len() != 17 {
                return Err(bad("expected 17 bytes"));
            }
            let kind = SessionKind::from_u8(payload[0]).ok_or_else(|| bad("unknown kind"))?;
            let codec = codec_from_byte(payload[1]).ok_or_else(|| bad("unknown codec"))?;
            let source = codec_from_byte(payload[2]).ok_or_else(|| bad("unknown source codec"))?;
            let priority = Priority::from_u8(payload[3]).ok_or_else(|| bad("unknown priority"))?;
            if payload[4] > 1 {
                return Err(bad("resilient flag out of range"));
            }
            if payload[16] > 1 {
                return Err(bad("resume flag out of range"));
            }
            let (w, h) = (le_u32(&payload[8..12]), le_u32(&payload[12..16]));
            let resolution = parse_resolution(w, h).ok_or_else(|| bad("invalid resolution"))?;
            Ok(Msg::Open {
                spec: SessionSpec {
                    kind,
                    codec,
                    source,
                    resolution,
                    qscale: le_u16(&payload[6..8]).max(1),
                    b_frames: payload[5],
                    resilient: payload[4] == 1,
                },
                priority,
                resume: payload[16] == 1,
            })
        }
        MsgType::OpenOk => match payload.len() {
            8 => Ok(Msg::OpenOk {
                session_id: le_u32(&payload[0..4]),
                heartbeat_ms: le_u32(&payload[4..8]),
            }),
            _ => Err(bad("expected 8 bytes")),
        },
        MsgType::Frame => {
            if payload.len() < 8 {
                return Err(bad("missing dimensions"));
            }
            let (w, h) = (le_u32(&payload[0..4]), le_u32(&payload[4..8]));
            let res = parse_resolution(w, h).ok_or_else(|| bad("invalid dimensions"))?;
            let (w, h) = (res.width(), res.height());
            let (luma, chroma) = (w * h, (w / 2) * (h / 2));
            if payload.len() != 8 + luma + 2 * chroma {
                return Err(bad("payload size does not match dimensions"));
            }
            let mut frame = FramePool::global().take(w, h);
            let body = &payload[8..];
            frame.y_mut().data_mut().copy_from_slice(&body[..luma]);
            frame
                .cb_mut()
                .data_mut()
                .copy_from_slice(&body[luma..luma + chroma]);
            frame
                .cr_mut()
                .data_mut()
                .copy_from_slice(&body[luma + chroma..]);
            Ok(Msg::Frame(frame))
        }
        MsgType::Packet => {
            if payload.len() < 5 {
                return Err(bad("missing kind/index"));
            }
            let kind =
                PacketKind::from_byte(payload[0]).ok_or_else(|| bad("unknown picture kind"))?;
            let mut data = BufferPool::global().take(payload.len() - 5);
            data.extend_from_slice(&payload[5..]);
            Ok(Msg::Packet(Packet {
                kind,
                display_index: le_u32(&payload[1..5]),
                data,
            }))
        }
        MsgType::Flush => match payload.len() {
            0 => Ok(Msg::Flush),
            _ => Err(bad("expected empty payload")),
        },
        MsgType::Done => {
            if payload.len() != 40 {
                return Err(bad("expected 40 bytes"));
            }
            Ok(Msg::Done(DoneStats {
                completed: le_u64(&payload[0..8]),
                discarded: le_u64(&payload[8..16]),
                corrupt_dropped: le_u64(&payload[16..24]),
                p50_ns: le_u64(&payload[24..32]),
                p99_ns: le_u64(&payload[32..40]),
            }))
        }
        MsgType::Close => match payload.len() {
            0 => Ok(Msg::Close),
            _ => Err(bad("expected empty payload")),
        },
        MsgType::Error => {
            let (&code, detail) = payload.split_first().ok_or_else(|| bad("missing code"))?;
            let code = ErrorCode::from_u8(code).ok_or_else(|| bad("unknown error code"))?;
            let detail = std::str::from_utf8(detail)
                .map_err(|_| bad("detail is not UTF-8"))?
                .to_string();
            Ok(Msg::Error { code, detail })
        }
        MsgType::Ping => match payload.len() {
            0 => Ok(Msg::Ping),
            _ => Err(bad("expected empty payload")),
        },
        MsgType::Pong => match payload.len() {
            0 => Ok(Msg::Pong),
            _ => Err(bad("expected empty payload")),
        },
        MsgType::Resume => match payload.len() {
            12 => Ok(Msg::Resume {
                session_id: le_u32(&payload[0..4]),
                outputs_received: le_u64(&payload[4..12]),
            }),
            _ => Err(bad("expected 12 bytes")),
        },
        MsgType::ResumeOk => match payload.len() {
            8 => Ok(Msg::ResumeOk {
                inputs_received: le_u64(payload),
            }),
            _ => Err(bad("expected 8 bytes")),
        },
        MsgType::AckOut => match payload.len() {
            8 => Ok(Msg::AckOut {
                outputs_received: le_u64(payload),
            }),
            _ => Err(bad("expected 8 bytes")),
        },
        MsgType::AckIn => match payload.len() {
            8 => Ok(Msg::AckIn {
                inputs_received: le_u64(payload),
            }),
            _ => Err(bad("expected 8 bytes")),
        },
    }
}

fn parse_resolution(w: u32, h: u32) -> Option<Resolution> {
    let even = |v: u32| v > 0 && v <= MAX_DIMENSION && v.is_multiple_of(2);
    if even(w) && even(h) {
        Some(Resolution::new(w, h))
    } else {
        None
    }
}

/// Decodes one complete message from the front of `buf`, returning it
/// with its sequence number and the bytes consumed (header + payload +
/// trailer). This is the slice-oriented entry the fuzz harness drives;
/// socket readers use [`MsgReader`](crate::reader) instead.
///
/// # Errors
///
/// Any [`WireError`]; a partial frame is [`WireError::Truncated`].
pub fn decode(buf: &[u8]) -> Result<(Msg, u32, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            need: HEADER_LEN,
            have: buf.len(),
        });
    }
    let mut h = [0u8; HEADER_LEN];
    h.copy_from_slice(&buf[..HEADER_LEN]);
    let header = parse_header(&h)?;
    let total = frame_len(&header);
    if buf.len() < total {
        return Err(WireError::Truncated {
            need: total,
            have: buf.len(),
        });
    }
    let payload_end = HEADER_LEN + header.len as usize;
    if header.len > 0 {
        check_trailer(&buf[HEADER_LEN..payload_end], &buf[payload_end..total])?;
    }
    let msg = decode_payload(header.msg_type, &buf[HEADER_LEN..payload_end])?;
    Ok((msg, header.seq, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Msg) -> Msg {
        let mut buf = Vec::new();
        encode(msg, 7, &mut buf);
        let (decoded, seq, used) = decode(&buf).expect("round trip");
        assert_eq!(seq, 7);
        assert_eq!(used, buf.len());
        decoded
    }

    #[test]
    fn every_message_type_round_trips() {
        match round_trip(&Msg::Hello { server: true }) {
            Msg::Hello { server: true } => {}
            other => panic!("{other:?}"),
        }
        let spec = SessionSpec::transcode(CodecId::Mpeg2, CodecId::H264, Resolution::new(96, 80))
            .with_qscale(9)
            .with_b_frames(1);
        match round_trip(&Msg::Open {
            spec,
            priority: Priority::Live,
            resume: true,
        }) {
            Msg::Open {
                spec: s,
                priority: Priority::Live,
                resume: true,
            } => assert_eq!(s, spec),
            other => panic!("{other:?}"),
        }
        match round_trip(&Msg::OpenOk {
            session_id: 42,
            heartbeat_ms: 1_000,
        }) {
            Msg::OpenOk {
                session_id: 42,
                heartbeat_ms: 1_000,
            } => {}
            other => panic!("{other:?}"),
        }
        let mut frame = Frame::new(32, 16);
        for (i, b) in frame.y_mut().data_mut().iter_mut().enumerate() {
            *b = i as u8;
        }
        match round_trip(&Msg::Frame(frame.clone())) {
            Msg::Frame(f) => assert_eq!(f, frame),
            other => panic!("{other:?}"),
        }
        let pkt = Packet {
            kind: PacketKind::B,
            display_index: 3,
            data: vec![1, 2, 3, 4],
        };
        match round_trip(&Msg::Packet(pkt.clone())) {
            Msg::Packet(p) => {
                assert_eq!(p.data, pkt.data);
                assert_eq!(p.display_index, 3);
                assert_eq!(p.kind, PacketKind::B);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(round_trip(&Msg::Flush), Msg::Flush));
        assert!(matches!(round_trip(&Msg::Close), Msg::Close));
        assert!(matches!(round_trip(&Msg::Ping), Msg::Ping));
        assert!(matches!(round_trip(&Msg::Pong), Msg::Pong));
        let stats = DoneStats {
            completed: 10,
            discarded: 1,
            corrupt_dropped: 0,
            p50_ns: 1_000,
            p99_ns: 9_000,
        };
        match round_trip(&Msg::Done(stats)) {
            Msg::Done(s) => assert_eq!(s, stats),
            other => panic!("{other:?}"),
        }
        match round_trip(&Msg::Error {
            code: ErrorCode::Rejected,
            detail: "fleet p99 over threshold".into(),
        }) {
            Msg::Error {
                code: ErrorCode::Rejected,
                detail,
            } => assert!(detail.contains("p99")),
            other => panic!("{other:?}"),
        }
        match round_trip(&Msg::Resume {
            session_id: 9,
            outputs_received: 1 << 40,
        }) {
            Msg::Resume {
                session_id: 9,
                outputs_received,
            } => assert_eq!(outputs_received, 1 << 40),
            other => panic!("{other:?}"),
        }
        match round_trip(&Msg::ResumeOk {
            inputs_received: 77,
        }) {
            Msg::ResumeOk {
                inputs_received: 77,
            } => {}
            other => panic!("{other:?}"),
        }
        match round_trip(&Msg::AckOut {
            outputs_received: 5,
        }) {
            Msg::AckOut {
                outputs_received: 5,
            } => {}
            other => panic!("{other:?}"),
        }
        match round_trip(&Msg::AckIn { inputs_received: 6 }) {
            Msg::AckIn { inputs_received: 6 } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_headers_return_typed_errors() {
        let mut buf = Vec::new();
        encode(&Msg::Flush, 0, &mut buf);

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(WireError::BadMagic(_))));

        let mut bad = buf.clone();
        bad[2] = 9;
        assert!(matches!(decode(&bad), Err(WireError::BadVersion(9))));

        // An unknown type is still checksummed, so flip the type byte
        // and re-stamp the checksum to isolate the type check.
        let mut bad = buf.clone();
        bad[3] = 200;
        let sum = fnv1a(&bad[0..12]);
        bad[12..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode(&bad), Err(WireError::UnknownType(200))));

        let mut bad = buf.clone();
        bad[13] ^= 0xff;
        assert!(matches!(decode(&bad), Err(WireError::BadChecksum { .. })));

        let mut bad = buf.clone();
        bad[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let sum = fnv1a(&bad[0..12]);
        bad[12..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode(&bad), Err(WireError::Oversized { .. })));

        assert!(matches!(
            decode(&buf[..HEADER_LEN - 4]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn any_single_bit_garble_is_detected() {
        // The chaos layer's `garble` fault flips exactly one bit at an
        // arbitrary offset. Between the header checksum and the payload
        // trailer, every such flip must surface as a typed error (or, if
        // it lands in the diagnostic seq field, still fail the header
        // checksum) — never as a silently different message.
        let pkt = Packet {
            kind: PacketKind::P,
            display_index: 11,
            data: (0..64u8).collect(),
        };
        let mut clean = Vec::new();
        encode(&Msg::Packet(pkt), 3, &mut clean);
        for bit in 0..clean.len() * 8 {
            let mut garbled = clean.clone();
            garbled[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode(&garbled).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn payload_trailer_guards_body_corruption() {
        let mut buf = Vec::new();
        encode(
            &Msg::OpenOk {
                session_id: 1,
                heartbeat_ms: 250,
            },
            0,
            &mut buf,
        );
        assert_eq!(buf.len(), HEADER_LEN + 8 + TRAILER_LEN);
        // Corrupt one payload byte: header still parses, trailer trips.
        buf[HEADER_LEN] ^= 0x10;
        assert!(matches!(
            decode(&buf),
            Err(WireError::BadPayloadChecksum { .. })
        ));
        // Empty-payload messages carry no trailer.
        let mut ping = Vec::new();
        encode(&Msg::Ping, 0, &mut ping);
        assert_eq!(ping.len(), HEADER_LEN);
    }

    #[test]
    fn frame_payload_must_match_its_dimensions() {
        let mut buf = Vec::new();
        encode(&Msg::Frame(Frame::new(32, 16)), 0, &mut buf);
        let restamp = |buf: &mut Vec<u8>| {
            let at = buf.len() - TRAILER_LEN;
            let sum = checksum64(&buf[HEADER_LEN..at]);
            buf[at..].copy_from_slice(&sum.to_le_bytes());
        };
        // Flip a dimension without fixing the payload size (re-stamping
        // the trailer to isolate the dimension check).
        buf[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&64u32.to_le_bytes());
        restamp(&mut buf);
        assert!(matches!(decode(&buf), Err(WireError::BadPayload { .. })));
        // Odd dimensions are rejected before any Frame is constructed.
        buf[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&33u32.to_le_bytes());
        restamp(&mut buf);
        assert!(matches!(decode(&buf), Err(WireError::BadPayload { .. })));
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut buf = Vec::new();
        encode(&Msg::Flush, 1, &mut buf);
        let first = buf.len();
        encode(&Msg::Close, 2, &mut buf);
        let (msg, seq, used) = decode(&buf).expect("first");
        assert!(matches!(msg, Msg::Flush));
        assert_eq!((seq, used), (1, first));
        let (msg, seq, _) = decode(&buf[used..]).expect("second");
        assert!(matches!(msg, Msg::Close));
        assert_eq!(seq, 2);
    }
}
