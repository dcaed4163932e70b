//! Deterministic golden wire vectors.
//!
//! [`golden_vectors`] regenerates, byte for byte, the vectors checked in
//! under `tests/corpus/wire/`. The repo's `wire_robustness` test asserts
//! the files still match this generator — so the committed bytes cannot
//! drift from the code that documents them — and replays each one
//! through [`wire::decode`](crate::wire::decode), asserting the `ok--`
//! vectors parse completely and the `err--` vectors fail with a typed
//! [`WireError`](crate::wire::WireError) (never a panic).

use crate::wire::{self, encode_header, fnv1a, DoneStats, Msg, MsgType, HEADER_LEN, TRAILER_LEN};
use hdvb_core::hash::checksum64;
use hdvb_core::{CodecId, Packet, PacketKind, Priority, SessionSpec};
use hdvb_frame::{Frame, Resolution};

/// One named wire vector and whether it should decode.
pub struct GoldenWire {
    /// File stem: `ok--*` decodes fully, `err--*` returns a typed error.
    pub name: &'static str,
    /// Whether every framed message in `bytes` decodes.
    pub valid: bool,
    /// The exact bytes committed under `tests/corpus/wire/`.
    pub bytes: Vec<u8>,
}

fn enc(msg: &Msg, seq: u32) -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode(msg, seq, &mut out);
    out
}

/// Restamps the header checksum after deliberate field tampering, so the
/// tampered field itself (not the checksum) is what the decoder rejects.
fn restamp(frame: &mut [u8]) {
    let sum = fnv1a(&frame[0..12]);
    frame[12..16].copy_from_slice(&sum.to_le_bytes());
}

/// Restamps the payload trailer after deliberate payload tampering, so
/// the tampered field itself (not the payload checksum) is what the
/// decoder rejects.
fn restamp_payload(frame: &mut [u8]) {
    let payload_end = frame.len() - TRAILER_LEN;
    let sum = checksum64(&frame[HEADER_LEN..payload_end]);
    frame[payload_end..].copy_from_slice(&sum.to_le_bytes());
}

fn sample_frame() -> Frame {
    let mut f = Frame::new(16, 16);
    for (i, b) in f.y_mut().data_mut().iter_mut().enumerate() {
        *b = (i * 7) as u8;
    }
    for (i, b) in f.cb_mut().data_mut().iter_mut().enumerate() {
        *b = (i * 11) as u8;
    }
    for (i, b) in f.cr_mut().data_mut().iter_mut().enumerate() {
        *b = (i * 13) as u8;
    }
    f
}

fn sample_packet() -> Packet {
    Packet {
        data: (0..48u8).map(|i| i.wrapping_mul(5)).collect(),
        kind: PacketKind::P,
        display_index: 3,
    }
}

/// Builds all golden wire vectors, valid and malformed.
#[allow(clippy::vec_init_then_push)] // a long literal catalogue reads best as pushes
pub fn golden_vectors() -> Vec<GoldenWire> {
    let spec = SessionSpec::transcode(CodecId::Mpeg2, CodecId::H264, Resolution::new(176, 144))
        .with_qscale(7);
    let mut v = Vec::new();

    v.push(GoldenWire {
        name: "ok--hello-client",
        valid: true,
        bytes: enc(&Msg::Hello { server: false }, 0),
    });
    v.push(GoldenWire {
        name: "ok--open-transcode-live",
        valid: true,
        bytes: enc(
            &Msg::Open {
                spec,
                priority: Priority::Live,
                resume: false,
            },
            1,
        ),
    });
    v.push(GoldenWire {
        name: "ok--open-resumable",
        valid: true,
        bytes: enc(
            &Msg::Open {
                spec,
                priority: Priority::Batch,
                resume: true,
            },
            1,
        ),
    });
    v.push(GoldenWire {
        name: "ok--frame-16x16",
        valid: true,
        bytes: enc(&Msg::Frame(sample_frame()), 2),
    });
    v.push(GoldenWire {
        name: "ok--packet-p",
        valid: true,
        bytes: enc(&Msg::Packet(sample_packet()), 3),
    });
    v.push(GoldenWire {
        name: "ok--done-stats",
        valid: true,
        bytes: enc(
            &Msg::Done(DoneStats {
                completed: 250,
                discarded: 3,
                corrupt_dropped: 1,
                p50_ns: 4_200_000,
                p99_ns: 19_700_000,
            }),
            4,
        ),
    });
    // A whole session transcript in one buffer: every control message
    // framed back to back.
    let mut stream = enc(&Msg::Hello { server: false }, 0);
    stream.extend(enc(
        &Msg::Open {
            spec,
            priority: Priority::Batch,
            resume: false,
        },
        1,
    ));
    stream.extend(enc(&Msg::Packet(sample_packet()), 2));
    stream.extend(enc(&Msg::Flush, 3));
    stream.extend(enc(&Msg::Close, 4));
    v.push(GoldenWire {
        name: "ok--session-transcript",
        valid: true,
        bytes: stream,
    });
    // The resilience-layer message set: heartbeats, cumulative acks,
    // and the resume handshake, back to back.
    let mut resil = enc(&Msg::Ping, 0);
    resil.extend(enc(&Msg::Pong, 1));
    resil.extend(enc(
        &Msg::Resume {
            session_id: 42,
            outputs_received: 117,
        },
        2,
    ));
    resil.extend(enc(
        &Msg::ResumeOk {
            inputs_received: 98,
        },
        3,
    ));
    resil.extend(enc(
        &Msg::AckOut {
            outputs_received: 120,
        },
        4,
    ));
    resil.extend(enc(
        &Msg::AckIn {
            inputs_received: 104,
        },
        5,
    ));
    resil.extend(enc(
        &Msg::OpenOk {
            session_id: 42,
            heartbeat_ms: 30_000,
        },
        6,
    ));
    v.push(GoldenWire {
        name: "ok--resilience-control",
        valid: true,
        bytes: resil,
    });

    let mut bad_magic = enc(&Msg::Flush, 9);
    bad_magic[0] = b'X';
    v.push(GoldenWire {
        name: "err--bad-magic",
        valid: false,
        bytes: bad_magic,
    });

    // A well-formed client HELLO exactly as a version-2 peer framed it
    // (valid header checksum, 4-byte FNV-1a-32 payload trailer): refused
    // on the version byte, before anything after it is trusted.
    let mut bad_version = encode_header(MsgType::Hello, 1, 0).to_vec();
    bad_version[2] = 2;
    restamp(&mut bad_version);
    bad_version.push(0);
    bad_version.extend(fnv1a(&[0]).to_le_bytes());
    v.push(GoldenWire {
        name: "err--bad-version",
        valid: false,
        bytes: bad_version,
    });

    let mut unknown_type = enc(&Msg::Flush, 9);
    unknown_type[3] = 0x7E;
    restamp(&mut unknown_type);
    v.push(GoldenWire {
        name: "err--unknown-type",
        valid: false,
        bytes: unknown_type,
    });

    let mut bad_checksum = enc(&Msg::Close, 9);
    bad_checksum[12] ^= 0xA5;
    v.push(GoldenWire {
        name: "err--bad-checksum",
        valid: false,
        bytes: bad_checksum,
    });

    let mut oversized = enc(&Msg::Flush, 9);
    oversized[4..8].copy_from_slice(&(wire::MAX_PAYLOAD + 1).to_le_bytes());
    restamp(&mut oversized);
    v.push(GoldenWire {
        name: "err--oversized-length",
        valid: false,
        bytes: oversized,
    });

    let mut truncated = enc(&Msg::Packet(sample_packet()), 9);
    truncated.truncate(HEADER_LEN + 5);
    v.push(GoldenWire {
        name: "err--truncated-packet",
        valid: false,
        bytes: truncated,
    });

    // The whole payload arrived, the trailer stops 3 bytes in.
    let mut trunc_trailer = enc(&Msg::Packet(sample_packet()), 9);
    trunc_trailer.truncate(trunc_trailer.len() - (TRAILER_LEN - 3));
    v.push(GoldenWire {
        name: "err--trunc-trailer",
        valid: false,
        bytes: trunc_trailer,
    });

    // OPEN whose codec byte is not a registered codec: header and
    // payload trailer are pristine, the codec byte is what the decoder
    // must reject.
    let mut bad_codec = enc(
        &Msg::Open {
            spec,
            priority: Priority::Live,
            resume: false,
        },
        9,
    );
    bad_codec[HEADER_LEN + 1] = 9;
    restamp_payload(&mut bad_codec);
    v.push(GoldenWire {
        name: "err--open-unknown-codec",
        valid: false,
        bytes: bad_codec,
    });

    // A flipped payload bit with an unrepaired trailer: the payload
    // checksum is what fires.
    let mut corrupt_payload = enc(&Msg::Packet(sample_packet()), 9);
    corrupt_payload[HEADER_LEN + 7] ^= 0x01;
    v.push(GoldenWire {
        name: "err--bad-payload-checksum",
        valid: false,
        bytes: corrupt_payload,
    });

    // FRAME declaring 16x16 but carrying too few plane bytes. The
    // header length is rewritten to match the short payload, and both
    // checksums are restamped, so the *dimension check* fires.
    let short_payload: Vec<u8> = {
        let full = enc(&Msg::Frame(sample_frame()), 9);
        full[HEADER_LEN..HEADER_LEN + 8 + 10].to_vec()
    };
    let mut dim_mismatch = encode_header(MsgType::Frame, short_payload.len() as u32, 9).to_vec();
    let trailer = checksum64(&short_payload);
    dim_mismatch.extend(short_payload);
    dim_mismatch.extend(trailer.to_le_bytes());
    v.push(GoldenWire {
        name: "err--frame-dim-mismatch",
        valid: false,
        bytes: dim_mismatch,
    });

    // OPEN with a priority byte outside the two classes.
    let mut bad_priority = enc(
        &Msg::Open {
            spec,
            priority: Priority::Live,
            resume: false,
        },
        9,
    );
    bad_priority[HEADER_LEN + 3] = 7;
    restamp_payload(&mut bad_priority);
    v.push(GoldenWire {
        name: "err--open-bad-priority",
        valid: false,
        bytes: bad_priority,
    });

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(mut buf: &[u8]) -> Result<usize, wire::WireError> {
        let mut n = 0;
        while !buf.is_empty() {
            let (_msg, _seq, used) = wire::decode(buf)?;
            buf = &buf[used..];
            n += 1;
        }
        Ok(n)
    }

    #[test]
    fn vectors_decode_as_tagged() {
        let vectors = golden_vectors();
        assert!(vectors.len() >= 10, "only {} golden vectors", vectors.len());
        for g in &vectors {
            let outcome = decode_all(&g.bytes);
            assert_eq!(
                outcome.is_ok(),
                g.valid,
                "{}: expected valid={}, got {outcome:?}",
                g.name,
                g.valid
            );
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = golden_vectors();
        let b = golden_vectors();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.bytes, y.bytes, "{} not reproducible", x.name);
        }
    }
}
