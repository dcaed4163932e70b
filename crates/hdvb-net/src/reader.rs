//! Incremental, timeout-aware wire message reader.
//!
//! Sockets in the resilience layer run with a short read timeout (the
//! poll quantum) so connection threads can interleave liveness checks,
//! heartbeat replies, and session-completion polling with reads. A
//! plain `read_exact` cannot survive that: a timeout mid-message would
//! throw away the bytes already consumed and desynchronise framing.
//! [`MsgReader`] buffers partial messages across timeouts instead — a
//! timeout with half a header in hand simply reports
//! [`ReadEvent::Idle`] and continues where it left off on the next
//! poll.

use crate::wire::{self, Header, Msg, WireError, HEADER_LEN};
use std::io::{ErrorKind, Read};

/// What one [`MsgReader::poll`] produced.
pub(crate) enum ReadEvent {
    /// A complete, checksum-valid message (with its header seq).
    Msg(Msg, u32),
    /// The read timed out before a full message arrived; any partial
    /// bytes stay buffered for the next poll.
    Idle,
    /// Clean or abrupt connection end (EOF, reset, broken pipe).
    Gone,
    /// The bytes were not a valid message. The reader makes no attempt
    /// to resynchronise: framing is untrustworthy after this, so the
    /// caller must drop the connection.
    Malformed(WireError),
}

/// Reads length-prefixed wire messages from `R`, tolerating read
/// timeouts at any byte boundary.
pub(crate) struct MsgReader<R: Read> {
    inner: R,
    /// The message buffer the socket reads land in directly. Its length
    /// is the largest message seen so far — it only ever grows, so a
    /// stream of same-size frames allocates (and zero-fills) once.
    buf: Vec<u8>,
    /// Bytes of the in-flight message received so far (`buf[..filled]`).
    filled: usize,
    /// Size the in-flight message must reach before the next parse step.
    need: usize,
    /// Parsed header, once `buf` held a full one.
    header: Option<Header>,
}

impl<R: Read> MsgReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        MsgReader {
            inner,
            buf: vec![0; HEADER_LEN],
            filled: 0,
            need: HEADER_LEN,
            header: None,
        }
    }

    /// Attempts to complete one message. Never blocks longer than the
    /// underlying stream's read timeout (plus one syscall).
    pub(crate) fn poll(&mut self) -> ReadEvent {
        loop {
            while self.filled < self.need {
                match self.inner.read(&mut self.buf[self.filled..self.need]) {
                    Ok(0) => return ReadEvent::Gone,
                    Ok(n) => self.filled += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        return ReadEvent::Idle
                    }
                    Err(_) => return ReadEvent::Gone,
                }
            }
            match self.header {
                None => {
                    let mut h = [0u8; HEADER_LEN];
                    h.copy_from_slice(&self.buf[..HEADER_LEN]);
                    let header = match wire::parse_header(&h) {
                        Ok(header) => header,
                        Err(e) => return ReadEvent::Malformed(e),
                    };
                    let total = wire::frame_len(&header);
                    if total == HEADER_LEN {
                        self.reset();
                        match wire::decode_payload(header.msg_type, &[]) {
                            Ok(m) => return ReadEvent::Msg(m, header.seq),
                            Err(e) => return ReadEvent::Malformed(e),
                        }
                    }
                    // `parse_header` capped the length at MAX_PAYLOAD.
                    if total > self.buf.len() {
                        self.buf.reserve_exact(total - self.buf.len());
                        self.buf.resize(total, 0);
                    }
                    self.header = Some(header);
                    self.need = total;
                }
                Some(header) => {
                    let payload_end = HEADER_LEN + header.len as usize;
                    let payload = &self.buf[HEADER_LEN..payload_end];
                    let trailer = &self.buf[payload_end..self.need];
                    let event = match wire::check_trailer(payload, trailer)
                        .and_then(|()| wire::decode_payload(header.msg_type, payload))
                    {
                        Ok(m) => ReadEvent::Msg(m, header.seq),
                        Err(e) => ReadEvent::Malformed(e),
                    };
                    self.reset();
                    return event;
                }
            }
        }
    }

    fn reset(&mut self) {
        self.filled = 0;
        self.need = HEADER_LEN;
        self.header = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdvb_core::{Packet, PacketKind};

    /// A reader that hands out `bytes` in `chunk`-sized slices and
    /// reports a timeout between chunks, mimicking a socket with a
    /// short read deadline.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        chunk: usize,
        timeout_next: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.timeout_next {
                self.timeout_next = false;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            self.timeout_next = true;
            let n = self.chunk.min(out.len()).min(self.bytes.len() - self.at);
            if n == 0 {
                return Ok(0);
            }
            out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn partial_reads_and_timeouts_never_desync_framing() {
        let pkt = Packet {
            kind: PacketKind::I,
            display_index: 5,
            data: (0..200u8).collect(),
        };
        let mut bytes = Vec::new();
        wire::encode(&Msg::Packet(pkt), 1, &mut bytes);
        wire::encode(&Msg::Flush, 2, &mut bytes);
        wire::encode(&Msg::Ping, 3, &mut bytes);
        for chunk in [1, 3, 7, 16, 64] {
            let mut reader = MsgReader::new(Trickle {
                bytes: bytes.clone(),
                at: 0,
                chunk,
                timeout_next: false,
            });
            let mut got = Vec::new();
            let mut idles = 0usize;
            loop {
                match reader.poll() {
                    ReadEvent::Msg(m, seq) => got.push((m.msg_type(), seq)),
                    ReadEvent::Idle => idles += 1,
                    ReadEvent::Gone => break,
                    ReadEvent::Malformed(e) => panic!("chunk {chunk}: {e}"),
                }
            }
            use crate::wire::MsgType;
            assert_eq!(
                got,
                vec![
                    (MsgType::Packet, 1),
                    (MsgType::Flush, 2),
                    (MsgType::Ping, 3)
                ],
                "chunk {chunk}"
            );
            assert!(idles > 0, "trickle reader must have reported idle");
        }
    }

    #[test]
    fn same_size_messages_reuse_the_buffer_without_regrowing() {
        let pkt = Packet {
            kind: PacketKind::P,
            display_index: 0,
            data: (0..300_000u32).map(|i| (i * 7) as u8).collect(),
        };
        let mut one = Vec::new();
        wire::encode(&Msg::Packet(pkt), 0, &mut one);
        let stream = one.repeat(100);
        let mut reader = MsgReader::new(&stream[..]);
        let mut capacity = None;
        for i in 0..100 {
            match reader.poll() {
                ReadEvent::Msg(Msg::Packet(p), _) => {
                    assert_eq!(p.data.len(), 300_000);
                    wire::recycle_msg(Msg::Packet(p));
                }
                _ => panic!("message {i} did not arrive"),
            }
            let now = reader.buf.capacity();
            assert_eq!(*capacity.get_or_insert(now), now, "regrew at message {i}");
        }
        assert_eq!(capacity, Some(one.len()), "reserved exactly one message");
        assert!(matches!(reader.poll(), ReadEvent::Gone));
    }

    #[test]
    fn corrupt_payload_is_malformed_not_desync() {
        let mut bytes = Vec::new();
        wire::encode(
            &Msg::OpenOk {
                session_id: 9,
                heartbeat_ms: 100,
            },
            0,
            &mut bytes,
        );
        bytes[HEADER_LEN + 1] ^= 0x40;
        let mut reader = MsgReader::new(&bytes[..]);
        assert!(matches!(
            reader.poll(),
            ReadEvent::Malformed(WireError::BadPayloadChecksum { .. })
        ));
    }
}
