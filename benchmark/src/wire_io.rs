//! The benchmark's own raw-socket client for the `hdvb-net` wire
//! protocol, built on the public `hdvb_net::wire` functions so that every
//! step — encode, socket write, read, checksum, payload decode — is a
//! call the benchmark makes itself and can time.

use hdvb_core::{Priority, SessionSpec};
use hdvb_net::wire::{self, Header, Msg, WireError, HEADER_LEN, TRAILER_LEN};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Reassembles wire messages from a byte stream that arrives in pieces
/// of any size.
#[derive(Default)]
pub struct Reassembler {
    buf: Vec<u8>,
    head: usize,
}

/// One complete message, still in wire form.
pub struct RawMsg<'a> {
    pub header: Header,
    pub payload: &'a [u8],
    /// Empty when the payload is.
    pub trailer: &'a [u8],
}

impl Reassembler {
    #[cfg(test)]
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Reads once from `stream`, asking for the rest of the message in
    /// progress when its header is known. Returns the bytes read; 0 is
    /// end of stream.
    pub fn fill(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        self.compact();
        let want = match self.head_len() {
            Ok(Some(total)) if total > self.available() => total - self.available(),
            _ => 64 * 1024,
        };
        let old = self.buf.len();
        self.buf.resize(old + want, 0);
        let n = stream.read(&mut self.buf[old..]);
        self.buf.truncate(old + *n.as_ref().unwrap_or(&0));
        n
    }

    fn available(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Wire length of the message at the head, once its header is in.
    fn head_len(&self) -> Result<Option<usize>, WireError> {
        let Some(header) = self.buf[self.head..].get(..HEADER_LEN) else {
            return Ok(None);
        };
        let header = wire::parse_header(header.try_into().expect("HEADER_LEN bytes"))?;
        Ok(Some(wire::frame_len(&header)))
    }

    fn compact(&mut self) {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= 1 << 20 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// The next complete message, or `None` until more bytes arrive.
    ///
    /// # Errors
    ///
    /// A header that does not parse; framing is lost from there on.
    pub fn next(&mut self) -> Result<Option<RawMsg<'_>>, WireError> {
        let total = match self.head_len()? {
            Some(total) if total <= self.available() => total,
            _ => return Ok(None),
        };
        let msg = &self.buf[self.head..self.head + total];
        self.head += total;
        let header = wire::parse_header(msg[..HEADER_LEN].try_into().expect("HEADER_LEN bytes"))?;
        let (payload, trailer) = msg[HEADER_LEN..].split_at(header.len as usize);
        Ok(Some(RawMsg {
            header,
            payload,
            trailer,
        }))
    }
}

impl RawMsg<'_> {
    /// Checks the payload trailer and decodes the payload.
    pub fn decode(&self) -> Result<Msg, WireError> {
        if !self.payload.is_empty() {
            debug_assert_eq!(self.trailer.len(), TRAILER_LEN);
            wire::check_trailer(self.payload, self.trailer)?;
        }
        wire::decode_payload(self.header.msg_type, self.payload)
    }
}

/// The sending half of one connection.
pub struct Sender {
    stream: TcpStream,
    seq: u32,
    buf: Vec<u8>,
    pub bytes_sent: u64,
}

/// Time spent encoding a message and writing it to the socket.
pub struct SendCost {
    pub encode: Duration,
    pub write: Duration,
}

impl Sender {
    pub fn send(&mut self, msg: &Msg) -> io::Result<SendCost> {
        let t0 = Instant::now();
        self.buf.clear();
        wire::encode(msg, self.seq, &mut self.buf);
        self.seq = self.seq.wrapping_add(1);
        let t1 = Instant::now();
        self.stream.write_all(&self.buf)?;
        self.bytes_sent += self.buf.len() as u64;
        Ok(SendCost {
            encode: t1 - t0,
            write: t1.elapsed(),
        })
    }
}

/// The receiving half of one connection.
pub struct Receiver {
    stream: TcpStream,
    pub wire: Reassembler,
    pub bytes_received: u64,
}

impl Receiver {
    /// Blocks until one message is complete and hands it to `f` in wire
    /// form.
    pub fn recv_raw<R>(&mut self, f: impl FnOnce(RawMsg<'_>) -> R) -> io::Result<R> {
        let invalid = |e: WireError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        loop {
            // Asked first, taken second: a message borrowed from the
            // buffer cannot be returned out of the loop that refills it.
            let ready = matches!(self.wire.head_len().map_err(invalid)?,
                Some(total) if total <= self.wire.available());
            if ready {
                let raw = self.wire.next().map_err(invalid)?;
                return Ok(f(raw.expect("a complete message is buffered")));
            }
            let n = self.wire.fill(&mut self.stream)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.bytes_received += n as u64;
        }
    }

    pub fn recv(&mut self) -> io::Result<Msg> {
        self.recv_raw(|raw| raw.decode())?
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Connects, exchanges HELLO, opens `spec` and returns the two halves
/// once OPEN_OK is in.
pub fn open_session(
    addr: SocketAddr,
    spec: SessionSpec,
    priority: Priority,
) -> io::Result<(Sender, Receiver)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // A server that stops answering must fail the run, not hang it.
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut tx = Sender {
        stream: stream.try_clone()?,
        seq: 0,
        buf: Vec::new(),
        bytes_sent: 0,
    };
    let mut rx = Receiver {
        stream,
        wire: Reassembler::default(),
        bytes_received: 0,
    };
    let unexpected = |what: &str, msg: &Msg| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected {what}, got {:?}", msg.msg_type()),
        )
    };
    tx.send(&Msg::Hello { server: false })?;
    match rx.recv()? {
        Msg::Hello { server: true } => {}
        other => return Err(unexpected("server HELLO", &other)),
    }
    tx.send(&Msg::Open {
        spec,
        priority,
        resume: false,
    })?;
    match rx.recv()? {
        Msg::OpenOk { .. } => Ok((tx, rx)),
        other => Err(unexpected("OPEN_OK", &other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdvb_core::{Packet, PacketKind};
    use hdvb_net::wire::DoneStats;

    fn sample_stream() -> (Vec<u8>, usize) {
        let msgs = [
            Msg::Hello { server: true },
            Msg::Packet(Packet {
                data: (0..=255u8).cycle().take(700).collect(),
                kind: PacketKind::P,
                display_index: 41,
            }),
            Msg::Flush,
            Msg::Done(DoneStats {
                completed: 3,
                ..DoneStats::default()
            }),
        ];
        let mut bytes = Vec::new();
        for (seq, m) in msgs.iter().enumerate() {
            wire::encode(m, seq as u32, &mut bytes);
        }
        (bytes, msgs.len())
    }

    fn drain(r: &mut Reassembler, seen: &mut Vec<String>) {
        while let Some(raw) = r.next().unwrap() {
            seen.push(format!("{:?}/{}", raw.decode().unwrap(), raw.header.seq));
        }
    }

    #[test]
    fn reassembles_messages_split_at_every_byte_boundary() {
        let (bytes, count) = sample_stream();
        let mut whole = Reassembler::default();
        whole.extend(&bytes);
        let mut expected = Vec::new();
        drain(&mut whole, &mut expected);
        assert_eq!(expected.len(), count);
        assert!(expected[1].contains("display_index: 41"));
        for cut in 0..=bytes.len() {
            let mut r = Reassembler::default();
            let mut seen = Vec::new();
            r.extend(&bytes[..cut]);
            drain(&mut r, &mut seen);
            r.extend(&bytes[cut..]);
            drain(&mut r, &mut seen);
            assert_eq!(seen, expected, "split at byte {cut}");
        }
    }

    #[test]
    fn reassembles_a_byte_at_a_time_through_fill() {
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                let Some((first, rest)) = self.0.split_first() else {
                    return Ok(0);
                };
                out[0] = *first;
                self.0 = rest;
                Ok(1)
            }
        }
        let (bytes, count) = sample_stream();
        let mut src = OneByte(&bytes);
        let mut r = Reassembler::default();
        let mut seen = Vec::new();
        while r.fill(&mut src).unwrap() > 0 {
            drain(&mut r, &mut seen);
        }
        assert_eq!(seen.len(), count);
    }

    #[test]
    fn a_flipped_payload_byte_fails_the_trailer_and_a_bad_header_fails_next() {
        let (mut bytes, _) = sample_stream();
        let hello_len = HEADER_LEN + 1 + TRAILER_LEN;
        bytes[hello_len + HEADER_LEN + 10] ^= 1;
        let mut r = Reassembler::default();
        r.extend(&bytes);
        assert!(r.next().unwrap().unwrap().decode().is_ok());
        assert!(matches!(
            r.next().unwrap().unwrap().decode(),
            Err(WireError::BadPayloadChecksum { .. })
        ));
        let mut r = Reassembler::default();
        r.extend(&[0u8; HEADER_LEN]);
        assert!(matches!(r.next(), Err(WireError::BadMagic(_))));
    }
}
