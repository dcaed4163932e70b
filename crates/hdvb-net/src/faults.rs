//! Deterministic wire fault injection.
//!
//! [`NetFaultPlan`] is the network sibling of `hdvb_core::FaultPlan`:
//! a compact spec string — usually from the `HDVB_NET_FAULTS`
//! environment variable — describes faults that fire at exact
//! *data-message* indices on a connection, and [`FaultyStream`] injects
//! them on either side of any socket. Faults are deterministic: the
//! plan's message clock counts only data-plane messages
//! (HELLO/OPEN/FRAME/…), never heartbeats or acks, whose timing depends
//! on the scheduler; a given spec therefore reproduces the same
//! failures on every run.
//!
//! Both plans are written in one token grammar, documented and parsed
//! in `hdvb_core::faults` (`<kind>@<index>[:<arg>]`, `seed=<n>`); this
//! plan takes neither a repeat count (`x<times>`) nor a probabilistic
//! form (`~`). Its kinds — indices are 0-based and count the wrapped
//! side's outgoing data messages across the whole plan lifetime,
//! reconnects included:
//!
//! * `drop@<msg>` — sever the connection instead of sending message
//!   `<msg>`.
//! * `truncate@<msg>[:<bytes>]` — write only the first `<bytes>` bytes
//!   of message `<msg>`, then sever. Default: a seeded cut inside the
//!   16-byte header, leaving the peer holding a partial frame.
//! * `stall@<msg>[:<ms>]` — sleep `<ms>` milliseconds before sending
//!   message `<msg>` (default: seeded 20–100 ms).
//! * `garble@<msg>[:<bit>]` — flip bit `<bit>` (modulo the message's
//!   bit length) of message `<msg>` and send it anyway; the peer's
//!   header checksum or payload trailer catches it (default: seeded).
//! * `seed=<n>` — seed for the derived parameters (default 0; position
//!   in the spec does not matter).
//!
//! Example: `drop@4,truncate@9:11,garble@13,stall@17:40,seed=7`.

use crate::wire::{wire_len, MsgType, HEADER_LEN, MAGIC};
use hdvb_core::{parse_fault_spec, splitmix64, FaultTarget};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a matching rule does to its message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Sever the connection instead of sending the message.
    Drop,
    /// Send only this many bytes of the message, then sever.
    Truncate(usize),
    /// Sleep this long, then send the message normally.
    Stall(Duration),
    /// Flip this bit (modulo the message's bit length) and send.
    Garble(u64),
}

impl NetFaultKind {
    /// True for faults that end the connection (drop, truncate).
    pub fn severs(self) -> bool {
        matches!(self, NetFaultKind::Drop | NetFaultKind::Truncate(_))
    }
}

#[derive(Debug)]
struct NetRule {
    at: u64,
    kind: NetFaultKind,
    fired: AtomicBool,
}

/// A parsed, deterministic wire fault plan. Shared (via `Arc`) across
/// every stream a client opens, so the message clock keeps counting
/// through reconnects and fault indices address the whole session
/// history.
#[derive(Debug, Default)]
pub struct NetFaultPlan {
    rules: Vec<NetRule>,
    /// Data messages seen so far (the fault clock).
    clock: AtomicU64,
}

impl NetFaultPlan {
    /// Parses a spec string (see the module docs for this plan's kinds;
    /// the token grammar is [`hdvb_core::parse_fault_spec`]'s).
    ///
    /// # Errors
    ///
    /// A description of the first malformed or unsupported token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        // The seed participates in derived rule parameters; the
        // tokenizer holds it apart, so its position does not matter.
        let (seed, rules) = parse_fault_spec(spec)?;
        let seeded = |at: u64, salt: u64| splitmix64(seed.wrapping_add(at).wrapping_mul(salt));
        let mut plan = NetFaultPlan::default();
        for token in rules {
            // A wire fault fires once, at one message: no repeat count
            // (the last field stays `None`) and no `~` form.
            let (at, kind) = match (token.kind, token.target) {
                ("drop", FaultTarget::At(at, None, None)) => (at, NetFaultKind::Drop),
                ("truncate", FaultTarget::At(at, bytes, None)) => {
                    let bytes = bytes.unwrap_or_else(|| seeded(at, 3) % 15 + 1);
                    (at, NetFaultKind::Truncate(bytes as usize))
                }
                ("stall", FaultTarget::At(at, ms, None)) => {
                    let ms = ms.unwrap_or_else(|| 20 + seeded(at, 5) % 81);
                    (at, NetFaultKind::Stall(Duration::from_millis(ms)))
                }
                ("garble", FaultTarget::At(at, bit, None)) => (
                    at,
                    NetFaultKind::Garble(bit.unwrap_or_else(|| seeded(at, 7))),
                ),
                _ => {
                    return Err(format!(
                        "unknown net fault, or known fault in the wrong form: {:?}",
                        token.text
                    ))
                }
            };
            plan.rules.push(NetRule {
                at,
                kind,
                fired: AtomicBool::new(false),
            });
        }
        Ok(plan)
    }

    /// Builds a plan from the `HDVB_NET_FAULTS` environment variable;
    /// `None` when the variable is unset or empty.
    ///
    /// # Errors
    ///
    /// A description of the first malformed token.
    pub fn from_env() -> Result<Option<Arc<NetFaultPlan>>, String> {
        match std::env::var("HDVB_NET_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => Ok(Some(Arc::new(NetFaultPlan::parse(&spec)?))),
            _ => Ok(None),
        }
    }

    /// True when the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules in the plan.
    pub fn total(&self) -> usize {
        self.rules.len()
    }

    /// Rules that have fired so far.
    pub fn fired(&self) -> usize {
        self.rules
            .iter()
            .filter(|r| r.fired.load(Ordering::Relaxed))
            .count()
    }

    /// Rules that sever connections (drops + truncations) — each one
    /// fired is one forced disconnect.
    pub fn severing_rules(&self) -> usize {
        self.rules.iter().filter(|r| r.kind.severs()).count()
    }

    /// Data messages the clock has counted so far.
    pub fn messages_seen(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advances the message clock for one data message and returns the
    /// fault (if any) scheduled at that index. Control messages
    /// (PING/PONG/ACK) must not be passed here — they do not advance
    /// the clock (see [`MsgType::is_control`]).
    fn on_data_message(&self) -> Option<NetFaultKind> {
        let index = self.clock.fetch_add(1, Ordering::Relaxed);
        for rule in &self.rules {
            if rule.at == index
                && rule
                    .fired
                    .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                return Some(rule.kind);
            }
        }
        None
    }
}

/// A `TcpStream` wrapper that injects the plan's faults into outgoing
/// messages. Reads pass through untouched — faults on the opposite
/// direction are injected by wrapping the *other* side's stream.
///
/// Every writer in this crate sends exactly one encoded message per
/// `write_all` call, so the wrapper recovers message boundaries from
/// the byte stream alone: at each boundary it reads the type and length
/// out of the header it is about to forward, and it tracks partial
/// `write_all` progress so a fault decision covers the whole message
/// even when the kernel accepts it in pieces.
#[derive(Debug)]
pub struct FaultyStream {
    inner: TcpStream,
    plan: Option<Arc<NetFaultPlan>>,
    /// Bytes of the current outgoing message not yet written.
    msg_remaining: usize,
    /// Bytes of the current message already written.
    msg_written: usize,
    /// Fault governing the current message.
    pending: Option<NetFaultKind>,
    /// Set once a drop/truncate fault severed the connection; shared
    /// with clones so the reader half observes the injected death.
    dead: Arc<AtomicBool>,
}

impl FaultyStream {
    /// Wraps an existing stream. `plan: None` is a transparent
    /// passthrough.
    pub fn wrap(inner: TcpStream, plan: Option<Arc<NetFaultPlan>>) -> FaultyStream {
        FaultyStream {
            inner,
            plan,
            msg_remaining: 0,
            msg_written: 0,
            pending: None,
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Connects and wraps in one step.
    ///
    /// # Errors
    ///
    /// Any I/O error from connecting.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        plan: Option<Arc<NetFaultPlan>>,
    ) -> std::io::Result<FaultyStream> {
        Ok(FaultyStream::wrap(TcpStream::connect(addr)?, plan))
    }

    /// Clones the wrapper around a cloned socket handle. The clone
    /// shares the plan (and its message clock) and the severed flag,
    /// but keeps its own partial-write state — reader and writer halves
    /// never interleave writes of the same message.
    ///
    /// # Errors
    ///
    /// Any I/O error from duplicating the socket handle.
    pub fn try_clone(&self) -> std::io::Result<FaultyStream> {
        Ok(FaultyStream {
            inner: self.inner.try_clone()?,
            plan: self.plan.clone(),
            msg_remaining: 0,
            msg_written: 0,
            pending: None,
            dead: Arc::clone(&self.dead),
        })
    }

    /// See [`TcpStream::set_nodelay`].
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket option.
    pub fn set_nodelay(&self, v: bool) -> std::io::Result<()> {
        self.inner.set_nodelay(v)
    }

    /// See [`TcpStream::set_read_timeout`].
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket option.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(d)
    }

    /// See [`TcpStream::set_write_timeout`].
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket option.
    pub fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_write_timeout(d)
    }

    /// See [`TcpStream::shutdown`].
    ///
    /// # Errors
    ///
    /// Any I/O error from the shutdown.
    pub fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        self.inner.shutdown(how)
    }

    /// See [`TcpStream::peer_addr`].
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.peer_addr()
    }

    fn sever(&mut self) -> std::io::Error {
        self.dead.store(true, Ordering::Release);
        let _ = self.inner.shutdown(Shutdown::Both);
        self.msg_remaining = 0;
        self.pending = None;
        std::io::Error::new(ErrorKind::BrokenPipe, "injected fault: connection severed")
    }
}

impl Read for FaultyStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for FaultyStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead.load(Ordering::Acquire) {
            return Err(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "injected fault: connection severed",
            ));
        }
        if self.plan.is_none() {
            return self.inner.write(buf);
        }
        if self.msg_remaining == 0 {
            // At a message boundary: peek the header being forwarded.
            if buf.len() >= HEADER_LEN && buf[..2] == MAGIC {
                let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
                self.msg_remaining = wire_len(len);
                self.msg_written = 0;
                let is_control = MsgType::from_u8(buf[3]).is_some_and(MsgType::is_control);
                self.pending = if is_control {
                    None
                } else {
                    self.plan.as_ref().expect("checked above").on_data_message()
                };
            } else {
                // Not one of our messages; pass through uncounted.
                return self.inner.write(buf);
            }
        }
        let result = match self.pending {
            None => self.inner.write(buf),
            Some(NetFaultKind::Drop) => return Err(self.sever()),
            Some(NetFaultKind::Stall(d)) => {
                if self.msg_written == 0 {
                    std::thread::sleep(d);
                }
                self.inner.write(buf)
            }
            Some(NetFaultKind::Truncate(k)) => {
                let allowed = k.saturating_sub(self.msg_written).min(buf.len());
                if allowed > 0 && self.inner.write_all(&buf[..allowed]).is_ok() {
                    let _ = self.inner.flush();
                }
                return Err(self.sever());
            }
            Some(NetFaultKind::Garble(bit)) => {
                let total = self.msg_remaining + self.msg_written;
                let bit = (bit % (total as u64 * 8)) as usize;
                let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
                if byte >= self.msg_written && byte < self.msg_written + buf.len() {
                    let mut copy = buf.to_vec();
                    copy[byte - self.msg_written] ^= mask;
                    self.inner.write(&copy)
                } else {
                    self.inner.write(buf)
                }
            }
        };
        if let Ok(n) = result {
            self.msg_written += n;
            self.msg_remaining = self.msg_remaining.saturating_sub(n);
            if self.msg_remaining == 0 {
                self.pending = None;
            }
        }
        result
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, Msg, WireError};
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    fn msg_bytes(msg: &Msg, seq: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::encode(msg, seq, &mut buf);
        buf
    }

    fn read_all(mut s: TcpStream) -> Vec<u8> {
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        out
    }

    #[test]
    fn parse_accepts_the_grammar_and_rejects_garbage() {
        let p = NetFaultPlan::parse("drop@4, truncate@9:11, stall@2:30, garble@13:5, seed=7")
            .expect("parse");
        assert_eq!(p.total(), 4);
        assert_eq!(p.severing_rules(), 2);
        assert!(!p.is_empty());
        assert!(NetFaultPlan::parse("").expect("empty").is_empty());
        // Derived parameters come from the seed even when seed= trails.
        let a = NetFaultPlan::parse("truncate@3,seed=9").expect("a");
        let b = NetFaultPlan::parse("seed=9,truncate@3").expect("b");
        assert_eq!(a.rules[0].kind, b.rules[0].kind);
        // ...and are pinned: a recorded chaos campaign replays only
        // while a spec keeps deriving the same faults.
        let p = NetFaultPlan::parse("truncate@3,stall@5,garble@7,seed=9").expect("seeded");
        let kinds: Vec<NetFaultKind> = p.rules.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            [
                NetFaultKind::Truncate(12),
                NetFaultKind::Stall(Duration::from_millis(95)),
                NetFaultKind::Garble(8_322_708_147_046_919_738),
            ]
        );
        assert!(NetFaultPlan::parse("drop@x").is_err());
        assert!(NetFaultPlan::parse("stall@1:abc").is_err());
        // Unknown kinds and the sweep plan's forms (`xN`, `~`) are
        // rejected by name.
        for bad in ["explode@4", "drop@4:1", "drop@4x2", "drop~5", "panic@2"] {
            let err = NetFaultPlan::parse(bad).unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn drop_severs_at_the_indexed_data_message_skipping_control() {
        let (client, server) = pair();
        let plan = Arc::new(NetFaultPlan::parse("drop@1").expect("plan"));
        let mut faulty = FaultyStream::wrap(client, Some(Arc::clone(&plan)));
        // Message 0 passes.
        faulty
            .write_all(&msg_bytes(&Msg::Flush, 0))
            .expect("msg 0 passes");
        // Control messages do not advance the clock.
        faulty
            .write_all(&msg_bytes(&Msg::Ping, 1))
            .expect("ping passes");
        faulty
            .write_all(&msg_bytes(
                &Msg::AckOut {
                    outputs_received: 3,
                },
                2,
            ))
            .expect("ack passes");
        // Message 1 is dropped and the connection severed.
        let err = faulty
            .write_all(&msg_bytes(&Msg::Close, 3))
            .expect_err("msg 1 dropped");
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
        assert!(faulty.write_all(b"anything").is_err(), "stays dead");
        assert_eq!(plan.fired(), 1);
        assert_eq!(plan.messages_seen(), 2);

        // The peer got exactly the three passed messages, then EOF.
        let got = read_all(server);
        let (m, _, used) = wire::decode(&got).expect("first");
        assert!(matches!(m, Msg::Flush));
        let (m, _, used2) = wire::decode(&got[used..]).expect("second");
        assert!(matches!(m, Msg::Ping));
        let (m, _, used3) = wire::decode(&got[used + used2..]).expect("third");
        assert!(matches!(m, Msg::AckOut { .. }));
        assert_eq!(got.len(), used + used2 + used3);
    }

    #[test]
    fn truncate_leaves_a_partial_message_then_severs() {
        let (client, server) = pair();
        let plan = Arc::new(NetFaultPlan::parse("truncate@0:10").expect("plan"));
        let mut faulty = FaultyStream::wrap(client, Some(plan));
        let full = msg_bytes(&Msg::ResumeOk { inputs_received: 5 }, 0);
        let err = faulty.write_all(&full).expect_err("truncated");
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
        let got = read_all(server);
        assert_eq!(got, full[..10]);
    }

    #[test]
    fn garble_flips_one_bit_and_the_peer_detects_it() {
        for bit in [3u64, 77, 131, 100_000_007] {
            let (client, server) = pair();
            let plan = Arc::new(NetFaultPlan::parse(&format!("garble@0:{bit}")).expect("plan"));
            let mut faulty = FaultyStream::wrap(client, Some(plan));
            let clean = msg_bytes(
                &Msg::OpenOk {
                    session_id: 77,
                    heartbeat_ms: 200,
                },
                0,
            );
            faulty.write_all(&clean).expect("garbled write succeeds");
            drop(faulty);
            let got = read_all(server);
            assert_eq!(got.len(), clean.len());
            let flipped: u32 = got
                .iter()
                .zip(&clean)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1, "exactly one bit differs (bit {bit})");
            match wire::decode(&got) {
                Err(
                    WireError::BadChecksum { .. }
                    | WireError::BadPayloadChecksum { .. }
                    | WireError::BadMagic(_)
                    | WireError::BadVersion(_)
                    | WireError::UnknownType(_)
                    | WireError::Oversized { .. }
                    | WireError::Truncated { .. },
                ) => {}
                other => panic!("garble at bit {bit} not detected: {other:?}"),
            }
        }
    }

    #[test]
    fn stall_delays_but_delivers_intact() {
        let (client, server) = pair();
        let plan = Arc::new(NetFaultPlan::parse("stall@0:30").expect("plan"));
        let mut faulty = FaultyStream::wrap(client, Some(plan));
        let bytes = msg_bytes(&Msg::Flush, 0);
        let t = std::time::Instant::now();
        faulty.write_all(&bytes).expect("delivered");
        assert!(t.elapsed() >= Duration::from_millis(30));
        drop(faulty);
        assert_eq!(read_all(server), bytes);
    }
}
