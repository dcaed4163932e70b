//! The session client, with bit-identical resume when it may reconnect.
//!
//! [`NetClient`] runs one session against a [`NetServer`](crate::NetServer).
//! Outputs stream back while inputs are still being sent, so every live
//! connection has a reader thread — without it a server blocked writing
//! outputs into a full TCP buffer would deadlock against a client
//! blocked writing inputs into its own — plus a keepalive thread that
//! pings the server, so a silent server is detected within two
//! heartbeat intervals instead of hanging the caller.
//!
//! [`RetryPolicy::max_reconnects`] decides what a lost connection costs:
//!
//! - **Zero — the plain client.** OPEN goes out without the resume flag
//!   (the server journals nothing), each input's wire buffer returns to
//!   the pool as soon as it is written, and the first failure ends the
//!   session with the error that ended the connection.
//! - **Non-zero — the resilience layer's recovery half.** The session
//!   opens resumable and the client keeps a bounded replay buffer of
//!   encoded inputs, trimmed by the server's cumulative ACK_IN. On any
//!   connection failure it redials with capped exponential backoff plus
//!   seeded jitter, then issues `RESUME(session_id, outputs_received)`.
//!   The server replays exactly the outputs the client never saw and the
//!   client re-sends exactly the inputs the server never consumed, so
//!   the collected output of a run that survived N disconnects is
//!   byte-identical to an uninterrupted run.
//!
//! Faults are injected on the client side by handing the same
//! [`NetFaultPlan`] to every dial: the plan's message clock continues
//! across reconnects, so a seeded campaign is one deterministic
//! schedule regardless of how the connection lifetimes fall.

use crate::faults::{FaultyStream, NetFaultPlan};
use crate::reader::{MsgReader, ReadEvent};
use crate::wire::{self, DoneStats, ErrorCode, Msg, WireError};
use hdvb_core::splitmix64;
use hdvb_core::{Packet, Priority, SessionInput, SessionSpec};
use hdvb_frame::{BufferPool, Frame, FramePool};
use hdvb_trace::LatencyHistogram;
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Anything that can go wrong on the client side.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent bytes that don't decode.
    Wire(WireError),
    /// The server sent an ERROR message (rejection, codec failure, …).
    Remote {
        /// The wire error code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// The peer sent a well-formed message we didn't expect here.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Remote { code, detail } => {
                write!(f, "server error ({}): {detail}", code.name())
            }
            NetError::Protocol(d) => write!(f, "protocol: {d}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// What a finished session produced.
#[derive(Debug, Default)]
pub struct ClientResult {
    /// Streamed coded packets, in arrival order.
    pub packets: Vec<Packet>,
    /// Streamed decoded frames, in arrival order.
    pub frames: Vec<Frame>,
    /// The server's end-of-session accounting.
    pub stats: DoneStats,
}

impl ClientResult {
    /// Returns every received frame and packet buffer to the global
    /// pools. Call this when the outputs have been consumed (or were
    /// only wanted for their stats) so a long-lived client recirculates
    /// its receive buffers instead of growing the heap.
    pub fn recycle(mut self) {
        for p in self.packets.drain(..) {
            BufferPool::global().put(p.data);
        }
        for f in self.frames.drain(..) {
            FramePool::global().put(f);
        }
    }
}

/// How often the client acknowledges received outputs, bounding the
/// server's journal backlog.
const ACK_OUT_EVERY: u64 = 8;

/// Reconnect budget and backoff shape.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total reconnect attempts a session may spend before giving up.
    /// Zero makes the plain client: no resume, no replay buffer.
    pub max_reconnects: u32,
    /// First backoff; doubles per consecutive failure within an outage.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter draw (splitmix64), so a chaos campaign's
    /// timing is reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_reconnects: 16,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(2),
            seed: 0x9e37_79b9,
        }
    }
}

impl RetryPolicy {
    /// Backoff for the `attempt`-th consecutive failure of one outage:
    /// `min(cap, base·2^attempt)`, jittered into `[50%, 100%]`.
    fn backoff(&self, attempt: u32, draw: u64) -> Duration {
        let capped = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        let ns = nanos(capped);
        if ns == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(ns / 2 + draw % (ns / 2 + 1))
    }
}

/// What recovery cost over the life of one session.
#[derive(Clone, Debug, Default)]
pub struct RetryStats {
    /// Successful reconnect+resume handshakes.
    pub reconnects: u64,
    /// Dial attempts, including failed ones.
    pub attempts: u64,
    /// Input messages re-sent after resumes.
    pub replayed_inputs: u64,
    /// Time from last known-good traffic to declaring the connection
    /// dead, per outage.
    pub detect: LatencyHistogram,
    /// Time from declaring the connection dead to a completed resume
    /// handshake, per outage.
    pub recover: LatencyHistogram,
}

/// State the reader thread shares with the caller.
struct Inbox {
    packets: Vec<Packet>,
    frames: Vec<Frame>,
    outputs_received: u64,
    inputs_acked: u64,
    done: Option<DoneStats>,
    /// Why the current connection ended, once it has.
    lost: Option<NetError>,
    /// Last successful traffic in either direction.
    last_ok: Instant,
}

struct Shared {
    inbox: Mutex<Inbox>,
    cv: Condvar,
}

/// Locks, ignoring poison: every guarded value stays consistent across
/// a panic in a sibling thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One live connection's moving parts.
struct Link {
    write: Arc<Mutex<FaultyStream>>,
    stop: Arc<AtomicBool>,
    reader: JoinHandle<()>,
    keepalive: Option<JoinHandle<()>>,
}

/// One session against a [`NetServer`](crate::NetServer), plain or
/// auto-reconnecting by its [`RetryPolicy`] (see the module docs).
pub struct NetClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    plan: Option<Arc<NetFaultPlan>>,
    shared: Arc<Shared>,
    link: Option<Link>,
    session_id: u32,
    heartbeat: Duration,
    /// Encoded, unacked input messages; front is input `replay_base`.
    /// Always empty for a plain client.
    replay: VecDeque<Vec<u8>>,
    replay_base: u64,
    inputs_sent: u64,
    flush_sent: bool,
    reconnects_used: u32,
    stats: RetryStats,
    rng: u64,
}

/// Errors no reconnect can cure: the server refused the session or the
/// session itself failed.
fn is_fatal(e: &NetError) -> bool {
    matches!(
        e,
        NetError::Remote {
            code: ErrorCode::Rejected
                | ErrorCode::RateLimited
                | ErrorCode::BadRequest
                | ErrorCode::Codec
                | ErrorCode::NoSession,
            ..
        }
    )
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Reads one message with an overall deadline, using the stream's short
/// read timeout as the polling quantum (handshakes only — the streaming
/// phase runs through the reader thread).
fn read_deadline(
    reader: &mut MsgReader<FaultyStream>,
    deadline: Duration,
) -> Result<Msg, NetError> {
    let start = Instant::now();
    loop {
        match reader.poll() {
            ReadEvent::Msg(msg, _) => return Ok(msg),
            ReadEvent::Idle => {
                if start.elapsed() >= deadline {
                    return Err(NetError::Io(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "handshake deadline",
                    )));
                }
            }
            ReadEvent::Gone => return Err(NetError::Io(ErrorKind::UnexpectedEof.into())),
            ReadEvent::Malformed(e) => return Err(NetError::Wire(e)),
        }
    }
}

/// Encodes `msg` into a pooled buffer, writes it, and returns the
/// buffer to the pool.
fn send_pooled(out: &mut impl Write, msg: &Msg, seq: u32) -> Result<(), NetError> {
    let bytes = wire::encode_pooled(msg, seq);
    let written = out.write_all(&bytes);
    BufferPool::global().put(bytes);
    Ok(written?)
}

/// Maps a handshake reply that is not the `expected` message: a server
/// ERROR to [`NetError::Remote`], anything else to a protocol error
/// naming what arrived.
fn unexpected(expected: &str, got: Msg) -> NetError {
    match got {
        Msg::Error { code, detail } => NetError::Remote { code, detail },
        other => NetError::Protocol(format!("expected {expected}, got {:?}", other.msg_type())),
    }
}

impl NetClient {
    /// Resolves `addr` and prepares a client; nothing is dialled until
    /// [`open`](Self::open). Fault injection comes from
    /// `HDVB_NET_FAULTS` if set.
    ///
    /// # Errors
    ///
    /// Address resolution failure or a malformed fault plan.
    pub fn new<A: ToSocketAddrs>(addr: A, policy: RetryPolicy) -> Result<NetClient, NetError> {
        let plan = NetFaultPlan::from_env().map_err(NetError::Protocol)?;
        Self::with_faults(addr, policy, plan)
    }

    /// Like [`new`](Self::new) with an explicit fault plan (chaos
    /// campaigns hand the same plan to every trial; `None` ignores
    /// `HDVB_NET_FAULTS`).
    ///
    /// # Errors
    ///
    /// Address resolution failure.
    pub fn with_faults<A: ToSocketAddrs>(
        addr: A,
        policy: RetryPolicy,
        plan: Option<Arc<NetFaultPlan>>,
    ) -> Result<NetClient, NetError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Protocol("address resolved to nothing".into()))?;
        let rng = splitmix64(policy.seed ^ 0xc2b2_ae3d_27d4_eb4f);
        Ok(NetClient {
            addr,
            policy,
            plan,
            shared: Arc::new(Shared {
                inbox: Mutex::new(Inbox {
                    packets: Vec::new(),
                    frames: Vec::new(),
                    outputs_received: 0,
                    inputs_acked: 0,
                    done: None,
                    lost: None,
                    last_ok: Instant::now(),
                }),
                cv: Condvar::new(),
            }),
            link: None,
            session_id: 0,
            heartbeat: Duration::ZERO,
            replay: VecDeque::new(),
            replay_base: 0,
            inputs_sent: 0,
            flush_sent: false,
            reconnects_used: 0,
            stats: RetryStats::default(),
            rng,
        })
    }

    /// True when the session may outlive its connection.
    fn resumable(&self) -> bool {
        self.policy.max_reconnects > 0
    }

    fn draw(&mut self) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng
    }

    /// Spends the reconnect budget retrying `step` after `last` failed:
    /// backs off, retries, and stops at success, a fatal error, or an
    /// empty budget — returning the error that ended the last attempt.
    fn with_backoff<T>(
        &mut self,
        mut last: NetError,
        mut step: impl FnMut(&mut Self) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut attempt = 0u32;
        loop {
            if is_fatal(&last) || self.reconnects_used >= self.policy.max_reconnects {
                return Err(last);
            }
            self.reconnects_used += 1;
            let draw = self.draw();
            std::thread::sleep(self.policy.backoff(attempt, draw));
            attempt += 1;
            match step(self) {
                Ok(v) => return Ok(v),
                Err(e) => last = e,
            }
        }
    }

    /// Dials, opens the session (resumable unless the budget is zero),
    /// and starts the reader and keepalive threads. Retries transient
    /// failures within the reconnect budget.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with [`ErrorCode::Rejected`] when admission
    /// control refuses the class; any other fatal server response; or
    /// the last transient failure once the budget is spent.
    pub fn open(&mut self, spec: SessionSpec, priority: Priority) -> Result<u32, NetError> {
        match self.try_open(spec, priority) {
            Ok(id) => Ok(id),
            Err(e) => self.with_backoff(e, |c| c.try_open(spec, priority)),
        }
    }

    fn try_open(&mut self, spec: SessionSpec, priority: Priority) -> Result<u32, NetError> {
        self.stats.attempts += 1;
        let (mut stream, mut reader) = self.dial()?;
        let resume = self.resumable();
        send_pooled(
            &mut stream,
            &Msg::Open {
                spec,
                priority,
                resume,
            },
            1,
        )?;
        match read_deadline(&mut reader, Duration::from_secs(5))? {
            Msg::OpenOk {
                session_id,
                heartbeat_ms,
            } => {
                self.session_id = session_id;
                self.heartbeat = Duration::from_millis(u64::from(heartbeat_ms));
                self.install_link(stream, reader);
                Ok(session_id)
            }
            other => Err(unexpected("OPEN_OK", other)),
        }
    }

    /// Connects (through the fault plan) and completes HELLO↔HELLO.
    fn dial(&mut self) -> Result<(FaultyStream, MsgReader<FaultyStream>), NetError> {
        let mut stream = FaultyStream::connect(self.addr, self.plan.clone())?;
        let _ = stream.set_nodelay(true);
        let quantum = if self.heartbeat.is_zero() {
            Duration::from_millis(25)
        } else {
            (self.heartbeat / 4).clamp(Duration::from_millis(5), Duration::from_millis(250))
        };
        let _ = stream.set_read_timeout(Some(quantum));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        let mut reader = MsgReader::new(stream.try_clone()?);
        send_pooled(&mut stream, &Msg::Hello { server: false }, 0)?;
        match read_deadline(&mut reader, Duration::from_secs(5))? {
            Msg::Hello { server: true } => Ok((stream, reader)),
            other => Err(unexpected("server HELLO", other)),
        }
    }

    fn install_link(&mut self, stream: FaultyStream, reader: MsgReader<FaultyStream>) {
        let write = Arc::new(Mutex::new(stream));
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::clone(&self.shared);
        let r_write = Arc::clone(&write);
        let r_stop = Arc::clone(&stop);
        let heartbeat = self.heartbeat;
        let reader_handle =
            std::thread::spawn(move || reader_loop(reader, &shared, &r_write, &r_stop, heartbeat));
        let keepalive = (!heartbeat.is_zero()).then(|| {
            let k_write = Arc::clone(&write);
            let k_stop = Arc::clone(&stop);
            std::thread::spawn(move || keepalive_loop(&k_write, &k_stop, heartbeat))
        });
        lock(&self.shared.inbox).last_ok = Instant::now();
        self.link = Some(Link {
            write,
            stop,
            reader: reader_handle,
            keepalive,
        });
    }

    fn teardown_link(&mut self) {
        if let Some(link) = self.link.take() {
            link.stop.store(true, Ordering::Release);
            let _ = lock(&link.write).shutdown(Shutdown::Both);
            let _ = link.reader.join();
            if let Some(k) = link.keepalive {
                let _ = k.join();
            }
        }
    }

    /// The live link's write half — unless there is none, or the reader
    /// has already declared it dead (a write would then tick a fault
    /// plan's message clock on a doomed socket).
    fn link_write(&self) -> Result<MutexGuard<'_, FaultyStream>, NetError> {
        match &self.link {
            Some(link) if lock(&self.shared.inbox).lost.is_none() => Ok(lock(&link.write)),
            _ => Err(NetError::Protocol("not connected".into())),
        }
    }

    /// Drops replay entries the server has consumed.
    fn trim_replay(&mut self, below: u64) {
        while self.replay_base < below {
            if let Some(buf) = self.replay.pop_front() {
                BufferPool::global().put(buf);
            }
            self.replay_base += 1;
        }
    }

    /// Sends one input (a frame for encode/transcode, a packet for
    /// decode), recovering the connection if it fails and the budget
    /// allows.
    ///
    /// # Errors
    ///
    /// A fatal server error, or the error that ended the connection
    /// once the budget is spent.
    pub fn send(&mut self, input: SessionInput) -> Result<(), NetError> {
        let msg = match input {
            SessionInput::Frame(f) => Msg::Frame(f),
            SessionInput::Packet(data) => Msg::Packet(Packet {
                data,
                kind: hdvb_core::PacketKind::I,
                display_index: 0,
            }),
        };
        self.send_data(msg)
    }

    /// Sends a raw coding-order packet, preserving kind and display
    /// index.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send).
    pub fn send_packet(&mut self, packet: Packet) -> Result<(), NetError> {
        self.send_data(Msg::Packet(packet))
    }

    fn send_data(&mut self, msg: Msg) -> Result<(), NetError> {
        let buf = wire::encode_pooled(&msg, self.inputs_sent as u32);
        wire::recycle_msg(msg);
        self.inputs_sent += 1;
        let written = self.link_write().and_then(|mut w| Ok(w.write_all(&buf)?));
        if self.resumable() {
            // Held until acked: recovery replays the tail, this included.
            let acked = lock(&self.shared.inbox).inputs_acked;
            self.trim_replay(acked);
            self.replay.push_back(buf);
        } else {
            BufferPool::global().put(buf);
        }
        match written {
            Ok(()) => {
                lock(&self.shared.inbox).last_ok = Instant::now();
                Ok(())
            }
            Err(e) => self.recover(e),
        }
    }

    /// Handles a failed connection: tears it down and, within the
    /// budget, reconnects and resumes. On success the unacked input tail
    /// (and FLUSH, if already sent) has been re-delivered. `cause` is
    /// what the caller saw; the reader's account (a server ERROR, say)
    /// takes precedence.
    fn recover(&mut self, cause: NetError) -> Result<(), NetError> {
        let detected = Instant::now();
        let gap = detected.duration_since(lock(&self.shared.inbox).last_ok);
        self.stats.detect.record(nanos(gap));
        self.teardown_link();
        let cause = lock(&self.shared.inbox).lost.take().unwrap_or(cause);
        self.with_backoff(cause, Self::try_resume)?;
        self.stats.reconnects += 1;
        self.stats.recover.record(nanos(detected.elapsed()));
        Ok(())
    }

    fn try_resume(&mut self) -> Result<(), NetError> {
        self.stats.attempts += 1;
        let (mut stream, mut reader) = self.dial()?;
        let outputs_received = lock(&self.shared.inbox).outputs_received;
        send_pooled(
            &mut stream,
            &Msg::Resume {
                session_id: self.session_id,
                outputs_received,
            },
            1,
        )?;
        let inputs_received = match read_deadline(&mut reader, Duration::from_secs(5))? {
            Msg::ResumeOk { inputs_received } => inputs_received,
            other => return Err(unexpected("RESUME_OK", other)),
        };
        self.trim_replay(inputs_received);
        lock(&self.shared.inbox).inputs_acked = inputs_received;
        for buf in &self.replay {
            stream.write_all(buf)?;
            self.stats.replayed_inputs += 1;
        }
        if self.flush_sent {
            send_pooled(&mut stream, &Msg::Flush, 2)?;
        }
        self.install_link(stream, reader);
        Ok(())
    }

    /// Flushes the session, rides out any remaining failures the budget
    /// allows, and returns everything it produced plus the recovery
    /// accounting.
    ///
    /// # Errors
    ///
    /// A fatal server error, or the error that ended the connection
    /// once the budget is spent — including a server that goes silent
    /// for two heartbeat intervals.
    pub fn finish(mut self) -> Result<(ClientResult, RetryStats), NetError> {
        self.flush_sent = true;
        let seq = self.inputs_sent as u32;
        let flushed = self
            .link_write()
            .and_then(|mut w| send_pooled(&mut *w, &Msg::Flush, seq));
        if let Err(e) = flushed {
            self.recover(e)?;
        }
        loop {
            let lost = {
                let mut inbox = lock(&self.shared.inbox);
                loop {
                    if let Some(stats) = inbox.done.take() {
                        let result = ClientResult {
                            packets: std::mem::take(&mut inbox.packets),
                            frames: std::mem::take(&mut inbox.frames),
                            stats,
                        };
                        return Ok((result, self.stats.clone()));
                    }
                    if let Some(e) = inbox.lost.take() {
                        break e;
                    }
                    inbox = self
                        .shared
                        .cv
                        .wait(inbox)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            self.recover(lost)?;
        }
    }
}

/// Dropping a client without [`finish`](NetClient::finish) abandons the
/// connection — no FLUSH, no CLOSE — as a crashed client would. The
/// server tears a plain session down and parks a resumable one.
impl Drop for NetClient {
    fn drop(&mut self) {
        self.teardown_link();
        for buf in self.replay.drain(..) {
            BufferPool::global().put(buf);
        }
    }
}

/// Collects outputs, acknowledges them, applies input acks, and records
/// why the connection ended. Exits on DONE, ERROR, connection loss, or a
/// liveness expiry (no traffic — not even a PONG — for 2× heartbeat).
fn reader_loop(
    mut reader: MsgReader<FaultyStream>,
    shared: &Shared,
    write: &Mutex<FaultyStream>,
    stop: &AtomicBool,
    heartbeat: Duration,
) {
    let liveness = (!heartbeat.is_zero()).then(|| heartbeat * 2);
    let mut last_traffic = Instant::now();
    let send_ctl = |msg: &Msg| {
        let _ = send_pooled(&mut *lock(write), msg, 0);
    };
    // A teardown the owner started is not news to the owner.
    let die = |cause: NetError| {
        if !stop.load(Ordering::Acquire) {
            lock(&shared.inbox).lost = Some(cause);
            shared.cv.notify_all();
        }
        let _ = lock(write).shutdown(Shutdown::Both);
    };
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match reader.poll() {
            ReadEvent::Msg(msg, _) => {
                last_traffic = Instant::now();
                match msg {
                    Msg::Packet(_) | Msg::Frame(_) => {
                        let total = {
                            let mut inbox = lock(&shared.inbox);
                            match msg {
                                Msg::Packet(p) => inbox.packets.push(p),
                                Msg::Frame(f) => inbox.frames.push(f),
                                _ => unreachable!("matched above"),
                            }
                            inbox.outputs_received += 1;
                            inbox.last_ok = last_traffic;
                            inbox.outputs_received
                        };
                        if total % ACK_OUT_EVERY == 0 {
                            send_ctl(&Msg::AckOut {
                                outputs_received: total,
                            });
                        }
                    }
                    Msg::AckIn { inputs_received } => {
                        let mut inbox = lock(&shared.inbox);
                        inbox.inputs_acked = inbox.inputs_acked.max(inputs_received);
                        inbox.last_ok = last_traffic;
                    }
                    Msg::Done(stats) => {
                        // Final cumulative ack lets the server retire
                        // the journal immediately.
                        let total = {
                            let mut inbox = lock(&shared.inbox);
                            inbox.outputs_received += 1;
                            inbox.done = Some(stats);
                            inbox.outputs_received
                        };
                        send_ctl(&Msg::AckOut {
                            outputs_received: total,
                        });
                        shared.cv.notify_all();
                        return;
                    }
                    Msg::Error { code, detail } => {
                        die(NetError::Remote { code, detail });
                        return;
                    }
                    Msg::Ping => send_ctl(&Msg::Pong),
                    // PONG refreshes `last_traffic`; anything else late
                    // or duplicated is ignored.
                    _ => {}
                }
            }
            ReadEvent::Idle => {
                if liveness.is_some_and(|limit| last_traffic.elapsed() >= limit) {
                    die(NetError::Io(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "server silent for two heartbeat intervals",
                    )));
                    return;
                }
            }
            ReadEvent::Gone => {
                die(NetError::Io(ErrorKind::UnexpectedEof.into()));
                return;
            }
            ReadEvent::Malformed(e) => {
                // Corrupted server output: framing is untrustworthy.
                // A resume replays everything not counted in
                // `outputs_received`, so nothing is lost.
                die(NetError::Wire(e));
                return;
            }
        }
    }
}

/// Pings the server every half heartbeat so both sides see traffic
/// well inside the liveness window.
fn keepalive_loop(write: &Mutex<FaultyStream>, stop: &AtomicBool, heartbeat: Duration) {
    let interval = (heartbeat / 2).max(Duration::from_millis(1));
    let step = interval.min(Duration::from_millis(25));
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if stop.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(step);
            slept += step;
        }
        if send_pooled(&mut *lock(write), &Msg::Ping, 0).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, NetServer};
    use hdvb_core::CodecId;
    use hdvb_frame::Resolution;
    use hdvb_seq::{Sequence, SequenceId};

    /// A zero budget is the plain client: every input buffer goes back
    /// to the pool after its write, where a resumable client holds the
    /// unacked ones for replay.
    #[test]
    fn zero_budget_client_keeps_no_replay_queue() {
        let net = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
        let res = Resolution::new(48, 32);
        let spec = SessionSpec::encode(CodecId::Mpeg2, res);
        let seq = Sequence::new(SequenceId::BlueSky, res);
        // Under the server's ACK_IN interval, so no ack can trim the
        // resumable client's queue before it is inspected.
        let n = 5u32;
        for (max_reconnects, held) in [(0, 0), (16, n as usize)] {
            let policy = RetryPolicy {
                max_reconnects,
                ..RetryPolicy::default()
            };
            let mut client =
                NetClient::with_faults(net.local_addr(), policy, None).expect("client");
            client.open(spec, Priority::Batch).expect("open");
            for i in 0..n {
                client
                    .send(SessionInput::Frame(seq.frame(i)))
                    .expect("send");
            }
            assert_eq!(client.replay.len(), held, "budget {max_reconnects}");
            let (result, _) = client.finish().expect("finish");
            assert_eq!(result.stats.completed, u64::from(n));
        }
        net.shutdown();
    }
}
