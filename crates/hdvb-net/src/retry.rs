//! Auto-reconnecting client with bit-identical session resume.
//!
//! [`RetryClient`] is the recovery half of the resilience layer: it
//! opens its session with the resume flag, keeps a bounded replay
//! buffer of encoded inputs (trimmed by the server's cumulative
//! ACK_IN), heartbeats the server so silent death is detected within
//! two heartbeat intervals, and — on any connection failure — redials
//! with capped exponential backoff plus seeded jitter, then issues
//! `RESUME(session_id, outputs_received)`. The server replays exactly
//! the outputs the client never saw and the client re-sends exactly
//! the inputs the server never consumed, so the collected output of a
//! run that survived N disconnects is byte-identical to an
//! uninterrupted run.
//!
//! Faults are injected on the client side by handing the same
//! [`NetFaultPlan`] to every dial: the plan's message clock continues
//! across reconnects, so a seeded campaign is one deterministic
//! schedule regardless of how the connection lifetimes fall.

use crate::client::{ClientResult, NetError};
use crate::faults::{FaultyStream, NetFaultPlan};
use crate::reader::{MsgReader, ReadEvent};
use crate::wire::{self, DoneStats, ErrorCode, Msg};
use hdvb_core::splitmix64;
use hdvb_core::{Packet, Priority, SessionInput, SessionSpec};
use hdvb_frame::{BufferPool, Frame};
use hdvb_trace::LatencyHistogram;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the client acknowledges received outputs, bounding the
/// server's journal backlog.
const ACK_OUT_EVERY: u64 = 8;

/// Reconnect budget and backoff shape.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total reconnect attempts a session may spend before giving up.
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
        let ns = capped.as_nanos().min(u128::from(u64::MAX)) as u64;
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
    /// Current connection failed; recoverable.
    dead: bool,
    /// Unrecoverable server error.
    fatal: Option<NetError>,
    /// Last successful traffic in either direction.
    last_ok: Instant,
}

struct Shared {
    inbox: Mutex<Inbox>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One live connection's moving parts.
struct Link {
    write: Arc<Mutex<FaultyStream>>,
    stop: Arc<AtomicBool>,
    reader: JoinHandle<()>,
    keepalive: Option<JoinHandle<()>>,
}

/// An auto-reconnecting session client. Mirrors
/// [`NetClient`](crate::NetClient)'s `open`/`send`/`finish` shape but
/// survives connection loss transparently.
pub struct RetryClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    plan: Option<Arc<NetFaultPlan>>,
    shared: Arc<Shared>,
    link: Option<Link>,
    session_id: u32,
    heartbeat: Duration,
    /// Encoded, unacked input messages; front is input `replay_base`.
    replay: VecDeque<Vec<u8>>,
    replay_base: u64,
    inputs_sent: u64,
    flush_sent: bool,
    reconnects_used: u32,
    stats: RetryStats,
    rng: u64,
}

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

fn fatal_code(code: ErrorCode) -> bool {
    matches!(
        code,
        ErrorCode::Rejected
            | ErrorCode::RateLimited
            | ErrorCode::BadRequest
            | ErrorCode::Codec
            | ErrorCode::NoSession
    )
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
                        std::io::ErrorKind::TimedOut,
                        "handshake deadline",
                    )));
                }
            }
            ReadEvent::Gone => {
                return Err(NetError::Io(std::io::Error::from(
                    std::io::ErrorKind::UnexpectedEof,
                )))
            }
            ReadEvent::Malformed(e) => return Err(NetError::Wire(e)),
        }
    }
}

fn write_msg(stream: &mut FaultyStream, msg: &Msg, seq: u32) -> Result<(), NetError> {
    let mut buf = Vec::new();
    wire::encode(msg, seq, &mut buf);
    stream.write_all(&buf)?;
    Ok(())
}

impl RetryClient {
    /// Resolves `addr` and prepares a client; nothing is dialled until
    /// [`open`](Self::open). Fault injection comes from
    /// `HDVB_NET_FAULTS` if set.
    ///
    /// # Errors
    ///
    /// Address resolution failure or a malformed fault plan.
    pub fn new<A: ToSocketAddrs>(addr: A, policy: RetryPolicy) -> Result<RetryClient, NetError> {
        let plan = NetFaultPlan::from_env().map_err(NetError::Protocol)?;
        Self::with_faults(addr, policy, plan)
    }

    /// Like [`new`](Self::new) with an explicit fault plan (chaos
    /// campaigns hand the same plan to every trial).
    ///
    /// # Errors
    ///
    /// Address resolution failure.
    pub fn with_faults<A: ToSocketAddrs>(
        addr: A,
        policy: RetryPolicy,
        plan: Option<Arc<NetFaultPlan>>,
    ) -> Result<RetryClient, NetError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Protocol("address resolved to nothing".into()))?;
        let rng = splitmix64(policy.seed ^ 0xc2b2_ae3d_27d4_eb4f);
        Ok(RetryClient {
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
                    dead: false,
                    fatal: None,
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

    /// Recovery accounting so far.
    pub fn stats(&self) -> &RetryStats {
        &self.stats
    }

    fn draw(&mut self) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng
    }

    /// Dials, opens a resumable session, and starts the reader and
    /// keepalive threads. Retries transient failures within the
    /// reconnect budget.
    ///
    /// # Errors
    ///
    /// A fatal server response (rejection, codec failure) or an
    /// exhausted retry budget.
    pub fn open(&mut self, spec: SessionSpec, priority: Priority) -> Result<u32, NetError> {
        let mut attempt = 0u32;
        loop {
            match self.try_open(spec, priority) {
                Ok(id) => return Ok(id),
                Err(e) if is_fatal(&e) => return Err(e),
                Err(e) => {
                    if self.reconnects_used >= self.policy.max_reconnects {
                        return Err(e);
                    }
                    self.reconnects_used += 1;
                    let draw = self.draw();
                    let wait = self.policy.backoff(attempt, draw);
                    attempt += 1;
                    std::thread::sleep(wait);
                }
            }
        }
    }

    fn try_open(&mut self, spec: SessionSpec, priority: Priority) -> Result<u32, NetError> {
        self.stats.attempts += 1;
        let (mut stream, mut reader) = self.dial()?;
        write_msg(
            &mut stream,
            &Msg::Open {
                spec,
                priority,
                resume: true,
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
            Msg::Error { code, detail } => Err(NetError::Remote { code, detail }),
            other => Err(NetError::Protocol(format!(
                "expected OPEN_OK, got {:?}",
                other.msg_type()
            ))),
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
        write_msg(&mut stream, &Msg::Hello { server: false }, 0)?;
        match read_deadline(&mut reader, Duration::from_secs(5))? {
            Msg::Hello { server: true } => Ok((stream, reader)),
            Msg::Error { code, detail } => Err(NetError::Remote { code, detail }),
            other => Err(NetError::Protocol(format!(
                "expected server HELLO, got {:?}",
                other.msg_type()
            ))),
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
        self.shared.lock().last_ok = Instant::now();
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
            {
                let g = link.write.lock().unwrap_or_else(|e| e.into_inner());
                let _ = g.shutdown(Shutdown::Both);
            }
            let _ = link.reader.join();
            if let Some(k) = link.keepalive {
                let _ = k.join();
            }
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
    /// decode), transparently recovering the connection if it fails.
    ///
    /// # Errors
    ///
    /// Exhausted retry budget or a fatal server error.
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
    /// Exhausted retry budget or a fatal server error.
    pub fn send_packet(&mut self, packet: Packet) -> Result<(), NetError> {
        self.send_data(Msg::Packet(packet))
    }

    fn send_data(&mut self, msg: Msg) -> Result<(), NetError> {
        let buf = wire::encode_pooled(&msg, self.inputs_sent as u32);
        wire::recycle_msg(msg);
        let acked = self.shared.lock().inputs_acked;
        self.trim_replay(acked);
        self.replay.push_back(buf);
        self.inputs_sent += 1;

        if self.shared.lock().dead {
            // The reader noticed the connection died; recovery replays
            // the tail, which now includes this message.
            return self.recover();
        }
        let ok = match &self.link {
            Some(link) => {
                let mut g = link.write.lock().unwrap_or_else(|e| e.into_inner());
                let ok = g
                    .write_all(self.replay.back().expect("just pushed"))
                    .is_ok();
                drop(g);
                ok
            }
            None => false,
        };
        if ok {
            self.shared.lock().last_ok = Instant::now();
            Ok(())
        } else {
            self.recover()
        }
    }

    /// Reconnects and resumes after a connection failure. On return the
    /// unacked input tail (and FLUSH, if already sent) has been
    /// re-delivered.
    fn recover(&mut self) -> Result<(), NetError> {
        let detected = Instant::now();
        {
            let mut inbox = self.shared.lock();
            if let Some(fatal) = inbox.fatal.take() {
                return Err(fatal);
            }
            let gap = detected.duration_since(inbox.last_ok);
            self.stats
                .detect
                .record(gap.as_nanos().min(u128::from(u64::MAX)) as u64);
            inbox.dead = false;
        }
        self.teardown_link();
        let mut attempt = 0u32;
        loop {
            if self.reconnects_used >= self.policy.max_reconnects {
                return Err(NetError::Protocol(format!(
                    "retry budget exhausted after {} reconnect attempts",
                    self.reconnects_used
                )));
            }
            self.reconnects_used += 1;
            let draw = self.draw();
            let wait = self.policy.backoff(attempt, draw);
            attempt += 1;
            std::thread::sleep(wait);
            match self.try_resume() {
                Ok(()) => {
                    self.stats.reconnects += 1;
                    self.stats
                        .recover
                        .record(detected.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                    return Ok(());
                }
                Err(e) if is_fatal(&e) => return Err(e),
                Err(_) => {
                    // Transient — clear any dead flag a short-lived
                    // link may have raised and try again.
                    self.teardown_link();
                    self.shared.lock().dead = false;
                }
            }
        }
    }

    fn try_resume(&mut self) -> Result<(), NetError> {
        self.stats.attempts += 1;
        let (mut stream, mut reader) = self.dial()?;
        let outputs_received = self.shared.lock().outputs_received;
        write_msg(
            &mut stream,
            &Msg::Resume {
                session_id: self.session_id,
                outputs_received,
            },
            1,
        )?;
        let inputs_received = match read_deadline(&mut reader, Duration::from_secs(5))? {
            Msg::ResumeOk { inputs_received } => inputs_received,
            Msg::Error { code, detail } => return Err(NetError::Remote { code, detail }),
            other => {
                return Err(NetError::Protocol(format!(
                    "expected RESUME_OK, got {:?}",
                    other.msg_type()
                )))
            }
        };
        self.trim_replay(inputs_received);
        self.shared.lock().inputs_acked = inputs_received;
        for buf in &self.replay {
            stream.write_all(buf)?;
            self.stats.replayed_inputs += 1;
        }
        if self.flush_sent {
            write_msg(&mut stream, &Msg::Flush, 2)?;
        }
        self.install_link(stream, reader);
        Ok(())
    }

    /// Flushes the session, rides out any remaining failures, and
    /// returns everything it produced plus the recovery accounting.
    ///
    /// # Errors
    ///
    /// Exhausted retry budget or a fatal server error.
    pub fn finish(mut self) -> Result<(ClientResult, RetryStats), NetError> {
        self.flush_sent = true;
        if self.shared.lock().dead {
            self.recover()?;
        } else {
            let ok = match &self.link {
                Some(link) => {
                    let mut g = link.write.lock().unwrap_or_else(|e| e.into_inner());
                    let mut buf = Vec::new();
                    wire::encode(&Msg::Flush, self.inputs_sent as u32, &mut buf);
                    g.write_all(&buf).is_ok()
                }
                None => false,
            };
            if !ok {
                self.recover()?;
            }
        }
        loop {
            enum Wake {
                Done(Vec<Packet>, Vec<Frame>, DoneStats),
                Dead,
                Fatal(NetError),
            }
            let wake = {
                let mut inbox = self.shared.lock();
                loop {
                    if let Some(e) = inbox.fatal.take() {
                        break Wake::Fatal(e);
                    }
                    if let Some(stats) = inbox.done.take() {
                        break Wake::Done(
                            std::mem::take(&mut inbox.packets),
                            std::mem::take(&mut inbox.frames),
                            stats,
                        );
                    }
                    if inbox.dead {
                        break Wake::Dead;
                    }
                    inbox = self
                        .shared
                        .cv
                        .wait(inbox)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            match wake {
                Wake::Done(packets, frames, stats) => {
                    return Ok((
                        ClientResult {
                            packets,
                            frames,
                            stats,
                        },
                        self.stats.clone(),
                    ));
                }
                Wake::Dead => self.recover()?,
                Wake::Fatal(e) => return Err(e),
            }
        }
    }
}

impl Drop for RetryClient {
    fn drop(&mut self) {
        self.teardown_link();
        for buf in self.replay.drain(..) {
            BufferPool::global().put(buf);
        }
    }
}

/// Collects outputs, acknowledges them, applies input acks, and raises
/// the dead/fatal flags. Exits on DONE, ERROR, connection loss, or a
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
        let mut buf = Vec::new();
        wire::encode(msg, 0, &mut buf);
        let mut g = write.lock().unwrap_or_else(|e| e.into_inner());
        let _ = g.write_all(&buf);
    };
    let die = |fatal: Option<NetError>| {
        let mut inbox = shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
        match fatal {
            Some(e) => inbox.fatal = Some(e),
            None => inbox.dead = true,
        }
        drop(inbox);
        shared.cv.notify_all();
        let g = write.lock().unwrap_or_else(|e| e.into_inner());
        let _ = g.shutdown(Shutdown::Both);
    };
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match reader.poll() {
            ReadEvent::Msg(msg, _) => {
                last_traffic = Instant::now();
                match msg {
                    Msg::Packet(p) => {
                        let total = {
                            let mut inbox = shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
                            inbox.packets.push(p);
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
                    Msg::Frame(f) => {
                        let total = {
                            let mut inbox = shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
                            inbox.frames.push(f);
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
                        let mut inbox = shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
                        inbox.inputs_acked = inbox.inputs_acked.max(inputs_received);
                        inbox.last_ok = last_traffic;
                    }
                    Msg::Done(stats) => {
                        // Final cumulative ack lets the server retire
                        // the journal immediately.
                        let total = {
                            let mut inbox = shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
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
                        let fatal = fatal_code(code).then_some(NetError::Remote { code, detail });
                        die(fatal);
                        return;
                    }
                    Msg::Ping => send_ctl(&Msg::Pong),
                    // PONG refreshes `last_traffic`; anything else late
                    // or duplicated is ignored.
                    _ => {}
                }
            }
            ReadEvent::Idle => {
                if let Some(limit) = liveness {
                    if last_traffic.elapsed() >= limit {
                        die(None);
                        return;
                    }
                }
            }
            ReadEvent::Gone => {
                die(None);
                return;
            }
            ReadEvent::Malformed(_) => {
                // Corrupted server output: framing is untrustworthy.
                // Reconnect; the resume replays everything not counted
                // in `outputs_received`, so nothing is lost.
                die(None);
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
        let mut buf = Vec::new();
        wire::encode(&Msg::Ping, 0, &mut buf);
        let mut g = write.lock().unwrap_or_else(|e| e.into_inner());
        if g.write_all(&buf).is_err() {
            return;
        }
    }
}
