//! The blocking TCP front end.
//!
//! One accepted connection is one codec session: the connection thread
//! reads wire messages and feeds the session's queue, while the codec
//! work itself runs on the `hdvb-serve` pool — the session's output
//! sink streams packets/frames back over the socket from whichever pool
//! worker pumps the session. A write-half mutex keeps the sink's output
//! messages and the reader's control replies from interleaving.
//!
//! Every accepted socket runs with a short read timeout (the poll
//! quantum) feeding a [`MsgReader`], so connection threads interleave
//! reads with liveness checks: a peer that goes silent for twice the
//! heartbeat interval — no data, no PING — is declared dead and reaped,
//! whether it FIN'd or simply vanished. Writes carry a deadline too, so
//! a peer that stops draining its receive window cannot pin a pool
//! worker in `send` forever.
//!
//! Disconnect handling depends on how the session was opened:
//!
//! * A plain session (OPEN without the resume flag) is torn down — the
//!   reader cancels via `SessionHandle::cancel`, queued inputs are
//!   recycled, neighbour sessions never notice. This is the historical
//!   behaviour.
//! * A resumable session *parks* instead (see [`crate::resume`]): the
//!   codec keeps running, outputs accumulate in the journal, and a
//!   client reconnecting with RESUME gets the unacked tail replayed.
//!   Parked sessions that nobody resumes within the resume window are
//!   reaped by the accept loop.

use crate::admission::{SloPolicy, TokenBucket};
use crate::faults::{FaultyStream, NetFaultPlan};
use crate::reader::{MsgReader, ReadEvent};
use crate::resume::{AttachError, Registry, SessionEntry};
use crate::wire::{self, DoneStats, ErrorCode, Msg, WireError};
use hdvb_core::{Priority, SessionInput, SessionSpec};
use hdvb_dsp::SimdLevel;
use hdvb_frame::BufferPool;
use hdvb_serve::{OpenOptions, Server, ServerConfig, SessionHandle, SessionResult};
use hdvb_trace::LatencyHistogram;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cumulative-input acks are sent to resumable clients every this many
/// inputs, bounding how much a client must keep in its replay buffer.
const ACK_IN_EVERY: u64 = 8;

/// Everything a [`NetServer`] needs to know.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The serve-layer knobs (pool threads, queue capacity, policy,
    /// rolling latency window).
    pub server: ServerConfig,
    /// SLO admission control; `None` admits every OPEN.
    pub slo: Option<SloPolicy>,
    /// Per-session token-bucket rate limit in inputs/second (burst =
    /// one second's worth); `None` disables shaping.
    pub rate_limit: Option<u32>,
    /// Kernel dispatch tier for sessions built from OPEN specs.
    pub simd: SimdLevel,
    /// Heartbeat interval advertised to clients in OPEN_OK. A peer
    /// silent for twice this is reaped as dead. `Duration::ZERO`
    /// disables liveness enforcement (reads still time out on the poll
    /// quantum so threads stay responsive).
    pub heartbeat: Duration,
    /// How long a parked resumable session waits for a RESUME before
    /// the accept loop reaps it.
    pub resume_window: Duration,
    /// Max unacked output messages journaled per resumable session;
    /// overflowing makes the session non-resumable.
    pub journal_cap: usize,
    /// Server-side wire fault injection, applied to every accepted
    /// socket (tests and chaos campaigns; normal servers leave `None`).
    pub faults: Option<Arc<NetFaultPlan>>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            server: ServerConfig::default(),
            slo: None,
            rate_limit: None,
            simd: SimdLevel::preferred(),
            heartbeat: Duration::from_secs(30),
            resume_window: Duration::from_secs(10),
            journal_cap: 256,
            faults: None,
        }
    }
}

/// Fleet counters, indexed by [`Priority::index`] where per-class.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: u64,
    /// OPENs admitted, per class.
    pub admitted: [u64; 2],
    /// OPENs rejected by admission control, per class.
    pub rejected: [u64; 2],
    /// Inputs completed by retired sessions, per class.
    pub completed: [u64; 2],
    /// Inputs discarded by retired sessions, per class.
    pub discarded: [u64; 2],
    /// Connections that vanished mid-session (EOF/reset before FLUSH).
    pub disconnects: u64,
    /// Messages that failed wire decoding.
    pub wire_errors: u64,
    /// Connections reaped by the liveness deadline (silent dead peers).
    pub timeouts: u64,
    /// PINGs answered.
    pub pings: u64,
    /// Successful RESUME attaches.
    pub resumes: u64,
    /// Journal entries replayed across all resumes.
    pub replayed: u64,
    /// Times a resumable session parked on disconnect.
    pub parked: u64,
    /// Parked sessions reaped after the resume window elapsed.
    pub expired: u64,
    /// Latency histograms of retired sessions, per class.
    pub latency: [LatencyHistogram; 2],
}

struct NetShared {
    server: Server,
    config: NetConfig,
    stats: Mutex<NetStats>,
    shutdown: AtomicBool,
    next_session: AtomicU32,
    registry: Registry,
}

/// A running TCP front end. Dropping it without
/// [`shutdown`](Self::shutdown) leaves the accept thread running until
/// the process exits.
pub struct NetServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts accepting.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: NetConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept polled against the shutdown flag, so
        // `shutdown` never hangs on a listener with no final client.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(NetShared {
            server: Server::new(config.server),
            config,
            stats: Mutex::new(NetStats::default()),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU32::new(1),
            registry: Registry::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));
        Ok(NetServer {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the fleet counters.
    pub fn stats(&self) -> NetStats {
        self.shared
            .stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Sessions opened but not yet retired.
    pub fn active_sessions(&self) -> usize {
        self.shared.server.active_sessions()
    }

    /// Resumable sessions currently registered (attached or parked).
    pub fn resumable_sessions(&self) -> usize {
        self.shared.registry.len()
    }

    /// The serve pool's worker count.
    pub fn threads(&self) -> usize {
        self.shared.server.threads()
    }

    /// Stops accepting, waits for connection threads to finish their
    /// sessions, reaps any still-parked sessions, and joins the accept
    /// thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.server.drain();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<NetShared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                bump(&shared.stats, |s| s.connections += 1);
                let conn_shared = Arc::clone(shared);
                conns.push(std::thread::spawn(move || {
                    handle_connection(stream, &conn_shared);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
        reap_finished(&mut conns);
        sweep_expired(shared, &mut conns);
    }
    for h in conns.drain(..) {
        let _ = h.join();
    }
    // Final sweep: every connection thread has exited, so anything left
    // in the registry is parked. Tear it down here so `Server::drain`
    // cannot hang on a session nobody will ever resume.
    for entry in shared.registry.expire(Duration::ZERO) {
        expire_entry(shared, &entry);
    }
}

/// Joins connection threads that have finished, so a long-lived server
/// does not accumulate dead `JoinHandle`s (and their OS threads' exit
/// status) until shutdown.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let h = conns.swap_remove(i);
            let _ = h.join();
        } else {
            i += 1;
        }
    }
}

/// Reaps resumable sessions parked longer than the resume window. The
/// teardown (cancel + wait) can block on the pool, so it runs on a
/// short-lived thread tracked like a connection.
fn sweep_expired(shared: &Arc<NetShared>, conns: &mut Vec<JoinHandle<()>>) {
    for entry in shared.registry.expire(shared.config.resume_window) {
        let s = Arc::clone(shared);
        conns.push(std::thread::spawn(move || expire_entry(&s, &entry)));
    }
}

fn expire_entry(shared: &Arc<NetShared>, entry: &SessionEntry) {
    entry.handle().cancel();
    if entry.claim_wait() {
        let result = entry.handle().wait();
        merge_result(shared, entry.priority, &result);
    }
    entry.recycle();
    bump(&shared.stats, |s| s.expired += 1);
}

/// The socket write half, shared between the connection reader (control
/// replies), the session's output sink (streamed outputs), and — for
/// resumable sessions — the journal's replay path.
pub(crate) struct WriteHalf {
    stream: Mutex<(FaultyStream, u32)>,
    /// Set on the first write failure; the session is parked or
    /// cancelled rather than blocked on a dead socket.
    broken: AtomicBool,
}

impl WriteHalf {
    fn new(stream: FaultyStream) -> WriteHalf {
        WriteHalf {
            stream: Mutex::new((stream, 0)),
            broken: AtomicBool::new(false),
        }
    }

    /// Encodes `msg` under the connection sequence and writes it.
    pub(crate) fn send(&self, msg: &Msg) {
        if self.is_broken() {
            return;
        }
        let mut g = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        let (stream, seq) = &mut *g;
        let bytes = wire::encode_pooled(msg, *seq);
        *seq = seq.wrapping_add(1);
        self.write(stream, &bytes);
        drop(g);
        BufferPool::global().put(bytes);
    }

    /// Writes pre-encoded wire bytes (journaled outputs and replays,
    /// which carry their journal sequence instead of the connection
    /// sequence). Returns whether the socket still works.
    pub(crate) fn send_raw(&self, bytes: &[u8]) -> bool {
        if self.is_broken() {
            return false;
        }
        let mut g = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        self.write(&mut g.0, bytes)
    }

    fn write(&self, stream: &mut FaultyStream, bytes: &[u8]) -> bool {
        let ok = stream.write_all(bytes).is_ok();
        if !ok {
            self.broken.store(true, Ordering::Release);
        }
        ok
    }

    pub(crate) fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }

    fn shutdown(&self) {
        let g = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        let _ = g.0.shutdown(Shutdown::Both);
    }
}

/// How long a read may block before the connection thread gets control
/// back to check liveness, session completion, and the write half.
fn poll_quantum(heartbeat: Duration) -> Duration {
    if heartbeat.is_zero() {
        Duration::from_millis(100)
    } else {
        (heartbeat / 4).clamp(Duration::from_millis(5), Duration::from_millis(250))
    }
}

/// Write deadline: generous relative to the heartbeat so a slow-but-
/// alive client never trips it, but bounded so a wedged peer cannot pin
/// a pool worker.
fn write_timeout(heartbeat: Duration) -> Duration {
    if heartbeat.is_zero() {
        Duration::from_secs(30)
    } else {
        (heartbeat * 4).max(Duration::from_secs(1))
    }
}

fn liveness(heartbeat: Duration) -> Option<Duration> {
    (!heartbeat.is_zero()).then(|| heartbeat * 2)
}

fn bump(stats: &Mutex<NetStats>, f: impl FnOnce(&mut NetStats)) {
    f(&mut stats.lock().unwrap_or_else(|e| e.into_inner()));
}

fn merge_result(shared: &NetShared, priority: Priority, result: &SessionResult) {
    bump(&shared.stats, |s| {
        s.completed[priority.index()] += result.completed;
        s.discarded[priority.index()] += result.discarded;
        s.latency[priority.index()].merge(&result.metrics.latency);
    });
}

fn done_stats(result: &SessionResult) -> DoneStats {
    DoneStats {
        completed: result.completed,
        discarded: result.discarded,
        corrupt_dropped: result.corrupt_dropped,
        p50_ns: result.metrics.latency.percentile(0.50),
        p99_ns: result.metrics.latency.percentile(0.99),
    }
}

/// One non-control event off the wire.
enum Ctl {
    Msg(Msg),
    /// EOF, reset, or unreadable socket.
    Gone,
    /// Liveness deadline exceeded: the peer is silently dead.
    Dead,
    Malformed(WireError),
}

/// Per-connection state threaded through the handshake and session
/// phases. Control messages (PING/PONG/ACK) are absorbed here so every
/// phase gets heartbeat handling for free.
struct Conn {
    reader: MsgReader<FaultyStream>,
    write: Arc<WriteHalf>,
    shared: Arc<NetShared>,
    /// The resumable session attached to this connection, if any.
    entry: Option<Arc<SessionEntry>>,
    liveness: Option<Duration>,
    last_traffic: Instant,
}

impl Conn {
    /// One reader poll. `None` means the quantum elapsed with nothing
    /// to do (and the peer is not yet past its liveness deadline when
    /// `enforce` is set).
    fn tick(&mut self, enforce: bool) -> Option<Ctl> {
        match self.reader.poll() {
            ReadEvent::Msg(msg, _seq) => {
                self.last_traffic = Instant::now();
                match msg {
                    Msg::Ping => {
                        bump(&self.shared.stats, |s| s.pings += 1);
                        self.write.send(&Msg::Pong);
                        None
                    }
                    Msg::Pong => None,
                    Msg::AckOut { outputs_received } => {
                        if let Some(entry) = &self.entry {
                            entry.ack_outputs(outputs_received);
                        }
                        None
                    }
                    // ACK_IN is server→client; ignore echoes.
                    Msg::AckIn { .. } => None,
                    other => Some(Ctl::Msg(other)),
                }
            }
            ReadEvent::Idle => match self.liveness {
                Some(limit) if enforce && self.last_traffic.elapsed() >= limit => Some(Ctl::Dead),
                _ => None,
            },
            ReadEvent::Gone => Some(Ctl::Gone),
            ReadEvent::Malformed(e) => Some(Ctl::Malformed(e)),
        }
    }

    /// Blocks (in quantum steps) until a non-control event.
    fn next(&mut self) -> Ctl {
        loop {
            if let Some(ctl) = self.tick(true) {
                return ctl;
            }
        }
    }

    fn send_error(&self, code: ErrorCode, detail: impl Into<String>) {
        self.write.send(&Msg::Error {
            code,
            detail: detail.into(),
        });
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<NetShared>) {
    let hb = shared.config.heartbeat;
    let stream = FaultyStream::wrap(stream, shared.config.faults.clone());
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(poll_quantum(hb)));
    let _ = stream.set_write_timeout(Some(write_timeout(hb)));
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut conn = Conn {
        reader: MsgReader::new(read_half),
        write: Arc::new(WriteHalf::new(stream)),
        shared: Arc::clone(shared),
        entry: None,
        liveness: liveness(hb),
        last_traffic: Instant::now(),
    };

    // HELLO ↔ HELLO. The liveness deadline applies from the first byte,
    // so a peer that connects and says nothing is reaped.
    match conn.next() {
        Ctl::Msg(Msg::Hello { server: false }) => {}
        Ctl::Gone => return,
        Ctl::Dead => {
            bump(&shared.stats, |s| s.timeouts += 1);
            conn.write.shutdown();
            return;
        }
        Ctl::Malformed(e) => {
            bump(&shared.stats, |s| s.wire_errors += 1);
            conn.send_error(ErrorCode::Protocol, e.to_string());
            conn.write.shutdown();
            return;
        }
        Ctl::Msg(_) => {
            conn.send_error(ErrorCode::Protocol, "expected HELLO");
            conn.write.shutdown();
            return;
        }
    }
    conn.write.send(&Msg::Hello { server: true });

    // OPEN or RESUME.
    match conn.next() {
        Ctl::Msg(Msg::Open {
            spec,
            priority,
            resume,
        }) => open_session(&mut conn, spec, priority, resume),
        Ctl::Msg(Msg::Resume {
            session_id,
            outputs_received,
        }) => resume_session(&mut conn, session_id, outputs_received),
        Ctl::Gone => {}
        Ctl::Dead => bump(&shared.stats, |s| s.timeouts += 1),
        Ctl::Malformed(e) => {
            bump(&shared.stats, |s| s.wire_errors += 1);
            conn.send_error(ErrorCode::Protocol, e.to_string());
        }
        Ctl::Msg(_) => conn.send_error(ErrorCode::Protocol, "expected OPEN or RESUME"),
    }
    conn.write.shutdown();
}

fn open_session(conn: &mut Conn, spec: SessionSpec, priority: Priority, resume: bool) {
    let shared = Arc::clone(&conn.shared);
    if let Some(slo) = &shared.config.slo {
        let fleet = shared.server.fleet_latency();
        // HDVB_NET_DEBUG logs every admission decision — the signal to
        // watch when tuning an SLO against a new machine's capacity.
        if std::env::var_os("HDVB_NET_DEBUG").is_some() {
            eprintln!(
                "[admit] {priority:?} fleet count={} p99={:.1}ms thr={:.1}ms",
                fleet.count(),
                fleet.percentile(0.99) as f64 / 1e6,
                slo.threshold_ns(priority) as f64 / 1e6,
            );
        }
        if let Err(rejection) = slo.admit(&fleet, priority) {
            bump(&shared.stats, |s| s.rejected[priority.index()] += 1);
            conn.send_error(ErrorCode::Rejected, rejection.detail(priority));
            return;
        }
    }
    let session = match spec.build(shared.config.simd) {
        Ok(s) => s,
        Err(e) => {
            conn.send_error(ErrorCode::Codec, e.to_string());
            return;
        }
    };
    bump(&shared.stats, |s| s.admitted[priority.index()] += 1);
    let session_id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let heartbeat_ms = u32::try_from(shared.config.heartbeat.as_millis()).unwrap_or(u32::MAX);

    if resume {
        let entry = Arc::new(SessionEntry::new(
            session_id,
            priority,
            shared.config.journal_cap,
            Arc::clone(&conn.write),
        ));
        // The sink holds the entry weakly: the entry owns the session
        // handle, the handle keeps the session state (and this very
        // closure) alive, so a strong reference here would be a cycle
        // that leaks the session — and the pool it pins — forever.
        let sink_entry = Arc::downgrade(&entry);
        let handle = shared.server.open_with(
            session,
            OpenOptions {
                keep_output: false,
                priority,
                sink: Some(Box::new(move |out| {
                    let Some(entry) = sink_entry.upgrade() else {
                        for p in out.packets.drain(..) {
                            wire::recycle_msg(Msg::Packet(p));
                        }
                        for f in out.frames.drain(..) {
                            wire::recycle_msg(Msg::Frame(f));
                        }
                        return;
                    };
                    for p in out.packets.drain(..) {
                        entry.emit(Msg::Packet(p));
                    }
                    for f in out.frames.drain(..) {
                        entry.emit(Msg::Frame(f));
                    }
                })),
            },
        );
        entry.set_handle(handle);
        shared.registry.insert(Arc::clone(&entry));
        conn.entry = Some(Arc::clone(&entry));
        conn.write.send(&Msg::OpenOk {
            session_id,
            heartbeat_ms,
        });
        run_session(conn, entry.handle(), priority, 0);
    } else {
        let sink_write = Arc::clone(&conn.write);
        let handle = shared.server.open_with(
            session,
            OpenOptions {
                keep_output: false,
                priority,
                sink: Some(Box::new(move |out| {
                    for p in out.packets.drain(..) {
                        let msg = Msg::Packet(p);
                        sink_write.send(&msg);
                        wire::recycle_msg(msg);
                    }
                    for f in out.frames.drain(..) {
                        let msg = Msg::Frame(f);
                        sink_write.send(&msg);
                        wire::recycle_msg(msg);
                    }
                })),
            },
        );
        conn.write.send(&Msg::OpenOk {
            session_id,
            heartbeat_ms,
        });
        run_session(conn, &handle, priority, 0);
    }
}

fn resume_session(conn: &mut Conn, session_id: u32, outputs_received: u64) {
    let shared = Arc::clone(&conn.shared);
    let Some(entry) = shared.registry.get(session_id) else {
        conn.send_error(ErrorCode::NoSession, "unknown or expired session");
        return;
    };
    match entry.attach(Arc::clone(&conn.write), outputs_received) {
        Err(AttachError::Live) => {
            // The old connection has not been declared dead yet; the
            // client backs off and retries — Protocol is retryable.
            conn.send_error(
                ErrorCode::Protocol,
                "session busy: previous connection still attached",
            );
        }
        Err(AttachError::OutOfRange) => {
            conn.send_error(
                ErrorCode::NoSession,
                "resume point no longer in journal (overflowed)",
            );
        }
        Ok((generation, replayed)) => {
            bump(&shared.stats, |s| {
                s.resumes += 1;
                s.replayed += replayed;
            });
            conn.entry = Some(Arc::clone(&entry));
            run_session(conn, entry.handle(), entry.priority, generation);
        }
    }
}

#[derive(PartialEq, Eq)]
enum StreamEnd {
    /// Client flushed; the drain phase follows.
    Flushed,
    /// CLOSE, protocol violation, or session failure: torn down.
    Aborted,
    /// Resumable session detached; a later connection may pick it up.
    Parked,
}

/// Drives one attached connection through its remaining phases:
/// streaming (unless FLUSH already happened before a resume), drain,
/// and — for resumable sessions — the ack drain.
fn run_session(conn: &mut Conn, handle: &SessionHandle, priority: Priority, generation: u64) {
    let entry = conn.entry.clone();
    let end = if entry.as_ref().is_some_and(|e| e.is_flushed()) {
        StreamEnd::Flushed
    } else {
        run_streaming(conn, handle, generation)
    };
    match end {
        StreamEnd::Parked => {}
        StreamEnd::Aborted => {
            // The session is cancelled (or retired on its own); fold
            // its result into the fleet counters and forget it.
            finalize(conn, handle, priority);
            if let Some(entry) = &entry {
                conn.shared.registry.remove(entry.id);
                entry.recycle();
            }
        }
        StreamEnd::Flushed => drain_session(conn, handle, priority, generation),
    }
}

/// Reads inputs until FLUSH/CLOSE/disconnect.
fn run_streaming(conn: &mut Conn, handle: &SessionHandle, generation: u64) -> StreamEnd {
    let shared = Arc::clone(&conn.shared);
    let mut bucket = shared
        .config
        .rate_limit
        .map(|rate| TokenBucket::new(f64::from(rate), f64::from(rate)));
    loop {
        if conn.write.is_broken() {
            // The client stopped reading its outputs; treat as gone.
            return disconnect(conn, handle, generation, false);
        }
        let Some(ctl) = conn.tick(true) else { continue };
        match ctl {
            Ctl::Msg(msg @ (Msg::Frame(_) | Msg::Packet(_))) => {
                if let Some(b) = bucket.as_mut() {
                    let wait = b.acquire();
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                }
                if let Some(entry) = &conn.entry {
                    let n = entry.input_received();
                    if n % ACK_IN_EVERY == 0 {
                        conn.write.send(&Msg::AckIn { inputs_received: n });
                    }
                }
                let input = match msg {
                    Msg::Frame(f) => SessionInput::Frame(f),
                    Msg::Packet(p) => SessionInput::Packet(p.data),
                    _ => unreachable!(),
                };
                if handle.submit(input).is_err() {
                    // The session already retired (codec error or
                    // cancellation); report and stop reading.
                    conn.send_error(ErrorCode::Codec, "session closed");
                    return StreamEnd::Aborted;
                }
            }
            Ctl::Msg(Msg::Flush) => {
                if let Some(entry) = &conn.entry {
                    entry.set_flushed();
                }
                handle.finish();
                return StreamEnd::Flushed;
            }
            Ctl::Msg(Msg::Close) => {
                handle.cancel();
                return StreamEnd::Aborted;
            }
            Ctl::Msg(_) => {
                conn.send_error(ErrorCode::Protocol, "unexpected message mid-stream");
                handle.cancel();
                return StreamEnd::Aborted;
            }
            Ctl::Gone => return disconnect(conn, handle, generation, false),
            Ctl::Dead => return disconnect(conn, handle, generation, true),
            Ctl::Malformed(e) => {
                bump(&shared.stats, |s| s.wire_errors += 1);
                conn.send_error(ErrorCode::Protocol, e.to_string());
                if conn.entry.is_some() {
                    // A corrupted message severed framing, but the
                    // input was never submitted — the client's replay
                    // buffer still holds it, so a resume loses nothing.
                    return park(conn, generation, false);
                }
                handle.cancel();
                return StreamEnd::Aborted;
            }
        }
    }
}

/// EOF/reset/liveness-expiry mid-stream: park resumable sessions,
/// cancel plain ones.
fn disconnect(conn: &Conn, handle: &SessionHandle, generation: u64, timed_out: bool) -> StreamEnd {
    bump(&conn.shared.stats, |s| {
        s.disconnects += 1;
        if timed_out {
            s.timeouts += 1;
        }
    });
    if conn.entry.is_some() {
        park(conn, generation, false)
    } else {
        handle.cancel();
        StreamEnd::Aborted
    }
}

fn park(conn: &Conn, generation: u64, timed_out: bool) -> StreamEnd {
    if timed_out {
        bump(&conn.shared.stats, |s| s.timeouts += 1);
    }
    if let Some(entry) = &conn.entry {
        if entry.park(generation) {
            bump(&conn.shared.stats, |s| s.parked += 1);
        }
    }
    StreamEnd::Parked
}

/// After FLUSH: poll the session to completion while answering
/// heartbeats and acks, emit DONE, then (resumable only) wait for the
/// final acks so the journal can be retired.
fn drain_session(conn: &mut Conn, handle: &SessionHandle, priority: Priority, generation: u64) {
    let entry = conn.entry.clone();
    let quantum = poll_quantum(conn.shared.config.heartbeat);
    // A plain client that disconnects during the drain no longer gets
    // its DONE, but the session still finishes and counts.
    let mut reader_gone = false;
    while !handle.is_done() {
        if entry.is_some() && conn.write.is_broken() {
            park(conn, generation, false);
            return;
        }
        if reader_gone {
            std::thread::sleep(quantum);
            continue;
        }
        // Liveness is only enforced for resumable sessions here: a
        // plain client waits silently for its outputs, and that must
        // keep working. Resumable clients heartbeat while they wait.
        match conn.tick(entry.is_some()) {
            None => {}
            // Stray messages (duplicate FLUSH after a resume) are fine.
            Some(Ctl::Msg(_)) => {}
            Some(Ctl::Gone) | Some(Ctl::Malformed(_)) => {
                if entry.is_some() {
                    bump(&conn.shared.stats, |s| s.disconnects += 1);
                    park(conn, generation, false);
                    return;
                }
                reader_gone = true;
            }
            Some(Ctl::Dead) => {
                if entry.is_some() {
                    bump(&conn.shared.stats, |s| s.disconnects += 1);
                    park(conn, generation, true);
                    return;
                }
                reader_gone = true;
            }
        }
    }
    let stats = finalize(conn, handle, priority);
    let Some(entry) = entry else {
        conn.write.send(&Msg::Done(stats));
        return;
    };
    if !entry.done_appended() {
        entry.emit(Msg::Done(stats));
    }
    // Ack drain: the journal empties as ACK_OUTs arrive; once DONE is
    // acked the session has nothing left to deliver and retires. A
    // disconnect here parks — the tail is replayed on resume.
    loop {
        if entry.delivered() {
            conn.shared.registry.remove(entry.id);
            return;
        }
        if conn.write.is_broken() {
            park(conn, generation, false);
            return;
        }
        match conn.tick(true) {
            None => {}
            Some(Ctl::Msg(_)) => {}
            Some(ctl @ (Ctl::Gone | Ctl::Dead | Ctl::Malformed(_))) => {
                // A FIN right after the final ack is the normal end.
                if entry.delivered() {
                    conn.shared.registry.remove(entry.id);
                    return;
                }
                park(conn, generation, matches!(ctl, Ctl::Dead));
                return;
            }
        }
    }
}

/// Waits out the retired session and folds its result into the fleet
/// counters exactly once (connection threads and the expiry reaper can
/// race for a resumable session).
fn finalize(conn: &Conn, handle: &SessionHandle, priority: Priority) -> DoneStats {
    let result = handle.wait();
    let merge = conn.entry.as_ref().is_none_or(|e| e.claim_wait());
    if merge {
        merge_result(&conn.shared, priority, &result);
    }
    done_stats(&result)
}
