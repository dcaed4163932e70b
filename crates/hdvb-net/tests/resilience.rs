//! Chaos-layer integration tests over real loopback TCP: mid-handshake
//! disconnects, silent-peer reaping, and client-side fault recovery.
//!
//! The thread-leak assertions read the process-wide OS thread count, so
//! every test in this file serialises on [`LOCK`] — a neighbour test's
//! short-lived connection threads would otherwise show up as phantom
//! leaks. The neighbour's own harness thread, parked on that lock, is
//! subtracted by [`thread_count`]: whether the harness spawns it before
//! or after the running test takes its baseline is a race.

use hdvb_core::{encode_sequence, CodecId, Priority, SessionInput, SessionSpec};
use hdvb_dsp::SimdLevel;
use hdvb_frame::Resolution;
use hdvb_net::wire::{self, Msg};
use hdvb_net::{NetClient, NetConfig, NetFaultPlan, NetServer, RetryPolicy};
use hdvb_seq::{Sequence, SequenceId};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());
/// Test threads currently blocked in [`serialise`].
static WAITING: AtomicUsize = AtomicUsize::new(0);

fn serialise() -> MutexGuard<'static, ()> {
    WAITING.fetch_add(1, Ordering::SeqCst);
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    WAITING.fetch_sub(1, Ordering::SeqCst);
    guard
}

/// OS threads of this process, not counting tests queued on [`LOCK`].
fn thread_count() -> usize {
    let os = hdvb_serve::os_thread_count().expect("/proc/self/status");
    os - WAITING.load(Ordering::SeqCst)
}

fn qcif() -> Resolution {
    Resolution::new(96, 80)
}

fn plain(addr: SocketAddr) -> NetClient {
    let policy = RetryPolicy {
        max_reconnects: 0,
        ..RetryPolicy::default()
    };
    NetClient::with_faults(addr, policy, None).expect("client")
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// A hand-driven wire client for poking at the handshake byte by byte.
struct RawClient {
    sock: TcpStream,
    seq: u32,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        RawClient {
            sock: TcpStream::connect(addr).expect("raw connect"),
            seq: 0,
        }
    }

    fn send(&mut self, msg: &Msg) {
        let mut buf = Vec::new();
        wire::encode(msg, self.seq, &mut buf);
        self.seq += 1;
        self.sock.write_all(&buf).expect("raw send");
    }

    /// Half-closes the write side (a clean FIN, never an RST) and
    /// drains whatever the server still has to say, so nothing the
    /// server wrote is torn down mid-flight.
    fn hang_up(self) {
        let _ = self.sock.shutdown(Shutdown::Write);
        let mut sink = Vec::new();
        let mut sock = self.sock;
        let _ = sock.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = sock.read_to_end(&mut sink);
    }
}

/// Satellite: clients that vanish at every handshake stage — before
/// HELLO, after HELLO, after a resumable OPEN, and mid-FRAME — leave no
/// session, no registry entry, and no thread behind, while a neighbour
/// session on the same server stays byte-identical to the batch path.
#[test]
fn mid_handshake_disconnects_recycle_sessions_and_leak_nothing() {
    let _guard = serialise();
    let baseline = thread_count();
    {
        let net = NetServer::bind(
            "127.0.0.1:0",
            NetConfig {
                heartbeat: Duration::from_millis(200),
                resume_window: Duration::from_millis(300),
                ..NetConfig::default()
            },
        )
        .expect("bind loopback");
        let addr = net.local_addr();
        let spec = SessionSpec::encode(CodecId::Mpeg2, qcif());
        let seq = Sequence::new(SequenceId::BlueSky, qcif());

        // Stage 0: connect and say nothing, then FIN.
        RawClient::connect(addr).hang_up();

        // Stage 1: drop right after HELLO.
        let mut c = RawClient::connect(addr);
        c.send(&Msg::Hello { server: false });
        c.hang_up();

        // Stage 2: drop after a *resumable* OPEN. The session parks,
        // nobody resumes it, and the expiry sweep must reap it.
        let mut c = RawClient::connect(addr);
        c.send(&Msg::Hello { server: false });
        c.send(&Msg::Open {
            spec,
            priority: Priority::Batch,
            resume: true,
        });
        c.hang_up();

        // Stage 3: drop mid-FRAME. A plain OPEN, one whole frame, then
        // half of a second frame's bytes.
        let mut c = RawClient::connect(addr);
        c.send(&Msg::Hello { server: false });
        c.send(&Msg::Open {
            spec,
            priority: Priority::Batch,
            resume: false,
        });
        c.send(&Msg::Frame(seq.frame(0)));
        let mut partial = Vec::new();
        wire::encode(&Msg::Frame(seq.frame(1)), 3, &mut partial);
        partial.truncate(partial.len() / 2);
        c.sock.write_all(&partial).expect("partial frame");
        c.hang_up();

        // The neighbour runs a full session while the wreckage above is
        // being cleaned up.
        let frames = 8u32;
        let mut neighbour = plain(addr);
        neighbour
            .open(spec, Priority::Live)
            .expect("neighbour open");
        for i in 0..frames {
            neighbour
                .send(SessionInput::Frame(seq.frame(i)))
                .expect("neighbour send");
        }
        let (result, _) = neighbour.finish().expect("neighbour finish");

        let reference = encode_sequence(
            CodecId::Mpeg2,
            seq,
            frames,
            &spec.options(SimdLevel::preferred()),
        )
        .expect("reference");
        assert_eq!(result.packets.len(), reference.packets.len());
        for (a, b) in result.packets.iter().zip(&reference.packets) {
            assert_eq!(a.data, b.data, "neighbour output corrupted by teardown");
        }

        assert!(
            wait_until(Duration::from_secs(10), || {
                let s = net.stats();
                s.expired >= 1 && net.active_sessions() == 0 && net.resumable_sessions() == 0
            }),
            "sessions not recycled: {:?}, active {}, resumable {}",
            net.stats(),
            net.active_sessions(),
            net.resumable_sessions(),
        );
        let stats = net.stats();
        assert_eq!(stats.connections, 5);
        assert_eq!(stats.expired, 1, "parked OPEN not expired");
        assert!(
            stats.disconnects >= 2,
            "resumable + mid-frame drops: {stats:?}"
        );
        net.shutdown();
    }
    assert!(
        wait_until(Duration::from_secs(5), || thread_count() <= baseline),
        "threads leaked: {} > baseline {} — {:?}",
        thread_count(),
        baseline,
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .map(|e| std::fs::read_to_string(e.unwrap().path().join("comm"))
                .unwrap_or_default()
                .trim()
                .to_string())
            .collect::<Vec<_>>(),
    );
}

/// Satellite + acceptance: a peer that completes the handshake and then
/// goes silent — no FIN, no heartbeat — is reaped within twice the
/// heartbeat interval, with its session cancelled and nothing leaked.
#[test]
fn silent_peer_is_reaped_within_twice_the_heartbeat() {
    let _guard = serialise();
    let heartbeat = Duration::from_millis(500);
    let baseline = thread_count();
    {
        let net = NetServer::bind(
            "127.0.0.1:0",
            NetConfig {
                heartbeat,
                ..NetConfig::default()
            },
        )
        .expect("bind loopback");
        let spec = SessionSpec::encode(CodecId::Mpeg2, qcif());

        let mut c = RawClient::connect(net.local_addr());
        c.send(&Msg::Hello { server: false });
        c.send(&Msg::Open {
            spec,
            priority: Priority::Live,
            resume: false,
        });
        let opened = Instant::now();
        // Silence. The socket stays open — only the liveness deadline
        // can end this connection.
        assert!(
            wait_until(Duration::from_secs(10), || net.stats().timeouts >= 1),
            "silent peer never reaped: {:?}",
            net.stats(),
        );
        let reaped_after = opened.elapsed();
        // The deadline is 2×heartbeat and detection granularity is one
        // poll quantum; a second of slack absorbs scheduler noise
        // without weakening the bound's order of magnitude.
        assert!(
            reaped_after <= heartbeat * 2 + Duration::from_secs(1),
            "reap took {reaped_after:?}, liveness limit is {:?}",
            heartbeat * 2,
        );
        assert!(
            wait_until(Duration::from_secs(5), || net.active_sessions() == 0),
            "dead peer's session still active"
        );
        drop(c);
        net.shutdown();
    }
    assert!(
        wait_until(Duration::from_secs(5), || thread_count() <= baseline),
        "threads leaked: {} > baseline {}",
        thread_count(),
        baseline,
    );
}

/// Client-side recovery at every handshake stage: the fault plan severs
/// the very first HELLO, then an OPEN, then truncates a frame
/// mid-stream. The retrying client still produces output byte-identical
/// to a fault-free zero-budget client on the same server.
#[test]
fn retry_client_survives_handshake_and_stream_faults_byte_identically() {
    let _guard = serialise();
    let net = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            heartbeat: Duration::from_millis(200),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();
    let spec = SessionSpec::encode(CodecId::Mpeg2, qcif());
    let seq = Sequence::new(SequenceId::RushHour, qcif());
    let frames = 8u32;

    let mut reference = plain(addr);
    reference.open(spec, Priority::Batch).expect("plain open");
    for i in 0..frames {
        reference
            .send(SessionInput::Frame(seq.frame(i)))
            .expect("plain send");
    }
    let (clean, _) = reference.finish().expect("plain finish");

    // Message clock: 0 = first HELLO (dropped), 1/2 = HELLO+OPEN of the
    // second dial (OPEN dropped), 3/4 = third dial's handshake, 5 =
    // frame 0 (truncated mid-message), then HELLO+RESUME+replay.
    let plan = Arc::new(NetFaultPlan::parse("drop@0,drop@2,truncate@5:9,seed=3").expect("plan"));
    let mut client = NetClient::with_faults(
        addr,
        RetryPolicy {
            base_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        },
        Some(Arc::clone(&plan)),
    )
    .expect("retry client");
    client.open(spec, Priority::Batch).expect("faulted open");
    for i in 0..frames {
        client
            .send(SessionInput::Frame(seq.frame(i)))
            .expect("faulted send");
    }
    let (faulted, retry) = client.finish().expect("faulted finish");

    assert_eq!(plan.fired(), 3, "all three faults fired");
    assert!(retry.attempts >= 3, "{retry:?}");
    assert!(retry.reconnects >= 1, "{retry:?}");
    assert_eq!(faulted.stats.completed, u64::from(frames));
    assert_eq!(clean.packets.len(), faulted.packets.len());
    for (a, b) in clean.packets.iter().zip(&faulted.packets) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.display_index, b.display_index);
        assert_eq!(a.data, b.data, "faulted output diverged");
    }
    let stats = net.stats();
    assert!(stats.resumes >= 1, "{stats:?}");
    net.shutdown();
}
