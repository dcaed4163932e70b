//! End-to-end tests over real loopback TCP connections, through plain
//! (zero reconnect budget) clients.

use hdvb_core::{encode_sequence, CodecId, Priority, SessionInput, SessionSpec};
use hdvb_dsp::SimdLevel;
use hdvb_frame::Resolution;
use hdvb_net::{NetClient, NetConfig, NetError, NetServer, RetryPolicy, SloPolicy};
use hdvb_seq::{Sequence, SequenceId};
use hdvb_serve::{Server, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn qcif() -> Resolution {
    Resolution::new(176, 144)
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

/// The tentpole acceptance criterion: a transcode pushed over loopback
/// TCP produces byte-identical packets to the same session pumped
/// in-process through `hdvb_serve::Server`.
#[test]
fn loopback_transcode_is_byte_identical_to_in_process_serve() {
    let spec = SessionSpec::transcode(CodecId::Mpeg2, CodecId::H264, qcif());
    let simd = SimdLevel::preferred();
    let seq = Sequence::new(SequenceId::BlueSky, qcif());
    let source = encode_sequence(CodecId::Mpeg2, seq, 12, &spec.options(simd))
        .expect("mpeg-2 source stream");

    // In-process: one session on the serve pool, outputs retained.
    let server = Server::new(ServerConfig::default());
    let handle = server.open(spec.build(simd).expect("local session"), true);
    for p in &source.packets {
        handle
            .submit(SessionInput::Packet(p.data.clone()))
            .expect("local submit");
    }
    handle.finish();
    let local = handle.wait();
    server.drain();
    assert!(
        local.error.is_none(),
        "local transcode failed: {:?}",
        local.error
    );

    // Over TCP: same spec, same inputs, outputs streamed back.
    let net = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
    let mut client = plain(net.local_addr());
    client.open(spec, Priority::Live).expect("open");
    for p in &source.packets {
        client.send_packet(p.clone()).expect("send");
    }
    let (remote, _) = client.finish().expect("finish");
    net.shutdown();

    assert_eq!(remote.stats.completed, source.packets.len() as u64);
    assert_eq!(local.packets.len(), remote.packets.len());
    for (a, b) in local.packets.iter().zip(&remote.packets) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.display_index, b.display_index);
        assert_eq!(a.data, b.data, "packet bytes diverged over the wire");
    }
}

/// Satellite 1: a client that vanishes mid-stream takes down only its
/// own session. A neighbour session running on the same server keeps
/// its output byte-identical to the batch path, and the server ends
/// with zero active sessions.
#[test]
fn mid_stream_disconnect_tears_down_only_that_session() {
    let net = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
    let addr = net.local_addr();
    let spec = SessionSpec::encode(CodecId::Mpeg2, qcif());
    let seq = Sequence::new(SequenceId::PedestrianArea, qcif());
    let frames = 10u32;

    // The victim: opens, sends a few frames, then drops the socket
    // without FLUSH or CLOSE — a simulated crash.
    let mut victim = plain(addr);
    victim.open(spec, Priority::Batch).expect("victim open");
    for i in 0..3 {
        victim
            .send(SessionInput::Frame(seq.frame(i)))
            .expect("victim send");
    }

    // The neighbour starts while the victim is still open.
    let mut neighbour = plain(addr);
    neighbour
        .open(spec, Priority::Live)
        .expect("neighbour open");
    for i in 0..frames / 2 {
        neighbour
            .send(SessionInput::Frame(seq.frame(i)))
            .expect("neighbour send");
    }

    drop(victim);

    for i in frames / 2..frames {
        neighbour
            .send(SessionInput::Frame(seq.frame(i)))
            .expect("neighbour send after abort");
    }
    let (result, _) = neighbour.finish().expect("neighbour finish");

    // The neighbour's output is exactly what the batch encoder makes of
    // the same frames — the victim's teardown recycled its buffers
    // without corrupting shared pool state.
    let simd = SimdLevel::preferred();
    let reference =
        encode_sequence(CodecId::Mpeg2, seq, frames, &spec.options(simd)).expect("reference");
    assert_eq!(result.packets.len(), reference.packets.len());
    for (a, b) in result.packets.iter().zip(&reference.packets) {
        assert_eq!(a.data, b.data, "neighbour output corrupted by teardown");
    }

    assert!(
        wait_until(Duration::from_secs(5), || net.stats().disconnects == 1),
        "server never counted the disconnect"
    );
    assert!(
        wait_until(Duration::from_secs(5), || net.active_sessions() == 0),
        "victim session leaked: {} still active",
        net.active_sessions()
    );
    let stats = net.stats();
    assert_eq!(stats.admitted, [1, 1]);
    net.shutdown();
}

/// Admission control over the wire: with a batch threshold far below
/// any achievable latency (and the live SLO far above it), batch OPENs
/// are rejected once the rolling window has evidence, while live OPENs
/// keep being admitted.
#[test]
fn batch_opens_are_rejected_while_live_is_still_admitted() {
    let net = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            slo: Some(SloPolicy {
                p99: Duration::from_secs(10),
                min_samples: 4,
                // 10 s × 1e-8 = 100 ns: any real frame latency exceeds
                // the batch threshold, none approaches the live SLO.
                batch_headroom: 1e-8,
            }),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();
    let spec = SessionSpec::encode(CodecId::Mpeg2, qcif());
    let seq = Sequence::new(SequenceId::RushHour, qcif());

    // Warm-up: below min_samples everything is admitted, including batch.
    let mut warm = plain(addr);
    warm.open(spec, Priority::Batch)
        .expect("warm-up batch open admitted");
    for i in 0..6 {
        warm.send(SessionInput::Frame(seq.frame(i)))
            .expect("warm send");
    }
    warm.finish().expect("warm finish");

    // The window now holds ≥ min_samples completions: batch must bounce.
    let mut batch = plain(addr);
    match batch.open(spec, Priority::Batch) {
        Err(NetError::Remote { code, detail }) => {
            assert_eq!(code, hdvb_net::ErrorCode::Rejected);
            assert!(detail.contains("batch threshold"), "detail: {detail}");
        }
        other => panic!("batch OPEN should have been rejected, got {other:?}"),
    }

    // Live still clears its (10 s) threshold.
    let mut live = plain(addr);
    live.open(spec, Priority::Live)
        .expect("live open still admitted");
    for i in 0..4 {
        live.send(SessionInput::Frame(seq.frame(i)))
            .expect("live send");
    }
    let (live_result, _) = live.finish().expect("live finish");
    assert_eq!(live_result.stats.completed, 4);

    let stats = net.stats();
    assert_eq!(stats.rejected, [0, 1], "exactly the batch OPEN rejected");
    assert_eq!(stats.admitted[Priority::Live.index()], 1);
    net.shutdown();
}

/// Token-bucket shaping: a rate-limited connection takes at least
/// `overdraw / rate` longer than an unlimited one would.
#[test]
fn rate_limited_connection_is_shaped_to_its_contract() {
    let net = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            rate_limit: Some(20), // burst 20, refill 20/s
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let spec = SessionSpec::encode(CodecId::Mpeg2, Resolution::new(48, 32));
    let seq = Sequence::new(SequenceId::Riverbed, Resolution::new(48, 32));

    let mut client = plain(net.local_addr());
    client.open(spec, Priority::Live).expect("open");
    let start = Instant::now();
    // 30 inputs against burst 20 ⇒ 10 tokens of debt ⇒ ≥ 500 ms shaped.
    for i in 0..30 {
        client
            .send(SessionInput::Frame(seq.frame(i)))
            .expect("send");
    }
    let (result, _) = client.finish().expect("finish");
    let elapsed = start.elapsed();
    net.shutdown();

    assert_eq!(result.stats.completed, 30);
    assert!(
        elapsed >= Duration::from_millis(400),
        "30 inputs at rate 20/s finished in {elapsed:?} — bucket not applied"
    );
}
