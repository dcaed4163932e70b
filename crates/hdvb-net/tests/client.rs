//! The one client's plain mode (zero reconnect budget) against servers
//! that misbehave, over real loopback TCP: a server that goes silent, a
//! server ERROR mid-stream, and a plain victim's crash beside a
//! resumable neighbour.

use hdvb_core::{encode_sequence, CodecId, Priority, SessionInput, SessionSpec};
use hdvb_dsp::SimdLevel;
use hdvb_frame::Resolution;
use hdvb_net::wire::{self, ErrorCode, Msg, HEADER_LEN};
use hdvb_net::{NetClient, NetConfig, NetError, NetServer, RetryPolicy};
use hdvb_seq::{Sequence, SequenceId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn res() -> Resolution {
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

/// Blocking read of one whole message — all a scripted server needs.
fn next_msg(sock: &mut TcpStream) -> Msg {
    let mut header = [0u8; HEADER_LEN];
    sock.read_exact(&mut header).expect("header");
    let parsed = wire::parse_header(&header).expect("valid header");
    let mut rest = vec![0u8; wire::frame_len(&parsed) - HEADER_LEN];
    sock.read_exact(&mut rest).expect("body");
    let (payload, trailer) = rest.split_at(parsed.len as usize);
    wire::check_trailer(payload, trailer).expect("valid trailer");
    wire::decode_payload(parsed.msg_type, payload).expect("valid payload")
}

fn say(sock: &mut TcpStream, msg: &Msg) {
    let mut buf = Vec::new();
    wire::encode(msg, 0, &mut buf);
    sock.write_all(&buf).expect("scripted send");
}

/// A one-connection server: completes HELLO and a *plain* OPEN with
/// `heartbeat_ms`, runs `script`, then reads until the client hangs up.
fn scripted_server(
    heartbeat_ms: u32,
    script: impl FnOnce(&mut TcpStream) + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        assert!(matches!(next_msg(&mut sock), Msg::Hello { server: false }));
        say(&mut sock, &Msg::Hello { server: true });
        match next_msg(&mut sock) {
            Msg::Open { resume, .. } => assert!(!resume, "a zero budget must open plain"),
            other => panic!("expected OPEN, got {:?}", other.msg_type()),
        }
        say(
            &mut sock,
            &Msg::OpenOk {
                session_id: 1,
                heartbeat_ms,
            },
        );
        script(&mut sock);
        let _ = std::io::copy(&mut sock, &mut std::io::sink());
    });
    (addr, server)
}

/// (a) A server that opens the session and then says nothing — no
/// outputs, no PONG, no FIN — fails `finish` within twice the heartbeat
/// it advertised, instead of blocking the caller forever.
#[test]
fn silent_server_fails_finish_within_twice_the_heartbeat() {
    let heartbeat = Duration::from_millis(100);
    let (addr, server) = scripted_server(100, |_| {});
    let seq = Sequence::new(SequenceId::BlueSky, res());
    let mut client = plain(addr);
    let opened = Instant::now();
    client
        .open(SessionSpec::encode(CodecId::Mpeg2, res()), Priority::Live)
        .expect("open");
    for i in 0..2 {
        client
            .send(SessionInput::Frame(seq.frame(i)))
            .expect("send");
    }
    let err = client.finish().expect_err("a silent server cannot finish");
    let took = opened.elapsed();
    assert!(
        took <= heartbeat * 2 + Duration::from_secs(1),
        "finish took {took:?}"
    );
    assert!(
        matches!(&err, NetError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut),
        "{err}"
    );
    server.join().expect("server thread");
}

/// (b) With no budget to spend, a non-fatal server ERROR mid-stream is
/// what the caller sees — not a generic "budget exhausted".
#[test]
fn zero_budget_surfaces_the_servers_error() {
    let (addr, server) = scripted_server(0, |sock| {
        assert!(matches!(next_msg(sock), Msg::Frame(_)));
        say(
            sock,
            &Msg::Error {
                code: ErrorCode::Protocol,
                detail: "scripted fault".into(),
            },
        );
    });
    let seq = Sequence::new(SequenceId::BlueSky, res());
    let mut client = plain(addr);
    client
        .open(SessionSpec::encode(CodecId::Mpeg2, res()), Priority::Batch)
        .expect("open");
    let err = match (0..4).find_map(|i| client.send(SessionInput::Frame(seq.frame(i))).err()) {
        Some(e) => e,
        None => client.finish().expect_err("the server ended the session"),
    };
    match err {
        NetError::Remote { code, detail } => {
            assert_eq!(code, ErrorCode::Protocol);
            assert_eq!(detail, "scripted fault");
        }
        other => panic!("expected the server's ERROR, got {other}"),
    }
    server.join().expect("server thread");
}

/// (c) A zero-budget victim that crashes mid-stream is torn down, never
/// parked for a resume it cannot send, while a resumable neighbour on
/// the same server stays byte-identical to the batch path.
#[test]
fn zero_budget_victim_is_torn_down_not_parked() {
    let net = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
    let addr = net.local_addr();
    let spec = SessionSpec::encode(CodecId::Mpeg2, res());
    let seq = Sequence::new(SequenceId::PedestrianArea, res());
    let frames = 10u32;

    let mut victim = plain(addr);
    victim.open(spec, Priority::Batch).expect("victim open");
    for i in 0..3 {
        victim
            .send(SessionInput::Frame(seq.frame(i)))
            .expect("victim send");
    }
    let mut neighbour = NetClient::with_faults(addr, RetryPolicy::default(), None).expect("client");
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
            .expect("neighbour send after the crash");
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
    // A parked victim would sit in the registry for the whole 10 s
    // resume window, far past this wait.
    assert!(
        wait_until(Duration::from_secs(5), || {
            net.stats().disconnects >= 1
                && net.active_sessions() == 0
                && net.resumable_sessions() == 0
        }),
        "victim not torn down: {:?}, active {}, resumable {}",
        net.stats(),
        net.active_sessions(),
        net.resumable_sessions(),
    );
    assert_eq!(net.stats().parked, 0);
    net.shutdown();
}
