//! `net_live` and `net_decode`: a loopback `NetServer` driven over raw
//! `TcpStream`s, measured from the client's side of the socket.

use crate::batch::{self, kbps, MIN_PSNR_DB};
use crate::inputs::{self, ClipSpec};
use crate::layers;
use crate::report::{self, Config, PoolMark, Report};
use crate::spans::{self, SpanLog};
use crate::stats::{self, Summary};
use crate::wire_io::{self, Receiver, Sender};
use hdvb_core::{
    create_decoder, create_encoder, CodecId, Packet, Priority, SessionInput, SessionSpec,
};
use hdvb_dsp::SimdLevel;
use hdvb_frame::{BufferPool, Frame, FramePool, PlanePsnr};
use hdvb_net::wire::{DoneStats, Msg};
use hdvb_net::{NetConfig, NetServer};
use hdvb_seq::SequenceId;
use hdvb_serve::{OpenOptions, OverflowPolicy, Server, ServerConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Two cores: `net_live` has two connections, each with one load thread
/// and one reader, all mostly waiting.
const LIVE_CONNS: usize = 2;
/// `net_decode` has one. Its reader (checksum and copy of 1.38 MB a
/// frame) and the server's pool thread are both busy all the time; a
/// second reader makes three busy threads on two cores, and whole runs
/// then fall into one of two speeds (220 or 290 frames/s) by where the
/// scheduler happened to put them.
const DECODE_CONNS: usize = 1;
const CLIP_SEQUENCES: [SequenceId; 2] = [SequenceId::PedestrianArea, SequenceId::RushHour];

fn server_config() -> ServerConfig {
    ServerConfig {
        threads: 1,
        queue_capacity: 8,
        policy: OverflowPolicy::Block,
        ..ServerConfig::default()
    }
}

fn bind_server() -> NetServer {
    let config = NetConfig {
        server: server_config(),
        slo: None,
        rate_limit: None,
        faults: None,
        ..NetConfig::default()
    };
    NetServer::bind("127.0.0.1:0", config).expect("binding a loopback port")
}

fn clip_specs(cfg: &Config, res: hdvb_frame::Resolution, len: u32, conns: usize) -> Vec<ClipSpec> {
    CLIP_SEQUENCES
        .iter()
        .take(conns)
        .enumerate()
        .map(|(slot, &id)| ClipSpec {
            id,
            resolution: res,
            start: inputs::clip_start(cfg.seed, slot as u64, len),
            len,
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A server with open sessions, ready for the first input.
struct Fleet {
    server: NetServer,
    conns: Vec<(Sender, Receiver)>,
    open_ms: Vec<f64>,
}

impl Fleet {
    fn open(spec: SessionSpec, priority: Priority, conns: usize) -> Fleet {
        let server = bind_server();
        let mut open_ms = Vec::new();
        let conns = (0..conns)
            .map(|_| {
                let t = Instant::now();
                let conn = wire_io::open_session(server.local_addr(), spec, priority)
                    .expect("the server admits every session: no SLO, no rate limit");
                open_ms.push(ms(t.elapsed()));
                conn
            })
            .collect();
        Fleet {
            server,
            conns,
            open_ms,
        }
    }

    /// Abandons the sessions with CLOSE (not a disconnect) and stops the
    /// server, joining its threads.
    fn close(mut self) {
        for (tx, _) in &mut self.conns {
            let _ = tx.send(&Msg::Close);
        }
        drop(self.conns);
        self.server.shutdown();
    }
}

/// The sending half of one connection and what its thread saw.
struct SendLog {
    tx: Sender,
    sent: usize,
    late_ms: Vec<f64>,
    encode_us: Vec<f64>,
    write_us: Vec<f64>,
    spans: SpanLog,
    error: Option<String>,
}

impl SendLog {
    fn new(tx: Sender, spans: SpanLog) -> SendLog {
        SendLog {
            tx,
            sent: 0,
            late_ms: Vec::new(),
            encode_us: Vec::new(),
            write_us: Vec::new(),
            spans,
            error: None,
        }
    }

    /// Sends one input inside a span named `span`; `false` once the
    /// connection has failed.
    fn send(&mut self, span: &'static str, conn: usize, msg: &Msg) -> bool {
        self.spans
            .begin(span, ((conn as u64) << 32) | self.sent as u64);
        let cost = self.tx.send(msg);
        self.spans.end();
        match cost {
            Ok(cost) => {
                self.encode_us.push(us(cost.encode));
                self.write_us.push(us(cost.write));
                self.sent += 1;
                true
            }
            Err(e) => {
                self.error = Some(format!("send: {e}"));
                false
            }
        }
    }

    /// Ends the input with FLUSH.
    fn flush(mut self) -> SendLog {
        if let Err(e) = self.tx.send(&Msg::Flush) {
            self.error.get_or_insert(format!("flush: {e}"));
        }
        self
    }
}

/// Every sample of one kind from all connections' logs.
fn gather<T>(logs: &[T], samples: fn(&T) -> &Vec<f64>) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| samples(l).iter().copied())
        .collect()
}

/// What the reading thread of one connection saw.
struct RecvLog {
    rx: Receiver,
    /// Arrival of output `i`, in arrival order.
    arrivals: Vec<Instant>,
    packets: Vec<Packet>,
    decode_us: Vec<f64>,
    done: Option<DoneStats>,
    spans: SpanLog,
    error: Option<String>,
}

/// Reads outputs until DONE. `on_frame` sees each FRAME (and its index)
/// before it goes back to the pool; PACKETs are kept.
fn read_outputs(
    mut rx: Receiver,
    mut spans: SpanLog,
    conn: u64,
    mut on_frame: impl FnMut(usize, &Frame, Instant),
) -> RecvLog {
    let (mut arrivals, mut packets, mut decode_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut done, mut error) = (None, None);
    loop {
        let request = (conn << 32) | arrivals.len() as u64;
        spans.begin("client.read", request);
        let got =
            rx.recv_raw(|raw| spans.time("client.check_and_decode", request, || raw.decode()));
        spans.end();
        match got {
            Ok((Ok(Msg::Packet(p)), took)) => {
                arrivals.push(Instant::now());
                decode_us.push(us(took));
                packets.push(p);
            }
            Ok((Ok(Msg::Frame(f)), took)) => {
                let now = Instant::now();
                decode_us.push(us(took));
                on_frame(arrivals.len(), &f, now);
                arrivals.push(now);
                FramePool::global().put(f);
            }
            Ok((Ok(Msg::Done(stats)), _)) => {
                done = Some(stats);
                break;
            }
            Ok((Ok(Msg::AckIn { .. } | Msg::Pong), _)) => {}
            Ok((Ok(other), _)) => {
                error = Some(format!("unexpected {:?}", other.msg_type()));
                break;
            }
            Ok((Err(e), _)) => {
                error = Some(format!("wire: {e}"));
                break;
            }
            Err(e) => {
                error = Some(format!("read: {e}"));
                break;
            }
        }
    }
    RecvLog {
        rx,
        arrivals,
        packets,
        decode_us,
        done,
        spans,
        error,
    }
}

/// Switches `hdvb_trace` on for every second window of a traced run and
/// returns when the last window closes.
fn pace_windows(cfg: &Config, t0: Instant, window: f64, windows: usize) {
    for w in 0..windows {
        hdvb_trace::set_enabled(cfg.trace && w % 2 == 1);
        let end = t0 + Duration::from_secs_f64(window * (w + 1) as f64);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
    }
    hdvb_trace::set_enabled(false);
}

/// Per-window values of a statistic, and those of the windows with
/// tracing off and on.
struct Windowed {
    all: Vec<f64>,
    off: Vec<f64>,
    on: Vec<f64>,
}

/// Cuts each connection's `(time, value)` samples into windows, takes
/// `f` of each connection's window and combines the connections'
/// values with `across`. Connections are kept apart because they carry
/// different content: the percentile of two pooled populations sits in
/// the gap between them and moves with every breath of the host.
fn per_window(
    cfg: &Config,
    samples: &[Vec<(f64, f64)>],
    window: f64,
    windows: usize,
    f: impl Fn(&[f64]) -> f64,
    across: fn(&[f64]) -> f64,
) -> Windowed {
    let all: Vec<f64> = (0..windows)
        .map(|w| {
            let per_conn: Vec<f64> = samples
                .iter()
                .map(|conn| {
                    let inside: Vec<f64> = conn
                        .iter()
                        .filter(|(at, _)| stats::window_of(*at, window, windows) == Some(w))
                        .map(|(_, v)| *v)
                        .collect();
                    f(&inside)
                })
                .collect();
            across(&per_conn)
        })
        .collect();
    let pick = |parity: usize| {
        all.iter()
            .enumerate()
            .filter(|(w, _)| cfg.trace && w % 2 == parity)
            .map(|(_, v)| *v)
            .collect()
    };
    Windowed {
        off: pick(0),
        on: pick(1),
        all,
    }
}

/// The per-layer metrics both network workloads read off the server
/// and their own client threads.
fn report_net_layers(
    report: &mut Report,
    server: &NetServer,
    sends: &[SendLog],
    recvs: &[RecvLog],
    host: f64,
    frame_gen_ms: f64,
) {
    let done: Vec<DoneStats> = recvs.iter().filter_map(|r| r.done).collect();
    let sent: usize = sends.iter().map(|s| s.sent).sum();
    let stats = server.stats();
    report.set_exact("seq.frame_gen_ms", frame_gen_ms);
    report.set(
        "net.sock_write_us",
        Summary::of(&gather(sends, |s| &s.write_us)),
    );
    report.set_exact(
        "net.server_p50_ms",
        stats::mean(
            &done
                .iter()
                .map(|d| d.p50_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    report.set_exact(
        "net.server_p99_ms",
        stats::mean(
            &done
                .iter()
                .map(|d| d.p99_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    let bytes_in: u64 = sends.iter().map(|s| s.tx.bytes_sent).sum();
    let bytes_out: u64 = recvs.iter().map(|r| r.rx.bytes_received).sum();
    report.set_exact(
        "net.bytes_in_per_frame",
        bytes_in as f64 / sent.max(1) as f64,
    );
    report.set_exact(
        "net.bytes_out_per_frame",
        bytes_out as f64 / sent.max(1) as f64,
    );
    report.set_exact("net.disconnects", stats.disconnects as f64);
    report.set_exact("net.wire_errors", stats.wire_errors as f64);
    report.set_exact("net.rejected", stats.rejected.iter().sum::<u64>() as f64);
    report.set_exact("host.oncpu_share", host);
}

fn thread_errors(report: &mut Report, sends: &[SendLog], recvs: &[RecvLog]) {
    for (c, (s, r)) in sends.iter().zip(recvs).enumerate() {
        for e in s.error.iter().chain(&r.error) {
            report.note(format!("connection {c}: {e}"));
        }
    }
    report.check(
        "no connection saw a socket, wire or protocol error",
        sends.iter().all(|s| s.error.is_none()) && recvs.iter().all(|r| r.error.is_none()),
    );
}

// ---------------------------------------------------------------- net_live

/// Keeps the CPUs from halting while `net_live` runs.
///
/// At 40 % utilisation every thread on the frame's path — sender,
/// connection thread, pool thread, reader — sleeps between frames, and on
/// a virtual machine a halted CPU is handed back to the host: waking it
/// costs microseconds on a quiet host and milliseconds on a busy one (the
/// client's 221 KB `write_all` alone went from 70 us to 2.5 ms while a
/// co-tenant was active, and p50 from 12 to 17 ms, when batch throughput
/// lost 10 %). One lowest-priority spinner per CPU, as `idle=poll` would
/// do, leaves the program's own hand-offs in the measurement and takes
/// the host's out; any thread with work preempts a spinner at once.
///
/// The spinners are this program under `nice -n 19`. They stop when this
/// guard drops, when their deadline passes, or when their parent is gone.
pub struct IdlePoll(Vec<std::process::Child>);

impl IdlePoll {
    fn start(seconds: f64) -> IdlePoll {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let exe = std::env::current_exe().unwrap_or_default();
        IdlePoll(
            (0..cpus)
                .filter_map(|_| {
                    std::process::Command::new("nice")
                        .args(["-n", "19"])
                        .arg(&exe)
                        .args([
                            "--idle-poll",
                            &seconds.to_string(),
                            &std::process::id().to_string(),
                        ])
                        .spawn()
                        .ok()
                })
                .collect(),
        )
    }
}

impl Drop for IdlePoll {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The body of one spinner: spins until `seconds` have passed or the
/// process `parent` is no longer its parent.
pub fn idle_poll(seconds: f64, parent: u32) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let orphaned = || {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|stat| {
                // pid (comm) state ppid ...
                let after_comm = stat.rsplit_once(')')?.1.to_string();
                after_comm.split_whitespace().nth(1)?.parse::<u32>().ok()
            })
            .is_some_and(|ppid| ppid != parent)
    };
    while Instant::now() < deadline && !orphaned() {
        for _ in 0..2_000_000 {
            std::hint::spin_loop();
        }
    }
}

struct LiveSetup {
    fleet: Fleet,
    /// `Msg::Frame` per clip frame: `wire::encode` borrows the message,
    /// so one message serves every send of that frame.
    clips: Vec<Vec<Msg>>,
    gen_ms: f64,
}

fn live_spec(cfg: &Config) -> SessionSpec {
    // Low delay: no B-frame lookahead.
    SessionSpec::encode(CodecId::H264, cfg.scale.live_res).with_b_frames(0)
}

fn frame_of(msg: &Msg) -> &Frame {
    match msg {
        Msg::Frame(f) => f,
        _ => unreachable!("clips hold only FRAME messages"),
    }
}

fn live_setup(cfg: &Config) -> LiveSetup {
    let (frames, gen_ms) = inputs::generate(
        &clip_specs(cfg, cfg.scale.live_res, cfg.scale.live_clip, LIVE_CONNS),
        cfg.setup_threads(),
    );
    LiveSetup {
        fleet: Fleet::open(live_spec(cfg), Priority::Live, LIVE_CONNS),
        clips: frames
            .into_iter()
            .map(|clip| clip.into_iter().map(Msg::Frame).collect())
            .collect(),
        gen_ms,
    }
}

pub fn run_live(cfg: &Config) -> Report {
    let mut report = Report::default();
    let (setup, setup_s) = cfg.repeat_setup(|| live_setup(cfg), |s| s.fleet.close());
    let LiveSetup {
        fleet,
        clips,
        gen_ms,
    } = setup;
    let Fleet {
        server,
        conns,
        open_ms,
    } = fleet;

    let windows = if cfg.trace {
        cfg.scale.live_windows.saturating_sub(1).max(2)
    } else {
        cfg.scale.live_windows
    };
    let window = cfg.seconds / cfg.scale.live_windows as f64;
    let period_ns = (1e9 / cfg.scale.live_fps) as u64;
    let frames = ((window * windows as f64 * cfg.scale.live_fps) as usize).max(2);
    let schedules: Vec<Vec<u64>> = (0..LIVE_CONNS)
        .map(|c| inputs::arrival_schedule(cfg.seed, c, LIVE_CONNS, frames, period_ns))
        .collect();

    let idle_poll = IdlePoll::start(window * windows as f64 + 10.0);
    report.count("idle_poll_helpers", idle_poll.0.len() as u64);
    let pools = PoolMark::now();
    let sched = report::sched_ns(true);
    let t0 = Instant::now() + Duration::from_millis(20);
    let (mut sends, mut recvs, mut host) = (Vec::new(), Vec::new(), f64::NAN);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, (tx, rx)) in conns.into_iter().enumerate() {
            let (clip, due) = (&clips[c], &schedules[c]);
            let spans = SpanLog::new(cfg.trace, t0, &format!("client {c} send"));
            let sender = scope.spawn(move || {
                let mut log = SendLog::new(tx, spans);
                for (k, &offset) in due.iter().enumerate() {
                    let due_at = t0 + Duration::from_nanos(offset);
                    std::thread::sleep(due_at.saturating_duration_since(Instant::now()));
                    log.late_ms
                        .push(ms(Instant::now().saturating_duration_since(due_at)));
                    if !log.send(
                        "client.send_frame",
                        c,
                        &clip[inputs::ping_pong(k, clip.len())],
                    ) {
                        break;
                    }
                }
                log.flush()
            });
            let spans = SpanLog::new(cfg.trace, t0, &format!("client {c} read"));
            let reader = scope.spawn(move || read_outputs(rx, spans, c as u64, |_, _, _| {}));
            handles.push((sender, reader));
        }
        pace_windows(cfg, t0, window, windows);
        // Read while the threads are still there to be read.
        host = report::oncpu_share(sched, report::sched_ns(true));
        for (sender, reader) in handles {
            sends.push(sender.join().expect("a sender thread panicked"));
            recvs.push(reader.join().expect("a reader thread panicked"));
        }
    });
    drop(idle_poll);
    if cfg.trace {
        pools.report_since(&mut report);
    }

    // Latency of frame i: arrival of the packet that codes it, minus the
    // time it was due — not the time it was sent — so a stalled generator
    // or a blocked socket counts against the system.
    let mut samples = vec![Vec::new(); LIVE_CONNS];
    let (mut verified, mut psnr, mut rates) = (0u64, Vec::new(), Vec::new());
    let mut last_arrival = t0;
    for (c, (send, recv)) in sends.iter().zip(&recvs).enumerate() {
        let mut arrival: Vec<Option<Instant>> = vec![None; send.sent];
        let mut duplicates = 0;
        for (p, &at) in recv.packets.iter().zip(&recv.arrivals) {
            match arrival.get_mut(p.display_index as usize) {
                Some(slot @ None) => *slot = Some(at),
                _ => duplicates += 1,
            }
            last_arrival = last_arrival.max(at);
        }
        report.check(
            format!("connection {c}: exactly one packet per frame"),
            duplicates == 0 && arrival.iter().all(Option::is_some),
        );
        report.check(
            format!("connection {c}: DONE.completed equals frames sent"),
            recv.done
                .is_some_and(|d| d.completed == send.sent as u64 && d.discarded == 0),
        );
        for (k, at) in arrival.iter().enumerate() {
            let due = Duration::from_nanos(schedules[c][k]);
            let latency = at.map_or(f64::INFINITY, |at| {
                ms(at.saturating_duration_since(t0 + due))
            });
            samples[c].push((due.as_secs_f64(), latency));
        }
        // The packets must decode, client-side, to what was sent.
        let mut dec = create_decoder(CodecId::H264, SimdLevel::preferred());
        let mut decoded = Vec::new();
        for p in &recv.packets {
            let _ = dec.decode_packet_into(&p.data, &mut decoded);
        }
        dec.finish_into(&mut decoded);
        let clip = &clips[c];
        let mse: f64 = decoded
            .iter()
            .enumerate()
            .map(|(k, d)| {
                PlanePsnr::measure(frame_of(&clip[inputs::ping_pong(k, clip.len())]).y(), d.y()).mse
            })
            .sum();
        psnr.push(hdvb_frame::psnr_from_mse(mse / decoded.len().max(1) as f64));
        verified += decoded.len().min(arrival.iter().flatten().count()) as u64;
        rates.push(kbps(
            recv.packets.iter().map(Packet::bits).sum(),
            recv.packets.len(),
        ));
        for f in decoded {
            FramePool::global().put(f);
        }
    }
    report.attempted = (frames * LIVE_CONNS) as u64;
    report.failed = report.attempted.saturating_sub(verified);
    thread_errors(&mut report, &sends, &recvs);
    report.check(
        format!("the returned packets decode to PSNR-Y >= {MIN_PSNR_DB} dB"),
        psnr.iter().all(|&p| p >= MIN_PSNR_DB),
    );

    let p50 = per_window(
        cfg,
        &samples,
        window,
        windows,
        |w| stats::percentile(w, 0.50),
        stats::geomean,
    );
    let p95 = per_window(
        cfg,
        &samples,
        window,
        windows,
        |w| stats::percentile(w, 0.95),
        stats::geomean,
    );
    let late = gather(&sends, |s| &s.late_ms);
    let late_max = late.iter().copied().fold(0.0, f64::max);
    let quarter = 250.0 / cfg.scale.live_fps;
    if late_max > quarter {
        // Not a failure of the system under test: the latency above is
        // taken from the due time, so it already carries the delay. But
        // a host this busy is a poor witness.
        report.note(format!(
            "VALIDITY: the open-loop generator ran up to {late_max:.2} ms late (limit {quarter:.2} ms, a quarter frame interval)"
        ));
    }
    report.count("windows", windows as u64);
    report.count("samples_per_window", (frames / windows) as u64);
    report.count("connections", LIVE_CONNS as u64);
    if cfg.trace {
        let (on, off) = (stats::median(&p50.on), stats::median(&p50.off));
        report.set(
            "trace.overhead_pct",
            Summary::with_spread(
                (on - off) / off * 100.0,
                &p50.on
                    .iter()
                    .map(|v| (v - off) / off * 100.0)
                    .collect::<Vec<_>>(),
            ),
        );
        report.set(
            "gen.late_p99_ms",
            Summary::with_spread(stats::percentile(&late, 0.99), &late),
        );
        report.set_exact("gen.late_max_ms", late_max);
        report.set("net.open_ms", Summary::of(&open_ms));
        report.set(
            "net.wire_encode_frame_us",
            Summary::of(&gather(&sends, |s| &s.encode_us)),
        );
        report.set(
            "net.wire_decode_packet_us",
            Summary::of(&gather(&recvs, |r| &r.decode_us)),
        );
    } else {
        report.set("setup_s", setup_s);
        let span =
            last_arrival.saturating_duration_since(t0 + Duration::from_nanos(schedules[0][0]));
        report.set_exact("fps", verified as f64 / span.as_secs_f64());
        report.set(
            "latency_p50_ms",
            Summary::with_spread(stats::quiet_low(&p50.all), &p50.all),
        );
        // A window holds 60 frames of a connection, 3 beyond its p95,
        // which is no estimate at all. The tail is taken per connection
        // over the frames of the quieter windows together: the three of
        // five with the lowest p50 (180 frames, 9 beyond p95).
        let mut by_p50: Vec<usize> = (0..windows).collect();
        by_p50.sort_by(|&a, &b| p50.all[a].total_cmp(&p50.all[b]));
        let quiet = &by_p50[..(windows * 3).div_ceil(5)];
        let tail: Vec<f64> = samples
            .iter()
            .map(|conn| {
                let inside: Vec<f64> = conn
                    .iter()
                    .filter(|(at, _)| {
                        stats::window_of(*at, window, windows).is_some_and(|w| quiet.contains(&w))
                    })
                    .map(|(_, v)| *v)
                    .collect();
                stats::percentile(&inside, 0.95)
            })
            .collect();
        report.set(
            "latency_p95_ms",
            Summary::with_spread(stats::geomean(&tail), &p95.all),
        );
        // Rate and distortion repeat exactly: no spread to show.
        report.set_exact("bitrate_kbps", stats::geomean(&rates));
        report.set_exact("psnr_db", stats::mean(&psnr));
    }
    if cfg.trace {
        report_net_layers(&mut report, &server, &sends, &recvs, host, gen_ms);
        report.note(format!(
            "server push-return p50 {:.3} ms beside client due-to-arrival p50 {:.3} ms",
            report
                .get("net.server_p50_ms")
                .map_or(f64::NAN, |s| s.value),
            stats::quiet_low(&p50.all)
        ));
    }
    let logs: Vec<SpanLog> = sends
        .into_iter()
        .map(|s| s.spans)
        .chain(recvs.into_iter().map(|r| r.spans))
        .collect();
    server.shutdown();

    if cfg.trace {
        replays(cfg, &clips[0], &mut report);
        layers::par_overhead(&mut report);
        layers::queue_op(&cfg.scale, &mut report);
        layers::hist_record(&cfg.scale, &mut report);
        spans::write(&cfg.out, &cfg.workload, cfg.seed, &logs);
    }
    report
}

/// The same frames through four nested layers, one frame in flight:
/// bare encoder, `CodecSession`, in-process `Server`, TCP. Frame `k`
/// goes through all four before frame `k+1` goes through any, so a noisy
/// second on the host hits the four alike; a layer's cost is the median
/// over frames of (time through it − time through the layer inside it).
fn replays(cfg: &Config, clip: &[Msg], report: &mut Report) {
    let spec = live_spec(cfg);
    let simd = SimdLevel::preferred();
    let source = |k: usize| frame_of(&clip[inputs::ping_pong(k, clip.len())]);
    let pooled_copy = |k: usize| {
        let src = source(k);
        let mut f = FramePool::global().take(src.width(), src.height());
        f.copy_from(src);
        f
    };
    let build = || {
        spec.build(simd)
            .expect("the live session's options are valid")
    };

    let mut encoder = create_encoder(CodecId::H264, spec.resolution, &spec.options(simd))
        .expect("the live session's options are valid");
    let mut packets = Vec::new();
    let mut session = build();
    let mut step = hdvb_core::SessionOutput::new();
    let server = Server::new(server_config());
    let (sink_tx, sink_rx) = std::sync::mpsc::channel();
    let handle = server.open_with(
        build(),
        OpenOptions {
            keep_output: false,
            priority: Priority::Live,
            sink: Some(Box::new(move |_| {
                let _ = sink_tx.send(Instant::now());
            })),
        },
    );
    let Fleet {
        server: net_server,
        mut conns,
        ..
    } = Fleet::open(spec, Priority::Live, 1);
    let (mut tx, mut rx) = conns.remove(0);

    // The first frames are intra-coded and fill the pools: not steady
    // state.
    let warm_up = 3;
    let (mut bare, mut pushed, mut served, mut wired) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 0..warm_up + cfg.scale.replay_frames {
        let t = Instant::now();
        encoder
            .encode_frame_into(source(k), &mut packets)
            .expect("encoding a generated frame");
        let a = us(t.elapsed());
        for p in packets.drain(..) {
            BufferPool::global().put(p.data);
        }

        let input = SessionInput::Frame(pooled_copy(k));
        let t = Instant::now();
        session
            .push_into(input, &mut step)
            .expect("pushing a generated frame");
        let b = us(t.elapsed());
        step.recycle();

        let input = SessionInput::Frame(pooled_copy(k));
        let t = Instant::now();
        handle.submit(input).expect("the session is open");
        let at = sink_rx.recv().expect("the sink runs once per input");
        let c = us(at.saturating_duration_since(t));

        let t = Instant::now();
        tx.send(&clip[inputs::ping_pong(k, clip.len())])
            .expect("sending on loopback");
        let d = match rx.recv().expect("the packet of the frame in flight") {
            Msg::Packet(p) => {
                let took = us(t.elapsed());
                BufferPool::global().put(p.data);
                took
            }
            other => panic!("expected PACKET, got {:?}", other.msg_type()),
        };
        if k >= warm_up {
            bare.push(a);
            pushed.push(b);
            served.push(c);
            wired.push(d);
        }
    }
    handle.finish();
    handle.wait();
    server.drain();
    let _ = tx.send(&Msg::Close);
    drop((tx, rx));
    net_server.shutdown();

    let layer = |outer: &[f64], inner: &[f64]| {
        let paired: Vec<f64> = outer.iter().zip(inner).map(|(o, i)| o - i).collect();
        Summary::of(&paired)
    };
    let (session_us, serve_us, net_us) = (
        layer(&pushed, &bare),
        layer(&served, &pushed),
        layer(&wired, &served),
    );
    report.set("core.session_push_us", session_us);
    report.set("serve.overhead_us", serve_us);
    report.set("net.rtt_overhead_us", net_us);
    report.count("replay_frames", bare.len() as u64);
    let (codec, round_trip) = (stats::median(&bare), stats::median(&wired));
    let sum = codec + session_us.value + serve_us.value + net_us.value;
    report.note(format!(
        "one frame in flight: codec {codec:.1} + session {:.1} + serve {:.1} + net {:.1} = {sum:.1} us; measured TCP round trip {round_trip:.1} us ({:.1} %)",
        session_us.value,
        serve_us.value,
        net_us.value,
        sum / round_trip * 100.0
    ));
}

// -------------------------------------------------------------- net_decode

/// Packets a connection may have out whose frames are not back yet. The
/// loop is closed by this count, not by how much the kernel's socket
/// buffers happen to hold: 16 covers the session queue (8), the
/// decoder's reorder delay (3) and the wire, so the server never idles.
const IN_FLIGHT: usize = 16;

/// One connection's closed-loop window, and when each packet went in.
#[derive(Default)]
struct InFlight {
    /// (hand-in time of every packet so far, frames back, reader gone)
    state: Mutex<(Vec<Instant>, usize, bool)>,
    moved: std::sync::Condvar,
}

impl InFlight {
    /// Blocks until fewer than [`IN_FLIGHT`] packets are out, then
    /// counts one more as handed in now. `false` once the reader is gone.
    fn wait_for_room(&self) -> bool {
        let mut g = self.state.lock().expect("the reader panicked");
        while g.0.len() - g.1 >= IN_FLIGHT && !g.2 {
            g = self.moved.wait(g).expect("the reader panicked");
        }
        g.0.push(Instant::now());
        !g.2
    }

    /// Counts one frame back; returns when packet `g` was handed in.
    fn frame_back(&self, g: usize) -> Option<Instant> {
        let mut s = self.state.lock().expect("the sender panicked");
        s.1 += 1;
        self.moved.notify_one();
        s.0.get(g).copied()
    }

    fn close(&self) {
        self.state.lock().expect("the sender panicked").2 = true;
        self.moved.notify_one();
    }
}

struct DecodeSetup {
    fleet: Fleet,
    sources: Vec<Vec<Frame>>,
    /// `Msg::Packet` per coded picture, in coding order.
    streams: Vec<Vec<Msg>>,
    gen_ms: f64,
}

fn packet_of(msg: &Msg) -> &Packet {
    match msg {
        Msg::Packet(p) => p,
        _ => unreachable!("streams hold only PACKET messages"),
    }
}

fn decode_setup(cfg: &Config) -> DecodeSetup {
    let res = cfg.scale.decode_res;
    let (sources, gen_ms) = inputs::generate(
        &clip_specs(cfg, res, cfg.scale.decode_clip, DECODE_CONNS),
        cfg.setup_threads(),
    );
    let streams = inputs::parallel_map(sources.len(), cfg.setup_threads(), |c| {
        batch::encode_clip(CodecId::Mpeg2, &sources[c])
            .into_iter()
            .map(Msg::Packet)
            .collect()
    });
    DecodeSetup {
        fleet: Fleet::open(
            SessionSpec::decode(CodecId::Mpeg2, res),
            Priority::Batch,
            DECODE_CONNS,
        ),
        sources,
        streams,
        gen_ms,
    }
}

pub fn run_decode(cfg: &Config) -> Report {
    let mut report = Report::default();
    let (setup, setup_s) = cfg.repeat_setup(|| decode_setup(cfg), |s| s.fleet.close());
    let DecodeSetup {
        fleet,
        sources,
        streams,
        gen_ms,
    } = setup;
    let Fleet { server, conns, .. } = fleet;
    let clip_len = cfg.scale.decode_clip as usize;

    // The reference: the same packets decoded in-process.
    let (mut expected, mut in_process_fps) = (Vec::new(), Vec::new());
    for stream in &streams {
        let packets: Vec<Packet> = stream.iter().map(|m| packet_of(m).clone()).collect();
        let reference =
            hdvb_core::decode_sequence(CodecId::Mpeg2, &packets, SimdLevel::preferred())
                .expect("decoding an intact stream");
        in_process_fps.push(reference.decode_fps());
        expected.push(
            reference
                .frames
                .iter()
                .map(batch::frame_digest)
                .collect::<Vec<u64>>(),
        );
    }

    // A traced run needs a window with tracing on and one with it off.
    let windows = cfg.scale.decode_windows.max(if cfg.trace { 2 } else { 1 });
    let window = cfg.seconds / windows as f64;
    let pools = PoolMark::now();
    let sched = report::sched_ns(true);
    let t0 = Instant::now();
    let (mut sends, mut recvs, mut checks, mut host) =
        (Vec::new(), Vec::new(), Vec::new(), f64::NAN);
    let in_flight: Vec<InFlight> = (0..DECODE_CONNS).map(|_| InFlight::default()).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, (tx, rx)) in conns.into_iter().enumerate() {
            let stream = &streams[c];
            // Where display position d of one repetition sits in coding
            // order.
            let mut coding_pos = vec![0; stream.len()];
            for (j, m) in stream.iter().enumerate() {
                coding_pos[packet_of(m).display_index as usize] = j;
            }
            let in_flight = &in_flight[c];
            let spans = SpanLog::new(cfg.trace, t0, &format!("client {c} send"));
            let seconds = cfg.seconds;
            let sender = scope.spawn(move || {
                let mut log = SendLog::new(tx, spans);
                // Whole repetitions only, so every output has a
                // first-repetition twin to be checked against.
                'stream: while t0.elapsed().as_secs_f64() < seconds {
                    for msg in stream {
                        if !in_flight.wait_for_room() {
                            log.error = Some("the reader stopped before the stream ended".into());
                            break 'stream;
                        }
                        if !log.send("client.send_packet", c, msg) {
                            break 'stream;
                        }
                    }
                }
                log.flush()
            });
            let spans = SpanLog::new(cfg.trace, t0, &format!("client {c} read"));
            let (source, expected) = (&sources[c], &expected[c]);
            let reader = scope.spawn(move || {
                let mut latency = Vec::new();
                let (mut mismatches, mut mse) = (0u64, 0.0);
                let log = read_outputs(rx, spans, c as u64, |i, frame, at| {
                    let (rep, display) = (i / clip_len, i % clip_len);
                    let g = rep * clip_len + coding_pos[display];
                    let t_in = in_flight.frame_back(g);
                    latency.push((
                        at.saturating_duration_since(t0).as_secs_f64(),
                        t_in.map_or(f64::INFINITY, |t| ms(at.saturating_duration_since(t))),
                    ));
                    if rep == 0 {
                        // First repetition: bit-exact against the
                        // in-process decode, and close to the source.
                        mismatches += u64::from(batch::frame_digest(frame) != expected[display]);
                        mse += PlanePsnr::measure(source[display].y(), frame.y()).mse;
                    } else if frame.width() != source[display].width() {
                        mismatches += 1;
                    }
                });
                in_flight.close();
                (
                    log,
                    latency,
                    mismatches,
                    hdvb_frame::psnr_from_mse(mse / clip_len as f64),
                )
            });
            handles.push((sender, reader));
        }
        pace_windows(cfg, t0, window, windows);
        // Read while the threads are still there to be read.
        host = report::oncpu_share(sched, report::sched_ns(true));
        for (sender, reader) in handles {
            sends.push(sender.join().expect("a sender thread panicked"));
            let (log, latency, mismatches, psnr) = reader.join().expect("a reader thread panicked");
            recvs.push(log);
            checks.push((latency, mismatches, psnr));
        }
    });
    if cfg.trace {
        pools.report_since(&mut report);
    }

    let mut samples = Vec::new();
    let (mut verified, mut attempted, mut psnr, mut rates) = (0u64, 0u64, Vec::new(), Vec::new());
    for (c, ((send, recv), (latency, mismatches, conn_psnr))) in
        sends.iter().zip(&recvs).zip(&checks).enumerate()
    {
        attempted += send.sent as u64;
        verified += (recv.arrivals.len() as u64)
            .min(send.sent as u64)
            .saturating_sub(*mismatches);
        samples.push(latency.clone());
        psnr.push(*conn_psnr);
        let bits = streams[c].iter().map(|m| packet_of(m).bits()).sum();
        rates.push(kbps(bits, clip_len));
        report.check(
            format!("connection {c}: one frame back per packet sent, DONE.completed equal"),
            recv.arrivals.len() == send.sent
                && recv.done.is_some_and(|d| d.completed == send.sent as u64),
        );
        report.check(
            format!("connection {c}: first-pass frames equal the in-process decode_sequence"),
            *mismatches == 0 && recv.arrivals.len() >= clip_len,
        );
    }
    report.attempted = attempted;
    report.failed = attempted.saturating_sub(verified);
    thread_errors(&mut report, &sends, &recvs);
    report.check(
        format!("the decoded frames are within PSNR-Y >= {MIN_PSNR_DB} dB of the source"),
        psnr.iter().all(|&p| p >= MIN_PSNR_DB),
    );

    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let goodput = per_window(
        cfg,
        &samples,
        window,
        windows,
        |w| w.len() as f64 / window,
        sum,
    );
    let p50 = per_window(
        cfg,
        &samples,
        window,
        windows,
        |w| stats::percentile(w, 0.50),
        stats::geomean,
    );
    let p95 = per_window(
        cfg,
        &samples,
        window,
        windows,
        |w| stats::percentile(w, 0.95),
        stats::geomean,
    );
    report.count("windows", windows as u64);
    report.count("connections", DECODE_CONNS as u64);
    report.count("in_flight", IN_FLIGHT as u64);
    report.count("frames", verified);
    let fps = stats::quiet_high(&goodput.all);
    let reference = stats::geomean(&in_process_fps);
    report.note(format!(
        "goodput over the wire {fps:.1} frames/s; the same packets decoded in-process {reference:.1} frames/s ({:.0} %)",
        fps / reference * 100.0
    ));
    if cfg.trace {
        let (on, off) = (stats::median(&goodput.on), stats::median(&goodput.off));
        report.set(
            "trace.overhead_pct",
            Summary::with_spread(
                (off - on) / off * 100.0,
                &goodput
                    .on
                    .iter()
                    .map(|v| (off - v) / off * 100.0)
                    .collect::<Vec<_>>(),
            ),
        );
        report.set(
            "net.wire_encode_packet_us",
            Summary::of(&gather(&sends, |s| &s.encode_us)),
        );
        report.set(
            "net.wire_decode_frame_us",
            Summary::of(&gather(&recvs, |r| &r.decode_us)),
        );
        layers::checksum(&cfg.scale, &mut report);
    } else {
        report.set("setup_s", setup_s);
        report.set("fps", Summary::with_spread(fps, &goodput.all));
        report.set(
            "latency_p50_ms",
            Summary::with_spread(stats::quiet_low(&p50.all), &p50.all),
        );
        report.set(
            "latency_p95_ms",
            Summary::with_spread(stats::quiet_low(&p95.all), &p95.all),
        );
        // Rate and distortion repeat exactly: no spread to show.
        report.set_exact("bitrate_kbps", stats::geomean(&rates));
        report.set_exact("psnr_db", stats::mean(&psnr));
    }
    if cfg.trace {
        report_net_layers(&mut report, &server, &sends, &recvs, host, gen_ms);
    }
    let logs: Vec<SpanLog> = sends
        .into_iter()
        .map(|s| s.spans)
        .chain(recvs.into_iter().map(|r| r.spans))
        .collect();
    server.shutdown();
    if cfg.trace {
        spans::write(&cfg.out, &cfg.workload, cfg.seed, &logs);
    }
    report
}
