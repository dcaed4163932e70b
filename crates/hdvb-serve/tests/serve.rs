//! End-to-end serve-layer tests: backpressure policies, cancellation,
//! graceful drain, batch bit-identity and deterministic load
//! generation.

use hdvb_core::{encode_sequence, CodecId, CodecSession, CodingOptions, SessionInput};
use hdvb_frame::Resolution;
use hdvb_seq::{Sequence, SequenceId};
use hdvb_serve::{
    build_schedule, run_serve_bench, LoadSpec, OverflowPolicy, ServeMode, Server, ServerConfig,
    SubmitError,
};
use std::time::Duration;

fn small_seq() -> Sequence {
    Sequence::new(SequenceId::RushHour, Resolution::new(64, 48))
}

fn spec(seed: u64) -> LoadSpec {
    LoadSpec {
        codec: CodecId::Mpeg2,
        mode: ServeMode::Encode,
        sessions: 3,
        fps: 120,
        duration: Duration::from_millis(100),
        resolution: Resolution::new(64, 48),
        options: CodingOptions::default(),
        queue_capacity: 8,
        policy: OverflowPolicy::Block,
        seed,
        threads: 2,
    }
}

#[test]
fn single_session_serve_is_bit_identical_to_batch_encode() {
    let seq = small_seq();
    let options = CodingOptions::default();
    for codec in CodecId::ALL {
        let batch = encode_sequence(codec, seq, 6, &options).unwrap();
        let server = Server::new(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        let session = CodecSession::encoder(codec, seq.resolution(), &options).unwrap();
        let handle = server.open(session, true);
        for i in 0..6 {
            handle.submit(SessionInput::Frame(seq.frame(i))).unwrap();
        }
        handle.finish();
        let result = handle.wait();
        assert!(result.error.is_none(), "{codec}: {:?}", result.error);
        assert_eq!(result.packets, batch.packets, "{codec}");
        server.drain();
    }
}

#[test]
fn block_policy_under_slow_consumer_loses_nothing() {
    // One worker thread and a tiny queue force the producer to block;
    // the block policy must deliver every frame anyway.
    let seq = small_seq();
    let options = CodingOptions::default();
    let server = Server::new(ServerConfig {
        threads: 1,
        queue_capacity: 2,
        policy: OverflowPolicy::Block,
        ..ServerConfig::default()
    });
    let session = CodecSession::encoder(CodecId::H264, seq.resolution(), &options).unwrap();
    let handle = server.open(session, false);
    let frames = 30u32;
    for i in 0..frames {
        handle.submit(SessionInput::Frame(seq.frame(i))).unwrap();
    }
    handle.finish();
    let result = handle.wait();
    assert!(result.error.is_none());
    assert_eq!(result.completed, u64::from(frames));
    assert_eq!(result.discarded, 0);
    assert_eq!(result.queue.dropped, 0);
    server.drain();
}

#[test]
fn drop_oldest_sheds_load_but_every_input_is_accounted() {
    // A deliberately slow consumer (H.264 encode at a non-trivial
    // resolution, one worker) against a fast producer: the tiny queue
    // must evict, and admitted == completed + discarded afterwards.
    let seq = Sequence::new(SequenceId::RushHour, Resolution::new(288, 160));
    let options = CodingOptions::default();
    let server = Server::new(ServerConfig {
        threads: 1,
        queue_capacity: 2,
        policy: OverflowPolicy::DropOldest,
        ..ServerConfig::default()
    });
    let session = CodecSession::encoder(CodecId::H264, seq.resolution(), &options).unwrap();
    let handle = server.open(session, false);
    let prepared: Vec<_> = (0..40).map(|i| seq.frame(i)).collect();
    for f in prepared {
        handle.submit(SessionInput::Frame(f)).unwrap();
    }
    handle.finish();
    let result = handle.wait();
    assert!(result.error.is_none());
    assert!(result.discarded > 0, "queue never overflowed");
    assert_eq!(result.completed + result.discarded, 40);
    server.drain();
}

#[test]
fn cancel_mid_stream_leaves_the_pool_healthy() {
    let seq = small_seq();
    let options = CodingOptions::default();
    let server = Server::new(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let doomed = server.open(
        CodecSession::encoder(CodecId::H264, seq.resolution(), &options).unwrap(),
        false,
    );
    let survivor = server.open(
        CodecSession::encoder(CodecId::Mpeg2, seq.resolution(), &options).unwrap(),
        true,
    );
    for i in 0..4 {
        doomed.submit(SessionInput::Frame(seq.frame(i))).unwrap();
        survivor.submit(SessionInput::Frame(seq.frame(i))).unwrap();
    }
    // Cancel mid-GOP (B-frame lookahead still buffered, no finish).
    doomed.cancel();
    let cancelled = doomed.wait();
    assert!(
        matches!(cancelled.error, Some(hdvb_core::BenchError::Cancelled)),
        "{:?}",
        cancelled.error
    );
    // Submissions after cancellation are refused, not queued forever.
    assert_eq!(
        doomed.submit(SessionInput::Frame(seq.frame(9))),
        Err(SubmitError::SessionClosed)
    );

    // The untouched session and a brand-new one still run to completion
    // on the same pool.
    survivor.finish();
    let ok = survivor.wait();
    assert!(ok.error.is_none());
    assert_eq!(ok.completed, 4);
    let late = server.open(
        CodecSession::encoder(CodecId::Mpeg4, seq.resolution(), &options).unwrap(),
        false,
    );
    late.submit(SessionInput::Frame(seq.frame(0))).unwrap();
    late.finish();
    assert!(late.wait().error.is_none());
    server.drain();
    assert_eq!(server.active_sessions(), 0);
}

#[test]
fn drain_completes_all_in_flight_frames() {
    let seq = small_seq();
    let options = CodingOptions::default();
    let server = Server::new(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let handles: Vec<_> = (0..6)
        .map(|_| {
            server.open(
                CodecSession::encoder(CodecId::Mpeg2, seq.resolution(), &options).unwrap(),
                false,
            )
        })
        .collect();
    for h in &handles {
        for i in 0..8 {
            h.submit(SessionInput::Frame(seq.frame(i))).unwrap();
        }
        h.finish();
    }
    // Drain first: it must block until every queued frame completed.
    server.drain();
    assert_eq!(server.active_sessions(), 0);
    for h in &handles {
        let r = h.wait();
        assert!(r.error.is_none());
        assert_eq!(r.completed, 8);
        assert_eq!(r.discarded, 0);
    }
}

#[test]
fn schedule_is_deterministic_in_the_seed() {
    let s = spec(7);
    let items = vec![s.items_per_session(); s.sessions as usize];
    let a = build_schedule(&s, &items);
    let b = build_schedule(&s, &items);
    assert_eq!(a, b);
    let c = build_schedule(&spec(8), &items);
    assert_ne!(a, c, "different seeds produced identical jitter");
    // Per-session item order survives the global interleave.
    for session in 0..s.sessions {
        let order: Vec<u32> = a
            .iter()
            .filter(|x| x.session == session)
            .map(|x| x.item)
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }
}

/// Pins the arrival offsets themselves: seed 7, sessions 0–2, items
/// 0–4 at 120 fps. Both load generators (in-process `serve-bench` and
/// the TCP `serve-load` clients) pace inputs by this formula, so a
/// change here moves every latency-vs-load number either one reports.
#[test]
fn arrival_offsets_are_pinned_for_seed_7() {
    let s = spec(7);
    let schedule = build_schedule(&s, &[5, 5, 5]);
    let mut at = [[0u64; 5]; 3];
    for a in &schedule {
        at[a.session as usize][a.item as usize] = a.at_ns;
    }
    let expected: [[u64; 5]; 3] = [
        [2_636_695, 11_979_670, 21_129_932, 32_258_736, 36_998_337],
        [7_531_203, 16_229_339, 16_908_971, 26_884_103, 41_548_879],
        [1_372_471, 11_048_147, 17_663_953, 30_898_027, 40_836_500],
    ];
    assert_eq!(at, expected);
}

#[test]
fn serve_bench_admission_order_is_reproducible() {
    let first = run_serve_bench(&spec(42)).unwrap();
    let second = run_serve_bench(&spec(42)).unwrap();
    assert_eq!(first.admission_log, second.admission_log);
    assert_eq!(first.offered, first.admitted);
    assert_eq!(first.completed, first.offered);
    assert_eq!(first.discarded + first.rejected + first.errors, 0);
    assert!(first.percentile_ns(0.99) >= first.percentile_ns(0.50));
}

#[test]
fn decode_and_transcode_modes_complete() {
    for mode in [ServeMode::Decode, ServeMode::Transcode] {
        let s = LoadSpec {
            mode,
            codec: CodecId::H264,
            sessions: 2,
            ..spec(3)
        };
        let report = run_serve_bench(&s).unwrap();
        assert_eq!(report.errors, 0, "{mode:?}");
        assert_eq!(report.completed, report.admitted, "{mode:?}");
        assert!(report.completed > 0, "{mode:?}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn server_shutdown_leaks_no_worker_threads() {
    fn thread_count() -> usize {
        hdvb_serve::os_thread_count().expect("/proc/self/status")
    }
    let baseline = thread_count();
    {
        let seq = small_seq();
        let options = CodingOptions::default();
        let server = Server::new(ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        });
        let h = server.open(
            CodecSession::encoder(CodecId::Mpeg2, seq.resolution(), &options).unwrap(),
            false,
        );
        h.submit(SessionInput::Frame(seq.frame(0))).unwrap();
        h.finish();
        h.wait();
        server.drain();
        assert!(thread_count() >= baseline + 4);
        drop(h);
        drop(server);
    }
    assert_eq!(thread_count(), baseline, "worker threads leaked");
}

#[test]
fn serve_traffic_recycles_through_the_global_pools() {
    // A fleet of encode sessions without keep_output: every output
    // packet is recycled by the pump, every pooled input frame is
    // recycled by the session, so pool hits and returns must both grow
    // by far more than the fleet's first-GOP warm-up. The counters are
    // process-global and monotone, so parallel tests can only add to
    // them — the deltas below are a lower bound on this test's own
    // traffic.
    let seq = small_seq();
    let options = CodingOptions::default();
    let frames = 24u32;
    let before_frames = hdvb_frame::FramePool::global().stats();
    let before_bufs = hdvb_frame::BufferPool::global().stats();
    let server = Server::new(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let s = CodecSession::encoder(CodecId::Mpeg2, seq.resolution(), &options).unwrap();
            server.open(s, false)
        })
        .collect();
    for i in 0..frames {
        for h in &handles {
            let src = seq.frame(i);
            let mut f = hdvb_frame::FramePool::global().take(src.width(), src.height());
            f.copy_from(&src);
            h.submit(SessionInput::Frame(f)).unwrap();
        }
    }
    for h in &handles {
        h.finish();
        let r = h.wait();
        assert!(r.error.is_none(), "{:?}", r.error);
        assert_eq!(r.completed, u64::from(frames));
    }
    server.drain();
    let after_frames = hdvb_frame::FramePool::global().stats();
    let after_bufs = hdvb_frame::BufferPool::global().stats();
    assert!(
        after_frames.hits > before_frames.hits,
        "frame pool never hit: {before_frames:?} -> {after_frames:?}"
    );
    assert!(
        after_frames.returns > before_frames.returns,
        "frames never recycled: {before_frames:?} -> {after_frames:?}"
    );
    assert!(
        after_bufs.returns > before_bufs.returns,
        "bitstream buffers never recycled: {before_bufs:?} -> {after_bufs:?}"
    );
}

#[test]
fn live_sessions_are_claimed_before_batch_under_saturation() {
    use hdvb_core::Priority;
    use hdvb_serve::OpenOptions;
    use std::sync::{Arc, Mutex};

    let seq = small_seq();
    let options = CodingOptions::default();
    let server = Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mk = || CodecSession::encoder(CodecId::Mpeg2, seq.resolution(), &options).unwrap();

    // A blocker session whose sink parks the only pool worker long
    // enough for the two contenders to queue up behind it.
    let blocker = server.open_with(
        mk(),
        OpenOptions {
            priority: Priority::Batch,
            sink: Some(Box::new(|_out| {
                std::thread::sleep(Duration::from_millis(500));
            })),
            ..OpenOptions::default()
        },
    );
    blocker.submit(SessionInput::Frame(seq.frame(0))).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the pump start

    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let log = |tag: &'static str| -> hdvb_serve::OutputSink {
        let order = Arc::clone(&order);
        Box::new(move |_out| order.lock().unwrap().push(tag))
    };
    // Batch contender first, live second: claim-time priority must
    // still run the live session's work first.
    let batch = server.open_with(
        mk(),
        OpenOptions {
            priority: Priority::Batch,
            sink: Some(log("batch")),
            ..OpenOptions::default()
        },
    );
    batch.submit(SessionInput::Frame(seq.frame(0))).unwrap();
    batch.finish();
    let live = server.open_with(
        mk(),
        OpenOptions {
            priority: Priority::Live,
            sink: Some(log("live")),
            ..OpenOptions::default()
        },
    );
    live.submit(SessionInput::Frame(seq.frame(0))).unwrap();
    live.finish();

    blocker.finish();
    live.wait();
    batch.wait();
    server.drain();
    let order = order.lock().unwrap();
    assert_eq!(order.first().copied(), Some("live"), "order {order:?}");
    assert!(order.contains(&"batch"));
}

#[test]
fn fleet_latency_sees_recent_completions() {
    let seq = small_seq();
    let options = CodingOptions::default();
    let server = Server::new(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    assert_eq!(server.fleet_latency().count(), 0);
    let session = CodecSession::encoder(CodecId::Mpeg2, seq.resolution(), &options).unwrap();
    let handle = server.open(session, false);
    for i in 0..6 {
        handle
            .submit(SessionInput::Frame(seq.frame(i)))
            .expect("submit");
    }
    handle.finish();
    handle.wait();
    let fleet = server.fleet_latency();
    assert_eq!(fleet.count(), 6);
    assert!(fleet.percentile(0.99) > 0);
}

#[test]
fn sink_streams_the_same_packets_wait_would_return() {
    use hdvb_serve::OpenOptions;
    use std::sync::{Arc, Mutex};

    let seq = small_seq();
    let options = CodingOptions::default();
    let batch = encode_sequence(CodecId::Mpeg2, seq, 8, &options).unwrap();

    let server = Server::new(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let streamed: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_store = Arc::clone(&streamed);
    let session = CodecSession::encoder(CodecId::Mpeg2, seq.resolution(), &options).unwrap();
    let handle = server.open_with(
        session,
        OpenOptions {
            sink: Some(Box::new(move |out| {
                let mut store = sink_store.lock().unwrap();
                for p in &out.packets {
                    store.push(p.data.clone());
                }
            })),
            ..OpenOptions::default()
        },
    );
    for i in 0..8 {
        handle
            .submit(SessionInput::Frame(seq.frame(i)))
            .expect("submit");
    }
    handle.finish();
    let result = handle.wait();
    assert!(result.error.is_none());
    assert!(result.packets.is_empty(), "sink sessions retain nothing");
    let streamed = streamed.lock().unwrap();
    assert_eq!(streamed.len(), batch.packets.len());
    for (s, b) in streamed.iter().zip(&batch.packets) {
        assert_eq!(s, &b.data);
    }
}
