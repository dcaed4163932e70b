//! The open-loop load generator.
//!
//! An open-loop generator decides *in advance* when every input
//! arrives, then walks that schedule against the wall clock regardless
//! of how the system responds — which is what exposes queueing
//! collapse: a closed-loop driver slows down with the server and hides
//! it. The schedule is fully deterministic: arrival jitter comes from
//! [`splitmix64`] keyed on `(seed, session, item)`, so the same seed
//! produces the same arrival times and therefore the same admission
//! order (the generator is a single thread walking a sorted schedule —
//! backpressure can delay admissions, never reorder them).

use crate::metrics::SessionMetrics;
use crate::queue::OverflowPolicy;
use crate::report::{PoolsReport, ServeBenchReport, SessionSummary};
use crate::server::{Server, ServerConfig, SessionHandle};
use hdvb_core::{encode_sequence, splitmix64, CodecId, CodecSession, CodingOptions, SessionInput};
use hdvb_frame::{BufferPool, Frame, FramePool, Resolution};
use hdvb_seq::{Sequence, SequenceId};
use hdvb_trace::LatencyHistogram;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What each serve-bench session does with its inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeMode {
    /// Sessions encode synthetic frames (frames in, packets out).
    Encode,
    /// Sessions decode a pre-encoded stream (packets in, frames out).
    Decode,
    /// Sessions transcode a pre-encoded MPEG-2 stream to the target
    /// codec (packets in, packets out).
    Transcode,
}

impl ServeMode {
    /// Parses `"encode"`, `"decode"` or `"transcode"`.
    pub fn parse(s: &str) -> Option<ServeMode> {
        match s {
            "encode" => Some(ServeMode::Encode),
            "decode" => Some(ServeMode::Decode),
            "transcode" => Some(ServeMode::Transcode),
            _ => None,
        }
    }

    /// The canonical CLI/report spelling.
    pub fn name(self) -> &'static str {
        match self {
            ServeMode::Encode => "encode",
            ServeMode::Decode => "decode",
            ServeMode::Transcode => "transcode",
        }
    }
}

/// One serve-bench configuration.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Codec under test (encode/decode codec, or transcode target).
    pub codec: CodecId,
    /// Session workload direction.
    pub mode: ServeMode,
    /// Concurrent sessions.
    pub sessions: u32,
    /// Offered per-session input rate.
    pub fps: u32,
    /// Schedule length (per-session items = `fps × duration`, min 1).
    pub duration: Duration,
    /// Frame size for the synthetic sequences.
    pub resolution: Resolution,
    /// Coding options for the codecs.
    pub options: CodingOptions,
    /// Per-session input queue capacity.
    pub queue_capacity: usize,
    /// Overflow policy for the session queues.
    pub policy: OverflowPolicy,
    /// Arrival-jitter seed; same seed, same admission order.
    pub seed: u64,
    /// Pool worker threads (`0` = machine parallelism).
    pub threads: usize,
}

impl LoadSpec {
    /// Inputs each session receives under this spec.
    pub fn items_per_session(&self) -> u32 {
        ((f64::from(self.fps) * self.duration.as_secs_f64()).round() as u32).max(1)
    }
}

/// One scheduled admission: input `item` of `session` arrives `at_ns`
/// after the run starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the run epoch, in ns.
    pub at_ns: u64,
    /// Target session index.
    pub session: u32,
    /// Per-session input index (frame or packet number).
    pub item: u32,
}

/// When input `item` of `session` is due, in ns after that session's
/// clock starts: `item × period` plus a uniform jitter in `[0, period)`
/// drawn from `splitmix64(seed, session, item)`. Non-decreasing in
/// `item`. Both load generators pace by this: [`run_serve_bench`] and
/// the TCP `serve-load` clients.
pub fn arrival_ns(seed: u64, fps: u32, session: u32, item: u32) -> u64 {
    let period_ns = (1_000_000_000f64 / f64::from(fps.max(1))).round() as u64;
    let key = seed
        .wrapping_add(u64::from(session).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(u64::from(item).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    u64::from(item) * period_ns + splitmix64(key) % period_ns.max(1)
}

/// Builds the deterministic arrival schedule from [`arrival_ns`].
/// Per-session arrival times are non-decreasing in the item, so sorting
/// by `(at_ns, session, item)` preserves every session's input order
/// while interleaving sessions.
pub fn build_schedule(spec: &LoadSpec, items_per_session: &[u32]) -> Vec<Arrival> {
    let mut schedule = Vec::new();
    for (s, &items) in items_per_session.iter().enumerate() {
        for i in 0..items {
            schedule.push(Arrival {
                at_ns: arrival_ns(spec.seed, spec.fps, s as u32, i),
                session: s as u32,
                item: i,
            });
        }
    }
    schedule.sort_unstable_by_key(|a| (a.at_ns, a.session, a.item));
    schedule
}

/// Per-session input material, prepared before the clock starts so the
/// sender only copies into pooled buffers and submits. Clones share the
/// material.
#[derive(Clone)]
pub enum SessionFeed {
    /// Synthetic frames, for encode sessions.
    Frames(Arc<Vec<Frame>>),
    /// Pre-encoded packets, for decode and transcode sessions.
    Packets(Arc<Vec<Vec<u8>>>),
}

impl SessionFeed {
    /// Renders `items` frames of `seq` (encode), or pre-encodes them:
    /// decode sessions consume their own codec's stream, transcode
    /// sessions consume MPEG-2 and emit `codec`.
    ///
    /// # Errors
    ///
    /// Pre-encoding failure.
    pub fn build(
        mode: ServeMode,
        codec: CodecId,
        seq: Sequence,
        items: u32,
        options: &CodingOptions,
    ) -> Result<SessionFeed, String> {
        let source = match mode {
            ServeMode::Encode => {
                return Ok(SessionFeed::Frames(Arc::new(
                    (0..items).map(|i| seq.frame(i)).collect(),
                )))
            }
            ServeMode::Decode => codec,
            ServeMode::Transcode => CodecId::Mpeg2,
        };
        let encoded = encode_sequence(source, seq, items, options)
            .map_err(|e| format!("pre-encoding {source} feed: {e}"))?;
        Ok(SessionFeed::Packets(Arc::new(
            encoded.packets.into_iter().map(|p| p.data).collect(),
        )))
    }

    fn len(&self) -> u32 {
        match self {
            SessionFeed::Frames(f) => f.len() as u32,
            SessionFeed::Packets(p) => p.len() as u32,
        }
    }

    /// Materialises input `i` (wrapping past the end) into a
    /// pool-backed buffer. The session recycles it after consumption,
    /// so in steady state the submit path allocates nothing.
    pub fn input(&self, i: u32) -> SessionInput {
        let i = (i % self.len()) as usize;
        match self {
            SessionFeed::Frames(f) => {
                let src = &f[i];
                let mut frame = FramePool::global().take(src.width(), src.height());
                frame.copy_from(src);
                SessionInput::Frame(frame)
            }
            SessionFeed::Packets(p) => {
                let src = &p[i];
                let mut data = BufferPool::global().take(src.len());
                data.extend_from_slice(src);
                SessionInput::Packet(data)
            }
        }
    }
}

/// Renders or pre-encodes the per-session input material. Sessions
/// rotate over the paper's four sequences; material is shared between
/// sessions with the same rotation slot.
fn build_feeds(spec: &LoadSpec, items: u32) -> Result<Vec<SessionFeed>, String> {
    let unique = (SequenceId::ALL.len() as u32).min(spec.sessions).max(1) as usize;
    let cache = SequenceId::ALL[..unique]
        .iter()
        .map(|&id| {
            let seq = Sequence::new(id, spec.resolution);
            SessionFeed::build(spec.mode, spec.codec, seq, items, &spec.options)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((0..spec.sessions as usize)
        .map(|s| cache[s % unique].clone())
        .collect())
}

fn open_session(spec: &LoadSpec, server: &Server) -> Result<SessionHandle, String> {
    let session = match spec.mode {
        ServeMode::Encode => CodecSession::encoder(spec.codec, spec.resolution, &spec.options)
            .map_err(|e| e.to_string())?,
        ServeMode::Decode => CodecSession::decoder(spec.codec, spec.options.simd),
        ServeMode::Transcode => {
            CodecSession::transcoder(CodecId::Mpeg2, spec.codec, spec.resolution, &spec.options)
                .map_err(|e| e.to_string())?
        }
    };
    Ok(server.open(session, false))
}

/// Runs one open-loop serve benchmark to completion and reports.
///
/// # Errors
///
/// Propagates session-construction and feed-preparation failures;
/// per-session runtime errors are reported, not fatal.
pub fn run_serve_bench(spec: &LoadSpec) -> Result<ServeBenchReport, String> {
    let pools_before = PoolsReport::snapshot();
    let items = spec.items_per_session();
    let feeds = build_feeds(spec, items)?;
    let items_per_session: Vec<u32> = feeds.iter().map(SessionFeed::len).collect();
    let schedule = build_schedule(spec, &items_per_session);

    let server = Server::new(ServerConfig {
        threads: spec.threads,
        queue_capacity: spec.queue_capacity,
        policy: spec.policy,
        ..ServerConfig::default()
    });
    let handles: Vec<SessionHandle> = (0..spec.sessions)
        .map(|_| open_session(spec, &server))
        .collect::<Result<_, _>>()?;

    // The generator: one thread, walking the schedule against the wall
    // clock. A submission that blocks (Block policy) delays later
    // admissions but never reorders them.
    let mut admission_log = Vec::with_capacity(schedule.len());
    let mut rejected = 0u64;
    let epoch = Instant::now();
    for a in &schedule {
        let target = epoch + Duration::from_nanos(a.at_ns);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let input = feeds[a.session as usize].input(a.item);
        match handles[a.session as usize].submit(input) {
            Ok(()) => admission_log.push((a.session, a.item)),
            Err(_) => rejected += 1,
        }
    }
    for h in &handles {
        h.finish();
    }

    let results: Vec<_> = handles.iter().map(SessionHandle::wait).collect();
    server.drain();
    let wall = epoch.elapsed();

    let mut fleet = SessionMetrics::new();
    let mut fleet_hist = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut discarded = 0u64;
    let mut corrupt_dropped = 0u64;
    let mut errors = 0u64;
    let mut max_depth = 0usize;
    let mut depth_sum = 0u64;
    let mut depth_pushes = 0u64;
    let mut per_session = Vec::with_capacity(results.len());
    for (s, r) in results.iter().enumerate() {
        fleet.merge(&r.metrics);
        fleet_hist.merge(&r.metrics.latency);
        completed += r.completed;
        discarded += r.discarded;
        corrupt_dropped += r.corrupt_dropped;
        if r.error.is_some() {
            errors += 1;
        }
        max_depth = max_depth.max(r.queue.max_depth);
        depth_sum += r.queue.depth_sum;
        depth_pushes += r.queue.pushed;
        per_session.push(SessionSummary {
            session: s as u32,
            completed: r.completed,
            discarded: r.discarded,
            p50_ns: r.metrics.latency.percentile(0.50),
            p99_ns: r.metrics.latency.percentile(0.99),
            jitter_ns: r.metrics.jitter_mean_ns(),
            sustained_fps: r.metrics.sustained_fps(),
            error: r.error.as_ref().map(|e| e.to_string()),
        });
    }

    Ok(ServeBenchReport {
        codec: spec.codec,
        mode: spec.mode,
        sessions: spec.sessions,
        offered_fps: spec.fps,
        duration: spec.duration,
        resolution: spec.resolution,
        policy: spec.policy,
        queue_capacity: spec.queue_capacity,
        seed: spec.seed,
        threads: server.threads(),
        offered: schedule.len() as u64,
        admitted: admission_log.len() as u64,
        completed,
        discarded,
        rejected,
        corrupt_dropped,
        errors,
        wall,
        fleet: fleet_hist,
        jitter_mean_ns: fleet.jitter_mean_ns(),
        sustained_fps: fleet.sustained_fps(),
        max_queue_depth: max_depth,
        mean_queue_depth: if depth_pushes == 0 {
            0.0
        } else {
            depth_sum as f64 / depth_pushes as f64
        },
        per_session,
        admission_log,
        pools: PoolsReport::snapshot().delta_since(&pools_before),
    })
}
