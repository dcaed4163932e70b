//! The latency-vs-load saturation sweep.
//!
//! For each point in `session_counts`, [`run_load_curve`] stands up a
//! fresh [`NetServer`] on a loopback port with SLO admission enabled
//! and drives it with real TCP clients — half live, half batch. Client
//! opens are *staggered* across the send window: an all-at-once open
//! burst would land entirely inside the admission controller's warm-up
//! grace (no latency samples yet) and nothing would ever be rejected.
//! Staggering means late openers face a rolling p99 built from the
//! early sessions' traffic, which is where the curve bends: batch OPENs
//! start bouncing off the `batch_headroom·SLO` threshold while the live
//! p99 still sits under the SLO — the ordering the overload test
//! asserts.
//!
//! Each client paces its own inputs open-loop (arrival times fixed in
//! advance by [`arrival_ns`], the in-process load generator's formula),
//! so a saturated server sees the offered load it was promised rather
//! than a politely backing-off one. Clients run with a zero reconnect
//! budget: a plain session, as a real fleet's first attempt would be.

use crate::admission::SloPolicy;
use crate::client::{NetClient, NetError, RetryPolicy};
use crate::server::{NetConfig, NetServer, NetStats};
use crate::wire::ErrorCode;
use hdvb_core::{CodecId, CodingOptions, Priority, SessionSpec};
use hdvb_frame::Resolution;
use hdvb_seq::{Sequence, SequenceId};
use hdvb_serve::{arrival_ns, PoolsReport, ServeMode, ServerConfig, SessionFeed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One latency-vs-load sweep configuration.
#[derive(Clone, Debug)]
pub struct LoadCurveSpec {
    /// Codec under test (encode/decode codec, or transcode target).
    pub codec: CodecId,
    /// Session workload direction.
    pub mode: ServeMode,
    /// The sweep axis: concurrent client sessions per cell.
    pub session_counts: Vec<u32>,
    /// Offered per-session input rate.
    pub fps: u32,
    /// Send window per cell (per-session items = `fps × duration`).
    pub duration: Duration,
    /// Frame size for the synthetic sequences.
    pub resolution: Resolution,
    /// Encoder quantiser for sessions and pre-encoded feeds.
    pub qscale: u16,
    /// B-frames between anchors.
    pub b_frames: u8,
    /// Per-session input queue capacity on the server.
    pub queue_capacity: usize,
    /// Pool worker threads (`0` = machine parallelism).
    pub threads: usize,
    /// The admission SLO every cell's server enforces.
    pub slo: SloPolicy,
    /// Per-connection token-bucket rate, inputs/second.
    pub rate_limit: Option<u32>,
    /// Arrival-jitter seed.
    pub seed: u64,
}

impl Default for LoadCurveSpec {
    fn default() -> Self {
        LoadCurveSpec {
            codec: CodecId::Mpeg2,
            mode: ServeMode::Encode,
            session_counts: vec![1, 2, 4, 8],
            fps: 30,
            duration: Duration::from_secs(2),
            resolution: Resolution::new(176, 144),
            qscale: 8,
            b_frames: 2,
            queue_capacity: 64,
            threads: 0,
            slo: SloPolicy::default(),
            rate_limit: None,
            seed: 0x48_44_56_42, // "HDVB"
        }
    }
}

/// Per-priority-class numbers for one sweep cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassCell {
    /// OPENs admitted.
    pub admitted: u64,
    /// OPENs rejected by admission control.
    pub rejected: u64,
    /// Inputs completed.
    pub completed: u64,
    /// Median frame latency, ns.
    pub p50_ns: u64,
    /// Tail frame latency, ns.
    pub p99_ns: u64,
}

impl ClassCell {
    /// Rejected OPENs over offered OPENs (0 when none offered).
    pub fn rejection_rate(&self) -> f64 {
        let offered = self.admitted + self.rejected;
        if offered == 0 {
            0.0
        } else {
            self.rejected as f64 / offered as f64
        }
    }
}

/// One point on the latency-vs-load curve.
#[derive(Clone, Debug)]
pub struct LoadCurveCell {
    /// Concurrent client sessions offered.
    pub sessions: u32,
    /// Aggregate offered input rate, inputs/second.
    pub offered_fps: f64,
    /// Aggregate completed-input rate over the cell wall, inputs/second.
    pub goodput_fps: f64,
    /// Cell wall time (send window + drain).
    pub wall: Duration,
    /// Mid-stream disconnects the server observed.
    pub disconnects: u64,
    /// Clients that failed for a reason other than admission rejection.
    pub client_errors: u64,
    /// Per-class numbers, indexed by [`Priority::index`].
    pub classes: [ClassCell; 2],
}

/// The whole sweep: config echo plus one [`LoadCurveCell`] per point.
#[derive(Clone, Debug)]
pub struct LoadCurveReport {
    /// Codec under test.
    pub codec: CodecId,
    /// Session workload direction.
    pub mode: ServeMode,
    /// Offered per-session input rate.
    pub fps: u32,
    /// Send window per cell.
    pub duration: Duration,
    /// Frame size.
    pub resolution: Resolution,
    /// Pool worker threads actually used.
    pub threads: usize,
    /// The admission SLO enforced.
    pub slo: SloPolicy,
    /// Arrival-jitter seed.
    pub seed: u64,
    /// The curve, in `session_counts` order.
    pub cells: Vec<LoadCurveCell>,
    /// Global pool activity over the whole sweep.
    pub pools: PoolsReport,
}

fn session_spec(spec: &LoadCurveSpec) -> SessionSpec {
    let base = match spec.mode {
        ServeMode::Encode => SessionSpec::encode(spec.codec, spec.resolution),
        ServeMode::Decode => SessionSpec::decode(spec.codec, spec.resolution),
        ServeMode::Transcode => SessionSpec::transcode(CodecId::Mpeg2, spec.codec, spec.resolution),
    };
    base.with_qscale(spec.qscale).with_b_frames(spec.b_frames)
}

/// Alternating priority: even client slots are live, odd are batch.
fn priority_of(client: u32) -> Priority {
    if client.is_multiple_of(2) {
        Priority::Live
    } else {
        Priority::Batch
    }
}

enum ClientOutcome {
    Finished,
    Rejected,
    Failed,
}

fn run_client(
    addr: std::net::SocketAddr,
    spec: &LoadCurveSpec,
    feed: &SessionFeed,
    client: u32,
    items: u32,
    epoch: Instant,
    open_at: Duration,
) -> ClientOutcome {
    let now = epoch.elapsed();
    if open_at > now {
        std::thread::sleep(open_at - now);
    }
    let policy = RetryPolicy {
        max_reconnects: 0,
        ..RetryPolicy::default()
    };
    let mut conn = match NetClient::with_faults(addr, policy, None) {
        Ok(c) => c,
        Err(_) => return ClientOutcome::Failed,
    };
    match conn.open(session_spec(spec), priority_of(client)) {
        Ok(_) => {}
        Err(NetError::Remote {
            code: ErrorCode::Rejected,
            ..
        }) => return ClientOutcome::Rejected,
        Err(_) => return ClientOutcome::Failed,
    }
    for i in 0..items {
        let target = open_at + Duration::from_nanos(arrival_ns(spec.seed, spec.fps, client, i));
        let now = epoch.elapsed();
        if target > now {
            std::thread::sleep(target - now);
        }
        if conn.send(feed.input(i)).is_err() {
            return ClientOutcome::Failed;
        }
    }
    match conn.finish() {
        Ok((result, _)) => {
            result.recycle();
            ClientOutcome::Finished
        }
        Err(_) => ClientOutcome::Failed,
    }
}

fn cell_from_stats(
    sessions: u32,
    offered_fps: f64,
    wall: Duration,
    client_errors: u64,
    stats: &NetStats,
) -> LoadCurveCell {
    let mut classes = [ClassCell::default(); 2];
    let mut total_completed = 0u64;
    for p in Priority::ALL {
        let i = p.index();
        classes[i] = ClassCell {
            admitted: stats.admitted[i],
            rejected: stats.rejected[i],
            completed: stats.completed[i],
            p50_ns: stats.latency[i].percentile(0.50),
            p99_ns: stats.latency[i].percentile(0.99),
        };
        total_completed += stats.completed[i];
    }
    LoadCurveCell {
        sessions,
        offered_fps,
        goodput_fps: if wall.as_secs_f64() > 0.0 {
            total_completed as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        wall,
        disconnects: stats.disconnects,
        client_errors,
        classes,
    }
}

/// Runs the sweep: one fresh loopback server and client fleet per
/// session count.
///
/// # Errors
///
/// Feed preparation or server bind failure; individual client failures
/// are counted in the cell, not fatal.
pub fn run_load_curve(spec: &LoadCurveSpec) -> Result<LoadCurveReport, String> {
    let pools_before = PoolsReport::snapshot();
    let items = ((f64::from(spec.fps) * spec.duration.as_secs_f64()).round() as u32).max(1);
    let seq = Sequence::new(SequenceId::ALL[0], spec.resolution);
    let options = CodingOptions::default()
        .with_qscale(spec.qscale)
        .with_b_frames(spec.b_frames);
    let feed = SessionFeed::build(spec.mode, spec.codec, seq, items.min(64), &options)?;
    let shared_spec = Arc::new(spec.clone());

    let mut cells = Vec::with_capacity(spec.session_counts.len());
    let mut threads_used = 0usize;
    for &sessions in &spec.session_counts {
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetConfig {
                server: ServerConfig {
                    threads: spec.threads,
                    queue_capacity: spec.queue_capacity,
                    ..ServerConfig::default()
                },
                slo: Some(spec.slo),
                rate_limit: spec.rate_limit,
                ..NetConfig::default()
            },
        )
        .map_err(|e| format!("binding loopback server: {e}"))?;
        threads_used = server.threads();
        let addr = server.local_addr();

        // Spread opens across the first 60% of the send window so late
        // openers are judged against real rolling-p99 evidence.
        let stagger = spec.duration.mul_f64(0.6) / sessions.max(1);
        let epoch = Instant::now();
        let mut joins = Vec::with_capacity(sessions as usize);
        for c in 0..sessions {
            let feed = feed.clone();
            let spec = Arc::clone(&shared_spec);
            let open_at = stagger * c;
            joins.push(std::thread::spawn(move || {
                run_client(addr, &spec, &feed, c, items, epoch, open_at)
            }));
        }
        let mut client_errors = 0u64;
        for j in joins {
            match j.join() {
                Ok(ClientOutcome::Failed) | Err(_) => client_errors += 1,
                Ok(_) => {}
            }
        }
        let wall = epoch.elapsed();
        let stats = server.stats();
        server.shutdown();
        cells.push(cell_from_stats(
            sessions,
            f64::from(sessions) * f64::from(spec.fps),
            wall,
            client_errors,
            &stats,
        ));
    }

    Ok(LoadCurveReport {
        codec: spec.codec,
        mode: spec.mode,
        fps: spec.fps,
        duration: spec.duration,
        resolution: spec.resolution,
        threads: threads_used,
        slo: spec.slo,
        seed: spec.seed,
        cells,
        pools: PoolsReport::snapshot().delta_since(&pools_before),
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the sweep as a markdown saturation table.
pub fn loadcurve_markdown(report: &LoadCurveReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# hdvb loadcurve — {} {} @{}fps/session, {}x{}, SLO p99 {:.0}ms (batch headroom {:.0}%), {} threads\n\n",
        report.codec,
        report.mode.name(),
        report.fps,
        report.resolution.width(),
        report.resolution.height(),
        report.slo.p99.as_secs_f64() * 1e3,
        report.slo.batch_headroom * 100.0,
        report.threads,
    ));
    out.push_str(
        "| sessions | offered fps | goodput fps | live adm/rej | batch adm/rej | live p50 ms | live p99 ms | batch p99 ms | batch rej% | disconnects |\n",
    );
    out.push_str(
        "|---------:|------------:|------------:|-------------:|--------------:|------------:|------------:|-------------:|-----------:|------------:|\n",
    );
    for c in &report.cells {
        let live = &c.classes[Priority::Live.index()];
        let batch = &c.classes[Priority::Batch.index()];
        out.push_str(&format!(
            "| {} | {:.0} | {:.1} | {}/{} | {}/{} | {:.2} | {:.2} | {:.2} | {:.1} | {} |\n",
            c.sessions,
            c.offered_fps,
            c.goodput_fps,
            live.admitted,
            live.rejected,
            batch.admitted,
            batch.rejected,
            ms(live.p50_ns),
            ms(live.p99_ns),
            ms(batch.p99_ns),
            batch.rejection_rate() * 100.0,
            c.disconnects,
        ));
    }
    out
}

fn json_class(c: &ClassCell) -> String {
    format!(
        "{{\"admitted\":{},\"rejected\":{},\"completed\":{},\"p50_ns\":{},\"p99_ns\":{},\"rejection_rate\":{:.6}}}",
        c.admitted, c.rejected, c.completed, c.p50_ns, c.p99_ns, c.rejection_rate(),
    )
}

fn json_cell(c: &LoadCurveCell) -> String {
    format!(
        "{{\"sessions\":{},\"offered_fps\":{:.3},\"goodput_fps\":{:.3},\"wall_ms\":{:.3},\"disconnects\":{},\"client_errors\":{},\"live\":{},\"batch\":{}}}",
        c.sessions,
        c.offered_fps,
        c.goodput_fps,
        c.wall.as_secs_f64() * 1e3,
        c.disconnects,
        c.client_errors,
        json_class(&c.classes[Priority::Live.index()]),
        json_class(&c.classes[Priority::Batch.index()]),
    )
}

/// Renders the sweep as the `hdvb-loadcurve/v1` JSON document.
pub fn loadcurve_json(report: &LoadCurveReport) -> String {
    let cells: Vec<String> = report.cells.iter().map(json_cell).collect();
    format!(
        "{{\"schema\":\"hdvb-loadcurve/v1\",\"codec\":\"{}\",\"mode\":\"{}\",\"fps\":{},\"duration_ms\":{:.0},\"width\":{},\"height\":{},\"threads\":{},\"slo_p99_ms\":{:.3},\"slo_min_samples\":{},\"slo_batch_headroom\":{:.3},\"seed\":{},\"pools\":{},\"cells\":[{}]}}\n",
        report.codec,
        report.mode.name(),
        report.fps,
        report.duration.as_secs_f64() * 1e3,
        report.resolution.width(),
        report.resolution.height(),
        report.threads,
        report.slo.p99.as_secs_f64() * 1e3,
        report.slo.min_samples,
        report.slo.batch_headroom,
        report.seed,
        hdvb_serve::json_pools(&report.pools),
        cells.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LoadCurveReport {
        LoadCurveReport {
            codec: CodecId::Mpeg2,
            mode: ServeMode::Encode,
            fps: 30,
            duration: Duration::from_secs(1),
            resolution: Resolution::new(176, 144),
            threads: 4,
            slo: SloPolicy::default(),
            seed: 7,
            cells: vec![LoadCurveCell {
                sessions: 4,
                offered_fps: 120.0,
                goodput_fps: 110.5,
                wall: Duration::from_millis(1500),
                disconnects: 0,
                client_errors: 0,
                classes: [
                    ClassCell {
                        admitted: 2,
                        rejected: 0,
                        completed: 60,
                        p50_ns: 4_000_000,
                        p99_ns: 9_000_000,
                    },
                    ClassCell {
                        admitted: 1,
                        rejected: 1,
                        completed: 30,
                        p50_ns: 5_000_000,
                        p99_ns: 12_000_000,
                    },
                ],
            }],
            pools: PoolsReport::default(),
        }
    }

    #[test]
    fn json_has_schema_and_both_classes() {
        let j = loadcurve_json(&sample());
        assert!(j.contains("\"schema\":\"hdvb-loadcurve/v1\""));
        assert!(j.contains("\"live\":{\"admitted\":2"));
        assert!(j.contains("\"batch\":{\"admitted\":1,\"rejected\":1"));
        assert!(j.contains("\"rejection_rate\":0.5"));
        assert!(j.contains("\"pools\":"));
    }

    #[test]
    fn markdown_has_one_row_per_cell() {
        let md = loadcurve_markdown(&sample());
        assert!(md.contains("| sessions |"));
        assert!(md.contains("| 4 | 120 | 110.5 | 2/0 | 1/1 |"));
    }

    #[test]
    fn rejection_rate_handles_empty_class() {
        assert_eq!(ClassCell::default().rejection_rate(), 0.0);
    }
}
