//! Serve-bench reporting: the fleet latency table and
//! `BENCH_serve.json`.

use crate::loadgen::ServeMode;
use crate::queue::OverflowPolicy;
use hdvb_core::CodecId;
use hdvb_frame::{BufferPool, FramePool, PoolStats, Resolution};
use hdvb_trace::LatencyHistogram;
use std::time::Duration;

/// Global pool traffic attributable to one run: the [`FramePool`] and
/// [`BufferPool`] counter deltas between the run's start and end. A
/// falling hit rate here is a pool-efficiency regression — frames or
/// bitstream buffers leaking out of the recycle loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolsReport {
    /// Frame-pool traffic.
    pub frame: PoolStats,
    /// Bitstream-buffer-pool traffic.
    pub buffer: PoolStats,
}

impl PoolsReport {
    /// The global pools' counters right now.
    pub fn snapshot() -> PoolsReport {
        PoolsReport {
            frame: FramePool::global().stats(),
            buffer: BufferPool::global().stats(),
        }
    }

    /// Traffic between `earlier` and this snapshot.
    pub fn delta_since(&self, earlier: &PoolsReport) -> PoolsReport {
        PoolsReport {
            frame: self.frame.delta_since(&earlier.frame),
            buffer: self.buffer.delta_since(&earlier.buffer),
        }
    }
}

fn json_pool(s: &PoolStats) -> String {
    format!(
        concat!(
            "{{\"takes\":{},\"hits\":{},\"misses\":{},",
            "\"returns\":{},\"dropped\":{},\"hit_rate\":{:.4}}}"
        ),
        s.takes,
        s.hits,
        s.misses,
        s.returns,
        s.dropped,
        s.hit_rate()
    )
}

/// The `pools` JSON object shared by the serve and serve-load reports.
pub fn json_pools(p: &PoolsReport) -> String {
    format!(
        "{{\"frame\":{},\"buffer\":{}}}",
        json_pool(&p.frame),
        json_pool(&p.buffer)
    )
}

/// Per-session tail summary carried inside a [`ServeBenchReport`].
#[derive(Clone, Debug)]
pub struct SessionSummary {
    /// Session index.
    pub session: u32,
    /// Inputs whose processing completed.
    pub completed: u64,
    /// Inputs discarded unprocessed (queue eviction or late drain).
    pub discarded: u64,
    /// Median admission-to-completion latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Mean absolute latency delta between consecutive inputs, ns.
    pub jitter_ns: u64,
    /// Completions per second over the session's active window.
    pub sustained_fps: f64,
    /// The error that retired the session early, if any.
    pub error: Option<String>,
}

/// Everything one serve-bench run measured.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    /// Codec under test.
    pub codec: CodecId,
    /// Workload direction.
    pub mode: ServeMode,
    /// Concurrent sessions.
    pub sessions: u32,
    /// Offered per-session input rate.
    pub offered_fps: u32,
    /// Schedule length.
    pub duration: Duration,
    /// Frame size.
    pub resolution: Resolution,
    /// Queue overflow policy.
    pub policy: OverflowPolicy,
    /// Per-session queue capacity.
    pub queue_capacity: usize,
    /// Arrival-jitter seed.
    pub seed: u64,
    /// Pool worker threads that served the run.
    pub threads: usize,
    /// Inputs the schedule offered.
    pub offered: u64,
    /// Inputs admitted into session queues.
    pub admitted: u64,
    /// Inputs whose processing completed.
    pub completed: u64,
    /// Inputs discarded unprocessed.
    pub discarded: u64,
    /// Submissions refused because the session had already retired.
    pub rejected: u64,
    /// Corrupt packets dropped by resilient sessions.
    pub corrupt_dropped: u64,
    /// Sessions that retired with an error.
    pub errors: u64,
    /// Wall-clock time from first scheduled arrival to full drain.
    pub wall: Duration,
    /// Fleet-wide latency histogram (every session merged).
    pub fleet: LatencyHistogram,
    /// Fleet-wide mean jitter, ns.
    pub jitter_mean_ns: u64,
    /// Fleet-wide completions per second over the active window.
    pub sustained_fps: f64,
    /// Highest queue depth any session reached.
    pub max_queue_depth: usize,
    /// Mean post-push queue depth across all admissions.
    pub mean_queue_depth: f64,
    /// Per-session tails.
    pub per_session: Vec<SessionSummary>,
    /// Admission order actually executed, as `(session, item)` pairs —
    /// deterministic for a fixed seed.
    pub admission_log: Vec<(u32, u32)>,
    /// Global pool traffic over the run.
    pub pools: PoolsReport,
}

impl ServeBenchReport {
    /// Fleet latency percentile in ns (conservative bucket upper
    /// bound).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        self.fleet.percentile(p)
    }

    /// The offered fleet rate: sessions × per-session fps.
    pub fn offered_fleet_fps(&self) -> f64 {
        f64::from(self.sessions) * f64::from(self.offered_fps)
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The fleet-wide latency/SLO table for a set of runs (one row per
/// codec/mode configuration).
pub fn serve_markdown(runs: &[ServeBenchReport]) -> String {
    let mut out = String::new();
    out.push_str(
        "| codec | mode  | sessions | offered fps | sustained fps | p50 | p95 | p99 | max | jitter | q-depth max/mean | dropped | pool hit% F/B |\n",
    );
    out.push_str(
        "|-------|-------|---------:|------------:|--------------:|----:|----:|----:|----:|-------:|-----------------:|--------:|--------------:|\n",
    );
    for r in runs {
        out.push_str(&format!(
            "| {} | {} | {} | {:.0} | {:.1} | {} | {} | {} | {} | {} | {}/{:.2} | {} | {:.0}/{:.0} |\n",
            r.codec.name(),
            r.mode.name(),
            r.sessions,
            r.offered_fleet_fps(),
            r.sustained_fps,
            fmt_ns(r.percentile_ns(0.50)),
            fmt_ns(r.percentile_ns(0.95)),
            fmt_ns(r.percentile_ns(0.99)),
            fmt_ns(r.fleet.max_ns()),
            fmt_ns(r.jitter_mean_ns),
            r.max_queue_depth,
            r.mean_queue_depth,
            r.discarded,
            r.pools.frame.hit_rate() * 100.0,
            r.pools.buffer.hit_rate() * 100.0,
        ));
    }
    out
}

fn json_session(s: &SessionSummary) -> String {
    format!(
        concat!(
            "{{\"session\":{},\"completed\":{},\"discarded\":{},",
            "\"p50_ns\":{},\"p99_ns\":{},\"jitter_ns\":{},",
            "\"sustained_fps\":{:.3},\"error\":{}}}"
        ),
        s.session,
        s.completed,
        s.discarded,
        s.p50_ns,
        s.p99_ns,
        s.jitter_ns,
        s.sustained_fps,
        match &s.error {
            Some(e) => hdvb_trace::json::escape(e),
            None => "null".to_string(),
        }
    )
}

fn json_run(r: &ServeBenchReport) -> String {
    let sessions: Vec<String> = r.per_session.iter().map(json_session).collect();
    format!(
        concat!(
            "{{\"codec\":\"{}\",\"mode\":\"{}\",\"sessions\":{},",
            "\"offered_fps\":{},\"duration_s\":{:.3},",
            "\"resolution\":\"{}x{}\",\"policy\":\"{}\",",
            "\"queue_capacity\":{},\"seed\":{},\"threads\":{},",
            "\"offered\":{},\"admitted\":{},\"completed\":{},",
            "\"discarded\":{},\"rejected\":{},\"corrupt_dropped\":{},",
            "\"errors\":{},\"wall_s\":{:.3},",
            "\"latency_ns\":{{\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{},\"mean\":{}}},",
            "\"jitter_mean_ns\":{},\"sustained_fps\":{:.3},",
            "\"queue_depth\":{{\"max\":{},\"mean\":{:.3}}},",
            "\"pools\":{},",
            "\"per_session\":[{}]}}"
        ),
        r.codec.name(),
        r.mode.name(),
        r.sessions,
        r.offered_fps,
        r.duration.as_secs_f64(),
        r.resolution.width(),
        r.resolution.height(),
        r.policy.name(),
        r.queue_capacity,
        r.seed,
        r.threads,
        r.offered,
        r.admitted,
        r.completed,
        r.discarded,
        r.rejected,
        r.corrupt_dropped,
        r.errors,
        r.wall.as_secs_f64(),
        r.percentile_ns(0.50),
        r.percentile_ns(0.95),
        r.percentile_ns(0.99),
        r.fleet.max_ns(),
        r.fleet.mean_ns(),
        r.jitter_mean_ns,
        r.sustained_fps,
        r.max_queue_depth,
        r.mean_queue_depth,
        json_pools(&r.pools),
        sessions.join(",")
    )
}

/// The `BENCH_serve.json` document for a set of runs.
pub fn serve_json(runs: &[ServeBenchReport]) -> String {
    let body: Vec<String> = runs.iter().map(json_run).collect();
    format!(
        "{{\"schema\":\"hdvb-serve-bench/v1\",\"runs\":[{}]}}\n",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeBenchReport {
        let mut fleet = LatencyHistogram::new();
        for ns in [1_000u64, 2_000, 4_000, 1_000_000] {
            fleet.record(ns);
        }
        ServeBenchReport {
            codec: CodecId::H264,
            mode: ServeMode::Encode,
            sessions: 2,
            offered_fps: 30,
            duration: Duration::from_secs(1),
            resolution: Resolution::new(64, 48),
            policy: OverflowPolicy::Block,
            queue_capacity: 8,
            seed: 1,
            threads: 4,
            offered: 60,
            admitted: 60,
            completed: 60,
            discarded: 0,
            rejected: 0,
            corrupt_dropped: 0,
            errors: 0,
            wall: Duration::from_secs(2),
            fleet,
            jitter_mean_ns: 500,
            sustained_fps: 29.5,
            max_queue_depth: 3,
            mean_queue_depth: 1.25,
            per_session: vec![SessionSummary {
                session: 0,
                completed: 30,
                discarded: 0,
                p50_ns: 2_048,
                p99_ns: 1 << 20,
                jitter_ns: 500,
                sustained_fps: 29.5,
                error: None,
            }],
            admission_log: vec![(0, 0), (1, 0)],
            pools: PoolsReport::default(),
        }
    }

    #[test]
    fn markdown_has_a_row_per_run() {
        let md = serve_markdown(&[sample()]);
        assert!(md.contains("| h264 | encode | 2 | 60 |"), "{md}");
        assert!(md.lines().count() == 3);
    }

    #[test]
    fn json_parses_and_carries_the_slo_fields() {
        let doc = serve_json(&[sample()]);
        let v = hdvb_trace::json::parse(&doc).expect("valid json");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("hdvb-serve-bench/v1")
        );
        let runs = v.get("runs").and_then(|r| r.as_array()).unwrap();
        assert_eq!(runs.len(), 1);
        let lat = runs[0].get("latency_ns").unwrap();
        assert!(lat.get("p99").and_then(|p| p.as_f64()).unwrap() > 0.0);
        assert!(runs[0].get("queue_depth").is_some());
        let pools = runs[0].get("pools").expect("pools object");
        assert!(pools.get("frame").and_then(|f| f.get("hit_rate")).is_some());
        assert!(pools.get("buffer").and_then(|b| b.get("takes")).is_some());
    }

    #[test]
    fn json_carries_a_session_error_as_one_string() {
        let mut run = sample();
        run.per_session[0].error = Some("a \"b\"\n".to_string());
        let v = hdvb_trace::json::parse(&serve_json(&[run])).expect("valid json");
        let session = &v.get("runs").and_then(|r| r.as_array()).unwrap()[0]
            .get("per_session")
            .and_then(|s| s.as_array())
            .unwrap()[0];
        assert_eq!(
            session.get("error").and_then(|e| e.as_str()),
            Some("a \"b\"\n")
        );
    }

    #[test]
    fn pool_deltas_subtract_and_rate() {
        let a = PoolStats {
            takes: 10,
            hits: 8,
            misses: 2,
            returns: 9,
            dropped: 1,
        };
        let b = PoolStats {
            takes: 30,
            hits: 26,
            misses: 4,
            returns: 29,
            dropped: 1,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.takes, 20);
        assert_eq!(d.hits, 18);
        assert_eq!(d.dropped, 0);
        assert!((d.hit_rate() - 0.9).abs() < 1e-9);
        assert_eq!(PoolStats::default().hit_rate(), 1.0);
    }
}
