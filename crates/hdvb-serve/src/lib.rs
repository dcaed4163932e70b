//! The streaming transcode service layer.
//!
//! HD-VideoBench's batch runners answer "how fast is one codec on one
//! clip". Production video infrastructure asks a different question:
//! how many concurrent encode/decode/transcode *sessions* can a
//! machine sustain while every frame still meets its latency SLO? This
//! crate answers it:
//!
//! - [`Server`] multiplexes hundreds of incremental
//!   [`CodecSession`](hdvb_core::CodecSession)s over one work-stealing
//!   pool, with per-session bounded input queues ([`BoundedQueue`])
//!   whose [`OverflowPolicy`] makes the backpressure contract explicit
//!   (block the producer, or shed the oldest frame).
//! - Sessions cancel cooperatively mid-stream and a [`Server::drain`]
//!   completes all in-flight work before shutdown.
//! - [`run_serve_bench`] drives the server with a deterministic,
//!   seeded *open-loop* load schedule ([`build_schedule`]) and reports
//!   fleet-wide p50/p95/p99 frame latency, jitter, queue depth and
//!   sustained throughput ([`ServeBenchReport`], rendered by
//!   [`serve_markdown`]/[`serve_json`]).
//!
//! A single-session serve run pushes exactly the inputs the batch path
//! would, in the same order, so its output is bit-identical to
//! `encode`/`decode` — serving changes scheduling, never results
//! (enforced in `tests/serve.rs`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod ladder;
mod loadgen;
mod metrics;
mod queue;
mod report;
mod server;

pub use ladder::{run_ladder_serve, ServeLadder, ServeRung};
pub use loadgen::{
    arrival_ns, build_schedule, run_serve_bench, Arrival, LoadSpec, ServeMode, SessionFeed,
};
pub use metrics::SessionMetrics;
pub use queue::{BoundedQueue, Closed, OverflowPolicy, QueueStats};
pub use report::{
    json_pools, serve_json, serve_markdown, PoolsReport, ServeBenchReport, SessionSummary,
};
pub use server::{
    OpenOptions, OutputSink, Server, ServerConfig, SessionHandle, SessionResult, SubmitError,
};

/// The number of OS threads in this process, from `/proc/self/status`
/// (`None` where /proc is unavailable). Thread-leak tests compare this
/// before and after a server's lifetime: a clean shutdown must return
/// the process to its baseline thread count.
pub fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}
