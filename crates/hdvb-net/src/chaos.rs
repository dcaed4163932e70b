//! Seeded chaos campaigns with byte-identity verdicts.
//!
//! A campaign boots a loopback [`NetServer`], runs one *fault-free*
//! reference session, then replays the identical input stream through
//! [`RetryClient`]s whose sockets inject a seeded [`NetFaultPlan`]
//! (drops, truncations, stalls, bit garbles). The verdict is binary:
//! every faulted trial's output must be **byte-identical** to the
//! reference — same packets, same frames, same order — or the campaign
//! fails. Recovery cost (reconnects, replayed inputs, detection and
//! recovery latency histograms) is reported alongside, serialised as
//! the `hdvb-chaos/v1` JSON document (`BENCH_chaos.json`).
//!
//! Everything is deterministic given the config: the fault plan is
//! re-parsed per trial so each trial starts with a fresh message clock,
//! the input frames come from the seeded synthetic sequences, and
//! backoff jitter derives from the per-trial retry seed. Only the
//! latency histograms carry wall-clock noise, and nothing gates on
//! them.

use crate::retry::{RetryClient, RetryPolicy, RetryStats};
use crate::server::{NetConfig, NetServer, NetStats};
use crate::{NetError, NetFaultPlan};
use hdvb_core::hash::{checksum64, fnv1a64_update, FNV1A64_INIT};
use hdvb_core::{CodecId, Priority, SessionInput, SessionSpec};
use hdvb_frame::Resolution;
use hdvb_seq::{Sequence, SequenceId};
use std::sync::Arc;
use std::time::Duration;

/// One chaos campaign's shape.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Codec for the encode session under test.
    pub codec: CodecId,
    /// Synthetic input sequence.
    pub sequence: SequenceId,
    /// Input resolution.
    pub resolution: Resolution,
    /// Frames streamed per run.
    pub frames: u32,
    /// Scheduling class of every session.
    pub priority: Priority,
    /// The fault plan spec (the `HDVB_NET_FAULTS` grammar). Re-parsed
    /// for every trial so each starts with a fresh message clock.
    pub plan: String,
    /// Reconnect budget and backoff shape; `seed` is XORed with the
    /// trial index so trials jitter differently but reproducibly.
    pub policy: RetryPolicy,
    /// Server heartbeat interval (dead peers reaped at twice this).
    pub heartbeat: Duration,
    /// Faulted runs to execute against the shared reference.
    pub trials: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            codec: CodecId::Mpeg2,
            sequence: SequenceId::BlueSky,
            resolution: Resolution::new(176, 144),
            frames: 24,
            priority: Priority::Batch,
            plan: String::new(),
            policy: RetryPolicy::default(),
            heartbeat: Duration::from_millis(200),
            trials: 1,
        }
    }
}

/// What one run (reference or trial) produced, reduced to the parts
/// that must match byte for byte.
#[derive(Clone, Debug, Default)]
struct RunDigest {
    packets: usize,
    frames: usize,
    completed: u64,
    digest: u64,
}

/// One faulted trial's verdict and recovery accounting.
#[derive(Clone, Debug)]
pub struct ChaosTrial {
    /// Output matched the reference byte for byte.
    pub identical: bool,
    /// 64-bit digest over the output stream, in order.
    pub digest: u64,
    /// Output packets received.
    pub packets: usize,
    /// Output frames received.
    pub frames: usize,
    /// Inputs the server reported completed.
    pub completed: u64,
    /// Client-side recovery accounting.
    pub retry: RetryStats,
    /// Fault rules that fired during the trial.
    pub faults_fired: usize,
    /// Fault rules in the plan.
    pub faults_total: usize,
    /// The error that ended the trial, if it did not complete.
    pub error: Option<String>,
}

/// A finished campaign: the reference, every trial, and the server's
/// fleet counters at shutdown.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The campaign configuration echoed back.
    pub config: ChaosConfig,
    /// Reference (fault-free) output shape and digest.
    reference: RunDigest,
    /// Every faulted trial, in execution order.
    pub trials: Vec<ChaosTrial>,
    /// Server fleet counters after shutdown.
    pub server: NetStats,
}

impl ChaosReport {
    /// True when every trial completed and matched the reference.
    pub fn all_identical(&self) -> bool {
        !self.trials.is_empty() && self.trials.iter().all(|t| t.identical && t.error.is_none())
    }

    /// Total successful reconnects across trials.
    pub fn total_reconnects(&self) -> u64 {
        self.trials.iter().map(|t| t.retry.reconnects).sum()
    }

    /// Total inputs replayed after resumes across trials.
    pub fn total_replayed_inputs(&self) -> u64 {
        self.trials.iter().map(|t| t.retry.replayed_inputs).sum()
    }

    /// The `hdvb-chaos/v1` JSON document (`BENCH_chaos.json`).
    pub fn json(&self) -> String {
        let runs: Vec<String> = self
            .trials
            .iter()
            .enumerate()
            .map(|(i, t)| {
                format!(
                    concat!(
                        "{{\"trial\":{},\"identical\":{},\"digest\":\"{:016x}\",",
                        "\"packets\":{},\"frames\":{},\"completed\":{},",
                        "\"reconnects\":{},\"attempts\":{},\"replayed_inputs\":{},",
                        "\"faults_fired\":{},\"faults_total\":{},",
                        "\"detect_ns\":{},\"recover_ns\":{},\"error\":{}}}"
                    ),
                    i,
                    t.identical,
                    t.digest,
                    t.packets,
                    t.frames,
                    t.completed,
                    t.retry.reconnects,
                    t.retry.attempts,
                    t.retry.replayed_inputs,
                    t.faults_fired,
                    t.faults_total,
                    t.retry.detect.json_summary(),
                    t.retry.recover.json_summary(),
                    match &t.error {
                        Some(e) => hdvb_trace::json::escape(e),
                        None => "null".to_string(),
                    },
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"schema\":\"hdvb-chaos/v1\",\"plan\":{},",
                "\"codec\":\"{}\",\"sequence\":\"{}\",\"resolution\":\"{}x{}\",",
                "\"frames\":{},\"trials\":{},\"heartbeat_ms\":{},",
                "\"identical\":{},",
                "\"reference\":{{\"packets\":{},\"frames\":{},\"completed\":{},",
                "\"digest\":\"{:016x}\"}},",
                "\"server\":{{\"connections\":{},\"disconnects\":{},\"timeouts\":{},",
                "\"resumes\":{},\"replayed\":{},\"parked\":{},\"expired\":{},",
                "\"wire_errors\":{},\"pings\":{}}},",
                "\"runs\":[{}]}}\n"
            ),
            hdvb_trace::json::escape(&self.config.plan),
            self.config.codec.name(),
            self.config.sequence.name(),
            self.config.resolution.width(),
            self.config.resolution.height(),
            self.config.frames,
            self.trials.len(),
            self.config.heartbeat.as_millis(),
            self.all_identical(),
            self.reference.packets,
            self.reference.frames,
            self.reference.completed,
            self.reference.digest,
            self.server.connections,
            self.server.disconnects,
            self.server.timeouts,
            self.server.resumes,
            self.server.replayed,
            self.server.parked,
            self.server.expired,
            self.server.wire_errors,
            self.server.pings,
            runs.join(","),
        )
    }
}

/// Folds one bulk buffer (packet data, a frame plane) into the run
/// digest through its `checksum64` (which covers the length), rather
/// than a byte-serial walk over megabytes of samples. Digests are only
/// ever compared within one campaign, so the function is free to change.
fn digest_bulk(h: u64, bytes: &[u8]) -> u64 {
    fnv1a64_update(h, &checksum64(bytes).to_le_bytes())
}

/// Runs one session to completion and reduces its output to a digest.
/// `plan: None` is the fault-free reference path.
fn run_one(
    addr: std::net::SocketAddr,
    cfg: &ChaosConfig,
    plan: Option<Arc<NetFaultPlan>>,
    trial: u32,
) -> Result<(RunDigest, RetryStats), NetError> {
    let mut policy = cfg.policy.clone();
    policy.seed ^= u64::from(trial).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut client = RetryClient::with_faults(addr, policy, plan)?;
    let spec = SessionSpec::encode(cfg.codec, cfg.resolution);
    client.open(spec, cfg.priority)?;
    let seq = Sequence::new(cfg.sequence, cfg.resolution);
    for i in 0..cfg.frames {
        client.send(SessionInput::Frame(seq.frame(i)))?;
    }
    let (result, stats) = client.finish()?;
    let mut h = FNV1A64_INIT;
    for p in &result.packets {
        h = fnv1a64_update(h, &[p.kind as u8]);
        h = fnv1a64_update(h, &p.display_index.to_le_bytes());
        h = digest_bulk(h, &p.data);
    }
    for f in &result.frames {
        h = fnv1a64_update(h, &(f.width() as u64).to_le_bytes());
        h = fnv1a64_update(h, &(f.height() as u64).to_le_bytes());
        for plane in [f.y(), f.cb(), f.cr()] {
            h = digest_bulk(h, plane.data());
        }
    }
    let digest = RunDigest {
        packets: result.packets.len(),
        frames: result.frames.len(),
        completed: result.stats.completed,
        digest: h,
    };
    result.recycle();
    Ok((digest, stats))
}

/// Runs a full campaign: boots a loopback server, takes the fault-free
/// reference, executes every faulted trial, and returns the report.
/// Trials that die (budget exhausted, fatal server error) are recorded
/// with their error rather than aborting the campaign.
///
/// # Errors
///
/// A malformed fault plan, a bind failure, or a failed *reference* run
/// — without a reference there is nothing to compare against.
pub fn run_campaign(cfg: &ChaosConfig) -> Result<ChaosReport, NetError> {
    NetFaultPlan::parse(&cfg.plan).map_err(NetError::Protocol)?;
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            heartbeat: cfg.heartbeat,
            ..NetConfig::default()
        },
    )?;
    let addr = server.local_addr();

    let (reference, _) = run_one(addr, cfg, None, u32::MAX)?;

    let mut trials = Vec::with_capacity(cfg.trials as usize);
    for t in 0..cfg.trials {
        // A fresh plan per trial: the message clock and fired flags
        // start at zero, so every trial sees the same faults.
        let plan = Arc::new(NetFaultPlan::parse(&cfg.plan).map_err(NetError::Protocol)?);
        let trial = match run_one(addr, cfg, Some(Arc::clone(&plan)), t) {
            Ok((digest, retry)) => ChaosTrial {
                identical: digest.digest == reference.digest
                    && digest.packets == reference.packets
                    && digest.frames == reference.frames,
                digest: digest.digest,
                packets: digest.packets,
                frames: digest.frames,
                completed: digest.completed,
                retry,
                faults_fired: plan.fired(),
                faults_total: plan.total(),
                error: None,
            },
            Err(e) => ChaosTrial {
                identical: false,
                digest: 0,
                packets: 0,
                frames: 0,
                completed: 0,
                retry: RetryStats::default(),
                faults_fired: plan.fired(),
                faults_total: plan.total(),
                error: Some(e.to_string()),
            },
        };
        trials.push(trial);
    }

    let stats = server.stats();
    server.shutdown();
    Ok(ChaosReport {
        config: cfg.clone(),
        reference,
        trials,
        server: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole acceptance criterion end to end: a plan injecting
    /// three disconnects (two drops, one truncation) plus a stall and a
    /// bit garble still yields byte-identical output, and the JSON
    /// document is strict JSON carrying the verdict.
    #[test]
    fn faulted_campaign_is_byte_identical_and_reports_json() {
        let cfg = ChaosConfig {
            frames: 12,
            resolution: Resolution::new(96, 80),
            // Each sever is spaced past the previous outage's recovery
            // traffic (HELLO + RESUME + replay), so the three severing
            // rules produce three distinct disconnect/resume cycles and
            // the garbled message a fourth.
            plan: "drop@4,stall@6:20,truncate@12:13,garble@16,drop@20,seed=11".into(),
            heartbeat: Duration::from_millis(150),
            trials: 2,
            ..ChaosConfig::default()
        };
        let report = run_campaign(&cfg).expect("campaign");
        for (i, t) in report.trials.iter().enumerate() {
            assert_eq!(t.error, None, "trial {i}");
            assert!(t.identical, "trial {i} output diverged from reference");
            assert_eq!(t.faults_fired, t.faults_total, "trial {i} faults");
            assert!(t.retry.reconnects >= 3, "trial {i}: {:?}", t.retry);
        }
        assert!(report.all_identical());
        assert!(report.total_reconnects() >= 6);
        assert!(report.server.resumes >= 6);

        let doc = hdvb_trace::json::parse(&report.json()).expect("strict json");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("hdvb-chaos/v1")
        );
        assert_eq!(
            doc.get("identical"),
            Some(&hdvb_trace::json::Value::Bool(true))
        );
        let runs = doc.get("runs").and_then(|v| v.as_array()).expect("runs");
        assert_eq!(runs.len(), 2);
        for r in runs {
            assert!(r.get("detect_ns").and_then(|v| v.get("count")).is_some());
            assert!(r.get("recover_ns").and_then(|v| v.get("count")).is_some());
        }
    }

    /// A malformed plan is rejected before any socket is opened.
    #[test]
    fn bad_plan_is_a_typed_error() {
        let cfg = ChaosConfig {
            plan: "explode@2".into(),
            ..ChaosConfig::default()
        };
        match run_campaign(&cfg) {
            Err(NetError::Protocol(d)) => assert!(d.contains("explode"), "{d}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }
}
