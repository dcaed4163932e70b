//! The TCP front end for the HD-VideoBench serve layer.
//!
//! `hdvb-serve` answers "how many concurrent codec sessions can this
//! machine sustain" for in-process callers. Real video infrastructure
//! is fed over sockets, and the network edge is where three policy
//! questions live that no in-process benchmark can ask:
//!
//! - **Wire robustness.** [`wire`] is a versioned, length-prefixed
//!   binary protocol (HELLO/OPEN/FRAME/PACKET/FLUSH/DONE/CLOSE/ERROR)
//!   with checksummed headers. Decoding never panics: every malformed
//!   byte stream maps to a typed [`WireError`], fuzzed from the
//!   `hdvb-fuzz` mutators and pinned by golden vectors.
//! - **Admission control.** [`SloPolicy`] rejects an OPEN when the
//!   fleet's rolling p99 would violate the latency SLO — and rejects
//!   batch traffic at a tighter threshold than live, so throughput work
//!   is shed *before* the live tail breaches. [`TokenBucket`] shapes
//!   each connection to its contracted input rate.
//! - **Saturation.** [`run_load_curve`] sweeps concurrent TCP client
//!   fleets against a loopback [`NetServer`] and emits the
//!   latency-vs-load curve (`hdvb-loadcurve/v1`): offered load,
//!   goodput, per-class p50/p99 and rejection rate — the knee where
//!   admission starts refusing batch is the machine's honest capacity.
//!
//! Every session is driven by one client, [`NetClient`]. Its
//! [`RetryPolicy`] budget decides what a lost connection costs: at zero
//! it is the plain client (no resume, first failure ends the session
//! with its cause); above zero it reconnects and resumes byte-identically.
//!
//! A loopback TCP transcode is byte-identical to the same session run
//! in-process through [`hdvb_serve::Server`] — the wire moves bytes,
//! never changes them (enforced in `tests/net.rs`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod admission;
pub mod chaos;
mod client;
pub mod faults;
pub mod golden;
mod loadcurve;
mod reader;
mod resume;
mod server;
pub mod wire;

pub use admission::{Rejection, SloPolicy, TokenBucket};
pub use chaos::{run_campaign, ChaosConfig, ChaosReport, ChaosTrial};
pub use client::{ClientResult, NetClient, NetError, RetryPolicy, RetryStats};
pub use faults::{FaultyStream, NetFaultKind, NetFaultPlan};
pub use loadcurve::{
    loadcurve_json, loadcurve_markdown, run_load_curve, ClassCell, LoadCurveCell, LoadCurveReport,
    LoadCurveSpec,
};
pub use server::{NetConfig, NetServer, NetStats};
pub use wire::{DoneStats, ErrorCode, Msg, MsgType, WireError};
