//! Collected-trace reporting: the per-stage summary table and the
//! chrome://tracing (Perfetto) Trace Event JSON export.

use crate::{Counter, Event, Stage, COUNTER_COUNT, HIST_BUCKETS, ROOT_PARENT, STAGE_COUNT};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One thread's share of a collected trace.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// Registration-order thread id (also the chrome-trace `tid`).
    pub tid: u32,
    /// Thread name (OS thread name, or `thread-N`).
    pub name: String,
    /// Completed spans recorded with [`span!`](crate::span), capped at the
    /// ring capacity.
    pub events: Vec<Event>,
    /// Counter totals in [`Counter::ALL`] order.
    pub counters: [u64; COUNTER_COUNT],
    /// Events lost to ring overflow.
    pub dropped: u64,
}

/// One row of the per-stage summary: a `(stage, parent)` pair.
#[derive(Clone, Debug)]
pub struct StageRow {
    /// The instrumented stage.
    pub stage: Stage,
    /// The enclosing stage, or `None` for top-level spans.
    pub parent: Option<Stage>,
    /// Completed spans.
    pub count: u64,
    /// Total wall time in nanoseconds.
    pub total_ns: u64,
    /// Mean span duration in nanoseconds.
    pub mean_ns: u64,
    /// Approximate 99th-percentile duration (log2-histogram upper bound,
    /// aggregated over all parents of this stage), capped at `max_ns`.
    pub p99_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
    /// This row's total as a fraction of its parent's total time (or of
    /// all top-level time for parentless rows), in `[0, 1]`.
    pub pct_of_parent: f64,
}

/// An owned snapshot of every thread's trace state.
pub struct TraceReport {
    /// Per-thread events and counters.
    pub threads: Vec<ThreadTrace>,
    /// `(stage, parent)` → `[count, total_ns, max_ns]`.
    slots: Vec<[u64; 3]>,
    /// Per-stage log2 duration histograms.
    hist: Vec<[u64; HIST_BUCKETS]>,
}

impl TraceReport {
    pub(crate) fn new(
        threads: Vec<ThreadTrace>,
        slots: Vec<[u64; 3]>,
        hist: Vec<[u64; HIST_BUCKETS]>,
    ) -> TraceReport {
        TraceReport {
            threads,
            slots,
            hist,
        }
    }

    fn slot(&self, stage: Stage, parent: Option<Stage>) -> &[u64; 3] {
        let p = parent.map_or(usize::from(ROOT_PARENT), |p| p as usize);
        &self.slots[(stage as usize) * (STAGE_COUNT + 1) + p]
    }

    /// Span count for a `(stage, parent)` pair.
    pub fn pair_count(&self, stage: Stage, parent: Option<Stage>) -> u64 {
        self.slot(stage, parent)[0]
    }

    /// Total nanoseconds for a `(stage, parent)` pair.
    pub fn pair_total(&self, stage: Stage, parent: Option<Stage>) -> u64 {
        self.slot(stage, parent)[1]
    }

    /// Total nanoseconds recorded for `stage` across all parents.
    pub fn stage_total(&self, stage: Stage) -> u64 {
        (0..=STAGE_COUNT)
            .map(|p| self.slots[(stage as usize) * (STAGE_COUNT + 1) + p][1])
            .sum()
    }

    /// Span count for `stage` across all parents.
    pub fn stage_count(&self, stage: Stage) -> u64 {
        (0..=STAGE_COUNT)
            .map(|p| self.slots[(stage as usize) * (STAGE_COUNT + 1) + p][0])
            .sum()
    }

    /// A counter summed over all threads.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.threads
            .iter()
            .map(|t| t.counters[counter as usize])
            .sum()
    }

    /// Events lost to ring overflow, all threads.
    pub fn dropped_total(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Fraction of `root`'s recorded time that is attributed to child
    /// stages nested directly under it (the tentpole's ≥ 90 % coverage
    /// criterion, with `root = Stage::EncodeFrame`). `None` if `root`
    /// recorded no time.
    pub fn coverage_of(&self, root: Stage) -> Option<f64> {
        let total = self.stage_total(root);
        if total == 0 {
            return None;
        }
        let children: u64 = Stage::ALL
            .iter()
            .filter(|&&s| s != root)
            .map(|&s| self.pair_total(s, Some(root)))
            .sum();
        Some(children as f64 / total as f64)
    }

    /// Approximate p99 duration for `stage` from its log2 histogram: the
    /// upper bound of the bucket containing the 99th percentile, capped
    /// at the stage's longest span.
    pub fn p99_ns(&self, stage: Stage) -> u64 {
        let max_ns = (0..=STAGE_COUNT)
            .map(|p| self.slots[(stage as usize) * (STAGE_COUNT + 1) + p][2])
            .max()
            .unwrap_or(0);
        crate::LatencyHistogram::from_buckets(&self.hist[stage as usize], max_ns).percentile(0.99)
    }

    /// All non-empty `(stage, parent)` rows, parents first, children
    /// ordered by declining total within their parent.
    pub fn rows(&self) -> Vec<StageRow> {
        let mut rows = Vec::new();
        for stage in Stage::ALL {
            for p in 0..=STAGE_COUNT {
                let [count, total_ns, max_ns] =
                    self.slots[(stage as usize) * (STAGE_COUNT + 1) + p];
                if count == 0 {
                    continue;
                }
                let parent = Stage::from_index(p as u8);
                let parent_total = match parent {
                    Some(ps) => self.stage_total(ps),
                    None => self.root_total(),
                };
                rows.push(StageRow {
                    stage,
                    parent,
                    count,
                    total_ns,
                    mean_ns: total_ns / count,
                    // The histogram spans every parent of the stage;
                    // this row's own longest span bounds its p99.
                    p99_ns: self.p99_ns(stage).min(max_ns),
                    max_ns,
                    pct_of_parent: if parent_total == 0 {
                        0.0
                    } else {
                        total_ns as f64 / parent_total as f64
                    },
                });
            }
        }
        rows.sort_by(|a, b| {
            let ka = (a.parent.map_or(0u8, |p| 1 + p as u8), u64::MAX - a.total_ns);
            let kb = (b.parent.map_or(0u8, |p| 1 + p as u8), u64::MAX - b.total_ns);
            ka.cmp(&kb)
        });
        rows
    }

    /// Total time of all top-level (parentless) spans.
    fn root_total(&self) -> u64 {
        Stage::ALL.iter().map(|&s| self.pair_total(s, None)).sum()
    }

    /// Renders the per-stage summary as an aligned text table with a
    /// counter appendix, suitable for the terminal and for EXPERIMENTS.md.
    pub fn summary_table(&self) -> String {
        let rows = self.rows();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:<14} {:>9} {:>11} {:>11} {:>11} {:>11} {:>8}",
            "stage", "parent", "count", "total", "mean", "p99", "max", "parent%"
        );
        let _ = writeln!(out, "{}", "-".repeat(102));
        for r in &rows {
            let _ = writeln!(
                out,
                "{:<20} {:<14} {:>9} {:>11} {:>11} {:>11} {:>11} {:>7.1}%",
                r.stage.name(),
                r.parent.map_or("-", Stage::name),
                r.count,
                fmt_ns(r.total_ns),
                fmt_ns(r.mean_ns),
                fmt_ns(r.p99_ns),
                fmt_ns(r.max_ns),
                r.pct_of_parent * 100.0,
            );
        }
        for root in [Stage::EncodeFrame, Stage::DecodeFrame] {
            if let Some(c) = self.coverage_of(root) {
                let _ = writeln!(out, "stage coverage of {}: {:.1}%", root.name(), c * 100.0);
            }
        }
        let mut any = false;
        for c in Counter::ALL {
            let v = self.counter_total(c);
            if v > 0 {
                if !any {
                    let _ = writeln!(out, "counters:");
                    any = true;
                }
                let _ = writeln!(out, "  {:<13} {v}", c.name());
            }
        }
        let dropped = self.dropped_total();
        if dropped > 0 {
            let _ = writeln!(
                out,
                "dropped events: {dropped} (ring overflow; accumulator rows above remain exact)"
            );
        }
        out
    }

    /// Serialises the trace in Chrome Trace Event JSON (the format
    /// chrome://tracing and https://ui.perfetto.dev load directly):
    /// one `M` thread-name metadata record and one `C` record of every
    /// [`Counter`] per thread, plus an `X` complete event per recorded
    /// span.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, s: &str| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(s);
        };
        for t in &self.threads {
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                    t.tid,
                    crate::json::escape(&t.name)
                ),
            );
            let mut last_ts = 0u64;
            for e in &t.events {
                let name = Stage::from_index(e.stage).map_or("unknown", Stage::name);
                last_ts = last_ts.max(e.start_ns + e.dur_ns);
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"hdvb\",\"ts\":{:.3},\"dur\":{:.3}}}",
                        t.tid,
                        name,
                        e.start_ns as f64 / 1000.0,
                        e.dur_ns as f64 / 1000.0
                    ),
                );
            }
            if t.counters.iter().any(|&c| c > 0) || t.dropped > 0 {
                let mut args = String::new();
                for c in Counter::ALL {
                    let _ = write!(args, "\"{}\":{},", c.name(), t.counters[c as usize]);
                }
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"name\":\"counters\",\"ts\":{:.3},\"args\":{{{args}\"dropped_events\":{}}}}}",
                        t.tid,
                        last_ts as f64 / 1000.0,
                        t.dropped
                    ),
                );
            }
        }
        out.push_str("]}");
        out
    }

    /// Writes [`chrome_trace_json`](Self::chrome_trace_json) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_chrome_trace<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }
}

/// Renders a per-stage total array (in [`crate::CODEC_STAGES`] order,
/// as returned by [`crate::codec_stage_totals_local`]) as a one-line
/// percentage breakdown, largest stage first — the timeout-attribution
/// line of the fault-tolerant sweep's failure table.
///
/// All-zero totals (the sweep ran untraced, or the cell was cancelled
/// before any codec work) render as a note instead of percentages.
///
/// # Example
///
/// ```
/// let mut totals = [0u64; 6];
/// totals[0] = 750; // motion_estimation
/// totals[3] = 250; // entropy_coding
/// let s = hdvb_trace::stage_breakdown(&totals);
/// assert_eq!(s, "motion_estimation 75% (750ns), entropy_coding 25% (250ns)");
/// assert!(hdvb_trace::stage_breakdown(&[0; 6]).contains("no stage attribution"));
/// ```
pub fn stage_breakdown(totals: &[u64; crate::CODEC_STAGES.len()]) -> String {
    let sum: u64 = totals.iter().sum();
    if sum == 0 {
        return "no stage attribution (untraced)".to_string();
    }
    let mut stages: Vec<(Stage, u64)> = crate::CODEC_STAGES
        .iter()
        .zip(totals)
        .filter(|(_, &ns)| ns > 0)
        .map(|(&s, &ns)| (s, ns))
        .collect();
    stages.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let parts: Vec<String> = stages
        .iter()
        .map(|&(stage, ns)| {
            format!(
                "{} {:.0}% ({})",
                stage.name(),
                100.0 * ns as f64 / sum as f64,
                fmt_ns(ns)
            )
        })
        .collect();
    parts.join(", ")
}

/// Human-readable nanoseconds: `412ns`, `3.21us`, `45.0ms`, `1.204s`.
fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}us", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", v / 1e6)
    } else {
        format!("{:.3}s", v / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collect, reset, set_enabled, span, test_gate, zone};

    #[test]
    fn summary_and_chrome_export_roundtrip() {
        let _g = test_gate();
        set_enabled(true);
        reset();
        {
            let _f = span!(Stage::EncodeFrame);
            for _ in 0..3 {
                let _z = zone!(Stage::EntropyCoding);
            }
        }
        crate::counter_add(Counter::Steal, 2);
        crate::counter_add(Counter::Me16Reused, 3);
        set_enabled(false);
        let r = collect();
        let table = r.summary_table();
        assert!(table.contains("encode_frame"), "{table}");
        assert!(table.contains("entropy_coding"), "{table}");
        assert!(table.contains("steals"), "{table}");
        assert!(table.contains("me16_reused   3"), "{table}");

        let json = r.chrome_trace_json();
        let v = crate::json::parse(&json).expect("strict parse");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // Exactly one X event for the frame span (zones emit no events).
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert!(xs
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("encode_frame")));
        for e in &xs {
            assert!(e.get("ts").and_then(|t| t.as_f64()).unwrap() >= 0.0);
            assert!(e.get("dur").and_then(|t| t.as_f64()).unwrap() >= 0.0);
        }
        // Every counter is an argument of the thread's counter record.
        let counted = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
                .filter_map(|e| e.get("args")?.get(name)?.as_f64())
                .sum::<f64>()
        };
        assert_eq!(counted("steals"), 2.0);
        assert_eq!(counted("me16_reused"), 3.0);
        assert_eq!(counted("me16_searched"), 0.0);
    }

    #[test]
    fn p99_tracks_the_histogram_tail() {
        let _g = test_gate();
        set_enabled(true);
        reset();
        {
            // 99 fast spans and one slow one; p99 must land at or above
            // the fast cluster, below u64::MAX.
            for _ in 0..99 {
                let _z = zone!(Stage::Deblock);
            }
            let _z = zone!(Stage::Deblock);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_enabled(false);
        let r = collect();
        assert_eq!(r.stage_count(Stage::Deblock), 100);
        let p99 = r.p99_ns(Stage::Deblock);
        assert!(p99 < u64::MAX);
    }

    #[test]
    fn no_row_prints_a_p99_above_its_max() {
        let _g = test_gate();
        set_enabled(true);
        reset();
        // Spans of ≈ 3 ms (not a power of two) at top level, and shorter
        // ones of the same stage under a parent, so the stage's merged
        // histogram reaches past the nested row's max.
        for _ in 0..3 {
            let _z = zone!(Stage::Deblock);
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        {
            let _f = span!(Stage::EncodeFrame);
            let _z = zone!(Stage::Deblock);
        }
        set_enabled(false);
        let r = collect();
        let rows = r.rows();
        assert!(
            rows.iter()
                .filter(|row| row.stage == Stage::Deblock)
                .count()
                >= 2
        );
        for row in &rows {
            assert!(row.p99_ns <= row.max_ns, "{row:?}");
        }
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_700), "1.70us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(1_204_000_000), "1.204s");
    }
}
