//! In-memory spans around the benchmark's own calls into each layer,
//! written out as chrome-trace JSON when the run ends.
//!
//! Each thread of the benchmark owns one [`SpanLog`]; spans on it nest
//! by construction (begin/end are a stack), so a span's parent is the
//! span that was open when it began. Spans of one request — connection ×
//! frame index — share its id.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct SpanLog {
    on: bool,
    thread: String,
    epoch: Instant,
    open: Vec<Option<usize>>,
    spans: Vec<Span>,
}

/// A full run records a few thousand spans; the cap only bounds memory
/// if a loop goes wrong.
const MAX_SPANS: usize = 1 << 20;

impl SpanLog {
    /// A log for the calling thread. With `on` false, [`time`](Self::time)
    /// still times the call but records nothing.
    pub fn new(on: bool, epoch: Instant, thread: &str) -> SpanLog {
        SpanLog {
            on,
            thread: thread.to_string(),
            epoch,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        self.begin(name, request);
        let start = Instant::now();
        let result = f();
        let took = start.elapsed();
        self.end();
        (result, took)
    }

    /// Opens a span that the matching [`end`](Self::end) closes.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.on || self.spans.len() >= MAX_SPANS {
            // Keeps begin/end balanced while nothing is recorded.
            self.open.push(None);
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.iter().rev().find_map(|&o| o),
            request,
        });
        self.open.push(Some(self.spans.len() - 1));
    }

    pub fn end(&mut self) {
        if let Some(Some(i)) = self.open.pop() {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time inside `name` spans not covered by their child spans.
    #[cfg(test)]
    pub fn self_time_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .sum()
    }
}

/// Writes the logs in the chrome-trace format `scripts/check_trace.py`
/// validates: one `M` thread-name record per log and one `X` event per
/// span, microsecond timestamps.
pub fn chrome_trace_json(logs: &[SpanLog]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::replace(&mut first, false) {
            out.push_str(",\n");
        }
    };
    for (tid, log) in logs.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            hdvb_trace::json::escape(&log.thread)
        );
        // Whole microseconds, floored: flooring is monotone, so rounding
        // cannot make two spans cross. A child that starts in the same
        // microsecond as its parent is moved one later, because a viewer
        // orders spans by start time and must meet the parent first.
        let mut starts: Vec<u64> = Vec::with_capacity(log.spans.len());
        for (i, s) in log.spans.iter().enumerate() {
            sep(&mut out);
            let end = s.end_ns.max(s.start_ns) / 1000;
            let ts = (s.start_ns / 1000).max(s.parent.map_or(0, |p| starts[p] + 1));
            starts.push(ts);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"ts\":{ts},\"dur\":{},\"args\":{{\"id\":{i},\"parent\":{},\"request\":{}}}}}",
                s.name,
                end.saturating_sub(ts),
                s.parent.map_or(-1, |p| p as i64),
                s.request
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Writes the spans of a traced run next to its result file.
pub fn write(out: &Path, workload: &str, seed: u64, logs: &[SpanLog]) {
    let path = out.join(format!("{workload}.seed{seed}.spans.json"));
    match std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, chrome_trace_json(logs)))
    {
        Ok(()) => println!("# spans: {}", path.display()),
        Err(e) => println!("# spans not written ({}): {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut log = SpanLog::new(true, Instant::now(), "t");
        log.begin("outer", 9);
        let (v, took) = log.time("inner", 9, || {
            std::thread::sleep(Duration::from_millis(2));
            5
        });
        log.end();
        assert_eq!(v, 5);
        assert!(took >= Duration::from_millis(2));
        let s = log.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].request),
            ("inner", Some(0), 9)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let outer = s[0].end_ns - s[0].start_ns;
        let inner = s[1].end_ns - s[1].start_ns;
        assert_eq!(log.self_time_ns("outer"), outer - inner);
    }

    #[test]
    fn a_log_that_is_off_times_but_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), "t");
        log.begin("outer", 0);
        let (_, took) = log.time("inner", 0, || std::thread::sleep(Duration::from_millis(1)));
        log.end();
        assert!(took >= Duration::from_millis(1));
        assert!(log.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut log = SpanLog::new(true, Instant::now(), "client \"0\"");
        log.time("a", 1, || ());
        log.time("b", 2, || ());
        let text = chrome_trace_json(&[log]);
        let doc = hdvb_trace::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(events[2].get("name").unwrap().as_str(), Some("b"));
    }
}
