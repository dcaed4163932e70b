//! First-party profiling and tracing for HD-VideoBench.
//!
//! The paper's methodology is throughput measurement; this crate adds the
//! attribution layer: where inside a codec the milliseconds go, per stage,
//! per worker thread. Design constraints, in order:
//!
//! 1. **Disabled means free.** Every probe starts with one relaxed atomic
//!    load of a global flag. No TLS touch, no clock read, no allocation on
//!    the disabled path.
//! 2. **Enabled means bounded.** Each thread records into a fixed-capacity
//!    event buffer published lock-free (owner-thread writes, monotonic
//!    `head` with release/acquire). On overflow events are *dropped and
//!    counted* — never reallocated, never blocking the instrumented thread.
//! 3. **The summary never lies by omission.** Durations are additionally
//!    folded into per-`(stage, parent)` accumulator slots and per-stage
//!    log2 histograms that never drop, so the stage table stays exact even
//!    when the event ring overflows (only the chrome trace loses events,
//!    and says how many).
//!
//! Two probe flavours: [`span!`] records an accumulator update *and* a
//! chrome-trace event (use at frame/task granularity); [`zone!`] updates
//! accumulators only (use in per-macroblock hot loops where emitting an
//! event per scope would blow out any bounded buffer).
//!
//! Nesting is tracked dynamically per thread: each guard remembers the
//! stage it interrupted, which becomes the span's *parent* in the summary
//! table. Re-entering the stage currently on top (e.g. a motion-comp
//! helper calling another motion-comp helper) yields an inactive guard so
//! self-recursion is never double-counted.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod hist;
pub mod json;
mod report;
mod rolling;

pub use hist::LatencyHistogram;
pub use report::{stage_breakdown, StageRow, ThreadTrace, TraceReport};
pub use rolling::RollingHistogram;

/// Instrumented pipeline stages, shared by all three codecs and the
/// execution engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// One display frame through an encoder (parent of the codec stages).
    EncodeFrame,
    /// One coded packet through a decoder (parent of the codec stages).
    DecodeFrame,
    /// Motion estimation: full-pel search, sub-pel refinement and intra
    /// mode cost decisions.
    MotionEstimation,
    /// Motion compensation: building prediction blocks from references.
    MotionComp,
    /// Forward transform and quantisation.
    TransformQuant,
    /// Entropy coding: residual bitstream reads/writes.
    EntropyCoding,
    /// Reconstruction: dequant, inverse transform, store to the
    /// reference picture.
    Reconstruct,
    /// In-loop deblocking (H.264 only).
    Deblock,
    /// One task body executed by a pool worker (or the helping caller).
    Task,
    /// One GOP-aligned chunk of a parallel encode.
    GopChunk,
    /// One benchmark grid cell of a parallel sweep.
    Cell,
    /// A worker parked waiting for work.
    WorkerIdle,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 12;

/// Synthetic parent index meaning "no enclosing span on this thread".
pub const ROOT_PARENT: u8 = STAGE_COUNT as u8;

/// The six codec stages of the tentpole, in report order. These are the
/// children whose totals are compared against their parent frame span for
/// the coverage criterion.
pub const CODEC_STAGES: [Stage; 6] = [
    Stage::MotionEstimation,
    Stage::MotionComp,
    Stage::TransformQuant,
    Stage::EntropyCoding,
    Stage::Reconstruct,
    Stage::Deblock,
];

impl Stage {
    /// All stages in declaration order (index == discriminant).
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::EncodeFrame,
        Stage::DecodeFrame,
        Stage::MotionEstimation,
        Stage::MotionComp,
        Stage::TransformQuant,
        Stage::EntropyCoding,
        Stage::Reconstruct,
        Stage::Deblock,
        Stage::Task,
        Stage::GopChunk,
        Stage::Cell,
        Stage::WorkerIdle,
    ];

    /// Stable name used in reports and the chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Stage::EncodeFrame => "encode_frame",
            Stage::DecodeFrame => "decode_frame",
            Stage::MotionEstimation => "motion_estimation",
            Stage::MotionComp => "motion_comp",
            Stage::TransformQuant => "transform_quant",
            Stage::EntropyCoding => "entropy_coding",
            Stage::Reconstruct => "reconstruct",
            Stage::Deblock => "deblock",
            Stage::Task => "task",
            Stage::GopChunk => "gop_chunk",
            Stage::Cell => "cell",
            Stage::WorkerIdle => "worker_idle",
        }
    }

    pub(crate) fn from_index(i: u8) -> Option<Stage> {
        Stage::ALL.get(usize::from(i)).copied()
    }
}

/// Monotonic counters recorded per thread: execution-engine telemetry
/// and how often the H.264 encoder's 16×16 reference search ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Counter {
    /// Tasks obtained by stealing from another worker's deque.
    Steal,
    /// Tasks executed.
    Executed,
    /// Times a worker parked on the wakeup condvar.
    Park,
    /// 16×16 P-macroblock reference searches run.
    Me16Searched,
    /// 16×16 P-macroblock reference searches answered from the previous
    /// P picture's results instead.
    Me16Reused,
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = 5;

impl Counter {
    /// All counters in declaration order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::Steal,
        Counter::Executed,
        Counter::Park,
        Counter::Me16Searched,
        Counter::Me16Reused,
    ];

    /// Stable name used in reports and the chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Steal => "steals",
            Counter::Executed => "executed",
            Counter::Park => "parks",
            Counter::Me16Searched => "me16_searched",
            Counter::Me16Reused => "me16_reused",
        }
    }
}

/// One completed span, recorded at scope exit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// `Stage` discriminant.
    pub stage: u8,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Log2 duration histogram bucket count (bucket `i` holds durations in
/// `[2^i, 2^(i+1))` ns; the last bucket is open-ended ≈ 18 minutes).
pub const HIST_BUCKETS: usize = 40;

const SLOTS: usize = STAGE_COUNT * (STAGE_COUNT + 1);

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static RING_CAP: AtomicUsize = AtomicUsize::new(1 << 16);
static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());

/// Is tracing globally enabled? One relaxed load — this is the entire
/// disabled-path cost of every probe.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off. Enabling also pins the trace epoch (and, on
/// x86-64, runs the one-time TSC calibration) so event timestamps from
/// different threads share a time base and no probe pays the setup cost.
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
        #[cfg(target_arch = "x86_64")]
        tsc_clock::warm_up();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the per-thread event-buffer capacity. Affects buffers of threads
/// that first record *after* the call; existing buffers keep their size.
pub fn set_ring_capacity(cap: usize) {
    RING_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// The probe clock. On x86-64 this is a raw `RDTSC` read scaled by a
/// one-time calibration — roughly a third of the cost of
/// `Instant::now()`, which matters because two reads bracket every
/// zone in the codecs' per-macroblock loops. Elsewhere it falls back to
/// the monotonic clock. Both report nanoseconds since the trace epoch.
#[inline]
fn now_ns() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        tsc_clock::now_ns()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

#[cfg(target_arch = "x86_64")]
mod tsc_clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// TSC epoch tick plus nanoseconds-per-tick in Q32 fixed point.
    struct Calib {
        t0: u64,
        ns_per_tick_q32: u64,
    }

    static CALIB: OnceLock<Calib> = OnceLock::new();

    #[inline]
    fn rdtsc() -> u64 {
        // SAFETY: RDTSC is unprivileged and part of baseline x86-64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// Measures the TSC rate against the monotonic clock over a ~1 ms
    /// busy window (< 0.1 % error, invisible at session start). Modern
    /// x86-64 has an invariant constant-rate TSC, so one measurement
    /// holds for the process lifetime.
    fn calibrate() -> Calib {
        let t0 = rdtsc();
        let i0 = Instant::now();
        loop {
            let dt = i0.elapsed();
            if dt.as_micros() >= 1000 {
                let ticks = (rdtsc().wrapping_sub(t0)).max(1);
                let q = (dt.as_nanos() << 32) / u128::from(ticks);
                return Calib {
                    t0,
                    ns_per_tick_q32: q as u64,
                };
            }
            std::hint::spin_loop();
        }
    }

    /// Runs the calibration eagerly (called from `set_enabled`) so the
    /// first probe doesn't absorb the 1 ms window.
    pub fn warm_up() {
        let _ = CALIB.get_or_init(calibrate);
    }

    #[inline]
    pub fn now_ns() -> u64 {
        let c = CALIB.get_or_init(calibrate);
        let dt = rdtsc().wrapping_sub(c.t0);
        ((u128::from(dt) * u128::from(c.ns_per_tick_q32)) >> 32) as u64
    }
}

/// A `(stage, parent)` accumulator: updated on every guard drop, never
/// dropped on overflow (unlike ring events).
#[derive(Default)]
struct Slot {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Per-thread trace storage. Owned by exactly one recording thread; the
/// collector reads it concurrently through the registry.
pub struct ThreadBuf {
    tid: u32,
    name: String,
    /// Innermost active stage on the owner thread (`ROOT_PARENT` if none).
    /// Owner-only; atomic so the struct stays `Sync`.
    cur: AtomicU8,
    /// Events published: slots `[0, head)` are fully written.
    head: AtomicUsize,
    dropped: AtomicU64,
    events: Box<[std::cell::UnsafeCell<Event>]>,
    slots: Box<[Slot]>,
    hist: Box<[AtomicU32]>,
    counters: [AtomicU64; COUNTER_COUNT],
}

// SAFETY: each `UnsafeCell` slot is written at most once, by the owner
// thread, strictly before `head` is advanced past it with `Release`;
// readers only dereference slots below a `head` loaded with `Acquire`.
// `head` is monotonic while recording — only `reset()` rewinds it, and its
// contract requires instrumented threads to be quiescent at that point.
unsafe impl Sync for ThreadBuf {}
unsafe impl Send for ThreadBuf {}

impl ThreadBuf {
    fn new(tid: u32, name: String, cap: usize) -> ThreadBuf {
        let zero = Event {
            stage: 0,
            start_ns: 0,
            dur_ns: 0,
        };
        ThreadBuf {
            tid,
            name,
            cur: AtomicU8::new(ROOT_PARENT),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            events: (0..cap).map(|_| std::cell::UnsafeCell::new(zero)).collect(),
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
            hist: (0..STAGE_COUNT * HIST_BUCKETS)
                .map(|_| AtomicU32::new(0))
                .collect(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Owner-thread-only increment: accumulators have exactly one writer
    /// (the owning thread), so a relaxed load+store is enough and avoids
    /// the lock-prefixed RMW in the per-macroblock probe path. Collectors
    /// read concurrently; `reset()` requires quiescence before rewriting.
    #[inline]
    fn bump64(a: &AtomicU64, add: u64) {
        a.store(
            a.load(Ordering::Relaxed).wrapping_add(add),
            Ordering::Relaxed,
        );
    }

    #[inline]
    fn record(&self, stage: u8, parent: u8, start_ns: u64, dur_ns: u64, event: bool) {
        let slot = &self.slots[usize::from(stage) * (STAGE_COUNT + 1) + usize::from(parent)];
        Self::bump64(&slot.count, 1);
        Self::bump64(&slot.total_ns, dur_ns);
        if dur_ns > slot.max_ns.load(Ordering::Relaxed) {
            slot.max_ns.store(dur_ns, Ordering::Relaxed);
        }
        let bucket = (u64::BITS - dur_ns.leading_zeros()) as usize;
        let bucket = bucket.min(HIST_BUCKETS - 1);
        let h = &self.hist[usize::from(stage) * HIST_BUCKETS + bucket];
        h.store(h.load(Ordering::Relaxed).wrapping_add(1), Ordering::Relaxed);
        if event {
            // Owner-only publish: head is only ever advanced by this
            // thread, so load/store (not CAS) is sufficient.
            let head = self.head.load(Ordering::Relaxed);
            if head < self.events.len() {
                // SAFETY: slot `head` is unpublished (>= head) and only
                // the owner thread writes; see the Sync rationale above.
                unsafe {
                    *self.events[head].get() = Event {
                        stage,
                        start_ns,
                        dur_ns,
                    };
                }
                self.head.store(head + 1, Ordering::Release);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

thread_local! {
    static TLS: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
}

fn register_thread() -> Arc<ThreadBuf> {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let tid = reg.len() as u32;
    let name = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let buf = Arc::new(ThreadBuf::new(tid, name, RING_CAP.load(Ordering::Relaxed)));
    reg.push(Arc::clone(&buf));
    buf
}

#[inline]
fn with_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    TLS.with(|cell| f(cell.get_or_init(register_thread)))
}

/// RAII span: measures from construction to drop and files the duration
/// under `(stage, parent)` where `parent` is the stage it interrupted.
///
/// Holds a raw pointer to the owner thread's buffer so the drop path
/// skips the TLS lookup; the pointer stays valid for the process
/// lifetime because the registry retains an `Arc` to every buffer. The
/// pointer field makes the guard `!Send`, so it is only ever
/// dereferenced on the thread that created it.
pub struct SpanGuard {
    stage: u8,
    prev: u8,
    start_ns: u64,
    /// `false` for an inactive guard (tracing disabled or self-nested).
    active: bool,
    /// Emit a chrome-trace event in addition to the accumulators.
    event: bool,
    buf: *const ThreadBuf,
}

impl SpanGuard {
    const INERT: SpanGuard = SpanGuard {
        stage: 0,
        prev: 0,
        start_ns: 0,
        active: false,
        event: false,
        buf: std::ptr::null(),
    };

    /// Starts a span. Returns an inert guard when tracing is disabled or
    /// when `stage` is already the innermost stage on this thread
    /// (self-recursion must not double-count).
    #[inline]
    pub fn enter(stage: Stage, event: bool) -> SpanGuard {
        if !enabled() {
            return Self::INERT;
        }
        Self::enter_enabled(stage, event)
    }

    fn enter_enabled(stage: Stage, event: bool) -> SpanGuard {
        let s = stage as u8;
        let buf = TLS.with(|cell| Arc::as_ptr(cell.get_or_init(register_thread)));
        // SAFETY: the registry holds an Arc to every thread buffer for
        // the process lifetime, so the pointee outlives any guard.
        let b = unsafe { &*buf };
        let prev = b.cur.load(Ordering::Relaxed);
        if prev == s {
            return Self::INERT;
        }
        b.cur.store(s, Ordering::Relaxed);
        SpanGuard {
            stage: s,
            prev,
            start_ns: now_ns(),
            active: true,
            event,
            buf,
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur = now_ns().saturating_sub(self.start_ns);
        // SAFETY: set by `enter_enabled` on this thread (the guard is
        // `!Send`); the registry keeps the buffer alive.
        let b = unsafe { &*self.buf };
        b.cur.store(self.prev, Ordering::Relaxed);
        b.record(self.stage, self.prev, self.start_ns, dur, self.event);
    }
}

/// Opens a span that feeds the summary **and** the chrome trace. Bind the
/// result: `let _s = span!(Stage::Task);`. Use at coarse granularity
/// (frames, tasks, chunks) — each completed span costs one ring slot.
#[macro_export]
macro_rules! span {
    ($stage:expr) => {
        $crate::SpanGuard::enter($stage, true)
    };
}

/// Opens an accumulate-only span (summary table, no chrome event). Bind
/// the result: `let _z = zone!(Stage::TransformQuant);`. Safe in per-
/// macroblock hot loops: never consumes ring capacity.
#[macro_export]
macro_rules! zone {
    ($stage:expr) => {
        $crate::SpanGuard::enter($stage, false)
    };
}

/// Bumps a per-thread counter (no-op while tracing is disabled).
#[inline]
pub fn counter_add(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    with_buf(|b| {
        b.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// Per-stage wall-time totals recorded *by the calling thread*, in
/// [`CODEC_STAGES`] order.
///
/// Zones whose parent is itself a codec stage are excluded: an outer
/// zone's duration is inclusive, so counting e.g. a motion-comp zone
/// nested inside a motion-estimation zone again would double-count that
/// time. The result is a partition of instrumented codec time.
///
/// Benchmark cells run wholly on one thread, so the delta of two calls
/// around an encode/decode attributes that cell's stage time exactly.
pub fn codec_stage_totals_local() -> [u64; 6] {
    if !enabled() {
        return [0; 6];
    }
    with_buf(|b| {
        let mut out = [0u64; 6];
        for (i, stage) in CODEC_STAGES.iter().enumerate() {
            let base = (*stage as usize) * (STAGE_COUNT + 1);
            for p in 0..=STAGE_COUNT {
                let nested_in_codec_stage =
                    Stage::from_index(p as u8).is_some_and(|s| CODEC_STAGES.contains(&s));
                if !nested_in_codec_stage {
                    out[i] += b.slots[base + p].total_ns.load(Ordering::Relaxed);
                }
            }
        }
        out
    })
}

/// Snapshots every thread's buffers into an owned [`TraceReport`].
///
/// Safe to call while threads are still recording: events are read up to
/// each buffer's published head, accumulators are relaxed-atomic reads.
pub fn collect() -> TraceReport {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut threads = Vec::with_capacity(reg.len());
    let mut slots = vec![[0u64; 3]; SLOTS];
    let mut hist = vec![[0u64; HIST_BUCKETS]; STAGE_COUNT];
    for buf in reg.iter() {
        let head = buf.head.load(Ordering::Acquire).min(buf.events.len());
        // SAFETY: slots below `head` are fully published (Acquire above
        // pairs with the owner's Release) and never rewritten.
        let events: Vec<Event> = (0..head).map(|i| unsafe { *buf.events[i].get() }).collect();
        let mut counters = [0u64; COUNTER_COUNT];
        for (i, c) in buf.counters.iter().enumerate() {
            counters[i] = c.load(Ordering::Relaxed);
        }
        threads.push(ThreadTrace {
            tid: buf.tid,
            name: buf.name.clone(),
            events,
            counters,
            dropped: buf.dropped.load(Ordering::Relaxed),
        });
        for (i, s) in buf.slots.iter().enumerate() {
            slots[i][0] += s.count.load(Ordering::Relaxed);
            slots[i][1] += s.total_ns.load(Ordering::Relaxed);
            slots[i][2] = slots[i][2].max(s.max_ns.load(Ordering::Relaxed));
        }
        for (i, h) in buf.hist.iter().enumerate() {
            hist[i / HIST_BUCKETS][i % HIST_BUCKETS] += u64::from(h.load(Ordering::Relaxed));
        }
    }
    TraceReport::new(threads, slots, hist)
}

/// Zeroes all accumulators, counters, histograms and event buffers.
///
/// Callers must ensure no instrumented thread is actively recording
/// (rewinding `head` re-arms event slots for rewriting).
pub fn reset() {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for buf in reg.iter() {
        buf.head.store(0, Ordering::Release);
        buf.dropped.store(0, Ordering::Relaxed);
        for s in buf.slots.iter() {
            s.count.store(0, Ordering::Relaxed);
            s.total_ns.store(0, Ordering::Relaxed);
            s.max_ns.store(0, Ordering::Relaxed);
        }
        for h in buf.hist.iter() {
            h.store(0, Ordering::Relaxed);
        }
        for c in buf.counters.iter() {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Serialises tests that mutate process-global trace state (recovering
/// from a poisoned lock if one test panics).
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock_trace() -> std::sync::MutexGuard<'static, ()> {
        test_gate()
    }

    #[test]
    fn disabled_guards_record_nothing() {
        let _g = lock_trace();
        set_enabled(false);
        reset();
        {
            let _s = span!(Stage::EncodeFrame);
            let _z = zone!(Stage::MotionEstimation);
            counter_add(Counter::Steal, 5);
        }
        let r = collect();
        assert_eq!(r.stage_total(Stage::EncodeFrame), 0);
        assert_eq!(r.stage_total(Stage::MotionEstimation), 0);
        assert_eq!(r.counter_total(Counter::Steal), 0);
        assert!(r.threads.iter().all(|t| t.events.is_empty()));
    }

    #[test]
    fn nesting_attributes_parent_and_self_recursion_is_suppressed() {
        let _g = lock_trace();
        set_enabled(true);
        reset();
        {
            let _f = span!(Stage::EncodeFrame);
            {
                let _me = zone!(Stage::MotionEstimation);
                // Self-nested ME must be inert.
                let inner = zone!(Stage::MotionEstimation);
                assert!(!inner.active);
            }
            {
                let _tq = zone!(Stage::TransformQuant);
            }
        }
        set_enabled(false);
        let r = collect();
        assert_eq!(
            r.pair_count(Stage::MotionEstimation, Some(Stage::EncodeFrame)),
            1
        );
        assert_eq!(
            r.pair_count(Stage::TransformQuant, Some(Stage::EncodeFrame)),
            1
        );
        assert_eq!(r.pair_count(Stage::EncodeFrame, None), 1);
        // Child totals cannot exceed the parent's.
        assert!(
            r.stage_total(Stage::MotionEstimation) + r.stage_total(Stage::TransformQuant)
                <= r.stage_total(Stage::EncodeFrame)
        );
    }

    #[test]
    fn ring_overflow_drops_and_counts_but_accumulators_stay_exact() {
        let _g = lock_trace();
        set_enabled(true);
        reset();
        set_ring_capacity(8);
        let handle = std::thread::Builder::new()
            .name("trace-overflow-test".into())
            .spawn(|| {
                for _ in 0..100 {
                    let _s = span!(Stage::Task);
                }
            })
            .unwrap();
        handle.join().unwrap();
        set_enabled(false);
        set_ring_capacity(1 << 16);
        let r = collect();
        let t = r
            .threads
            .iter()
            .find(|t| t.name == "trace-overflow-test")
            .expect("thread registered");
        assert_eq!(t.events.len(), 8);
        assert_eq!(t.dropped, 92);
        assert_eq!(r.pair_count(Stage::Task, None), 100);
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let _g = lock_trace();
        set_enabled(true);
        reset();
        counter_add(Counter::Executed, 3);
        std::thread::spawn(|| counter_add(Counter::Executed, 4))
            .join()
            .unwrap();
        set_enabled(false);
        assert_eq!(collect().counter_total(Counter::Executed), 7);
    }

    #[test]
    fn local_stage_totals_see_only_this_thread() {
        let _g = lock_trace();
        set_enabled(true);
        reset();
        // The foreign sleep is far longer than any plausible local
        // oversleep, so the inclusion check below cannot flake.
        std::thread::spawn(|| {
            let _z = zone!(Stage::Deblock);
            std::thread::sleep(std::time::Duration::from_millis(200));
        })
        .join()
        .unwrap();
        let before = codec_stage_totals_local();
        {
            let _z = zone!(Stage::Deblock);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let after = codec_stage_totals_local();
        set_enabled(false);
        let deblock = CODEC_STAGES
            .iter()
            .position(|&s| s == Stage::Deblock)
            .unwrap();
        let delta = after[deblock] - before[deblock];
        assert!(delta >= 500_000, "local delta {delta}ns");
        // The other thread's 200ms must not leak into the local delta.
        assert!(
            delta < 100_000_000,
            "local delta {delta}ns includes foreign time"
        );
    }

    #[test]
    fn disabled_probe_is_cheap() {
        let _g = lock_trace();
        set_enabled(false);
        // Warm the TLS path once while enabled so lazy init is excluded.
        set_enabled(true);
        {
            let _s = span!(Stage::Task);
        }
        set_enabled(false);
        reset();
        let n = 1_000_000u32;
        let start = Instant::now();
        for _ in 0..n {
            let g = zone!(Stage::MotionEstimation);
            std::hint::black_box(&g);
        }
        let per_op = start.elapsed().as_nanos() as f64 / f64::from(n);
        // Generous bound (load + branch should be ~1ns); catches
        // accidental TLS or clock work sneaking onto the disabled path.
        assert!(per_op < 100.0, "disabled probe costs {per_op:.1}ns");
    }
}
