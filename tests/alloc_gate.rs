//! The allocation-regression gate (DESIGN.md §14).
//!
//! Installs the counting allocator and drives every session kind
//! (encode, decode, transcode) for every codec through the zero-copy
//! session API, measuring heap allocations per step. The first
//! `WARMUP` steps are allowed to allocate — pools fill, codec scratch
//! is sized, free-list vectors grow — but every step after that must
//! allocate **zero** bytes: inputs come from the global pools, outputs
//! are recycled back, and the codecs reuse their per-picture scratch.
//!
//! This file deliberately holds a single `#[test]`: the pools are
//! process-global, so a parallel test in the same binary could steal
//! warm buffers and turn a legitimate pool miss into a false positive.
//!
//! Run with `cargo test --release --test alloc_gate -- --nocapture` to
//! see the per-stage table.

use alloccount::{thread_allocs, CountingAlloc};
use hdvb_core::{
    encode_sequence, CodecId, CodecSession, CodingOptions, SessionInput, SessionOutput,
};
use hdvb_frame::{BufferPool, Frame, FramePool, Resolution};
use hdvb_seq::{Sequence, SequenceId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const W: u32 = 96;
const H: u32 = 80;
/// Inputs per stage; must cover several GOPs so anchor bursts and
/// B-frame lookahead all hit their steady state.
const ITEMS: u32 = 40;
/// Steps allowed to allocate while pools and scratch warm up.
const WARMUP: usize = 20;

/// Drives `step` once per item with a reused, recycled output, and
/// returns per-item allocation counts (measured around input
/// materialisation, the push, and the recycle — the whole hot loop).
fn measure(mut step: impl FnMut(u32, &mut SessionOutput)) -> Vec<u64> {
    let mut out = SessionOutput::new();
    let mut counts = Vec::with_capacity(ITEMS as usize);
    for i in 0..ITEMS {
        let before = thread_allocs();
        step(i, &mut out);
        out.recycle();
        counts.push(thread_allocs() - before);
    }
    counts
}

/// A pool-backed copy of a source frame, as a serving front end would
/// materialise it.
fn frame_input(src: &Frame) -> SessionInput {
    let mut f = FramePool::global().take(src.width(), src.height());
    f.copy_from(src);
    SessionInput::Frame(f)
}

/// A pool-backed copy of a coded packet.
fn packet_input(src: &[u8]) -> SessionInput {
    let mut d = BufferPool::global().take(src.len());
    d.extend_from_slice(src);
    SessionInput::Packet(d)
}

/// Flushes and recycles a session's tail outside the measured region.
fn drain(mut session: CodecSession) {
    let mut out = SessionOutput::new();
    session.finish_into(&mut out).unwrap();
    out.recycle();
}

struct Stage {
    name: String,
    warmup_allocs: u64,
    steady_max: u64,
    steady_total: u64,
}

fn stage(name: String, counts: &[u64]) -> Stage {
    Stage {
        name,
        warmup_allocs: counts[..WARMUP].iter().sum(),
        steady_max: counts[WARMUP..].iter().copied().max().unwrap_or(0),
        steady_total: counts[WARMUP..].iter().sum(),
    }
}

#[test]
fn steady_state_sessions_allocate_nothing() {
    let options = CodingOptions::default();
    let res = Resolution::new(W, H);
    let mut stages = Vec::new();

    for codec in CodecId::ALL {
        let seq = Sequence::new(SequenceId::RushHour, res);
        let frames: Vec<Frame> = (0..ITEMS).map(|i| seq.frame(i)).collect();

        let mut enc = CodecSession::encoder(codec, res, &options).unwrap();
        let counts = measure(|i, out| {
            enc.push_into(frame_input(&frames[i as usize]), out)
                .unwrap();
        });
        drain(enc);
        stages.push(stage(format!("{codec}/encode"), &counts));

        let packets: Vec<Vec<u8>> = encode_sequence(codec, seq, ITEMS, &options)
            .unwrap()
            .packets
            .into_iter()
            .map(|p| p.data)
            .collect();
        let mut dec = CodecSession::decoder(codec, options.simd);
        let counts = measure(|i, out| {
            dec.push_into(packet_input(&packets[i as usize]), out)
                .unwrap();
        });
        drain(dec);
        stages.push(stage(format!("{codec}/decode"), &counts));

        let source: Vec<Vec<u8>> = encode_sequence(CodecId::Mpeg2, seq, ITEMS, &options)
            .unwrap()
            .packets
            .into_iter()
            .map(|p| p.data)
            .collect();
        let mut xcode = CodecSession::transcoder(CodecId::Mpeg2, codec, res, &options).unwrap();
        let counts = measure(|i, out| {
            xcode
                .push_into(packet_input(&source[i as usize]), out)
                .unwrap();
        });
        drain(xcode);
        stages.push(stage(format!("mpeg2->{codec}/transcode"), &counts));
    }

    println!(
        "{:<24} {:>13} {:>16} {:>13}",
        "stage", "warmup allocs", "steady max/item", "steady total"
    );
    let mut regressed = Vec::new();
    for s in &stages {
        println!(
            "{:<24} {:>13} {:>16} {:>13}",
            s.name, s.warmup_allocs, s.steady_max, s.steady_total
        );
        if s.steady_max > 0 {
            regressed.push(s.name.clone());
        }
    }
    assert!(
        regressed.is_empty(),
        "steady-state heap allocations detected in: {} \
         (items {}..{} must be allocation-free; run with --nocapture for the table)",
        regressed.join(", "),
        WARMUP,
        ITEMS
    );
}

/// A counting global allocator for this gate.
///
/// Counters are thread-local (`const`-initialised, so reading them does
/// not itself allocate on any tier-1 platform) and monotone; the gate
/// measures a region by differencing [`thread_allocs`] around it. Only
/// `alloc`/`realloc` count — frees are irrelevant to a "no new memory"
/// gate, and `realloc` counts because a growing pooled buffer is
/// exactly the kind of hidden allocation the gate exists to catch.
mod alloccount {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Heap allocations performed by the current thread since it started
    /// (counting `alloc`, `alloc_zeroed` and `realloc` calls).
    pub fn thread_allocs() -> u64 {
        ALLOCS.with(Cell::get)
    }

    /// A [`System`]-backed allocator that counts per-thread allocations.
    pub struct CountingAlloc;

    impl CountingAlloc {
        #[inline]
        fn count() {
            // try_with: an allocation during TLS teardown must not abort
            // the process; an uncounted alloc at thread exit is harmless.
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    }

    // SAFETY: every call is forwarded unchanged to `System`, so its
    // layout and pointer contracts hold; counting touches only a
    // thread-local `Cell` and never allocates.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            Self::count();
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            Self::count();
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            Self::count();
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }
}
