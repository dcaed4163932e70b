//! Everything a workload derives from `--seed`: clip offsets, the
//! open-loop arrival schedule, and the generated frames themselves.
//! The program under test only ever sees these inputs.

use hdvb_frame::{Frame, Resolution};
use hdvb_seq::{Sequence, SequenceId, SplitMix, FRAME_COUNT};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Clip start frames are drawn from the first `START_SPAN` frames of a
/// sequence. Over the whole 100 frames pedestrian_area's coding cost
/// drifts by ±15 % (walkers leave the scene), which is a different
/// workload rather than a different sample of the same one; within this
/// span the bits of a pedestrian_area clip move by about ±1.5 %.
pub const START_SPAN: u32 = 8;

/// First frame of the clip workload-slot `slot` cuts out of its
/// sequence.
pub fn clip_start(seed: u64, slot: u64, clip_len: u32) -> u32 {
    let span = START_SPAN
        .min(FRAME_COUNT.saturating_sub(clip_len) + 1)
        .max(1);
    (SplitMix::hash3(seed, slot, 0xC11F) % u64::from(span)) as u32
}

/// Frame `k` of an endless stream that plays a `len`-frame clip forward
/// then backward, so the encoder never sees a scene cut at the wrap.
pub fn ping_pong(k: usize, len: usize) -> usize {
    if len < 2 {
        return 0;
    }
    let period = 2 * (len - 1);
    let r = k % period;
    if r < len {
        r
    } else {
        period - r
    }
}

/// Largest move of a due time, as a share of the frame period.
pub const JITTER: f64 = 0.10;

/// Due times, in nanoseconds from the start of the run, of `frames`
/// sends on connection `conn` of `conns`: one per `period_ns`, each
/// connection offset by an equal share of the period, each send moved by
/// a seeded ±10 % of the period. Two connections' frames are then never
/// due less than 0.3 periods apart — more than one frame's service time
/// on `net_live` — so the tail percentile measures the system's own tail.
/// (At ±25 % about 8 % of the frames queued behind the other connection's,
/// which put p95 on the edge between the two populations: it moved by
/// 60 % between seeds.)
pub fn arrival_schedule(
    seed: u64,
    conn: usize,
    conns: usize,
    frames: usize,
    period_ns: u64,
) -> Vec<u64> {
    let mut rng = SplitMix::new(SplitMix::hash3(seed, conn as u64, 0xA221));
    let phase = period_ns * conn as u64 / conns.max(1) as u64;
    let swing = period_ns as f64 * JITTER;
    (0..frames as u64)
        .map(|k| {
            let jitter = rng.next_range(-swing, swing);
            // Starting one swing in keeps every due time positive.
            (swing + (phase + k * period_ns) as f64 + jitter) as u64
        })
        .collect()
}

/// A contiguous clip of one sequence.
#[derive(Clone, Copy, Debug)]
pub struct ClipSpec {
    pub id: SequenceId,
    pub resolution: Resolution,
    pub start: u32,
    pub len: u32,
}

/// `f(0), f(1), .. f(count - 1)`, computed on at most `threads` threads
/// that take the next index as they finish the last.
pub fn parallel_map<T: Send>(
    count: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, count.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let item = f(i);
                done.lock().expect("a worker panicked").push((i, item));
            });
        }
    });
    let mut done = done.into_inner().expect("a worker panicked");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, item)| item).collect()
}

/// Renders every clip on at most `threads` threads, a frame at a time,
/// and returns the clips plus the mean time one `Sequence::frame` call
/// took.
pub fn generate(clips: &[ClipSpec], threads: usize) -> (Vec<Vec<Frame>>, f64) {
    let jobs: Vec<(usize, u32)> = clips
        .iter()
        .enumerate()
        .flat_map(|(c, spec)| (0..spec.len).map(move |i| (c, i)))
        .collect();
    let rendered = parallel_map(jobs.len(), threads, |j| {
        let (c, i) = jobs[j];
        let t = Instant::now();
        let frame = Sequence::new(clips[c].id, clips[c].resolution).frame(clips[c].start + i);
        (frame, t.elapsed().as_secs_f64() * 1e3)
    });
    let mean_ms = rendered.iter().map(|(_, ms)| ms).sum::<f64>() / jobs.len().max(1) as f64;
    let mut out: Vec<Vec<Frame>> = clips.iter().map(|_| Vec::new()).collect();
    for ((c, _), (frame, _)) in jobs.iter().zip(rendered) {
        out[*c].push(frame);
    }
    (out, mean_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = arrival_schedule(7, 0, 2, 200, 66_666_667);
        assert_eq!(a, arrival_schedule(7, 0, 2, 200, 66_666_667));
        assert_ne!(a, arrival_schedule(8, 0, 2, 200, 66_666_667));
        assert_ne!(a, arrival_schedule(7, 1, 2, 200, 66_666_667));
        let starts = |seed| (0..4).map(|s| clip_start(seed, s, 7)).collect::<Vec<_>>();
        assert_eq!(starts(7), starts(7));
        assert!((1..40).any(|seed| starts(seed) != starts(7)));
        assert!((0..200).all(|seed| clip_start(seed, 0, 7) < START_SPAN));
        // A clip as long as the sequence can only start at frame 0.
        assert_eq!(clip_start(3, 0, FRAME_COUNT), 0);
    }

    #[test]
    fn schedule_is_ordered_jittered_and_phase_shifted() {
        let period = 66_666_667u64;
        let a = arrival_schedule(1, 0, 2, 300, period);
        let b = arrival_schedule(1, 1, 2, 300, period);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        for (k, (&x, &y)) in a.iter().zip(&b).enumerate() {
            let swing = (period as f64 * JITTER) as u64;
            let nominal = swing + k as u64 * period;
            assert!(x.abs_diff(nominal) <= swing + 1, "frame {k}");
            assert!(y.abs_diff(nominal + period / 2) <= swing + 1, "frame {k}");
        }
        assert!(a.windows(2).any(|w| w[1] - w[0] != period));
    }

    #[test]
    fn ping_pong_never_jumps() {
        let seq: Vec<usize> = (0..12).map(|k| ping_pong(k, 4)).collect();
        assert_eq!(seq, [0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1]);
        assert_eq!(ping_pong(5, 1), 0);
    }

    #[test]
    fn generate_is_deterministic_across_thread_counts() {
        let res = Resolution::new(32, 16);
        let clips = [
            ClipSpec {
                id: SequenceId::BlueSky,
                resolution: res,
                start: 3,
                len: 3,
            },
            ClipSpec {
                id: SequenceId::RushHour,
                resolution: res,
                start: 0,
                len: 2,
            },
        ];
        let (one, _) = generate(&clips, 1);
        let (two, ms) = generate(&clips, 2);
        assert_eq!(one, two);
        assert_eq!(one[0].len(), 3);
        assert_eq!(one[0][1], Sequence::new(SequenceId::BlueSky, res).frame(4));
        assert!(ms > 0.0);
    }
}
