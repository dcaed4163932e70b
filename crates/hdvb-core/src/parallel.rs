//! Parallel execution of the benchmark grids and GOP-parallel encoding.
//!
//! Two levels of parallelism, with different determinism contracts:
//!
//! * **Sweep-level** ([`ParallelRunner`]; the engine and the two grids
//!   live in [`crate::sweep`]): each cell of the Table V / Figure 1 grid
//!   (one resolution × sequence × codec measurement) is an independent
//!   encode→decode→PSNR pipeline, so running cells on a work-stealing
//!   pool and merging the results in grid order is **bit-identical** to
//!   measuring the cells one by one — same packets, same PSNR, same
//!   bitrate, for any thread count.
//! * **GOP-level** ([`encode_sequence_parallel`]): one sequence is split
//!   into GOP-aligned chunks encoded by concurrent encoder instances and
//!   the packet streams are spliced. Each chunk is a *closed* stream
//!   (starts with its own intra frame, references never cross chunk
//!   boundaries), so the splice decodes exactly; the output is
//!   deterministic for a fixed chunk count but differs from the serial
//!   stream by the extra intra points, which is why the serial encoder
//!   remains the `--threads 1` reference.

use crate::{BenchError, CodecId, CodingOptions, EncodeResult, Packet};
use hdvb_dsp::SimdLevel;
use hdvb_par::{TaskPanic, ThreadPool, WorkerStats};
use hdvb_seq::Sequence;
use std::time::{Duration, Instant};

impl From<TaskPanic> for BenchError {
    fn from(p: TaskPanic) -> Self {
        BenchError::Codec(format!("worker task {} panicked: {}", p.index, p.message))
    }
}

/// How a parallel sweep spent its time: wall clock versus CPU time, and
/// how evenly the workers were loaded.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Worker threads used (1 = everything on the calling thread).
    pub threads: usize,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
    /// Total time spent inside tasks summed over all lanes (equals
    /// `wall` on the serial path). Measured with wall clocks, so on an
    /// oversubscribed machine it also counts time a descheduled worker
    /// spent waiting for a core.
    pub cpu: Duration,
    /// Number of grid cells measured.
    pub cells: usize,
    /// Per-worker busy time and task counts (empty on the serial path).
    pub workers: Vec<WorkerStats>,
    /// Cells run by the submitting thread while it waited on the pool
    /// (the caller *helps*; zero on the serial path).
    pub caller: WorkerStats,
}

impl ExecutionReport {
    /// CPU-over-wall speed-up actually realised.
    pub fn speedup(&self) -> f64 {
        self.cpu.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// Lanes that actually ran tasks: the pool's spawned workers plus
    /// the submitting thread when it helped, or the single calling
    /// thread on the serial path. This can differ from [`threads`]
    /// (the *requested* count) when the pool clamps, so utilisation is
    /// measured against what really existed, not what was asked for.
    ///
    /// [`threads`]: ExecutionReport::threads
    pub fn effective_lanes(&self) -> usize {
        if self.workers.is_empty() {
            self.threads.max(1)
        } else {
            self.workers.len() + usize::from(self.caller.tasks > 0)
        }
    }

    /// Fraction of the available lane time spent running tasks,
    /// measured against [`effective_lanes`] (the submitting thread
    /// counts as an extra lane when it helped).
    ///
    /// [`effective_lanes`]: ExecutionReport::effective_lanes
    pub fn utilisation(&self) -> f64 {
        let lanes = self.effective_lanes();
        self.cpu.as_secs_f64() / (lanes as f64 * self.wall.as_secs_f64().max(1e-9))
    }

    /// A human-readable multi-line summary for harness output.
    pub fn summary(&self) -> String {
        let lanes = self.effective_lanes();
        let mut out = format!(
            "{} cells on {} thread{} ({} lane{}): wall {:.2}s, cpu {:.2}s, speedup {:.2}x, utilisation {:.0}%",
            self.cells,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            lanes,
            if lanes == 1 { "" } else { "s" },
            self.wall.as_secs_f64(),
            self.cpu.as_secs_f64(),
            self.speedup(),
            100.0 * self.utilisation(),
        );
        for (i, w) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "\n  worker {i}: busy {:.2}s ({:.0}%), {} tasks, {} stolen, {} parks, idle {:.2}s",
                w.busy.as_secs_f64(),
                100.0 * w.busy.as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
                w.tasks,
                w.steals,
                w.parks,
                w.idle.as_secs_f64(),
            ));
        }
        if self.caller.tasks > 0 {
            out.push_str(&format!(
                "\n  caller:   busy {:.2}s ({:.0}%), {} tasks, {} stolen (helped while waiting)",
                self.caller.busy.as_secs_f64(),
                100.0 * self.caller.busy.as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
                self.caller.tasks,
                self.caller.steals,
            ));
        }
        out
    }
}

/// Which Figure 1 subfigure(s) to measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure1Part {
    /// (a) decoding, scalar kernels.
    DecodeScalar,
    /// (b) decoding, SIMD kernels.
    DecodeSimd,
    /// (c) encoding, scalar kernels.
    EncodeScalar,
    /// (d) encoding, SIMD kernels.
    EncodeSimd,
    /// All four subfigures.
    All,
}

impl Figure1Part {
    /// Parses the CLI's `--part a|b|c|d|all` spelling.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "a" => Some(Figure1Part::DecodeScalar),
            "b" => Some(Figure1Part::DecodeSimd),
            "c" => Some(Figure1Part::EncodeScalar),
            "d" => Some(Figure1Part::EncodeSimd),
            "all" => Some(Figure1Part::All),
            _ => None,
        }
    }

    /// Whether a (direction, SIMD) combination belongs to this part.
    fn includes(self, decode: bool, simd: bool) -> bool {
        match self {
            Figure1Part::DecodeScalar => decode && !simd,
            Figure1Part::DecodeSimd => decode && simd,
            Figure1Part::EncodeScalar => !decode && !simd,
            Figure1Part::EncodeSimd => !decode && simd,
            Figure1Part::All => true,
        }
    }

    /// The bar rows `tier` contributes to this part, as directions
    /// (`true` = decode), decode first; empty when the tier is not in
    /// the part at all.
    pub fn directions(self, tier: SimdLevel) -> impl Iterator<Item = bool> {
        [true, false]
            .into_iter()
            .filter(move |&decode| self.includes(decode, tier.is_accelerated()))
    }
}

/// Runs the benchmark grids ([`table5_rows`](ParallelRunner::table5_rows),
/// [`figure1_rows`](ParallelRunner::figure1_rows)), fanning independent
/// cells over a work-stealing pool.
///
/// Construct with the desired thread count; `1` keeps everything on the
/// calling thread, any other count builds a [`ThreadPool`]. Results are
/// always merged in grid order and are bit-identical at any count.
pub struct ParallelRunner {
    threads: usize,
    pool: Option<ThreadPool>,
}

impl ParallelRunner {
    /// Creates a runner with `threads` workers; `0` means the machine's
    /// available parallelism.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            ThreadPool::default_threads()
        } else {
            threads
        };
        let pool = (threads > 1).then(|| ThreadPool::new(threads));
        ParallelRunner { threads, pool }
    }

    /// The worker count this runner was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The underlying pool, when running with more than one thread.
    pub fn pool(&self) -> Option<&ThreadPool> {
        self.pool.as_ref()
    }
}

/// How a GOP-parallel encode split its work.
#[derive(Clone, Copy, Debug)]
pub struct ParallelEncodeStats {
    /// Number of GOP-aligned chunks actually used.
    pub chunks: usize,
    /// Wall-clock time of the parallel encode region.
    pub wall: Duration,
    /// Summed per-chunk codec time (the CPU cost).
    pub cpu: Duration,
}

/// Splits `frames` into at most `chunks` GOP-aligned ranges.
///
/// The boundary rule: a chunk may only start on a multiple of the GOP
/// length `b_frames + 1`, so every chunk begins where the serial
/// encoder would emit an anchor and each chunk's stream is closed (its
/// first frame is intra, and no motion reference can cross the
/// boundary).
fn gop_chunk_ranges(frames: u32, b_frames: u8, chunks: usize) -> Vec<(u32, u32)> {
    let gop = u32::from(b_frames) + 1;
    let total_gops = frames.div_ceil(gop).max(1);
    let n_chunks = (chunks.max(1) as u32).min(total_gops);
    let gops_per_chunk = total_gops.div_ceil(n_chunks);
    let chunk_len = gops_per_chunk * gop;
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < frames {
        let end = frames.min(start + chunk_len);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// Encodes a sequence by splitting it into GOP-aligned chunks encoded
/// concurrently on `pool`, then splicing the packet streams in order.
///
/// Each chunk is encoded by a fresh encoder instance, so its stream is
/// closed: it starts with an intra frame and never references outside
/// itself, which makes the concatenation decode exactly (the packets'
/// display indices are rebased to the chunk's position). The output is
/// deterministic for a fixed `chunks` count. Compared to the serial
/// encoder the spliced stream carries `chunks - 1` extra intra points,
/// so [`crate::encode_sequence`] remains the single-thread reference.
///
/// The returned [`EncodeResult::elapsed`] is the wall-clock time of the
/// parallel region (so `encode_fps` reflects realised throughput);
/// [`ParallelEncodeStats`] carries the wall/CPU breakdown.
///
/// # Errors
///
/// Propagates codec errors from any chunk (first chunk in order wins),
/// and [`BenchError::BadRequest`] for zero frames.
pub fn encode_sequence_parallel(
    codec: CodecId,
    seq: Sequence,
    frames: u32,
    options: &CodingOptions,
    pool: &ThreadPool,
    chunks: usize,
) -> Result<(EncodeResult, ParallelEncodeStats), BenchError> {
    if frames == 0 {
        return Err(BenchError::BadRequest("cannot encode zero frames"));
    }
    let ranges = gop_chunk_ranges(frames, options.b_frames, chunks);
    let n_chunks = ranges.len();
    let t0 = Instant::now();
    let opts = *options;
    let parts = pool.par_map(ranges, move |(start, end)| {
        let _chunk = hdvb_trace::span!(hdvb_trace::Stage::GopChunk);
        let mut enc = crate::create_encoder(codec, seq.resolution(), &opts)?;
        let mut packets: Vec<Packet> = Vec::new();
        let mut elapsed = Duration::ZERO;
        for i in start..end {
            let frame = seq.frame(i); // untimed: input generation
            let t = Instant::now();
            enc.encode_frame_into(&frame, &mut packets)?;
            elapsed += t.elapsed();
        }
        let t = Instant::now();
        enc.finish_into(&mut packets)?;
        elapsed += t.elapsed();
        // Rebase display indices from chunk-local to sequence order.
        for p in &mut packets {
            p.display_index += start;
        }
        Ok::<_, BenchError>((packets, elapsed))
    })?;
    let wall = t0.elapsed();

    let mut packets = Vec::new();
    let mut cpu = Duration::ZERO;
    for part in parts {
        let (chunk_packets, chunk_elapsed) = part?;
        packets.extend(chunk_packets);
        cpu += chunk_elapsed;
    }
    let bits = packets.iter().map(Packet::bits).sum();
    let result = EncodeResult {
        packets,
        frames,
        elapsed: wall,
        bits,
        video_fps: seq.format().frame_rate.as_f64(),
    };
    let stats = ParallelEncodeStats {
        chunks: n_chunks,
        wall,
        cpu,
    };
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_sequence, encode_sequence};
    use hdvb_frame::SequencePsnr;
    use hdvb_seq::SequenceId;

    #[test]
    fn gop_chunk_ranges_align_to_gop() {
        // 12 frames, gop 3 (b_frames 2) -> 4 gops.
        let r = gop_chunk_ranges(12, 2, 4);
        assert_eq!(r, vec![(0, 3), (3, 6), (6, 9), (9, 12)]);
        for (start, _) in &r {
            assert_eq!(start % 3, 0);
        }
        // More chunks than gops collapses to one chunk per gop.
        assert_eq!(gop_chunk_ranges(6, 2, 100).len(), 2);
        // One chunk covers everything.
        assert_eq!(gop_chunk_ranges(10, 2, 1), vec![(0, 10)]);
        // Non-multiple tail stays in the last chunk.
        let r = gop_chunk_ranges(13, 2, 2);
        assert_eq!(r, vec![(0, 9), (9, 13)]);
    }

    #[test]
    fn figure1_part_selection() {
        assert_eq!(Figure1Part::from_name("a"), Some(Figure1Part::DecodeScalar));
        assert_eq!(Figure1Part::from_name("d"), Some(Figure1Part::EncodeSimd));
        assert_eq!(Figure1Part::from_name("all"), Some(Figure1Part::All));
        assert_eq!(Figure1Part::from_name("x"), None);
        assert!(Figure1Part::DecodeSimd.includes(true, true));
        assert!(!Figure1Part::DecodeSimd.includes(false, true));
        assert!(Figure1Part::All.includes(false, false));
        let directions = |part: Figure1Part, tier| part.directions(tier).collect::<Vec<_>>();
        assert_eq!(
            directions(Figure1Part::All, SimdLevel::Scalar),
            [true, false]
        );
        assert_eq!(
            directions(Figure1Part::EncodeScalar, SimdLevel::Scalar),
            [false]
        );
        assert!(directions(Figure1Part::DecodeSimd, SimdLevel::Scalar).is_empty());
    }

    #[test]
    fn gop_parallel_encode_decodes_exactly() {
        let pool = ThreadPool::new(3);
        let options = CodingOptions::default();
        let frames = 12;
        for codec in CodecId::ALL {
            let seq = Sequence::new(SequenceId::RushHour, hdvb_frame::Resolution::new(96, 80));
            let (par, stats) =
                encode_sequence_parallel(codec, seq, frames, &options, &pool, 4).unwrap();
            assert_eq!(stats.chunks, 4, "{codec}");
            let decoded = decode_sequence(codec, &par.packets, options.simd).unwrap();
            assert_eq!(decoded.frames.len(), frames as usize, "{codec}");
            // The spliced stream must reconstruct the sequence about as
            // well as the serial stream does.
            let serial = encode_sequence(codec, seq, frames, &options).unwrap();
            let serial_dec = decode_sequence(codec, &serial.packets, options.simd).unwrap();
            let psnr = |frames_dec: &[hdvb_frame::Frame]| {
                let mut acc = SequencePsnr::new();
                for (i, d) in frames_dec.iter().enumerate() {
                    acc.add(&seq.frame(i as u32), d);
                }
                acc.y_psnr()
            };
            let p_par = psnr(&decoded.frames);
            let p_ser = psnr(&serial_dec.frames);
            assert!(
                (p_par - p_ser).abs() < 3.0,
                "{codec}: parallel {p_par:.2} dB vs serial {p_ser:.2} dB"
            );
        }
    }

    #[test]
    fn gop_parallel_encode_is_deterministic() {
        let pool = ThreadPool::new(4);
        let options = CodingOptions::default();
        let seq = Sequence::new(SequenceId::Riverbed, hdvb_frame::Resolution::new(96, 80));
        for codec in CodecId::ALL {
            let (a, _) = encode_sequence_parallel(codec, seq, 12, &options, &pool, 4).unwrap();
            let (b, _) = encode_sequence_parallel(codec, seq, 12, &options, &pool, 4).unwrap();
            let pa: Vec<&[u8]> = a.packets.iter().map(|p| p.data.as_slice()).collect();
            let pb: Vec<&[u8]> = b.packets.iter().map(|p| p.data.as_slice()).collect();
            assert_eq!(pa, pb, "{codec}");
        }
    }

    #[test]
    fn single_chunk_parallel_encode_matches_serial_exactly() {
        let pool = ThreadPool::new(2);
        let options = CodingOptions::default();
        let seq = Sequence::new(SequenceId::BlueSky, hdvb_frame::Resolution::new(96, 80));
        for codec in CodecId::ALL {
            let (par, stats) = encode_sequence_parallel(codec, seq, 7, &options, &pool, 1).unwrap();
            assert_eq!(stats.chunks, 1);
            let serial = encode_sequence(codec, seq, 7, &options).unwrap();
            assert_eq!(par.packets.len(), serial.packets.len(), "{codec}");
            for (p, s) in par.packets.iter().zip(&serial.packets) {
                assert_eq!(p.data, s.data, "{codec}");
                assert_eq!(p.display_index, s.display_index, "{codec}");
            }
            assert_eq!(par.bits, serial.bits, "{codec}");
        }
    }

    #[test]
    fn parallel_runner_serial_path_has_no_pool() {
        let r = ParallelRunner::new(1);
        assert!(r.pool().is_none());
        assert_eq!(r.threads(), 1);
        let r = ParallelRunner::new(3);
        assert!(r.pool().is_some());
        assert_eq!(r.threads(), 3);
        assert!(ParallelRunner::new(0).threads() >= 1);
    }
}
