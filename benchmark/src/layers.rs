//! Isolated loops over single public functions of the lower layers:
//! ns/call for the `hdvb-dsp` kernels, EPZS, the bit reader and writer,
//! the pool, the queue, the wire checksum and the histogram. Each is the
//! median of five timed batches on fixed, generated buffers.

use crate::report::{Report, Scale, DSP_KERNELS};
use crate::stats::Summary;
use hdvb_bits::{BitReader, BitWriter, VlcTable};
use hdvb_dsp::{Block4, Block8, Dsp, MPEG_DEFAULT_INTRA, MPEG_DEFAULT_NONINTRA};
use hdvb_frame::{Frame, PaddedPlane};
use hdvb_me::{epzs_search, BlockRef, EpzsThresholds, Mv, MvField, Predictors, SearchParams};
use hdvb_seq::SplitMix;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// ns per call of `f`: calibrates an iteration count that fills one
/// batch, then reports the median over [`BATCHES`] batches.
fn ns_per_call(scale: &Scale, mut f: impl FnMut()) -> Summary {
    let batch_ns = scale.micro_ms * 1e6;
    let mut iters: u64 = 1;
    let per = loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t.elapsed().as_nanos() as f64;
        if ns >= batch_ns / 8.0 || iters >= 1 << 28 {
            break ns / iters as f64;
        }
        iters *= 2;
    };
    let n = ((batch_ns / per.max(0.25)) as u64).max(1);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    Summary::of(&samples)
}

fn pixels(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    (0..len).map(|_| (rng.next_u64() >> 56) as u8).collect()
}

fn coeffs<const N: usize>(seed: u64, range: i64) -> [i16; N] {
    let mut rng = SplitMix::new(seed);
    std::array::from_fn(|_| ((rng.next_u64() >> 40) as i64 % range) as i16)
}

/// The fourteen `dsp.*_ns` metrics, on the auto tier. The source plane
/// has a padded stride (80) distinct from the destination's (64), like a
/// real padded reference: equal power-of-two strides alias in the L1 and
/// flatten every tier to the same floor.
pub fn dsp_kernels(scale: &Scale, report: &mut Report) {
    const STRIDE: usize = 80;
    let dsp = Dsp::default();
    let a = pixels(1, STRIDE * 70);
    let b = pixels(2, 64 * 64);
    let mut dst = vec![0u8; 64 * 64];
    let fwd: Block8 = coeffs(7, 256);
    let wide: Block8 = coeffs(9, 2040);
    let levels: Block8 = coeffs(11, 128);
    let res4: Block4 = coeffs(13, 256);
    let mut blk: Block8 = [0; 64];
    let mut blk4: Block4 = [0; 16];
    let mut edge = pixels(3, 64 * 16);

    let mut measured = Vec::new();
    let mut run = |name: &'static str, s: Summary| measured.push((name, s));
    run(
        "sad_16x16",
        ns_per_call(scale, || {
            black_box(dsp.sad(black_box(&a[1..]), STRIDE, &b, 64, 16, 16));
        }),
    );
    run(
        "satd_16x16",
        ns_per_call(scale, || {
            black_box(dsp.satd(black_box(&a[1..]), STRIDE, &b, 64, 16, 16));
        }),
    );
    run(
        "ssd_16x16",
        ns_per_call(scale, || {
            black_box(dsp.ssd(black_box(&a[1..]), STRIDE, &b, 64, 16, 16));
        }),
    );
    run(
        "fdct8",
        ns_per_call(scale, || {
            blk = *black_box(&fwd);
            dsp.fdct8(&mut blk);
            black_box(blk[0]);
        }),
    );
    run(
        "quant8",
        ns_per_call(scale, || {
            blk = *black_box(&wide);
            black_box(dsp.quant8(&mut blk, &MPEG_DEFAULT_INTRA, 5, true));
        }),
    );
    run(
        "fcore4",
        ns_per_call(scale, || {
            blk4 = *black_box(&res4);
            dsp.fcore4(&mut blk4);
            black_box(blk4[0]);
        }),
    );
    run(
        "idct8",
        ns_per_call(scale, || {
            blk = *black_box(&wide);
            dsp.idct8(&mut blk);
            black_box(blk[0]);
        }),
    );
    run(
        "dequant8",
        ns_per_call(scale, || {
            blk = *black_box(&levels);
            dsp.dequant8(&mut blk, &MPEG_DEFAULT_NONINTRA, 5, false);
            black_box(blk[0]);
        }),
    );
    run(
        "icore4",
        ns_per_call(scale, || {
            blk4 = *black_box(&res4);
            dsp.icore4(&mut blk4);
            black_box(blk4[0]);
        }),
    );
    run(
        "hpel_16x16",
        ns_per_call(scale, || {
            let src = &a[8 * STRIDE + 8..];
            dsp.hpel_interp(&mut dst, 64, black_box(src), STRIDE, 1, 1, 16, 16);
            black_box(dst[0]);
        }),
    );
    run(
        "sixtap_h_16x16",
        ns_per_call(scale, || {
            let src = &a[8 * STRIDE + 6..];
            dsp.sixtap_h(&mut dst, 64, black_box(src), STRIDE, 16, 16);
            black_box(dst[0]);
        }),
    );
    run(
        "sixtap_hv_16x16",
        ns_per_call(scale, || {
            let src = &a[6 * STRIDE + 6..];
            dsp.sixtap_hv(&mut dst, 64, black_box(src), STRIDE, 16, 16);
            black_box(dst[0]);
        }),
    );
    run(
        "deblock_edge",
        ns_per_call(scale, || {
            dsp.deblock_horiz_edge(&mut edge, 64, 8 * 64, 64, 15, 6, 1);
            black_box(edge[0]);
        }),
    );
    run(
        "copy_64x64",
        ns_per_call(scale, || {
            dsp.copy_block(&mut dst, 64, black_box(&a[1..]), STRIDE, 64, 64);
            black_box(dst[0]);
        }),
    );
    debug_assert!(measured.iter().map(|(n, _)| *n).eq(DSP_KERNELS));
    for (name, s) in measured {
        report.set(format!("dsp.{name}_ns"), s);
    }
}

/// `me.*`: EPZS over every 16×16 block of `cur` against `reference`, in
/// raster order with the spatial predictors an encoder would have.
pub fn epzs(cur: &Frame, reference: &Frame, report: &mut Report) {
    let dsp = Dsp::default();
    let refp = PaddedPlane::from_plane(reference.y(), 32);
    let (mbs_x, mbs_y) = (cur.width() / 16, cur.height() / 16);
    let previous = MvField::new(mbs_x, mbs_y);
    let mut evaluations = 0u64;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut field = MvField::new(mbs_x, mbs_y);
            evaluations = 0;
            let t = Instant::now();
            for by in 0..mbs_y {
                for bx in 0..mbs_x {
                    let preds = Predictors::gather(&field, &previous, bx, by);
                    let block = BlockRef {
                        plane: cur.y(),
                        x: bx * 16,
                        y: by * 16,
                        w: 16,
                        h: 16,
                    };
                    let params = SearchParams::new(24, 5).with_pred(preds.median());
                    let found = epzs_search(
                        &dsp,
                        block,
                        &refp,
                        &preds,
                        &EpzsThresholds::default(),
                        &params,
                    );
                    evaluations += u64::from(found.evaluations);
                    field.set(bx, by, found.mv);
                }
            }
            black_box(field.get(0, 0) == Mv::ZERO);
            t.elapsed().as_nanos() as f64 / (mbs_x * mbs_y) as f64
        })
        .collect();
    report.set("me.epzs_search_ns", Summary::of(&samples));
    report.set_exact(
        "me.epzs_evals_per_block",
        evaluations as f64 / (mbs_x * mbs_y) as f64,
    );
}

/// `bits.*`: a seeded mix of field widths through `put_bits` and
/// `get_bits`, and a seeded symbol stream through `VlcTable::decode`.
pub fn bits(scale: &Scale, report: &mut Report) {
    let count = (scale.micro_ms * 25_000.0) as usize;
    let mut rng = SplitMix::new(17);
    let fields: Vec<(u32, u32)> = (0..count)
        .map(|_| {
            // Mostly short fields with a tail of long ones, as in a
            // coefficient stream.
            let n =
                1 + (rng.next_u64() % 6 + (rng.next_u64() % 4 / 3) * (rng.next_u64() % 18)) as u32;
            ((rng.next_u64() as u32) & ((1u32 << n) - 1), n)
        })
        .collect();
    let total_bits: u64 = fields.iter().map(|&(_, n)| u64::from(n)).sum();
    let mut bytes = Vec::new();
    let write: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut w = BitWriter::with_capacity(total_bits as usize / 8 + 8);
            let t = Instant::now();
            for &(v, n) in &fields {
                w.put_bits(v, n);
            }
            let ns = t.elapsed().as_nanos() as f64;
            bytes = w.finish();
            total_bits as f64 * 1e3 / ns
        })
        .collect();
    report.set("bits.write_mbit_s", Summary::of(&write));
    let read: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut r = BitReader::new(&bytes);
            let mut acc = 0u32;
            let t = Instant::now();
            for &(_, n) in &fields {
                acc ^= r.get_bits(n).expect("reading back what was written");
            }
            let ns = t.elapsed().as_nanos() as f64;
            black_box(acc);
            total_bits as f64 * 1e3 / ns
        })
        .collect();
    report.set("bits.read_mbit_s", Summary::of(&read));

    // Two symbols of each length 2..=10, the shape of the codecs' own
    // coefficient tables; symbols are drawn with the probability their
    // code length implies.
    let lengths: Vec<u8> = (2..=10u8).flat_map(|l| [l, l]).collect();
    let table = VlcTable::from_lengths("benchmark", &lengths).expect("a valid prefix code");
    let mut w = BitWriter::new();
    for _ in 0..count {
        let level = (rng.next_u64().leading_zeros() as usize).min(8);
        let symbol = 2 * level + (rng.next_u64() & 1) as usize;
        table.encode(symbol as u32, &mut w);
    }
    let coded = w.finish();
    let vlc: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut r = BitReader::new(&coded);
            let mut acc = 0u32;
            let t = Instant::now();
            for _ in 0..count {
                acc ^= table.decode(&mut r).expect("decoding what was encoded");
            }
            let ns = t.elapsed().as_nanos() as f64;
            black_box(acc);
            ns / count as f64
        })
        .collect();
    report.set("bits.vlc_decode_ns", Summary::of(&vlc));
}

/// `par.task_overhead_ns`: 10 000 empty tasks through a one-thread pool.
pub fn par_overhead(report: &mut Report) {
    let pool = hdvb_par::ThreadPool::new(1);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let out = pool
                .par_map(vec![(); 10_000], |()| ())
                .expect("empty tasks do not panic");
            black_box(out.len());
            t.elapsed().as_nanos() as f64 / 10_000.0
        })
        .collect();
    report.set("par.task_overhead_ns", Summary::of(&samples));
}

/// `serve.queue_op_ns`: one uncontended push and pop.
pub fn queue_op(scale: &Scale, report: &mut Report) {
    let q = hdvb_serve::BoundedQueue::<u64>::new(8, hdvb_serve::OverflowPolicy::Block);
    report.set(
        "serve.queue_op_ns",
        ns_per_call(scale, || {
            let _ = q.push(black_box(1));
            black_box(q.try_pop());
        }),
    );
}

/// `net.checksum_mb_s`: the wire's payload checksum over 1 MiB.
pub fn checksum(scale: &Scale, report: &mut Report) {
    let data = pixels(5, 1 << 20);
    let per_mib = ns_per_call(scale, || {
        black_box(hdvb_net::wire::fnv1a(black_box(&data)));
    });
    report.set(
        "net.checksum_mb_s",
        per_mib.map(|ns| (1u64 << 20) as f64 * 1e3 / ns),
    );
}

/// `trace.hist_record_ns`: one `LatencyHistogram::record`.
pub fn hist_record(scale: &Scale, report: &mut Report) {
    let mut h = hdvb_trace::LatencyHistogram::new();
    let mut x = 1u64;
    report.set(
        "trace.hist_record_ns",
        ns_per_call(scale, || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(black_box(x >> 40));
        }),
    );
    black_box(h.count());
}
