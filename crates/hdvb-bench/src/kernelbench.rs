//! Self-contained kernel microbenchmark: per-kernel ns/call at every
//! SIMD tier the CPU supports, plus the machine-readable JSON the
//! `hdvb kernels`/`hdvb bench --json` commands write to
//! `BENCH_kernels.json`.
//!
//! Unlike the criterion bench targets, this harness has no external
//! dependencies and runs inside the CLI, so the perf trajectory file can
//! be regenerated on any host with one command.

use hdvb_dsp::{Block8, Dsp, SimdLevel, SubpelWindow, MPEG_DEFAULT_INTRA, MPEG_DEFAULT_NONINTRA};
use hdvb_frame::{PaddedPlane, Plane};
use hdvb_me::{refine_qpel, BlockRef, Mv, SubpelTarget};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured (kernel, tier) cell.
#[derive(Clone, Debug)]
pub struct KernelMeasurement {
    /// Kernel name (stable across runs; used as the JSON key).
    pub kernel: &'static str,
    /// Tier the measurement ran at (`scalar`, `sse2`, `avx2`).
    pub tier: &'static str,
    /// Best observed nanoseconds per kernel call.
    pub ns_per_call: f64,
}

/// Measures `f` and returns the best observed ns/call: the iteration
/// count is calibrated so a batch runs a few milliseconds, then the
/// minimum over several batches is taken (minimum, not mean, to shrug
/// off scheduler noise on a loaded machine).
fn ns_per_call<F: FnMut()>(mut f: F) -> f64 {
    let mut iters: u64 = 1;
    let per = loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let el = t.elapsed();
        if el >= Duration::from_millis(2) || iters >= 1 << 28 {
            break el.as_nanos() as f64 / iters as f64;
        }
        iters *= 2;
    };
    let batch = ((8e6 / per.max(0.5)) as u64).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    best
}

fn pixels(seed: u32, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 24) as u8
        })
        .collect()
}

fn coeff_block(seed: u32, range: i16) -> Block8 {
    let mut state = seed;
    let mut b = [0i16; 64];
    for v in &mut b {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        *v = ((state >> 16) as i16) % range;
    }
    b
}

/// The kernels measured per tier, in report order.
pub const KERNEL_NAMES: [&str; 17] = [
    "sad_16x16",
    "satd_16x16",
    "ssd_16x16",
    "copy_64x64",
    "avg_16x16",
    "hpel_16x16",
    "sixtap_h_16x16",
    "sixtap_v_16x16",
    "sixtap_hv_16x16",
    "qpel_window_16x16",
    "qpel_window_8x8",
    "refine_qpel_16x16_satd",
    "fdct8",
    "idct8",
    "quant8",
    "dequant8",
    "deblock_edge_64",
];

/// Runs every kernel at one tier and returns the measurements in
/// [`KERNEL_NAMES`] order.
pub fn measure_tier(level: SimdLevel) -> Vec<KernelMeasurement> {
    let dsp = Dsp::new(level);
    let tier = level.tier_name();
    // Source plane with a padded stride (80) distinct from the
    // destination stride (64), like a real padded reference plane.
    // Equal power-of-two strides would put every source row at the same
    // 4 KiB page offset as its destination row, and the resulting
    // store-to-load aliasing stalls flatten all tiers to the same
    // artificial floor.
    const SRC_STRIDE: usize = 80;
    let a = pixels(1, SRC_STRIDE * 70);
    let b = pixels(2, 64 * 64);
    let mut dst = vec![0u8; 64 * 64];
    let fwd = coeff_block(7, 256);
    let coeffs = coeff_block(9, 2040);
    let levels = coeff_block(11, 128);
    let mut blk: Block8 = [0; 64];
    let mut deblock_data = pixels(3, 64 * 16);
    // Sub-pel refinement: a current block and a reference that is the
    // same texture moved a little, so the 17 candidates have a real
    // minimum away from the centre.
    let texture = |shift: usize| {
        let mut p = Plane::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                p.set(
                    x,
                    y,
                    a[(y + shift) * SRC_STRIDE + x + shift] / 2 + (x * 2 + y) as u8 / 2,
                );
            }
        }
        p
    };
    let cur = texture(0);
    let refp = PaddedPlane::from_plane(&texture(1), 16);
    let mut win = SubpelWindow::new();

    let mut out = Vec::new();
    let mut push = |kernel: &'static str, ns: f64| {
        out.push(KernelMeasurement {
            kernel,
            tier,
            ns_per_call: ns,
        })
    };

    push(
        "sad_16x16",
        ns_per_call(|| {
            black_box(dsp.sad(black_box(&a[1..]), SRC_STRIDE, &b, 64, 16, 16));
        }),
    );
    push(
        "satd_16x16",
        ns_per_call(|| {
            black_box(dsp.satd(black_box(&a[1..]), SRC_STRIDE, &b, 64, 16, 16));
        }),
    );
    push(
        "ssd_16x16",
        ns_per_call(|| {
            black_box(dsp.ssd(black_box(&a[1..]), SRC_STRIDE, &b, 64, 16, 16));
        }),
    );
    push(
        "copy_64x64",
        ns_per_call(|| {
            dsp.copy_block(&mut dst, 64, black_box(&a[1..]), SRC_STRIDE, 64, 64);
            black_box(dst[0]);
        }),
    );
    push(
        "avg_16x16",
        ns_per_call(|| {
            dsp.avg_block(&mut dst, 64, black_box(&a[1..]), SRC_STRIDE, &b, 64, 16, 16);
            black_box(dst[0]);
        }),
    );
    push(
        "hpel_16x16",
        ns_per_call(|| {
            let src = &a[8 * SRC_STRIDE + 8..];
            dsp.hpel_interp(&mut dst, 64, black_box(src), SRC_STRIDE, 1, 1, 16, 16);
            black_box(dst[0]);
        }),
    );
    push(
        "sixtap_h_16x16",
        ns_per_call(|| {
            let src = &a[8 * SRC_STRIDE + 6..];
            dsp.sixtap_h(&mut dst, 64, black_box(src), SRC_STRIDE, 16, 16);
            black_box(dst[0]);
        }),
    );
    push(
        "sixtap_v_16x16",
        ns_per_call(|| {
            let src = &a[6 * SRC_STRIDE + 8..];
            dsp.sixtap_v(&mut dst, 64, black_box(src), SRC_STRIDE, 16, 16);
            black_box(dst[0]);
        }),
    );
    push(
        "sixtap_hv_16x16",
        ns_per_call(|| {
            let src = &a[6 * SRC_STRIDE + 6..];
            dsp.sixtap_hv(&mut dst, 64, black_box(src), SRC_STRIDE, 16, 16);
            black_box(dst[0]);
        }),
    );
    push(
        "qpel_window_16x16",
        ns_per_call(|| {
            win.fill_sixtap(&dsp, black_box(&refp), 25, 23, 16, 16);
            black_box(win.half(1, 1)[0]);
        }),
    );
    push(
        "qpel_window_8x8",
        ns_per_call(|| {
            win.fill_sixtap(&dsp, black_box(&refp), 25, 23, 8, 8);
            black_box(win.half(1, 1)[0]);
        }),
    );
    // Window fill plus the 17 scored candidates: one whole refinement as
    // the H.264 encoder runs it.
    let target = SubpelTarget {
        cost: dsp.satd_fn(),
        block: BlockRef {
            plane: &cur,
            x: 24,
            y: 24,
            w: 16,
            h: 16,
        },
        lambda: 4,
        pred: Mv::new(3, -2),
    };
    push(
        "refine_qpel_16x16_satd",
        ns_per_call(|| {
            let fullpel = black_box(Mv::new(1, -1));
            let (x, y) = target.block.displaced(fullpel);
            win.fill_sixtap(&dsp, &refp, x, y, 16, 16);
            black_box(refine_qpel(&dsp, &win, &target, fullpel));
        }),
    );
    push(
        "fdct8",
        ns_per_call(|| {
            blk = *black_box(&fwd);
            dsp.fdct8(&mut blk);
            black_box(blk[0]);
        }),
    );
    push(
        "idct8",
        ns_per_call(|| {
            blk = *black_box(&coeffs);
            dsp.idct8(&mut blk);
            black_box(blk[0]);
        }),
    );
    push(
        "quant8",
        ns_per_call(|| {
            blk = *black_box(&coeffs);
            black_box(dsp.quant8(&mut blk, &MPEG_DEFAULT_INTRA, 5, true));
        }),
    );
    push(
        "dequant8",
        ns_per_call(|| {
            blk = *black_box(&levels);
            dsp.dequant8(&mut blk, &MPEG_DEFAULT_NONINTRA, 5, false);
            black_box(blk[0]);
        }),
    );
    push(
        "deblock_edge_64",
        ns_per_call(|| {
            dsp.deblock_horiz_edge(&mut deblock_data, 64, 8 * 64, 64, 15, 6, 1);
            black_box(deblock_data[0]);
        }),
    );
    out
}

/// Runs the full microbenchmark over every tier the CPU supports.
pub fn run_all() -> Vec<KernelMeasurement> {
    SimdLevel::supported_tiers()
        .into_iter()
        .flat_map(measure_tier)
        .collect()
}

/// Formats measurements as an aligned text table: one row per kernel,
/// one ns/call column per tier, plus each accelerated tier's speed-up
/// over scalar.
pub fn kernels_table(rows: &[KernelMeasurement]) -> String {
    let tiers: Vec<&str> = {
        let mut t: Vec<&str> = rows.iter().map(|r| r.tier).collect();
        t.dedup();
        t
    };
    let cell = |kernel: &str, tier: &str| -> Option<f64> {
        rows.iter()
            .find(|r| r.kernel == kernel && r.tier == tier)
            .map(|r| r.ns_per_call)
    };
    let mut out = String::new();
    out.push_str(&format!("{:<24}", "kernel"));
    for t in &tiers {
        out.push_str(&format!("{:>12}", format!("{t} ns")));
    }
    for t in tiers.iter().skip(1) {
        out.push_str(&format!("{:>12}", format!("{t} x")));
    }
    out.push('\n');
    for kernel in KERNEL_NAMES {
        let Some(base) = cell(kernel, tiers[0]) else {
            continue;
        };
        out.push_str(&format!("{kernel:<24}"));
        for t in &tiers {
            match cell(kernel, t) {
                Some(ns) => out.push_str(&format!("{ns:>12.1}")),
                None => out.push_str(&format!("{:>12}", "-")),
            }
        }
        for t in tiers.iter().skip(1) {
            match cell(kernel, t) {
                Some(ns) if ns > 0.0 => out.push_str(&format!("{:>12.2}", base / ns)),
                _ => out.push_str(&format!("{:>12}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders measurements as the `BENCH_kernels.json` document.
pub fn kernels_json(rows: &[KernelMeasurement], cpu: &str) -> String {
    let tiers: Vec<String> = SimdLevel::supported_tiers()
        .into_iter()
        .map(|t| format!("\"{}\"", t.tier_name()))
        .collect();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"kernels\",\n");
    out.push_str(&format!("  \"cpu\": {},\n", hdvb_trace::json::escape(cpu)));
    out.push_str(&format!(
        "  \"auto_tier\": \"{}\",\n",
        SimdLevel::detect().tier_name()
    ));
    out.push_str(&format!("  \"tiers\": [{}],\n", tiers.join(", ")));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"tier\": \"{}\", \"ns_per_call\": {:.2}}}{comma}\n",
            r.kernel, r.tier, r.ns_per_call
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_tier_covers_every_kernel() {
        // Scalar only: fast enough for the test suite and exercises the
        // whole harness path.
        let rows = measure_tier(SimdLevel::Scalar);
        assert_eq!(rows.len(), KERNEL_NAMES.len());
        for (r, name) in rows.iter().zip(KERNEL_NAMES) {
            assert_eq!(r.kernel, name);
            assert_eq!(r.tier, "scalar");
            assert!(r.ns_per_call > 0.0, "{name}");
        }
    }

    #[test]
    fn json_shape_is_parsable_enough() {
        let rows = vec![
            KernelMeasurement {
                kernel: "sad_16x16",
                tier: "scalar",
                ns_per_call: 123.456,
            },
            KernelMeasurement {
                kernel: "sad_16x16",
                tier: "sse2",
                ns_per_call: 31.0,
            },
        ];
        let json = kernels_json(&rows, "Test \"CPU\"");
        assert!(json.contains("\"benchmark\": \"kernels\""));
        assert!(json.contains("\\\"CPU\\\""));
        assert!(json.contains("\"ns_per_call\": 123.46"));
        // Exactly one trailing element without comma per list.
        assert!(!json.contains(",\n  ]"));
        let table = kernels_table(&rows);
        assert!(table.contains("sad_16x16"));
        assert!(table.contains("3.98")); // 123.456 / 31.0
    }
}
