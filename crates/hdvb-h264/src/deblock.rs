//! In-loop deblocking filter with the standard α/β/t_c0 thresholds.
//!
//! Both the encoder's reconstruction loop and the decoder run this
//! filter on every reconstructed picture before it becomes a reference,
//! exactly once and with identical parameters, so references never
//! diverge. Both edge directions run through dispatched kernels in
//! `hdvb-dsp` (real decoders vectorise deblocking too): all vertical
//! edges of a plane in one call, then each horizontal edge.
//! Simplifications vs. the full standard (documented in DESIGN.md): a
//! single boundary strength (the bS=1 t_c0 row) on every 4×4 edge, and
//! no p1/q1 update.

use crate::tables::{ALPHA, BETA, TC0};
use hdvb_dsp::Dsp;
use hdvb_frame::{Frame, Plane};

/// Filters one plane on the grid of 4-aligned edges.
fn deblock_plane(dsp: &Dsp, plane: &mut Plane, qp: u8) {
    let alpha = i32::from(ALPHA[usize::from(qp.min(51))]);
    let beta = i32::from(BETA[usize::from(qp.min(51))]);
    let tc = i32::from(TC0[usize::from(qp.min(51))]).max(1);
    if alpha == 0 {
        return;
    }
    let (w, h) = (plane.width(), plane.height());
    let stride = plane.stride();
    let data = plane.data_mut();
    dsp.deblock_vert_edges(data, stride, w, h, alpha, beta, tc);
    // Horizontal edges. The bottom row of q1 samples must exist; the
    // last filterable edge is at y <= h - 2.
    let mut y = 4;
    while y + 1 < h {
        dsp.deblock_horiz_edge(data, stride, y * stride, w, alpha, beta, tc);
        y += 4;
    }
}

/// Runs the in-loop filter over a reconstructed frame.
pub(crate) fn deblock_frame(dsp: &Dsp, frame: &mut Frame, qp: u8) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::Deblock);
    deblock_plane(dsp, frame.y_mut(), qp);
    // Chroma uses the 8x8 luma grid = 4x4 in chroma samples, with the
    // chroma QP (same value here: no chroma QP offset).
    deblock_plane(dsp, frame.cb_mut(), qp);
    deblock_plane(dsp, frame.cr_mut(), qp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdvb_dsp::SimdLevel;

    #[test]
    fn low_qp_disables_the_filter() {
        let mut f = Frame::new(32, 32);
        for (i, v) in f.y_mut().data_mut().iter_mut().enumerate() {
            *v = (i % 251) as u8;
        }
        let before = f.clone();
        deblock_frame(&Dsp::default(), &mut f, 10); // alpha[10] == 0
        assert_eq!(f, before);
    }

    #[test]
    fn smooths_small_blocking_steps() {
        let mut f = Frame::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                f.y_mut().set(x, y, if x < 4 { 100 } else { 106 });
            }
        }
        deblock_frame(&Dsp::default(), &mut f, 30);
        let p0 = f.y().get(3, 10);
        let q0 = f.y().get(4, 10);
        assert!(
            i32::from(q0) - i32::from(p0) < 6,
            "edge not smoothed: {p0} vs {q0}"
        );
    }

    #[test]
    fn preserves_real_edges() {
        let mut f = Frame::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                f.y_mut().set(x, y, if x < 8 { 40 } else { 160 });
            }
        }
        let before = f.y().get(7, 5);
        deblock_frame(&Dsp::default(), &mut f, 30);
        assert_eq!(f.y().get(7, 5), before);
    }

    #[test]
    fn flat_areas_are_untouched() {
        let mut f = Frame::new(32, 32);
        f.y_mut().fill(90);
        let before = f.clone();
        deblock_frame(&Dsp::default(), &mut f, 40);
        assert_eq!(f, before);
    }

    #[test]
    fn scalar_and_simd_filters_are_identical() {
        let mut a = Frame::new(48, 48);
        for (i, v) in a.y_mut().data_mut().iter_mut().enumerate() {
            *v = ((i * 7) % 256) as u8;
        }
        for (i, v) in a.cb_mut().data_mut().iter_mut().enumerate() {
            *v = ((i * 13) % 256) as u8;
        }
        let mut b = a.clone();
        deblock_frame(&Dsp::new(SimdLevel::Scalar), &mut a, 26);
        deblock_frame(&Dsp::new(SimdLevel::Sse2), &mut b, 26);
        assert_eq!(a, b);
    }

    /// The filter as a plain column walk: vertical edges one sample at a
    /// time, horizontal edges through the scalar kernel.
    fn column_walk_plane(plane: &mut Plane, step: usize, qp: u8) {
        let dsp = Dsp::new(SimdLevel::Scalar);
        let alpha = i32::from(ALPHA[usize::from(qp.min(51))]);
        let beta = i32::from(BETA[usize::from(qp.min(51))]);
        let tc = i32::from(TC0[usize::from(qp.min(51))]).max(1);
        if alpha == 0 {
            return;
        }
        let (w, h) = (plane.width(), plane.height());
        let stride = plane.stride();
        let data = plane.data_mut();
        let mut x = step;
        while x < w {
            for y in 0..h {
                let i = y * stride + x;
                let p1 = i32::from(data[i - 2]);
                let p0 = i32::from(data[i - 1]);
                let q0 = i32::from(data[i]);
                let q1 = i32::from(data[i + (x + 1 < w) as usize]);
                if (p0 - q0).abs() < alpha && (p1 - p0).abs() < beta && (q1 - q0).abs() < beta {
                    let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-tc, tc);
                    data[i - 1] = (p0 + delta).clamp(0, 255) as u8;
                    data[i] = (q0 - delta).clamp(0, 255) as u8;
                }
            }
            x += step;
        }
        let mut y = step;
        while y + 1 < h {
            dsp.deblock_horiz_edge(data, stride, y * stride, w, alpha, beta, tc);
            y += step;
        }
    }

    /// Blocky seeded content: a level per 4×4 block plus a little noise,
    /// with some blocks pinned at 0 or 255 so the filter's clamps fire.
    fn blocky_plane(plane: &mut Plane, seed: u32) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            state >> 16
        };
        let (w, h) = (plane.width(), plane.height());
        let bw = w.div_ceil(4);
        let levels: Vec<i32> = (0..bw * h.div_ceil(4))
            .map(|_| match next() % 8 {
                0 => 0,
                1 => 255,
                _ => 96 + (next() % 64) as i32,
            })
            .collect();
        for y in 0..h {
            for x in 0..w {
                let noise = (next() % 7) as i32 - 3;
                let v = (levels[(y / 4) * bw + x / 4] + noise).clamp(0, 255);
                plane.set(x, y, v as u8);
            }
        }
    }

    #[test]
    fn every_tier_matches_the_column_walk() {
        let mut seed = 1;
        for (w, h) in [(16, 16), (48, 32), (176, 112), (176, 144), (1280, 720)] {
            let mut src = Frame::new(w, h);
            let (y, cb, cr) = src.planes_mut();
            for p in [y, cb, cr] {
                blocky_plane(p, seed);
                seed += 1;
            }
            for qp in [10, 21, 30, 45] {
                let mut want = src.clone();
                let (y, cb, cr) = want.planes_mut();
                for p in [y, cb, cr] {
                    column_walk_plane(p, 4, qp);
                }
                assert_eq!(qp == 10, want == src, "{w}x{h} qp {qp}: filter activity");
                for level in SimdLevel::supported_tiers() {
                    let mut got = src.clone();
                    deblock_frame(&Dsp::new(level), &mut got, qp);
                    assert!(
                        got == want,
                        "{w}x{h} qp {qp} {}: differs from the column walk",
                        level.tier_name()
                    );
                }
            }
        }
    }
}
