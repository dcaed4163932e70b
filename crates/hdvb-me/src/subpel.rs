//! Sub-pel motion refinement, one implementation for the three codecs.
//!
//! After a full-pel search the encoders test the eight half-pel
//! neighbours of the winner and — the quarter-pel codecs — the eight
//! quarter-pel neighbours of the best of those: 9 or 17 candidates that
//! all lie within one pel of the full-pel vector. The candidates'
//! predictions come from a [`SubpelWindow`](hdvb_dsp::SubpelWindow) the
//! caller filled **once** at that vector (6-tap for MPEG-4/H.264,
//! bilinear for MPEG-2); refinement itself is then 9 or 17 block
//! compares, at most 8 of them preceded by one `avg_block`. The codecs
//! differ only in the [`SubpelTarget`] they pass: SAD or SATD, their λ
//! and their vector predictor. The B-picture bi-prediction trial
//! ([`bipred_luma`]) reads its two predictions from the same windows, and
//! the DCT codecs' intra/inter decision ([`mb_prefers_intra`]) lives here
//! because it is the other half of the same mode decision.
//!
//! Candidate order and tie-breaking are part of the coded bytes: each
//! stage scans its neighbours row by row (`dy` outer, `dx` inner) and
//! moves only on a strictly smaller cost, so the centre wins ties, then
//! the earlier neighbour.

use crate::search::SQUARE8;
use crate::{mv_bits, BlockRef, Mv};
use hdvb_dsp::{Dsp, SadFn, SubpelWindow};

/// What a refinement scores its candidates against.
#[derive(Clone, Copy)]
pub struct SubpelTarget<'a> {
    /// Block-compare kernel: [`Dsp::sad_fn`] or [`Dsp::satd_fn`].
    pub cost: SadFn,
    /// The current-picture block being matched; the window refined over
    /// must have been filled for its size.
    pub block: BlockRef<'a>,
    /// λ in `J = D + λ·R(mv − pred)`.
    pub lambda: u32,
    /// Vector predictor, in the units of the refined vector.
    pub pred: Mv,
}

impl SubpelTarget<'_> {
    fn score(&self, pred: &[u8], pred_stride: usize, mv: Mv) -> u32 {
        let BlockRef { plane, x, y, w, h } = self.block;
        let cur = &plane.data()[y * plane.stride() + x..];
        (self.cost)(cur, plane.stride(), pred, pred_stride, w, h)
            + self.lambda * mv_bits(mv, self.pred)
    }
}

/// Best half-pel-lattice offset (half-pel units, `−1..=1²`) around the
/// window's centre and its cost; `unit` is the length of one half-pel
/// step in the units of `center` and of the target's predictor.
fn best_half(win: &SubpelWindow, target: &SubpelTarget<'_>, center: Mv, unit: i16) -> (Mv, u32) {
    assert_eq!(
        (win.width(), win.height()),
        (target.block.w, target.block.h),
        "the window must be filled for the target block's size"
    );
    let score = |off: Mv| {
        let pred = win.half(i32::from(off.x), i32::from(off.y));
        target.score(pred, SubpelWindow::STRIDE, center + off.scaled(unit))
    };
    let mut best = (Mv::ZERO, score(Mv::ZERO));
    for (dx, dy) in SQUARE8 {
        let cost = score(Mv::new(dx, dy));
        if cost < best.1 {
            best = (Mv::new(dx, dy), cost);
        }
    }
    best
}

/// Half-pel refinement of `fullpel` over a window filled at that vector
/// ([`fill_bilinear`](hdvb_dsp::SubpelWindow::fill_bilinear) for the
/// MPEG-2-class codec). Returns the best vector in **half-pel** units
/// and its cost.
pub fn refine_hpel(win: &SubpelWindow, target: &SubpelTarget<'_>, fullpel: Mv) -> (Mv, u32) {
    let _me = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
    let center = fullpel.scaled(2);
    let (off, cost) = best_half(win, target, center, 1);
    (center + off, cost)
}

/// Two-stage quarter-pel refinement of `fullpel` over a window filled at
/// that vector with
/// [`fill_sixtap`](hdvb_dsp::SubpelWindow::fill_sixtap): the half-pel
/// lattice first, then the eight quarter-pel neighbours of its winner.
/// Returns the best vector in **quarter-pel** units and its cost.
pub fn refine_qpel(
    dsp: &Dsp,
    win: &SubpelWindow,
    target: &SubpelTarget<'_>,
    fullpel: Mv,
) -> (Mv, u32) {
    let _me = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
    let center = fullpel.scaled(4);
    let (half, mut best_cost) = best_half(win, target, center, 2);
    let mut best = half.scaled(2);
    let mut scratch = [0u8; 256];
    for (dx, dy) in SQUARE8 {
        let off = half.scaled(2) + Mv::new(dx, dy);
        let (pred, stride) = win.quarter(dsp, i32::from(off.x), i32::from(off.y), &mut scratch);
        let cost = target.score(pred, stride, center + off);
        if cost < best_cost {
            (best, best_cost) = (off, cost);
        }
    }
    (center + best, best_cost)
}

/// Luma of a B-picture bi-prediction trial: the rounded average of two
/// refined 16×16 candidates, each given as the window it was refined
/// over and its quarter-pel offset from that window's full-pel vector
/// (twice the half-pel offset for the half-pel codec). Both predictions
/// are already in the windows, so nothing is motion-compensated again.
pub fn bipred_luma(dsp: &Dsp, fwd: (&SubpelWindow, Mv), bwd: (&SubpelWindow, Mv)) -> [u8; 256] {
    let (mut tmp_f, mut tmp_b) = ([0u8; 256], [0u8; 256]);
    let (win_f, off_f) = fwd;
    let (win_b, off_b) = bwd;
    let (luma_f, stride_f) = win_f.quarter(dsp, off_f.x.into(), off_f.y.into(), &mut tmp_f);
    let (luma_b, stride_b) = win_b.quarter(dsp, off_b.x.into(), off_b.y.into(), &mut tmp_b);
    let mut bi = [0u8; 256];
    dsp.avg_block(&mut bi, 16, luma_f, stride_f, luma_b, stride_b, 16, 16);
    bi
}

/// Mean-removed SAD of the 16×16 luma macroblock at `mb`'s origin: the
/// DCT codecs' intra-cost estimate.
fn mb_intra_activity(dsp: &Dsp, mb: BlockRef<'_>) -> u32 {
    let stride = mb.plane.stride();
    let cur = &mb.plane.data()[mb.y * stride + mb.x..];
    // A constant block is one 16-sample row read with stride 0: the SAD
    // against zero is the sample sum, against the mean the activity.
    let sum = dsp.sad(cur, stride, &[0u8; 16], 0, 16, 16);
    dsp.sad(cur, stride, &[(sum / 256) as u8; 16], 0, 16, 16)
}

/// The DCT codecs' intra/inter decision for macroblock `mb`: intra when
/// its activity plus a fixed bias toward inter is below the best inter
/// cost — which no activity can be once that cost is within the bias, so
/// the activity is not computed then.
pub fn mb_prefers_intra(dsp: &Dsp, mb: BlockRef<'_>, inter_cost: u32) -> bool {
    const INTER_BIAS: u32 = 2048;
    inter_cost > INTER_BIAS && mb_intra_activity(dsp, mb) + INTER_BIAS < inter_cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdvb_dsp::SimdLevel;
    use hdvb_frame::{PaddedPlane, Plane};

    fn lcg(state: &mut u32) -> u32 {
        *state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        *state >> 8
    }

    /// A smooth field plus noise, so sub-pel costs have real minima and
    /// (with `flat`) exact ties.
    fn plane(w: usize, h: usize, seed: u32, flat: bool) -> Plane {
        let mut p = Plane::new(w, h);
        let mut s = seed;
        for y in 0..h {
            for x in 0..w {
                let v = if flat {
                    90
                } else {
                    ((x * 5 + y * 3) % 200) as u32 + lcg(&mut s) % 24
                };
                p.set(x, y, v as u8);
            }
        }
        p
    }

    /// The refinement as the encoders wrote it before the window: an
    /// 8-neighbour pattern step over a closure that interpolates every
    /// candidate with `qpel_luma`.
    fn pattern_step(center: Mv, initial: u32, mut cost: impl FnMut(Mv) -> u32) -> (Mv, u32) {
        let (mut best, mut best_cost) = (center, initial);
        for dy in -1i16..=1 {
            for dx in -1i16..=1 {
                if (dx, dy) == (0, 0) {
                    continue;
                }
                let mv = center + Mv::new(dx, dy);
                let c = cost(mv);
                if c < best_cost {
                    (best, best_cost) = (mv, c);
                }
            }
        }
        (best, best_cost)
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_refine_qpel(
        dsp: &Dsp,
        refp: &PaddedPlane,
        t: &SubpelTarget<'_>,
        bx: usize,
        by: usize,
        bw: usize,
        bh: usize,
        fullpel: Mv,
    ) -> (Mv, u32) {
        let mut tmp = [0u8; 256];
        let mut cost_at = |qmv: Mv| {
            let ix = bx as isize + isize::from(qmv.x >> 2) - 2;
            let iy = by as isize + isize::from(qmv.y >> 2) - 2;
            let (fx, fy) = ((qmv.x & 3) as u8, (qmv.y & 3) as u8);
            dsp.qpel_luma(
                &mut tmp,
                bw,
                refp.row_from(ix, iy),
                refp.stride(),
                fx,
                fy,
                bw,
                bh,
            );
            let cur = &t.block.plane.data()[by * t.block.plane.stride() + bx..];
            (t.cost)(cur, t.block.plane.stride(), &tmp, bw, bw, bh)
                + t.lambda * mv_bits(qmv, t.pred)
        };
        let center_h = fullpel.scaled(2);
        let initial = cost_at(center_h.scaled(2));
        let (best_h, cost_h) = pattern_step(center_h, initial, |h| cost_at(h.scaled(2)));
        pattern_step(best_h.scaled(2), cost_h, cost_at)
    }

    #[test]
    fn refine_qpel_matches_the_per_candidate_refinement_on_1000_blocks() {
        let sizes = [(16, 16), (16, 8), (8, 16), (8, 8)];
        for level in SimdLevel::supported_tiers() {
            let dsp = Dsp::new(level);
            let mut s = 99u32;
            let mut win = SubpelWindow::new();
            let mut moved = 0;
            for n in 0..1000 {
                // Every eighth pair is flat: all 17 costs tie on the
                // distortion and only the rate term and scan order decide.
                let flat = n % 8 == 0;
                let cur = plane(64, 64, lcg(&mut s), flat);
                let refp = PaddedPlane::from_plane(&plane(64, 64, lcg(&mut s), flat), 24);
                let (bw, bh) = sizes[n % 4];
                let bx = (lcg(&mut s) as usize % (64 - bw)) & !7;
                let by = (lcg(&mut s) as usize % (64 - bh)) & !7;
                let fullpel = Mv::new((lcg(&mut s) % 9) as i16 - 4, (lcg(&mut s) % 9) as i16 - 4);
                let pred = Mv::new(
                    (lcg(&mut s) % 33) as i16 - 16,
                    (lcg(&mut s) % 33) as i16 - 16,
                );
                for cost in [dsp.sad_fn(), dsp.satd_fn()] {
                    let block = BlockRef {
                        plane: &cur,
                        x: bx,
                        y: by,
                        w: bw,
                        h: bh,
                    };
                    let t = SubpelTarget {
                        cost,
                        block,
                        lambda: 1 + lcg(&mut s) % 12,
                        pred,
                    };
                    let want = reference_refine_qpel(&dsp, &refp, &t, bx, by, bw, bh, fullpel);
                    let (x, y) = block.displaced(fullpel);
                    win.fill_sixtap(&dsp, &refp, x, y, bw, bh);
                    let got = refine_qpel(&dsp, &win, &t, fullpel);
                    assert_eq!(got, want, "{level:?} block {n} ({bw}x{bh}, flat {flat})");
                    moved += usize::from(got.0 != fullpel.scaled(4));
                }
            }
            assert!(moved > 500, "the blocks must exercise real refinement");
        }
    }

    #[test]
    fn refine_hpel_matches_per_candidate_bilinear_refinement() {
        let dsp = Dsp::default();
        let mut s = 5u32;
        let mut win = SubpelWindow::new();
        for n in 0..300 {
            let cur = plane(48, 48, lcg(&mut s), n % 8 == 0);
            let refp = PaddedPlane::from_plane(&plane(48, 48, lcg(&mut s), n % 8 == 0), 16);
            let (bx, by) = (16 * (n % 3), 16 * (n / 3 % 3));
            let fullpel = Mv::new((lcg(&mut s) % 7) as i16 - 3, (lcg(&mut s) % 7) as i16 - 3);
            let block = BlockRef {
                plane: &cur,
                x: bx,
                y: by,
                w: 16,
                h: 16,
            };
            let t = SubpelTarget {
                cost: dsp.sad_fn(),
                block,
                lambda: 1 + lcg(&mut s) % 8,
                pred: Mv::new((lcg(&mut s) % 17) as i16 - 8, 3),
            };
            let mut tmp = [0u8; 256];
            let mut cost_at = |mv: Mv| {
                let src = refp.row_from(
                    bx as isize + isize::from(mv.x >> 1),
                    by as isize + isize::from(mv.y >> 1),
                );
                let (fx, fy) = ((mv.x & 1) as u8, (mv.y & 1) as u8);
                dsp.hpel_interp(&mut tmp, 16, src, refp.stride(), fx, fy, 16, 16);
                (t.cost)(
                    &cur.data()[by * cur.stride() + bx..],
                    cur.stride(),
                    &tmp,
                    16,
                    16,
                    16,
                ) + t.lambda * mv_bits(mv, t.pred)
            };
            let center = fullpel.scaled(2);
            let want = pattern_step(center, cost_at(center), &mut cost_at);
            let (x, y) = block.displaced(fullpel);
            win.fill_bilinear(&dsp, &refp, x, y, 16, 16);
            assert_eq!(refine_hpel(&win, &t, fullpel), want, "block {n}");
        }
    }

    #[test]
    fn ties_keep_the_centre() {
        // Identical flat pictures and λ = 0: all 17 candidates cost 0.
        let dsp = Dsp::default();
        let cur = plane(32, 32, 1, true);
        let refp = PaddedPlane::from_plane(&cur, 16);
        let t = SubpelTarget {
            cost: dsp.satd_fn(),
            block: BlockRef {
                plane: &cur,
                x: 8,
                y: 8,
                w: 16,
                h: 16,
            },
            lambda: 0,
            pred: Mv::ZERO,
        };
        let mut win = SubpelWindow::new();
        win.fill_sixtap(&dsp, &refp, 9, 7, 16, 16);
        let fullpel = Mv::new(1, -1);
        assert_eq!(refine_qpel(&dsp, &win, &t, fullpel), (fullpel.scaled(4), 0));
    }

    #[test]
    fn bipred_luma_averages_the_two_compensated_predictions() {
        let dsp = Dsp::default();
        let fwd = PaddedPlane::from_plane(&plane(48, 48, 3, false), 16);
        let bwd = PaddedPlane::from_plane(&plane(48, 48, 4, false), 16);
        let (mut win_f, mut win_b) = (SubpelWindow::new(), SubpelWindow::new());
        win_f.fill_sixtap(&dsp, &fwd, 17, 15, 16, 16);
        win_b.fill_sixtap(&dsp, &bwd, 14, 18, 16, 16);
        let (off_f, off_b) = (Mv::new(-3, 1), Mv::new(2, -1));
        let compensate = |refp: &PaddedPlane, x: isize, y: isize, off: Mv| {
            let mut out = [0u8; 256];
            let src = refp.row_from(
                x + isize::from(off.x >> 2) - 2,
                y + isize::from(off.y >> 2) - 2,
            );
            let (fx, fy) = ((off.x & 3) as u8, (off.y & 3) as u8);
            dsp.qpel_luma(&mut out, 16, src, refp.stride(), fx, fy, 16, 16);
            out
        };
        let (f, b) = (
            compensate(&fwd, 17, 15, off_f),
            compensate(&bwd, 14, 18, off_b),
        );
        let mut want = [0u8; 256];
        dsp.avg_block(&mut want, 16, &f, 16, &b, 16, 16, 16);
        let got = bipred_luma(&dsp, (&win_f, off_f), (&win_b, off_b));
        assert_eq!(got, want);
    }

    #[test]
    fn intra_activity_is_the_mean_removed_sad() {
        let mut s = 17u32;
        for level in SimdLevel::supported_tiers() {
            let dsp = Dsp::new(level);
            for n in 0..50 {
                let p = plane(40, 24, lcg(&mut s), n % 5 == 0);
                let (x, y) = (lcg(&mut s) as usize % 24, lcg(&mut s) as usize % 8);
                let at = |r: usize, c: usize| u32::from(p.data()[(y + r) * p.stride() + x + c]);
                let sum: u32 = (0..256).map(|i| at(i / 16, i % 16)).sum();
                let want: u32 = (0..256)
                    .map(|i| at(i / 16, i % 16).abs_diff(sum / 256))
                    .sum();
                let mb = BlockRef {
                    plane: &p,
                    x,
                    y,
                    w: 16,
                    h: 16,
                };
                let got = mb_intra_activity(&dsp, mb);
                assert_eq!(got, want, "{level:?} block {n}");
            }
        }
    }
}
