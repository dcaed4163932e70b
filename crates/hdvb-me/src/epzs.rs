//! Enhanced Predictive Zonal Search (Tourapis, 2002) — the motion search
//! the paper assigns to the MPEG-2 and MPEG-4 encoders.
//!
//! EPZS beats plain pattern searches by (1) testing a rich predictor set
//! (spatial neighbours, the median, the temporally collocated vector and
//! zero), (2) stopping early when a predictor is already good enough, and
//! (3) otherwise descending with a small pattern from the best predictor.

use crate::search::{BlockRef, Evaluator, SearchParams, SearchResult};
use crate::{median3, Mv};
use hdvb_dsp::Dsp;
use hdvb_frame::PaddedPlane;

/// Per-frame storage of the motion vectors chosen for each block, used as
/// temporal predictors for the next frame.
#[derive(Clone, Debug)]
pub struct MvField {
    mbs_x: usize,
    mbs_y: usize,
    mvs: Vec<Mv>,
}

impl MvField {
    /// Creates a zeroed field for a `mbs_x`×`mbs_y` block grid.
    pub fn new(mbs_x: usize, mbs_y: usize) -> Self {
        MvField {
            mbs_x,
            mbs_y,
            mvs: vec![Mv::ZERO; mbs_x.max(1) * mbs_y.max(1)],
        }
    }

    /// Grid width in blocks.
    pub fn mbs_x(&self) -> usize {
        self.mbs_x
    }

    /// Grid height in blocks.
    pub fn mbs_y(&self) -> usize {
        self.mbs_y
    }

    /// The vector stored for block `(bx, by)`; out-of-grid queries return
    /// zero (frame borders).
    pub fn get(&self, bx: isize, by: isize) -> Mv {
        if bx < 0 || by < 0 || bx as usize >= self.mbs_x || by as usize >= self.mbs_y {
            Mv::ZERO
        } else {
            self.mvs[by as usize * self.mbs_x + bx as usize]
        }
    }

    /// Median vector predictor for block `(bx, by)` from its left, top
    /// and top-right neighbours (MPEG-4 and H.264).
    pub fn median_pred(&self, bx: usize, by: usize) -> Mv {
        let (x, y) = (bx as isize, by as isize);
        median3(
            self.get(x - 1, y),
            self.get(x, y - 1),
            self.get(x + 1, y - 1),
        )
    }

    /// Records the vector chosen for block `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn set(&mut self, bx: usize, by: usize, mv: Mv) {
        assert!(
            bx < self.mbs_x && by < self.mbs_y,
            "mv field index out of range"
        );
        self.mvs[by * self.mbs_x + bx] = mv;
    }

    /// Resets every vector to zero (new reference epoch).
    pub fn clear(&mut self) {
        self.mvs.fill(Mv::ZERO);
    }
}

/// The EPZS predictor set for one block.
#[derive(Clone, Copy, Debug, Default)]
pub struct Predictors {
    /// Vector of the block to the left (already decided this frame).
    pub left: Mv,
    /// Vector of the block above.
    pub top: Mv,
    /// Vector of the block above-right.
    pub top_right: Mv,
    /// Vector of the collocated block in the previous coded frame.
    pub collocated: Mv,
}

impl Predictors {
    /// Gathers predictors from the current frame's partially-filled field
    /// and the previous frame's field.
    pub fn gather(current: &MvField, previous: &MvField, bx: usize, by: usize) -> Self {
        let (bx, by) = (bx as isize, by as isize);
        Predictors {
            left: current.get(bx - 1, by),
            top: current.get(bx, by - 1),
            top_right: current.get(bx + 1, by - 1),
            collocated: previous.get(bx, by),
        }
    }

    /// The median spatial predictor (also the vector against which MV
    /// rate is usually coded).
    pub fn median(&self) -> Mv {
        median3(self.left, self.top, self.top_right)
    }
}

/// Early-termination thresholds, in SAD per block. The defaults follow
/// the spirit of Tourapis' adaptive thresholds, scaled for 16×16 blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpzsThresholds {
    /// Accept immediately if a predictor's SAD falls below this.
    pub t_good: u32,
    /// Skip pattern refinement if the best predictor is below this.
    pub t_skip_refine: u32,
}

impl Default for EpzsThresholds {
    fn default() -> Self {
        EpzsThresholds {
            t_good: 256,
            t_skip_refine: 768,
        }
    }
}

const SMALL_DIAMOND: [(i16, i16); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];

/// Runs EPZS for one block.
///
/// `predictors` should be gathered with [`Predictors::gather`];
/// `params.pred` is used for the rate term (typically the median).
pub fn epzs_search(
    dsp: &Dsp,
    block: BlockRef<'_>,
    refp: &PaddedPlane,
    predictors: &Predictors,
    thresholds: &EpzsThresholds,
    params: &SearchParams,
) -> SearchResult {
    let _me = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
    let mut ev = Evaluator::new(dsp, block, refp, params);
    let scale = (block.w * block.h) as u32;
    let t_good = thresholds.t_good * scale / 256;
    let t_skip = thresholds.t_skip_refine * scale / 256;

    // Phase 1: evaluate the predictor set (deduplicated).
    let mut candidates = [
        predictors.median(),
        Mv::ZERO,
        predictors.left,
        predictors.top,
        predictors.top_right,
        predictors.collocated,
    ];
    for c in &mut candidates {
        *c = c.clamped(ev.min.x, ev.max.x, ev.min.y, ev.max.y);
    }
    let mut best = candidates[0];
    let (mut best_cost, mut best_sad) = ev.cost(best);
    if best_sad < t_good {
        return ev.result(best, best_cost, best_sad);
    }
    for i in 1..candidates.len() {
        let mv = candidates[i];
        if candidates[..i].contains(&mv) {
            continue;
        }
        let (cost, sad) = ev.cost(mv);
        if cost < best_cost {
            best = mv;
            best_cost = cost;
            best_sad = sad;
            if sad < t_good {
                return ev.result(best, best_cost, best_sad);
            }
        }
    }

    // Phase 2: small-diamond descent from the best predictor unless it is
    // already adequate.
    if best_sad >= t_skip {
        let mut moved = true;
        let mut steps = 0;
        while moved && steps < 64 {
            moved = false;
            steps += 1;
            let center = best;
            for &(dx, dy) in &SMALL_DIAMOND {
                let mv = center + Mv::new(dx, dy);
                if !ev.in_bounds(mv) {
                    continue;
                }
                let (cost, sad) = ev.cost(mv);
                if cost < best_cost {
                    best = mv;
                    best_cost = cost;
                    best_sad = sad;
                    moved = true;
                }
            }
        }
    }
    ev.result(best, best_cost, best_sad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::full_search;
    use hdvb_frame::Plane;

    fn shifted_pair(dx: i32, dy: i32) -> (Plane, PaddedPlane) {
        let w = 96;
        let h = 80;
        let mut reference = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                // Smooth, unimodal-SAD content: fast searches assume a
                // cost surface that descends toward the true motion.
                let fx = x as f64;
                let fy = y as f64;
                let v = 128.0
                    + 60.0 * (fx * 0.18 + fy * 0.07).sin()
                    + 50.0 * (fx * 0.05 - fy * 0.15).cos();
                reference.set(x, y, v.clamp(0.0, 255.0) as u8);
            }
        }
        let mut cur = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let sx = (x as i32 - dx).clamp(0, w as i32 - 1) as usize;
                let sy = (y as i32 - dy).clamp(0, h as i32 - 1) as usize;
                cur.set(x, y, reference.get(sx, sy));
            }
        }
        (cur, PaddedPlane::from_plane(&reference, 32))
    }

    #[test]
    fn finds_global_motion_with_zero_predictors() {
        let (cur, refp) = shifted_pair(4, -3);
        let block = BlockRef {
            plane: &cur,
            x: 32,
            y: 32,
            w: 16,
            h: 16,
        };
        let r = epzs_search(
            &Dsp::default(),
            block,
            &refp,
            &Predictors::default(),
            &EpzsThresholds::default(),
            &SearchParams::new(16, 2),
        );
        assert_eq!(r.mv, Mv::new(-4, 3));
    }

    #[test]
    fn good_predictor_terminates_early() {
        let (cur, refp) = shifted_pair(6, 2);
        let block = BlockRef {
            plane: &cur,
            x: 32,
            y: 32,
            w: 16,
            h: 16,
        };
        let preds = Predictors {
            left: Mv::new(-6, -2),
            ..Predictors::default()
        };
        let with_pred = epzs_search(
            &Dsp::default(),
            block,
            &refp,
            &preds,
            &EpzsThresholds::default(),
            &SearchParams::new(16, 2).with_pred(preds.median()),
        );
        let without = epzs_search(
            &Dsp::default(),
            block,
            &refp,
            &Predictors::default(),
            &EpzsThresholds::default(),
            &SearchParams::new(16, 2),
        );
        assert_eq!(with_pred.mv, Mv::new(-6, -2));
        assert!(
            with_pred.evaluations <= without.evaluations,
            "{} > {}",
            with_pred.evaluations,
            without.evaluations
        );
    }

    #[test]
    fn epzs_is_much_cheaper_than_full_search_and_close_in_quality() {
        let (cur, refp) = shifted_pair(3, 5);
        let dsp = Dsp::default();
        let params = SearchParams::new(24, 2);
        let mut total_full = 0u64;
        let mut total_epzs = 0u64;
        for by in 0..4 {
            for bx in 0..5 {
                let block = BlockRef {
                    plane: &cur,
                    x: bx * 16,
                    y: by * 16,
                    w: 16,
                    h: 16,
                };
                let f = full_search(&dsp, block, &refp, Mv::ZERO, &params);
                let e = epzs_search(
                    &dsp,
                    block,
                    &refp,
                    &Predictors::default(),
                    &EpzsThresholds::default(),
                    &params,
                );
                total_full += u64::from(f.evaluations);
                total_epzs += u64::from(e.evaluations);
                // EPZS SAD within 2x of the exhaustive optimum (here both
                // should find the exact shift for interior blocks).
                assert!(e.sad <= f.sad.saturating_mul(2) + 64);
            }
        }
        assert!(total_epzs * 10 < total_full, "{total_epzs} vs {total_full}");
    }

    #[test]
    fn reach_is_the_span_of_every_scored_vector() {
        use crate::search::{bounding_box, SCORED};
        let dsp = Dsp::default();
        let (mut early, mut descended) = (0, 0);
        for (dx, dy) in [(4, -3), (6, 2), (0, 0), (-5, 5), (2, 7)] {
            let (cur, refp) = shifted_pair(dx, dy);
            let truth = Mv::new(-dx as i16, -dy as i16);
            let predictor_sets = [
                Predictors::default(),
                Predictors {
                    left: truth,
                    top: truth,
                    top_right: Mv::new(3, -1),
                    collocated: Mv::new(-2, 4),
                },
                Predictors {
                    left: Mv::new(7, -7),
                    top: Mv::new(-6, 2),
                    top_right: Mv::new(1, 5),
                    collocated: truth,
                },
            ];
            for (x, y) in [(0, 0), (32, 32), (80, 64), (48, 16)] {
                let block = BlockRef {
                    plane: &cur,
                    x,
                    y,
                    w: 16,
                    h: 16,
                };
                for preds in &predictor_sets {
                    SCORED.with(|s| s.borrow_mut().clear());
                    let r = epzs_search(
                        &dsp,
                        block,
                        &refp,
                        preds,
                        &EpzsThresholds::default(),
                        &SearchParams::new(16, 2).with_pred(preds.median()),
                    );
                    let scored = SCORED.with(|s| s.take());
                    assert_eq!(scored.len(), r.evaluations as usize);
                    assert_eq!(r.reach, bounding_box(&scored), "block at ({x},{y})");
                    early += usize::from(r.evaluations == 1);
                    // The predictor phase scores at most six vectors.
                    descended += usize::from(r.evaluations > 6);
                }
            }
        }
        assert!(
            early > 0 && descended > 0,
            "{early} early, {descended} descended"
        );
    }

    #[test]
    fn mv_field_roundtrip_and_border_behaviour() {
        let mut f = MvField::new(3, 2);
        f.set(2, 1, Mv::new(7, -7));
        assert_eq!(f.get(2, 1), Mv::new(7, -7));
        assert_eq!(f.get(-1, 0), Mv::ZERO);
        assert_eq!(f.get(3, 0), Mv::ZERO);
        assert_eq!(f.get(0, 5), Mv::ZERO);
        f.clear();
        assert_eq!(f.get(2, 1), Mv::ZERO);
    }

    #[test]
    fn median_pred_reads_left_top_and_top_right() {
        let mut f = MvField::new(3, 2);
        f.set(0, 1, Mv::new(1, 9)); // left of (1,1)
        f.set(1, 0, Mv::new(5, -3)); // top
        f.set(2, 0, Mv::new(3, 4)); // top-right
        assert_eq!(f.median_pred(1, 1), Mv::new(3, 4));
        // At the right edge the top-right neighbour is outside: zero.
        assert_eq!(f.median_pred(2, 1), Mv::new(0, 0));
        assert_eq!(f.median_pred(0, 0), Mv::ZERO);
    }

    #[test]
    fn predictors_gather_uses_both_fields() {
        let mut cur = MvField::new(4, 4);
        let mut prev = MvField::new(4, 4);
        cur.set(0, 1, Mv::new(1, 1)); // left of (1,1)
        cur.set(1, 0, Mv::new(2, 2)); // top of (1,1)
        cur.set(2, 0, Mv::new(3, 3)); // top-right of (1,1)
        prev.set(1, 1, Mv::new(4, 4));
        let p = Predictors::gather(&cur, &prev, 1, 1);
        assert_eq!(p.left, Mv::new(1, 1));
        assert_eq!(p.top, Mv::new(2, 2));
        assert_eq!(p.top_right, Mv::new(3, 3));
        assert_eq!(p.collocated, Mv::new(4, 4));
        assert_eq!(p.median(), Mv::new(2, 2));
    }
}
