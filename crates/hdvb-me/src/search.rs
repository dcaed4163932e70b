use crate::{mv_bits, Mv};
use hdvb_dsp::{Dsp, SadFn};
use hdvb_frame::{PaddedPlane, Plane};

/// The current-frame block a motion search tries to match.
#[derive(Clone, Copy, Debug)]
pub struct BlockRef<'a> {
    /// Source plane (usually the luma plane being encoded).
    pub plane: &'a Plane,
    /// Block left edge in pixels.
    pub x: usize,
    /// Block top edge in pixels.
    pub y: usize,
    /// Block width (4..=16 in the benchmark codecs).
    pub w: usize,
    /// Block height.
    pub h: usize,
}

impl BlockRef<'_> {
    /// Picture coordinates of the block's top-left corner displaced by
    /// the full-pel vector `mv` — where it reads a reference plane.
    pub fn displaced(&self, mv: Mv) -> (isize, isize) {
        (
            self.x as isize + isize::from(mv.x),
            self.y as isize + isize::from(mv.y),
        )
    }
}

/// Search configuration: maximum displacement and the Lagrange
/// multiplier weighting motion-vector rate against distortion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchParams {
    /// Maximum displacement in full pels (the paper's x264 command uses
    /// `--merange 24`).
    pub range: u16,
    /// λ in `J = SAD + λ·R(mv − pred)`.
    pub lambda: u32,
    /// Motion-vector predictor; the rate term is measured against it and
    /// the search starts from it.
    pub pred: Mv,
}

impl SearchParams {
    /// Creates parameters with the given range and λ, predicting from the
    /// zero vector.
    pub fn new(range: u16, lambda: u32) -> Self {
        SearchParams {
            range,
            lambda,
            pred: Mv::ZERO,
        }
    }

    /// Sets the motion-vector predictor.
    pub fn with_pred(mut self, pred: Mv) -> Self {
        self.pred = pred;
        self
    }
}

/// Outcome of a motion search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchResult {
    /// Best full-pel motion vector found.
    pub mv: Mv,
    /// Its total cost `SAD + λ·R`.
    pub cost: u32,
    /// Its raw SAD (no rate term).
    pub sad: u32,
    /// Number of SAD evaluations performed (exposed for the
    /// motion-search ablation bench).
    pub evaluations: u32,
}

/// Shared candidate evaluator: clamps displacement bounds once, then
/// scores candidates.
///
/// The SAD kernel pointer is captured from the `Dsp`'s resolved kernel
/// table at construction, so the per-candidate loop pays one indirect
/// call with no dispatch lookup.
pub(crate) struct Evaluator<'a> {
    sad: SadFn,
    cur: &'a [u8],
    cur_stride: usize,
    refp: &'a PaddedPlane,
    block: BlockRef<'a>,
    lambda: u32,
    pred: Mv,
    pub(crate) min: Mv,
    pub(crate) max: Mv,
    pub(crate) evaluations: u32,
}

impl<'a> Evaluator<'a> {
    pub(crate) fn new(
        dsp: &'a Dsp,
        block: BlockRef<'a>,
        refp: &'a PaddedPlane,
        params: &SearchParams,
    ) -> Self {
        assert!(
            block.x + block.w <= block.plane.width() && block.y + block.h <= block.plane.height(),
            "block exceeds plane bounds"
        );
        // Keep slack inside the padding for sub-pel refinement around
        // the winner (±3 quarter-pel) plus the 6-tap filter support
        // (2 before / 3 after): full-pel candidates stay at least 8
        // samples away from the padded border.
        let pad = refp.pad() as i32 - 8;
        assert!(pad >= 0, "reference padding too small for motion search");
        let min_x = (-(block.x as i32) - pad).max(-i32::from(params.range));
        let max_x =
            ((refp.width() as i32 + pad) - (block.x + block.w) as i32).min(i32::from(params.range));
        let min_y = (-(block.y as i32) - pad).max(-i32::from(params.range));
        let max_y = ((refp.height() as i32 + pad) - (block.y + block.h) as i32)
            .min(i32::from(params.range));
        Evaluator {
            sad: dsp.sad_fn(),
            cur: &block.plane.data()[block.y * block.plane.stride() + block.x..],
            cur_stride: block.plane.stride(),
            refp,
            block,
            lambda: params.lambda,
            pred: params.pred,
            min: Mv::new(min_x.min(0) as i16, min_y.min(0) as i16),
            max: Mv::new(max_x.max(0) as i16, max_y.max(0) as i16),
            evaluations: 0,
        }
    }

    pub(crate) fn in_bounds(&self, mv: Mv) -> bool {
        mv.x >= self.min.x && mv.x <= self.max.x && mv.y >= self.min.y && mv.y <= self.max.y
    }

    pub(crate) fn sad(&mut self, mv: Mv) -> u32 {
        self.evaluations += 1;
        let (rx, ry) = self.block.displaced(mv);
        let refrow = self.refp.row_from(rx, ry);
        (self.sad)(
            self.cur,
            self.cur_stride,
            refrow,
            self.refp.stride(),
            self.block.w,
            self.block.h,
        )
    }

    pub(crate) fn cost(&mut self, mv: Mv) -> (u32, u32) {
        let sad = self.sad(mv);
        (sad + self.lambda * mv_bits(mv, self.pred), sad)
    }
}

/// Exhaustive search over the full `±range` window. The quality
/// reference for the ablation bench; far too slow for the HD encoders
/// themselves.
pub fn full_search(
    dsp: &Dsp,
    block: BlockRef<'_>,
    refp: &PaddedPlane,
    start: Mv,
    params: &SearchParams,
) -> SearchResult {
    let mut ev = Evaluator::new(dsp, block, refp, params);
    let mut best = start.clamped(ev.min.x, ev.max.x, ev.min.y, ev.max.y);
    let (mut best_cost, mut best_sad) = ev.cost(best);
    for dy in ev.min.y..=ev.max.y {
        for dx in ev.min.x..=ev.max.x {
            let mv = Mv::new(dx, dy);
            if mv == best {
                continue;
            }
            let (cost, sad) = ev.cost(mv);
            if cost < best_cost {
                best = mv;
                best_cost = cost;
                best_sad = sad;
            }
        }
    }
    SearchResult {
        mv: best,
        cost: best_cost,
        sad: best_sad,
        evaluations: ev.evaluations,
    }
}

const LARGE_DIAMOND: [(i16, i16); 8] = [
    (0, -2),
    (1, -1),
    (2, 0),
    (1, 1),
    (0, 2),
    (-1, 1),
    (-2, 0),
    (-1, -1),
];
const SMALL_DIAMOND: [(i16, i16); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];
const HEXAGON: [(i16, i16); 6] = [(-2, 0), (-1, -2), (1, -2), (2, 0), (1, 2), (-1, 2)];
/// The eight neighbours of a point, row by row — also the scan order of
/// sub-pel refinement, where it decides ties.
pub(crate) const SQUARE8: [(i16, i16); 8] = [
    (-1, -1),
    (0, -1),
    (1, -1),
    (-1, 0),
    (1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
];

fn pattern_descent(
    ev: &mut Evaluator<'_>,
    start: Mv,
    pattern: &[(i16, i16)],
    refine: &[(i16, i16)],
) -> (Mv, u32, u32) {
    let mut best = start.clamped(ev.min.x, ev.max.x, ev.min.y, ev.max.y);
    let (mut best_cost, mut best_sad) = ev.cost(best);
    // Coarse pattern: move while any neighbour improves.
    let mut moved = true;
    let mut steps = 0u32;
    while moved && steps < 64 {
        moved = false;
        steps += 1;
        let center = best;
        for &(dx, dy) in pattern {
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
    // Fine refinement around the coarse winner.
    let center = best;
    for &(dx, dy) in refine {
        let mv = center + Mv::new(dx, dy);
        if !ev.in_bounds(mv) {
            continue;
        }
        let (cost, sad) = ev.cost(mv);
        if cost < best_cost {
            best = mv;
            best_cost = cost;
            best_sad = sad;
        }
    }
    (best, best_cost, best_sad)
}

/// Diamond search (large diamond descent + small diamond refinement) —
/// the classic fast search included as an ablation baseline.
pub fn diamond_search(
    dsp: &Dsp,
    block: BlockRef<'_>,
    refp: &PaddedPlane,
    start: Mv,
    params: &SearchParams,
) -> SearchResult {
    let _me = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
    let mut ev = Evaluator::new(dsp, block, refp, params);
    let (mv, cost, sad) = pattern_descent(&mut ev, start, &LARGE_DIAMOND, &SMALL_DIAMOND);
    SearchResult {
        mv,
        cost,
        sad,
        evaluations: ev.evaluations,
    }
}

/// Hexagon-based search (Zhu, Lin, Chau 2002) — the H.264 search used by
/// the benchmark per the paper's `x264 --me hex` command line. Ends with
/// the 8-point square refinement x264 uses.
pub fn hexagon_search(
    dsp: &Dsp,
    block: BlockRef<'_>,
    refp: &PaddedPlane,
    start: Mv,
    params: &SearchParams,
) -> SearchResult {
    let _me = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
    let mut ev = Evaluator::new(dsp, block, refp, params);
    let (mv, cost, sad) = pattern_descent(&mut ev, start, &HEXAGON, &SQUARE8);
    SearchResult {
        mv,
        cost,
        sad,
        evaluations: ev.evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds (current, reference) planes where the current frame is the
    /// reference shifted by `(dx, dy)` pixels.
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

    fn run_all(dx: i32, dy: i32) {
        let (cur, refp) = shifted_pair(dx, dy);
        let block = BlockRef {
            plane: &cur,
            x: 32,
            y: 32,
            w: 16,
            h: 16,
        };
        let dsp = Dsp::default();
        let params = SearchParams::new(16, 2);
        let expect = Mv::new(-dx as i16, -dy as i16);
        let full = full_search(&dsp, block, &refp, Mv::ZERO, &params);
        assert_eq!(full.mv, expect, "full search");
        assert_eq!(full.sad, 0);
        let dia = diamond_search(&dsp, block, &refp, Mv::ZERO, &params);
        assert_eq!(dia.mv, expect, "diamond search");
        let hex = hexagon_search(&dsp, block, &refp, Mv::ZERO, &params);
        assert_eq!(hex.mv, expect, "hexagon search");
        // Fast searches must evaluate far fewer candidates.
        assert!(dia.evaluations < full.evaluations / 4);
        assert!(hex.evaluations < full.evaluations / 4);
    }

    #[test]
    fn finds_small_displacements() {
        run_all(0, 0);
        run_all(3, 1);
        run_all(-2, -4);
        run_all(5, -3);
    }

    #[test]
    fn full_search_respects_range() {
        let (cur, refp) = shifted_pair(12, 0);
        let block = BlockRef {
            plane: &cur,
            x: 32,
            y: 32,
            w: 16,
            h: 16,
        };
        let r = full_search(
            &Dsp::default(),
            block,
            &refp,
            Mv::ZERO,
            &SearchParams::new(4, 2),
        );
        assert!(r.mv.x.abs() <= 4 && r.mv.y.abs() <= 4);
    }

    #[test]
    fn block_at_frame_edge_is_safe() {
        let (cur, refp) = shifted_pair(2, 2);
        let dsp = Dsp::default();
        let params = SearchParams::new(24, 2);
        for (x, y) in [(0, 0), (80, 0), (0, 64), (80, 64)] {
            let block = BlockRef {
                plane: &cur,
                x,
                y,
                w: 16,
                h: 16,
            };
            // Must not panic and must return an in-range vector.
            let r = hexagon_search(&dsp, block, &refp, Mv::ZERO, &params);
            assert!(r.mv.x.abs() <= 24 && r.mv.y.abs() <= 24);
        }
    }

    #[test]
    fn oversized_range_is_clamped_to_the_padding() {
        // A search range far beyond the reference padding must clamp,
        // leaving room for sub-pel refinement and 6-tap filter support.
        let (cur, refp) = shifted_pair(0, 0);
        let block = BlockRef {
            plane: &cur,
            x: 80,
            y: 64,
            w: 16,
            h: 16,
        };
        let r = full_search(
            &Dsp::default(),
            block,
            &refp,
            Mv::ZERO,
            &SearchParams::new(500, 1),
        );
        let pad = refp.pad() as i16;
        assert!(r.mv.x.abs() <= pad - 8 && r.mv.y.abs() <= pad - 8);
    }

    #[test]
    fn lambda_pulls_toward_predictor() {
        let (cur, refp) = shifted_pair(0, 0);
        let block = BlockRef {
            plane: &cur,
            x: 32,
            y: 32,
            w: 16,
            h: 16,
        };
        let dsp = Dsp::default();
        // A huge lambda with a nonzero predictor: the search should still
        // land on the SAD-zero vector when it is reachable, because the
        // predictor costs nothing there... but with pred=(2,0) the zero mv
        // costs 2 bits extra. With lambda dominating, the winner must be
        // the predictor itself.
        let params = SearchParams::new(8, 100_000).with_pred(Mv::new(2, 0));
        let r = full_search(&dsp, block, &refp, Mv::ZERO, &params);
        assert_eq!(r.mv, Mv::new(2, 0));
    }

    #[test]
    fn evaluation_counts_are_reported() {
        let (cur, refp) = shifted_pair(1, 1);
        let block = BlockRef {
            plane: &cur,
            x: 16,
            y: 16,
            w: 16,
            h: 16,
        };
        let r = full_search(
            &Dsp::default(),
            block,
            &refp,
            Mv::ZERO,
            &SearchParams::new(3, 1),
        );
        // 7x7 window (+1 for the duplicated start probe).
        assert!(
            r.evaluations >= 49 && r.evaluations <= 50,
            "{}",
            r.evaluations
        );
    }
}
