//! The P-picture search memo: each 16×16 reference search of one P
//! picture, kept so that the next P picture can answer a search it would
//! repeat without running it (DESIGN.md §5, "Reusing a reference search").
//!
//! Each anchor pushes exactly one picture onto the front of the reference
//! list, so reference `r` of a P picture is reference `r − 1` of the P
//! picture before it. A macroblock whose 16×16 source samples and median
//! predictor are unchanged since then searches that picture with the same
//! inputs and gets the same result. Reference 0 is new, but the last P
//! picture searched its predecessor, `refs[1]`, with the same inputs; the
//! result carries over wherever `refs[0]` and `refs[1]` agree on every
//! sample that search read.

use hdvb_dsp::SubpelWindow;
use hdvb_frame::{PaddedPlane, Plane};
use hdvb_me::Mv;

/// Most reference pictures a P picture searches (`num_refs` ≤ 4).
const MAX_REFS: usize = 4;

/// One reference's 16×16 search: hexagon search, then SATD quarter-pel
/// refinement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Search16 {
    /// The refined quarter-pel vector.
    pub mv: Mv,
    /// Its refinement cost (no reference-index bits).
    pub cost: u32,
    /// `(min, max)` of the full-pel vectors the hexagon search scored.
    pub reach: (Mv, Mv),
}

impl Search16 {
    /// Whether `a` and `b` hold the same samples everywhere this search
    /// read for the macroblock at luma `(x, y)`: the 16×16 block swept
    /// over [`reach`](Self::reach), grown by the six-tap window's
    /// [`SIXTAP_REACH`](SubpelWindow::SIXTAP_REACH). The searches keep
    /// their vectors 8 samples inside the padding, so the box lies inside
    /// both planes.
    pub(crate) fn read_same(&self, a: &PaddedPlane, b: &PaddedPlane, x: usize, y: usize) -> bool {
        const R: usize = SubpelWindow::SIXTAP_REACH;
        let (lo, hi) = self.reach;
        let x0 = x as isize + isize::from(lo.x) - R as isize;
        let y0 = y as isize + isize::from(lo.y) - R as isize;
        let w = (hi.x - lo.x) as usize + 16 + 2 * R;
        let h = (hi.y - lo.y) as isize + 16 + 2 * R as isize;
        (y0..y0 + h).all(|row| a.row_from(x0, row)[..w] == b.row_from(x0, row)[..w])
    }
}

/// What the memo keeps per macroblock.
#[derive(Clone, Copy, Default)]
struct MbMemo {
    median: Mv,
    slots: [Search16; MAX_REFS],
}

/// The last P picture's source luma and, per macroblock, its median
/// predictor and the result of each reference slot it searched. Allocated
/// once per encoder; I pictures empty it, B pictures leave it alone.
pub(crate) struct SearchMemo {
    luma: Plane,
    mbs: Vec<MbMemo>,
    mbs_x: usize,
    /// Reference slots the last P picture searched; 0 = nothing to reuse.
    searched: usize,
}

impl SearchMemo {
    /// An empty memo for an `aw`×`ah` (macroblock-aligned) picture.
    pub(crate) fn new(aw: usize, ah: usize) -> Self {
        SearchMemo {
            luma: Plane::new(aw, ah),
            mbs: vec![MbMemo::default(); (aw / 16) * (ah / 16)],
            mbs_x: aw / 16,
            searched: 0,
        }
    }

    /// Forgets every result (an I picture restarts the reference list's
    /// history as far as the memo is concerned).
    pub(crate) fn clear(&mut self) {
        self.searched = 0;
    }

    /// Slot `i` of the last P picture's results for macroblock
    /// `(mbx, mby)` when its source block in `src` and its median
    /// predictor are unchanged since then (`None` beyond the slots that
    /// picture searched, and everywhere on a miss). Records the current
    /// block and median either way.
    pub(crate) fn recall(
        &mut self,
        src: &Plane,
        mbx: usize,
        mby: usize,
        median: Mv,
    ) -> [Option<Search16>; MAX_REFS] {
        let stride = src.stride();
        let mut same = self.searched > 0;
        for row in mby * 16..mby * 16 + 16 {
            let at = row * stride + mbx * 16;
            let (new, old) = (
                &src.data()[at..at + 16],
                &mut self.luma.data_mut()[at..at + 16],
            );
            if new != old {
                old.copy_from_slice(new);
                same = false;
            }
        }
        let mb = &mut self.mbs[mby * self.mbs_x + mbx];
        same &= std::mem::replace(&mut mb.median, median) == median;
        let mut prior = [None; MAX_REFS];
        if same {
            for (p, s) in prior.iter_mut().zip(&mb.slots[..self.searched]) {
                *p = Some(*s);
            }
        }
        prior
    }

    /// Records this picture's result for reference slot `slot`.
    pub(crate) fn store(&mut self, mbx: usize, mby: usize, slot: usize, result: Search16) {
        self.mbs[mby * self.mbs_x + mbx].slots[slot] = result;
    }

    /// Closes a P picture that searched `slots` references per macroblock.
    pub(crate) fn finish_picture(&mut self, slots: usize) {
        self.searched = slots;
    }
}
