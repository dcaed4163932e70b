use crate::blocks::write_coeffs;
use crate::config::EncoderConfig;
use hdvb_bits::picture::{
    write_picture_prefix, CodecError, GopScheduler, Packet, PacketKind, PicturePrefix, Scheduled,
};
use hdvb_bits::BitWriter;
use hdvb_dsp::{
    load_block, store_block_clamped, Block8, Dsp, SubpelWindow, MPEG_DEFAULT_INTRA,
    MPEG_DEFAULT_NONINTRA,
};
use hdvb_frame::{align_up, BufferPool, Frame, FramePool, PaddedPlane, Plane};
use hdvb_me::{
    bipred_luma, diamond_search, epzs_search, mb_prefers_intra, mv_bits, reconstruct_inter,
    refine_qpel, BlockRef, EpzsThresholds, Mv, MvField, Predictors, SearchParams, SubpelTarget,
};
use hdvb_par::CancelToken;

/// Magic number opening every coded picture.
pub const MAGIC: u32 = 0x4D34; // "M4"
/// Luma padding of reference pictures.
pub(crate) const LUMA_PAD: usize = 32;
/// Chroma padding of reference pictures.
pub(crate) const CHROMA_PAD: usize = 16;

/// A reconstructed reference picture.
pub(crate) struct RefPicture {
    pub y: PaddedPlane,
    pub cb: PaddedPlane,
    pub cr: PaddedPlane,
    /// Full-pel field for EPZS temporal predictors.
    pub mvs_fullpel: MvField,
    /// Quarter-pel field of the anchor's chosen vectors (B direct mode).
    pub mvs_qpel: MvField,
    /// Display index of the anchor (temporal distances of direct mode).
    pub display_index: u32,
}

impl RefPicture {
    pub(crate) fn from_frame(
        frame: &Frame,
        mvs_fullpel: MvField,
        mvs_qpel: MvField,
        display_index: u32,
    ) -> Self {
        // Reference-plane padding is part of motion compensation.
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
        RefPicture {
            y: PaddedPlane::from_plane(frame.y(), LUMA_PAD),
            cb: PaddedPlane::from_plane(frame.cb(), CHROMA_PAD),
            cr: PaddedPlane::from_plane(frame.cr(), CHROMA_PAD),
            mvs_fullpel,
            mvs_qpel,
            display_index,
        }
    }

    /// Re-extends a retired reference picture from a new reconstruction
    /// without reallocating its padded planes, swapping the freshly
    /// coded motion fields in (the stale ones are left in the arguments
    /// for the caller to clear and reuse). Bit-identical to
    /// [`from_frame`](Self::from_frame) on matching geometry.
    pub(crate) fn refill_from(
        &mut self,
        frame: &Frame,
        mvs_fullpel: &mut MvField,
        mvs_qpel: &mut MvField,
        display_index: u32,
    ) {
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
        self.y.refill(frame.y());
        self.cb.refill(frame.cb());
        self.cr.refill(frame.cr());
        std::mem::swap(&mut self.mvs_fullpel, mvs_fullpel);
        std::mem::swap(&mut self.mvs_qpel, mvs_qpel);
        self.display_index = display_index;
    }

    /// Whether this reference was built for a `w`×`h` picture.
    pub(crate) fn matches(&self, w: usize, h: usize) -> bool {
        self.y.width() == w && self.y.height() == h
    }
}

/// MPEG-4 temporal direct-mode vectors for one macroblock of a B picture
/// at display time `d_cur` between anchors `fwd`/`bwd`:
/// `MVf = MVcol·TRB/TRD`, `MVb = MVf − MVcol` (the collocated vector is
/// the backward anchor's motion toward the forward anchor).
pub(crate) fn direct_mvs(
    fwd: &RefPicture,
    bwd: &RefPicture,
    d_cur: u32,
    mbx: usize,
    mby: usize,
) -> (Mv, Mv) {
    let trd = bwd.display_index as i32 - fwd.display_index as i32;
    let trb = d_cur as i32 - fwd.display_index as i32;
    if trd <= 0 || trb <= 0 || trb >= trd {
        return (Mv::ZERO, Mv::ZERO);
    }
    let col = bwd.mvs_qpel.get(mbx as isize, mby as isize);
    // The collocated vector points from the backward anchor to the
    // forward anchor; the forward direct vector is its fraction, the
    // backward vector the remainder (negated direction).
    let fx = (i32::from(col.x) * trb).div_euclid(trd) as i16;
    let fy = (i32::from(col.y) * trb).div_euclid(trd) as i16;
    let mv_f = Mv::new(fx, fy);
    let mv_b = Mv::new(mv_f.x - col.x, mv_f.y - col.y);
    (mv_f, mv_b)
}

/// Per-frame adaptive DC-prediction store (MPEG-4 gradient rule).
pub(crate) struct DcStore {
    w: usize,
    vals: Vec<i32>,
    avail: Vec<bool>,
}

impl DcStore {
    pub(crate) fn new(w: usize, h: usize) -> Self {
        DcStore {
            w,
            vals: vec![0; w * h],
            avail: vec![false; w * h],
        }
    }

    /// Returns the store to its freshly constructed state (no block
    /// available), keeping the allocations for the next picture.
    fn reset(&mut self) {
        self.vals.fill(0);
        self.avail.fill(false);
    }

    fn get(&self, x: isize, y: isize) -> i32 {
        if x < 0 || y < 0 || x as usize >= self.w {
            return 128; // default predictor outside the picture
        }
        let idx = y as usize * self.w + x as usize;
        if idx < self.vals.len() && self.avail[idx] {
            self.vals[idx]
        } else {
            128
        }
    }

    pub(crate) fn set(&mut self, x: usize, y: usize, v: i32) {
        let idx = y * self.w + x;
        self.vals[idx] = v;
        self.avail[idx] = true;
    }

    /// MPEG-4 gradient predictor: compare the horizontal and vertical DC
    /// gradients among the left (A), top-left (B) and top (C) blocks.
    pub(crate) fn predict(&self, x: usize, y: usize) -> i32 {
        let (xi, yi) = (x as isize, y as isize);
        let a = self.get(xi - 1, yi);
        let b = self.get(xi - 1, yi - 1);
        let c = self.get(xi, yi - 1);
        if (a - b).abs() < (b - c).abs() {
            c
        } else {
            a
        }
    }
}

/// All three components' DC stores for one frame.
pub(crate) struct DcStores {
    pub y: DcStore,
    pub cb: DcStore,
    pub cr: DcStore,
}

impl DcStores {
    pub(crate) fn new(mbs_x: usize, mbs_y: usize) -> Self {
        DcStores {
            y: DcStore::new(mbs_x * 2, mbs_y * 2),
            cb: DcStore::new(mbs_x, mbs_y),
            cr: DcStore::new(mbs_x, mbs_y),
        }
    }

    /// Resets all three component stores for a new picture without
    /// releasing their storage.
    pub(crate) fn reset(&mut self) {
        self.y.reset();
        self.cb.reset();
        self.cr.reset();
    }
}

/// Motion-compensates one macroblock from `r`; `mvs` holds the four
/// quarter-pel luma vectors (all equal when `four_mv` is false). Shared
/// with the decoder.
#[allow(clippy::too_many_arguments)]
pub(crate) fn predict_mb(
    dsp: &Dsp,
    r: &RefPicture,
    mb_x: usize,
    mb_y: usize,
    mvs: &[Mv; 4],
    four_mv: bool,
    luma: &mut [u8; 256],
    cb: &mut [u8; 64],
    cr: &mut [u8; 64],
) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
    if four_mv {
        for k in 0..4 {
            let bx = mb_x * 16 + (k % 2) * 8;
            let by = mb_y * 16 + (k / 2) * 8;
            let mv = mvs[k];
            let ix = bx as isize + isize::from(mv.x >> 2) - 2;
            let iy = by as isize + isize::from(mv.y >> 2) - 2;
            let dst = &mut luma[(k / 2) * 8 * 16 + (k % 2) * 8..];
            dsp.qpel_luma(
                dst,
                16,
                r.y.row_from(ix, iy),
                r.y.stride(),
                (mv.x & 3) as u8,
                (mv.y & 3) as u8,
                8,
                8,
            );
        }
    } else {
        let mv = mvs[0];
        let ix = (mb_x * 16) as isize + isize::from(mv.x >> 2) - 2;
        let iy = (mb_y * 16) as isize + isize::from(mv.y >> 2) - 2;
        dsp.qpel_luma(
            luma,
            16,
            r.y.row_from(ix, iy),
            r.y.stride(),
            (mv.x & 3) as u8,
            (mv.y & 3) as u8,
            16,
            16,
        );
    }
    // Chroma: derived from the sum of the four luma vectors (all equal in
    // 16x16 mode), floor-divided to chroma half-pel units.
    let sx = mvs.iter().map(|m| i32::from(m.x)).sum::<i32>() >> 4;
    let sy = mvs.iter().map(|m| i32::from(m.y)).sum::<i32>() >> 4;
    let cx = (mb_x * 8) as isize + (sx >> 1) as isize;
    let cy = (mb_y * 8) as isize + (sy >> 1) as isize;
    let (cfx, cfy) = ((sx & 1) as u8, (sy & 1) as u8);
    dsp.hpel_interp(cb, 8, r.cb.row_from(cx, cy), r.cb.stride(), cfx, cfy, 8, 8);
    dsp.hpel_interp(cr, 8, r.cr.row_from(cx, cy), r.cr.stride(), cfx, cfy, 8, 8);
}

/// B-picture per-row prediction state (left-neighbour MV predictors).
pub(crate) struct BRowState {
    pub mv_pred: Mv,
    pub mv_pred_bwd: Mv,
    pub last_b: (u8, Mv, Mv),
}

impl BRowState {
    pub(crate) fn new() -> Self {
        BRowState {
            mv_pred: Mv::ZERO,
            mv_pred_bwd: Mv::ZERO,
            last_b: (0, Mv::ZERO, Mv::ZERO),
        }
    }

    pub(crate) fn reset_mv(&mut self) {
        self.mv_pred = Mv::ZERO;
        self.mv_pred_bwd = Mv::ZERO;
    }
}

/// Builds the B prediction for `mode` (0 fwd, 1 bwd, 2 bi); 16×16 only.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_b_prediction(
    dsp: &Dsp,
    fwd: &RefPicture,
    bwd: &RefPicture,
    mbx: usize,
    mby: usize,
    mode: u8,
    mv_f: Mv,
    mv_b: Mv,
    py: &mut [u8; 256],
    pcb: &mut [u8; 64],
    pcr: &mut [u8; 64],
) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
    match mode {
        0 => predict_mb(dsp, fwd, mbx, mby, &[mv_f; 4], false, py, pcb, pcr),
        1 => predict_mb(dsp, bwd, mbx, mby, &[mv_b; 4], false, py, pcb, pcr),
        _ => {
            let (mut fy, mut fcb, mut fcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
            let (mut by, mut bcb, mut bcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
            predict_mb(
                dsp, fwd, mbx, mby, &[mv_f; 4], false, &mut fy, &mut fcb, &mut fcr,
            );
            predict_mb(
                dsp, bwd, mbx, mby, &[mv_b; 4], false, &mut by, &mut bcb, &mut bcr,
            );
            dsp.avg_block(py, 16, &fy, 16, &by, 16, 16, 16);
            dsp.avg_block(pcb, 8, &fcb, 8, &bcb, 8, 8, 8);
            dsp.avg_block(pcr, 8, &fcr, 8, &bcr, 8, 8, 8);
        }
    }
}

/// DC-store grid coordinates for coded block `b` of macroblock
/// `(mbx, mby)`.
pub(crate) fn dc_coords(mbx: usize, mby: usize, b: usize) -> (usize, usize) {
    match b {
        0..=3 => (mbx * 2 + b % 2, mby * 2 + b / 2),
        _ => (mbx, mby),
    }
}

/// Per-picture working storage, reused across the whole encode so the
/// steady-state hot path performs no heap allocation.
struct EncScratch {
    /// Reconstruction target, `aw`×`ah`; fully overwritten per picture.
    recon: Frame,
    /// Edge-replicated copy of unaligned input.
    aligned: Frame,
    /// Full-pel field of the picture being coded (EPZS temporal
    /// predictors; anchors swap it into their [`RefPicture`]).
    mvs_full: MvField,
    /// Quarter-pel field of the picture being coded (B direct mode).
    mvs_qpel: MvField,
    /// B-picture forward full-pel field (separate so anchors' fields
    /// survive).
    b_full: MvField,
    /// Adaptive DC-prediction stores, reset per picture.
    dc: DcStores,
}

/// The MPEG-4-ASP-class encoder. See the crate docs for the toolset.
pub struct Mpeg4Encoder {
    config: EncoderConfig,
    dsp: Dsp,
    gop: GopScheduler<Frame>,
    aw: usize,
    ah: usize,
    mbs_x: usize,
    mbs_y: usize,
    prev_anchor: Option<RefPicture>,
    last_anchor: Option<RefPicture>,
    /// Reusable per-picture working storage.
    scratch: Option<EncScratch>,
    /// Reusable coding-order buffer handed to the GOP scheduler.
    sched: Vec<Scheduled<Frame>>,
    /// Cooperative cancellation, checkpointed before each coded picture.
    cancel: CancelToken,
}

impl Mpeg4Encoder {
    /// Creates an encoder.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadConfig`] for invalid geometry or quantiser.
    pub fn new(config: EncoderConfig) -> Result<Self, CodecError> {
        config.validate()?;
        let aw = align_up(config.width, 16);
        let ah = align_up(config.height, 16);
        Ok(Mpeg4Encoder {
            config,
            dsp: Dsp::new(config.simd),
            gop: GopScheduler::new(config.b_frames, config.intra_period),
            aw,
            ah,
            mbs_x: aw / 16,
            mbs_y: ah / 16,
            prev_anchor: None,
            last_anchor: None,
            scratch: Some(EncScratch {
                recon: Frame::new(aw, ah),
                aligned: Frame::new(aw, ah),
                mvs_full: MvField::new(aw / 16, ah / 16),
                mvs_qpel: MvField::new(aw / 16, ah / 16),
                b_full: MvField::new(aw / 16, ah / 16),
                dc: DcStores::new(aw / 16, ah / 16),
            }),
            sched: Vec::new(),
            cancel: CancelToken::never(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Installs a cancellation token checked before each coded picture,
    /// so a deadline or shutdown stops the encoder at the next picture
    /// boundary with [`CodecError::Cancelled`].
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Submits the next display-order frame.
    ///
    /// # Errors
    ///
    /// [`CodecError::FrameMismatch`] on geometry mismatch.
    pub fn encode(&mut self, frame: &Frame) -> Result<Vec<Packet>, CodecError> {
        let mut out = Vec::new();
        self.encode_into(frame, &mut out)?;
        Ok(out)
    }

    /// Flushes buffered frames.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (none in normal operation).
    pub fn flush(&mut self) -> Result<Vec<Packet>, CodecError> {
        let mut out = Vec::new();
        self.flush_into(&mut out)?;
        Ok(out)
    }

    /// Allocation-free form of [`encode`](Self::encode): appends coded
    /// packets to `out`. The input frame is copied into a pooled frame
    /// (recycled after coding), packet payloads come from the global
    /// [`BufferPool`], and all per-picture working state is reused — at
    /// steady state a submitted frame performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// As [`encode`](Self::encode); packets appended before an error
    /// stay in `out`.
    pub fn encode_into(&mut self, frame: &Frame, out: &mut Vec<Packet>) -> Result<(), CodecError> {
        if frame.width() != self.config.width || frame.height() != self.config.height {
            return Err(CodecError::FrameMismatch {
                expected: (self.config.width, self.config.height),
                actual: (frame.width(), frame.height()),
            });
        }
        let pooled = {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
            let mut f = FramePool::global().take(frame.width(), frame.height());
            f.copy_from(frame);
            f
        };
        let mut sched = std::mem::take(&mut self.sched);
        self.gop.push_into(pooled, &mut sched);
        let result = self.encode_scheduled(&mut sched, out);
        self.sched = sched;
        result
    }

    /// Allocation-free form of [`flush`](Self::flush): appends the
    /// remaining coded packets to `out`.
    ///
    /// # Errors
    ///
    /// As [`flush`](Self::flush).
    pub fn flush_into(&mut self, out: &mut Vec<Packet>) -> Result<(), CodecError> {
        let mut sched = std::mem::take(&mut self.sched);
        self.gop.finish_into(&mut sched);
        let result = self.encode_scheduled(&mut sched, out);
        self.sched = sched;
        result
    }

    /// Codes every scheduled picture, recycling each input frame to the
    /// global pool afterwards (also on error/cancellation).
    fn encode_scheduled(
        &mut self,
        sched: &mut Vec<Scheduled<Frame>>,
        out: &mut Vec<Packet>,
    ) -> Result<(), CodecError> {
        let mut result = Ok(());
        for s in sched.drain(..) {
            if result.is_ok() {
                if self.cancel.is_cancelled() {
                    result = Err(CodecError::Cancelled);
                } else {
                    out.push(self.encode_picture(&s.item, s.kind, s.display_index));
                }
            }
            FramePool::global().put(s.item);
        }
        result
    }

    fn encode_picture(&mut self, frame: &Frame, kind: PacketKind, display_index: u32) -> Packet {
        let mut scratch = self.scratch.take().expect("encoder scratch in use");
        let packet = self.encode_picture_inner(frame, kind, display_index, &mut scratch);
        self.scratch = Some(scratch);
        packet
    }

    fn encode_picture_inner(
        &mut self,
        frame: &Frame,
        kind: PacketKind,
        display_index: u32,
        scratch: &mut EncScratch,
    ) -> Packet {
        let EncScratch {
            recon,
            aligned,
            mvs_full,
            mvs_qpel,
            b_full,
            dc,
        } = scratch;
        let cur: &Frame = if frame.width() == self.aw && frame.height() == self.ah {
            frame
        } else {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
            aligned.replicate_from(frame);
            aligned
        };
        let mut w = {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
            let mut w = BitWriter::from_vec(BufferPool::global().take(self.aw * self.ah / 4));
            let prefix = PicturePrefix {
                kind,
                display_index,
                width: self.config.width,
                height: self.config.height,
            };
            write_picture_prefix(&mut w, MAGIC, &prefix);
            w.put_ue(u32::from(self.config.qscale));
            w
        };

        // `recon` is fully overwritten by every picture type; the motion
        // fields and DC stores are cleared, so the recycled storage is
        // bit-identical to freshly allocated buffers.
        mvs_full.clear();
        mvs_qpel.clear();
        dc.reset();
        match kind {
            PacketKind::I => self.encode_i(&mut w, cur, recon, dc),
            PacketKind::P => self.encode_p(&mut w, cur, recon, mvs_full, mvs_qpel, dc),
            PacketKind::B => {
                b_full.clear();
                self.encode_b(&mut w, cur, recon, display_index, b_full, dc);
            }
        }

        if kind != PacketKind::B {
            let recycled = self.prev_anchor.take();
            self.prev_anchor = self.last_anchor.take();
            self.last_anchor = Some(match recycled {
                Some(mut rp) if rp.matches(self.aw, self.ah) => {
                    rp.refill_from(recon, mvs_full, mvs_qpel, display_index);
                    rp
                }
                _ => RefPicture::from_frame(
                    recon,
                    std::mem::replace(mvs_full, MvField::new(self.mbs_x, self.mbs_y)),
                    std::mem::replace(mvs_qpel, MvField::new(self.mbs_x, self.mbs_y)),
                    display_index,
                ),
            });
        }
        let data = {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
            w.finish()
        };
        Packet {
            data,
            kind,
            display_index,
        }
    }

    fn encode_i(&self, w: &mut BitWriter, cur: &Frame, recon: &mut Frame, dc: &mut DcStores) {
        for mby in 0..self.mbs_y {
            for mbx in 0..self.mbs_x {
                self.code_intra_mb(w, cur, recon, mbx, mby, dc);
            }
            w.byte_align();
        }
    }

    /// Codes one intra macroblock (cbp + per-block DC and AC) and
    /// reconstructs it.
    fn code_intra_mb(
        &self,
        w: &mut BitWriter,
        cur: &Frame,
        recon: &mut Frame,
        mbx: usize,
        mby: usize,
        dc: &mut DcStores,
    ) {
        // First pass: transform + quantise all six blocks to learn cbp.
        let mut coded = [[0i16; 64]; 6];
        let mut dcs = [0i32; 6];
        let mut cbp = 0u8;
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::TransformQuant);
            for b in 0..6 {
                let (plane, _, _, bx, by) = intra_geometry(cur, mbx, mby, b);
                let mut block = load_block(plane, bx, by);
                self.dsp.fdct8(&mut block);
                dcs[b] = ((i32::from(block[0]) + 4) >> 3).clamp(0, 255);
                block[0] = 0;
                let nz = self
                    .dsp
                    .quant8(&mut block, &MPEG_DEFAULT_INTRA, self.config.qscale, true);
                if nz > 0 {
                    cbp |= 1 << (5 - b);
                }
                coded[b] = block;
            }
        }
        // Second pass: DC prediction and bitstream writes.
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
            w.put_bits(u32::from(cbp), 6);
            for b in 0..6 {
                let store = match b {
                    0..=3 => &mut dc.y,
                    4 => &mut dc.cb,
                    _ => &mut dc.cr,
                };
                let (gx, gy) = dc_coords(mbx, mby, b);
                let pred = store.predict(gx, gy);
                w.put_se(dcs[b] - pred);
                store.set(gx, gy, dcs[b]);
                if cbp & (1 << (5 - b)) != 0 {
                    write_coeffs(w, &coded[b], 1);
                }
            }
        }
        // Third pass: reconstruction.
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
            for b in 0..6 {
                let mut block = coded[b];
                self.dsp
                    .dequant8(&mut block, &MPEG_DEFAULT_INTRA, self.config.qscale, true);
                block[0] = (dcs[b] * 8) as i16;
                self.dsp.idct8(&mut block);
                let (_, rplane, bx, by) = intra_recon_geometry(recon, mbx, mby, b);
                store_block_clamped(rplane, bx, by, &block);
            }
        }
    }

    fn encode_p(
        &self,
        w: &mut BitWriter,
        cur: &Frame,
        recon: &mut Frame,
        mvs_full: &mut MvField,
        qfield: &mut MvField,
        dc: &mut DcStores,
    ) {
        let reference = self
            .last_anchor
            .as_ref()
            .expect("P picture requires a previous anchor");
        let lambda = self.lambda();
        let mut win = SubpelWindow::new();
        for mby in 0..self.mbs_y {
            for mbx in 0..self.mbs_x {
                // One motion-estimation zone spans the full-pel search,
                // sub-pel refinement, four-MV trial and mode decision.
                let me_zone = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
                let median = qfield.median_pred(mbx, mby);
                // Full-pel EPZS.
                let preds = Predictors::gather(mvs_full, &reference.mvs_fullpel, mbx, mby);
                let block16 = BlockRef {
                    plane: cur.y(),
                    x: mbx * 16,
                    y: mby * 16,
                    w: 16,
                    h: 16,
                };
                let fullpel = epzs_search(
                    &self.dsp,
                    block16,
                    &reference.y,
                    &preds,
                    &EpzsThresholds::default(),
                    &SearchParams::new(self.config.search_range, lambda)
                        .with_pred(Mv::new(median.x >> 2, median.y >> 2)),
                );
                // Quarter-pel refinement (half-pel lattice, then quarter).
                let (mv16, cost16) =
                    self.refine_sad(&mut win, &reference.y, block16, fullpel.mv, median);
                mvs_full.set(mbx, mby, Mv::new(mv16.x >> 2, mv16.y >> 2));

                // Four-MV candidate: refine each 8x8 around the 16x16
                // winner.
                let mut mv4 = [mv16; 4];
                let mut cost4 = 2 * lambda; // mode-signalling overhead
                for k in 0..4 {
                    let sub = BlockRef {
                        plane: cur.y(),
                        x: mbx * 16 + (k % 2) * 8,
                        y: mby * 16 + (k / 2) * 8,
                        w: 8,
                        h: 8,
                    };
                    let sub_pred = if k == 0 { median } else { mv4[k - 1] };
                    let sub_full = diamond_search(
                        &self.dsp,
                        sub,
                        &reference.y,
                        Mv::new(mv16.x >> 2, mv16.y >> 2),
                        &SearchParams::new(self.config.search_range, lambda)
                            .with_pred(Mv::new(sub_pred.x >> 2, sub_pred.y >> 2)),
                    );
                    let (smv, scost) =
                        self.refine_sad(&mut win, &reference.y, sub, sub_full.mv, sub_pred);
                    mv4[k] = smv;
                    cost4 += scost;
                }
                let four_mv = cost4 < cost16;
                let (sel_mvs, inter_cost) = if four_mv {
                    (mv4, cost4)
                } else {
                    ([mv16; 4], cost16)
                };

                let intra = mb_prefers_intra(&self.dsp, block16, inter_cost);
                drop(me_zone);
                if intra {
                    w.put_bit(false);
                    w.put_bits(2, 2); // intra mode
                    self.code_intra_mb(w, cur, recon, mbx, mby, dc);
                    qfield.set(mbx, mby, Mv::ZERO);
                    mvs_full.set(mbx, mby, Mv::ZERO);
                    continue;
                }

                let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                predict_mb(
                    &self.dsp, reference, mbx, mby, &sel_mvs, four_mv, &mut py, &mut pcb, &mut pcr,
                );
                let (blocks, cbp) = self.transform_mb(cur, mbx, mby, &py, &pcb, &pcr);

                if !four_mv && sel_mvs[0] == Mv::ZERO && cbp == 0 {
                    w.put_bit(true); // skip
                    reconstruct_inter(
                        &self.dsp,
                        recon,
                        mbx,
                        mby,
                        &py,
                        &pcb,
                        &pcr,
                        &blocks,
                        0,
                        self.config.qscale,
                    );
                    qfield.set(mbx, mby, Mv::ZERO);
                    continue;
                }
                {
                    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
                    w.put_bit(false);
                    if four_mv {
                        w.put_bits(1, 2);
                        let mut pred = median;
                        #[allow(clippy::needless_range_loop)]
                        for k in 0..4 {
                            w.put_se(i32::from(sel_mvs[k].x - pred.x));
                            w.put_se(i32::from(sel_mvs[k].y - pred.y));
                            pred = sel_mvs[k];
                        }
                        // Field entry: component-wise mean of the four.
                        let ax = (sel_mvs.iter().map(|m| i32::from(m.x)).sum::<i32>() >> 2) as i16;
                        let ay = (sel_mvs.iter().map(|m| i32::from(m.y)).sum::<i32>() >> 2) as i16;
                        qfield.set(mbx, mby, Mv::new(ax, ay));
                    } else {
                        w.put_bits(0, 2);
                        w.put_se(i32::from(sel_mvs[0].x - median.x));
                        w.put_se(i32::from(sel_mvs[0].y - median.y));
                        qfield.set(mbx, mby, sel_mvs[0]);
                    }
                    w.put_bits(u32::from(cbp), 6);
                    for (i, b) in blocks.iter().enumerate() {
                        if cbp & (1 << (5 - i)) != 0 {
                            write_coeffs(w, b, 0);
                        }
                    }
                }
                reconstruct_inter(
                    &self.dsp,
                    recon,
                    mbx,
                    mby,
                    &py,
                    &pcb,
                    &pcr,
                    &blocks,
                    cbp,
                    self.config.qscale,
                );
            }
            w.byte_align();
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn encode_b(
        &self,
        w: &mut BitWriter,
        cur: &Frame,
        recon: &mut Frame,
        display_index: u32,
        cur_full: &mut MvField,
        dc: &mut DcStores,
    ) {
        let fwd = self
            .prev_anchor
            .as_ref()
            .expect("B picture requires two anchors");
        let bwd = self
            .last_anchor
            .as_ref()
            .expect("B picture requires two anchors");
        let lambda = self.lambda();
        let (mut win_f, mut win_b) = (SubpelWindow::new(), SubpelWindow::new());
        for mby in 0..self.mbs_y {
            let mut row = BRowState::new();
            for mbx in 0..self.mbs_x {
                // Both directions' searches, the bi-prediction trial and
                // the mode decision are one motion-estimation zone.
                let me_zone = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
                let block16 = BlockRef {
                    plane: cur.y(),
                    x: mbx * 16,
                    y: mby * 16,
                    w: 16,
                    h: 16,
                };
                let preds = Predictors::gather(cur_full, &bwd.mvs_fullpel, mbx, mby);
                let pf = SearchParams::new(self.config.search_range, lambda)
                    .with_pred(Mv::new(row.mv_pred.x >> 2, row.mv_pred.y >> 2));
                let f = epzs_search(
                    &self.dsp,
                    block16,
                    &fwd.y,
                    &preds,
                    &EpzsThresholds::default(),
                    &pf,
                );
                let pb = SearchParams::new(self.config.search_range, lambda)
                    .with_pred(Mv::new(row.mv_pred_bwd.x >> 2, row.mv_pred_bwd.y >> 2));
                let b = epzs_search(
                    &self.dsp,
                    block16,
                    &bwd.y,
                    &preds,
                    &EpzsThresholds::default(),
                    &pb,
                );
                cur_full.set(mbx, mby, f.mv);

                let (mv_f, cost_f) =
                    self.refine_sad(&mut win_f, &fwd.y, block16, f.mv, row.mv_pred);
                let (mv_b, cost_b) =
                    self.refine_sad(&mut win_b, &bwd.y, block16, b.mv, row.mv_pred_bwd);

                // Bi-prediction trial: both winners' luma predictions are
                // candidates of the windows just refined over.
                let bi_buf = bipred_luma(
                    &self.dsp,
                    (&win_f, mv_f - f.mv.scaled(4)),
                    (&win_b, mv_b - b.mv.scaled(4)),
                );
                let cur_y = &cur.y().data()[mby * 16 * self.aw + mbx * 16..];
                let bi_sad = self.dsp.sad(cur_y, self.aw, &bi_buf, 16, 16, 16);
                let bi_cost =
                    bi_sad + lambda * (mv_bits(mv_f, row.mv_pred) + mv_bits(mv_b, row.mv_pred_bwd));

                let (mode, best_cost) = [cost_f, cost_b, bi_cost]
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(_, c)| c)
                    .map(|(i, c)| (i as u8, c))
                    .unwrap_or((0, u32::MAX));
                let intra = mb_prefers_intra(&self.dsp, block16, best_cost);
                drop(me_zone);
                if intra {
                    w.put_bit(false);
                    w.put_bits(3, 2);
                    self.code_intra_mb(w, cur, recon, mbx, mby, dc);
                    row.reset_mv();
                    continue;
                }
                let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                build_b_prediction(
                    &self.dsp, fwd, bwd, mbx, mby, mode, mv_f, mv_b, &mut py, &mut pcb, &mut pcr,
                );
                let (blocks, cbp) = self.transform_mb(cur, mbx, mby, &py, &pcb, &pcr);

                // Direct-mode skip (MPEG-4 B direct): prediction from the
                // collocated anchor vectors costs a single bit.
                let (dir_f, dir_b) = direct_mvs(fwd, bwd, display_index, mbx, mby);
                let (mut dy_, mut dcb, mut dcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                build_b_prediction(
                    &self.dsp, fwd, bwd, mbx, mby, 2, dir_f, dir_b, &mut dy_, &mut dcb, &mut dcr,
                );
                let (dblocks, dcbp) = self.transform_mb(cur, mbx, mby, &dy_, &dcb, &dcr);
                if dcbp == 0 {
                    w.put_bit(true);
                    reconstruct_inter(
                        &self.dsp,
                        recon,
                        mbx,
                        mby,
                        &dy_,
                        &dcb,
                        &dcr,
                        &dblocks,
                        0,
                        self.config.qscale,
                    );
                    continue;
                }
                {
                    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
                    w.put_bit(false);
                    w.put_bits(u32::from(mode), 2);
                    if mode == 0 || mode == 2 {
                        w.put_se(i32::from(mv_f.x - row.mv_pred.x));
                        w.put_se(i32::from(mv_f.y - row.mv_pred.y));
                        row.mv_pred = mv_f;
                    }
                    if mode == 1 || mode == 2 {
                        w.put_se(i32::from(mv_b.x - row.mv_pred_bwd.x));
                        w.put_se(i32::from(mv_b.y - row.mv_pred_bwd.y));
                        row.mv_pred_bwd = mv_b;
                    }
                    w.put_bits(u32::from(cbp), 6);
                    for (i, bl) in blocks.iter().enumerate() {
                        if cbp & (1 << (5 - i)) != 0 {
                            write_coeffs(w, bl, 0);
                        }
                    }
                }
                reconstruct_inter(
                    &self.dsp,
                    recon,
                    mbx,
                    mby,
                    &py,
                    &pcb,
                    &pcr,
                    &blocks,
                    cbp,
                    self.config.qscale,
                );
            }
            w.byte_align();
        }
    }

    /// λ of the motion cost `J = SAD + λ·R`: the quantiser scale.
    fn lambda(&self) -> u32 {
        u32::from(self.config.qscale).max(1)
    }

    /// SAD-based quarter-pel refinement (half-pel lattice, then quarter)
    /// of `block` around `fullpel` on reference plane `refp`; `win` is
    /// filled there and left holding the candidates' predictions.
    /// Vectors are quarter-pel; returns (mv, cost).
    fn refine_sad(
        &self,
        win: &mut SubpelWindow,
        refp: &PaddedPlane,
        block: BlockRef<'_>,
        fullpel: Mv,
        pred_qpel: Mv,
    ) -> (Mv, u32) {
        let (x, y) = block.displaced(fullpel);
        win.fill_sixtap(&self.dsp, refp, x, y, block.w, block.h);
        let target = SubpelTarget {
            cost: self.dsp.sad_fn(),
            block,
            lambda: self.lambda(),
            pred: pred_qpel,
        };
        refine_qpel(&self.dsp, win, &target, fullpel)
    }

    /// Transforms and quantises the six residual blocks; returns blocks
    /// and coded-block pattern.
    fn transform_mb(
        &self,
        cur: &Frame,
        mbx: usize,
        mby: usize,
        py: &[u8; 256],
        pcb: &[u8; 64],
        pcr: &[u8; 64],
    ) -> ([Block8; 6], u8) {
        let mut blocks = [[0i16; 64]; 6];
        let mut cbp = 0u8;
        let aw = self.aw;
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::TransformQuant);
        for b in 0..6 {
            let (cur_slice, cur_stride, pred_slice, pred_stride): (&[u8], usize, &[u8], usize) =
                match b {
                    0..=3 => {
                        let bx = mbx * 16 + (b % 2) * 8;
                        let by = mby * 16 + (b / 2) * 8;
                        (
                            &cur.y().data()[by * aw + bx..],
                            aw,
                            &py[(b / 2) * 8 * 16 + (b % 2) * 8..],
                            16,
                        )
                    }
                    4 => (
                        &cur.cb().data()[mby * 8 * (aw / 2) + mbx * 8..],
                        aw / 2,
                        &pcb[..],
                        8,
                    ),
                    _ => (
                        &cur.cr().data()[mby * 8 * (aw / 2) + mbx * 8..],
                        aw / 2,
                        &pcr[..],
                        8,
                    ),
                };
            let mut block = [0i16; 64];
            self.dsp
                .diff_block8(&mut block, cur_slice, cur_stride, pred_slice, pred_stride);
            self.dsp.fdct8(&mut block);
            let nz = self.dsp.quant8(
                &mut block,
                &MPEG_DEFAULT_NONINTRA,
                self.config.qscale,
                false,
            );
            if nz > 0 {
                cbp |= 1 << (5 - b);
            }
            blocks[b] = block;
        }
        (blocks, cbp)
    }
}

/// Source-plane geometry of intra block `b`.
fn intra_geometry(
    cur: &Frame,
    mbx: usize,
    mby: usize,
    b: usize,
) -> (&Plane, usize, usize, usize, usize) {
    match b {
        0..=3 => {
            let bx = mbx * 16 + (b % 2) * 8;
            let by = mby * 16 + (b / 2) * 8;
            (cur.y(), 0, 0, bx, by)
        }
        4 => (cur.cb(), 0, 0, mbx * 8, mby * 8),
        _ => (cur.cr(), 0, 0, mbx * 8, mby * 8),
    }
}

/// Recon-plane geometry of intra block `b`.
fn intra_recon_geometry(
    recon: &mut Frame,
    mbx: usize,
    mby: usize,
    b: usize,
) -> (usize, &mut Plane, usize, usize) {
    match b {
        0..=3 => {
            let bx = mbx * 16 + (b % 2) * 8;
            let by = mby * 16 + (b / 2) * 8;
            (0, recon.y_mut(), bx, by)
        }
        4 => (0, recon.cb_mut(), mbx * 8, mby * 8),
        _ => (0, recon.cr_mut(), mbx * 8, mby * 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdvb_dsp::SimdLevel;

    fn textured_frame(w: usize, h: usize, phase: f64) -> Frame {
        let mut f = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = 128.0
                    + 55.0 * ((x as f64 + phase) * 0.2 + y as f64 * 0.1).sin()
                    + 40.0 * (y as f64 * 0.15 - (x as f64 + phase) * 0.05).cos();
                f.y_mut().set(x, y, v.clamp(0.0, 255.0) as u8);
            }
        }
        for y in 0..h / 2 {
            for x in 0..w / 2 {
                f.cb_mut().set(x, y, 120 + ((x + y) % 16) as u8);
                f.cr_mut().set(x, y, 130 - ((x * 2 + y) % 16) as u8);
            }
        }
        f
    }

    #[test]
    fn gop_pattern_matches_paper() {
        let mut enc = Mpeg4Encoder::new(EncoderConfig::new(64, 48)).unwrap();
        let mut all = Vec::new();
        for i in 0..7 {
            all.extend(enc.encode(&textured_frame(64, 48, i as f64)).unwrap());
        }
        all.extend(enc.flush().unwrap());
        let types: Vec<PacketKind> = all.iter().map(|p| p.kind).collect();
        assert_eq!(
            types,
            vec![
                PacketKind::I,
                PacketKind::P,
                PacketKind::B,
                PacketKind::B,
                PacketKind::P,
                PacketKind::B,
                PacketKind::B
            ]
        );
    }

    #[test]
    fn dc_store_gradient_rule() {
        let mut s = DcStore::new(4, 4);
        // No neighbours: default.
        assert_eq!(s.predict(0, 0), 128);
        s.set(0, 0, 100); // B for (1,1)
        s.set(1, 0, 110); // C for (1,1)
        s.set(0, 1, 104); // A for (1,1)
                          // |A-B| = 4 < |B-C| = 10 -> predict from C.
        assert_eq!(s.predict(1, 1), 110);
        s.set(0, 1, 150);
        // |A-B| = 50 >= 10 -> predict from A.
        assert_eq!(s.predict(1, 1), 150);
    }

    #[test]
    fn higher_qscale_means_fewer_bits() {
        let frame = textured_frame(64, 48, 0.0);
        let bits = |q: u16| {
            let mut enc = Mpeg4Encoder::new(EncoderConfig::new(64, 48).with_qscale(q)).unwrap();
            enc.encode(&frame).unwrap()[0].bits()
        };
        assert!(bits(20) < bits(2));
    }

    #[test]
    fn scalar_and_simd_streams_are_identical() {
        let mut scalar =
            Mpeg4Encoder::new(EncoderConfig::new(64, 48).with_simd(SimdLevel::Scalar)).unwrap();
        let mut simd =
            Mpeg4Encoder::new(EncoderConfig::new(64, 48).with_simd(SimdLevel::Sse2)).unwrap();
        for i in 0..5 {
            let f = textured_frame(64, 48, i as f64 * 1.3);
            assert_eq!(scalar.encode(&f).unwrap(), simd.encode(&f).unwrap());
        }
        assert_eq!(scalar.flush().unwrap(), simd.flush().unwrap());
    }
}
