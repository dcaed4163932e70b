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
    bipred_luma, epzs_search, mb_prefers_intra, mv_bits, reconstruct_inter, refine_hpel, BlockRef,
    EpzsThresholds, Mv, MvField, Predictors, SearchParams, SubpelTarget,
};
use hdvb_par::CancelToken;

/// Magic number opening every coded picture.
pub const MAGIC: u32 = 0x4D32; // "M2"
/// Luma padding of reference pictures (search range + interpolation).
pub(crate) const LUMA_PAD: usize = 32;
/// Chroma padding of reference pictures.
pub(crate) const CHROMA_PAD: usize = 16;

/// A reconstructed reference picture with padded planes and the motion
/// field that was chosen while coding it (EPZS temporal predictors).
pub(crate) struct RefPicture {
    pub y: PaddedPlane,
    pub cb: PaddedPlane,
    pub cr: PaddedPlane,
    pub mvs: MvField,
}

impl RefPicture {
    pub(crate) fn from_frame(frame: &Frame, mvs: MvField) -> Self {
        // Building the padded planes is reference preparation for the
        // interpolators, so it bills to motion compensation.
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
        RefPicture {
            y: PaddedPlane::from_plane(frame.y(), LUMA_PAD),
            cb: PaddedPlane::from_plane(frame.cb(), CHROMA_PAD),
            cr: PaddedPlane::from_plane(frame.cr(), CHROMA_PAD),
            mvs,
        }
    }

    /// Re-extends a retired reference picture from a new reconstruction
    /// without reallocating its padded planes, and swaps the freshly
    /// coded motion field in (leaving the stale one in `mvs` for the
    /// caller to clear and reuse). Bit-identical to
    /// [`from_frame`](Self::from_frame) on matching geometry.
    pub(crate) fn refill_from(&mut self, frame: &Frame, mvs: &mut MvField) {
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
        self.y.refill(frame.y());
        self.cb.refill(frame.cb());
        self.cr.refill(frame.cr());
        std::mem::swap(&mut self.mvs, mvs);
    }

    /// Whether this reference was built for a `w`×`h` picture.
    pub(crate) fn matches(&self, w: usize, h: usize) -> bool {
        self.y.width() == w && self.y.height() == h
    }
}

/// Motion-compensates one macroblock (luma 16×16 + two chroma 8×8) from
/// `r` at half-pel vector `mv` into the three destination buffers.
/// Shared by the encoder's reconstruction loop and (via re-export) the
/// decoder, so prediction can never diverge.
#[allow(clippy::too_many_arguments)]
pub(crate) fn predict_mb(
    dsp: &Dsp,
    r: &RefPicture,
    mb_x: usize,
    mb_y: usize,
    mv: Mv,
    luma: &mut [u8; 256],
    cb: &mut [u8; 64],
    cr: &mut [u8; 64],
) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
    let lx = (mb_x * 16) as isize + isize::from(mv.x >> 1);
    let ly = (mb_y * 16) as isize + isize::from(mv.y >> 1);
    let (fx, fy) = ((mv.x & 1) as u8, (mv.y & 1) as u8);
    dsp.hpel_interp(luma, 16, r.y.row_from(lx, ly), r.y.stride(), fx, fy, 16, 16);
    // Chroma vector: half the luma vector (floor), still in half-pel
    // units of the chroma grid.
    let cmx = mv.x >> 1;
    let cmy = mv.y >> 1;
    let cx = (mb_x * 8) as isize + isize::from(cmx >> 1);
    let cy = (mb_y * 8) as isize + isize::from(cmy >> 1);
    let (cfx, cfy) = ((cmx & 1) as u8, (cmy & 1) as u8);
    dsp.hpel_interp(cb, 8, r.cb.row_from(cx, cy), r.cb.stride(), cfx, cfy, 8, 8);
    dsp.hpel_interp(cr, 8, r.cr.row_from(cx, cy), r.cr.stride(), cfx, cfy, 8, 8);
}

/// Per-row entropy-coding state shared between encoder and decoder: DC
/// predictors (in DC-level units) and motion-vector predictors.
pub(crate) struct RowState {
    pub dc_pred: [i32; 3],
    pub mv_pred: Mv,
    pub mv_pred_bwd: Mv,
    /// Last prediction used, for B-skip repetition: (mode, fwd, bwd).
    pub last_b: (u8, Mv, Mv),
}

impl RowState {
    pub(crate) fn new() -> Self {
        RowState {
            dc_pred: [128; 3],
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

/// Per-picture working storage, reused across the whole encode so the
/// steady-state hot path performs no heap allocation. Taken out of the
/// encoder (`Option` dance) while a picture is being coded to keep the
/// borrow checker happy around `&self` helper calls.
struct EncScratch {
    /// Reconstruction target, `aw`×`ah`; fully overwritten per picture.
    recon: Frame,
    /// Edge-replicated copy of unaligned input (unused when the source
    /// frame is already macroblock-aligned).
    aligned: Frame,
    /// Motion field of the picture being coded (anchors swap it into
    /// their [`RefPicture`] for EPZS temporal prediction).
    mvs: MvField,
    /// B-picture forward field (separate so anchors' fields survive).
    b_mvs: MvField,
}

/// The MPEG-2-class encoder.
///
/// Frames are submitted in display order via [`encode`](Self::encode);
/// packets come back in coding order. Call [`flush`](Self::flush) after
/// the last frame.
pub struct Mpeg2Encoder {
    config: EncoderConfig,
    dsp: Dsp,
    gop: GopScheduler<Frame>,
    aw: usize,
    ah: usize,
    mbs_x: usize,
    mbs_y: usize,
    /// Older anchor (forward reference for B pictures).
    prev_anchor: Option<RefPicture>,
    /// Newest anchor (reference for P; backward reference for B).
    last_anchor: Option<RefPicture>,
    /// Reusable per-picture working storage.
    scratch: Option<EncScratch>,
    /// Reusable coding-order buffer handed to the GOP scheduler.
    sched: Vec<Scheduled<Frame>>,
    /// Cooperative cancellation, checkpointed before each coded picture.
    cancel: CancelToken,
}

impl Mpeg2Encoder {
    /// Creates an encoder.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadConfig`] for invalid geometry or quantiser.
    pub fn new(config: EncoderConfig) -> Result<Self, CodecError> {
        config.validate()?;
        let aw = align_up(config.width, 16);
        let ah = align_up(config.height, 16);
        Ok(Mpeg2Encoder {
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
                mvs: MvField::new(aw / 16, ah / 16),
                b_mvs: MvField::new(aw / 16, ah / 16),
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

    /// Submits the next display-order frame; returns zero or more coded
    /// packets (coding order).
    ///
    /// # Errors
    ///
    /// [`CodecError::FrameMismatch`] if the frame geometry differs from
    /// the configuration.
    pub fn encode(&mut self, frame: &Frame) -> Result<Vec<Packet>, CodecError> {
        let mut out = Vec::new();
        self.encode_into(frame, &mut out)?;
        Ok(out)
    }

    /// Flushes buffered frames at end of stream.
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
            mvs,
            b_mvs,
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

        // `recon` is fully overwritten by every picture type, and the
        // motion fields are cleared, so the recycled storage is
        // bit-identical to freshly allocated buffers.
        mvs.clear();
        match kind {
            PacketKind::I => self.encode_i(&mut w, cur, recon),
            PacketKind::P => self.encode_p(&mut w, cur, recon, mvs),
            PacketKind::B => {
                b_mvs.clear();
                self.encode_b(&mut w, cur, recon, b_mvs);
            }
        }

        if kind != PacketKind::B {
            let recycled = self.prev_anchor.take();
            self.prev_anchor = self.last_anchor.take();
            self.last_anchor = Some(match recycled {
                Some(mut rp) if rp.matches(self.aw, self.ah) => {
                    rp.refill_from(recon, mvs);
                    rp
                }
                _ => RefPicture::from_frame(
                    recon,
                    std::mem::replace(mvs, MvField::new(self.mbs_x, self.mbs_y)),
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

    // ----------------------------------------------------------- intra --

    fn encode_i(&self, w: &mut BitWriter, cur: &Frame, recon: &mut Frame) {
        for mby in 0..self.mbs_y {
            let mut row = RowState::new();
            for mbx in 0..self.mbs_x {
                self.code_intra_mb(w, cur, recon, mbx, mby, &mut row.dc_pred);
            }
            w.byte_align();
        }
    }

    /// Codes one intra macroblock and reconstructs it.
    fn code_intra_mb(
        &self,
        w: &mut BitWriter,
        cur: &Frame,
        recon: &mut Frame,
        mbx: usize,
        mby: usize,
        dc_pred: &mut [i32; 3],
    ) {
        // Phase-split per macroblock (transform all six blocks, then
        // write, then reconstruct) so each phase is one trace zone; the
        // emitted bits are identical to the interleaved per-block form.
        let mut blocks = [[0i16; 64]; 6];
        let mut dc_levels = [0i32; 6];
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::TransformQuant);
            for b in 0..6 {
                let (plane, _, _, bx, by) = block_geometry(cur, recon, mbx, mby, b);
                let block = &mut blocks[b];
                *block = load_block(plane, bx, by);
                self.dsp.fdct8(block);
                dc_levels[b] = ((i32::from(block[0]) + 4) >> 3).clamp(0, 255);
                block[0] = 0;
                self.dsp
                    .quant8(block, &MPEG_DEFAULT_INTRA, self.config.qscale, true);
            }
        }
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
            for b in 0..6 {
                let comp = block_geometry(cur, recon, mbx, mby, b).2;
                w.put_se(dc_levels[b] - dc_pred[comp]);
                dc_pred[comp] = dc_levels[b];
                write_coeffs(w, &blocks[b], 1);
            }
        }
        // Reconstruction (must mirror the decoder exactly).
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
        for b in 0..6 {
            let (_, rplane, _, bx, by) = block_geometry(cur, recon, mbx, mby, b);
            let block = &mut blocks[b];
            self.dsp
                .dequant8(block, &MPEG_DEFAULT_INTRA, self.config.qscale, true);
            block[0] = (dc_levels[b] * 8) as i16;
            self.dsp.idct8(block);
            store_block_clamped(rplane, bx, by, block);
        }
    }

    // ------------------------------------------------------------ inter --

    fn encode_p(&self, w: &mut BitWriter, cur: &Frame, recon: &mut Frame, mvs: &mut MvField) {
        let reference = self
            .last_anchor
            .as_ref()
            .expect("P picture requires a previous anchor");
        let lambda = self.lambda();
        let mut win = SubpelWindow::new();
        for mby in 0..self.mbs_y {
            let mut row = RowState::new();
            for mbx in 0..self.mbs_x {
                // One zone over the whole search + mode decision
                // (predictor gather, EPZS, half-pel refinement, intra
                // activity); the searches' own zones nest and suppress.
                let me_zone = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
                // Full-pel EPZS (paper Section IV) with temporal
                // predictors from the reference's own motion field.
                let preds = Predictors::gather(mvs, &reference.mvs, mbx, mby);
                let block = BlockRef {
                    plane: cur.y(),
                    x: mbx * 16,
                    y: mby * 16,
                    w: 16,
                    h: 16,
                };
                let fullpel = epzs_search(
                    &self.dsp,
                    block,
                    &reference.y,
                    &preds,
                    &EpzsThresholds::default(),
                    &SearchParams::new(self.config.search_range, lambda)
                        .with_pred(Mv::new(row.mv_pred.x >> 1, row.mv_pred.y >> 1)),
                );
                // Half-pel refinement against the coding predictor.
                let (mv, inter_cost) =
                    self.refine(&mut win, reference, block, fullpel.mv, row.mv_pred);
                mvs.set(mbx, mby, Mv::new(mv.x >> 1, mv.y >> 1));

                // Intra/inter decision: mean-removed SAD as intra
                // activity, biased toward inter.
                let intra = mb_prefers_intra(&self.dsp, block, inter_cost);
                drop(me_zone);
                if intra {
                    w.put_bit(false); // not skipped
                    w.put_bit(true); // intra
                    self.code_intra_mb(w, cur, recon, mbx, mby, &mut row.dc_pred);
                    row.reset_mv();
                    continue;
                }

                // Build the full prediction and quantise the residual.
                let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                predict_mb(
                    &self.dsp, reference, mbx, mby, mv, &mut py, &mut pcb, &mut pcr,
                );
                let (blocks, cbp) = self.transform_mb(cur, mbx, mby, &py, &pcb, &pcr);

                if mv == Mv::ZERO && cbp == 0 {
                    w.put_bit(true); // skip: zero vector, no residual
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
                    row.dc_pred = [128; 3];
                    row.reset_mv();
                    continue;
                }
                {
                    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
                    w.put_bit(false);
                    w.put_bit(false); // inter
                    w.put_se(i32::from(mv.x - row.mv_pred.x));
                    w.put_se(i32::from(mv.y - row.mv_pred.y));
                    row.mv_pred = mv;
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
                row.dc_pred = [128; 3];
            }
            w.byte_align();
        }
    }

    fn encode_b(&self, w: &mut BitWriter, cur: &Frame, recon: &mut Frame, cur_mvs: &mut MvField) {
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
            let mut row = RowState::new();
            for mbx in 0..self.mbs_x {
                // One zone over both searches, bi-prediction costing and
                // the mode decision; inner search zones suppress.
                let me_zone = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
                let block = BlockRef {
                    plane: cur.y(),
                    x: mbx * 16,
                    y: mby * 16,
                    w: 16,
                    h: 16,
                };
                // Forward and backward searches (EPZS, spatial predictors
                // from this frame's forward field plus collocated from the
                // backward anchor's field).
                let preds = Predictors::gather(cur_mvs, &bwd.mvs, mbx, mby);
                let params = SearchParams::new(self.config.search_range, lambda)
                    .with_pred(Mv::new(row.mv_pred.x >> 1, row.mv_pred.y >> 1));
                let f = epzs_search(
                    &self.dsp,
                    block,
                    &fwd.y,
                    &preds,
                    &EpzsThresholds::default(),
                    &params,
                );
                let params_b = SearchParams::new(self.config.search_range, lambda)
                    .with_pred(Mv::new(row.mv_pred_bwd.x >> 1, row.mv_pred_bwd.y >> 1));
                let b = epzs_search(
                    &self.dsp,
                    block,
                    &bwd.y,
                    &preds,
                    &EpzsThresholds::default(),
                    &params_b,
                );
                cur_mvs.set(mbx, mby, f.mv);

                // Half-pel refinement per direction.
                let (fwd_pred_mv, bwd_pred_mv) = (row.mv_pred, row.mv_pred_bwd);
                let (mv_f, cost_fh) = self.refine(&mut win_f, fwd, block, f.mv, fwd_pred_mv);
                let (mv_b, cost_bh) = self.refine(&mut win_b, bwd, block, b.mv, bwd_pred_mv);

                // Bi-prediction cost with both refined vectors: their
                // luma predictions are candidates of the two windows
                // (offsets doubled: the windows count in quarter pels).
                let bi_buf = bipred_luma(
                    &self.dsp,
                    (&win_f, (mv_f - f.mv.scaled(2)).scaled(2)),
                    (&win_b, (mv_b - b.mv.scaled(2)).scaled(2)),
                );
                let cur_y = &cur.y().data()[mby * 16 * self.aw + mbx * 16..];
                let bi_sad = self.dsp.sad(cur_y, self.aw, &bi_buf, 16, 16, 16);
                let bi_cost =
                    bi_sad + lambda * (mv_bits(mv_f, fwd_pred_mv) + mv_bits(mv_b, bwd_pred_mv));

                let best = [cost_fh, cost_bh, bi_cost]
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(_, c)| c)
                    .map(|(i, c)| (i as u8, c))
                    .unwrap_or((0, u32::MAX));
                let intra = mb_prefers_intra(&self.dsp, block, best.1);
                drop(me_zone);
                if intra {
                    w.put_bit(false);
                    w.put_bits(3, 2); // intra mode
                    self.code_intra_mb(w, cur, recon, mbx, mby, &mut row.dc_pred);
                    row.reset_mv();
                    continue;
                }
                let (mode, _) = best;
                // Assemble the chosen prediction.
                let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                build_b_prediction(
                    &self.dsp, fwd, bwd, mbx, mby, mode, mv_f, mv_b, &mut py, &mut pcb, &mut pcr,
                );
                let (blocks, cbp) = self.transform_mb(cur, mbx, mby, &py, &pcb, &pcr);

                let same_as_last = (mode, mv_f, mv_b) == row.last_b
                    || (mode == 0 && row.last_b.0 == 0 && mv_f == row.last_b.1)
                    || (mode == 1 && row.last_b.0 == 1 && mv_b == row.last_b.2);
                if cbp == 0 && same_as_last {
                    w.put_bit(true); // B-skip: repeat previous prediction
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
                    row.last_b = (mode, mv_f, mv_b);
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
                row.dc_pred = [128; 3];
            }
            w.byte_align();
        }
    }

    /// λ of the motion cost `J = SAD + λ·R`: the quantiser scale.
    fn lambda(&self) -> u32 {
        u32::from(self.config.qscale).max(1)
    }

    /// SAD-based half-pel refinement of macroblock `block` around
    /// `fullpel` on `r`: fills `win` there (kept for the caller's
    /// bi-prediction trial) and returns the best half-pel vector and cost.
    fn refine(
        &self,
        win: &mut SubpelWindow,
        r: &RefPicture,
        block: BlockRef<'_>,
        fullpel: Mv,
        pred_hpel: Mv,
    ) -> (Mv, u32) {
        let (x, y) = block.displaced(fullpel);
        win.fill_bilinear(&self.dsp, &r.y, x, y, 16, 16);
        let target = SubpelTarget {
            cost: self.dsp.sad_fn(),
            block,
            lambda: self.lambda(),
            pred: pred_hpel,
        };
        refine_hpel(win, &target, fullpel)
    }

    /// Transforms and quantises the six residual blocks of one
    /// macroblock; returns the blocks and the coded-block pattern.
    fn transform_mb(
        &self,
        cur: &Frame,
        mbx: usize,
        mby: usize,
        py: &[u8; 256],
        pcb: &[u8; 64],
        pcr: &[u8; 64],
    ) -> ([Block8; 6], u8) {
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::TransformQuant);
        let mut blocks = [[0i16; 64]; 6];
        let mut cbp = 0u8;
        #[allow(clippy::needless_range_loop)]
        for b in 0..6 {
            let (cur_slice, cur_stride, pred_slice, pred_stride) =
                residual_geometry(cur, mbx, mby, b, py, pcb, pcr);
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

/// Geometry of coded block `b` (0–3 luma, 4 Cb, 5 Cr) inside a
/// macroblock: returns source plane, recon plane, DC component index and
/// block pixel origin.
fn block_geometry<'a>(
    cur: &'a Frame,
    recon: &'a mut Frame,
    mbx: usize,
    mby: usize,
    b: usize,
) -> (&'a Plane, &'a mut Plane, usize, usize, usize) {
    match b {
        0..=3 => {
            let bx = mbx * 16 + (b % 2) * 8;
            let by = mby * 16 + (b / 2) * 8;
            (cur.y(), recon.y_mut(), 0, bx, by)
        }
        4 => (cur.cb(), recon.cb_mut(), 1, mbx * 8, mby * 8),
        _ => (cur.cr(), recon.cr_mut(), 2, mbx * 8, mby * 8),
    }
}

/// Residual geometry: current-frame slice and prediction slice for block
/// `b` of a macroblock.
fn residual_geometry<'a>(
    cur: &'a Frame,
    mbx: usize,
    mby: usize,
    b: usize,
    py: &'a [u8; 256],
    pcb: &'a [u8; 64],
    pcr: &'a [u8; 64],
) -> (&'a [u8], usize, &'a [u8], usize) {
    let aw = cur.width();
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
    }
}

/// Builds the B prediction for `mode` (0 fwd, 1 bwd, 2 bi).
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
        0 => predict_mb(dsp, fwd, mbx, mby, mv_f, py, pcb, pcr),
        1 => predict_mb(dsp, bwd, mbx, mby, mv_b, py, pcb, pcr),
        _ => {
            let (mut fy, mut fcb, mut fcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
            let (mut by, mut bcb, mut bcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
            predict_mb(dsp, fwd, mbx, mby, mv_f, &mut fy, &mut fcb, &mut fcr);
            predict_mb(dsp, bwd, mbx, mby, mv_b, &mut by, &mut bcb, &mut bcr);
            dsp.avg_block(py, 16, &fy, 16, &by, 16, 16, 16);
            dsp.avg_block(pcb, 8, &fcb, 8, &bcb, 8, 8, 8);
            dsp.avg_block(pcr, 8, &fcr, 8, &bcr, 8, 8, 8);
        }
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
    fn first_packet_is_intra() {
        let mut enc = Mpeg2Encoder::new(EncoderConfig::new(64, 48)).unwrap();
        let packets = enc.encode(&textured_frame(64, 48, 0.0)).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].kind, PacketKind::I);
        assert_eq!(packets[0].display_index, 0);
        assert!(!packets[0].data.is_empty());
    }

    #[test]
    fn gop_pattern_in_packet_stream() {
        let mut enc = Mpeg2Encoder::new(EncoderConfig::new(64, 48)).unwrap();
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
        let display: Vec<u32> = all.iter().map(|p| p.display_index).collect();
        assert_eq!(display, vec![0, 3, 1, 2, 6, 4, 5]);
    }

    #[test]
    fn higher_qscale_produces_fewer_bits() {
        let frame = textured_frame(64, 48, 0.0);
        let bits = |q: u16| {
            let mut enc = Mpeg2Encoder::new(EncoderConfig::new(64, 48).with_qscale(q)).unwrap();
            let p = enc.encode(&frame).unwrap();
            p[0].bits()
        };
        assert!(bits(20) < bits(2), "{} !< {}", bits(20), bits(2));
    }

    #[test]
    fn wrong_frame_size_is_rejected() {
        let mut enc = Mpeg2Encoder::new(EncoderConfig::new(64, 48)).unwrap();
        assert!(matches!(
            enc.encode(&Frame::new(32, 32)),
            Err(CodecError::FrameMismatch { .. })
        ));
    }

    #[test]
    fn scalar_and_simd_encoders_produce_identical_streams() {
        let mut scalar =
            Mpeg2Encoder::new(EncoderConfig::new(64, 48).with_simd(SimdLevel::Scalar)).unwrap();
        let mut simd =
            Mpeg2Encoder::new(EncoderConfig::new(64, 48).with_simd(SimdLevel::Sse2)).unwrap();
        for i in 0..5 {
            let f = textured_frame(64, 48, i as f64 * 1.7);
            let a = scalar.encode(&f).unwrap();
            let b = simd.encode(&f).unwrap();
            assert_eq!(a, b, "frame {i}");
        }
        assert_eq!(scalar.flush().unwrap(), simd.flush().unwrap());
    }

    #[test]
    fn static_scene_p_frames_are_tiny() {
        let mut enc = Mpeg2Encoder::new(EncoderConfig::new(64, 48).with_b_frames(0)).unwrap();
        let f = textured_frame(64, 48, 0.0);
        let i_bits = enc.encode(&f).unwrap()[0].bits();
        let p_bits = enc.encode(&f).unwrap()[0].bits();
        // An identical frame codes as skips plus small refinements of the
        // lossy I reconstruction.
        assert!(p_bits * 5 < i_bits, "P {p_bits} vs I {i_bits}");
    }
}
