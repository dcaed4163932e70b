use crate::blocks4::write_coeffs4;
use crate::config::EncoderConfig;
use crate::deblock::deblock_frame;
use crate::intra::{predict16, predict4, predict_chroma8, ChromaMode, Intra16Mode, Intra4Mode};
use crate::mc::{predict_partition, Partitioning, RefPicture};
use crate::quant4::{dequant4, quant4};
use crate::resid::{
    recon_chroma_plane, recon_luma_mb, transform_chroma_plane, transform_luma_mb,
    write_chroma_residual, write_luma_residual,
};
use crate::tables::lambda;
use hdvb_bits::picture::{
    write_picture_prefix, CodecError, GopScheduler, Packet, PacketKind, PicturePrefix, Scheduled,
};
use hdvb_bits::BitWriter;
use hdvb_dsp::{Block4, Dsp, SubpelWindow};
use hdvb_frame::{align_up, BufferPool, Frame, FramePool, PaddedPlane};
use hdvb_me::{
    bipred_luma, hexagon_search, mv_bits, refine_qpel, BlockRef, Mv, MvField, SearchParams,
    SubpelTarget,
};
use hdvb_par::CancelToken;
use std::collections::VecDeque;

/// Magic number opening every coded picture.
pub const MAGIC: u32 = 0x4834; // "H4"

/// Per-picture coding context mirrored by the decoder: the quarter-pel
/// motion field (median predictors, skip vectors) and the 4×4 intra-mode
/// grid (most-probable-mode predictors).
pub(crate) struct PicCtx {
    pub qfield: MvField,
    pub mode4: Vec<u8>,
    pub mode4_w: usize,
}

impl PicCtx {
    pub(crate) fn new(mbs_x: usize, mbs_y: usize) -> Self {
        PicCtx {
            qfield: MvField::new(mbs_x, mbs_y),
            mode4: vec![2; mbs_x * 4 * mbs_y * 4], // DC everywhere
            mode4_w: mbs_x * 4,
        }
    }

    pub(crate) fn mode_at(&self, gx: isize, gy: isize) -> u8 {
        if gx < 0 || gy < 0 || gx as usize >= self.mode4_w {
            return 2;
        }
        let idx = gy as usize * self.mode4_w + gx as usize;
        self.mode4.get(idx).copied().unwrap_or(2)
    }

    pub(crate) fn set_mode(&mut self, gx: usize, gy: usize, mode: u8) {
        let idx = gy * self.mode4_w + gx;
        if idx < self.mode4.len() {
            self.mode4[idx] = mode;
        }
    }

    /// Most probable 4×4 mode: min of left and top neighbour modes.
    pub(crate) fn most_probable(&self, gx: usize, gy: usize) -> u8 {
        let (x, y) = (gx as isize, gy as isize);
        self.mode_at(x - 1, y).min(self.mode_at(x, y - 1))
    }

    /// Marks a whole macroblock's 4×4 cells as non-intra (DC for mpm).
    pub(crate) fn clear_mb_modes(&mut self, mbx: usize, mby: usize) {
        for j in 0..4 {
            for i in 0..4 {
                self.set_mode(mbx * 4 + i, mby * 4 + j, 2);
            }
        }
    }

    /// Restores the freshly-constructed state so the context can be
    /// reused across pictures without reallocating.
    pub(crate) fn reset(&mut self) {
        self.qfield.clear();
        self.mode4.fill(2);
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
    /// Per-picture coding context, reset before each picture.
    ctx: PicCtx,
}

/// The H.264-class encoder. See the crate docs for the toolset.
pub struct H264Encoder {
    config: EncoderConfig,
    dsp: Dsp,
    gop: GopScheduler<Frame>,
    aw: usize,
    ah: usize,
    mbs_x: usize,
    mbs_y: usize,
    /// Reference pictures, newest first.
    refs: VecDeque<RefPicture>,
    /// Retired references kept for recycling (padded-plane storage is
    /// refilled in place instead of reallocated).
    retired: Vec<RefPicture>,
    lambda: u32,
    /// Reusable per-picture working storage.
    scratch: Option<EncScratch>,
    /// Reusable coding-order buffer handed to the GOP scheduler.
    sched: Vec<Scheduled<Frame>>,
    /// Cooperative cancellation, checkpointed before each coded picture.
    cancel: CancelToken,
}

impl H264Encoder {
    /// Creates an encoder.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadConfig`] for invalid parameters.
    pub fn new(config: EncoderConfig) -> Result<Self, CodecError> {
        config.validate()?;
        let aw = align_up(config.width, 16);
        let ah = align_up(config.height, 16);
        Ok(H264Encoder {
            config,
            dsp: Dsp::new(config.simd),
            gop: GopScheduler::new(config.b_frames, config.intra_period),
            aw,
            ah,
            mbs_x: aw / 16,
            mbs_y: ah / 16,
            refs: VecDeque::new(),
            retired: Vec::new(),
            lambda: lambda(config.qp),
            scratch: Some(EncScratch {
                recon: Frame::new(aw, ah),
                aligned: Frame::new(aw, ah),
                ctx: PicCtx::new(aw / 16, ah / 16),
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
            ctx,
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
            let mut w = BitWriter::from_vec(BufferPool::global().take(self.aw * self.ah / 6));
            let prefix = PicturePrefix {
                kind,
                display_index,
                width: self.config.width,
                height: self.config.height,
            };
            write_picture_prefix(&mut w, MAGIC, &prefix);
            w.put_ue(u32::from(self.config.qp));
            w.put_ue(u32::from(self.config.num_refs));
            w.put_bit(self.config.deblock);
            w
        };

        // The reconstruction MUST start each picture at the mid-grey
        // (128) state a fresh `Frame::new` has: intra prediction reads
        // top-right neighbour positions that raster order has not
        // reconstructed yet, and the bitstream contract pins those
        // samples to the same freshly initialised reconstruction the
        // decoder starts from. A memset keeps the reused scratch
        // bit-identical to the allocated frame it replaces without
        // touching the heap.
        recon.y_mut().fill(128);
        recon.cb_mut().fill(128);
        recon.cr_mut().fill(128);
        ctx.reset();
        match kind {
            PacketKind::I => self.encode_i(&mut w, cur, recon, ctx),
            PacketKind::P => self.encode_p(&mut w, cur, recon, ctx),
            PacketKind::B => self.encode_b(&mut w, cur, recon, ctx),
        }
        if self.config.deblock {
            deblock_frame(&self.dsp, recon, self.config.qp);
        }
        if kind != PacketKind::B {
            let keep = usize::from(self.config.num_refs).max(2);
            while self.refs.len() + 1 > keep {
                match self.refs.pop_back() {
                    Some(old) => self.retired.push(old),
                    None => break,
                }
            }
            let new_ref = match self.retired.pop() {
                Some(mut rp) if rp.matches(self.aw, self.ah) => {
                    rp.refill_from(recon);
                    rp
                }
                _ => RefPicture::from_frame(recon),
            };
            self.refs.push_front(new_ref);
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

    // ------------------------------------------------------------ intra --

    fn encode_i(&self, w: &mut BitWriter, cur: &Frame, recon: &mut Frame, ctx: &mut PicCtx) {
        for mby in 0..self.mbs_y {
            for mbx in 0..self.mbs_x {
                let (c16, mode16) = self.intra16_cost(cur, recon, mbx, mby);
                let c4 = self.intra4_cost_estimate(cur, mbx, mby, c16);
                if c4 < c16 {
                    w.put_ue(0);
                    self.code_intra4x4_mb(w, cur, recon, ctx, mbx, mby);
                } else {
                    w.put_ue(1);
                    self.code_intra16_mb(w, cur, recon, ctx, mbx, mby, mode16);
                }
            }
            w.byte_align();
        }
    }

    /// SATD cost and best mode for intra 16×16.
    fn intra16_cost(
        &self,
        cur: &Frame,
        recon: &Frame,
        mbx: usize,
        mby: usize,
    ) -> (u32, Intra16Mode) {
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
        let src = &cur.y().data()[mby * 16 * self.aw + mbx * 16..];
        let mut best = (u32::MAX, Intra16Mode::Dc);
        for mode in Intra16Mode::ALL {
            let mut pred = [0u8; 256];
            predict16(recon.y(), mbx * 16, mby * 16, mode, &mut pred);
            let satd = self.dsp.satd(src, self.aw, &pred, 16, 16, 16);
            let cost = satd + self.lambda * 4;
            if cost < best.0 {
                best = (cost, mode);
            }
        }
        best
    }

    /// Quick SATD estimate for intra 4×4 (source-neighbour prediction;
    /// the actual coding pass uses reconstruction-based prediction).
    ///
    /// The estimate is only ever compared, so the caller passes the
    /// `limit` it would have to stay under to matter and the sum stops as
    /// soon as it reaches it: the running total only grows, so any
    /// comparison against a value ≥ `limit` reads the same either way.
    fn intra4_cost_estimate(&self, cur: &Frame, mbx: usize, mby: usize, limit: u32) -> u32 {
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
        let mut total = self.lambda * 8;
        for k in 0..16 {
            if total >= limit {
                break;
            }
            let bx = mbx * 16 + (k % 4) * 4;
            let by = mby * 16 + (k / 4) * 4;
            let src = &cur.y().data()[by * self.aw + bx..];
            let mut best = u32::MAX;
            for mode in Intra4Mode::ALL {
                let mut pred = [0u8; 16];
                predict4(cur.y(), bx, by, mode, &mut pred);
                let satd = self.dsp.satd(src, self.aw, &pred, 4, 4, 4);
                best = best.min(satd + self.lambda * 2);
            }
            total = total.saturating_add(best);
        }
        total
    }

    /// Codes an I4x4 macroblock: per-block mode + residual, interleaved
    /// with reconstruction, then intra chroma.
    fn code_intra4x4_mb(
        &self,
        w: &mut BitWriter,
        cur: &Frame,
        recon: &mut Frame,
        ctx: &mut PicCtx,
        mbx: usize,
        mby: usize,
    ) {
        for k in 0..16 {
            let gx = mbx * 4 + k % 4;
            let gy = mby * 4 + k / 4;
            let bx = mbx * 16 + (k % 4) * 4;
            let by = mby * 16 + (k / 4) * 4;
            let src = &cur.y().data()[by * self.aw + bx..];
            // Decision against reconstructed neighbours (attributed to
            // motion estimation: it is the intra analogue of the search).
            let mut best = (u32::MAX, Intra4Mode::Dc);
            let mpm = ctx.most_probable(gx, gy);
            {
                let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
                for mode in Intra4Mode::ALL {
                    let mut pred = [0u8; 16];
                    predict4(recon.y(), bx, by, mode, &mut pred);
                    let satd = self.dsp.satd(src, self.aw, &pred, 4, 4, 4);
                    let mode_bits = if mode.index() == u32::from(mpm) { 1 } else { 3 };
                    let cost = satd + self.lambda * mode_bits;
                    if cost < best.0 {
                        best = (cost, mode);
                    }
                }
            }
            let mode = best.1;
            write_intra4_mode(w, mode, mpm);
            ctx.set_mode(gx, gy, mode.index() as u8);
            // Residual against the recon-based prediction.
            let mut pred = [0u8; 16];
            let mut block = [0i16; 16];
            let nz = {
                let _z = hdvb_trace::zone!(hdvb_trace::Stage::TransformQuant);
                predict4(recon.y(), bx, by, mode, &mut pred);
                crate::mc::diff4(&mut block, src, self.aw, &pred, 4);
                self.dsp.fcore4(&mut block);
                quant4(&mut block, self.config.qp, true)
            };
            w.put_bit(nz > 0);
            if nz > 0 {
                write_coeffs4(w, &block);
                let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
                dequant4(&mut block, self.config.qp);
                self.dsp.icore4(&mut block);
                let stride = recon.y().stride();
                let off = by * stride + bx;
                crate::mc::add4(
                    &mut recon.y_mut().data_mut()[off..],
                    stride,
                    &pred,
                    4,
                    &block,
                );
            } else {
                let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
                let stride = recon.y().stride();
                let off = by * stride + bx;
                crate::mc::copy4(&mut recon.y_mut().data_mut()[off..], stride, &pred, 4);
            }
        }
        self.code_intra_chroma(w, cur, recon, mbx, mby);
    }

    /// Codes an I16x16 macroblock with the pre-selected luma mode.
    #[allow(clippy::too_many_arguments)]
    fn code_intra16_mb(
        &self,
        w: &mut BitWriter,
        cur: &Frame,
        recon: &mut Frame,
        ctx: &mut PicCtx,
        mbx: usize,
        mby: usize,
        mode: Intra16Mode,
    ) {
        w.put_ue(mode.index());
        ctx.clear_mb_modes(mbx, mby);
        let mut pred = [0u8; 256];
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
            predict16(recon.y(), mbx * 16, mby * 16, mode, &mut pred);
        }
        let (blocks, flags) =
            transform_luma_mb(&self.dsp, self.config.qp, true, cur.y(), mbx, mby, &pred);
        write_luma_residual(w, &blocks, flags);
        recon_luma_mb(
            &self.dsp,
            self.config.qp,
            recon.y_mut(),
            mbx,
            mby,
            &pred,
            &blocks,
            flags,
        );
        self.code_intra_chroma(w, cur, recon, mbx, mby);
    }

    /// Chroma intra mode decision + coding + reconstruction.
    fn code_intra_chroma(
        &self,
        w: &mut BitWriter,
        cur: &Frame,
        recon: &mut Frame,
        mbx: usize,
        mby: usize,
    ) {
        let cw = self.aw / 2;
        let src_cb = &cur.cb().data()[mby * 8 * cw + mbx * 8..];
        let src_cr = &cur.cr().data()[mby * 8 * cw + mbx * 8..];
        let mut best = (u32::MAX, ChromaMode::Dc);
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
            for mode in ChromaMode::ALL {
                let mut pb = [0u8; 64];
                let mut pr = [0u8; 64];
                predict_chroma8(recon.cb(), mbx * 8, mby * 8, mode, &mut pb);
                predict_chroma8(recon.cr(), mbx * 8, mby * 8, mode, &mut pr);
                let satd = self.dsp.satd(src_cb, cw, &pb, 8, 8, 8)
                    + self.dsp.satd(src_cr, cw, &pr, 8, 8, 8);
                if satd < best.0 {
                    best = (satd, mode);
                }
            }
        }
        let mode = best.1;
        w.put_ue(mode.index());
        let mut pb = [0u8; 64];
        let mut pr = [0u8; 64];
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
            predict_chroma8(recon.cb(), mbx * 8, mby * 8, mode, &mut pb);
            predict_chroma8(recon.cr(), mbx * 8, mby * 8, mode, &mut pr);
        }
        let (bb, fb) =
            transform_chroma_plane(&self.dsp, self.config.qp, true, cur.cb(), mbx, mby, &pb);
        let (br, fr) =
            transform_chroma_plane(&self.dsp, self.config.qp, true, cur.cr(), mbx, mby, &pr);
        write_chroma_residual(w, &bb, fb);
        write_chroma_residual(w, &br, fr);
        recon_chroma_plane(
            &self.dsp,
            self.config.qp,
            recon.cb_mut(),
            mbx,
            mby,
            &pb,
            &bb,
            fb,
        );
        recon_chroma_plane(
            &self.dsp,
            self.config.qp,
            recon.cr_mut(),
            mbx,
            mby,
            &pr,
            &br,
            fr,
        );
    }

    // ------------------------------------------------------------ inter --

    /// SATD-based quarter-pel refinement of `block` around `fullpel` on
    /// reference plane `refp`; `win` is filled there and left holding the
    /// candidates' predictions.
    fn refine_satd(
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
            cost: self.dsp.satd_fn(),
            block,
            lambda: self.lambda,
            pred: pred_qpel,
        };
        refine_qpel(&self.dsp, win, &target, fullpel)
    }

    fn encode_p(&self, w: &mut BitWriter, cur: &Frame, recon: &mut Frame, ctx: &mut PicCtx) {
        let nrefs = usize::from(self.config.num_refs)
            .min(self.refs.len())
            .max(1);
        let mut win = SubpelWindow::new();
        for mby in 0..self.mbs_y {
            for mbx in 0..self.mbs_x {
                // One motion-estimation zone spans the 16x16 reference
                // search; a second covers the partition trials below.
                let me_zone = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
                let median = ctx.qfield.median_pred(mbx, mby);
                // 16x16 search over the reference list.
                let block16 = BlockRef {
                    plane: cur.y(),
                    x: mbx * 16,
                    y: mby * 16,
                    w: 16,
                    h: 16,
                };
                let mut best16: Option<(usize, Mv, u32)> = None;
                for (ri, r) in self.refs.iter().take(nrefs).enumerate() {
                    let params = SearchParams::new(self.config.search_range, self.lambda)
                        .with_pred(Mv::new(median.x >> 2, median.y >> 2));
                    let fp = hexagon_search(
                        &self.dsp,
                        block16,
                        &r.y,
                        Mv::new(median.x >> 2, median.y >> 2),
                        &params,
                    );
                    let (qmv, qcost) = self.refine_satd(&mut win, &r.y, block16, fp.mv, median);
                    let ref_bits = 2 * (32 - (ri as u32 + 1).leading_zeros()) - 1;
                    let total = qcost + self.lambda * ref_bits;
                    if best16.is_none_or(|(_, _, c)| total < c) {
                        best16 = Some((ri, qmv, total));
                    }
                }
                let (ref_idx, mv16, cost16) =
                    best16.expect("P picture requires at least one reference");
                let rp = &self.refs[ref_idx];
                drop(me_zone);

                // Skip test: 16x16, reference 0, motion equal to the
                // median predictor, empty residual.
                if ref_idx == 0 && mv16 == median {
                    let pred =
                        self.build_inter_pred(rp, mbx, mby, Partitioning::P16x16, &[mv16; 4]);
                    let res = self.transform_inter_mb(cur, mbx, mby, &pred);
                    if res.is_empty() {
                        w.put_bit(true);
                        self.recon_inter_mb(recon, mbx, mby, &pred, &res);
                        ctx.qfield.set(mbx, mby, median);
                        ctx.clear_mb_modes(mbx, mby);
                        continue;
                    }
                }

                // Partition trials on the chosen reference.
                let me_zone = hdvb_trace::zone!(hdvb_trace::Stage::MotionEstimation);
                let mut best_part = (Partitioning::P16x16, [mv16; 4], cost16 + self.lambda);
                for part in [Partitioning::P16x8, Partitioning::P8x16, Partitioning::P8x8] {
                    let mut mvs = [Mv::ZERO; 4];
                    let mut total = self.lambda * (2 * part.index() + 1); // type bits
                    for (pi, &(ox, oy, pw, ph)) in part.rects().iter().enumerate() {
                        let pred_mv = if pi == 0 { median } else { mvs[pi - 1] };
                        let sub = BlockRef {
                            plane: cur.y(),
                            x: mbx * 16 + ox,
                            y: mby * 16 + oy,
                            w: pw,
                            h: ph,
                        };
                        let params = SearchParams::new(self.config.search_range, self.lambda)
                            .with_pred(Mv::new(pred_mv.x >> 2, pred_mv.y >> 2));
                        let fp = hexagon_search(
                            &self.dsp,
                            sub,
                            &rp.y,
                            Mv::new(mv16.x >> 2, mv16.y >> 2),
                            &params,
                        );
                        let (qmv, qcost) = self.refine_satd(&mut win, &rp.y, sub, fp.mv, pred_mv);
                        mvs[pi] = qmv;
                        total = total.saturating_add(qcost);
                    }
                    if total < best_part.2 {
                        best_part = (part, mvs, total);
                    }
                }
                let (part, mvs, inter_cost) = best_part;

                // Intra alternatives.
                let (c16, mode16) = self.intra16_cost(cur, recon, mbx, mby);
                // c4 matters only while `c4 < inter_cost && c4 <= c16`.
                let c4_limit = inter_cost.min(c16.saturating_add(1));
                let c4 = self.intra4_cost_estimate(cur, mbx, mby, c4_limit);
                drop(me_zone);
                w.put_bit(false); // not skipped
                if c4 < inter_cost && c4 <= c16 {
                    w.put_ue(4);
                    self.code_intra4x4_mb(w, cur, recon, ctx, mbx, mby);
                    ctx.qfield.set(mbx, mby, Mv::ZERO);
                    continue;
                }
                if c16 < inter_cost {
                    w.put_ue(5);
                    self.code_intra16_mb(w, cur, recon, ctx, mbx, mby, mode16);
                    ctx.qfield.set(mbx, mby, Mv::ZERO);
                    continue;
                }

                // Inter macroblock.
                {
                    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
                    w.put_ue(part.index());
                    if self.config.num_refs > 1 {
                        w.put_ue(ref_idx as u32);
                    }
                    let mut pred_mv = median;
                    for (pi, &(_, _, _, _)) in part.rects().iter().enumerate() {
                        w.put_se(i32::from(mvs[pi].x - pred_mv.x));
                        w.put_se(i32::from(mvs[pi].y - pred_mv.y));
                        pred_mv = mvs[pi];
                    }
                }
                let pred = self.build_inter_pred(rp, mbx, mby, part, &mvs);
                let res = self.transform_inter_mb(cur, mbx, mby, &pred);
                write_inter_residual(w, &res);
                self.recon_inter_mb(recon, mbx, mby, &pred, &res);
                ctx.qfield.set(mbx, mby, mvs[0]);
                ctx.clear_mb_modes(mbx, mby);
            }
            w.byte_align();
        }
    }

    /// Transforms and quantises the residual of one inter macroblock
    /// against `pred`.
    fn transform_inter_mb(&self, cur: &Frame, mbx: usize, mby: usize, pred: &MbPred) -> MbResidual {
        let (dsp, qp) = (&self.dsp, self.config.qp);
        MbResidual {
            luma: transform_luma_mb(dsp, qp, false, cur.y(), mbx, mby, &pred.0),
            cb: transform_chroma_plane(dsp, qp, false, cur.cb(), mbx, mby, &pred.1),
            cr: transform_chroma_plane(dsp, qp, false, cur.cr(), mbx, mby, &pred.2),
        }
    }

    /// Reconstructs one inter macroblock as `pred + res` (the prediction
    /// alone when `res` is empty, i.e. for skipped macroblocks).
    fn recon_inter_mb(
        &self,
        recon: &mut Frame,
        mbx: usize,
        mby: usize,
        pred: &MbPred,
        res: &MbResidual,
    ) {
        let (dsp, qp) = (&self.dsp, self.config.qp);
        let MbResidual { luma, cb, cr } = res;
        recon_luma_mb(dsp, qp, recon.y_mut(), mbx, mby, &pred.0, &luma.0, luma.1);
        recon_chroma_plane(dsp, qp, recon.cb_mut(), mbx, mby, &pred.1, &cb.0, cb.1);
        recon_chroma_plane(dsp, qp, recon.cr_mut(), mbx, mby, &pred.2, &cr.0, cr.1);
    }

    /// Builds the full inter prediction buffers for a partitioned MB.
    pub(crate) fn build_inter_pred(
        &self,
        r: &RefPicture,
        mbx: usize,
        mby: usize,
        part: Partitioning,
        mvs: &[Mv; 4],
    ) -> MbPred {
        let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
        for (pi, &(ox, oy, pw, ph)) in part.rects().iter().enumerate() {
            predict_partition(
                &self.dsp,
                r,
                mbx * 16 + ox,
                mby * 16 + oy,
                ox,
                oy,
                pw,
                ph,
                mvs[pi],
                &mut py,
                &mut pcb,
                &mut pcr,
            );
        }
        (py, pcb, pcr)
    }

    fn encode_b(&self, w: &mut BitWriter, cur: &Frame, recon: &mut Frame, ctx: &mut PicCtx) {
        // Coding order guarantees: refs[0] = future anchor (backward),
        // refs[1] = past anchor (forward).
        let bwd = &self.refs[0];
        let fwd = &self.refs[1];
        let (mut win_f, mut win_b) = (SubpelWindow::new(), SubpelWindow::new());
        for mby in 0..self.mbs_y {
            let mut row = BState::new();
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
                let pf = SearchParams::new(self.config.search_range, self.lambda)
                    .with_pred(Mv::new(row.mv_pred.x >> 2, row.mv_pred.y >> 2));
                let f = hexagon_search(
                    &self.dsp,
                    block16,
                    &fwd.y,
                    Mv::new(row.mv_pred.x >> 2, row.mv_pred.y >> 2),
                    &pf,
                );
                let pb = SearchParams::new(self.config.search_range, self.lambda)
                    .with_pred(Mv::new(row.mv_pred_bwd.x >> 2, row.mv_pred_bwd.y >> 2));
                let b = hexagon_search(
                    &self.dsp,
                    block16,
                    &bwd.y,
                    Mv::new(row.mv_pred_bwd.x >> 2, row.mv_pred_bwd.y >> 2),
                    &pb,
                );
                let (mv_f, cost_f) =
                    self.refine_satd(&mut win_f, &fwd.y, block16, f.mv, row.mv_pred);
                let (mv_b, cost_b) =
                    self.refine_satd(&mut win_b, &bwd.y, block16, b.mv, row.mv_pred_bwd);

                // Bi-prediction trial: both winners' luma predictions are
                // candidates of the windows just refined over.
                let bi = bipred_luma(
                    &self.dsp,
                    (&win_f, mv_f - f.mv.scaled(4)),
                    (&win_b, mv_b - b.mv.scaled(4)),
                );
                let src = &cur.y().data()[mby * 16 * self.aw + mbx * 16..];
                let bi_cost = self.dsp.satd(src, self.aw, &bi, 16, 16, 16)
                    + self.lambda * (mv_bits(mv_f, row.mv_pred) + mv_bits(mv_b, row.mv_pred_bwd));

                let (c16, mode16) = self.intra16_cost(cur, recon, mbx, mby);
                let (mode, best_cost) = [cost_f, cost_b, bi_cost]
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(_, c)| c)
                    .map(|(i, c)| (i as u8, c))
                    .unwrap_or((0, u32::MAX));
                // c4 matters only while it is below both of these.
                let c4 = self.intra4_cost_estimate(cur, mbx, mby, best_cost.min(c16));
                drop(me_zone);

                if c4.min(c16) < best_cost {
                    w.put_bit(false);
                    if c4 < c16 {
                        w.put_ue(3);
                        self.code_intra4x4_mb(w, cur, recon, ctx, mbx, mby);
                    } else {
                        w.put_ue(4);
                        self.code_intra16_mb(w, cur, recon, ctx, mbx, mby, mode16);
                    }
                    row.reset_mv();
                    continue;
                }

                let pred = self.build_b_pred(fwd, bwd, mbx, mby, mode, mv_f, mv_b);
                let res = self.transform_inter_mb(cur, mbx, mby, &pred);

                let same_as_last = (mode, mv_f, mv_b) == row.last_b
                    || (mode == 0 && row.last_b.0 == 0 && mv_f == row.last_b.1)
                    || (mode == 1 && row.last_b.0 == 1 && mv_b == row.last_b.2);
                if res.is_empty() && same_as_last {
                    w.put_bit(true);
                    self.recon_inter_mb(recon, mbx, mby, &pred, &res);
                    ctx.clear_mb_modes(mbx, mby);
                    continue;
                }
                {
                    let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
                    w.put_bit(false);
                    w.put_ue(u32::from(mode));
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
                }
                write_inter_residual(w, &res);
                self.recon_inter_mb(recon, mbx, mby, &pred, &res);
                ctx.clear_mb_modes(mbx, mby);
            }
            w.byte_align();
        }
    }

    /// Builds a B prediction (16×16: forward, backward or bi).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_b_pred(
        &self,
        fwd: &RefPicture,
        bwd: &RefPicture,
        mbx: usize,
        mby: usize,
        mode: u8,
        mv_f: Mv,
        mv_b: Mv,
    ) -> MbPred {
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
        match mode {
            0 => self.build_inter_pred(fwd, mbx, mby, Partitioning::P16x16, &[mv_f; 4]),
            1 => self.build_inter_pred(bwd, mbx, mby, Partitioning::P16x16, &[mv_b; 4]),
            _ => {
                let (fy, fcb, fcr) =
                    self.build_inter_pred(fwd, mbx, mby, Partitioning::P16x16, &[mv_f; 4]);
                let (by_, bcb, bcr) =
                    self.build_inter_pred(bwd, mbx, mby, Partitioning::P16x16, &[mv_b; 4]);
                let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                self.dsp.avg_block(&mut py, 16, &fy, 16, &by_, 16, 16, 16);
                self.dsp.avg_block(&mut pcb, 8, &fcb, 8, &bcb, 8, 8, 8);
                self.dsp.avg_block(&mut pcr, 8, &fcr, 8, &bcr, 8, 8, 8);
                (py, pcb, pcr)
            }
        }
    }
}

/// One macroblock's prediction: luma, Cb, Cr.
pub(crate) type MbPred = ([u8; 256], [u8; 64], [u8; 64]);

/// One inter macroblock's quantised residual: per plane, the 4×4 blocks
/// and their coded-block flags.
struct MbResidual {
    luma: ([Block4; 16], u16),
    cb: ([Block4; 4], u8),
    cr: ([Block4; 4], u8),
}

impl MbResidual {
    /// No coded block in any plane.
    fn is_empty(&self) -> bool {
        self.luma.1 == 0 && self.cb.1 == 0 && self.cr.1 == 0
    }
}

/// Writes one inter macroblock's residual.
fn write_inter_residual(w: &mut BitWriter, res: &MbResidual) {
    write_luma_residual(w, &res.luma.0, res.luma.1);
    write_chroma_residual(w, &res.cb.0, res.cb.1);
    write_chroma_residual(w, &res.cr.0, res.cr.1);
}

/// Writes a 4×4 intra mode with most-probable-mode prediction.
pub(crate) fn write_intra4_mode(w: &mut BitWriter, mode: Intra4Mode, mpm: u8) {
    if mode.index() == u32::from(mpm) {
        w.put_bit(true);
    } else {
        w.put_bit(false);
        // Index among the remaining 4 modes (ascending, skipping mpm).
        let mut idx = mode.index();
        if idx > u32::from(mpm) {
            idx -= 1;
        }
        w.put_bits(idx, 2);
    }
}

/// B-picture row state (mirrored by the decoder).
pub(crate) struct BState {
    pub mv_pred: Mv,
    pub mv_pred_bwd: Mv,
    pub last_b: (u8, Mv, Mv),
}

impl BState {
    pub(crate) fn new() -> Self {
        BState {
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
        let mut enc = H264Encoder::new(EncoderConfig::new(64, 48)).unwrap();
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
    fn higher_qp_fewer_bits() {
        let frame = textured_frame(64, 48, 0.0);
        let bits = |qp: u8| {
            let mut enc = H264Encoder::new(EncoderConfig::new(64, 48).with_qp(qp)).unwrap();
            enc.encode(&frame).unwrap()[0].bits()
        };
        assert!(bits(40) < bits(15));
    }

    #[test]
    fn scalar_and_simd_streams_identical() {
        let mut a =
            H264Encoder::new(EncoderConfig::new(64, 48).with_simd(SimdLevel::Scalar)).unwrap();
        let mut b =
            H264Encoder::new(EncoderConfig::new(64, 48).with_simd(SimdLevel::Sse2)).unwrap();
        for i in 0..5 {
            let f = textured_frame(64, 48, i as f64 * 1.1);
            assert_eq!(a.encode(&f).unwrap(), b.encode(&f).unwrap(), "frame {i}");
        }
        assert_eq!(a.flush().unwrap(), b.flush().unwrap());
    }

    #[test]
    fn intra4_mode_coding_layout() {
        let mut w = BitWriter::new();
        write_intra4_mode(&mut w, Intra4Mode::Dc, 2); // mpm hit: 1 bit
        assert_eq!(w.bit_len(), 1);
        let mut w = BitWriter::new();
        write_intra4_mode(&mut w, Intra4Mode::Vertical, 2); // miss: 3 bits
        assert_eq!(w.bit_len(), 3);
    }
}
