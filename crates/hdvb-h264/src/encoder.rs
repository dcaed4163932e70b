use crate::blocks4::write_coeffs4;
use crate::deblock::deblock_frame;
use crate::intra::{predict16, predict4, predict_chroma8, ChromaMode, Intra16Mode, Intra4Mode};
use crate::mc::{predict_partition, Partitioning, RefPicture};
use crate::memo::{Search16, SearchMemo};
use crate::quant4::{dequant4, Quant4};
use crate::resid::{
    recon_chroma_plane, recon_luma_mb, transform_chroma_plane, transform_luma_mb,
    write_chroma_residual, write_luma_residual,
};
use crate::tables::lambda;
use hdvb_bits::picture::{
    check_picture_dims, write_picture_prefix, CodecError, Packet, PacketKind, PicturePrefix,
};
use hdvb_bits::BitWriter;
use hdvb_dsp::{Block4, Dsp, SimdLevel, SubpelWindow};
use hdvb_frame::{align_up, BufferPool, Frame, PaddedPlane};
use hdvb_me::{
    bipred_luma, hexagon_search, mv_bits, refine_qpel, BlockRef, Mv, MvField, SearchParams,
    SubpelTarget,
};
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
    /// Edge-replicated copy of unaligned input, created by the first
    /// such frame (aligned inputs never need it).
    aligned: Option<Frame>,
    /// Per-picture coding context, reset before each picture.
    ctx: PicCtx,
    /// The last P picture's 16×16 reference searches.
    memo: SearchMemo,
}

/// The H.264-class picture encoder (see the crate docs for the
/// toolset): codes one picture of a stated type per call and keeps the
/// reference list. The stream around it is `hdvb-core`'s.
pub struct H264Encoder {
    width: usize,
    height: usize,
    qp: u8,
    num_refs: u8,
    search_range: u16,
    dsp: Dsp,
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
    /// Forward residual paths at the configured QP, intra and inter
    /// (each with its all-zero-block bound).
    tq_intra: Quant4,
    tq_inter: Quant4,
    /// Reusable per-picture working storage.
    scratch: Option<EncScratch>,
}

impl H264Encoder {
    /// Creates an encoder for `width`×`height` pictures at constant
    /// quantisation parameter `qp` (0..=51; the paper's 26 via Eq. 1),
    /// searching `num_refs` reference pictures (1..=4; the paper's
    /// `--ref 16` is capped, see DESIGN.md) `search_range` full pels
    /// around each predictor (paper: `--merange 24`). The in-loop
    /// deblocking filter always runs; the picture header still carries
    /// its on/off bit, which the decoder obeys.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadConfig`] for invalid parameters.
    pub fn new(
        width: usize,
        height: usize,
        qp: u8,
        num_refs: u8,
        search_range: u16,
        simd: SimdLevel,
    ) -> Result<Self, CodecError> {
        check_picture_dims(width, height).map_err(CodecError::BadConfig)?;
        if qp > 51 {
            return Err(CodecError::BadConfig("qp must be in 0..=51"));
        }
        if num_refs == 0 || num_refs > 4 {
            return Err(CodecError::BadConfig("num_refs must be in 1..=4"));
        }
        let aw = align_up(width, 16);
        let ah = align_up(height, 16);
        Ok(H264Encoder {
            width,
            height,
            qp,
            num_refs,
            search_range,
            dsp: Dsp::new(simd),
            aw,
            ah,
            mbs_x: aw / 16,
            mbs_y: ah / 16,
            refs: VecDeque::new(),
            retired: Vec::new(),
            lambda: lambda(qp),
            tq_intra: Quant4::new(qp, true),
            tq_inter: Quant4::new(qp, false),
            scratch: Some(EncScratch {
                recon: Frame::new(aw, ah),
                aligned: None,
                ctx: PicCtx::new(aw / 16, ah / 16),
                memo: SearchMemo::new(aw, ah),
            }),
        })
    }

    /// Codes `frame` (`width`×`height`) as one picture of type `kind`
    /// and returns its packet. I and P pictures enter the reference
    /// list; a B picture needs two references coded before it. Packet
    /// payloads come from the global [`BufferPool`] and all working
    /// state is reused, so a steady-state picture allocates nothing.
    pub fn encode_picture(
        &mut self,
        frame: &Frame,
        kind: PacketKind,
        display_index: u32,
    ) -> Packet {
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
            memo,
        } = scratch;
        let cur: &Frame = if frame.width() == self.aw && frame.height() == self.ah {
            frame
        } else {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
            let aligned = aligned.get_or_insert_with(|| Frame::new(self.aw, self.ah));
            aligned.replicate_from(frame);
            aligned
        };
        let mut w = {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
            let mut w = BitWriter::from_vec(BufferPool::global().take(self.aw * self.ah / 6));
            let prefix = PicturePrefix {
                kind,
                display_index,
                width: self.width,
                height: self.height,
            };
            write_picture_prefix(&mut w, MAGIC, &prefix);
            w.put_ue(u32::from(self.qp));
            w.put_ue(u32::from(self.num_refs));
            w.put_bit(true); // deblocking filter on
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
            PacketKind::I => {
                memo.clear();
                self.encode_i(&mut w, cur, recon, ctx);
            }
            PacketKind::P => self.encode_p(&mut w, cur, recon, ctx, memo),
            PacketKind::B => self.encode_b(&mut w, cur, recon, ctx),
        }
        deblock_frame(&self.dsp, recon, self.qp);
        if kind != PacketKind::B {
            let keep = usize::from(self.num_refs).max(2);
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
                self.tq_intra.forward(&self.dsp, &mut block)
            };
            w.put_bit(nz > 0);
            if nz > 0 {
                write_coeffs4(w, &block);
                let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
                dequant4(&mut block, self.qp);
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
            transform_luma_mb(&self.dsp, &self.tq_intra, cur.y(), mbx, mby, &pred);
        write_luma_residual(w, &blocks, flags);
        recon_luma_mb(
            &self.dsp,
            self.qp,
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
        let (dsp, tq) = (&self.dsp, &self.tq_intra);
        let (bb, fb) = transform_chroma_plane(dsp, tq, cur.cb(), mbx, mby, &pb);
        let (br, fr) = transform_chroma_plane(dsp, tq, cur.cr(), mbx, mby, &pr);
        write_chroma_residual(w, &bb, fb);
        write_chroma_residual(w, &br, fr);
        recon_chroma_plane(&self.dsp, self.qp, recon.cb_mut(), mbx, mby, &pb, &bb, fb);
        recon_chroma_plane(&self.dsp, self.qp, recon.cr_mut(), mbx, mby, &pr, &br, fr);
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
        refine_qpel(win, &target, fullpel)
    }

    /// The 16×16 search of one reference picture: hexagon search from the
    /// median predictor, then SATD quarter-pel refinement.
    fn search16(
        &self,
        win: &mut SubpelWindow,
        r: &RefPicture,
        block: BlockRef<'_>,
        median: Mv,
    ) -> Search16 {
        let start = Mv::new(median.x >> 2, median.y >> 2);
        let params = SearchParams::new(self.search_range, self.lambda).with_pred(start);
        let fp = hexagon_search(&self.dsp, block, &r.y, start, &params);
        let (mv, cost) = self.refine_satd(win, &r.y, block, fp.mv, median);
        Search16 {
            mv,
            cost,
            reach: fp.reach,
        }
    }

    fn encode_p(
        &self,
        w: &mut BitWriter,
        cur: &Frame,
        recon: &mut Frame,
        ctx: &mut PicCtx,
        memo: &mut SearchMemo,
    ) {
        let nrefs = usize::from(self.num_refs).min(self.refs.len()).max(1);
        let mut win = SubpelWindow::new();
        let (mut searched, mut reused) = (0, 0);
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
                let prior = memo.recall(cur.y(), mbx, mby, median);
                let mut best16: Option<(usize, Mv, u32)> = None;
                for (ri, r) in self.refs.iter().take(nrefs).enumerate() {
                    // Reference ri ≥ 1 is the picture the last P picture
                    // searched as ri − 1. That picture's reference 0 is now
                    // refs[1], which stands in for refs[0] wherever the two
                    // agree on every sample the search read.
                    let known = match ri {
                        0 => prior[0].filter(|s| {
                            let old = self.refs.get(1);
                            old.is_some_and(|o| s.read_same(&r.y, &o.y, block16.x, block16.y))
                        }),
                        _ => prior[ri - 1],
                    };
                    let found = match known {
                        Some(s) => {
                            reused += 1;
                            debug_assert_eq!(
                                s,
                                self.search16(&mut win, r, block16, median),
                                "reused search, macroblock ({mbx},{mby}), reference {ri}"
                            );
                            s
                        }
                        None => {
                            searched += 1;
                            self.search16(&mut win, r, block16, median)
                        }
                    };
                    memo.store(mbx, mby, ri, found);
                    let ref_bits = 2 * (32 - (ri as u32 + 1).leading_zeros()) - 1;
                    let total = found.cost + self.lambda * ref_bits;
                    if best16.is_none_or(|(_, _, c)| total < c) {
                        best16 = Some((ri, found.mv, total));
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
                        let params = SearchParams::new(self.search_range, self.lambda)
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
                    if self.num_refs > 1 {
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
        memo.finish_picture(nrefs);
        hdvb_trace::counter_add(hdvb_trace::Counter::Me16Searched, searched);
        hdvb_trace::counter_add(hdvb_trace::Counter::Me16Reused, reused);
    }

    /// Transforms and quantises the residual of one inter macroblock
    /// against `pred`.
    fn transform_inter_mb(&self, cur: &Frame, mbx: usize, mby: usize, pred: &MbPred) -> MbResidual {
        let (dsp, tq) = (&self.dsp, &self.tq_inter);
        MbResidual {
            luma: transform_luma_mb(dsp, tq, cur.y(), mbx, mby, &pred.0),
            cb: transform_chroma_plane(dsp, tq, cur.cb(), mbx, mby, &pred.1),
            cr: transform_chroma_plane(dsp, tq, cur.cr(), mbx, mby, &pred.2),
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
        let (dsp, qp) = (&self.dsp, self.qp);
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
                let pf = SearchParams::new(self.search_range, self.lambda)
                    .with_pred(Mv::new(row.mv_pred.x >> 2, row.mv_pred.y >> 2));
                let f = hexagon_search(
                    &self.dsp,
                    block16,
                    &fwd.y,
                    Mv::new(row.mv_pred.x >> 2, row.mv_pred.y >> 2),
                    &pf,
                );
                let pb = SearchParams::new(self.search_range, self.lambda)
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

    fn encoder(w: usize, h: usize, qp: u8, simd: SimdLevel) -> H264Encoder {
        H264Encoder::new(w, h, qp, 3, 24, simd).unwrap()
    }

    #[test]
    fn parameters_are_validated() {
        let new = |w, h, qp, refs| H264Encoder::new(w, h, qp, refs, 24, SimdLevel::Scalar);
        assert!(new(64, 48, 26, 3).is_ok());
        assert!(new(64, 48, 52, 3).is_err());
        assert!(new(64, 48, 26, 0).is_err());
        assert!(new(64, 48, 26, 5).is_err());
        assert!(new(14, 48, 26, 3).is_err());
    }

    #[test]
    fn higher_qp_fewer_bits() {
        let frame = textured_frame(64, 48, 0.0);
        let bits = |qp: u8| {
            let mut enc = encoder(64, 48, qp, SimdLevel::detect());
            enc.encode_picture(&frame, PacketKind::I, 0).bits()
        };
        assert!(bits(40) < bits(15));
    }

    #[test]
    fn scalar_and_simd_streams_identical() {
        let mut a = encoder(64, 48, 26, SimdLevel::Scalar);
        let mut b = encoder(64, 48, 26, SimdLevel::Sse2);
        let order = [
            (PacketKind::I, 0),
            (PacketKind::P, 3),
            (PacketKind::B, 1),
            (PacketKind::B, 2),
            (PacketKind::P, 4),
        ];
        for (kind, i) in order {
            let f = textured_frame(64, 48, f64::from(i) * 1.1);
            let pa = a.encode_picture(&f, kind, i);
            assert_eq!(pa, b.encode_picture(&f, kind, i), "picture {i}");
        }
    }

    /// The premise of reusing a search on a new reference picture: two
    /// references that agree over a search's read box give it the same
    /// result, whatever they hold outside the box — and the box is no
    /// larger than that.
    #[test]
    fn a_search_depends_only_on_its_read_box() {
        let (w, h) = (96, 80);
        let enc = H264Encoder::new(w, h, 26, 3, 8, SimdLevel::detect()).unwrap();
        let cur = textured_frame(w, h, 0.0);
        let base = textured_frame(w, h, 2.5);
        let a = RefPicture::from_frame(&base);
        let mut win = SubpelWindow::new();
        let mut state = 7u32;
        let reach = SubpelWindow::SIXTAP_REACH as isize;
        let (mut checked, mut interior) = (0, 0);
        for (mbx, mby) in (1..5).flat_map(|x| (1..4).map(move |y| (x, y))) {
            for median in [Mv::ZERO, Mv::new(5, -3), Mv::new(-9, 6), Mv::new(14, 2)] {
                let (x, y) = (mbx * 16, mby * 16);
                let block = BlockRef {
                    plane: cur.y(),
                    x,
                    y,
                    w: 16,
                    h: 16,
                };
                let s = enc.search16(&mut win, &a, block, median);
                // The block swept over the scored vectors, grown by
                // `margin`; noise everywhere else.
                let (lo, hi) = s.reach;
                let swept = |margin: isize| {
                    let x0 = x as isize + isize::from(lo.x) - margin;
                    let y0 = y as isize + isize::from(lo.y) - margin;
                    let x1 = x as isize + isize::from(hi.x) + 15 + margin;
                    let y1 = y as isize + isize::from(hi.y) + 15 + margin;
                    (x0..=x1, y0..=y1)
                };
                let (bx, by) = swept(reach);
                let inside = bx.start() >= &0 && by.start() >= &0;
                let inside = inside && bx.end() < &(w as isize) && by.end() < &(h as isize);
                for margin in 0..=reach + 1 {
                    let (xs, ys) = swept(margin);
                    let mut other = base.clone();
                    for py in 0..h {
                        for px in 0..w {
                            if !(xs.contains(&(px as isize)) && ys.contains(&(py as isize))) {
                                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                                other.y_mut().set(px, py, (state >> 24) as u8);
                            }
                        }
                    }
                    let b = RefPicture::from_frame(&other);
                    let same = s.read_same(&a.y, &b.y, x, y);
                    if same {
                        let again = enc.search16(&mut win, &b, block, median);
                        let what = format!("macroblock ({mbx},{mby}), median {median}");
                        assert_eq!(s, again, "{what}, margin {margin}");
                        checked += 1;
                    }
                    // Padding replicates the picture's edge, so only a box
                    // inside the picture sees exactly the noise put there.
                    if inside {
                        assert_eq!(same, margin >= reach, "margin {margin}");
                        interior += 1;
                    }
                }
            }
        }
        assert!(
            checked >= 48 && interior >= 48,
            "{checked} checked, {interior} interior"
        );
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
