use crate::blocks4::read_coeffs4;
use crate::deblock::deblock_frame;
use crate::encoder::{BState, PicCtx, MAGIC};
use crate::intra::{predict16, predict4, predict_chroma8, ChromaMode, Intra16Mode, Intra4Mode};
use crate::mc::{add4, copy4, Partitioning, RefPicture};
use crate::quant4::dequant4;
use crate::resid::{read_chroma_residual, read_luma_residual, recon_chroma_plane, recon_luma_mb};
use hdvb_bits::picture::{read_picture_prefix, CodecError, PacketKind};
use hdvb_bits::{BitReader, CorruptKind};
use hdvb_dsp::{Dsp, SimdLevel};
use hdvb_frame::{align_up, Frame, FramePool};
use hdvb_me::Mv;
use hdvb_par::CancelToken;
use std::collections::VecDeque;

/// Per-packet working storage, reused while the coded geometry stays
/// the same so steady-state decoding performs no heap allocation.
struct DecScratch {
    recon: Frame,
    ctx: PicCtx,
}

/// The H.264-class decoder (mirror of [`H264Encoder`](crate::H264Encoder)).
pub struct H264Decoder {
    dsp: Dsp,
    refs: VecDeque<RefPicture>,
    /// Retired references kept for recycling (padded-plane storage is
    /// refilled in place instead of reallocated).
    retired: Vec<RefPicture>,
    /// Spare list backing the borrow-decoupling move in P/B decoding,
    /// kept as a field so the move is allocation-free.
    refs_buf: Vec<RefPicture>,
    pending: Option<Frame>,
    /// Reusable per-packet working storage.
    scratch: Option<DecScratch>,
    /// Cooperative cancellation, checkpointed at each packet boundary.
    cancel: CancelToken,
}

impl Default for H264Decoder {
    fn default() -> Self {
        Self::new()
    }
}

impl H264Decoder {
    /// Creates a decoder at the CPU's best SIMD level.
    pub fn new() -> Self {
        Self::with_simd(SimdLevel::detect())
    }

    /// Creates a decoder at an explicit SIMD level (the Figure-1 axis).
    pub fn with_simd(simd: SimdLevel) -> Self {
        H264Decoder {
            dsp: Dsp::new(simd),
            refs: VecDeque::new(),
            retired: Vec::new(),
            refs_buf: Vec::new(),
            pending: None,
            scratch: None,
            cancel: CancelToken::never(),
        }
    }

    /// Installs a cancellation token checked at each packet boundary,
    /// so a deadline or shutdown stops the decoder before the next
    /// packet with [`CodecError::Cancelled`].
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Decodes one packet; returns display-order frames.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on malformed input, carrying the bit
    /// offset the parse stopped at and a [`CorruptKind`] classification.
    /// A failed packet leaves the decoder's reference state untouched.
    pub fn decode(&mut self, data: &[u8]) -> Result<Vec<Frame>, CodecError> {
        let mut out = Vec::new();
        self.decode_into(data, &mut out)?;
        Ok(out)
    }

    /// Allocation-free form of [`decode`](Self::decode): appends
    /// display-order frames to `out`. Output frames come from the
    /// global [`FramePool`]; return them with `FramePool::global().put`
    /// to make steady-state decoding allocation-free.
    ///
    /// # Errors
    ///
    /// Same contract as [`decode`](Self::decode); on error nothing is
    /// appended to `out`.
    pub fn decode_into(&mut self, data: &[u8], out: &mut Vec<Frame>) -> Result<(), CodecError> {
        if self.cancel.is_cancelled() {
            return Err(CodecError::Cancelled);
        }
        let mut r = BitReader::new(data);
        let result = self.decode_inner(&mut r, out);
        let pos = r.bit_pos();
        result.map_err(|e| e.at_bit(pos))
    }

    fn decode_inner(
        &mut self,
        r: &mut BitReader<'_>,
        out: &mut Vec<Frame>,
    ) -> Result<(), CodecError> {
        let prefix = read_picture_prefix(r, MAGIC)?;
        let qp = r.get_ue()?;
        let num_refs = r.get_ue()?;
        let deblock = r.get_bit()?;
        prefix.check_dims()?;
        let (kind, width, height) = (prefix.kind, prefix.width, prefix.height);
        if qp > 51 {
            return Err(CodecError::corrupt(
                CorruptKind::BadHeaderField,
                "qp out of range",
            ));
        }
        if !(1..=4).contains(&num_refs) {
            return Err(CodecError::corrupt(
                CorruptKind::BadHeaderField,
                "num_refs out of range",
            ));
        }
        let qp = qp as u8;
        let aw = align_up(width, 16);
        let ah = align_up(height, 16);
        let (mbs_x, mbs_y) = (aw / 16, ah / 16);

        let mut scratch = match self.scratch.take() {
            Some(s) if s.recon.width() == aw && s.recon.height() == ah => s,
            other => {
                let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
                if let Some(s) = other {
                    FramePool::global().put(s.recon);
                }
                DecScratch {
                    recon: FramePool::global().take(aw, ah),
                    ctx: PicCtx::new(mbs_x, mbs_y),
                }
            }
        };
        let result = self.decode_picture(
            r,
            kind,
            qp,
            num_refs,
            deblock,
            width,
            height,
            &mut scratch,
            out,
        );
        self.scratch = Some(scratch);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_picture(
        &mut self,
        r: &mut BitReader<'_>,
        kind: PacketKind,
        qp: u8,
        num_refs: u32,
        deblock: bool,
        width: usize,
        height: usize,
        scratch: &mut DecScratch,
        out: &mut Vec<Frame>,
    ) -> Result<(), CodecError> {
        let DecScratch { recon, ctx } = scratch;
        let aw = recon.width();
        let ah = recon.height();
        let (mbs_x, mbs_y) = (aw / 16, ah / 16);
        // The reconstruction MUST start each picture at the mid-grey
        // (128) state a fresh `Frame::new` has: intra prediction reads
        // top-right neighbour positions that raster order has not
        // reconstructed yet, and the encoder's closed loop pins those
        // samples to its own freshly initialised reconstruction. A
        // dirty pooled frame here would silently desynchronise decode
        // from the encoder.
        recon.y_mut().fill(128);
        recon.cb_mut().fill(128);
        recon.cr_mut().fill(128);
        ctx.reset();
        if kind == PacketKind::I {
            // A geometry change can only enter a stream at an intra
            // picture (an ABR splice / rung switch). References at the
            // old geometry can never be legally used again — retire
            // them now instead of failing the next inter picture's
            // reference-geometry check.
            while let Some(pos) = self.refs.iter().position(|rp| !rp.matches(aw, ah)) {
                if let Some(old) = self.refs.remove(pos) {
                    self.retired.push(old);
                }
            }
        }
        match kind {
            PacketKind::I => self.decode_i(r, recon, ctx, qp, mbs_x, mbs_y)?,
            PacketKind::P => self.decode_p(r, recon, ctx, qp, num_refs, mbs_x, mbs_y)?,
            PacketKind::B => self.decode_b(r, recon, ctx, qp, mbs_x, mbs_y)?,
        }
        if deblock {
            deblock_frame(&self.dsp, recon, qp);
        }

        let display = {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
            let mut d = FramePool::global().take(width, height);
            d.crop_from(recon);
            d
        };
        if kind == PacketKind::B {
            out.push(display);
        } else {
            if let Some(prev) = self.pending.take() {
                out.push(prev);
            }
            self.pending = Some(display);
            let keep = (num_refs as usize).max(2);
            while self.refs.len() + 1 > keep {
                match self.refs.pop_back() {
                    Some(old) => self.retired.push(old),
                    None => break,
                }
            }
            let new_ref = match self.retired.pop() {
                Some(mut rp) if rp.matches(aw, ah) => {
                    rp.refill_from(recon);
                    rp
                }
                _ => RefPicture::from_frame(recon),
            };
            self.refs.push_front(new_ref);
        }
        Ok(())
    }

    /// Returns the final buffered anchor at end of stream.
    pub fn flush(&mut self) -> Vec<Frame> {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        out
    }

    /// Allocation-free form of [`flush`](Self::flush).
    pub fn flush_into(&mut self, out: &mut Vec<Frame>) {
        if let Some(prev) = self.pending.take() {
            out.push(prev);
        }
    }

    fn decode_i(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        ctx: &mut PicCtx,
        qp: u8,
        mbs_x: usize,
        mbs_y: usize,
    ) -> Result<(), CodecError> {
        for mby in 0..mbs_y {
            for mbx in 0..mbs_x {
                match r.get_ue()? {
                    0 => self.decode_intra4x4_mb(r, recon, ctx, qp, mbx, mby)?,
                    1 => self.decode_intra16_mb(r, recon, ctx, qp, mbx, mby)?,
                    t => {
                        return Err(CodecError::corrupt(
                            CorruptKind::BadMacroblockType,
                            format!("bad I macroblock type {t}"),
                        ))
                    }
                }
            }
            r.byte_align();
        }
        Ok(())
    }

    fn decode_intra4x4_mb(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        ctx: &mut PicCtx,
        qp: u8,
        mbx: usize,
        mby: usize,
    ) -> Result<(), CodecError> {
        for k in 0..16 {
            let gx = mbx * 4 + k % 4;
            let gy = mby * 4 + k / 4;
            let bx = mbx * 16 + (k % 4) * 4;
            let by = mby * 16 + (k / 4) * 4;
            let mpm = ctx.most_probable(gx, gy);
            let mode = read_intra4_mode(r, mpm)?;
            ctx.set_mode(gx, gy, mode.index() as u8);
            let mut pred = [0u8; 16];
            {
                let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
                predict4(recon.y(), bx, by, mode, &mut pred);
            }
            let stride = recon.y().stride();
            let off = by * stride + bx;
            if r.get_bit()? {
                let mut block = [0i16; 16];
                read_coeffs4(r, &mut block)?;
                let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
                dequant4(&mut block, qp);
                self.dsp.icore4(&mut block);
                add4(
                    &mut recon.y_mut().data_mut()[off..],
                    stride,
                    &pred,
                    4,
                    &block,
                );
            } else {
                let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
                copy4(&mut recon.y_mut().data_mut()[off..], stride, &pred, 4);
            }
        }
        self.decode_intra_chroma(r, recon, qp, mbx, mby)
    }

    fn decode_intra16_mb(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        ctx: &mut PicCtx,
        qp: u8,
        mbx: usize,
        mby: usize,
    ) -> Result<(), CodecError> {
        let mode = Intra16Mode::from_index(r.get_ue()?).ok_or_else(|| {
            CodecError::corrupt(CorruptKind::BadMacroblockType, "bad intra16 mode")
        })?;
        ctx.clear_mb_modes(mbx, mby);
        let mut pred = [0u8; 256];
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
            predict16(recon.y(), mbx * 16, mby * 16, mode, &mut pred);
        }
        let (blocks, flags) = read_luma_residual(r)?;
        recon_luma_mb(
            &self.dsp,
            qp,
            recon.y_mut(),
            mbx,
            mby,
            &pred,
            &blocks,
            flags,
        );
        self.decode_intra_chroma(r, recon, qp, mbx, mby)
    }

    fn decode_intra_chroma(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        qp: u8,
        mbx: usize,
        mby: usize,
    ) -> Result<(), CodecError> {
        let mode = ChromaMode::from_index(r.get_ue()?).ok_or_else(|| {
            CodecError::corrupt(CorruptKind::BadMacroblockType, "bad chroma mode")
        })?;
        let mut pb = [0u8; 64];
        let mut pr = [0u8; 64];
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
            predict_chroma8(recon.cb(), mbx * 8, mby * 8, mode, &mut pb);
            predict_chroma8(recon.cr(), mbx * 8, mby * 8, mode, &mut pr);
        }
        let (bb, fb) = read_chroma_residual(r)?;
        let (br, fr) = read_chroma_residual(r)?;
        recon_chroma_plane(&self.dsp, qp, recon.cb_mut(), mbx, mby, &pb, &bb, fb);
        recon_chroma_plane(&self.dsp, qp, recon.cr_mut(), mbx, mby, &pr, &br, fr);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_p(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        ctx: &mut PicCtx,
        qp: u8,
        num_refs: u32,
        mbs_x: usize,
        mbs_y: usize,
    ) -> Result<(), CodecError> {
        if self.refs.is_empty() {
            return Err(CodecError::corrupt(
                CorruptKind::MissingReference,
                "P picture without reference",
            ));
        }
        // Move references out to decouple borrows (via the spare list,
        // so the move performs no allocation at steady state).
        let mut refs = std::mem::take(&mut self.refs_buf);
        refs.extend(self.refs.drain(..));
        let result = (|| -> Result<(), CodecError> {
            check_ref_geometry(&refs, mbs_x, mbs_y)?;
            for mby in 0..mbs_y {
                for mbx in 0..mbs_x {
                    let median = ctx.qfield.median_pred(mbx, mby);
                    if r.get_bit()? {
                        // Skip: 16x16, ref 0, median vector, no residual.
                        check_window(&refs[0], mbx, mby, Partitioning::P16x16, &[median; 4])?;
                        let (py, pcb, pcr) = build_inter_pred_dec(
                            &self.dsp,
                            &refs[0],
                            mbx,
                            mby,
                            Partitioning::P16x16,
                            &[median; 4],
                        );
                        recon_luma_mb(
                            &self.dsp,
                            qp,
                            recon.y_mut(),
                            mbx,
                            mby,
                            &py,
                            &[[0i16; 16]; 16],
                            0,
                        );
                        recon_chroma_plane(
                            &self.dsp,
                            qp,
                            recon.cb_mut(),
                            mbx,
                            mby,
                            &pcb,
                            &[[0i16; 16]; 4],
                            0,
                        );
                        recon_chroma_plane(
                            &self.dsp,
                            qp,
                            recon.cr_mut(),
                            mbx,
                            mby,
                            &pcr,
                            &[[0i16; 16]; 4],
                            0,
                        );
                        ctx.qfield.set(mbx, mby, median);
                        ctx.clear_mb_modes(mbx, mby);
                        continue;
                    }
                    let mb_type = r.get_ue()?;
                    match mb_type {
                        4 => {
                            self.decode_intra4x4_mb(r, recon, ctx, qp, mbx, mby)?;
                            ctx.qfield.set(mbx, mby, Mv::ZERO);
                        }
                        5 => {
                            self.decode_intra16_mb(r, recon, ctx, qp, mbx, mby)?;
                            ctx.qfield.set(mbx, mby, Mv::ZERO);
                        }
                        t @ 0..=3 => {
                            let part = Partitioning::from_index(t)
                                .expect("index 0..=3 is a valid partitioning");
                            let ref_idx = if num_refs > 1 {
                                r.get_ue()? as usize
                            } else {
                                0
                            };
                            let rp = refs.get(ref_idx).ok_or_else(|| {
                                CodecError::corrupt(
                                    CorruptKind::MissingReference,
                                    format!("reference index {ref_idx} out of range"),
                                )
                            })?;
                            let mut mvs = [Mv::ZERO; 4];
                            let mut pred_mv = median;
                            #[allow(clippy::needless_range_loop)]
                            for pi in 0..part.rects().len() {
                                let mv = Mv::new(
                                    read_mv_component(r, pred_mv.x)?,
                                    read_mv_component(r, pred_mv.y)?,
                                );
                                mvs[pi] = mv;
                                pred_mv = mv;
                            }
                            check_window(rp, mbx, mby, part, &mvs)?;
                            let (py, pcb, pcr) =
                                build_inter_pred_dec(&self.dsp, rp, mbx, mby, part, &mvs);
                            let (lb, lf) = read_luma_residual(r)?;
                            let (cbb, cbf) = read_chroma_residual(r)?;
                            let (crb, crf) = read_chroma_residual(r)?;
                            recon_luma_mb(&self.dsp, qp, recon.y_mut(), mbx, mby, &py, &lb, lf);
                            recon_chroma_plane(
                                &self.dsp,
                                qp,
                                recon.cb_mut(),
                                mbx,
                                mby,
                                &pcb,
                                &cbb,
                                cbf,
                            );
                            recon_chroma_plane(
                                &self.dsp,
                                qp,
                                recon.cr_mut(),
                                mbx,
                                mby,
                                &pcr,
                                &crb,
                                crf,
                            );
                            ctx.qfield.set(mbx, mby, mvs[0]);
                            ctx.clear_mb_modes(mbx, mby);
                        }
                        t => {
                            return Err(CodecError::corrupt(
                                CorruptKind::BadMacroblockType,
                                format!("bad P macroblock type {t}"),
                            ))
                        }
                    }
                }
                r.byte_align();
            }
            Ok(())
        })();
        self.refs.extend(refs.drain(..));
        self.refs_buf = refs;
        result
    }

    fn decode_b(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        ctx: &mut PicCtx,
        qp: u8,
        mbs_x: usize,
        mbs_y: usize,
    ) -> Result<(), CodecError> {
        if self.refs.len() < 2 {
            return Err(CodecError::corrupt(
                CorruptKind::MissingReference,
                "B picture without two anchors",
            ));
        }
        let mut refs = std::mem::take(&mut self.refs_buf);
        refs.extend(self.refs.drain(..));
        let result = (|| -> Result<(), CodecError> {
            check_ref_geometry(&refs, mbs_x, mbs_y)?;
            let bwd = &refs[0];
            let fwd = &refs[1];
            for mby in 0..mbs_y {
                let mut row = BState::new();
                for mbx in 0..mbs_x {
                    if r.get_bit()? {
                        let (mode, mv_f, mv_b) = row.last_b;
                        check_b_window(fwd, bwd, mbx, mby, mode, mv_f, mv_b)?;
                        let (py, pcb, pcr) =
                            build_b_pred_dec(&self.dsp, fwd, bwd, mbx, mby, mode, mv_f, mv_b);
                        recon_luma_mb(
                            &self.dsp,
                            qp,
                            recon.y_mut(),
                            mbx,
                            mby,
                            &py,
                            &[[0i16; 16]; 16],
                            0,
                        );
                        recon_chroma_plane(
                            &self.dsp,
                            qp,
                            recon.cb_mut(),
                            mbx,
                            mby,
                            &pcb,
                            &[[0i16; 16]; 4],
                            0,
                        );
                        recon_chroma_plane(
                            &self.dsp,
                            qp,
                            recon.cr_mut(),
                            mbx,
                            mby,
                            &pcr,
                            &[[0i16; 16]; 4],
                            0,
                        );
                        ctx.clear_mb_modes(mbx, mby);
                        continue;
                    }
                    let mode = r.get_ue()?;
                    match mode {
                        3 => {
                            self.decode_intra4x4_mb(r, recon, ctx, qp, mbx, mby)?;
                            row.reset_mv();
                        }
                        4 => {
                            self.decode_intra16_mb(r, recon, ctx, qp, mbx, mby)?;
                            row.reset_mv();
                        }
                        m @ 0..=2 => {
                            let m = m as u8;
                            let mut mv_f = row.last_b.1;
                            let mut mv_b = row.last_b.2;
                            if m == 0 || m == 2 {
                                mv_f = Mv::new(
                                    read_mv_component(r, row.mv_pred.x)?,
                                    read_mv_component(r, row.mv_pred.y)?,
                                );
                                row.mv_pred = mv_f;
                            }
                            if m == 1 || m == 2 {
                                mv_b = Mv::new(
                                    read_mv_component(r, row.mv_pred_bwd.x)?,
                                    read_mv_component(r, row.mv_pred_bwd.y)?,
                                );
                                row.mv_pred_bwd = mv_b;
                            }
                            row.last_b = (m, mv_f, mv_b);
                            check_b_window(fwd, bwd, mbx, mby, m, mv_f, mv_b)?;
                            let (py, pcb, pcr) =
                                build_b_pred_dec(&self.dsp, fwd, bwd, mbx, mby, m, mv_f, mv_b);
                            let (lb, lf) = read_luma_residual(r)?;
                            let (cbb, cbf) = read_chroma_residual(r)?;
                            let (crb, crf) = read_chroma_residual(r)?;
                            recon_luma_mb(&self.dsp, qp, recon.y_mut(), mbx, mby, &py, &lb, lf);
                            recon_chroma_plane(
                                &self.dsp,
                                qp,
                                recon.cb_mut(),
                                mbx,
                                mby,
                                &pcb,
                                &cbb,
                                cbf,
                            );
                            recon_chroma_plane(
                                &self.dsp,
                                qp,
                                recon.cr_mut(),
                                mbx,
                                mby,
                                &pcr,
                                &crb,
                                crf,
                            );
                            ctx.clear_mb_modes(mbx, mby);
                        }
                        t => {
                            return Err(CodecError::corrupt(
                                CorruptKind::BadMacroblockType,
                                format!("bad B macroblock mode {t}"),
                            ))
                        }
                    }
                }
                r.byte_align();
            }
            Ok(())
        })();
        self.refs.extend(refs.drain(..));
        self.refs_buf = refs;
        result
    }
}

fn read_mv_component(r: &mut BitReader<'_>, pred: i16) -> Result<i16, CodecError> {
    let v = i32::from(pred) + r.get_se()?;
    if (-8192..=8191).contains(&v) {
        Ok(v as i16)
    } else {
        Err(CodecError::corrupt(
            CorruptKind::BadMotionVector,
            format!("motion vector component {v} out of range"),
        ))
    }
}

fn bad_mv(mbx: usize, mby: usize, mv: Mv) -> CodecError {
    CodecError::corrupt(
        CorruptKind::BadMotionVector,
        format!(
            "mv ({},{}) at mb ({mbx},{mby}) reads outside the padded reference",
            mv.x, mv.y
        ),
    )
}

/// Rejects inter pictures whose coded geometry disagrees with any
/// retained reference (a corrupt packet can otherwise drive motion
/// compensation beyond a smaller reference's planes).
fn check_ref_geometry(refs: &[RefPicture], mbs_x: usize, mbs_y: usize) -> Result<(), CodecError> {
    for rp in refs {
        if rp.y.width() != mbs_x * 16 || rp.y.height() != mbs_y * 16 {
            return Err(CodecError::corrupt(
                CorruptKind::MissingReference,
                format!(
                    "picture geometry {}x{} does not match reference {}x{}",
                    mbs_x * 16,
                    mbs_y * 16,
                    rp.y.width(),
                    rp.y.height()
                ),
            ));
        }
    }
    Ok(())
}

/// Validates the read windows of `predict_partition` for untrusted
/// vectors: a `w`×`h` quarter-pel luma fetch reads `(w+5)`×`(h+5)` worst
/// case, the derived chroma half-pel fetch `(w/2+1)`×`(h/2+1)`.
fn check_window(
    rp: &RefPicture,
    mbx: usize,
    mby: usize,
    part: Partitioning,
    mvs: &[Mv; 4],
) -> Result<(), CodecError> {
    for (pi, &(ox, oy, pw, ph)) in part.rects().iter().enumerate() {
        let mv = mvs[pi];
        let px = mbx * 16 + ox;
        let py = mby * 16 + oy;
        let ix = px as isize + isize::from(mv.x >> 2) - 2;
        let iy = py as isize + isize::from(mv.y >> 2) - 2;
        if !rp.y.window_in_bounds(ix, iy, pw + 5, ph + 5) {
            return Err(bad_mv(mbx, mby, mv));
        }
        let (cmx, cmy) = (mv.x >> 2, mv.y >> 2);
        let cx = (px / 2) as isize + isize::from(cmx >> 1);
        let cy = (py / 2) as isize + isize::from(cmy >> 1);
        if !rp.cb.window_in_bounds(cx, cy, pw / 2 + 1, ph / 2 + 1) {
            return Err(bad_mv(mbx, mby, mv));
        }
    }
    Ok(())
}

/// Window-checks the vectors a B macroblock will actually use: forward
/// for modes 0/2, backward for modes 1/2.
fn check_b_window(
    fwd: &RefPicture,
    bwd: &RefPicture,
    mbx: usize,
    mby: usize,
    mode: u8,
    mv_f: Mv,
    mv_b: Mv,
) -> Result<(), CodecError> {
    if mode == 0 || mode == 2 {
        check_window(fwd, mbx, mby, Partitioning::P16x16, &[mv_f; 4])?;
    }
    if mode == 1 || mode == 2 {
        check_window(bwd, mbx, mby, Partitioning::P16x16, &[mv_b; 4])?;
    }
    Ok(())
}

fn read_intra4_mode(r: &mut BitReader<'_>, mpm: u8) -> Result<Intra4Mode, CodecError> {
    if r.get_bit()? {
        Intra4Mode::from_index(u32::from(mpm)).ok_or_else(|| {
            CodecError::corrupt(CorruptKind::BadMacroblockType, "bad most-probable mode")
        })
    } else {
        let mut idx = r.get_bits(2)?;
        if idx >= u32::from(mpm) {
            idx += 1;
        }
        Intra4Mode::from_index(idx)
            .ok_or_else(|| CodecError::corrupt(CorruptKind::BadMacroblockType, "bad intra4 mode"))
    }
}

/// Decoder-side twin of `H264Encoder::build_inter_pred`.
fn build_inter_pred_dec(
    dsp: &Dsp,
    r: &RefPicture,
    mbx: usize,
    mby: usize,
    part: Partitioning,
    mvs: &[Mv; 4],
) -> ([u8; 256], [u8; 64], [u8; 64]) {
    let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
    for (pi, &(ox, oy, pw, ph)) in part.rects().iter().enumerate() {
        crate::mc::predict_partition(
            dsp,
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

/// Decoder-side twin of `H264Encoder::build_b_pred`.
#[allow(clippy::too_many_arguments)]
fn build_b_pred_dec(
    dsp: &Dsp,
    fwd: &RefPicture,
    bwd: &RefPicture,
    mbx: usize,
    mby: usize,
    mode: u8,
    mv_f: Mv,
    mv_b: Mv,
) -> ([u8; 256], [u8; 64], [u8; 64]) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::MotionComp);
    match mode {
        0 => build_inter_pred_dec(dsp, fwd, mbx, mby, Partitioning::P16x16, &[mv_f; 4]),
        1 => build_inter_pred_dec(dsp, bwd, mbx, mby, Partitioning::P16x16, &[mv_b; 4]),
        _ => {
            let (fy, fcb, fcr) =
                build_inter_pred_dec(dsp, fwd, mbx, mby, Partitioning::P16x16, &[mv_f; 4]);
            let (by_, bcb, bcr) =
                build_inter_pred_dec(dsp, bwd, mbx, mby, Partitioning::P16x16, &[mv_b; 4]);
            let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
            dsp.avg_block(&mut py, 16, &fy, 16, &by_, 16, 16, 16);
            dsp.avg_block(&mut pcb, 8, &fcb, 8, &bcb, 8, 8, 8);
            dsp.avg_block(&mut pcr, 8, &fcr, 8, &bcr, 8, 8, 8);
            (py, pcb, pcr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderConfig;
    use crate::encoder::{write_intra4_mode, H264Encoder};
    use hdvb_bits::BitWriter;
    use hdvb_frame::SequencePsnr;

    fn moving_frame(w: usize, h: usize, t: f64) -> Frame {
        let mut f = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = 128.0
                    + 50.0 * ((x as f64 - 1.5 * t) * 0.17 + y as f64 * 0.06).sin()
                    + 45.0 * ((y as f64 + 0.5 * t) * 0.11).cos();
                f.y_mut().set(x, y, v.clamp(0.0, 255.0) as u8);
            }
        }
        for y in 0..h / 2 {
            for x in 0..w / 2 {
                f.cb_mut()
                    .set(x, y, (118 + (x + y + t as usize) % 20) as u8);
                f.cr_mut().set(x, y, (134 - (x + 2 * y) % 18) as u8);
            }
        }
        f
    }

    fn roundtrip(qp: u8, frames: usize, b_frames: u8) -> (Vec<Frame>, Vec<Frame>) {
        let (w, h) = (64, 48);
        let config = EncoderConfig::new(w, h).with_qp(qp).with_b_frames(b_frames);
        let mut enc = H264Encoder::new(config).expect("h264 encoder: config rejected");
        let mut dec = H264Decoder::new();
        let originals: Vec<Frame> = (0..frames).map(|i| moving_frame(w, h, i as f64)).collect();
        let mut packets = Vec::new();
        for f in &originals {
            packets.extend(enc.encode(f).expect("h264 encoder: encode failed"));
        }
        packets.extend(enc.flush().expect("h264 encoder: flush failed"));
        let mut decoded = Vec::new();
        for p in &packets {
            decoded.extend(dec.decode(&p.data).expect("h264 decoder: packet rejected"));
        }
        decoded.extend(dec.flush());
        (originals, decoded)
    }

    #[test]
    fn intra4_mode_coding_is_a_bijection() {
        // Every (mode, mpm) pair must round-trip through the
        // most-probable-mode coding.
        for mpm in 0..5u8 {
            for mode in Intra4Mode::ALL {
                let mut w = BitWriter::new();
                write_intra4_mode(&mut w, mode, mpm);
                let bytes = w.finish();
                let mut r = BitReader::new(&bytes);
                let decoded =
                    read_intra4_mode(&mut r, mpm).expect("h264 decoder: intra4 mode rejected");
                assert_eq!(decoded, mode, "mode {mode:?} mpm {mpm}");
            }
        }
    }

    #[test]
    fn intra_roundtrip_quality() {
        let (orig, dec) = roundtrip(20, 1, 2);
        assert_eq!(dec.len(), 1);
        let mut acc = SequencePsnr::new();
        acc.add(&orig[0], &dec[0]);
        assert!(acc.y_psnr() > 32.0, "psnr {:.2}", acc.y_psnr());
    }

    #[test]
    fn ipbb_roundtrip_display_order() {
        let (orig, dec) = roundtrip(26, 7, 2);
        assert_eq!(dec.len(), 7);
        for (i, (o, d)) in orig.iter().zip(&dec).enumerate() {
            let mut acc = SequencePsnr::new();
            acc.add(o, d);
            assert!(acc.y_psnr() > 27.0, "frame {i}: {:.2}", acc.y_psnr());
        }
    }

    #[test]
    fn ipp_roundtrip_multiref() {
        let (w, h) = (64, 48);
        let config = EncoderConfig::new(w, h)
            .with_qp(24)
            .with_b_frames(0)
            .with_num_refs(3);
        let mut enc = H264Encoder::new(config).expect("h264 encoder: config rejected");
        let mut dec = H264Decoder::new();
        let originals: Vec<Frame> = (0..6).map(|i| moving_frame(w, h, i as f64)).collect();
        let mut packets = Vec::new();
        for f in &originals {
            packets.extend(enc.encode(f).expect("h264 encoder: encode failed"));
        }
        packets.extend(enc.flush().expect("h264 encoder: flush failed"));
        let mut decoded = Vec::new();
        for p in &packets {
            decoded.extend(dec.decode(&p.data).expect("h264 decoder: packet rejected"));
        }
        decoded.extend(dec.flush());
        assert_eq!(decoded.len(), 6);
        for (o, d) in originals.iter().zip(&decoded) {
            let mut acc = SequencePsnr::new();
            acc.add(o, d);
            assert!(acc.y_psnr() > 27.0, "{:.2}", acc.y_psnr());
        }
    }

    #[test]
    fn multi_reference_wins_on_alternating_content() {
        // Frames alternate between two scenes: with two references the
        // encoder can reach past the immediately previous (different)
        // frame, so the stream must shrink versus single-reference.
        let (w, h) = (64, 48);
        let scene = |which: bool, t: usize| -> Frame {
            let mut f = moving_frame(w, h, t as f64 * 0.1);
            if which {
                for v in f.y_mut().data_mut() {
                    *v = 255 - *v; // inverted scene
                }
            }
            f
        };
        let bits_with = |refs: u8| -> u64 {
            let mut enc = H264Encoder::new(
                EncoderConfig::new(w, h)
                    .with_b_frames(0)
                    .with_num_refs(refs),
            )
            .expect("h264 encoder: config rejected");
            let mut total = 0;
            for t in 0..8 {
                let f = scene(t % 2 == 1, t);
                for p in enc.encode(&f).expect("h264 encoder: encode failed") {
                    total += p.bits();
                }
            }
            for p in enc.flush().expect("h264 encoder: flush failed") {
                total += p.bits();
            }
            total
        };
        let single = bits_with(1);
        let multi = bits_with(3);
        assert!(
            multi < single * 9 / 10,
            "multi-ref {multi} not clearly below single-ref {single}"
        );
    }

    #[test]
    fn lower_qp_is_higher_quality() {
        let q = |qp: u8| {
            let (orig, dec) = roundtrip(qp, 4, 2);
            let mut acc = SequencePsnr::new();
            for (o, d) in orig.iter().zip(&dec) {
                acc.add(o, d);
            }
            acc.y_psnr()
        };
        assert!(q(16) > q(40) + 3.0);
    }

    #[test]
    fn decode_is_simd_level_independent() {
        let (w, h) = (64, 48);
        let mut enc =
            H264Encoder::new(EncoderConfig::new(w, h)).expect("h264 encoder: config rejected");
        let mut packets = Vec::new();
        for i in 0..5 {
            packets.extend(
                enc.encode(&moving_frame(w, h, i as f64))
                    .expect("h264 encoder: encode failed"),
            );
        }
        packets.extend(enc.flush().expect("h264 encoder: flush failed"));
        let mut a = H264Decoder::with_simd(SimdLevel::Scalar);
        let mut b = H264Decoder::with_simd(SimdLevel::Sse2);
        let mut oa = Vec::new();
        let mut ob = Vec::new();
        for p in &packets {
            oa.extend(
                a.decode(&p.data)
                    .expect("h264 decoder (scalar): packet rejected"),
            );
            ob.extend(
                b.decode(&p.data)
                    .expect("h264 decoder (sse2): packet rejected"),
            );
        }
        oa.extend(a.flush());
        ob.extend(b.flush());
        assert_eq!(oa, ob);
    }

    #[test]
    fn corrupt_and_truncated_inputs_error_not_panic() {
        let (w, h) = (64, 48);
        let mut enc =
            H264Encoder::new(EncoderConfig::new(w, h)).expect("h264 encoder: config rejected");
        let packets = enc
            .encode(&moving_frame(w, h, 0.0))
            .expect("h264 encoder: encode failed");
        let data = &packets[0].data;
        for cut in [0, 2, 6, data.len() / 2] {
            let mut dec = H264Decoder::new();
            let _ = dec.decode(&data[..cut]);
        }
        let mut dec = H264Decoder::new();
        assert!(dec.decode(&[0xABu8; 80]).is_err());
        // P without reference.
        let mut enc2 = H264Encoder::new(EncoderConfig::new(w, h).with_b_frames(0))
            .expect("h264 encoder: config rejected");
        let _ = enc2
            .encode(&moving_frame(w, h, 0.0))
            .expect("h264 encoder: encode failed");
        let p = enc2
            .encode(&moving_frame(w, h, 1.0))
            .expect("h264 encoder: encode failed");
        let mut dec2 = H264Decoder::new();
        assert!(dec2.decode(&p[0].data).is_err());
    }

    #[test]
    fn non_aligned_dimensions_roundtrip() {
        let (w, h) = (60, 44);
        let mut enc =
            H264Encoder::new(EncoderConfig::new(w, h)).expect("h264 encoder: config rejected");
        let mut dec = H264Decoder::new();
        let f = moving_frame(w, h, 0.0);
        let mut packets = enc.encode(&f).expect("h264 encoder: encode failed");
        packets.extend(enc.flush().expect("h264 encoder: flush failed"));
        let mut out = Vec::new();
        for p in &packets {
            out.extend(dec.decode(&p.data).expect("h264 decoder: packet rejected"));
        }
        out.extend(dec.flush());
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].width(), out[0].height()), (w, h));
    }

    #[test]
    fn out_of_window_motion_vector_is_corrupt_not_panic() {
        let (w, h) = (16, 16);
        let mut enc = H264Encoder::new(EncoderConfig::new(w, h).with_b_frames(0))
            .expect("h264 encoder: config rejected");
        let mut dec = H264Decoder::new();
        let i_pkt = enc
            .encode(&moving_frame(w, h, 0.0))
            .expect("h264 encoder: encode failed");
        dec.decode(&i_pkt[0].data)
            .expect("h264 decoder: packet rejected");

        // Hand-craft a P picture whose single macroblock carries a motion
        // vector far outside the padded reference window.
        let mut bw = BitWriter::new();
        bw.put_bits(MAGIC, 16);
        bw.put_bits(PacketKind::P.to_bits(), 2);
        bw.put_bits(1, 32); // display index
        bw.put_ue(w as u32);
        bw.put_ue(h as u32);
        bw.put_ue(26); // qp
        bw.put_ue(1); // num_refs
        bw.put_bits(0, 1); // deblock off
        bw.put_bits(0, 1); // not skipped
        bw.put_ue(0); // mb_type: P16x16
        bw.put_se(10_000); // mv.x delta, quarter-pel: 2500 px off-screen
        bw.put_se(0); // mv.y delta
        let crafted = bw.finish();

        match dec.decode(&crafted) {
            Err(CodecError::Corrupt { kind, .. }) => {
                assert_eq!(kind, CorruptKind::BadMotionVector);
            }
            other => panic!("expected BadMotionVector, got {other:?}"),
        }

        // The failed packet must not poison the decoder: a real P picture
        // decodes fine afterwards.
        let p_pkt = enc
            .encode(&moving_frame(w, h, 1.0))
            .expect("h264 encoder: encode failed");
        dec.decode(&p_pkt[0].data)
            .expect("h264 decoder: recovery packet rejected");
    }

    #[test]
    fn corrupt_errors_carry_bit_offsets() {
        // Reserved frame type: detected right after the 18 header bits.
        let mut bw = BitWriter::new();
        bw.put_bits(MAGIC, 16);
        bw.put_bits(3, 2);
        let mut dec = H264Decoder::new();
        match dec.decode(&bw.finish()) {
            Err(CodecError::Corrupt { offset, kind, .. }) => {
                assert_eq!(kind, CorruptKind::BadHeaderField);
                assert!(offset >= 16, "offset {offset} should be past the magic");
            }
            other => panic!("expected BadHeaderField, got {other:?}"),
        }
        // Empty packet: truncation at offset 0 is legitimate.
        match dec.decode(&[]) {
            Err(CodecError::Corrupt { kind, .. }) => {
                assert_eq!(kind, CorruptKind::Truncated);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }
}
