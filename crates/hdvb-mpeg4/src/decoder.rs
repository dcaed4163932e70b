use crate::blocks::read_coeffs;
use crate::encoder::{
    build_b_prediction, dc_coords, direct_mvs, predict_mb, BRowState, DcStores, RefPicture, MAGIC,
};
use hdvb_bits::picture::{read_picture_prefix, CodecError, PacketKind, PicturePrefix};
use hdvb_bits::{BitReader, CorruptKind};
use hdvb_dsp::{store_block_clamped, Dsp, SimdLevel, MPEG_DEFAULT_INTRA};
use hdvb_frame::{align_up, Frame, FramePool};
use hdvb_me::{reconstruct_inter, Mv, MvField};
use hdvb_par::CancelToken;

/// Per-packet working storage, reused while the coded geometry stays the
/// same so steady-state decoding performs no heap allocation. All
/// buffers are fully overwritten (or cleared) per picture.
struct DecScratch {
    recon: Frame,
    mvs_full: MvField,
    mvs_qpel: MvField,
    dc: DcStores,
}

/// The MPEG-4-ASP-class decoder (mirror of
/// [`Mpeg4Encoder`](crate::Mpeg4Encoder)).
pub struct Mpeg4Decoder {
    dsp: Dsp,
    prev_anchor: Option<RefPicture>,
    last_anchor: Option<RefPicture>,
    pending: Option<Frame>,
    /// Reusable per-packet working storage.
    scratch: Option<DecScratch>,
    /// Cooperative cancellation, checkpointed at each packet boundary.
    cancel: CancelToken,
}

impl Default for Mpeg4Decoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Mpeg4Decoder {
    /// Creates a decoder at the CPU's best SIMD level.
    pub fn new() -> Self {
        Self::with_simd(SimdLevel::detect())
    }

    /// Creates a decoder at an explicit SIMD level.
    pub fn with_simd(simd: SimdLevel) -> Self {
        Mpeg4Decoder {
            dsp: Dsp::new(simd),
            prev_anchor: None,
            last_anchor: None,
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
        let qscale = r.get_ue()?;
        prefix.check_dims()?;
        let PicturePrefix {
            kind,
            display_index,
            width,
            height,
        } = prefix;
        if !(1..=62).contains(&qscale) {
            return Err(CodecError::corrupt(
                CorruptKind::BadHeaderField,
                "qscale out of range",
            ));
        }
        let qscale = qscale as u16;
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
                    mvs_full: MvField::new(mbs_x, mbs_y),
                    mvs_qpel: MvField::new(mbs_x, mbs_y),
                    dc: DcStores::new(mbs_x, mbs_y),
                }
            }
        };
        let result = self.decode_picture(
            r,
            kind,
            display_index,
            qscale,
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
        display_index: u32,
        qscale: u16,
        width: usize,
        height: usize,
        scratch: &mut DecScratch,
        out: &mut Vec<Frame>,
    ) -> Result<(), CodecError> {
        let DecScratch {
            recon,
            mvs_full,
            mvs_qpel,
            dc,
        } = scratch;
        let aw = recon.width();
        let ah = recon.height();
        let (mbs_x, mbs_y) = (aw / 16, ah / 16);
        // Recycled scratch carries the previous picture's state; the
        // decode paths only write the entries they code, so clear the
        // motion fields and DC predictors per picture. `recon` needs no
        // clearing: every macroblock path overwrites its samples.
        mvs_full.clear();
        mvs_qpel.clear();
        dc.reset();
        match kind {
            PacketKind::I => self.decode_i(r, recon, qscale, mbs_x, mbs_y, dc)?,
            PacketKind::P => {
                self.decode_p(r, recon, mvs_full, mvs_qpel, qscale, mbs_x, mbs_y, dc)?
            }
            PacketKind::B => self.decode_b(r, recon, display_index, qscale, mbs_x, mbs_y, dc)?,
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
            let recycled = self.prev_anchor.take();
            self.prev_anchor = self.last_anchor.take();
            self.last_anchor = Some(match recycled {
                Some(mut rp) if rp.matches(aw, ah) => {
                    rp.refill_from(recon, mvs_full, mvs_qpel, display_index);
                    rp
                }
                _ => RefPicture::from_frame(
                    recon,
                    std::mem::replace(mvs_full, MvField::new(mbs_x, mbs_y)),
                    std::mem::replace(mvs_qpel, MvField::new(mbs_x, mbs_y)),
                    display_index,
                ),
            });
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
        qscale: u16,
        mbs_x: usize,
        mbs_y: usize,
        dc: &mut DcStores,
    ) -> Result<(), CodecError> {
        for mby in 0..mbs_y {
            for mbx in 0..mbs_x {
                self.decode_intra_mb(r, recon, qscale, mbx, mby, dc)?;
            }
            r.byte_align();
        }
        Ok(())
    }

    fn decode_intra_mb(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        qscale: u16,
        mbx: usize,
        mby: usize,
        dc: &mut DcStores,
    ) -> Result<(), CodecError> {
        // First pass: entropy decode all six blocks and DC levels.
        let mut blocks = [[0i16; 64]; 6];
        let mut dc_levels = [0i32; 6];
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
            let cbp = r.get_bits(6)? as u8;
            for b in 0..6 {
                let store = match b {
                    0..=3 => &mut dc.y,
                    4 => &mut dc.cb,
                    _ => &mut dc.cr,
                };
                let (gx, gy) = dc_coords(mbx, mby, b);
                let pred = store.predict(gx, gy);
                dc_levels[b] = (pred + r.get_se()?).clamp(0, 255);
                store.set(gx, gy, dc_levels[b]);
                if cbp & (1 << (5 - b)) != 0 {
                    read_coeffs(r, &mut blocks[b], 1)?;
                }
            }
        }
        // Second pass: reconstruction.
        let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
        for (b, block) in blocks.iter_mut().enumerate() {
            self.dsp.dequant8(block, &MPEG_DEFAULT_INTRA, qscale, true);
            block[0] = (dc_levels[b] * 8) as i16;
            self.dsp.idct8(block);
            let (plane, bx, by) = match b {
                0..=3 => (
                    recon.y_mut(),
                    mbx * 16 + (b % 2) * 8,
                    mby * 16 + (b / 2) * 8,
                ),
                4 => (recon.cb_mut(), mbx * 8, mby * 8),
                _ => (recon.cr_mut(), mbx * 8, mby * 8),
            };
            store_block_clamped(plane, bx, by, block);
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_p(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        mvs_full: &mut MvField,
        qfield: &mut MvField,
        qscale: u16,
        mbs_x: usize,
        mbs_y: usize,
        dc: &mut DcStores,
    ) -> Result<(), CodecError> {
        let reference = self.last_anchor.take().ok_or_else(|| {
            CodecError::corrupt(CorruptKind::MissingReference, "P picture without reference")
        })?;
        let result = (|| -> Result<(), CodecError> {
            check_ref_geometry(&reference, mbs_x, mbs_y)?;
            for mby in 0..mbs_y {
                for mbx in 0..mbs_x {
                    let skip = r.get_bit()?;
                    if skip {
                        let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                        predict_mb(
                            &self.dsp,
                            &reference,
                            mbx,
                            mby,
                            &[Mv::ZERO; 4],
                            false,
                            &mut py,
                            &mut pcb,
                            &mut pcr,
                        );
                        reconstruct_inter(
                            &self.dsp,
                            recon,
                            mbx,
                            mby,
                            &py,
                            &pcb,
                            &pcr,
                            &[[0i16; 64]; 6],
                            0,
                            qscale,
                        );
                        qfield.set(mbx, mby, Mv::ZERO);
                        continue;
                    }
                    let mode = r.get_bits(2)?;
                    match mode {
                        2 => {
                            self.decode_intra_mb(r, recon, qscale, mbx, mby, dc)?;
                            qfield.set(mbx, mby, Mv::ZERO);
                        }
                        0 => {
                            let median = qfield.median_pred(mbx, mby);
                            let mv = Mv::new(
                                read_mv_component(r, median.x)?,
                                read_mv_component(r, median.y)?,
                            );
                            qfield.set(mbx, mby, mv);
                            mvs_full.set(mbx, mby, Mv::new(mv.x >> 2, mv.y >> 2));
                            self.decode_inter_residual(
                                r, recon, &reference, mbx, mby, &[mv; 4], false, qscale,
                            )?;
                        }
                        1 => {
                            let median = qfield.median_pred(mbx, mby);
                            let mut mvs = [Mv::ZERO; 4];
                            let mut pred = median;
                            for m in &mut mvs {
                                *m = Mv::new(
                                    read_mv_component(r, pred.x)?,
                                    read_mv_component(r, pred.y)?,
                                );
                                pred = *m;
                            }
                            let ax = (mvs.iter().map(|m| i32::from(m.x)).sum::<i32>() >> 2) as i16;
                            let ay = (mvs.iter().map(|m| i32::from(m.y)).sum::<i32>() >> 2) as i16;
                            qfield.set(mbx, mby, Mv::new(ax, ay));
                            mvs_full.set(mbx, mby, Mv::new(ax >> 2, ay >> 2));
                            self.decode_inter_residual(
                                r, recon, &reference, mbx, mby, &mvs, true, qscale,
                            )?;
                        }
                        _ => {
                            return Err(CodecError::corrupt(
                                CorruptKind::BadMacroblockType,
                                "reserved P macroblock mode",
                            ))
                        }
                    }
                }
                r.byte_align();
            }
            Ok(())
        })();
        self.last_anchor = Some(reference);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_inter_residual(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        reference: &RefPicture,
        mbx: usize,
        mby: usize,
        mvs: &[Mv; 4],
        four_mv: bool,
        qscale: u16,
    ) -> Result<(), CodecError> {
        check_window(reference, mbx, mby, mvs, four_mv)?;
        let mut blocks = [[0i16; 64]; 6];
        let cbp = {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
            let cbp = r.get_bits(6)? as u8;
            for (i, b) in blocks.iter_mut().enumerate() {
                if cbp & (1 << (5 - i)) != 0 {
                    read_coeffs(r, b, 0)?;
                }
            }
            cbp
        };
        let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
        predict_mb(
            &self.dsp, reference, mbx, mby, mvs, four_mv, &mut py, &mut pcb, &mut pcr,
        );
        reconstruct_inter(
            &self.dsp, recon, mbx, mby, &py, &pcb, &pcr, &blocks, cbp, qscale,
        );
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_b(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        display_index: u32,
        qscale: u16,
        mbs_x: usize,
        mbs_y: usize,
        dc: &mut DcStores,
    ) -> Result<(), CodecError> {
        let fwd = self.prev_anchor.take().ok_or_else(|| {
            CodecError::corrupt(CorruptKind::MissingReference, "B picture without anchors")
        })?;
        let bwd = match self.last_anchor.take() {
            Some(b) => b,
            None => {
                self.prev_anchor = Some(fwd);
                return Err(CodecError::corrupt(
                    CorruptKind::MissingReference,
                    "B picture without anchors",
                ));
            }
        };
        let result = (|| -> Result<(), CodecError> {
            check_ref_geometry(&fwd, mbs_x, mbs_y)?;
            check_ref_geometry(&bwd, mbs_x, mbs_y)?;
            for mby in 0..mbs_y {
                let mut row = BRowState::new();
                for mbx in 0..mbs_x {
                    let skip = r.get_bit()?;
                    let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                    if skip {
                        // Direct-mode skip: vectors from the collocated
                        // anchor motion, bidirectional prediction.
                        let (mv_f, mv_b) = direct_mvs(&fwd, &bwd, display_index, mbx, mby);
                        check_b_window(&fwd, &bwd, mbx, mby, 2, mv_f, mv_b)?;
                        build_b_prediction(
                            &self.dsp, &fwd, &bwd, mbx, mby, 2, mv_f, mv_b, &mut py, &mut pcb,
                            &mut pcr,
                        );
                        reconstruct_inter(
                            &self.dsp,
                            recon,
                            mbx,
                            mby,
                            &py,
                            &pcb,
                            &pcr,
                            &[[0i16; 64]; 6],
                            0,
                            qscale,
                        );
                        continue;
                    }
                    let mode = r.get_bits(2)? as u8;
                    if mode == 3 {
                        self.decode_intra_mb(r, recon, qscale, mbx, mby, dc)?;
                        row.reset_mv();
                        continue;
                    }
                    let mut mv_f = row.last_b.1;
                    let mut mv_b = row.last_b.2;
                    if mode == 0 || mode == 2 {
                        mv_f = Mv::new(
                            read_mv_component(r, row.mv_pred.x)?,
                            read_mv_component(r, row.mv_pred.y)?,
                        );
                        row.mv_pred = mv_f;
                    }
                    if mode == 1 || mode == 2 {
                        mv_b = Mv::new(
                            read_mv_component(r, row.mv_pred_bwd.x)?,
                            read_mv_component(r, row.mv_pred_bwd.y)?,
                        );
                        row.mv_pred_bwd = mv_b;
                    }
                    row.last_b = (mode, mv_f, mv_b);
                    check_b_window(&fwd, &bwd, mbx, mby, mode, mv_f, mv_b)?;
                    let mut blocks = [[0i16; 64]; 6];
                    let cbp = {
                        let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
                        let cbp = r.get_bits(6)? as u8;
                        for (i, b) in blocks.iter_mut().enumerate() {
                            if cbp & (1 << (5 - i)) != 0 {
                                read_coeffs(r, b, 0)?;
                            }
                        }
                        cbp
                    };
                    build_b_prediction(
                        &self.dsp, &fwd, &bwd, mbx, mby, mode, mv_f, mv_b, &mut py, &mut pcb,
                        &mut pcr,
                    );
                    reconstruct_inter(
                        &self.dsp, recon, mbx, mby, &py, &pcb, &pcr, &blocks, cbp, qscale,
                    );
                }
                r.byte_align();
            }
            Ok(())
        })();
        self.prev_anchor = Some(fwd);
        self.last_anchor = Some(bwd);
        result
    }
}

fn read_mv_component(r: &mut BitReader<'_>, pred: i16) -> Result<i16, CodecError> {
    let v = i32::from(pred) + r.get_se()?;
    if (-4096..=4095).contains(&v) {
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

/// Rejects inter pictures whose coded geometry disagrees with the
/// reference they predict from (a corrupt packet can otherwise drive
/// motion compensation beyond the smaller reference's planes).
fn check_ref_geometry(rp: &RefPicture, mbs_x: usize, mbs_y: usize) -> Result<(), CodecError> {
    if rp.y.width() == mbs_x * 16 && rp.y.height() == mbs_y * 16 {
        Ok(())
    } else {
        Err(CodecError::corrupt(
            CorruptKind::MissingReference,
            format!(
                "picture geometry {}x{} does not match reference {}x{}",
                mbs_x * 16,
                mbs_y * 16,
                rp.y.width(),
                rp.y.height()
            ),
        ))
    }
}

/// Validates the read windows of `predict_mb` for untrusted vectors:
/// quarter-pel luma fetches (16-wide: 21×21 worst case, 8-wide: 13×13)
/// plus the derived chroma half-pel fetch (9×9 worst case).
fn check_window(
    rp: &RefPicture,
    mbx: usize,
    mby: usize,
    mvs: &[Mv; 4],
    four_mv: bool,
) -> Result<(), CodecError> {
    if four_mv {
        for (k, mv) in mvs.iter().enumerate() {
            let bx = (mbx * 16 + (k % 2) * 8) as isize;
            let by = (mby * 16 + (k / 2) * 8) as isize;
            let ix = bx + isize::from(mv.x >> 2) - 2;
            let iy = by + isize::from(mv.y >> 2) - 2;
            if !rp.y.window_in_bounds(ix, iy, 13, 13) {
                return Err(bad_mv(mbx, mby, *mv));
            }
        }
    } else {
        let mv = mvs[0];
        let ix = (mbx * 16) as isize + isize::from(mv.x >> 2) - 2;
        let iy = (mby * 16) as isize + isize::from(mv.y >> 2) - 2;
        if !rp.y.window_in_bounds(ix, iy, 21, 21) {
            return Err(bad_mv(mbx, mby, mv));
        }
    }
    let sx = mvs.iter().map(|m| i32::from(m.x)).sum::<i32>() >> 4;
    let sy = mvs.iter().map(|m| i32::from(m.y)).sum::<i32>() >> 4;
    let cx = (mbx * 8) as isize + (sx >> 1) as isize;
    let cy = (mby * 8) as isize + (sy >> 1) as isize;
    if !rp.cb.window_in_bounds(cx, cy, 9, 9) {
        return Err(bad_mv(mbx, mby, mvs[0]));
    }
    Ok(())
}

/// Window-checks the vectors a B macroblock will actually use: forward
/// for modes 0/2, backward for modes 1/2 (mode 3 is intra).
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
        check_window(fwd, mbx, mby, &[mv_f; 4], false)?;
    }
    if mode == 1 || mode == 2 {
        check_window(bwd, mbx, mby, &[mv_b; 4], false)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderConfig;
    use crate::encoder::Mpeg4Encoder;
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

    fn roundtrip(qscale: u16, frames: usize, b_frames: u8) -> (Vec<Frame>, Vec<Frame>) {
        let (w, h) = (64, 48);
        let config = EncoderConfig::new(w, h)
            .with_qscale(qscale)
            .with_b_frames(b_frames);
        let mut enc = Mpeg4Encoder::new(config).expect("mpeg4 encoder: config rejected");
        let mut dec = Mpeg4Decoder::new();
        let originals: Vec<Frame> = (0..frames).map(|i| moving_frame(w, h, i as f64)).collect();
        let mut packets = Vec::new();
        for f in &originals {
            packets.extend(enc.encode(f).expect("mpeg4 encoder: encode failed"));
        }
        packets.extend(enc.flush().expect("mpeg4 encoder: flush failed"));
        let mut decoded = Vec::new();
        for p in &packets {
            decoded.extend(dec.decode(&p.data).expect("mpeg4 decoder: packet rejected"));
        }
        decoded.extend(dec.flush());
        (originals, decoded)
    }

    #[test]
    fn intra_roundtrip_quality() {
        let (orig, dec) = roundtrip(4, 1, 2);
        assert_eq!(dec.len(), 1);
        let mut acc = SequencePsnr::new();
        acc.add(&orig[0], &dec[0]);
        assert!(acc.y_psnr() > 30.0, "psnr {}", acc.y_psnr());
    }

    #[test]
    fn ipbb_roundtrip_in_display_order() {
        let (orig, dec) = roundtrip(4, 7, 2);
        assert_eq!(dec.len(), 7);
        for (i, (o, d)) in orig.iter().zip(&dec).enumerate() {
            let mut acc = SequencePsnr::new();
            acc.add(o, d);
            assert!(acc.y_psnr() > 27.0, "frame {i}: {:.2}", acc.y_psnr());
        }
    }

    #[test]
    fn ipp_roundtrip() {
        let (orig, dec) = roundtrip(6, 5, 0);
        assert_eq!(dec.len(), 5);
        for (o, d) in orig.iter().zip(&dec) {
            let mut acc = SequencePsnr::new();
            acc.add(o, d);
            assert!(acc.y_psnr() > 26.0);
        }
    }

    #[test]
    fn direct_mode_makes_b_frames_cheap_on_steady_motion() {
        // On a constant pan the collocated anchor vectors predict the B
        // frames well (bidirectional averaging + direct-mode skips), so
        // B pictures must be clearly cheaper than P pictures.
        let (w, h) = (96, 80);
        let mut enc =
            Mpeg4Encoder::new(EncoderConfig::new(w, h)).expect("mpeg4 encoder: config rejected");
        let mut p_bits = 0u64;
        let mut p_count = 0u64;
        let mut b_bits = 0u64;
        let mut b_count = 0u64;
        let mut tally = |packets: Vec<crate::Packet>| {
            for p in packets {
                match p.kind {
                    PacketKind::P => {
                        p_bits += p.bits();
                        p_count += 1;
                    }
                    PacketKind::B => {
                        b_bits += p.bits();
                        b_count += 1;
                    }
                    PacketKind::I => {}
                }
            }
        };
        for t in 0..13 {
            tally(
                enc.encode(&moving_frame(w, h, t as f64))
                    .expect("mpeg4 encoder: encode failed"),
            );
        }
        tally(enc.flush().expect("mpeg4 encoder: flush failed"));
        assert!(p_count >= 3 && b_count >= 6);
        let p_avg = p_bits / p_count;
        let b_avg = b_bits / b_count;
        assert!(
            b_avg * 10 < p_avg * 9,
            "B average {b_avg} not clearly below P average {p_avg}"
        );
    }

    #[test]
    fn decode_is_simd_level_independent() {
        let (w, h) = (64, 48);
        let mut enc =
            Mpeg4Encoder::new(EncoderConfig::new(w, h)).expect("mpeg4 encoder: config rejected");
        let mut packets = Vec::new();
        for i in 0..5 {
            packets.extend(
                enc.encode(&moving_frame(w, h, i as f64))
                    .expect("mpeg4 encoder: encode failed"),
            );
        }
        packets.extend(enc.flush().expect("mpeg4 encoder: flush failed"));
        let mut a = Mpeg4Decoder::with_simd(SimdLevel::Scalar);
        let mut b = Mpeg4Decoder::with_simd(SimdLevel::Sse2);
        let mut oa = Vec::new();
        let mut ob = Vec::new();
        for p in &packets {
            oa.extend(
                a.decode(&p.data)
                    .expect("mpeg4 decoder (scalar): packet rejected"),
            );
            ob.extend(
                b.decode(&p.data)
                    .expect("mpeg4 decoder (sse2): packet rejected"),
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
            Mpeg4Encoder::new(EncoderConfig::new(w, h)).expect("mpeg4 encoder: config rejected");
        let packets = enc
            .encode(&moving_frame(w, h, 0.0))
            .expect("mpeg4 encoder: encode failed");
        let data = &packets[0].data;
        for cut in [0, 3, 7, data.len() / 3, data.len() - 1] {
            let mut dec = Mpeg4Decoder::new();
            let _ = dec.decode(&data[..cut]);
        }
        let mut dec = Mpeg4Decoder::new();
        assert!(dec.decode(&[0u8; 64]).is_err());
    }

    #[test]
    fn b_without_anchors_is_error() {
        let (w, h) = (64, 48);
        let mut enc =
            Mpeg4Encoder::new(EncoderConfig::new(w, h)).expect("mpeg4 encoder: config rejected");
        let mut packets = Vec::new();
        for i in 0..4 {
            packets.extend(
                enc.encode(&moving_frame(w, h, i as f64))
                    .expect("mpeg4 encoder: encode failed"),
            );
        }
        packets.extend(enc.flush().expect("mpeg4 encoder: flush failed"));
        let b_packet = packets
            .iter()
            .find(|p| p.kind == PacketKind::B)
            .expect("mpeg4 encoder: stream contains no B packet");
        let mut dec = Mpeg4Decoder::new();
        assert!(dec.decode(&b_packet.data).is_err());
    }
}
