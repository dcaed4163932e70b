use crate::blocks::read_coeffs;
use crate::encoder::{
    build_b_prediction, dc_coords, direct_mvs, predict_mb, BRowState, DcStores, RefPicture, MAGIC,
};
use hdvb_bits::picture::{read_picture_prefix, CodecError, PacketKind, PicturePrefix};
use hdvb_bits::{BitReader, CorruptKind};
use hdvb_dsp::{store_block_clamped, Dsp, SimdLevel, MPEG_DEFAULT_INTRA};
use hdvb_frame::{align_up, Frame, FramePool};
use hdvb_me::{reconstruct_inter, Mv, MvField};

/// Per-packet working storage, reused while the coded geometry stays the
/// same so steady-state decoding performs no heap allocation. All
/// buffers are fully overwritten (or cleared) per picture.
struct DecScratch {
    recon: Frame,
    mvs_full: MvField,
    mvs_qpel: MvField,
    dc: DcStores,
}

/// The MPEG-4-ASP-class picture decoder (mirror of
/// [`Mpeg4Encoder`](crate::Mpeg4Encoder)): parses one packet into its
/// display picture and keeps the anchors. Display reordering is
/// `hdvb-core`'s.
pub struct Mpeg4Decoder {
    dsp: Dsp,
    prev_anchor: Option<RefPicture>,
    last_anchor: Option<RefPicture>,
    /// Reusable per-packet working storage.
    scratch: Option<DecScratch>,
}

impl Mpeg4Decoder {
    /// Creates a decoder at an explicit SIMD level.
    pub fn new(simd: SimdLevel) -> Self {
        Mpeg4Decoder {
            dsp: Dsp::new(simd),
            prev_anchor: None,
            last_anchor: None,
            scratch: None,
        }
    }

    /// Decodes the picture `r` holds and returns its type and its
    /// display picture, taken from the global [`FramePool`]. I and P
    /// pictures become the newest anchor. Per-packet working state is
    /// reused while the coded geometry stays constant.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on malformed input, with a
    /// [`CorruptKind`]; its offset is left for the caller to stamp from
    /// `r`. A failed packet leaves the reference state untouched.
    pub fn decode_picture(
        &mut self,
        r: &mut BitReader<'_>,
    ) -> Result<(PacketKind, Frame), CodecError> {
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
        let result = self.decode_body(r, kind, display_index, qscale, width, height, &mut scratch);
        self.scratch = Some(scratch);
        result.map(|display| (kind, display))
    }

    /// Decodes the picture body, crops the display picture out of the
    /// reconstruction and rotates the anchors. Nothing changes unless
    /// the whole picture decoded.
    #[allow(clippy::too_many_arguments)]
    fn decode_body(
        &mut self,
        r: &mut BitReader<'_>,
        kind: PacketKind,
        display_index: u32,
        qscale: u16,
        width: usize,
        height: usize,
        scratch: &mut DecScratch,
    ) -> Result<Frame, CodecError> {
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
        if kind != PacketKind::B {
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
        Ok(display)
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

    fn encoder(w: usize, h: usize) -> Mpeg4Encoder {
        Mpeg4Encoder::new(w, h, 5, 24, SimdLevel::detect()).expect("mpeg4 encoder: config rejected")
    }

    fn decode(dec: &mut Mpeg4Decoder, data: &[u8]) -> Result<(PacketKind, Frame), CodecError> {
        dec.decode_picture(&mut BitReader::new(data))
    }

    /// The paper's I-P-B-B coding order over `n` = 1 + 3k pictures.
    fn ipbb(n: u32) -> Vec<(PacketKind, u32)> {
        let mut order = vec![(PacketKind::I, 0)];
        for a in (3..n).step_by(3) {
            order.extend([
                (PacketKind::P, a),
                (PacketKind::B, a - 2),
                (PacketKind::B, a - 1),
            ]);
        }
        order
    }

    #[test]
    fn intra_roundtrip_quality() {
        let (w, h) = (64, 48);
        let mut enc = Mpeg4Encoder::new(w, h, 4, 24, SimdLevel::detect()).unwrap();
        let orig = moving_frame(w, h, 0.0);
        let p = enc.encode_picture(&orig, PacketKind::I, 0);
        let (_, dec) = decode(&mut Mpeg4Decoder::new(SimdLevel::detect()), &p.data).unwrap();
        let mut acc = SequencePsnr::new();
        acc.add(&orig, &dec);
        assert!(acc.y_psnr() > 30.0, "psnr {}", acc.y_psnr());
    }

    #[test]
    fn direct_mode_makes_b_frames_cheap_on_steady_motion() {
        // On a constant pan the collocated anchor vectors predict the B
        // frames well (bidirectional averaging + direct-mode skips), so
        // B pictures must be clearly cheaper than P pictures.
        let (w, h) = (96, 80);
        let mut enc = encoder(w, h);
        let (mut p_bits, mut p_count, mut b_bits, mut b_count) = (0u64, 0u64, 0u64, 0u64);
        for (kind, t) in ipbb(13) {
            let p = enc.encode_picture(&moving_frame(w, h, f64::from(t)), kind, t);
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
        let mut enc = encoder(w, h);
        let mut a = Mpeg4Decoder::new(SimdLevel::Scalar);
        let mut b = Mpeg4Decoder::new(SimdLevel::Sse2);
        for (kind, i) in ipbb(7) {
            let p = enc.encode_picture(&moving_frame(w, h, f64::from(i)), kind, i);
            let oa = decode(&mut a, &p.data).expect("mpeg4 decoder (scalar): packet rejected");
            let ob = decode(&mut b, &p.data).expect("mpeg4 decoder (sse2): packet rejected");
            assert_eq!(oa, ob, "picture {i}");
        }
    }

    #[test]
    fn corrupt_and_truncated_inputs_error_not_panic() {
        let (w, h) = (64, 48);
        let mut enc = encoder(w, h);
        let data = enc
            .encode_picture(&moving_frame(w, h, 0.0), PacketKind::I, 0)
            .data;
        for cut in [0, 3, 7, data.len() / 3, data.len() - 1] {
            let _ = decode(&mut Mpeg4Decoder::new(SimdLevel::detect()), &data[..cut]);
        }
        let mut dec = Mpeg4Decoder::new(SimdLevel::detect());
        assert!(decode(&mut dec, &[0u8; 64]).is_err());
    }

    #[test]
    fn b_without_anchors_is_error() {
        let (w, h) = (64, 48);
        let mut enc = encoder(w, h);
        let mut b_packet = None;
        for (kind, i) in ipbb(4) {
            let p = enc.encode_picture(&moving_frame(w, h, f64::from(i)), kind, i);
            if kind == PacketKind::B {
                b_packet = Some(p);
            }
        }
        let b_packet = b_packet.expect("mpeg4 encoder: stream contains no B packet");
        let mut dec = Mpeg4Decoder::new(SimdLevel::detect());
        assert!(decode(&mut dec, &b_packet.data).is_err());
    }
}
