use crate::blocks::read_coeffs;
use crate::encoder::{build_b_prediction, predict_mb, RefPicture, RowState, MAGIC};
use hdvb_bits::picture::{read_picture_prefix, CodecError, PacketKind};
use hdvb_bits::{BitReader, CorruptKind};
use hdvb_dsp::{store_block_clamped, Dsp, SimdLevel, MPEG_DEFAULT_INTRA};
use hdvb_frame::{align_up, Frame, FramePool};
use hdvb_me::{reconstruct_inter, Mv, MvField};
use hdvb_par::CancelToken;

/// Per-packet working storage, reused while the coded geometry stays the
/// same so steady-state decoding performs no heap allocation. Both
/// buffers are fully overwritten (or cleared) per picture.
struct DecScratch {
    recon: Frame,
    mvs: MvField,
}

/// The MPEG-2-class decoder.
///
/// Packets must be fed in coding order (as produced by
/// [`Mpeg2Encoder`](crate::Mpeg2Encoder)); frames come out in display
/// order. Call [`flush`](Self::flush) after the last packet to obtain the
/// final anchor.
pub struct Mpeg2Decoder {
    dsp: Dsp,
    prev_anchor: Option<RefPicture>,
    last_anchor: Option<RefPicture>,
    /// The newest anchor's displayable frame, held until the next anchor
    /// arrives (display reordering).
    pending: Option<Frame>,
    /// Reusable per-packet working storage.
    scratch: Option<DecScratch>,
    /// Cooperative cancellation, checkpointed at each packet boundary.
    cancel: CancelToken,
}

impl Default for Mpeg2Decoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Mpeg2Decoder {
    /// Creates a decoder at the CPU's best SIMD level.
    pub fn new() -> Self {
        Self::with_simd(SimdLevel::detect())
    }

    /// Creates a decoder at an explicit SIMD level (the Figure-1 axis).
    pub fn with_simd(simd: SimdLevel) -> Self {
        Mpeg2Decoder {
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

    /// Decodes one packet; returns zero or more display-order frames.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on malformed or truncated input, carrying
    /// the bit offset the parse stopped at and a [`CorruptKind`]
    /// classification. A failed packet leaves the decoder's reference
    /// state untouched, so subsequent packets can still decode (the
    /// container-level resync in `hdvb-core` relies on this).
    pub fn decode(&mut self, data: &[u8]) -> Result<Vec<Frame>, CodecError> {
        let mut out = Vec::new();
        self.decode_into(data, &mut out)?;
        Ok(out)
    }

    /// Allocation-free form of [`decode`](Self::decode): appends decoded
    /// display-order frames to `out`. Output frames come from the global
    /// [`FramePool`] (return them with `FramePool::global().put(..)` to
    /// close the recycling loop), and per-packet working state is reused
    /// while the coded geometry stays constant — at steady state a
    /// decoded packet performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode); nothing is appended on error.
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
        let (kind, width, height) = (prefix.kind, prefix.width, prefix.height);
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
                    mvs: MvField::new(mbs_x, mbs_y),
                }
            }
        };
        let result = self.decode_picture(r, kind, qscale, width, height, &mut scratch, out);
        self.scratch = Some(scratch);
        result
    }

    /// Decodes the picture body into `scratch.recon` and performs display
    /// reordering and anchor rotation. `out` is only appended to after
    /// the whole picture decoded successfully, so a failed packet leaves
    /// the decoder state untouched.
    #[allow(clippy::too_many_arguments)]
    fn decode_picture(
        &mut self,
        r: &mut BitReader<'_>,
        kind: PacketKind,
        qscale: u16,
        width: usize,
        height: usize,
        scratch: &mut DecScratch,
        out: &mut Vec<Frame>,
    ) -> Result<(), CodecError> {
        let DecScratch { recon, mvs } = scratch;
        let (aw, ah) = (recon.width(), recon.height());
        let (mbs_x, mbs_y) = (aw / 16, ah / 16);
        // Recycled storage: `recon` is fully overwritten by every picture
        // type and the motion field is cleared, matching fresh buffers
        // bit for bit.
        mvs.clear();
        match kind {
            PacketKind::I => self.decode_i(r, recon, qscale, mbs_x, mbs_y)?,
            PacketKind::P => self.decode_p(r, recon, mvs, qscale, mbs_x, mbs_y)?,
            PacketKind::B => self.decode_b(r, recon, qscale, mbs_x, mbs_y)?,
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
                    rp.refill_from(recon, mvs);
                    rp
                }
                _ => RefPicture::from_frame(
                    recon,
                    std::mem::replace(mvs, MvField::new(mbs_x, mbs_y)),
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
        if let Some(p) = self.pending.take() {
            out.push(p);
        }
    }

    fn decode_i(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        qscale: u16,
        mbs_x: usize,
        mbs_y: usize,
    ) -> Result<(), CodecError> {
        for mby in 0..mbs_y {
            let mut row = RowState::new();
            for mbx in 0..mbs_x {
                self.decode_intra_mb(r, recon, qscale, mbx, mby, &mut row.dc_pred)?;
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
        dc_pred: &mut [i32; 3],
    ) -> Result<(), CodecError> {
        // Phase-split (read all six blocks, then reconstruct all six) so
        // each phase is one trace zone; the bits are consumed in exactly
        // the same order as the interleaved per-block form.
        let mut blocks = [[0i16; 64]; 6];
        let mut dc_levels = [0i32; 6];
        {
            let _z = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
            for (b, block) in blocks.iter_mut().enumerate() {
                let dc_diff = r.get_se()?;
                let comp = match b {
                    0..=3 => 0,
                    4 => 1,
                    _ => 2,
                };
                let dc_level = (dc_pred[comp] + dc_diff).clamp(0, 255);
                dc_pred[comp] = dc_level;
                dc_levels[b] = dc_level;
                read_coeffs(r, block, 1)?;
            }
        }
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

    fn decode_p(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        mvs: &mut MvField,
        qscale: u16,
        mbs_x: usize,
        mbs_y: usize,
    ) -> Result<(), CodecError> {
        // Take the reference out to avoid aliasing self borrows.
        let reference = self.last_anchor.take().ok_or_else(|| {
            CodecError::corrupt(CorruptKind::MissingReference, "P picture without reference")
        })?;
        let result = (|| -> Result<(), CodecError> {
            check_ref_geometry(&reference, mbs_x, mbs_y)?;
            for mby in 0..mbs_y {
                let mut row = RowState::new();
                for mbx in 0..mbs_x {
                    let skip = r.get_bit()?;
                    if skip {
                        let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                        predict_mb(
                            &self.dsp,
                            &reference,
                            mbx,
                            mby,
                            Mv::ZERO,
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
                        row.dc_pred = [128; 3];
                        row.reset_mv();
                        continue;
                    }
                    let intra = r.get_bit()?;
                    if intra {
                        self.decode_intra_mb(r, recon, qscale, mbx, mby, &mut row.dc_pred)?;
                        row.reset_mv();
                        continue;
                    }
                    let ec_zone = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
                    let mvd_x = r.get_se()?;
                    let mvd_y = r.get_se()?;
                    let mv = Mv::new(
                        clamp_mv(i32::from(row.mv_pred.x) + mvd_x)?,
                        clamp_mv(i32::from(row.mv_pred.y) + mvd_y)?,
                    );
                    row.mv_pred = mv;
                    check_window(&reference, mbx, mby, mv)?;
                    mvs.set(mbx, mby, Mv::new(mv.x >> 1, mv.y >> 1));
                    let cbp = r.get_bits(6)? as u8;
                    let mut blocks = [[0i16; 64]; 6];
                    for (i, b) in blocks.iter_mut().enumerate() {
                        if cbp & (1 << (5 - i)) != 0 {
                            read_coeffs(r, b, 0)?;
                        }
                    }
                    drop(ec_zone);
                    let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                    predict_mb(
                        &self.dsp, &reference, mbx, mby, mv, &mut py, &mut pcb, &mut pcr,
                    );
                    reconstruct_inter(
                        &self.dsp, recon, mbx, mby, &py, &pcb, &pcr, &blocks, cbp, qscale,
                    );
                    row.dc_pred = [128; 3];
                }
                r.byte_align();
            }
            Ok(())
        })();
        self.last_anchor = Some(reference);
        result
    }

    fn decode_b(
        &mut self,
        r: &mut BitReader<'_>,
        recon: &mut Frame,
        qscale: u16,
        mbs_x: usize,
        mbs_y: usize,
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
                let mut row = RowState::new();
                for mbx in 0..mbs_x {
                    let skip = r.get_bit()?;
                    let (mut py, mut pcb, mut pcr) = ([0u8; 256], [0u8; 64], [0u8; 64]);
                    if skip {
                        let (mode, mv_f, mv_b) = row.last_b;
                        check_b_window(&fwd, &bwd, mbx, mby, mode, mv_f, mv_b)?;
                        build_b_prediction(
                            &self.dsp, &fwd, &bwd, mbx, mby, mode, mv_f, mv_b, &mut py, &mut pcb,
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
                        self.decode_intra_mb(r, recon, qscale, mbx, mby, &mut row.dc_pred)?;
                        row.reset_mv();
                        continue;
                    }
                    let mut mv_f = row.last_b.1;
                    let mut mv_b = row.last_b.2;
                    if mode == 0 || mode == 2 {
                        let dx = r.get_se()?;
                        let dy = r.get_se()?;
                        mv_f = Mv::new(
                            clamp_mv(i32::from(row.mv_pred.x) + dx)?,
                            clamp_mv(i32::from(row.mv_pred.y) + dy)?,
                        );
                        row.mv_pred = mv_f;
                    }
                    if mode == 1 || mode == 2 {
                        let dx = r.get_se()?;
                        let dy = r.get_se()?;
                        mv_b = Mv::new(
                            clamp_mv(i32::from(row.mv_pred_bwd.x) + dx)?,
                            clamp_mv(i32::from(row.mv_pred_bwd.y) + dy)?,
                        );
                        row.mv_pred_bwd = mv_b;
                    }
                    row.last_b = (mode, mv_f, mv_b);
                    check_b_window(&fwd, &bwd, mbx, mby, mode, mv_f, mv_b)?;
                    let ec_zone = hdvb_trace::zone!(hdvb_trace::Stage::EntropyCoding);
                    let cbp = r.get_bits(6)? as u8;
                    let mut blocks = [[0i16; 64]; 6];
                    for (i, b) in blocks.iter_mut().enumerate() {
                        if cbp & (1 << (5 - i)) != 0 {
                            read_coeffs(r, b, 0)?;
                        }
                    }
                    drop(ec_zone);
                    build_b_prediction(
                        &self.dsp, &fwd, &bwd, mbx, mby, mode, mv_f, mv_b, &mut py, &mut pcb,
                        &mut pcr,
                    );
                    reconstruct_inter(
                        &self.dsp, recon, mbx, mby, &py, &pcb, &pcr, &blocks, cbp, qscale,
                    );
                    row.dc_pred = [128; 3];
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

/// Validates a decoded motion component fits in the i16 vector type
/// (half-pel units); the positional window check happens per use site.
fn clamp_mv(v: i32) -> Result<i16, CodecError> {
    if (-2048..=2047).contains(&v) {
        Ok(v as i16)
    } else {
        Err(CodecError::corrupt(
            CorruptKind::BadMotionVector,
            format!("motion vector component {v} out of range"),
        ))
    }
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

/// Validates that motion-compensating macroblock `(mbx, mby)` with `mv`
/// (half-pel units) stays inside the padded reference planes. Mirrors the
/// read windows of `predict_mb`: a 16×16 half-pel luma fetch (17×17
/// worst case) and an 8×8 half-pel chroma fetch (9×9 worst case).
fn check_window(rp: &RefPicture, mbx: usize, mby: usize, mv: Mv) -> Result<(), CodecError> {
    let lx = (mbx * 16) as isize + isize::from(mv.x >> 1);
    let ly = (mby * 16) as isize + isize::from(mv.y >> 1);
    let (cmx, cmy) = (mv.x >> 1, mv.y >> 1);
    let cx = (mbx * 8) as isize + isize::from(cmx >> 1);
    let cy = (mby * 8) as isize + isize::from(cmy >> 1);
    if rp.y.window_in_bounds(lx, ly, 17, 17) && rp.cb.window_in_bounds(cx, cy, 9, 9) {
        Ok(())
    } else {
        Err(CodecError::corrupt(
            CorruptKind::BadMotionVector,
            format!(
                "mv ({},{}) at mb ({mbx},{mby}) reads outside the padded reference",
                mv.x, mv.y
            ),
        ))
    }
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
        check_window(fwd, mbx, mby, mv_f)?;
    }
    if mode == 1 || mode == 2 {
        check_window(bwd, mbx, mby, mv_b)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderConfig;
    use crate::encoder::Mpeg2Encoder;
    use hdvb_frame::SequencePsnr;

    fn moving_frame(w: usize, h: usize, t: f64) -> Frame {
        let mut f = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = 128.0
                    + 50.0 * ((x as f64 - 2.0 * t) * 0.17 + y as f64 * 0.06).sin()
                    + 45.0 * ((y as f64 + t) * 0.11).cos();
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
        let mut enc = Mpeg2Encoder::new(config).expect("mpeg2 encoder: config rejected");
        let mut dec = Mpeg2Decoder::new();
        let originals: Vec<Frame> = (0..frames).map(|i| moving_frame(w, h, i as f64)).collect();
        let mut packets = Vec::new();
        for f in &originals {
            packets.extend(enc.encode(f).expect("mpeg2 encoder: encode failed"));
        }
        packets.extend(enc.flush().expect("mpeg2 encoder: flush failed"));
        let mut decoded = Vec::new();
        for p in &packets {
            decoded.extend(dec.decode(&p.data).expect("mpeg2 decoder: packet rejected"));
        }
        decoded.extend(dec.flush());
        (originals, decoded)
    }

    #[test]
    fn single_intra_roundtrip_quality() {
        let (orig, dec) = roundtrip(4, 1, 2);
        assert_eq!(dec.len(), 1);
        let mut acc = SequencePsnr::new();
        acc.add(&orig[0], &dec[0]);
        assert!(acc.y_psnr() > 30.0, "I-frame PSNR {}", acc.y_psnr());
    }

    #[test]
    fn ipbb_stream_roundtrips_in_display_order() {
        let (orig, dec) = roundtrip(4, 7, 2);
        assert_eq!(dec.len(), 7);
        for (i, (o, d)) in orig.iter().zip(&dec).enumerate() {
            let mut acc = SequencePsnr::new();
            acc.add(o, d);
            assert!(
                acc.y_psnr() > 27.0,
                "frame {i} psnr {:.2} too low",
                acc.y_psnr()
            );
        }
    }

    #[test]
    fn ipp_stream_roundtrips() {
        let (orig, dec) = roundtrip(6, 5, 0);
        assert_eq!(dec.len(), 5);
        for (o, d) in orig.iter().zip(&dec) {
            let mut acc = SequencePsnr::new();
            acc.add(o, d);
            assert!(acc.y_psnr() > 26.0);
        }
    }

    #[test]
    fn lower_qscale_gives_higher_quality() {
        let quality = |q: u16| {
            let (orig, dec) = roundtrip(q, 4, 2);
            let mut acc = SequencePsnr::new();
            for (o, d) in orig.iter().zip(&dec) {
                acc.add(o, d);
            }
            acc.y_psnr()
        };
        let hi = quality(2);
        let lo = quality(24);
        assert!(hi > lo + 3.0, "q2 {hi:.1} vs q24 {lo:.1}");
    }

    #[test]
    fn non_aligned_dimensions_roundtrip() {
        let (w, h) = (60, 44);
        let mut enc =
            Mpeg2Encoder::new(EncoderConfig::new(w, h)).expect("mpeg2 encoder: config rejected");
        let mut dec = Mpeg2Decoder::new();
        let f = moving_frame(w, h, 0.0);
        let mut packets = enc.encode(&f).expect("mpeg2 encoder: encode failed");
        packets.extend(enc.flush().expect("mpeg2 encoder: flush failed"));
        let mut out = Vec::new();
        for p in &packets {
            out.extend(dec.decode(&p.data).expect("mpeg2 decoder: packet rejected"));
        }
        out.extend(dec.flush());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].width(), w);
        assert_eq!(out[0].height(), h);
    }

    #[test]
    fn decode_cross_simd_levels_is_identical() {
        // Encode once, decode with scalar and with SIMD: outputs must be
        // bit-identical (the property the Figure-1 harness relies on).
        let (w, h) = (64, 48);
        let mut enc =
            Mpeg2Encoder::new(EncoderConfig::new(w, h)).expect("mpeg2 encoder: config rejected");
        let mut packets = Vec::new();
        for i in 0..5 {
            packets.extend(
                enc.encode(&moving_frame(w, h, i as f64))
                    .expect("mpeg2 encoder: encode failed"),
            );
        }
        packets.extend(enc.flush().expect("mpeg2 encoder: flush failed"));
        let mut d_scalar = Mpeg2Decoder::with_simd(SimdLevel::Scalar);
        let mut d_simd = Mpeg2Decoder::with_simd(SimdLevel::Sse2);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for p in &packets {
            out_a.extend(
                d_scalar
                    .decode(&p.data)
                    .expect("mpeg2 decoder (scalar): packet rejected"),
            );
            out_b.extend(
                d_simd
                    .decode(&p.data)
                    .expect("mpeg2 decoder (sse2): packet rejected"),
            );
        }
        out_a.extend(d_scalar.flush());
        out_b.extend(d_simd.flush());
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn truncated_and_corrupt_packets_error_not_panic() {
        let (w, h) = (64, 48);
        let mut enc =
            Mpeg2Encoder::new(EncoderConfig::new(w, h)).expect("mpeg2 encoder: config rejected");
        let packets = enc
            .encode(&moving_frame(w, h, 0.0))
            .expect("mpeg2 encoder: encode failed");
        let data = &packets[0].data;
        for cut in [0, 1, 2, 5, data.len() / 2] {
            let mut dec = Mpeg2Decoder::new();
            let _ = dec.decode(&data[..cut]); // must not panic
        }
        let mut corrupt = data.clone();
        if corrupt.len() > 8 {
            corrupt[6] ^= 0xFF;
            corrupt[7] ^= 0xA5;
        }
        let mut dec = Mpeg2Decoder::new();
        let _ = dec.decode(&corrupt); // error or garbage frame, no panic
    }

    #[test]
    fn p_without_reference_is_an_error() {
        // Build a stream then feed the P packet to a fresh decoder.
        let (w, h) = (64, 48);
        let mut enc = Mpeg2Encoder::new(EncoderConfig::new(w, h).with_b_frames(0))
            .expect("mpeg2 encoder: config rejected");
        let _ = enc
            .encode(&moving_frame(w, h, 0.0))
            .expect("mpeg2 encoder: encode failed");
        let p = enc
            .encode(&moving_frame(w, h, 1.0))
            .expect("mpeg2 encoder: encode failed");
        let mut dec = Mpeg2Decoder::new();
        assert!(dec.decode(&p[0].data).is_err());
    }

    #[test]
    fn garbage_input_is_rejected() {
        let mut dec = Mpeg2Decoder::new();
        assert!(dec.decode(&[0xFF; 100]).is_err());
        assert!(dec.decode(&[]).is_err());
    }

    #[test]
    fn out_of_window_motion_vector_is_corrupt_not_panic() {
        // Decode a real I picture, then hand-craft a P packet whose first
        // macroblock carries a vector far outside the padded reference.
        let (w, h) = (16, 16);
        let mut enc = Mpeg2Encoder::new(EncoderConfig::new(w, h).with_b_frames(0))
            .expect("mpeg2 encoder: config rejected");
        let i_packets = enc
            .encode(&moving_frame(w, h, 0.0))
            .expect("mpeg2 encoder: encode failed");
        let mut dec = Mpeg2Decoder::new();
        for p in &i_packets {
            dec.decode(&p.data)
                .expect("mpeg2 decoder: I packet rejected");
        }
        let mut bw = hdvb_bits::BitWriter::new();
        bw.put_bits(MAGIC, 16);
        bw.put_bits(PacketKind::P.to_bits(), 2);
        bw.put_bits(1, 32); // display index
        bw.put_ue(w as u32);
        bw.put_ue(h as u32);
        bw.put_ue(5); // qscale
        bw.put_bits(0, 1); // not skipped
        bw.put_bits(0, 1); // not intra
        bw.put_se(1000); // mvd_x: within clamp range, far outside window
        bw.put_se(0);
        let err = dec
            .decode(&bw.finish())
            .expect_err("huge mv must be rejected");
        assert!(
            matches!(
                err,
                CodecError::Corrupt {
                    kind: CorruptKind::BadMotionVector,
                    ..
                }
            ),
            "unexpected error: {err}"
        );
        // The decoder survives: the next valid P packet still decodes.
        let p_packets = enc
            .encode(&moving_frame(w, h, 1.0))
            .expect("mpeg2 encoder: encode failed");
        for p in &p_packets {
            dec.decode(&p.data)
                .expect("mpeg2 decoder: recovery packet rejected");
        }
    }

    #[test]
    fn corrupt_errors_carry_bit_offsets() {
        let mut dec = Mpeg2Decoder::new();
        // Valid magic, then garbage: the error offset must be past the
        // 16-bit magic, and truncation must map to Truncated.
        let mut bw = hdvb_bits::BitWriter::new();
        bw.put_bits(MAGIC, 16);
        bw.put_bits(3, 2); // reserved frame type
        let err = dec.decode(&bw.finish()).expect_err("bad frame type");
        match err {
            CodecError::Corrupt { offset, kind, .. } => {
                assert_eq!(kind, CorruptKind::BadHeaderField);
                assert!(offset >= 16, "offset {offset} should be past the magic");
            }
            other => panic!("unexpected error: {other}"),
        }
        let err = dec.decode(&[]).expect_err("empty packet");
        assert!(matches!(
            err,
            CodecError::Corrupt {
                kind: CorruptKind::Truncated,
                ..
            }
        ));
    }
}
