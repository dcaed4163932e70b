use crate::blocks::read_coeffs;
use crate::encoder::{build_b_prediction, predict_mb, RefPicture, RowState, MAGIC};
use hdvb_bits::picture::{read_picture_prefix, CodecError, PacketKind};
use hdvb_bits::{BitReader, CorruptKind};
use hdvb_dsp::{store_block_clamped, Dsp, SimdLevel, MPEG_DEFAULT_INTRA};
use hdvb_frame::{align_up, Frame, FramePool};
use hdvb_me::{reconstruct_inter, Mv, MvField};

/// Per-packet working storage, reused while the coded geometry stays the
/// same so steady-state decoding performs no heap allocation. Both
/// buffers are fully overwritten (or cleared) per picture.
struct DecScratch {
    recon: Frame,
    mvs: MvField,
}

/// The MPEG-2-class picture decoder: parses one packet into its
/// reconstructed display picture and keeps the anchors later pictures
/// predict from. Display reordering is `hdvb-core`'s.
pub struct Mpeg2Decoder {
    dsp: Dsp,
    prev_anchor: Option<RefPicture>,
    last_anchor: Option<RefPicture>,
    /// Reusable per-packet working storage.
    scratch: Option<DecScratch>,
}

impl Mpeg2Decoder {
    /// Creates a decoder at an explicit SIMD level (the Figure-1 axis).
    pub fn new(simd: SimdLevel) -> Self {
        Mpeg2Decoder {
            dsp: Dsp::new(simd),
            prev_anchor: None,
            last_anchor: None,
            scratch: None,
        }
    }

    /// Decodes the picture `r` holds and returns its type and its
    /// display picture, taken from the global [`FramePool`]. I and P
    /// pictures become the newest anchor. Per-packet working state is
    /// reused while the coded geometry stays constant, so a
    /// steady-state packet allocates nothing but the pooled output.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on malformed or truncated input, with a
    /// [`CorruptKind`]; its offset is left for the caller to stamp from
    /// `r`. A failed packet leaves the reference state untouched, so
    /// later packets can still decode.
    pub fn decode_picture(
        &mut self,
        r: &mut BitReader<'_>,
    ) -> Result<(PacketKind, Frame), CodecError> {
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
        let result = self.decode_body(r, kind, qscale, width, height, &mut scratch);
        self.scratch = Some(scratch);
        result.map(|display| (kind, display))
    }

    /// Decodes the picture body into `scratch.recon`, crops the display
    /// picture out of it and rotates the anchors. Nothing changes
    /// unless the whole picture decoded.
    fn decode_body(
        &mut self,
        r: &mut BitReader<'_>,
        kind: PacketKind,
        qscale: u16,
        width: usize,
        height: usize,
        scratch: &mut DecScratch,
    ) -> Result<Frame, CodecError> {
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
        if kind != PacketKind::B {
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
        Ok(display)
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

    fn encoder(w: usize, h: usize, qscale: u16, simd: SimdLevel) -> Mpeg2Encoder {
        Mpeg2Encoder::new(w, h, qscale, 24, simd).expect("mpeg2 encoder: config rejected")
    }

    fn decode(dec: &mut Mpeg2Decoder, data: &[u8]) -> Result<(PacketKind, Frame), CodecError> {
        dec.decode_picture(&mut BitReader::new(data))
    }

    /// Codes `frames` pictures as I P P … and decodes each packet as it
    /// comes (coding order is display order without B pictures).
    fn roundtrip(qscale: u16, frames: usize) -> (Vec<Frame>, Vec<Frame>) {
        let (w, h) = (64, 48);
        let mut enc = encoder(w, h, qscale, SimdLevel::detect());
        let mut dec = Mpeg2Decoder::new(SimdLevel::detect());
        let originals: Vec<Frame> = (0..frames).map(|i| moving_frame(w, h, i as f64)).collect();
        let decoded = originals
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let kind = if i == 0 { PacketKind::I } else { PacketKind::P };
                let p = enc.encode_picture(f, kind, i as u32);
                let (got, frame) = decode(&mut dec, &p.data).expect("mpeg2 decoder: rejected");
                assert_eq!(got, kind);
                frame
            })
            .collect();
        (originals, decoded)
    }

    #[test]
    fn single_intra_roundtrip_quality() {
        let (orig, dec) = roundtrip(4, 1);
        let mut acc = SequencePsnr::new();
        acc.add(&orig[0], &dec[0]);
        assert!(acc.y_psnr() > 30.0, "I-frame PSNR {}", acc.y_psnr());
    }

    #[test]
    fn lower_qscale_gives_higher_quality() {
        let quality = |q: u16| {
            let (orig, dec) = roundtrip(q, 4);
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
        let mut enc = encoder(w, h, 5, SimdLevel::detect());
        let mut dec = Mpeg2Decoder::new(SimdLevel::detect());
        let p = enc.encode_picture(&moving_frame(w, h, 0.0), PacketKind::I, 0);
        let (_, out) = decode(&mut dec, &p.data).expect("mpeg2 decoder: packet rejected");
        assert_eq!(out.width(), w);
        assert_eq!(out.height(), h);
    }

    #[test]
    fn decode_cross_simd_levels_is_identical() {
        // Encode once (I P B B P), decode with scalar and with SIMD:
        // outputs must be bit-identical (the property the Figure-1
        // harness relies on).
        let (w, h) = (64, 48);
        let mut enc = encoder(w, h, 5, SimdLevel::detect());
        let order = [
            (PacketKind::I, 0),
            (PacketKind::P, 3),
            (PacketKind::B, 1),
            (PacketKind::B, 2),
            (PacketKind::P, 4),
        ];
        let packets: Vec<_> = order
            .iter()
            .map(|&(kind, i)| enc.encode_picture(&moving_frame(w, h, f64::from(i)), kind, i))
            .collect();
        let mut d_scalar = Mpeg2Decoder::new(SimdLevel::Scalar);
        let mut d_simd = Mpeg2Decoder::new(SimdLevel::Sse2);
        for p in &packets {
            let a = decode(&mut d_scalar, &p.data).expect("mpeg2 decoder (scalar): rejected");
            let b = decode(&mut d_simd, &p.data).expect("mpeg2 decoder (sse2): rejected");
            assert_eq!(a, b, "picture {}", p.display_index);
        }
    }

    #[test]
    fn truncated_and_corrupt_packets_error_not_panic() {
        let (w, h) = (64, 48);
        let mut enc = encoder(w, h, 5, SimdLevel::detect());
        let data = enc
            .encode_picture(&moving_frame(w, h, 0.0), PacketKind::I, 0)
            .data;
        for cut in [0, 1, 2, 5, data.len() / 2] {
            let mut dec = Mpeg2Decoder::new(SimdLevel::detect());
            let _ = decode(&mut dec, &data[..cut]); // must not panic
        }
        let mut corrupt = data.clone();
        if corrupt.len() > 8 {
            corrupt[6] ^= 0xFF;
            corrupt[7] ^= 0xA5;
        }
        let mut dec = Mpeg2Decoder::new(SimdLevel::detect());
        let _ = decode(&mut dec, &corrupt); // error or garbage frame, no panic
    }

    #[test]
    fn p_without_reference_is_an_error() {
        // Build a stream then feed the P packet to a fresh decoder.
        let (w, h) = (64, 48);
        let mut enc = encoder(w, h, 5, SimdLevel::detect());
        let _ = enc.encode_picture(&moving_frame(w, h, 0.0), PacketKind::I, 0);
        let p = enc.encode_picture(&moving_frame(w, h, 1.0), PacketKind::P, 1);
        let mut dec = Mpeg2Decoder::new(SimdLevel::detect());
        assert!(decode(&mut dec, &p.data).is_err());
    }

    #[test]
    fn garbage_input_is_rejected() {
        let mut dec = Mpeg2Decoder::new(SimdLevel::detect());
        assert!(decode(&mut dec, &[0xFF; 100]).is_err());
        assert!(decode(&mut dec, &[]).is_err());
    }

    #[test]
    fn out_of_window_motion_vector_is_corrupt_not_panic() {
        // Decode a real I picture, then hand-craft a P packet whose first
        // macroblock carries a vector far outside the padded reference.
        let (w, h) = (16, 16);
        let mut enc = encoder(w, h, 5, SimdLevel::detect());
        let i_packet = enc.encode_picture(&moving_frame(w, h, 0.0), PacketKind::I, 0);
        let mut dec = Mpeg2Decoder::new(SimdLevel::detect());
        decode(&mut dec, &i_packet.data).expect("mpeg2 decoder: I packet rejected");
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
        let err = decode(&mut dec, &bw.finish()).expect_err("huge mv must be rejected");
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
        let p_packet = enc.encode_picture(&moving_frame(w, h, 1.0), PacketKind::P, 1);
        decode(&mut dec, &p_packet.data).expect("mpeg2 decoder: recovery packet rejected");
    }
}
