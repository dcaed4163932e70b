//! ABR transcode ladders: decode a source once, scale, and encode one
//! stream per rung.
//!
//! An adaptive-bitrate ladder is the production shape of transcode
//! traffic: a mezzanine stream is decoded **once** and re-encoded at
//! several resolutions ("rungs") so a player can switch between them as
//! bandwidth changes. Switching only works if the rung streams expose
//! decoder entry points at the *same display indices*; this runner
//! guarantees that by cutting every rung into the same fixed-length,
//! GOP-aligned **segments** and encoding each segment as a closed
//! stream with a fresh encoder — the same construction
//! [`encode_sequence_parallel`](crate::encode_sequence_parallel) uses
//! for GOP-level parallelism. Segment starts are therefore intra points
//! on every rung simultaneously, and splicing rung A's segments `0..k`
//! with rung B's segments `k..` yields a decodable stream (asserted by
//! `tests/ladder_conformance.rs`).
//!
//! Each (rung × segment) cell is an independent pure computation
//! (scale the segment's source frames, encode them, rebase display
//! indices), so running cells on a thread pool and splicing in fixed
//! order is **bit-identical** to the serial loop for any thread count —
//! the sweep-level determinism contract, not the weaker chunk-count one.

use crate::{create_encoder, decode_sequence, BenchError, CodecId, CodingOptions, Packet};
use hdvb_dsp::{Dsp, Scaler};
use hdvb_frame::{Frame, Resolution, SequencePsnr};
use hdvb_par::ThreadPool;
use std::time::{Duration, Instant};

/// Scales whole 4:2:0 frames between two fixed geometries.
///
/// Wraps two [`Scaler`]s (full-size luma, half-size chroma) so the
/// per-frame hot path allocates nothing. Both geometries must have even
/// dimensions (4:2:0) and the source must be at least 8×8 so the chroma
/// planes fit the scaler's 4-tap window.
#[derive(Clone, Debug)]
pub struct FrameScaler {
    luma: Scaler,
    chroma: Scaler,
    dst: Resolution,
}

impl FrameScaler {
    /// Creates a scaler from `src` to `dst` using `dsp`'s kernel tier.
    ///
    /// # Errors
    ///
    /// [`BenchError::BadRequest`] if the source is smaller than 8×8
    /// (the chroma planes would not fit the 4-tap window;
    /// [`Resolution`] itself already guarantees even nonzero
    /// dimensions).
    pub fn new(dsp: Dsp, src: Resolution, dst: Resolution) -> Result<FrameScaler, BenchError> {
        if src.width() < 8 || src.height() < 8 {
            return Err(BenchError::BadRequest("scaler source below 8x8"));
        }
        Ok(FrameScaler {
            luma: Scaler::new(dsp, src.width(), src.height(), dst.width(), dst.height()),
            chroma: Scaler::new(
                dsp,
                src.width() / 2,
                src.height() / 2,
                dst.width() / 2,
                dst.height() / 2,
            ),
            dst,
        })
    }

    /// The destination geometry.
    pub fn dst(&self) -> Resolution {
        self.dst
    }

    /// Scales `src` into a new frame at the destination geometry.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not match the source geometry.
    pub fn scale(&mut self, src: &Frame) -> Frame {
        let mut out = Frame::new(self.dst.width(), self.dst.height());
        self.scale_into(src, &mut out);
        out
    }

    /// Scales `src` into an existing destination-geometry frame (the
    /// zero-allocation form — pair with `FramePool`).
    ///
    /// # Panics
    ///
    /// Panics if either frame's geometry does not match the scaler's.
    pub fn scale_into(&mut self, src: &Frame, dst: &mut Frame) {
        let (sw, sh) = self.luma.src_size();
        assert_eq!((src.width(), src.height()), (sw, sh), "source geometry");
        assert_eq!(
            (dst.width(), dst.height()),
            (self.dst.width(), self.dst.height()),
            "destination geometry"
        );
        let (y, cb, cr) = dst.planes_mut();
        self.luma.scale(src.y().data(), y.data_mut());
        self.chroma.scale(src.cb().data(), cb.data_mut());
        self.chroma.scale(src.cr().data(), cr.data_mut());
    }
}

/// Configuration of one ladder run.
#[derive(Clone, Debug)]
pub struct LadderSpec {
    /// Codec used for every rung encode.
    pub codec: CodecId,
    /// Output resolutions, typically 3–5, highest first by convention
    /// (the order is preserved in the results).
    pub rungs: Vec<Resolution>,
    /// Segment length in frames — the switching granularity. Must be a
    /// positive multiple of the GOP length (`b_frames + 1`) so segment
    /// starts fall where the serial encoder would emit an anchor.
    pub switch_interval: u32,
    /// Coding options shared by all rungs (quantiser, B-frames, SIMD
    /// tier).
    pub options: CodingOptions,
}

impl LadderSpec {
    /// A conventional ladder for `src`: rungs at full, 2/3, 1/2 and 1/4
    /// of the source dimensions (dropping duplicates and anything under
    /// 16 pixels), switching every 4 GOPs.
    pub fn standard(codec: CodecId, src: Resolution, options: CodingOptions) -> LadderSpec {
        let mut rungs = Vec::new();
        for (num, den) in [(1u32, 1u32), (2, 3), (1, 2), (1, 4)] {
            // Round to even, keeping codec-friendly geometry.
            let dim = |v: u32| (v * num / den) & !1;
            let r = Resolution::new(dim(src.width() as u32), dim(src.height() as u32));
            if r.width() >= 16 && r.height() >= 16 && !rungs.contains(&r) {
                rungs.push(r);
            }
        }
        let gop = u32::from(options.b_frames) + 1;
        LadderSpec {
            codec,
            rungs,
            switch_interval: 4 * gop,
            options,
        }
    }
}

/// One encoded rung of a [`LadderResult`].
#[derive(Clone, Debug)]
pub struct RungResult {
    /// This rung's output geometry.
    pub resolution: Resolution,
    /// The spliced packet stream (display indices in sequence order).
    pub packets: Vec<Packet>,
    /// Index into [`packets`](RungResult::packets) where each segment
    /// begins — every one an intra entry point, at the same display
    /// index on every rung.
    pub segment_starts: Vec<usize>,
    /// Total encoded bits.
    pub bits: u64,
    /// Summed codec time across this rung's segment encodes.
    pub encode_time: Duration,
    /// Summed scaling time for this rung's input frames.
    pub scale_time: Duration,
    /// Luma PSNR of the decoded rung against its scaled source
    /// reference.
    pub psnr_y: f64,
}

impl RungResult {
    /// Bitrate in kbit/s at the source frame rate `fps`.
    pub fn bitrate_kbps(&self, fps: f64, frames: u32) -> f64 {
        if frames == 0 {
            return 0.0;
        }
        self.bits as f64 * fps / f64::from(frames) / 1000.0
    }
}

/// Outcome of [`run_ladder`].
#[derive(Clone, Debug)]
pub struct LadderResult {
    /// Number of source frames transcoded into every rung.
    pub frames: u32,
    /// The segment boundaries (frame ranges) shared by all rungs.
    pub segments: Vec<(u32, u32)>,
    /// Per-rung streams and metrics, in spec order.
    pub rungs: Vec<RungResult>,
    /// Wall-clock time of the fan-out region (scale + encode + verify).
    pub wall: Duration,
}

/// Splits `frames` into consecutive `interval`-length segments (the
/// last may be short).
fn segment_ranges(frames: u32, interval: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < frames {
        let end = frames.min(start + interval);
        out.push((start, end));
        start = end;
    }
    out
}

/// Transcodes `source` frames into every rung of `spec`, optionally
/// fanning the (rung × segment) cells across `pool`.
///
/// The output is **bit-identical** for any `pool` (including `None`):
/// each cell is a pure function of the source segment and the spec, and
/// cells are spliced in fixed order. Every rung is decoded after
/// encoding to verify conformance and measure PSNR against its scaled
/// reference.
///
/// # Errors
///
/// [`BenchError::BadRequest`] for an empty source, no rungs, a
/// `switch_interval` that is zero or not GOP-aligned, or rung geometry
/// the scaler/codecs reject; codec errors propagate from any cell.
pub fn run_ladder(
    source: &[Frame],
    spec: &LadderSpec,
    pool: Option<&ThreadPool>,
) -> Result<LadderResult, BenchError> {
    if source.is_empty() {
        return Err(BenchError::BadRequest(
            "ladder needs at least one source frame",
        ));
    }
    if spec.rungs.is_empty() {
        return Err(BenchError::BadRequest("ladder needs at least one rung"));
    }
    let gop = u32::from(spec.options.b_frames) + 1;
    if spec.switch_interval == 0 || !spec.switch_interval.is_multiple_of(gop) {
        return Err(BenchError::BadRequest(
            "switch interval must be a positive multiple of the GOP length",
        ));
    }
    let src_res = Resolution::new(source[0].width() as u32, source[0].height() as u32);
    // Validate every rung's geometry up front (cheap, clearer errors).
    for &rung in &spec.rungs {
        FrameScaler::new(Dsp::new(spec.options.simd), src_res, rung)?;
    }

    let frames = source.len() as u32;
    let segments = segment_ranges(frames, spec.switch_interval);
    let cells: Vec<(usize, u32, u32)> = spec
        .rungs
        .iter()
        .enumerate()
        .flat_map(|(ri, _)| segments.iter().map(move |&(s, e)| (ri, s, e)))
        .collect();

    let t0 = Instant::now();
    let spec_ref = &spec;
    let run_cell = |&(ri, start, end): &(usize, u32, u32)| -> Result<CellOutput, BenchError> {
        encode_cell(source, spec_ref, src_res, ri, start, end)
    };
    let parts: Vec<Result<CellOutput, BenchError>> = match pool {
        Some(pool) => pool.par_map(cells.clone(), |c| run_cell(&c))?,
        None => cells.iter().map(run_cell).collect(),
    };

    // Splice cells back into per-rung streams in fixed (rung, segment)
    // order — the order is the determinism contract.
    let mut rungs: Vec<RungResult> = spec
        .rungs
        .iter()
        .map(|&r| RungResult {
            resolution: r,
            packets: Vec::new(),
            segment_starts: Vec::new(),
            bits: 0,
            encode_time: Duration::ZERO,
            scale_time: Duration::ZERO,
            psnr_y: 0.0,
        })
        .collect();
    for (cell, part) in cells.iter().zip(parts) {
        let out = part?;
        let rung = &mut rungs[cell.0];
        rung.segment_starts.push(rung.packets.len());
        rung.bits += out.packets.iter().map(Packet::bits).sum::<u64>();
        rung.encode_time += out.encode_time;
        rung.scale_time += out.scale_time;
        rung.packets.extend(out.packets);
    }

    // Conformance + quality: every rung must decode to the full frame
    // count, measured against its own scaled reference.
    for rung in &mut rungs {
        let decoded = decode_sequence(spec.codec, &rung.packets, spec.options.simd)?;
        if decoded.frames.len() != source.len() {
            return Err(BenchError::Bitstream(format!(
                "rung {} decoded {} of {} frames",
                rung.resolution,
                decoded.frames.len(),
                source.len()
            )));
        }
        let mut scaler = FrameScaler::new(Dsp::new(spec.options.simd), src_res, rung.resolution)?;
        let mut acc = SequencePsnr::new();
        for (src, dec) in source.iter().zip(&decoded.frames) {
            acc.add(&scaler.scale(src), dec);
        }
        rung.psnr_y = acc.y_psnr();
    }

    Ok(LadderResult {
        frames,
        segments,
        rungs,
        wall: t0.elapsed(),
    })
}

struct CellOutput {
    packets: Vec<Packet>,
    encode_time: Duration,
    scale_time: Duration,
}

/// Encodes one (rung, segment) cell: scale the segment's source frames
/// to the rung geometry and run them through a fresh encoder, producing
/// a closed stream rebased to sequence display order.
fn encode_cell(
    source: &[Frame],
    spec: &LadderSpec,
    src_res: Resolution,
    rung_index: usize,
    start: u32,
    end: u32,
) -> Result<CellOutput, BenchError> {
    let rung = spec.rungs[rung_index];
    let mut scaler = FrameScaler::new(Dsp::new(spec.options.simd), src_res, rung)?;
    let mut enc = create_encoder(spec.codec, rung, &spec.options)?;
    let mut packets: Vec<Packet> = Vec::new();
    let mut encode_time = Duration::ZERO;
    let mut scale_time = Duration::ZERO;
    let mut scaled = Frame::new(rung.width(), rung.height());
    for i in start..end {
        let t = Instant::now();
        scaler.scale_into(&source[i as usize], &mut scaled);
        scale_time += t.elapsed();
        let t = Instant::now();
        enc.encode_frame_into(&scaled, &mut packets)?;
        encode_time += t.elapsed();
    }
    let t = Instant::now();
    enc.finish_into(&mut packets)?;
    encode_time += t.elapsed();
    for p in &mut packets {
        p.display_index += start;
    }
    Ok(CellOutput {
        packets,
        encode_time,
        scale_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdvb_dsp::SimdLevel;
    use hdvb_seq::{Sequence, SequenceId};

    fn source_frames(n: u32) -> Vec<Frame> {
        let seq = Sequence::new(SequenceId::BlueSky, Resolution::new(96, 64));
        (0..n).map(|i| seq.frame(i)).collect()
    }

    fn small_spec(codec: CodecId) -> LadderSpec {
        let options = CodingOptions::default().with_simd(SimdLevel::Scalar);
        LadderSpec {
            codec,
            rungs: vec![Resolution::new(96, 64), Resolution::new(48, 32)],
            switch_interval: 6,
            options,
        }
    }

    #[test]
    fn frame_scaler_roundtrips_geometry() {
        let mut fs = FrameScaler::new(
            Dsp::new(SimdLevel::Scalar),
            Resolution::new(96, 64),
            Resolution::new(48, 32),
        )
        .unwrap();
        let out = fs.scale(&source_frames(1)[0]);
        assert_eq!(out.width(), 48);
        assert_eq!(out.height(), 32);
        assert_eq!(out.cb().width(), 24);
    }

    #[test]
    fn tiny_source_is_rejected() {
        let err = FrameScaler::new(
            Dsp::new(SimdLevel::Scalar),
            Resolution::new(6, 6),
            Resolution::new(48, 32),
        );
        assert!(err.is_err());
    }

    #[test]
    fn misaligned_switch_interval_is_rejected() {
        let src = source_frames(6);
        let mut spec = small_spec(CodecId::Mpeg2);
        spec.switch_interval = 7; // gop is 3
        assert!(run_ladder(&src, &spec, None).is_err());
    }

    #[test]
    fn rungs_share_segment_display_indices() {
        let src = source_frames(12);
        let spec = small_spec(CodecId::Mpeg2);
        let result = run_ladder(&src, &spec, None).unwrap();
        assert_eq!(result.segments, vec![(0, 6), (6, 12)]);
        for rung in &result.rungs {
            assert_eq!(rung.segment_starts.len(), 2);
            for (&pi, &(seg_start, _)) in rung.segment_starts.iter().zip(&result.segments) {
                assert_eq!(rung.packets[pi].display_index, seg_start);
            }
            assert!(
                rung.psnr_y > 20.0,
                "rung {} psnr {}",
                rung.resolution,
                rung.psnr_y
            );
        }
    }

    #[test]
    fn standard_ladder_builds_sane_rungs() {
        let spec = LadderSpec::standard(
            CodecId::H264,
            Resolution::new(288, 160),
            CodingOptions::default(),
        );
        assert!(spec.rungs.len() >= 3);
        assert_eq!(spec.rungs[0], Resolution::new(288, 160));
        assert!(spec.rungs.iter().all(|r| r.width() % 2 == 0));
        assert_eq!(
            spec.switch_interval % (u32::from(spec.options.b_frames) + 1),
            0
        );
    }
}
