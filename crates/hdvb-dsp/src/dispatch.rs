use crate::{Block4, Block8, QuantMatrix};
use std::fmt;

/// Which kernel implementations a [`Dsp`] instance uses.
///
/// The benchmark's Figure 1 compares "scalar" codec builds against
/// "SIMD" builds; selecting the level at runtime lets one binary run both
/// halves of the experiment. Two SIMD tiers exist on x86-64: SSE2 (part
/// of the architectural baseline) and AVX2 (detected at runtime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar code only (the paper's "plain C" variant).
    Scalar,
    /// SSE2 vector kernels (the paper's "SIMD" variant).
    #[default]
    Sse2,
    /// AVX2 vector kernels (256-bit registers; requires runtime support).
    Avx2,
}

impl SimdLevel {
    /// The best level supported by the current CPU, determined by real
    /// runtime feature detection: [`SimdLevel::Avx2`] where the CPU
    /// reports AVX2, otherwise [`SimdLevel::Sse2`] on x86-64 (where SSE2
    /// is architecturally guaranteed), otherwise [`SimdLevel::Scalar`].
    pub fn detect() -> SimdLevel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdLevel::Avx2
            } else {
                SimdLevel::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::Scalar
        }
    }

    /// Parses a tier name: `scalar`, `sse2`, `avx2`, or `auto`/`simd`
    /// (both meaning "best detected level", preserving the historical
    /// `--simd simd` spelling).
    pub fn parse(name: &str) -> Option<SimdLevel> {
        match name {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            "simd" | "auto" => Some(SimdLevel::detect()),
            _ => None,
        }
    }

    /// The default level, honouring the `HDVB_SIMD` environment variable
    /// (`scalar|sse2|avx2|auto`) when set — the hook CI uses to run the
    /// whole suite over each dispatch tier — and falling back to
    /// [`detect`](Self::detect) otherwise (also when the value does not
    /// parse).
    pub fn preferred() -> SimdLevel {
        match std::env::var("HDVB_SIMD") {
            Ok(name) => SimdLevel::parse(&name).unwrap_or_else(SimdLevel::detect),
            Err(_) => SimdLevel::detect(),
        }
    }

    /// Whether this exact tier can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            SimdLevel::Sse2 => cfg!(target_arch = "x86_64"),
            SimdLevel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The tier that will actually run when this one is requested: an
    /// unsupported tier degrades to the next one down
    /// (AVX2 → SSE2 → scalar).
    pub fn effective(self) -> SimdLevel {
        match self {
            SimdLevel::Scalar => SimdLevel::Scalar,
            SimdLevel::Sse2 => {
                if SimdLevel::Sse2.is_supported() {
                    SimdLevel::Sse2
                } else {
                    SimdLevel::Scalar
                }
            }
            SimdLevel::Avx2 => {
                if SimdLevel::Avx2.is_supported() {
                    SimdLevel::Avx2
                } else {
                    SimdLevel::Sse2.effective()
                }
            }
        }
    }

    /// Every tier the current CPU can run, lowest first. Always contains
    /// [`SimdLevel::Scalar`]; used by the Figure-1 sweep and the kernel
    /// microbenchmarks to enumerate measurable variants.
    pub fn supported_tiers() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
            .into_iter()
            .filter(|l| l.is_supported())
            .collect()
    }

    /// Whether vector kernels will actually run at this level on this CPU.
    pub fn is_accelerated(self) -> bool {
        self.effective() != SimdLevel::Scalar
    }

    /// Short label used in reports ("scalar" / "simd"), mirroring the
    /// paper's legend. Both SIMD tiers share the "simd" label; use
    /// [`tier_name`](Self::tier_name) where the exact tier matters.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 | SimdLevel::Avx2 => "simd",
        }
    }

    /// Exact tier name ("scalar" / "sse2" / "avx2") for attribution in
    /// reports and machine-readable benchmark output.
    pub fn tier_name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// ------------------------------------------------------ kernel pointers --

/// Block-compare kernel (SAD or SATD):
/// `(a, a_stride, b, b_stride, w, h) -> cost`.
pub type CompareFn = fn(&[u8], usize, &[u8], usize, usize, usize) -> u32;
/// Fused quarter-pel compare: `(cur, cur_stride, p, q, stride, w, h)
/// -> cost` of `cur` against the rounded average of `p` and `q` (both
/// read with `stride`), as if `avg_block` had written it.
pub(crate) type CompareAvgFn = fn(&[u8], usize, &[u8], &[u8], usize, usize, usize) -> u32;

/// One block-compare metric resolved for one tier: its kernel and the
/// kernel's fused quarter-pel form, so a caller holding a metric scores
/// quarter-pel candidates without knowing which metric it holds.
///
/// Calling a `CostFn` like a function (it dereferences to its
/// [`CompareFn`]) compares against one prediction;
/// [`avg`](Self::avg) against the average of two.
#[derive(Clone, Copy)]
pub struct CostFn {
    plain: CompareFn,
    fused: CompareAvgFn,
}

impl CostFn {
    /// The cost of `cur` against the rounded average `(p + q + 1) >> 1`
    /// of two predictions read with one `stride` — equal to this metric
    /// on the block `avg_block` would write, without writing it.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn avg(
        &self,
        cur: &[u8],
        cur_stride: usize,
        p: &[u8],
        q: &[u8],
        stride: usize,
        w: usize,
        h: usize,
    ) -> u32 {
        (self.fused)(cur, cur_stride, p, q, stride, w, h)
    }
}

impl std::ops::Deref for CostFn {
    type Target = CompareFn;

    fn deref(&self) -> &CompareFn {
        &self.plain
    }
}
/// Sum of squared differences (64-bit accumulator for large planes).
pub type SsdFn = fn(&[u8], usize, &[u8], usize, usize, usize) -> u64;
/// In-place 8×8 transform.
pub type Block8Fn = fn(&mut Block8);
/// In-place 4×4 transform.
pub type Block4Fn = fn(&mut Block4);
/// Forward quantiser; returns the number of nonzero levels.
pub type Quant8Fn = fn(&mut Block8, &QuantMatrix, u16, bool) -> u32;
/// Inverse quantiser.
pub type Dequant8Fn = fn(&mut Block8, &QuantMatrix, u16, bool);
/// Block copy: `(dst, dst_stride, src, src_stride, w, h)`.
pub type CopyBlockFn = fn(&mut [u8], usize, &[u8], usize, usize, usize);
/// Rounded average of two blocks into `dst`.
pub type AvgBlockFn = fn(&mut [u8], usize, &[u8], usize, &[u8], usize, usize, usize);
/// Bilinear half-pel interpolation with `(fx, fy)` in half-pel units.
pub type HpelInterpFn = fn(&mut [u8], usize, &[u8], usize, u8, u8, usize, usize);
/// One-dimensional (or combined) 6-tap interpolation.
pub type SixtapFn = fn(&mut [u8], usize, &[u8], usize, usize, usize);
/// Residual reconstruction: `dst = clamp(pred + res)`.
pub type AddResidual8Fn = fn(&mut [u8], usize, &[u8], usize, &Block8);
/// Residual computation: `res = cur - pred`.
pub type DiffBlock8Fn = fn(&mut Block8, &[u8], usize, &[u8], usize);
/// Horizontal deblocking edge filter:
/// `(data, stride, q0_off, width, alpha, beta, tc)`.
pub type DeblockHorizFn = fn(&mut [u8], usize, usize, usize, i32, i32, i32);
/// Every vertical deblocking edge of a plane:
/// `(data, stride, width, height, alpha, beta, tc)`.
pub type DeblockVertFn = fn(&mut [u8], usize, usize, usize, i32, i32, i32);
/// Horizontal polyphase resample of one row:
/// `(dst, src, offsets, taps)` — output `i` is the 4-tap dot product of
/// `src[offsets[i]..offsets[i]+4]` with `taps[4i..4i+4]` (weights sum to
/// 128; see `ScaleFilter`).
pub type ScaleHFn = fn(&mut [u8], &[u8], &[u32], &[i16]);
/// Vertical polyphase blend of four rows into one output row with a
/// single 4-tap weight set: `(dst, r0, r1, r2, r3, taps)`.
pub type ScaleVFn = fn(&mut [u8], &[u8], &[u8], &[u8], &[u8], &[i16; 4]);

/// The full set of kernel entry points for one tier.
///
/// Resolved **once** in [`Dsp::new`]; every facade method is then a single
/// indirect call through this table, so the per-block hot path carries no
/// per-call level dispatch. Each entry is a *total* safe function: SIMD
/// entries perform their own width-fallback to scalar where a kernel
/// only handles 8-aligned widths.
pub(crate) struct KernelTable {
    pub(crate) sad: CompareFn,
    pub(crate) sad_avg: CompareAvgFn,
    pub(crate) satd: CompareFn,
    pub(crate) satd_avg: CompareAvgFn,
    pub(crate) ssd: SsdFn,
    pub(crate) fdct8: Block8Fn,
    pub(crate) idct8: Block8Fn,
    pub(crate) fcore4: Block4Fn,
    pub(crate) icore4: Block4Fn,
    pub(crate) quant8: Quant8Fn,
    pub(crate) dequant8: Dequant8Fn,
    pub(crate) copy_block: CopyBlockFn,
    pub(crate) avg_block: AvgBlockFn,
    pub(crate) hpel_interp: HpelInterpFn,
    pub(crate) sixtap_h: SixtapFn,
    pub(crate) sixtap_v: SixtapFn,
    pub(crate) sixtap_hv: SixtapFn,
    pub(crate) add_residual8: AddResidual8Fn,
    pub(crate) diff_block8: DiffBlock8Fn,
    pub(crate) deblock_horiz_edge: DeblockHorizFn,
    pub(crate) deblock_vert_edges: DeblockVertFn,
    pub(crate) scale_h: ScaleHFn,
    pub(crate) scale_v: ScaleVFn,
}

/// The scalar tier: the portable reference implementation of every
/// kernel. The 4×4 core transforms are exact in a handful of adds and
/// stay scalar in every tier's table.
pub(crate) static SCALAR_KERNELS: KernelTable = KernelTable {
    sad: crate::pixel::sad_scalar,
    sad_avg: crate::pixel::sad_avg_scalar,
    satd: crate::satd::satd_scalar,
    satd_avg: crate::satd::satd_avg_scalar,
    ssd: crate::pixel::ssd_scalar,
    fdct8: crate::dct8::fdct8_scalar,
    idct8: crate::dct8::idct8_scalar,
    fcore4: crate::dct4::fcore4,
    icore4: crate::dct4::icore4,
    quant8: crate::quant::quant8_scalar,
    dequant8: crate::quant::dequant8_scalar,
    copy_block: crate::pixel::copy_block,
    avg_block: crate::pixel::avg_block_scalar,
    hpel_interp: crate::interp::hpel_interp_scalar,
    sixtap_h: crate::interp::sixtap_h_scalar,
    sixtap_v: crate::interp::sixtap_v_scalar,
    sixtap_hv: crate::interp::sixtap_hv,
    add_residual8: crate::pixel::add_residual8_scalar,
    diff_block8: crate::pixel::diff_block8,
    deblock_horiz_edge: crate::deblock::deblock_horiz_edge_scalar,
    deblock_vert_edges: crate::deblock::deblock_vert_edges_scalar,
    scale_h: crate::scale::scale_row_h_scalar,
    scale_v: crate::scale::scale_row_v_scalar,
};

/// Dispatch table for all DSP kernels at a chosen [`SimdLevel`].
///
/// Codecs hold one `Dsp` and route every hot-loop operation through it.
/// The kernel pointers are resolved once at construction, so each call
/// is one indirect jump to the right tier — the branch target is a
/// constant the predictor learns immediately.
#[derive(Clone, Copy)]
pub struct Dsp {
    level: SimdLevel,
    kernels: &'static KernelTable,
}

impl fmt::Debug for Dsp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dsp").field("level", &self.level).finish()
    }
}

impl Default for Dsp {
    fn default() -> Self {
        Dsp::new(SimdLevel::preferred())
    }
}

impl Dsp {
    /// Creates a dispatcher at the given level, resolving the kernel
    /// table once. Requesting a tier the CPU cannot run silently
    /// degrades to the next supported one (AVX2 → SSE2 → scalar).
    pub fn new(level: SimdLevel) -> Self {
        let level = level.effective();
        let kernels: &'static KernelTable = match level {
            SimdLevel::Scalar => &SCALAR_KERNELS,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => &crate::sse2::SSE2_KERNELS,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => &crate::avx2::AVX2_KERNELS,
            #[cfg(not(target_arch = "x86_64"))]
            _ => &SCALAR_KERNELS,
        };
        Dsp { level, kernels }
    }

    /// The active level.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// The resolved SAD metric, for callers (motion search cost
    /// functions) that want to hold the kernels directly instead of
    /// going through the facade.
    pub fn sad_fn(&self) -> CostFn {
        CostFn {
            plain: self.kernels.sad,
            fused: self.kernels.sad_avg,
        }
    }

    /// The resolved SATD metric (see [`sad_fn`](Self::sad_fn)).
    pub fn satd_fn(&self) -> CostFn {
        CostFn {
            plain: self.kernels.satd,
            fused: self.kernels.satd_avg,
        }
    }

    /// The resolved table, for sibling modules implementing facade
    /// methods outside this file.
    #[inline]
    pub(crate) fn kernels(&self) -> &'static KernelTable {
        self.kernels
    }

    /// Sum of absolute differences between a `w`×`h` block at the start of
    /// `a` (row stride `a_stride`) and one at the start of `b`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the slices are too short for the
    /// requested geometry.
    #[inline]
    pub fn sad(
        &self,
        a: &[u8],
        a_stride: usize,
        b: &[u8],
        b_stride: usize,
        w: usize,
        h: usize,
    ) -> u32 {
        (self.kernels.sad)(a, a_stride, b, b_stride, w, h)
    }

    /// Sum of absolute transformed differences (4×4 Hadamard) over a
    /// `w`×`h` block; `w` and `h` must be multiples of 4.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is not a multiple of 4.
    #[inline]
    pub fn satd(
        &self,
        a: &[u8],
        a_stride: usize,
        b: &[u8],
        b_stride: usize,
        w: usize,
        h: usize,
    ) -> u32 {
        assert!(
            w.is_multiple_of(4) && h.is_multiple_of(4),
            "satd blocks must be 4-aligned"
        );
        (self.kernels.satd)(a, a_stride, b, b_stride, w, h)
    }

    /// Sum of squared differences over a `w`×`h` block.
    #[inline]
    pub fn ssd(
        &self,
        a: &[u8],
        a_stride: usize,
        b: &[u8],
        b_stride: usize,
        w: usize,
        h: usize,
    ) -> u64 {
        (self.kernels.ssd)(a, a_stride, b, b_stride, w, h)
    }

    /// Forward 8×8 DCT (fixed-point, MPEG-class codecs). Input residuals
    /// must lie in `[-256, 255]`.
    #[inline]
    pub fn fdct8(&self, block: &mut Block8) {
        (self.kernels.fdct8)(block)
    }

    /// Inverse 8×8 DCT matching [`fdct8`](Self::fdct8). Dequantised
    /// coefficients must be clamped to `[-4095, 4095]` first.
    #[inline]
    pub fn idct8(&self, block: &mut Block8) {
        (self.kernels.idct8)(block)
    }

    /// H.264 4×4 forward core transform (bit-exact, integer).
    #[inline]
    pub fn fcore4(&self, block: &mut Block4) {
        (self.kernels.fcore4)(block)
    }

    /// H.264 4×4 inverse core transform (bit-exact, includes the final
    /// `>> 6` normalisation).
    #[inline]
    pub fn icore4(&self, block: &mut Block4) {
        (self.kernels.icore4)(block)
    }

    /// MPEG-style quantisation of an 8×8 coefficient block with a weight
    /// matrix and quantiser scale. Returns the number of nonzero levels.
    ///
    /// All tiers produce identical levels: the SIMD paths compute the
    /// divisions exactly (via double-precision division, which is exact
    /// for this operand range), so the choice of tier never changes the
    /// bitstream.
    #[inline]
    pub fn quant8(
        &self,
        block: &mut Block8,
        matrix: &QuantMatrix,
        qscale: u16,
        intra: bool,
    ) -> u32 {
        (self.kernels.quant8)(block, matrix, qscale, intra)
    }

    /// Inverse of [`quant8`](Self::quant8); output clamped to
    /// `[-4095, 4095]`.
    #[inline]
    pub fn dequant8(&self, block: &mut Block8, matrix: &QuantMatrix, qscale: u16, intra: bool) {
        (self.kernels.dequant8)(block, matrix, qscale, intra)
    }

    /// Copies a `w`×`h` block.
    #[inline]
    pub fn copy_block(
        &self,
        dst: &mut [u8],
        dst_stride: usize,
        src: &[u8],
        src_stride: usize,
        w: usize,
        h: usize,
    ) {
        (self.kernels.copy_block)(dst, dst_stride, src, src_stride, w, h)
    }

    /// Rounded average of two blocks (`(a + b + 1) >> 1`), the kernel for
    /// bi-prediction and half-pel averaging.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn avg_block(
        &self,
        dst: &mut [u8],
        dst_stride: usize,
        a: &[u8],
        a_stride: usize,
        b: &[u8],
        b_stride: usize,
        w: usize,
        h: usize,
    ) {
        (self.kernels.avg_block)(dst, dst_stride, a, a_stride, b, b_stride, w, h)
    }

    /// Bilinear half-pel interpolation with fractional offsets
    /// `(fx, fy) ∈ {0, 1}²` in half-pel units (MPEG-2/MPEG-4 motion
    /// compensation).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn hpel_interp(
        &self,
        dst: &mut [u8],
        dst_stride: usize,
        src: &[u8],
        src_stride: usize,
        fx: u8,
        fy: u8,
        w: usize,
        h: usize,
    ) {
        (self.kernels.hpel_interp)(dst, dst_stride, src, src_stride, fx, fy, w, h)
    }

    /// H.264-style 6-tap half-pel filter `(1,-5,20,20,-5,1)/32` in the
    /// horizontal direction; `src[0]` must be 2 samples left of the block
    /// origin.
    #[inline]
    pub fn sixtap_h(
        &self,
        dst: &mut [u8],
        dst_stride: usize,
        src: &[u8],
        src_stride: usize,
        w: usize,
        h: usize,
    ) {
        (self.kernels.sixtap_h)(dst, dst_stride, src, src_stride, w, h)
    }

    /// H.264-style 6-tap half-pel filter in the vertical direction;
    /// `src[0]` must be 2 rows above the block origin.
    #[inline]
    pub fn sixtap_v(
        &self,
        dst: &mut [u8],
        dst_stride: usize,
        src: &[u8],
        src_stride: usize,
        w: usize,
        h: usize,
    ) {
        (self.kernels.sixtap_v)(dst, dst_stride, src, src_stride, w, h)
    }

    /// 6-tap filter applied in both directions (the H.264 "j" position):
    /// horizontal first at intermediate precision, then vertical;
    /// `src[0]` must be 2 samples left and 2 rows above the block origin.
    ///
    /// # Panics
    ///
    /// Panics if `w` exceeds 16 or `h` exceeds 17 (a macroblock plus the
    /// extra row of the sub-pel refinement window).
    #[inline]
    pub fn sixtap_hv(
        &self,
        dst: &mut [u8],
        dst_stride: usize,
        src: &[u8],
        src_stride: usize,
        w: usize,
        h: usize,
    ) {
        (self.kernels.sixtap_hv)(dst, dst_stride, src, src_stride, w, h)
    }

    /// Adds a residual block to a prediction with saturation:
    /// `dst = clamp(pred + res)`.
    #[inline]
    pub fn add_residual8(
        &self,
        dst: &mut [u8],
        dst_stride: usize,
        pred: &[u8],
        pred_stride: usize,
        res: &Block8,
    ) {
        (self.kernels.add_residual8)(dst, dst_stride, pred, pred_stride, res)
    }

    /// Computes the residual `res = cur - pred` for an 8×8 block.
    #[inline]
    pub fn diff_block8(
        &self,
        res: &mut Block8,
        cur: &[u8],
        cur_stride: usize,
        pred: &[u8],
        pred_stride: usize,
    ) {
        (self.kernels.diff_block8)(res, cur, cur_stride, pred, pred_stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_accelerated_on_x86_64() {
        #[cfg(target_arch = "x86_64")]
        {
            let detected = SimdLevel::detect();
            assert!(detected == SimdLevel::Sse2 || detected == SimdLevel::Avx2);
            assert!(detected.is_accelerated());
            // detect() must agree with per-tier support queries.
            assert_eq!(detected == SimdLevel::Avx2, SimdLevel::Avx2.is_supported());
        }
    }

    #[test]
    fn labels() {
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
        assert_eq!(SimdLevel::Sse2.to_string(), "simd");
        assert_eq!(SimdLevel::Avx2.to_string(), "simd");
        assert_eq!(SimdLevel::Scalar.tier_name(), "scalar");
        assert_eq!(SimdLevel::Sse2.tier_name(), "sse2");
        assert_eq!(SimdLevel::Avx2.tier_name(), "avx2");
    }

    #[test]
    fn parse_round_trips_tier_names() {
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            assert_eq!(SimdLevel::parse(level.tier_name()), Some(level));
        }
        assert_eq!(SimdLevel::parse("auto"), Some(SimdLevel::detect()));
        assert_eq!(SimdLevel::parse("simd"), Some(SimdLevel::detect()));
        assert_eq!(SimdLevel::parse("neon"), None);
    }

    #[test]
    fn unsupported_tier_degrades() {
        // Whatever the CPU, requesting every tier must yield a supported
        // effective tier, and Dsp::new must accept it.
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            let eff = level.effective();
            assert!(eff.is_supported());
            assert_eq!(Dsp::new(level).level(), eff);
        }
    }

    #[test]
    fn supported_tiers_starts_with_scalar() {
        let tiers = SimdLevel::supported_tiers();
        assert_eq!(tiers[0], SimdLevel::Scalar);
        assert!(tiers.contains(&SimdLevel::detect()));
    }

    #[test]
    fn dsp_default_uses_preferred_level() {
        let d = Dsp::default();
        assert_eq!(d.level(), SimdLevel::preferred().effective());
    }

    #[test]
    fn resolved_sad_fn_matches_facade() {
        let d = Dsp::default();
        let f = d.sad_fn();
        let a = [9u8; 256];
        let b = [17u8; 256];
        assert_eq!(f(&a, 16, &b, 16, 16, 16), d.sad(&a, 16, &b, 16, 16, 16));
    }
}
