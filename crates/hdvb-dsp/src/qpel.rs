//! Quarter-pel luma interpolation composed from the 6-tap half-pel
//! kernels, following the H.264 position rules (also used by the
//! MPEG-4-class codec: its standard's 8-tap filter is replaced by the
//! same-class 6-tap, see DESIGN.md).
//!
//! Two entry points share one position table:
//!
//! * [`Dsp::qpel_luma`] interpolates **one** block at **one** fraction —
//!   motion compensation (decoders, the encoders' final prediction) and
//!   the oracle the window is tested against.
//! * [`SubpelWindow`] serves sub-pel **motion refinement**, which scores
//!   17 candidates (centre, 8 half-pel, 8 quarter-pel) that all lie
//!   within ±3 quarter-pel of one full-pel vector. It filters the
//!   half-pel samples of that ±1-pel neighbourhood once and answers
//!   every candidate as a direct read or one `avg_block` (DESIGN.md §5,
//!   "Sub-pel refinement: one window, seventeen candidates").
//!
//! The source convention of `qpel_luma` matches the 6-tap kernels:
//! `src[0]` must be the sample **2 left and 2 above** the block origin,
//! with at least `w + 5` readable columns and `h + 6` readable rows (one
//! extra row and column beyond the filter support for the `+1`-shifted
//! quarter positions).
//!
//! # Position table
//!
//! Put the half-pel lattice over the picture: lattice point `(hx, hy)`
//! is the integer sample G when both are even, the horizontal half b
//! when only `hx` is odd, the vertical half h when only `hy` is odd and
//! the centre j when both are. A quarter-pel position `(qx, qy)` is
//!
//! | `qx` | `qy` | prediction |
//! |---|---|---|
//! | even | even | the lattice point `(qx/2, qy/2)` itself |
//! | odd | even | average of its left and right lattice neighbours |
//! | even | odd | average of its upper and lower lattice neighbours |
//! | odd | odd | average of the b and the h among its four diagonal neighbours |
//!
//! which is `qpel_luma`'s `match`, written for any position instead of
//! per fraction of one origin.

use crate::Dsp;
use hdvb_frame::PaddedPlane;

impl Dsp {
    /// Interpolates a `w`×`h` luma block at quarter-pel fraction
    /// `(fx, fy) ∈ {0..3}²`.
    ///
    /// `src` points 2 samples left and 2 rows above the block origin
    /// (see module docs); `w` must be a multiple of 4 for the SATD-based
    /// callers, and `h ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `fx` or `fy` exceeds 3 or the destination is too small.
    #[allow(clippy::too_many_arguments)]
    pub fn qpel_luma(
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
        assert!(fx < 4 && fy < 4, "quarter-pel fractions are 0..4");
        assert!(w * h <= 256, "qpel blocks are at most 16x16");
        let origin = 2 * src_stride + 2; // integer sample G
        match (fx, fy) {
            (0, 0) => self.copy_block(dst, dst_stride, &src[origin..], src_stride, w, h),
            (2, 0) => self.sixtap_h(dst, dst_stride, &src[2 * src_stride..], src_stride, w, h),
            (0, 2) => self.sixtap_v(dst, dst_stride, &src[2..], src_stride, w, h),
            (2, 2) => self.sixtap_hv(dst, dst_stride, src, src_stride, w, h),
            (1, 0) | (3, 0) => {
                // avg(integer, horizontal half); the 3/4 position uses the
                // next integer sample.
                let mut half = [0u8; 256];
                self.sixtap_h(&mut half, w, &src[2 * src_stride..], src_stride, w, h);
                let int_off = origin + usize::from(fx == 3);
                self.avg_block(dst, dst_stride, &src[int_off..], src_stride, &half, w, w, h);
            }
            (0, 1) | (0, 3) => {
                let mut half = [0u8; 256];
                self.sixtap_v(&mut half, w, &src[2..], src_stride, w, h);
                let int_off = origin + if fy == 3 { src_stride } else { 0 };
                self.avg_block(dst, dst_stride, &src[int_off..], src_stride, &half, w, w, h);
            }
            (1, 2) | (3, 2) => {
                // avg(vertical half, centre j), right-shifted for 3/4.
                let mut j = [0u8; 256];
                self.sixtap_hv(&mut j, w, src, src_stride, w, h);
                let mut v = [0u8; 256];
                let shift = usize::from(fx == 3);
                self.sixtap_v(&mut v, w, &src[2 + shift..], src_stride, w, h);
                self.avg_block(dst, dst_stride, &v, w, &j, w, w, h);
            }
            (2, 1) | (2, 3) => {
                let mut j = [0u8; 256];
                self.sixtap_hv(&mut j, w, src, src_stride, w, h);
                let mut hbuf = [0u8; 256];
                let shift = if fy == 3 { src_stride } else { 0 };
                self.sixtap_h(
                    &mut hbuf,
                    w,
                    &src[2 * src_stride + shift..],
                    src_stride,
                    w,
                    h,
                );
                self.avg_block(dst, dst_stride, &hbuf, w, &j, w, w, h);
            }
            _ => {
                // Diagonal quarters: avg(horizontal half, vertical half),
                // each shifted toward the quarter position.
                let hshift = if fy == 3 { src_stride } else { 0 };
                let vshift = usize::from(fx == 3);
                let mut hbuf = [0u8; 256];
                self.sixtap_h(
                    &mut hbuf,
                    w,
                    &src[2 * src_stride + hshift..],
                    src_stride,
                    w,
                    h,
                );
                let mut vbuf = [0u8; 256];
                self.sixtap_v(&mut vbuf, w, &src[2 + vshift..], src_stride, w, h);
                self.avg_block(dst, dst_stride, &hbuf, w, &vbuf, w, w, h);
            }
        }
    }
}

/// Row stride of every [`SubpelWindow`] plane.
const WIN_STRIDE: usize = 32;
/// Rows of every plane: a 16-row block plus one row above and below.
const WIN_ROWS: usize = 18;

/// The half-pel samples of one block's ±1-pel neighbourhood, filtered
/// once so that sub-pel motion refinement can score every candidate
/// without interpolating again (module docs).
///
/// Four planes, one per half-pel lattice parity (G, b, h, j), share one
/// layout: the sample of lattice point `(hx, hy)` — half-pel units
/// relative to the full-pel vector the window was filled at — for block
/// column `c` and row `r` lives at
/// `[((hy >> 1) + 1 + r) * 32 + (hx >> 1) + 1 + c]` of plane
/// `(hy & 1) * 2 + (hx & 1)`. Stack-only: 2.3 kB, no heap.
#[repr(align(32))]
pub struct SubpelWindow {
    planes: [[u8; WIN_STRIDE * WIN_ROWS]; 4],
    /// Block size of the last fill.
    bw: usize,
    bh: usize,
}

impl Default for SubpelWindow {
    fn default() -> Self {
        SubpelWindow::new()
    }
}

/// Runs `kernel(dst, src, width)` over `w` columns, `bw < w ≤ bw + 8`,
/// as a `bw`-wide tile plus an 8-wide tile ending at the last column
/// (the two overlap and agree): the SIMD tiers keep their multiple-of-8
/// fast path, and nothing right of column `w` (plus the kernel's own
/// support) is read.
fn tiled(
    w: usize,
    bw: usize,
    dst: &mut [u8],
    src: &[u8],
    kernel: impl Fn(&mut [u8], &[u8], usize),
) {
    kernel(dst, src, bw);
    kernel(&mut dst[w - 8..], &src[w - 8..], 8);
}

impl SubpelWindow {
    /// Row stride of the slices [`half`](Self::half) returns.
    pub const STRIDE: usize = WIN_STRIDE;

    /// An empty window; [`fill_sixtap`](Self::fill_sixtap) or
    /// [`fill_bilinear`](Self::fill_bilinear) it before reading
    /// candidates.
    pub fn new() -> Self {
        SubpelWindow {
            planes: [[0; WIN_STRIDE * WIN_ROWS]; 4],
            bw: 0,
            bh: 0,
        }
    }

    /// Shared precondition of the fills: a supported block size, and the
    /// whole read extent (`reach` samples around the block) inside the
    /// padded plane.
    fn check(refp: &PaddedPlane, x: isize, y: isize, bw: usize, bh: usize, reach: usize) {
        assert!(
            matches!(bw, 8 | 16) && matches!(bh, 8 | 16),
            "sub-pel windows serve 8- and 16-sample block sides"
        );
        let r = reach as isize;
        debug_assert!(
            refp.window_in_bounds(x - r, y - r, bw + 2 * reach, bh + 2 * reach),
            "sub-pel window at ({x},{y}) reads outside the padded reference"
        );
    }

    /// Fills the window with the H.264-class 6-tap half-pel samples
    /// around the `bw`×`bh` block whose displaced origin (block position
    /// plus full-pel vector) is picture coordinate `(x, y)` of `refp`.
    ///
    /// Reads exactly columns `x − 3 … x + bw + 2` and rows
    /// `y − 3 … y + bh + 2` — what the 17 `qpel_luma` calls of one
    /// refinement read between them — and that extent must lie inside
    /// the padded plane (checked in debug builds; the motion searches
    /// keep their winners 8 samples inside the padding).
    ///
    /// # Panics
    ///
    /// Panics if `bw` or `bh` is not 8 or 16.
    pub fn fill_sixtap(
        &mut self,
        dsp: &Dsp,
        refp: &PaddedPlane,
        x: isize,
        y: isize,
        bw: usize,
        bh: usize,
    ) {
        Self::check(refp, x, y, bw, bh, 3);
        let k = dsp.kernels();
        let s = refp.stride();
        let src = refp.row_from(x - 3, y - 3);
        let [g, b, h, j] = &mut self.planes;
        tiled(bw + 2, bw, g, &src[2 * s + 2..], |d, p, w| {
            (k.copy_block)(d, WIN_STRIDE, p, s, w, bh + 2)
        });
        tiled(bw + 1, bw, b, &src[2 * s..], |d, p, w| {
            (k.sixtap_h)(d, WIN_STRIDE, p, s, w, bh + 2)
        });
        tiled(bw + 2, bw, h, &src[2..], |d, p, w| {
            (k.sixtap_v)(d, WIN_STRIDE, p, s, w, bh + 1)
        });
        tiled(bw + 1, bw, j, src, |d, p, w| {
            (k.sixtap_hv)(d, WIN_STRIDE, p, s, w, bh + 1)
        });
        (self.bw, self.bh) = (bw, bh);
    }

    /// Fills the window with the bilinear half-pel samples of the
    /// MPEG-2-class codec ([`Dsp::hpel_interp`]'s three interpolated
    /// positions) around the block at `(x, y)`. Only the nine half-pel
    /// candidates are served: [`half`](Self::half) with
    /// `hx, hy ∈ −1..=1`. Reads columns `x − 1 … x + bw` and rows
    /// `y − 1 … y + bh`.
    ///
    /// # Panics
    ///
    /// Panics if `bw` or `bh` is not 8 or 16.
    pub fn fill_bilinear(
        &mut self,
        dsp: &Dsp,
        refp: &PaddedPlane,
        x: isize,
        y: isize,
        bw: usize,
        bh: usize,
    ) {
        Self::check(refp, x, y, bw, bh, 1);
        let k = dsp.kernels();
        let s = refp.stride();
        let src = refp.row_from(x - 1, y - 1);
        let [g, b, h, j] = &mut self.planes;
        // The centre is the only integer candidate; b is wanted on the
        // block's own rows and h on its own columns.
        (k.copy_block)(
            &mut g[WIN_STRIDE + 1..],
            WIN_STRIDE,
            &src[s + 1..],
            s,
            bw,
            bh,
        );
        tiled(bw + 1, bw, &mut b[WIN_STRIDE..], &src[s..], |d, p, w| {
            (k.hpel_interp)(d, WIN_STRIDE, p, s, 1, 0, w, bh)
        });
        (k.hpel_interp)(&mut h[1..], WIN_STRIDE, &src[1..], s, 0, 1, bw, bh + 1);
        tiled(bw + 1, bw, j, src, |d, p, w| {
            (k.hpel_interp)(d, WIN_STRIDE, p, s, 1, 1, w, bh + 1)
        });
        (self.bw, self.bh) = (bw, bh);
    }

    /// Width of the block the window was last filled for.
    pub fn width(&self) -> usize {
        self.bw
    }

    /// Height of the block the window was last filled for.
    pub fn height(&self) -> usize {
        self.bh
    }

    /// The prediction at half-pel lattice point `(hx, hy) ∈ −2..=2²`
    /// (half-pel units from the window's full-pel vector), read in place
    /// with row stride [`STRIDE`](Self::STRIDE).
    ///
    /// # Panics
    ///
    /// Panics if `hx` or `hy` leaves `−2..=2`.
    #[inline]
    pub fn half(&self, hx: i32, hy: i32) -> &[u8] {
        assert!(
            (-2..=2).contains(&hx) && (-2..=2).contains(&hy),
            "half-pel candidates lie within one pel of the centre"
        );
        let plane = &self.planes[((hy & 1) << 1 | (hx & 1)) as usize];
        let row = ((hy >> 1) + 1) as usize;
        let col = ((hx >> 1) + 1) as usize;
        &plane[row * WIN_STRIDE + col..]
    }

    /// The prediction at quarter-pel offset `(qx, qy) ∈ −3..=3²` from
    /// the window's full-pel vector, byte-identical to
    /// [`Dsp::qpel_luma`] at that vector: a read in place for the
    /// half-pel lattice, otherwise one `avg_block` into `scratch`
    /// (module docs, position table). Returns the samples and their row
    /// stride. Odd offsets are only meaningful after
    /// [`fill_sixtap`](Self::fill_sixtap); even ones are
    /// [`half`](Self::half) reads and serve a bilinear window too.
    ///
    /// # Panics
    ///
    /// Panics if `qx` or `qy` leaves `−3..=3`.
    pub fn quarter<'s>(
        &'s self,
        dsp: &Dsp,
        qx: i32,
        qy: i32,
        scratch: &'s mut [u8; 256],
    ) -> (&'s [u8], usize) {
        let (x0, x1) = ((qx - 1) >> 1, (qx + 1) >> 1);
        let (y0, y1) = ((qy - 1) >> 1, (qy + 1) >> 1);
        let (p, q) = match (qx & 1, qy & 1) {
            (0, 0) => return (self.half(qx >> 1, qy >> 1), WIN_STRIDE),
            (1, 0) => (self.half(x0, qy >> 1), self.half(x1, qy >> 1)),
            (0, 1) => (self.half(qx >> 1, y0), self.half(qx >> 1, y1)),
            _ => {
                // One of x0/x1 is odd and one even, likewise y0/y1:
                // b is (odd, even), h is (even, odd).
                let (xo, xe) = if x0 & 1 == 1 { (x0, x1) } else { (x1, x0) };
                let (yo, ye) = if y0 & 1 == 1 { (y0, y1) } else { (y1, y0) };
                (self.half(xo, ye), self.half(xe, yo))
            }
        };
        dsp.avg_block(
            scratch, self.bw, p, WIN_STRIDE, q, WIN_STRIDE, self.bw, self.bh,
        );
        (scratch, self.bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimdLevel;

    fn gradient_src(stride: usize, rows: usize) -> Vec<u8> {
        let mut v = vec![0u8; stride * rows];
        for y in 0..rows {
            for x in 0..stride {
                v[y * stride + x] = ((x * 4 + y * 4) % 250) as u8;
            }
        }
        v
    }

    #[test]
    fn integer_position_is_copy() {
        let dsp = Dsp::default();
        let src = gradient_src(32, 32);
        let mut dst = vec![0u8; 64];
        dsp.qpel_luma(&mut dst, 8, &src[4 * 32 + 4..], 32, 0, 0, 8, 8);
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(dst[y * 8 + x], src[(y + 6) * 32 + x + 6]);
            }
        }
    }

    #[test]
    fn quarter_positions_interpolate_linear_ramp() {
        // On the linear ramp f(x,y) = 4x + 4y every sub-pel position has
        // an exact value; all 16 fractions must land within ±1.
        let dsp = Dsp::default();
        let src = gradient_src(64, 64);
        for fy in 0..4u8 {
            for fx in 0..4u8 {
                let mut dst = vec![0u8; 64];
                dsp.qpel_luma(&mut dst, 8, &src[16 * 64 + 16..], 64, fx, fy, 8, 8);
                for y in 0..8 {
                    for x in 0..8 {
                        let exact = 4.0 * (18.0 + x as f64 + f64::from(fx) * 0.25)
                            + 4.0 * (18.0 + y as f64 + f64::from(fy) * 0.25);
                        let got = f64::from(dst[y * 8 + x]);
                        assert!(
                            (got - exact).abs() <= 1.5,
                            "({fx},{fy}) at ({x},{y}): {got} vs {exact}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_and_simd_agree_on_all_fractions() {
        let scalar = Dsp::new(SimdLevel::Scalar);
        let simd = Dsp::new(SimdLevel::Sse2);
        let mut src = vec![0u8; 64 * 64];
        let mut state = 11u32;
        for v in &mut src {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (state >> 24) as u8;
        }
        for fy in 0..4u8 {
            for fx in 0..4u8 {
                let mut a = vec![0u8; 16 * 16];
                let mut b = vec![0u8; 16 * 16];
                scalar.qpel_luma(&mut a, 16, &src[8 * 64 + 8..], 64, fx, fy, 16, 16);
                simd.qpel_luma(&mut b, 16, &src[8 * 64 + 8..], 64, fx, fy, 16, 16);
                assert_eq!(a, b, "fraction ({fx},{fy})");
            }
        }
    }

    #[test]
    fn flat_source_is_invariant_for_every_fraction() {
        let dsp = Dsp::default();
        let src = vec![99u8; 48 * 48];
        for fy in 0..4u8 {
            for fx in 0..4u8 {
                let mut dst = vec![0u8; 64];
                dsp.qpel_luma(&mut dst, 8, &src[8 * 48 + 8..], 48, fx, fy, 8, 8);
                assert!(dst.iter().all(|&v| v == 99), "fraction ({fx},{fy})");
            }
        }
    }

    fn noise_plane(w: usize, h: usize, pad: usize, seed: u32) -> PaddedPlane {
        let mut plane = hdvb_frame::Plane::new(w, h);
        let mut state = seed;
        for y in 0..h {
            for x in 0..w {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                plane.set(x, y, (state >> 24) as u8);
            }
        }
        PaddedPlane::from_plane(&plane, pad)
    }

    /// `qpel_luma` at quarter-pel offset `(qx, qy)` from `(x, y)`.
    fn oracle(dsp: &Dsp, refp: &PaddedPlane, x: isize, y: isize, qx: i32, qy: i32) -> [u8; 256] {
        let mut out = [0u8; 256];
        let src = refp.row_from(x + (qx >> 2) as isize - 2, y + (qy >> 2) as isize - 2);
        let (fx, fy) = ((qx & 3) as u8, (qy & 3) as u8);
        dsp.qpel_luma(&mut out, 16, src, refp.stride(), fx, fy, 16, 16);
        out
    }

    fn assert_block_eq(
        got: (&[u8], usize),
        want: &[u8],
        want_stride: usize,
        bw: usize,
        bh: usize,
        what: &str,
    ) {
        let (samples, stride) = got;
        for r in 0..bh {
            assert_eq!(
                &samples[r * stride..r * stride + bw],
                &want[r * want_stride..r * want_stride + bw],
                "{what}, row {r}"
            );
        }
    }

    const SIZES: [(usize, usize); 4] = [(16, 16), (16, 8), (8, 16), (8, 8)];

    #[test]
    fn window_matches_qpel_luma_for_every_size_offset_and_tier() {
        let refp = noise_plane(64, 48, 16, 7);
        for level in SimdLevel::supported_tiers() {
            let dsp = Dsp::new(level);
            let mut win = SubpelWindow::new();
            for (n, (bw, bh)) in SIZES.into_iter().enumerate() {
                // A different origin per size, one of them outside the
                // picture.
                let (x, y) = ([20, -6, 37, 5][n], [9, 30, -4, 21][n]);
                win.fill_sixtap(&dsp, &refp, x, y, bw, bh);
                for qy in -3..=3 {
                    for qx in -3..=3 {
                        let want = oracle(&dsp, &refp, x, y, qx, qy);
                        let mut scratch = [0u8; 256];
                        let got = win.quarter(&dsp, qx, qy, &mut scratch);
                        let what = format!("{level:?} {bw}x{bh} at ({qx},{qy})");
                        assert_block_eq(got, &want, 16, bw, bh, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn bilinear_window_matches_hpel_interp() {
        let refp = noise_plane(48, 40, 12, 41);
        for level in SimdLevel::supported_tiers() {
            let dsp = Dsp::new(level);
            let mut win = SubpelWindow::new();
            for (bw, bh, x, y) in [(16, 16, 13isize, 7isize), (8, 8, -3, 30)] {
                win.fill_bilinear(&dsp, &refp, x, y, bw, bh);
                for hy in -1..=1 {
                    for hx in -1..=1 {
                        let mut want = [0u8; 256];
                        let src = refp.row_from(x + (hx >> 1) as isize, y + (hy >> 1) as isize);
                        let (fx, fy) = ((hx & 1) as u8, (hy & 1) as u8);
                        dsp.hpel_interp(&mut want, 16, src, refp.stride(), fx, fy, bw, bh);
                        let what = format!("{level:?} {bw}x{bh} at ({hx},{hy})");
                        let got = (win.half(hx, hy), SubpelWindow::STRIDE);
                        assert_block_eq(got, &want, 16, bw, bh, &what);
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reads outside the padded reference")]
    fn fill_past_the_padding_is_caught_in_debug_builds() {
        let dsp = Dsp::default();
        let refp = noise_plane(32, 32, 16, 3);
        // Columns -14-3 .. reach one sample past the 16 of padding.
        SubpelWindow::new().fill_sixtap(&dsp, &refp, -14, 0, 16, 16);
    }
}
