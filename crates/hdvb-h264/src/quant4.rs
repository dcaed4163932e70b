//! Bit-exact H.264 4×4 quantisation (the MF/V derivation of the
//! standard), wrapped around the core transform in `hdvb-dsp`.

use crate::tables::{position_class, MF, V};
use hdvb_dsp::{Block4, Dsp};

/// The standard's rounding offset `f` for `qbits`: `2^qbits / 3` intra,
/// `/ 6` inter.
fn rounding(qbits: u32, intra: bool) -> i64 {
    (1i64 << qbits) / if intra { 3 } else { 6 }
}

/// Quantises transformed coefficients in place; returns the number of
/// nonzero levels. `intra` selects the standard's larger rounding offset
/// (f = 2^qbits/3 vs /6).
pub(crate) fn quant4(block: &mut Block4, qp: u8, intra: bool) -> u32 {
    let qbits = 15 + u32::from(qp) / 6;
    let f = rounding(qbits, intra);
    let mf = &MF[usize::from(qp) % 6];
    let mut nonzero = 0;
    for (i, v) in block.iter_mut().enumerate() {
        let w = i64::from(*v);
        let m = i64::from(mf[position_class(i)]);
        let z = ((w.abs() * m + f) >> qbits) as i32;
        let z = z.clamp(0, 2047);
        let signed = if w < 0 { -z } else { z };
        *v = signed as i16;
        if signed != 0 {
            nonzero += 1;
        }
    }
    nonzero
}

/// The largest Σ|d| of a 4×4 residual `d` that is certain to quantise to
/// all zeros at `qp` (DESIGN.md §5, "All-zero 4×4 blocks").
///
/// Row `u` of the core transform has coefficients of magnitude at most
/// `m_u`, `m = (1, 2, 1, 2)`, so `|W_uv| ≤ m_u·m_v·Σ|d|`, and `m_u·m_v`
/// is 1, 4 and 2 on position classes 0, 1 and 2. A level is zero iff
/// `|W|·MF + f < 2^qbits`, so every level is zero once
/// `Σ|d| ≤ ⌊(2^qbits − f − 1) / (m_c·MF_c)⌋` for each class `c`.
pub(crate) fn zero_block_bound(qp: u8, intra: bool) -> u32 {
    const GAIN: [i64; 3] = [1, 4, 2];
    let qbits = 15 + u32::from(qp) / 6;
    let headroom = (1i64 << qbits) - rounding(qbits, intra) - 1;
    let mf = &MF[usize::from(qp) % 6];
    let per_class = GAIN
        .iter()
        .zip(mf)
        .map(|(g, &m)| headroom / (g * i64::from(m)));
    per_class.min().unwrap_or(0) as u32
}

/// The forward residual path at one QP and prediction mode: core
/// transform and quantisation of a 4×4 residual, skipped — with the same
/// all-zero result — when the residual is within [`zero_block_bound`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Quant4 {
    qp: u8,
    intra: bool,
    zero_sad: u32,
}

impl Quant4 {
    pub(crate) fn new(qp: u8, intra: bool) -> Self {
        Quant4 {
            qp,
            intra,
            zero_sad: zero_block_bound(qp, intra),
        }
    }

    /// Transforms and quantises the residual `block` in place; returns
    /// the number of nonzero levels.
    pub(crate) fn forward(&self, dsp: &Dsp, block: &mut Block4) -> u32 {
        let sad: u32 = block.iter().map(|d| u32::from(d.unsigned_abs())).sum();
        if sad <= self.zero_sad {
            *block = [0; 16];
            return 0;
        }
        dsp.fcore4(block);
        quant4(block, self.qp, self.intra)
    }
}

/// Dequantises levels in place (`W' = Z · V · 2^(qp/6)`), clamped to a
/// safe inverse-transform input range.
pub(crate) fn dequant4(block: &mut Block4, qp: u8) {
    let shift = u32::from(qp) / 6;
    let v = &V[usize::from(qp) % 6];
    for (i, z) in block.iter_mut().enumerate() {
        if *z == 0 {
            continue;
        }
        let w = (i32::from(*z) * v[position_class(i)]) << shift;
        *z = w.clamp(-15000, 15000) as i16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdvb_dsp::Dsp;

    fn random_residual(seed: u32) -> Block4 {
        let mut state = seed;
        let mut b = [0i16; 16];
        for v in &mut b {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = ((state >> 20) as i16 % 511) - 255;
        }
        b
    }

    /// Full transform→quant→dequant→inverse pipeline error must be
    /// bounded by the quantisation step for the QP.
    #[test]
    fn pipeline_error_scales_with_qp() {
        let dsp = Dsp::default();
        let mut worst_low = 0i32;
        let mut worst_high = 0i32;
        for seed in 0..50 {
            let orig = random_residual(seed);
            for (qp, worst) in [(4u8, &mut worst_low), (40u8, &mut worst_high)] {
                let mut b = orig;
                dsp.fcore4(&mut b);
                quant4(&mut b, qp, true);
                dequant4(&mut b, qp);
                dsp.icore4(&mut b);
                for i in 0..16 {
                    *worst = (*worst).max((i32::from(b[i]) - i32::from(orig[i])).abs());
                }
            }
        }
        assert!(worst_low <= 2, "qp4 worst error {worst_low}");
        assert!(worst_high > worst_low, "high qp must be lossier");
        assert!(worst_high < 120, "qp40 worst error {worst_high}");
    }

    #[test]
    fn zero_block_stays_zero() {
        let mut b = [0i16; 16];
        assert_eq!(quant4(&mut b, 26, false), 0);
        dequant4(&mut b, 26);
        assert_eq!(b, [0i16; 16]);
    }

    #[test]
    fn higher_qp_zeroes_more() {
        let dsp = Dsp::default();
        let orig = random_residual(7);
        let nz = |qp: u8| {
            let mut b = orig;
            dsp.fcore4(&mut b);
            quant4(&mut b, qp, false)
        };
        assert!(nz(40) < nz(10));
    }

    #[test]
    fn intra_offset_rounds_more_generously() {
        // With the larger intra offset, borderline coefficients survive.
        let mut intra_block = [0i16; 16];
        let mut inter_block = [0i16; 16];
        // A coefficient right at the dead-zone boundary for qp 26.
        intra_block[1] = 60;
        inter_block[1] = 60;
        let a = quant4(&mut intra_block, 30, true);
        let b = quant4(&mut inter_block, 30, false);
        assert!(a >= b);
    }

    /// Residuals with Σ|d| exactly at the bound — a single spike at each
    /// position with either sign, and seeded random sign patterns — must
    /// quantise to all zeros at every QP, intra and inter; one more and
    /// some spike must not (the bound is the largest that holds).
    #[test]
    fn blocks_at_the_zero_block_bound_quantise_to_zero() {
        let dsp = Dsp::default();
        let mut state = 21u32;
        let mut next = |m: u32| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) % m
        };
        for qp in 0..=51u8 {
            for intra in [false, true] {
                let bound = zero_block_bound(qp, intra);
                let levels = |mut d: Block4| {
                    dsp.fcore4(&mut d);
                    quant4(&mut d, qp, intra)
                };
                let spike = |i: usize, v: i32| {
                    let mut d = [0i16; 16];
                    d[i] = v as i16;
                    d
                };
                for i in 0..16 {
                    for sign in [1, -1] {
                        let d = spike(i, sign * bound as i32);
                        assert_eq!(levels(d), 0, "qp {qp} intra {intra} spike at {i}");
                    }
                }
                for n in 0..200 {
                    // A random sign per position, then the bound dealt out
                    // over random positions: Σ|d| is exactly the bound.
                    let signs: [i16; 16] = std::array::from_fn(|_| [1, -1][next(2) as usize]);
                    let mut d = [0i16; 16];
                    let mut left = bound;
                    while left > 0 {
                        let amount = 1 + next(left);
                        let i = next(16) as usize;
                        d[i] += signs[i] * amount as i16;
                        left -= amount;
                    }
                    assert_eq!(levels(d), 0, "qp {qp} intra {intra} pattern {n}");
                }
                let past = (0..16).any(|i| levels(spike(i, bound as i32 + 1)) > 0);
                assert!(
                    past,
                    "qp {qp} intra {intra}: bound {bound} is not the largest"
                );
            }
        }
    }

    #[test]
    fn qp_steps_of_six_double_the_step() {
        // Reconstruction of a fixed level doubles when qp increases by 6.
        let mut b1 = [0i16; 16];
        b1[0] = 10;
        let mut b2 = b1;
        dequant4(&mut b1, 20);
        dequant4(&mut b2, 26);
        assert_eq!(i32::from(b2[0]), 2 * i32::from(b1[0]));
    }
}
