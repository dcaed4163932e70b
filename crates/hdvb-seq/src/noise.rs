use crate::SplitMix;

/// Seeded value noise over a 2-D lattice with smooth interpolation and
/// octave stacking — the texture primitive behind all four generators.
///
/// Sampling is stateless: `sample(x, y)` is a pure function of the seed
/// and coordinates, so generators can evaluate any frame independently.
///
/// # Example
///
/// ```
/// use hdvb_seq::ValueNoise;
///
/// let n = ValueNoise::new(7);
/// let v = n.fbm(1.5, 2.25, 3);
/// assert!((-1.0..=1.0).contains(&v));
/// assert_eq!(v, ValueNoise::new(7).fbm(1.5, 2.25, 3));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ValueNoise {
    seed: u64,
}

impl ValueNoise {
    /// Creates a noise field from a seed.
    pub fn new(seed: u64) -> Self {
        ValueNoise { seed }
    }

    /// Lattice value in `[-1, 1]` at integer coordinates.
    fn lattice(&self, ix: i64, iy: i64) -> f64 {
        let h = SplitMix::hash3(self.seed, ix as u64, iy as u64);
        (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Smoothly interpolated noise in `[-1, 1]` at continuous
    /// coordinates.
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        self.sample_in(&mut None, x, y)
    }

    /// Fractal Brownian motion: `octaves` noise layers at doubling
    /// frequency and halving amplitude, normalised to `[-1, 1]`.
    pub fn fbm(&self, x: f64, y: f64, octaves: u32) -> f64 {
        self.fbm_in(&mut [], x, y, octaves)
    }

    /// [`sample`](Self::sample) through a cached lattice cell: the four
    /// corner values are re-hashed only when `(x, y)` leaves `cell`.
    /// Corner values are a pure function of the seed and the cell, so the
    /// result is the same as without the cache.
    #[inline(always)]
    fn sample_in(&self, cell: &mut Option<Cell>, x: f64, y: f64) -> f64 {
        let ix = floor(x);
        let iy = floor(y);
        let fx = x - ix;
        let fy = y - iy;
        let sx = fx * fx * (3.0 - 2.0 * fx); // smoothstep
        let sy = fy * fy * (3.0 - 2.0 * fy);
        let (ix, iy) = (ix as i64, iy as i64);
        let c = match cell {
            Some(c) if c.ix == ix && c.iy == iy => c,
            _ => cell.insert(Cell {
                ix,
                iy,
                v: [
                    self.lattice(ix, iy),
                    self.lattice(ix + 1, iy),
                    self.lattice(ix, iy + 1),
                    self.lattice(ix + 1, iy + 1),
                ],
            }),
        };
        let [v00, v10, v01, v11] = c.v;
        let top = v00 + (v10 - v00) * sx;
        let bot = v01 + (v11 - v01) * sx;
        top + (bot - top) * sy
    }

    /// [`fbm`](Self::fbm) with octave `o` sampled through `cells[o]`;
    /// octaves beyond `cells` sample through a fresh cell.
    #[inline(always)]
    fn fbm_in(&self, cells: &mut [Option<Cell>], x: f64, y: f64, octaves: u32) -> f64 {
        let mut sum = 0.0;
        let mut amp = 1.0;
        let mut freq = 1.0;
        let mut norm = 0.0;
        for o in 0..octaves.max(1) {
            // Offset each octave so they do not share lattice points.
            let off = o as f64 * 17.137;
            let mut fresh = None;
            let cell = cells.get_mut(o as usize).unwrap_or(&mut fresh);
            sum += amp * self.sample_in(cell, x * freq + off, y * freq + off);
            norm += amp;
            amp *= 0.5;
            freq *= 2.0;
        }
        sum / norm
    }
}

/// A lattice cell and its four corner values `v00, v10, v01, v11`.
#[derive(Clone, Copy)]
struct Cell {
    ix: i64,
    iy: i64,
    v: [f64; 4],
}

/// One `fbm` call site of `OCTAVES` octaves that remembers each octave's
/// last lattice cell. A renderer walks its pixels in raster order, so
/// neighbouring calls mostly land in the cells of the previous call and
/// skip the four corner hashes; [`at`](Self::at) returns exactly
/// `noise.fbm(x, y, OCTAVES)`.
pub(crate) struct FbmCursor<const OCTAVES: usize> {
    noise: ValueNoise,
    cells: [Option<Cell>; OCTAVES],
}

impl<const OCTAVES: usize> FbmCursor<OCTAVES> {
    pub(crate) fn new(noise: ValueNoise) -> Self {
        FbmCursor {
            noise,
            cells: [None; OCTAVES],
        }
    }

    /// `fbm(x, y, OCTAVES)` of the cursor's noise field.
    #[inline]
    pub(crate) fn at(&mut self, x: f64, y: f64) -> f64 {
        self.noise.fbm_in(&mut self.cells, x, y, OCTAVES as u32)
    }
}

/// 2^52: from here up every finite `f64` is an integer.
const TWO_POW_52: f64 = (1u64 << 52) as f64;

/// `x.floor()` without the libm call that the baseline x86-64 target
/// (no SSE4.1 `roundsd`) makes for it. Below 2^52 in magnitude the
/// truncating conversion is exact and the floor is one step below it
/// for negative non-integers; `copysign` keeps `-0.0`'s sign. From 2^52
/// up every finite `f64` is already an integer, so those values, the
/// infinities and NaN take `f64::floor`.
///
/// For finite `x >= 0`, `x - floor(x)` is `x.fract()` bit for bit (both
/// subtract the truncation, and the floor is the truncation there), so
/// the renderers take fractional parts that way: `fract` is a call into
/// software `trunc` on the same target.
#[inline]
pub(crate) fn floor(x: f64) -> f64 {
    if x.abs() < TWO_POW_52 {
        let t = (x as i64 as f64).copysign(x);
        if t > x {
            t - 1.0
        } else {
            t
        }
    } else {
        x.floor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_continuous() {
        let n = ValueNoise::new(3);
        // Adjacent samples differ by a bounded amount.
        let mut prev = n.sample(0.0, 0.5);
        for i in 1..200 {
            let v = n.sample(i as f64 * 0.05, 0.5);
            assert!((v - prev).abs() < 0.35, "jump at {i}: {prev} -> {v}");
            prev = v;
        }
    }

    #[test]
    fn range_is_bounded() {
        let n = ValueNoise::new(11);
        for i in 0..500 {
            let v = n.fbm(i as f64 * 0.173, i as f64 * 0.091, 4);
            assert!((-1.0..=1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let a = ValueNoise::new(1);
        let b = ValueNoise::new(2);
        let mut same = 0;
        for i in 0..100 {
            let x = i as f64 * 0.37;
            if (a.sample(x, 0.0) - b.sample(x, 0.0)).abs() < 1e-6 {
                same += 1;
            }
        }
        assert!(same < 5);
    }

    #[test]
    fn matches_lattice_at_integers() {
        let n = ValueNoise::new(5);
        // At integer coordinates interpolation weight is zero.
        let direct = n.sample(3.0, 4.0);
        assert!((-1.0..=1.0).contains(&direct));
        // Moving a full cell changes the governing lattice point.
        assert_ne!(n.sample(3.0, 4.0), n.sample(4.0, 4.0));
    }

    #[test]
    fn floor_matches_libm_bit_for_bit() {
        let two52 = TWO_POW_52;
        let below = |v: f64| f64::from_bits(v.to_bits() - 1); // one ulp toward zero
        let mut cases = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            0.5,
            -0.5,
            below(1.0),
            -below(1.0),
            two52,
            -two52,
            below(two52),
            -below(two52),
            2.0 * two52,
            -2.0 * two52,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for k in 1..=64 {
            let n = f64::from(k);
            // Integers, negative ones included, and one ulp either side.
            cases.extend([n, -n, below(n), -below(n), n + n * f64::EPSILON]);
            cases.extend([-(n + n * f64::EPSILON), n * 1e15, -n * 1e15]);
        }
        for x in cases {
            assert_eq!(floor(x).to_bits(), x.floor().to_bits(), "floor({x:e})");
        }
        assert!(floor(f64::NAN).is_nan());
    }

    #[test]
    fn fbm_stays_within_one() {
        // The premise of blue_sky's sign-only tree rims (DESIGN.md,
        // "Rendering the camera sequences"): |fbm| <= 1 everywhere.
        let mut rng = SplitMix::new(0xF8B);
        for i in 0..1_000_000u32 {
            let n = ValueNoise::new(u64::from(i % 7));
            let x = rng.next_range(-500.0, 500.0);
            let y = rng.next_range(-500.0, 500.0);
            let v = n.fbm(x, y, 1 + i % 4);
            assert!(v.abs() <= 1.0, "fbm({x}, {y}) = {v}");
        }
    }

    #[test]
    fn cursor_returns_fbm_exactly() {
        // Raster walks at several frequencies, rows crossing negative
        // coordinates, plus a scattered walk that changes cell every call.
        let n = ValueNoise::new(0x5EED);
        for scale in [0.01, 0.3, 2.7] {
            let mut c2 = FbmCursor::<2>::new(n);
            let mut c3 = FbmCursor::<3>::new(n);
            for row in 0..24 {
                for col in 0..80 {
                    let (x, y) = ((col - 40) as f64 * scale, (row - 12) as f64 * scale * 0.7);
                    assert_eq!(c2.at(x, y).to_bits(), n.fbm(x, y, 2).to_bits());
                    assert_eq!(c3.at(x, y).to_bits(), n.fbm(x, y, 3).to_bits());
                }
            }
        }
        let mut rng = SplitMix::new(9);
        let mut c = FbmCursor::<3>::new(n);
        for _ in 0..2000 {
            let (x, y) = (rng.next_range(-9.0, 9.0), rng.next_range(-9.0, 9.0));
            assert_eq!(c.at(x, y).to_bits(), n.fbm(x, y, 3).to_bits());
        }
    }

    #[test]
    fn variance_is_nontrivial() {
        let n = ValueNoise::new(21);
        let vals: Vec<f64> = (0..1000)
            .map(|i| n.fbm((i % 40) as f64 * 0.31, (i / 40) as f64 * 0.29, 3))
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        assert!(var > 0.01, "variance {var} too small");
    }
}
