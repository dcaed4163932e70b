/// One splitmix64 draw keyed on `x` — `SplitMix::new(x).next_u64()`
/// without the generator. The workspace's one copy of the function:
/// retry jitter, seeded fault decisions and load-generator arrival
/// times all key a draw on `(seed, index)` through it (re-exported as
/// `hdvb_core::splitmix64`).
pub fn splitmix64(x: u64) -> u64 {
    SplitMix::new(x).next_u64()
}

/// A tiny deterministic PRNG (SplitMix64) used by the sequence
/// generators.
///
/// The generators must be pure functions of `(sequence, frame index)`;
/// SplitMix's stateless `hash` form gives reproducible per-coordinate
/// randomness without carrying state across frames.
///
/// # Example
///
/// ```
/// use hdvb_seq::SplitMix;
///
/// let mut a = SplitMix::new(42);
/// let mut b = SplitMix::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert_eq!(SplitMix::hash(7, 9), SplitMix::hash(7, 9));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Self::mix(self.state)
    }

    /// A float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A float in `[lo, hi)`.
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Stateless hash of two values — positional randomness.
    pub fn hash(a: u64, b: u64) -> u64 {
        Self::mix(a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_add(0xBF58_476D_1CE4_E5B9))
    }

    /// Stateless hash of three values (e.g. `x`, `y`, `frame`).
    pub fn hash3(a: u64, b: u64, c: u64) -> u64 {
        Self::mix(Self::hash(a, b) ^ c.wrapping_mul(0x94D0_49BB_1331_11EB))
    }

    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_pinned() {
        // Fault plans, retry jitter and fuzz schedules are reproducible
        // from a seed only while this function does not move. The first
        // value is the reference SplitMix64 output for seed 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix::new(123);
        let mut b = SplitMix::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix::new(1);
        let mut b = SplitMix::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = SplitMix::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn float_mean_is_roughly_half() {
        let mut r = SplitMix::new(99);
        let mean: f64 = (0..4096).map(|_| r.next_f64()).sum::<f64>() / 4096.0;
        assert!((mean - 0.5).abs() < 0.03, "{mean}");
    }

    #[test]
    fn hash_is_position_sensitive() {
        assert_ne!(SplitMix::hash(1, 2), SplitMix::hash(2, 1));
        assert_ne!(SplitMix::hash3(1, 2, 3), SplitMix::hash3(1, 2, 4));
    }
}
