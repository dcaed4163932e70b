//! A tiny deterministic generator for the fuzzing loop.
//!
//! The harness needs *replayable* randomness — the same seed must produce
//! the same mutation schedule on every machine — so it draws from the
//! workspace's own [`SplitMix`] instead of depending on an external RNG.

use hdvb_seq::SplitMix;

/// Deterministic generator: the fuzzing draws (`below`, `chance`,
/// `byte`, `fork`) over a [`SplitMix`] stream.
#[derive(Clone, Debug)]
pub struct FuzzRng {
    inner: SplitMix,
}

impl FuzzRng {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        // The whitening constant is part of every recorded schedule.
        FuzzRng {
            inner: SplitMix::new(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `0..n`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Returns `true` with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// One random byte.
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() & 0xFF) as u8
    }

    /// Derives an independent stream (for splitting work deterministically).
    pub fn fork(&mut self) -> FuzzRng {
        FuzzRng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = FuzzRng::new(42);
        let mut b = FuzzRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = FuzzRng::new(7);
        let mut seen = [false; 8];
        for _ in 0..200 {
            seen[r.below(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
