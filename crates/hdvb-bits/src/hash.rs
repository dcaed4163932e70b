//! The workspace's non-cryptographic hashes, in one place.
//!
//! * [`fnv1a32`] — the wire header checksum (12 bytes per message).
//! * [`fnv1a64`] / [`fnv1a64_update`] — sweep-journal line checksums and
//!   cell keys, fuzz corpus file names, run digests. These are file
//!   formats: the values must never change.
//! * [`checksum64`] — the wire payload trailer. FNV-1a is one dependent
//!   multiply per *byte*, which at HD frame sizes costs as much as the
//!   codec; `checksum64` runs four independent FNV-style lanes over
//!   8-byte words, so it moves at memory speed in safe scalar code.
//!
//! None of these resist a deliberate attacker; they detect accidents.

const FNV32_OFFSET: u32 = 0x811c_9dc5;
const FNV32_PRIME: u32 = 0x0100_0193;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a 64 offset basis: the state [`fnv1a64_update`] starts from.
pub const FNV1A64_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 32-bit over `bytes`.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = FNV32_OFFSET;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(FNV32_PRIME);
    }
    h
}

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV1A64_INIT, bytes)
}

/// Continues an FNV-1a 64 hash: absorbs `bytes` into `state` (start
/// from [`FNV1A64_INIT`]). Hashing a concatenation equals chaining the
/// pieces.
pub fn fnv1a64_update(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state = absorb(state, u64::from(b));
    }
    state
}

/// One FNV-1a step on a 64-bit state. The multiplier is odd, so for a
/// fixed `word` this is a bijection of `state`, and for a fixed `state`
/// a bijection of `word` — the property [`checksum64`]'s guarantee
/// rests on.
#[inline(always)]
fn absorb(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV64_PRIME)
}

/// Where [`checksum64`]'s four lanes start. Distinct, so moving a word
/// from one lane to another changes the sum.
const LANE_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0x2545_f491_4f6c_dd1d,
];

/// Bytes consumed per step of [`checksum64`]'s main loop.
const BLOCK: usize = 32;

/// A 64-bit word-parallel checksum for bulk payloads.
///
/// The input is cut into 32-byte blocks; little-endian word `k` of each
/// block is absorbed into lane `k` by one FNV-1a step. The four lanes
/// are then folded, in order, into an accumulator that goes on to
/// absorb the 0–31 tail bytes one at a time and finally the length.
///
/// Every step is a bijection of the state it updates and, for a fixed
/// state, of the value absorbed. So two inputs of equal length that
/// differ only inside one aligned 8-byte word (in particular: in one
/// byte, or one bit) always have different sums — the differing lane or
/// accumulator state can never be mapped back onto the other's.
/// Differences spread wider than that are caught with probability
/// 1 − 2⁻⁶⁴, not certainty.
///
/// The result is the same on every target (`u64::from_le_bytes`).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            *lane = absorb(*lane, word);
        }
    }
    let mut acc = FNV1A64_INIT;
    for lane in lanes {
        acc = absorb(acc, lane);
    }
    acc = fnv1a64_update(acc, blocks.remainder());
    absorb(acc, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `checksum64` written the slow, obvious way: one index loop, no
    /// chunking, words assembled by shifts.
    fn checksum64_reference(bytes: &[u8]) -> u64 {
        let mut lanes = LANE_SEEDS;
        let whole = bytes.len() - bytes.len() % 32;
        let mut at = 0;
        while at < whole {
            let mut word = 0u64;
            for k in 0..8 {
                word |= u64::from(bytes[at + k]) << (8 * k);
            }
            let lane = (at / 8) % 4;
            lanes[lane] = (lanes[lane] ^ word).wrapping_mul(FNV64_PRIME);
            at += 8;
        }
        let mut acc = FNV1A64_INIT;
        for lane in lanes {
            acc = (acc ^ lane).wrapping_mul(FNV64_PRIME);
        }
        while at < bytes.len() {
            acc = (acc ^ u64::from(bytes[at])).wrapping_mul(FNV64_PRIME);
            at += 1;
        }
        (acc ^ bytes.len() as u64).wrapping_mul(FNV64_PRIME)
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        // From the FNV reference test suite.
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a64_update_chains_like_concatenation() {
        let data = noise(300);
        for cut in [0, 1, 150, 299, 300] {
            let (a, b) = data.split_at(cut);
            assert_eq!(
                fnv1a64_update(fnv1a64_update(FNV1A64_INIT, a), b),
                fnv1a64(&data)
            );
        }
    }

    #[test]
    fn checksum64_equals_the_reference_at_every_boundary() {
        let data = noise((64 << 10) + 1);
        let lens = (0..=200).chain([(64 << 10) - 1, 64 << 10, (64 << 10) + 1]);
        for len in lens {
            assert_eq!(
                checksum64(&data[..len]),
                checksum64_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn checksum64_known_answers() {
        let ramp: Vec<u8> = (0..=255).collect();
        // Computed by a separate implementation (arbitrary-precision
        // integers, no lanes array sharing) — the wire format, pinned.
        assert_eq!(checksum64(b""), 0x3225_102e_23f2_7665);
        assert_eq!(checksum64(b"a"), 0x28b3_be67_1611_7b89);
        assert_eq!(checksum64(&ramp), 0xece5_4680_0096_d965);
    }

    #[test]
    fn every_single_bit_flip_changes_checksum64() {
        // Lengths 1..=130 put a flip in every lane, in the byte-wise
        // tail, and on both sides of the 8-, 32- and 64-byte boundaries.
        let data = noise(130);
        for len in 1..=data.len() {
            let clean = checksum64(&data[..len]);
            let mut flipped = data[..len].to_vec();
            for bit in 0..len * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&flipped), clean, "length {len}, bit {bit}");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn length_and_lane_position_are_part_of_checksum64() {
        // All-zero input absorbs nothing but the seeds and the length:
        // growing it at either end must still move the sum.
        let zeros = [0u8; 131];
        for len in 0..zeros.len() {
            assert_ne!(
                checksum64(&zeros[..len]),
                checksum64(&zeros[..len + 1]),
                "zeros({len}) vs zeros({})",
                len + 1
            );
        }
        // Padding real data with a zero, front or back, as well.
        let p = noise(95);
        let front: Vec<u8> = [&[0], &p[..]].concat();
        let back: Vec<u8> = [&p[..], &[0]].concat();
        assert_ne!(checksum64(&p), checksum64(&front));
        assert_ne!(checksum64(&p), checksum64(&back));
        // The same word in a different lane is a different input.
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        a[0] = 1;
        b[8] = 1;
        assert_ne!(checksum64(&a), checksum64(&b));
    }
}
