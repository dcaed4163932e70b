//! Moving 8×8 blocks between picture planes and coefficient blocks: the
//! per-block load and store the MPEG-class (8×8 DCT) codecs share.
//! `#[inline]` because they run up to six times a macroblock from other
//! crates and the workspace builds without LTO.

use crate::Block8;
use hdvb_frame::Plane;

/// Loads an 8×8 pixel block as i16.
#[inline]
pub fn load_block(plane: &Plane, bx: usize, by: usize) -> Block8 {
    let mut out = [0i16; 64];
    for y in 0..8 {
        for x in 0..8 {
            out[y * 8 + x] = i16::from(plane.get(bx + x, by + y));
        }
    }
    out
}

/// Stores an 8×8 i16 block, clamping to pixel range.
#[inline]
pub fn store_block_clamped(plane: &mut Plane, bx: usize, by: usize, block: &Block8) {
    for y in 0..8 {
        for x in 0..8 {
            plane.set(bx + x, by + y, block[y * 8 + x].clamp(0, 255) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_clamps_and_load_reads_back() {
        let mut plane = Plane::new(16, 16);
        let mut block = [0i16; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = i as i16 * 5 - 20; // -20..=295: both clamps fire
        }
        store_block_clamped(&mut plane, 8, 8, &block);
        let back = load_block(&plane, 8, 8);
        for (b, v) in back.iter().zip(block) {
            assert_eq!(*b, v.clamp(0, 255));
        }
        assert_eq!(plane.get(7, 8), Plane::new(16, 16).get(7, 8));
    }
}
