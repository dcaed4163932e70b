/// An MSB-first bit serialiser.
///
/// Bits are appended most-significant-first, matching the bit order of the
/// MPEG and H.264 bitstream syntaxes. The buffer is zero-padded to a byte
/// boundary by [`finish`](Self::finish).
///
/// # Example
///
/// ```
/// use hdvb_bits::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.put_bit(true);
/// w.put_bits(0b0110, 4);
/// assert_eq!(w.bit_len(), 5);
/// let bytes = w.finish();
/// assert_eq!(bytes, vec![0b1011_0000]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// The last `pending` bits written, not yet stored in `bytes`, in the
    /// low bits of `acc` (bits above them are stale).
    acc: u64,
    /// Bits waiting in `acc`, 0..=31: a full 32 are stored at once.
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for `bytes` output bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self::from_vec(Vec::with_capacity(bytes))
    }

    /// Creates an empty writer on top of an existing (e.g. pooled)
    /// buffer, clearing its contents but keeping its capacity — the
    /// allocation-free counterpart of [`with_capacity`](Self::with_capacity).
    pub fn from_vec(mut bytes: Vec<u8>) -> Self {
        bytes.clear();
        BitWriter {
            bytes,
            acc: 0,
            pending: 0,
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.pending)
    }

    /// Appends a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(u32::from(bit), 1);
    }

    /// Appends the `n` least-significant bits of `value`,
    /// most-significant-first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32` or if `value` has bits set above bit `n`.
    #[inline]
    pub fn put_bits(&mut self, value: u32, n: u32) {
        assert!(n <= 32, "cannot write more than 32 bits at once");
        debug_assert!(
            n == 32 || value < (1u32 << n),
            "value {value:#x} does not fit in {n} bits"
        );
        // At most 31 waiting bits plus 32 new ones: `acc` holds them all.
        self.acc = (self.acc << n) | (u64::from(value) & ((1u64 << n) - 1));
        self.pending += n;
        if self.pending >= 32 {
            self.pending -= 32;
            let word = (self.acc >> self.pending) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Appends an unsigned Exp-Golomb code (H.264 `ue(v)`).
    pub fn put_ue(&mut self, value: u32) {
        let code = u64::from(value) + 1;
        let zeros = 63 - code.leading_zeros(); // 0..=32
        self.put_bits(0, zeros);
        // `code` is `zeros + 1` bits long; only `u32::MAX`'s 33-bit code
        // needs its leading one written on its own.
        if zeros == 32 {
            self.put_bit(true);
        }
        self.put_bits(code as u32, (zeros + 1).min(32));
    }

    /// Appends a signed Exp-Golomb code (H.264 `se(v)`).
    pub fn put_se(&mut self, value: i32) {
        let mapped = if value > 0 {
            (value as u32) * 2 - 1
        } else {
            (-(value as i64) as u32) * 2
        };
        self.put_ue(mapped);
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn byte_align(&mut self) {
        self.put_bits(0, (8 - self.pending % 8) % 8);
        while self.pending > 0 {
            self.pending -= 8;
            self.bytes.push((self.acc >> self.pending) as u8);
        }
    }

    /// Appends raw bytes; the writer must be byte-aligned.
    ///
    /// # Panics
    ///
    /// Panics if the writer is not at a byte boundary.
    pub fn put_bytes(&mut self, data: &[u8]) {
        assert_eq!(self.pending % 8, 0, "put_bytes requires byte alignment");
        self.byte_align(); // stores the whole bytes still waiting in `acc`
        self.bytes.extend_from_slice(data);
    }

    /// Byte-aligns with zero padding and returns the serialised buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.byte_align();
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_packing_is_msb_first() {
        let mut w = BitWriter::new();
        for _ in 0..4 {
            w.put_bit(true);
        }
        for _ in 0..4 {
            w.put_bit(false);
        }
        assert_eq!(w.finish(), vec![0xF0]);
    }

    #[test]
    fn finish_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.put_bits(0b11, 2);
        assert_eq!(w.finish(), vec![0b1100_0000]);
    }

    #[test]
    fn known_ue_codes() {
        // Exp-Golomb: 0 -> "1", 1 -> "010", 2 -> "011", 3 -> "00100".
        let mut w = BitWriter::new();
        w.put_ue(0);
        w.put_ue(1);
        w.put_ue(2);
        w.put_ue(3);
        assert_eq!(w.bit_len(), 1 + 3 + 3 + 5);
        assert_eq!(w.finish(), vec![0b1010_0110, 0b0100_0000]);
    }

    #[test]
    fn known_se_codes() {
        // se(v): 0->ue(0), 1->ue(1), -1->ue(2), 2->ue(3), -2->ue(4).
        let mut w = BitWriter::new();
        w.put_se(0);
        assert_eq!(w.bit_len(), 1);
        let mut w = BitWriter::new();
        w.put_se(-1);
        assert_eq!(w.bit_len(), 3); // ue(2) = "011"
        let mut w = BitWriter::new();
        w.put_se(i32::MIN / 4);
        assert!(w.bit_len() > 50);
        let _ = w.finish();
    }

    #[test]
    fn byte_align_then_bytes() {
        let mut w = BitWriter::new();
        w.put_bit(true);
        w.byte_align();
        w.put_bytes(&[0xAB, 0xCD]);
        assert_eq!(w.finish(), vec![0x80, 0xAB, 0xCD]);
    }

    #[test]
    fn bit_len_counts_exactly() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put_bits(0x5, 3);
        assert_eq!(w.bit_len(), 3);
        w.put_bits(0xFFFF, 16);
        assert_eq!(w.bit_len(), 19);
    }

    #[test]
    fn full_32_bit_write() {
        let mut w = BitWriter::new();
        w.put_bits(0xDEAD_BEEF, 32);
        assert_eq!(w.finish(), vec![0xDE, 0xAD, 0xBE, 0xEF]);
    }
}
