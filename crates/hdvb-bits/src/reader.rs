use crate::BitsError;

/// An MSB-first bit parser over a byte slice.
///
/// The mirror of [`BitWriter`](crate::BitWriter): every `get_*` method
/// consumes the exact bits the corresponding `put_*` produced. Reading
/// past the end returns [`BitsError::Eof`] instead of panicking, so a
/// truncated stream is always a recoverable error for the decoders.
///
/// Multi-bit reads go through a 64-bit window: one big-endian load of
/// the 8 bytes under the read position, zero past the end of data and
/// shifted left by the position's bit offset, so it holds at least 57
/// valid bits. `get_bits`, `peek_bits` and
/// [`VlcTable::decode`](crate::VlcTable::decode) each cost one window
/// load instead of one step per bit, `get_ue` two; `get_bit` reads its
/// one byte.
///
/// Errors leave [`bit_pos`](Self::bit_pos) where a bit-at-a-time reader
/// would leave it, because the decoders report corruption at that
/// offset: `get_bit` at the end of data does not move; `get_bits` and
/// `skip_bits` short of data move to the end; `get_ue` fails with
/// [`BitsError::Overlong`] after exactly 33 zeros (only when 33 bits
/// remain) and with [`BitsError::Eof`] at the end when its zero run
/// reaches the end of data.
///
/// # Example
///
/// ```
/// use hdvb_bits::BitReader;
///
/// let mut r = BitReader::new(&[0b1011_0000]);
/// assert!(r.get_bit()?);
/// assert_eq!(r.get_bits(3)?, 0b011);
/// # Ok::<(), hdvb_bits::BitsError>(())
/// ```
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next bit position from the start of `data`.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Bits remaining.
    #[inline]
    pub fn bits_left(&self) -> u64 {
        self.data.len() as u64 * 8 - self.pos
    }

    /// The next 64 bits from the read position, MSB first: at least 57
    /// of them are stream bits, and bits past the end of data are zero.
    #[inline]
    fn window(&self) -> u64 {
        let byte = (self.pos / 8) as usize;
        let word = match self.data.get(byte..byte + 8) {
            Some(bytes) => u64::from_be_bytes(bytes.try_into().expect("8 bytes")),
            None => self.last_word(byte),
        };
        word << (self.pos % 8)
    }

    /// The bytes from `byte` to the end of data (fewer than 8), padded
    /// with zeros to a big-endian word.
    #[cold]
    fn last_word(&self, byte: usize) -> u64 {
        let tail = &self.data[byte.min(self.data.len())..];
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        u64::from_be_bytes(word)
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// [`BitsError::Eof`] at end of data.
    #[inline]
    pub fn get_bit(&mut self) -> Result<bool, BitsError> {
        // One byte, not the window: a single bit needs no more, and the
        // byte load is the cheaper of the two.
        let byte = self
            .data
            .get((self.pos / 8) as usize)
            .ok_or(BitsError::Eof)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Reads `n` bits MSB-first.
    ///
    /// # Errors
    ///
    /// [`BitsError::Eof`] if fewer than `n` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    #[inline]
    pub fn get_bits(&mut self, n: u32) -> Result<u32, BitsError> {
        assert!(n <= 32, "cannot read more than 32 bits at once");
        if self.bits_left() < u64::from(n) {
            self.pos = self.data.len() as u64 * 8;
            return Err(BitsError::Eof);
        }
        if n == 0 {
            return Ok(0);
        }
        let v = (self.window() >> (64 - n)) as u32;
        self.pos += u64::from(n);
        Ok(v)
    }

    /// Peeks at the next `n` bits without consuming them; missing bits
    /// beyond the end of data read as zero (standard VLC-lookahead
    /// behaviour).
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    #[inline]
    pub fn peek_bits(&self, n: u32) -> u32 {
        assert!(n <= 32, "cannot peek more than 32 bits at once");
        if n == 0 {
            return 0;
        }
        (self.window() >> (64 - n)) as u32
    }

    /// Consumes `n` bits without interpreting them.
    ///
    /// # Errors
    ///
    /// [`BitsError::Eof`] if fewer than `n` bits remain.
    #[inline]
    pub fn skip_bits(&mut self, n: u32) -> Result<(), BitsError> {
        if self.bits_left() < u64::from(n) {
            self.pos = self.data.len() as u64 * 8;
            return Err(BitsError::Eof);
        }
        self.pos += u64::from(n);
        Ok(())
    }

    /// Reads an unsigned Exp-Golomb code (H.264 `ue(v)`).
    ///
    /// # Errors
    ///
    /// [`BitsError::Eof`] on truncation, [`BitsError::Overlong`] if the
    /// code has more than 32 leading zeros (corrupt stream).
    pub fn get_ue(&mut self) -> Result<u32, BitsError> {
        // A one in the window is a stream bit (the zero fill has none),
        // and the first 33 window bits are all stream bits whenever 33
        // bits remain.
        let zeros = self.window().leading_zeros();
        if zeros > 32 {
            if self.bits_left() < 33 {
                self.pos = self.data.len() as u64 * 8;
                return Err(BitsError::Eof);
            }
            self.pos += 33;
            return Err(BitsError::Overlong);
        }
        self.pos += u64::from(zeros) + 1;
        if zeros == 0 {
            return Ok(0);
        }
        let rest = self.get_bits(zeros)?;
        let code = (1u64 << zeros) | u64::from(rest);
        Ok((code - 1) as u32)
    }

    /// Reads a signed Exp-Golomb code (H.264 `se(v)`).
    ///
    /// # Errors
    ///
    /// Same as [`get_ue`](Self::get_ue).
    pub fn get_se(&mut self) -> Result<i32, BitsError> {
        let v = self.get_ue()?;
        Ok(if v % 2 == 1 {
            ((v / 2) + 1) as i32
        } else {
            -((v / 2) as i32)
        })
    }

    /// Skips forward to the next byte boundary (no-op when aligned).
    pub fn byte_align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Reads `len` raw bytes; the reader must be byte-aligned.
    ///
    /// # Errors
    ///
    /// [`BitsError::Eof`] if fewer than `len` bytes remain.
    ///
    /// # Panics
    ///
    /// Panics if the reader is not at a byte boundary.
    pub fn get_bytes(&mut self, len: usize) -> Result<&'a [u8], BitsError> {
        assert_eq!(self.pos % 8, 0, "get_bytes requires byte alignment");
        let start = (self.pos / 8) as usize;
        let end = start.checked_add(len).ok_or(BitsError::Eof)?;
        if end > self.data.len() {
            return Err(BitsError::Eof);
        }
        self.pos += len as u64 * 8;
        Ok(&self.data[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    #[test]
    fn reads_what_writer_wrote() {
        let mut w = BitWriter::new();
        w.put_bits(0b1101, 4);
        w.put_bits(0x3FF, 10);
        w.put_bit(false);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(4).unwrap(), 0b1101);
        assert_eq!(r.get_bits(10).unwrap(), 0x3FF);
        assert!(!r.get_bit().unwrap());
    }

    #[test]
    fn eof_is_error_not_panic() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.get_bits(8).unwrap(), 0xFF);
        assert_eq!(r.get_bit(), Err(BitsError::Eof));
        assert_eq!(r.get_bits(4), Err(BitsError::Eof));
        assert_eq!(r.get_ue(), Err(BitsError::Eof));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = BitReader::new(&[0b1010_1010]);
        assert_eq!(r.peek_bits(4), 0b1010);
        assert_eq!(r.bit_pos(), 0);
        assert_eq!(r.get_bits(4).unwrap(), 0b1010);
        // Peeking past the end pads with zeros.
        assert_eq!(r.peek_bits(8), 0b1010_0000);
    }

    #[test]
    fn ue_known_values() {
        // "1 010 011 00100" = ue 0,1,2,3
        let mut w = BitWriter::new();
        for v in 0..4 {
            w.put_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in 0..4 {
            assert_eq!(r.get_ue().unwrap(), v);
        }
    }

    #[test]
    fn overlong_ue_detected() {
        // 40 zero bits: an impossible exp-golomb prefix.
        let data = [0u8; 5];
        let mut r = BitReader::new(&data);
        assert_eq!(r.get_ue(), Err(BitsError::Overlong));
    }

    #[test]
    fn byte_align_and_bytes() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.byte_align();
        w.put_bytes(b"hi");
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        r.skip_bits(3).unwrap();
        r.byte_align();
        assert_eq!(r.get_bytes(2).unwrap(), b"hi");
        assert!(r.get_bytes(1).is_err());
    }

    #[test]
    fn skip_past_end_is_eof() {
        let mut r = BitReader::new(&[0, 0]);
        assert!(r.skip_bits(17).is_err());
    }

    #[test]
    fn large_ue_values_roundtrip() {
        let mut w = BitWriter::new();
        for v in [u32::MAX / 2, 1 << 20, 65535, 12345678] {
            w.put_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in [u32::MAX / 2, 1 << 20, 65535, 12345678] {
            assert_eq!(r.get_ue().unwrap(), v);
        }
    }
}
