//! `BitReader` and `BitWriter` against bit-serial oracles.
//!
//! `SerialReader` below reads one bit per step, the simplest reader that
//! can be written for this bitstream format, and its end-of-data and
//! overlong-code behaviour is the contract the decoders' error offsets
//! depend on (every `CodecError::Corrupt` reports `BitReader::bit_pos`
//! at the failure). Random byte strings and random scripts of reader
//! operations run through both readers; after every operation the
//! results — errors included — and the bit positions must agree.
//!
//! `SerialWriter` appends one bit per step. Random scripts of writer
//! operations run through it and `BitWriter`; after every operation the
//! bytes either would finish with, and the bit lengths, must agree.

use hdvb_bits::{BitReader, BitWriter, BitsError, VlcTable};
use proptest::prelude::*;

/// The bit-serial reference reader.
#[derive(Clone)]
struct SerialReader<'a> {
    data: &'a [u8],
    pos: u64,
}

impl<'a> SerialReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        SerialReader { data, pos: 0 }
    }

    fn bits_left(&self) -> u64 {
        self.data.len() as u64 * 8 - self.pos
    }

    fn get_bit(&mut self) -> Result<bool, BitsError> {
        let byte = self
            .data
            .get((self.pos / 8) as usize)
            .ok_or(BitsError::Eof)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    fn get_bits(&mut self, n: u32) -> Result<u32, BitsError> {
        if self.bits_left() < u64::from(n) {
            self.pos = self.data.len() as u64 * 8;
            return Err(BitsError::Eof);
        }
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | u32::from(self.get_bit()?);
        }
        Ok(v)
    }

    fn peek_bits(&self, n: u32) -> u32 {
        let mut clone = self.clone();
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | u32::from(clone.get_bit().unwrap_or(false));
        }
        v
    }

    fn skip_bits(&mut self, n: u32) -> Result<(), BitsError> {
        if self.bits_left() < u64::from(n) {
            self.pos = self.data.len() as u64 * 8;
            return Err(BitsError::Eof);
        }
        self.pos += u64::from(n);
        Ok(())
    }

    fn get_ue(&mut self) -> Result<u32, BitsError> {
        let mut zeros = 0u32;
        while !self.get_bit()? {
            zeros += 1;
            if zeros > 32 {
                return Err(BitsError::Overlong);
            }
        }
        if zeros == 0 {
            return Ok(0);
        }
        let rest = self.get_bits(zeros)?;
        let code = (1u64 << zeros) | u64::from(rest);
        Ok((code - 1) as u32)
    }

    fn get_se(&mut self) -> Result<i32, BitsError> {
        let v = self.get_ue()?;
        Ok(if v % 2 == 1 {
            ((v / 2) + 1) as i32
        } else {
            -((v / 2) as i32)
        })
    }

    fn byte_align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    fn get_bytes(&mut self, len: usize) -> Result<&'a [u8], BitsError> {
        let start = (self.pos / 8) as usize;
        let end = start.checked_add(len).ok_or(BitsError::Eof)?;
        if end > self.data.len() {
            return Err(BitsError::Eof);
        }
        self.pos += len as u64 * 8;
        Ok(&self.data[start..end])
    }
}

/// A VLC table with each symbol's codeword spelled out, decoded by a
/// linear search on the serial reader's lookahead.
struct SerialVlc {
    table: VlcTable,
    /// `(code, len)` per symbol.
    codes: Vec<(u32, u32)>,
}

impl SerialVlc {
    fn new(name: &'static str, lengths: &[u8]) -> Self {
        let table = VlcTable::from_lengths(name, lengths).expect("codec table lengths are valid");
        let codes = (0..table.len() as u32)
            .map(|s| {
                let mut w = BitWriter::new();
                table.encode(s, &mut w);
                let bytes = w.finish();
                let len = table.code_len(s);
                let code = SerialReader::new(&bytes).get_bits(len).unwrap();
                (code, len)
            })
            .collect();
        SerialVlc { table, codes }
    }

    fn decode(&self, r: &mut SerialReader<'_>) -> Result<u32, BitsError> {
        let max_len = u32::from(self.table.max_len());
        let prefix = r.peek_bits(max_len);
        let Some(symbol) = self
            .codes
            .iter()
            .position(|&(code, len)| prefix >> (max_len - len) == code)
        else {
            return Err(BitsError::InvalidCode {
                table: self.table.name(),
            });
        };
        r.skip_bits(self.codes[symbol].1)?;
        Ok(symbol as u32)
    }
}

/// The three codecs' coefficient tables (`hdvb-mpeg2`, `hdvb-mpeg4` and
/// `hdvb-h264` `tables.rs`), by code length.
fn codec_tables() -> [SerialVlc; 3] {
    [
        SerialVlc::new(
            "mpeg2-coef",
            &[
                2, 2, 4, 5, 6, 7, 8, 3, 6, 8, 9, 10, 10, 4, 7, 9, 10, 11, 11, 5, 8, 10, 11, 12, 12,
                6, 9, 11, 12, 13, 13, 6,
            ],
        ),
        SerialVlc::new(
            "mpeg4-event",
            &[
                2, 4, 5, 6, 7, 8, 3, 6, 8, 9, 10, 10, 4, 7, 9, 10, 11, 11, 5, 8, 10, 11, 12, 12, 6,
                9, 11, 12, 13, 13, 4, 6, 8, 9, 10, 10, 5, 8, 10, 11, 12, 12, 6, 9, 11, 12, 13, 13,
                7, 10, 12, 13, 14, 14, 7, 10, 12, 13, 14, 14, 6,
            ],
        ),
        SerialVlc::new(
            "h264-event4",
            &[
                2, 4, 6, 7, 4, 6, 8, 9, 5, 7, 9, 10, 3, 5, 7, 8, 5, 7, 9, 10, 6, 8, 10, 11, 6,
            ],
        ),
    ]
}

/// One reader operation of a script.
#[derive(Clone, Copy, Debug)]
enum Op {
    GetBit,
    GetBits(u32),
    PeekBits(u32),
    SkipBits(u32),
    GetUe,
    GetSe,
    ByteAlign,
    /// `byte_align` followed by `get_bytes(len)`.
    GetBytes(usize),
    Vlc(usize),
}

fn op(kind: u8, n: u32) -> Op {
    match kind {
        0 => Op::GetBit,
        1 => Op::GetBits(n % 33),
        2 => Op::PeekBits(n % 33),
        3 => Op::SkipBits(n % 80),
        4 => Op::GetUe,
        5 => Op::GetSe,
        6 => Op::ByteAlign,
        7 => Op::GetBytes((n % 10) as usize),
        _ => Op::Vlc((n % 3) as usize),
    }
}

/// Runs `ops` through both readers over `data`, asserting equal results
/// and equal positions after every step.
fn check_script(data: &[u8], ops: &[Op], tables: &[SerialVlc; 3]) {
    let mut fast = BitReader::new(data);
    let mut slow = SerialReader::new(data);
    for (i, &op) in ops.iter().enumerate() {
        let (got, want) = match op {
            Op::GetBit => (
                format!("{:?}", fast.get_bit()),
                format!("{:?}", slow.get_bit()),
            ),
            Op::GetBits(n) => (
                format!("{:?}", fast.get_bits(n)),
                format!("{:?}", slow.get_bits(n)),
            ),
            Op::PeekBits(n) => (
                format!("{:?}", fast.peek_bits(n)),
                format!("{:?}", slow.peek_bits(n)),
            ),
            Op::SkipBits(n) => (
                format!("{:?}", fast.skip_bits(n)),
                format!("{:?}", slow.skip_bits(n)),
            ),
            Op::GetUe => (
                format!("{:?}", fast.get_ue()),
                format!("{:?}", slow.get_ue()),
            ),
            Op::GetSe => (
                format!("{:?}", fast.get_se()),
                format!("{:?}", slow.get_se()),
            ),
            Op::ByteAlign => {
                fast.byte_align();
                slow.byte_align();
                (String::new(), String::new())
            }
            Op::GetBytes(len) => {
                fast.byte_align();
                slow.byte_align();
                (
                    format!("{:?}", fast.get_bytes(len)),
                    format!("{:?}", slow.get_bytes(len)),
                )
            }
            Op::Vlc(t) => (
                format!("{:?}", tables[t].table.decode(&mut fast)),
                format!("{:?}", tables[t].decode(&mut slow)),
            ),
        };
        assert_eq!(got, want, "step {i} {op:?} over {data:02x?}");
        assert_eq!(
            fast.bit_pos(),
            slow.pos,
            "bit_pos after step {i} {op:?} over {data:02x?}"
        );
        assert_eq!(
            fast.bits_left(),
            slow.bits_left(),
            "bits_left after step {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_scripts_match_the_serial_reader(
        bytes in proptest::collection::vec((0u8..4, any::<u8>()), 0..=64),
        script in proptest::collection::vec((0u8..9, any::<u32>()), 0..48),
    ) {
        // A quarter of the bytes are zero and a quarter nearly so, so
        // long Exp-Golomb prefixes and overlong runs actually occur.
        let data: Vec<u8> = bytes
            .iter()
            .map(|&(class, b)| match class {
                0 => 0,
                1 => b & 0x03,
                _ => b,
            })
            .collect();
        let ops: Vec<Op> = script.iter().map(|&(kind, n)| op(kind, n)).collect();
        check_script(&data, &ops, &codec_tables());
    }
}

#[test]
fn zero_width_reads_return_zero_anywhere() {
    let tables = codec_tables();
    for data in [&[][..], &[0xA5][..], &[0xFF, 0x00, 0x81][..]] {
        let ops = [
            Op::GetBits(0),
            Op::PeekBits(0),
            Op::SkipBits(0),
            Op::SkipBits(3),
            Op::GetBits(0),
            Op::PeekBits(0),
            Op::SkipBits(80),
            Op::GetBits(0),
            Op::PeekBits(0),
            Op::SkipBits(0),
        ];
        check_script(data, &ops, &tables);
    }
    let mut r = BitReader::new(&[]);
    assert_eq!(r.get_bits(0), Ok(0));
    assert_eq!(r.peek_bits(0), 0);
}

#[test]
fn peeks_across_the_last_byte() {
    let tables = codec_tables();
    let data = [0xAB, 0xCD];
    for skip in 0..=16 {
        for n in [1, 7, 8, 9, 16, 17, 25, 32] {
            check_script(&data, &[Op::SkipBits(skip), Op::PeekBits(n)], &tables);
        }
    }
    let mut r = BitReader::new(&data);
    r.skip_bits(12).unwrap();
    assert_eq!(r.peek_bits(8), 0xD0);
    assert_eq!(r.peek_bits(32), 0xD000_0000);
}

#[test]
fn long_zero_prefixes_fail_where_the_serial_reader_fails() {
    let tables = codec_tables();
    // (data, bits skipped first): the Exp-Golomb prefix starts after the
    // skip.
    let cases: [(&[u8], u32); 9] = [
        // Exactly 32 zeros, then a one and a full 32-bit suffix.
        (&[0, 0, 0, 0, 0x80, 0, 0, 0, 0], 0),
        (&[0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF], 0),
        // Exactly 32 zeros, then the end of data.
        (&[0, 0, 0, 0], 0),
        // Exactly 32 zeros, a one, and a suffix cut short.
        (&[0, 0, 0, 0, 0x80, 0x12], 0),
        // Exactly 33 zeros with data after them: overlong at bit 33.
        (&[0, 0, 0, 0, 0x7F, 0xFF], 0),
        (&[0, 0, 0, 0, 0, 0, 0, 0, 0], 0),
        // Exactly 33 zeros ending exactly at the end of data.
        (&[0xFE, 0, 0, 0, 0], 7),
        // A zero run that ends exactly at the end of data.
        (&[0x80, 0x00], 1),
        (&[0x00], 0),
    ];
    for (data, skip) in cases {
        for op in [Op::GetUe, Op::GetSe] {
            check_script(data, &[Op::SkipBits(skip), op, Op::GetBit, op], &tables);
        }
    }
    let mut r = BitReader::new(&[0, 0, 0, 0, 0x7F, 0xFF]);
    assert_eq!(r.get_ue(), Err(BitsError::Overlong));
    assert_eq!(r.bit_pos(), 33);
    let mut r = BitReader::new(&[0xFE, 0, 0, 0, 0]);
    r.skip_bits(7).unwrap();
    assert_eq!(r.get_ue(), Err(BitsError::Overlong));
    assert_eq!(r.bit_pos(), 40);
    let mut r = BitReader::new(&[0, 0, 0, 0]);
    assert_eq!(r.get_ue(), Err(BitsError::Eof));
    assert_eq!(r.bit_pos(), 32);
    let mut r = BitReader::new(&[0x80, 0x00]);
    r.skip_bits(1).unwrap();
    assert_eq!(r.get_ue(), Err(BitsError::Eof));
    assert_eq!(r.bit_pos(), 16);
}

#[test]
fn vlc_codes_cut_by_the_end_of_data() {
    let tables = codec_tables();
    for t in 0..3 {
        for data in [
            &[][..],
            &[0x00][..],
            &[0xFF][..],
            &[0x01][..],
            &[0x3F, 0xFE][..],
        ] {
            check_script(data, &[Op::Vlc(t); 12], &tables);
        }
    }
}

/// The bit-serial reference writer: one `bool` per bit.
#[derive(Default)]
struct SerialWriter {
    bits: Vec<bool>,
}

impl SerialWriter {
    fn put_bits(&mut self, value: u64, n: u32) {
        for i in (0..n).rev() {
            self.bits.push((value >> i) & 1 == 1);
        }
    }

    fn put_ue(&mut self, value: u32) {
        let code = u64::from(value) + 1;
        let len = 64 - code.leading_zeros();
        self.put_bits(0, len - 1);
        self.put_bits(code, len);
    }

    fn put_se(&mut self, value: i32) {
        let v = i64::from(value);
        self.put_ue(if v > 0 { 2 * v - 1 } else { -2 * v } as u32);
    }

    fn byte_align(&mut self) {
        while !self.bits.len().is_multiple_of(8) {
            self.bits.push(false);
        }
    }

    /// The bytes `finish` would return now.
    fn bytes(&self) -> Vec<u8> {
        self.bits
            .chunks(8)
            .map(|c| {
                c.iter()
                    .chain(std::iter::repeat(&false))
                    .take(8)
                    .fold(0u8, |b, &bit| (b << 1) | u8::from(bit))
            })
            .collect()
    }
}

/// One writer operation of a script.
#[derive(Clone, Debug)]
enum WriteOp {
    Bit(bool),
    /// `put_bits(value, n)` with `value` below `2^n`.
    Bits(u32, u32),
    Ue(u32),
    Se(i32),
    ByteAlign,
    /// `byte_align` followed by `put_bytes`.
    Bytes(Vec<u8>),
}

fn write_op(kind: u8, a: u32, b: u32) -> WriteOp {
    match kind {
        0 => WriteOp::Bit(a & 1 == 1),
        1 => {
            let n = b % 33;
            WriteOp::Bits(if n == 32 { a } else { a & ((1 << n) - 1) }, n)
        }
        // Exp-Golomb values of every length.
        2 => WriteOp::Ue(a.checked_shr(b % 33).unwrap_or(0)),
        3 => WriteOp::Se(match b % 4 {
            0 => i32::MIN / 4,
            1 => (a as i32).max(i32::MIN + 1),
            _ => (a as i32) >> (b % 31),
        }),
        4 => WriteOp::ByteAlign,
        _ => WriteOp::Bytes(a.to_be_bytes()[..(b % 5) as usize].to_vec()),
    }
}

/// Runs `ops` through both writers, asserting equal bytes and equal bit
/// lengths after every step.
fn check_writer_script(ops: &[WriteOp]) {
    let mut fast = BitWriter::new();
    let mut slow = SerialWriter::default();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            WriteOp::Bit(bit) => {
                fast.put_bit(bit);
                slow.put_bits(u64::from(bit), 1);
            }
            WriteOp::Bits(value, n) => {
                fast.put_bits(value, n);
                slow.put_bits(u64::from(value), n);
            }
            WriteOp::Ue(v) => {
                fast.put_ue(v);
                slow.put_ue(v);
            }
            WriteOp::Se(v) => {
                fast.put_se(v);
                slow.put_se(v);
            }
            WriteOp::ByteAlign => {
                fast.byte_align();
                slow.byte_align();
            }
            WriteOp::Bytes(ref data) => {
                fast.byte_align();
                slow.byte_align();
                fast.put_bytes(data);
                for &b in data {
                    slow.put_bits(u64::from(b), 8);
                }
            }
        }
        assert_eq!(
            fast.bit_len(),
            slow.bits.len() as u64,
            "bit_len after step {i} {op:?}"
        );
        assert_eq!(
            fast.clone().finish(),
            slow.bytes(),
            "bytes after step {i} {op:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_scripts_match_the_serial_writer(
        script in proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 0..64),
    ) {
        let ops: Vec<WriteOp> = script.iter().map(|&(kind, a, b)| write_op(kind, a, b)).collect();
        check_writer_script(&ops);
    }
}

#[test]
fn writer_edge_codes_match_the_serial_writer() {
    // Every ue length, the extremes of se, and full-width writes that
    // straddle the 32-bit store at every offset.
    let mut ops = Vec::new();
    for shift in 0..32 {
        ops.push(WriteOp::Ue(u32::MAX >> shift));
        ops.push(WriteOp::Ue((1 << shift) - 1));
    }
    ops.extend([
        WriteOp::Ue(u32::MAX),
        WriteOp::Se(i32::MIN / 4),
        WriteOp::Se(i32::MIN + 1),
        WriteOp::Se(i32::MAX),
        WriteOp::Se(0),
    ]);
    for lead in 0..32 {
        ops.push(WriteOp::ByteAlign);
        ops.push(WriteOp::Bits(0, lead));
        ops.push(WriteOp::Bits(0xDEAD_BEEF, 32));
        ops.push(WriteOp::Bits(0, 0));
        ops.push(WriteOp::Bytes(vec![0xA5, 0x5A, 0xFF]));
    }
    check_writer_script(&ops);
}
