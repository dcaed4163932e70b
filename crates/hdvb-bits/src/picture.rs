//! The vocabulary of a coded picture, shared by the three codecs and the
//! harness above them.
//!
//! The paper fixes one GOP (I-P-B-B, fixed B placement, only the first
//! picture intra — Section IV) and compares three codecs under it, so the
//! picture types, the coding order and the packet are the benchmark's
//! definitions, not each codec's. They live here, in the lowest crate
//! every layer already depends on: [`PacketKind`], [`Packet`],
//! [`CodecError`], the dimension limits ([`check_picture_dims`]), the
//! header fields every packet opens with ([`PicturePrefix`]) and the
//! display-order → coding-order [`GopScheduler`].

use crate::{BitReader, BitWriter, BitsError, CorruptKind};
use std::fmt;

/// Upper bound on decoded picture area in pixels (64 Mpixel).
///
/// Both the encoder configurations and the decoders' header parsers
/// enforce it (through [`check_picture_dims`]), so a corrupt packet cannot
/// make a decoder allocate an unbounded reconstruction frame from
/// attacker-controlled dimension fields.
pub const MAX_DECODE_PIXELS: usize = 1 << 26;

/// Checks picture dimensions against what every codec supports: even,
/// 16..=16384 a side, at most [`MAX_DECODE_PIXELS`] in area.
///
/// # Errors
///
/// The reason, as a message fit for `CodecError::BadConfig`.
pub fn check_picture_dims(width: usize, height: usize) -> Result<(), &'static str> {
    let side_ok = |n: usize| (16..=16384).contains(&n) && n.is_multiple_of(2);
    if !side_ok(width) || !side_ok(height) {
        return Err("dimensions must be even, between 16 and 16384");
    }
    if width * height > MAX_DECODE_PIXELS {
        return Err("picture area exceeds the supported maximum");
    }
    Ok(())
}

/// Picture coding type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Intra-coded picture (no prediction).
    I,
    /// Forward-predicted picture.
    P,
    /// Bidirectionally predicted picture (never used as a reference).
    B,
}

impl PacketKind {
    /// The 2-bit picture-header field.
    pub fn to_bits(self) -> u32 {
        match self {
            PacketKind::I => 0,
            PacketKind::P => 1,
            PacketKind::B => 2,
        }
    }

    /// Inverse of [`to_bits`](Self::to_bits); `None` for reserved values.
    pub fn from_bits(v: u32) -> Option<PacketKind> {
        match v {
            0 => Some(PacketKind::I),
            1 => Some(PacketKind::P),
            2 => Some(PacketKind::B),
            _ => None,
        }
    }

    /// The byte the stream container and the wire protocol store.
    pub fn as_byte(self) -> u8 {
        match self {
            PacketKind::I => b'I',
            PacketKind::P => b'P',
            PacketKind::B => b'B',
        }
    }

    /// Inverse of [`as_byte`](Self::as_byte).
    pub fn from_byte(b: u8) -> Option<PacketKind> {
        match b {
            b'I' => Some(PacketKind::I),
            b'P' => Some(PacketKind::P),
            b'B' => Some(PacketKind::B),
            _ => None,
        }
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PacketKind::I => "I",
            PacketKind::P => "P",
            PacketKind::B => "B",
        })
    }
}

/// One coded picture produced by an encoder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// The serialised picture, self-contained and decodable in stream
    /// order.
    pub data: Vec<u8>,
    /// Picture type.
    pub kind: PacketKind,
    /// Index of the picture in *display* order.
    pub display_index: u32,
}

impl Packet {
    /// Coded size in bits (the unit Table V's bitrates are computed
    /// from).
    pub fn bits(&self) -> u64 {
        self.data.len() as u64 * 8
    }
}

/// Errors from encoding or decoding.
#[derive(Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// Invalid encoder configuration.
    BadConfig(&'static str),
    /// A frame did not match the configured geometry.
    FrameMismatch {
        /// Expected dimensions.
        expected: (usize, usize),
        /// Received dimensions.
        actual: (usize, usize),
    },
    /// The bitstream is malformed; decoding stopped at bit `offset`.
    Corrupt {
        /// Bit offset in the packet where the corruption was detected
        /// (the parse position the decoder stopped at).
        offset: u64,
        /// Classification of the corruption.
        kind: CorruptKind,
        /// Human-readable detail for diagnostics.
        detail: String,
    },
}

impl CodecError {
    /// Builds a [`CodecError::Corrupt`] with an unset (0) offset; the
    /// outermost decode loop stamps the reader's bit position via
    /// [`at_bit`](Self::at_bit).
    pub fn corrupt(kind: CorruptKind, detail: impl Into<String>) -> Self {
        CodecError::Corrupt {
            offset: 0,
            kind,
            detail: detail.into(),
        }
    }

    /// Stamps `offset` on a [`CodecError::Corrupt`] whose offset is still
    /// unset; other variants and already-stamped errors pass through.
    pub fn at_bit(mut self, offset: u64) -> Self {
        if let CodecError::Corrupt { offset: o, .. } = &mut self {
            if *o == 0 {
                *o = offset;
            }
        }
        self
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadConfig(msg) => write!(f, "bad encoder configuration: {msg}"),
            CodecError::FrameMismatch { expected, actual } => write!(
                f,
                "frame is {}x{} but encoder is configured for {}x{}",
                actual.0, actual.1, expected.0, expected.1
            ),
            CodecError::Corrupt {
                offset,
                kind,
                detail,
            } => write!(f, "corrupt bitstream at bit {offset} ({kind}): {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<BitsError> for CodecError {
    fn from(e: BitsError) -> Self {
        CodecError::corrupt((&e).into(), e.to_string())
    }
}

/// The fields every coded picture opens with, ahead of the codec's own
/// header fields: `magic:16 | kind:2 | display_index:32 | ue(width) |
/// ue(height)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PicturePrefix {
    /// Picture type.
    pub kind: PacketKind,
    /// Index of the picture in display order.
    pub display_index: u32,
    /// Picture width in pixels.
    pub width: usize,
    /// Picture height in pixels.
    pub height: usize,
}

impl PicturePrefix {
    /// The decoder-side [`check_picture_dims`]. Parsers call it *after*
    /// reading their codec-specific header fields, so the bit offset a
    /// rejected header reports is the end of the whole header.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] of kind [`CorruptKind::BadDimensions`].
    pub fn check_dims(&self) -> Result<(), CodecError> {
        check_picture_dims(self.width, self.height).map_err(|_| {
            CodecError::corrupt(
                CorruptKind::BadDimensions,
                format!("implausible dimensions {}x{}", self.width, self.height),
            )
        })
    }
}

/// Writes `prefix` behind the codec's 16-bit `magic`.
pub fn write_picture_prefix(w: &mut BitWriter, magic: u32, prefix: &PicturePrefix) {
    w.put_bits(magic, 16);
    w.put_bits(prefix.kind.to_bits(), 2);
    w.put_bits(prefix.display_index, 32);
    w.put_ue(prefix.width as u32);
    w.put_ue(prefix.height as u32);
}

/// Parses the fields [`write_picture_prefix`] wrote. The dimensions are
/// returned as read: validating them is
/// [`PicturePrefix::check_dims`], which the caller runs once the rest
/// of its header is in.
///
/// # Errors
///
/// [`CodecError::Corrupt`]: `BadMagic` for a foreign packet,
/// `BadHeaderField` for a reserved picture type, `Truncated` / `Overlong`
/// from the reader.
pub fn read_picture_prefix(r: &mut BitReader<'_>, magic: u32) -> Result<PicturePrefix, CodecError> {
    if r.get_bits(16)? != magic {
        return Err(CodecError::corrupt(
            CorruptKind::BadMagic,
            "bad picture magic",
        ));
    }
    let kind = PacketKind::from_bits(r.get_bits(2)?)
        .ok_or_else(|| CodecError::corrupt(CorruptKind::BadHeaderField, "bad frame type"))?;
    Ok(PicturePrefix {
        kind,
        display_index: r.get_bits(32)?,
        width: r.get_ue()? as usize,
        height: r.get_ue()? as usize,
    })
}

/// An item scheduled for coding, in coding order.
#[derive(Debug)]
pub struct Scheduled<T> {
    /// The buffered item (a frame, in the encoders).
    pub item: T,
    /// The picture type it is to be coded as.
    pub kind: PacketKind,
    /// Its index in display order.
    pub display_index: u32,
}

/// Display-order → coding-order scheduling for the I-P-B-B GOP structure
/// the paper prescribes (fixed B placement, only the first picture intra
/// unless a periodic intra interval is configured).
///
/// Buffers incoming display-order items and releases them in coding
/// order: anchors first, then the B pictures that precede them in display
/// order. The scheduler never looks inside an item, so it is generic over
/// it.
#[derive(Debug)]
pub struct GopScheduler<T> {
    b_frames: usize,
    intra_period: Option<u32>,
    next_display: u32,
    anchors_coded: u32,
    pending: Vec<(T, u32)>,
}

impl<T> GopScheduler<T> {
    /// Creates a scheduler placing `b_frames` B pictures between anchors
    /// and an I picture every `intra_period` anchors (`None` = only the
    /// first picture is intra).
    pub fn new(b_frames: u8, intra_period: Option<u32>) -> Self {
        GopScheduler {
            b_frames: usize::from(b_frames),
            intra_period,
            next_display: 0,
            anchors_coded: 0,
            pending: Vec::new(),
        }
    }

    fn anchor_kind(&mut self) -> PacketKind {
        let is_intra = match (self.anchors_coded, self.intra_period) {
            (0, _) => true,
            (n, Some(p)) if p > 0 => n % p == 0,
            _ => false,
        };
        self.anchors_coded += 1;
        if is_intra {
            PacketKind::I
        } else {
            PacketKind::P
        }
    }

    /// Accepts the next display-order item and appends the items that can
    /// now be coded (coding order) to `out`. Once `out` and the internal
    /// pending buffer have grown to the GOP size, submitting an item
    /// performs no heap allocation.
    pub fn push_into(&mut self, item: T, out: &mut Vec<Scheduled<T>>) {
        let idx = self.next_display;
        self.next_display += 1;
        // The very first picture is always an immediate anchor.
        if idx == 0 {
            out.push(Scheduled {
                item,
                kind: self.anchor_kind(),
                display_index: 0,
            });
            return;
        }
        self.pending.push((item, idx));
        if self.pending.len() == self.b_frames + 1 {
            self.release_into(out);
        }
    }

    /// Flushes the remaining buffered items (end of stream): the last
    /// pending one becomes a P anchor and the rest are coded as B.
    pub fn finish_into(&mut self, out: &mut Vec<Scheduled<T>>) {
        if !self.pending.is_empty() {
            self.release_into(out);
        }
    }

    fn release_into(&mut self, out: &mut Vec<Scheduled<T>>) {
        // The newest pending item becomes the anchor; the older ones
        // are coded as B pictures after it, in display order.
        let (anchor, anchor_idx) = self
            .pending
            .pop()
            .expect("release called with pending items");
        out.push(Scheduled {
            item: anchor,
            kind: self.anchor_kind(),
            display_index: anchor_idx,
        });
        for (item, idx) in self.pending.drain(..) {
            out.push(Scheduled {
                item,
                kind: PacketKind::B,
                display_index: idx,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PacketKind::{B, I, P};

    #[test]
    fn kind_codes_roundtrip_and_reject_every_other_value() {
        for k in [I, P, B] {
            assert_eq!(PacketKind::from_bits(k.to_bits()), Some(k));
            assert_eq!(PacketKind::from_byte(k.as_byte()), Some(k));
            assert_eq!(k.to_string().as_bytes(), [k.as_byte()]);
        }
        // The header field is two bits wide: 3 is its one reserved value.
        assert_eq!(PacketKind::from_bits(3), None);
        assert_eq!(PacketKind::from_bits(7), None);
        assert!((3..=u32::from(u8::MAX)).all(|v| PacketKind::from_bits(v).is_none()));
        let accepted: Vec<u8> = (0..=u8::MAX)
            .filter(|&b| PacketKind::from_byte(b).is_some())
            .collect();
        assert_eq!(accepted, b"BIP");
    }

    #[test]
    fn packet_bits() {
        let p = Packet {
            data: vec![0; 10],
            kind: I,
            display_index: 0,
        };
        assert_eq!(p.bits(), 80);
    }

    #[test]
    fn errors_are_send_sync_error() {
        fn check<T: std::error::Error + Send + Sync>() {}
        check::<CodecError>();
    }

    #[test]
    fn picture_dims_table() {
        let cap_h = MAX_DECODE_PIXELS / 16384; // 4096 rows of 16384
        for (w, h, ok) in [
            (16, 16, true),
            (15, 16, false),
            (16, 14, false),
            (17, 16, false),
            (64, 47, false),
            (16384, 16, true),
            (16386, 16, false),
            (16, 16386, false),
            (16384, cap_h, true),
            (16384, cap_h + 2, false),
            (1920, 1088, true),
        ] {
            assert_eq!(check_picture_dims(w, h).is_ok(), ok, "{w}x{h}");
            let prefix = PicturePrefix {
                kind: I,
                display_index: 0,
                width: w,
                height: h,
            };
            match prefix.check_dims() {
                Ok(()) => assert!(ok, "{w}x{h}"),
                Err(CodecError::Corrupt { kind, detail, .. }) => {
                    assert!(!ok, "{w}x{h}");
                    assert_eq!(kind, CorruptKind::BadDimensions);
                    assert_eq!(detail, format!("implausible dimensions {w}x{h}"));
                }
                Err(other) => panic!("{w}x{h}: {other}"),
            }
        }
    }

    #[test]
    fn prefix_roundtrips_and_is_not_validated_while_parsing() {
        // Odd, oversized dimensions survive the parse: rejecting them is
        // `check_dims`, which runs after the codec's own header fields.
        let prefix = PicturePrefix {
            kind: B,
            display_index: 0xDEAD_BEEF,
            width: 47,
            height: 100_000,
        };
        let mut w = BitWriter::new();
        write_picture_prefix(&mut w, 0x4D32, &prefix);
        assert_eq!(w.bit_len(), 16 + 2 + 32 + 11 + 33);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_picture_prefix(&mut r, 0x4D32).unwrap(), prefix);
        assert_eq!(r.bit_pos(), 94);

        let mut r = BitReader::new(&bytes);
        let foreign = read_picture_prefix(&mut r, 0x4834).expect_err("foreign magic");
        assert!(matches!(
            foreign.at_bit(r.bit_pos()),
            CodecError::Corrupt {
                offset: 16,
                kind: CorruptKind::BadMagic,
                ..
            }
        ));
        let mut r = BitReader::new(&bytes[..4]);
        let short = read_picture_prefix(&mut r, 0x4D32).expect_err("truncated");
        assert!(matches!(
            short,
            CodecError::Corrupt {
                kind: CorruptKind::Truncated,
                ..
            }
        ));
    }

    // The GOP tests schedule integers: the scheduler never looks inside
    // what it buffers.

    fn push(g: &mut GopScheduler<u32>, item: u32) -> Vec<(PacketKind, u32)> {
        let mut out = Vec::new();
        g.push_into(item, &mut out);
        // Each item is its own display index, so this also checks that
        // items and indices stay paired through the reordering.
        out.iter()
            .inspect(|s| assert_eq!(s.item, s.display_index))
            .map(|s| (s.kind, s.display_index))
            .collect()
    }

    fn finish(g: &mut GopScheduler<u32>) -> Vec<(PacketKind, u32)> {
        let mut out = Vec::new();
        g.finish_into(&mut out);
        out.iter().map(|s| (s.kind, s.display_index)).collect()
    }

    #[test]
    fn ipbb_coding_order() {
        let mut g = GopScheduler::new(2, None);
        assert_eq!(push(&mut g, 0), vec![(I, 0)]);
        assert!(push(&mut g, 1).is_empty()); // display 1 buffered
        assert!(push(&mut g, 2).is_empty()); // display 2 buffered
        assert_eq!(push(&mut g, 3), vec![(P, 3), (B, 1), (B, 2)]);
        assert!(push(&mut g, 4).is_empty());
        assert!(push(&mut g, 5).is_empty());
        assert_eq!(push(&mut g, 6), vec![(P, 6), (B, 4), (B, 5)]);
        assert!(finish(&mut g).is_empty());
    }

    #[test]
    fn flush_promotes_trailing_frames() {
        let mut g = GopScheduler::new(2, None);
        let _ = push(&mut g, 0); // I0
        let _ = push(&mut g, 1); // buffered
        let _ = push(&mut g, 2); // buffered
        assert_eq!(finish(&mut g), vec![(P, 2), (B, 1)]);
        assert!(finish(&mut g).is_empty());
    }

    #[test]
    fn no_b_frames_is_ipp() {
        let mut g = GopScheduler::new(0, None);
        assert_eq!(push(&mut g, 0), vec![(I, 0)]);
        assert_eq!(push(&mut g, 1), vec![(P, 1)]);
        assert_eq!(push(&mut g, 2), vec![(P, 2)]);
    }

    #[test]
    fn periodic_intra() {
        let mut g = GopScheduler::new(0, Some(2));
        assert_eq!(push(&mut g, 0), vec![(I, 0)]);
        assert_eq!(push(&mut g, 1), vec![(P, 1)]);
        assert_eq!(push(&mut g, 2), vec![(I, 2)]);
        assert_eq!(push(&mut g, 3), vec![(P, 3)]);
    }

    #[test]
    fn only_first_frame_is_intra_by_default() {
        let mut g = GopScheduler::new(2, None);
        let mut kinds = Vec::new();
        for i in 0..16 {
            kinds.extend(push(&mut g, i).into_iter().map(|(k, _)| k));
        }
        kinds.extend(finish(&mut g).into_iter().map(|(k, _)| k));
        assert_eq!(kinds.len(), 16);
        assert_eq!(kinds.iter().filter(|&&k| k == I).count(), 1);
        assert_eq!(kinds[0], I);
    }
}
