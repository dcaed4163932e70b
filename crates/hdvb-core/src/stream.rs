//! A minimal file container for coded HD-VideoBench streams ("HVB1"),
//! so the CLI can write encode output to disk and decode it back — the
//! role the AVI/raw files play in the original benchmark's Table IV
//! commands.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "HVB1" | codec u8 | width u32 | height u32 | fps_num u32 |
//! fps_den u32 | packet_count u32 | packets...
//! packet: kind u8 ('I'/'P'/'B') | display_index u32 | len u32 | data
//! ```

use crate::{BenchError, CodecId, Packet, PacketKind};
use hdvb_bits::picture::MAX_DECODE_PIXELS;
use hdvb_frame::{FrameRate, Resolution, VideoFormat};
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"HVB1";

/// Stream-level metadata stored in the container header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamHeader {
    /// Which codec produced the packets.
    pub codec: CodecId,
    /// Video geometry and frame rate.
    pub format: VideoFormat,
}

fn codec_byte(c: CodecId) -> u8 {
    match c {
        CodecId::Mpeg2 => 2,
        CodecId::Mpeg4 => 4,
        CodecId::H264 => 64,
    }
}

fn codec_from_byte(b: u8) -> Option<CodecId> {
    match b {
        2 => Some(CodecId::Mpeg2),
        4 => Some(CodecId::Mpeg4),
        64 => Some(CodecId::H264),
        _ => None,
    }
}

/// Writes a coded stream to `writer`.
///
/// # Errors
///
/// Propagates I/O errors as [`BenchError::Bitstream`].
pub fn write_stream<W: Write>(
    mut writer: W,
    header: &StreamHeader,
    packets: &[Packet],
) -> Result<(), BenchError> {
    let io = |e: std::io::Error| BenchError::Bitstream(format!("write failed: {e}"));
    writer.write_all(MAGIC).map_err(io)?;
    writer.write_all(&[codec_byte(header.codec)]).map_err(io)?;
    writer
        .write_all(&(header.format.resolution.width() as u32).to_le_bytes())
        .map_err(io)?;
    writer
        .write_all(&(header.format.resolution.height() as u32).to_le_bytes())
        .map_err(io)?;
    writer
        .write_all(&header.format.frame_rate.num().to_le_bytes())
        .map_err(io)?;
    writer
        .write_all(&header.format.frame_rate.den().to_le_bytes())
        .map_err(io)?;
    writer
        .write_all(&(packets.len() as u32).to_le_bytes())
        .map_err(io)?;
    for p in packets {
        writer.write_all(&[p.kind.as_byte()]).map_err(io)?;
        writer
            .write_all(&p.display_index.to_le_bytes())
            .map_err(io)?;
        writer
            .write_all(&(p.data.len() as u32).to_le_bytes())
            .map_err(io)?;
        writer.write_all(&p.data).map_err(io)?;
    }
    Ok(())
}

/// Reads a coded stream from `reader`.
///
/// # Errors
///
/// [`BenchError::Bitstream`] on a malformed or truncated container.
pub fn read_stream<R: Read>(mut reader: R) -> Result<(StreamHeader, Vec<Packet>), BenchError> {
    let bad = |msg: &str| BenchError::Bitstream(msg.to_string());
    let mut buf4 = [0u8; 4];
    let mut buf1 = [0u8; 1];
    reader
        .read_exact(&mut buf4)
        .map_err(|_| bad("truncated header"))?;
    if &buf4 != MAGIC {
        return Err(bad("not an HVB1 stream"));
    }
    reader
        .read_exact(&mut buf1)
        .map_err(|_| bad("truncated header"))?;
    let codec = codec_from_byte(buf1[0]).ok_or_else(|| bad("unknown codec id"))?;
    let read_u32 = |r: &mut R| -> Result<u32, BenchError> {
        let mut b = [0u8; 4];
        r.read_exact(&mut b).map_err(|_| bad("truncated header"))?;
        Ok(u32::from_le_bytes(b))
    };
    let width = read_u32(&mut reader)?;
    let height = read_u32(&mut reader)?;
    if width < 16
        || height < 16
        || width > 16384
        || height > 16384
        || width % 2 != 0
        || height % 2 != 0
    {
        return Err(bad("implausible stream geometry"));
    }
    let num = read_u32(&mut reader)?.max(1);
    let den = read_u32(&mut reader)?.max(1);
    let count = read_u32(&mut reader)?;
    if count > 1_000_000 {
        return Err(bad("implausible packet count"));
    }
    let mut packets = Vec::with_capacity(count as usize);
    for _ in 0..count {
        reader
            .read_exact(&mut buf1)
            .map_err(|_| bad("truncated packet header"))?;
        let kind = PacketKind::from_byte(buf1[0]).ok_or_else(|| bad("bad packet kind"))?;
        let display_index = read_u32(&mut reader)?;
        let len = read_u32(&mut reader)? as usize;
        // No legitimate packet outgrows an uncompressed 64-Mpixel picture,
        // and a forged length field must not drive a giant allocation
        // before read_exact fails.
        if len > MAX_DECODE_PIXELS {
            return Err(bad("implausible packet size"));
        }
        let mut data = vec![0u8; len];
        reader
            .read_exact(&mut data)
            .map_err(|_| bad("truncated packet body"))?;
        packets.push(Packet {
            data,
            kind,
            display_index,
        });
    }
    Ok((
        StreamHeader {
            codec,
            format: VideoFormat {
                resolution: Resolution::new(width, height),
                frame_rate: FrameRate::new(num, den),
            },
        },
        packets,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (StreamHeader, Vec<Packet>) {
        (
            StreamHeader {
                codec: CodecId::Mpeg4,
                format: VideoFormat::at_25fps(Resolution::new(64, 48)),
            },
            vec![
                Packet {
                    data: vec![1, 2, 3],
                    kind: PacketKind::I,
                    display_index: 0,
                },
                Packet {
                    data: vec![9; 100],
                    kind: PacketKind::B,
                    display_index: 1,
                },
            ],
        )
    }

    #[test]
    fn roundtrip() {
        let (h, ps) = sample();
        let mut buf = Vec::new();
        write_stream(&mut buf, &h, &ps).unwrap();
        let (h2, ps2) = read_stream(&buf[..]).unwrap();
        assert_eq!(h, h2);
        assert_eq!(ps, ps2);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(read_stream(&b"RIFFxxxx"[..]).is_err());
        let (h, ps) = sample();
        let mut buf = Vec::new();
        write_stream(&mut buf, &h, &ps).unwrap();
        for cut in [0, 3, 5, 10, buf.len() - 1] {
            assert!(read_stream(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn all_codec_ids_roundtrip() {
        for c in CodecId::ALL {
            assert_eq!(codec_from_byte(codec_byte(c)), Some(c));
        }
        assert_eq!(codec_from_byte(99), None);
    }
}
