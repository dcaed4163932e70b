//! Transcoding example: decode an MPEG-2-class stream and re-encode it
//! with the H.264-class codec — the desktop transcoding workload the
//! paper cites as a core use of these applications (MEncoder,
//! GordianKnot). Reports the bitrate saved and the generation loss.
//!
//! Run with: `cargo run --release --example transcode`

use hd_videobench::bench::{create_decoder, create_encoder, CodecId, CodingOptions, Packet};
use hd_videobench::frame::{Frame, Resolution, SequencePsnr};
use hd_videobench::seq::{Sequence, SequenceId};

fn encode(
    codec: CodecId,
    frames: &[Frame],
    resolution: Resolution,
    options: &CodingOptions,
) -> Result<Vec<Packet>, Box<dyn std::error::Error>> {
    let mut enc = create_encoder(codec, resolution, options)?;
    let mut packets = Vec::new();
    for f in frames {
        enc.encode_frame_into(f, &mut packets)?;
    }
    enc.finish_into(&mut packets)?;
    Ok(packets)
}

fn decode(codec: CodecId, packets: &[Packet]) -> Result<Vec<Frame>, Box<dyn std::error::Error>> {
    let mut dec = create_decoder(codec, hd_videobench::dsp::SimdLevel::detect());
    let mut out = Vec::new();
    for p in packets {
        dec.decode_packet_into(&p.data, &mut out)?;
    }
    dec.finish_into(&mut out);
    Ok(out)
}

fn kbits(packets: &[Packet]) -> f64 {
    packets.iter().map(Packet::bits).sum::<u64>() as f64 / 1000.0
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let resolution = Resolution::new(320, 256);
    let frames_n = 15;
    let options = CodingOptions::default();
    let seq = Sequence::new(SequenceId::PedestrianArea, resolution);
    let originals: Vec<Frame> = (0..frames_n).map(|i| seq.frame(i)).collect();

    // Stage 1: "broadcast" MPEG-2 encode.
    let mpeg2_stream = encode(CodecId::Mpeg2, &originals, resolution, &options)?;
    let mpeg2_frames = decode(CodecId::Mpeg2, &mpeg2_stream)?;
    let mut first_gen = SequencePsnr::new();
    for (o, d) in originals.iter().zip(&mpeg2_frames) {
        first_gen.add(o, d);
    }

    // Stage 2: transcode the *decoded* MPEG-2 output to H.264.
    let h264_stream = encode(CodecId::H264, &mpeg2_frames, resolution, &options)?;
    let h264_frames = decode(CodecId::H264, &h264_stream)?;
    let mut second_gen = SequencePsnr::new();
    for (o, d) in originals.iter().zip(&h264_frames) {
        second_gen.add(o, d);
    }

    println!("transcode {} ({resolution}, {frames_n} frames)", seq.id());
    println!(
        "  mpeg2 source stream : {:>8.0} kbit  ({:.2} dB vs camera original)",
        kbits(&mpeg2_stream),
        first_gen.y_psnr()
    );
    println!(
        "  h264 transcoded     : {:>8.0} kbit  ({:.2} dB vs camera original)",
        kbits(&h264_stream),
        second_gen.y_psnr()
    );
    println!(
        "  bitrate saved       : {:>7.1}%   generation loss: {:.2} dB",
        100.0 * (1.0 - kbits(&h264_stream) / kbits(&mpeg2_stream)),
        first_gen.y_psnr() - second_gen.y_psnr()
    );
    Ok(())
}
