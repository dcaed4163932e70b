//! The `hdvb` subcommand implementations.

use crate::args::Parsed;
use crate::kernelbench;
use hdvb_core::{
    cpu_model, create_encoder, decode_sequence, encode_sequence, encode_sequence_parallel,
    figure1_markdown, machine_attribution, measure_figure1_row, measure_rd_point, read_stream,
    table5_markdown, write_stream, CodecId, CodingOptions, FaultPlan, Figure1Part, Figure1Row,
    FtSweepReport, Packet, ParallelRunner, StreamHeader, SweepPolicy,
};
use hdvb_dsp::SimdLevel;
use hdvb_frame::{Frame, Resolution, SequencePsnr, VideoFormat, Y4mReader, Y4mWriter};
use hdvb_par::ThreadPool;
use hdvb_seq::{Sequence, SequenceId};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::time::Instant;

type CmdResult = Result<(), String>;

fn options_from(p: &Parsed) -> Result<CodingOptions, String> {
    Ok(CodingOptions::default()
        .with_qscale(p.qscale()?)
        .with_b_frames(p.b_frames()?)
        .with_simd(p.simd()?))
}

/// Arms the profiling subsystem when `--trace <out.json>` was passed.
/// Drop writes the chrome trace and prints the stage summary, so every
/// command exit path (including errors) still produces the artefacts.
struct TraceSession<'a> {
    path: Option<&'a str>,
}

impl<'a> TraceSession<'a> {
    fn start(p: &'a Parsed) -> TraceSession<'a> {
        let path = p.trace();
        if path.is_some() {
            hdvb_trace::reset();
            hdvb_trace::set_enabled(true);
        }
        TraceSession { path }
    }
}

impl Drop for TraceSession<'_> {
    fn drop(&mut self) {
        let Some(path) = self.path else { return };
        hdvb_trace::set_enabled(false);
        let report = hdvb_trace::collect();
        eprintln!();
        eprint!("{}", report.summary_table());
        match report.write_chrome_trace(path) {
            Ok(()) => eprintln!("wrote chrome trace to {path} (open in ui.perfetto.dev)"),
            Err(e) => eprintln!("error: cannot write trace {path}: {e}"),
        }
    }
}

pub fn list_codecs() -> CmdResult {
    println!("codec   paper encoder   paper decoder");
    for c in CodecId::ALL {
        println!(
            "{:<7} {:<15} {}",
            c.name(),
            c.paper_encoder(),
            c.paper_decoder()
        );
    }
    Ok(())
}

pub fn list_sequences() -> CmdResult {
    println!("HD-VideoBench input sequences (paper Table III), 25 fps, 100 frames:");
    for s in SequenceId::ALL {
        println!("  {:<16} {}", s.name(), s.description());
    }
    println!("resolutions: 576p25 (720x576), 720p25 (1280x720), 1088p25 (1920x1088)");
    Ok(())
}

pub fn generate(p: &Parsed) -> CmdResult {
    let seq = Sequence::new(p.sequence()?, p.resolution()?);
    let frames = p.frames()?;
    let path = p.output().ok_or("missing --output for generate")?;
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut writer = Y4mWriter::new(
        BufWriter::new(file),
        seq.resolution(),
        seq.format().frame_rate,
    );
    for i in 0..frames {
        writer
            .write_frame(&seq.frame(i))
            .map_err(|e| format!("write failed: {e}"))?;
    }
    writer
        .into_inner()
        .map_err(|e| format!("flush failed: {e}"))?;
    println!("wrote {frames} frames of {} to {path}", seq.id());
    Ok(())
}

/// Reads every frame of a Y4M file.
fn read_y4m(path: &str) -> Result<(VideoFormat, Vec<Frame>), String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader =
        Y4mReader::new(BufReader::new(file)).map_err(|e| format!("bad y4m {path}: {e}"))?;
    let format = VideoFormat {
        resolution: reader.resolution(),
        frame_rate: reader.frame_rate(),
    };
    let mut frames = Vec::new();
    while let Some(f) = reader
        .read_frame()
        .map_err(|e| format!("read failed: {e}"))?
    {
        frames.push(f);
    }
    Ok((format, frames))
}

pub fn encode(p: &Parsed) -> CmdResult {
    let _trace = TraceSession::start(p);
    let codec = p.codec()?;
    let options = options_from(p)?;
    let out_path = p.output().ok_or("missing --output for encode")?;

    let (format, packets, frames, elapsed) = if let Some(input) = p.input() {
        // Encode an external .y4m file, streaming: one reused frame
        // buffer and write-into-caller packet emission, so memory stays
        // flat no matter how long the clip is (the reported fps
        // includes read I/O, which is the honest number for a file
        // transcode).
        let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
        let mut reader =
            Y4mReader::new(BufReader::new(file)).map_err(|e| format!("bad y4m {input}: {e}"))?;
        let format = VideoFormat {
            resolution: reader.resolution(),
            frame_rate: reader.frame_rate(),
        };
        let mut enc =
            create_encoder(codec, format.resolution, &options).map_err(|e| e.to_string())?;
        let mut packets: Vec<Packet> = Vec::new();
        let mut frame = Frame::new(format.resolution.width(), format.resolution.height());
        let mut frames_in = 0u32;
        let t0 = Instant::now();
        while reader
            .read_frame_into(&mut frame)
            .map_err(|e| format!("read failed: {e}"))?
        {
            enc.encode_frame_into(&frame, &mut packets)
                .map_err(|e| e.to_string())?;
            frames_in += 1;
        }
        enc.finish_into(&mut packets).map_err(|e| e.to_string())?;
        (format, packets, frames_in, t0.elapsed())
    } else {
        // Encode a synthetic benchmark sequence, GOP-parallel when more
        // than one thread is requested.
        let seq = Sequence::new(p.sequence()?, p.resolution()?);
        let threads = resolve_threads(p)?;
        let result = if threads > 1 {
            let pool = ThreadPool::new(threads);
            let (result, stats) =
                encode_sequence_parallel(codec, seq, p.frames()?, &options, &pool, threads)
                    .map_err(|e| e.to_string())?;
            eprintln!(
                "GOP-parallel encode: {} chunks on {threads} threads, wall {:.2}s, cpu {:.2}s",
                stats.chunks,
                stats.wall.as_secs_f64(),
                stats.cpu.as_secs_f64()
            );
            result
        } else {
            encode_sequence(codec, seq, p.frames()?, &options).map_err(|e| e.to_string())?
        };
        (seq.format(), result.packets, result.frames, result.elapsed)
    };

    let bits: u64 = packets.iter().map(Packet::bits).sum();
    let header = StreamHeader { codec, format };
    let file = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    write_stream(BufWriter::new(file), &header, &packets).map_err(|e| e.to_string())?;
    let fps = f64::from(frames) / elapsed.as_secs_f64().max(1e-9);
    let kbps = bits as f64 * format.frame_rate.as_f64() / f64::from(frames.max(1)) / 1000.0;
    println!(
        "{codec}: encoded {frames} frames in {:.2}s ({fps:.2} fps), {kbps:.0} kbit/s -> {out_path}",
        elapsed.as_secs_f64()
    );
    Ok(())
}

pub fn decode(p: &Parsed) -> CmdResult {
    let _trace = TraceSession::start(p);
    let in_path = p.input().ok_or("missing --input for decode")?;
    let file = File::open(in_path).map_err(|e| format!("cannot open {in_path}: {e}"))?;
    let (header, packets) = read_stream(BufReader::new(file)).map_err(|e| e.to_string())?;
    let simd = p.simd()?;
    let result = if p.resilient() {
        // Drop-and-continue: a corrupt packet costs its frame(s) and a
        // warning, not the stream.
        let t0 = Instant::now();
        let resilient = hdvb_core::decode_sequence_resilient(header.codec, &packets, simd);
        let elapsed = t0.elapsed();
        for (index, err) in &resilient.dropped {
            eprintln!("warning: dropped corrupt packet #{index}: {err}");
        }
        if !resilient.dropped.is_empty() {
            eprintln!(
                "warning: {} of {} packets dropped, {} frames recovered",
                resilient.dropped.len(),
                packets.len(),
                resilient.frames.len()
            );
        }
        hdvb_core::DecodeResult {
            frames: resilient.frames,
            elapsed,
        }
    } else {
        decode_sequence(header.codec, &packets, simd).map_err(|e| e.to_string())?
    };
    println!(
        "{}: decoded {} frames in {:.3}s ({:.2} fps, {})",
        header.codec,
        result.frames.len(),
        result.elapsed.as_secs_f64(),
        result.decode_fps(),
        simd.label(),
    );
    if let Some(out_path) = p.output() {
        let file = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
        let mut writer = Y4mWriter::new(
            BufWriter::new(file),
            header.format.resolution,
            header.format.frame_rate,
        );
        for f in &result.frames {
            writer
                .write_frame(f)
                .map_err(|e| format!("write failed: {e}"))?;
        }
        writer
            .into_inner()
            .map_err(|e| format!("flush failed: {e}"))?;
        println!("wrote {out_path}");
    }
    Ok(())
}

/// PSNR between a decoded `.y4m` (via `--input`) and either a second
/// `.y4m` (via `--output` used as the reference path) or a regenerated
/// synthetic sequence (via `--sequence`).
pub fn psnr(p: &Parsed) -> CmdResult {
    let in_path = p.input().ok_or("missing --input for psnr")?;
    let (format, distorted) = read_y4m(in_path)?;
    let mut acc = SequencePsnr::new();
    if let Some(ref_path) = p.output() {
        let (_, reference) = read_y4m(ref_path)?;
        if reference.len() < distorted.len() {
            return Err(format!(
                "reference has {} frames, distorted has {}",
                reference.len(),
                distorted.len()
            ));
        }
        for (r, d) in reference.iter().zip(&distorted) {
            acc.add(r, d);
        }
    } else {
        let seq = Sequence::new(p.sequence()?, format.resolution);
        for (i, d) in distorted.iter().enumerate() {
            acc.add(&seq.frame(i as u32), d);
        }
    }
    println!(
        "{} frames: Y {:.3} dB  Cb {:.3} dB  Cr {:.3} dB  combined {:.3} dB",
        acc.frames(),
        acc.y_psnr(),
        acc.cb_psnr(),
        acc.cr_psnr(),
        acc.combined_psnr()
    );
    Ok(())
}

/// Resolves `--threads` to a concrete worker count (`0` = machine).
fn resolve_threads(p: &Parsed) -> Result<usize, String> {
    Ok(match p.threads()? {
        0 => ThreadPool::default_threads(),
        n => n,
    })
}

pub fn bench(p: &Parsed) -> CmdResult {
    let _trace = TraceSession::start(p);
    let codec = p.codec()?;
    let seq = Sequence::new(p.sequence()?, p.resolution()?);
    let options = options_from(p)?;
    let frames = p.frames()?;
    let threads = resolve_threads(p)?;
    if threads > 1 {
        // GOP-parallel encode: N concurrent encoder instances on
        // GOP-aligned chunks, spliced into one stream.
        let pool = ThreadPool::new(threads);
        let (enc, stats) = encode_sequence_parallel(codec, seq, frames, &options, &pool, threads)
            .map_err(|e| e.to_string())?;
        let dec = decode_sequence(codec, &enc.packets, options.simd).map_err(|e| e.to_string())?;
        let mut acc = SequencePsnr::new();
        for (i, d) in dec.frames.iter().enumerate() {
            acc.add(&seq.frame(i as u32), d);
        }
        println!(
            "{codec} {} {} {} frames ({}): encode {:.2} fps on {threads} threads \
             ({} chunks, wall {:.2}s, cpu {:.2}s, speedup {:.2}x), decode {:.2} fps, \
             {:.2} dB, {:.0} kbit/s",
            seq.id(),
            seq.resolution().label(),
            frames,
            options.simd.label(),
            enc.encode_fps(),
            stats.chunks,
            stats.wall.as_secs_f64(),
            stats.cpu.as_secs_f64(),
            stats.cpu.as_secs_f64() / stats.wall.as_secs_f64().max(1e-9),
            dec.decode_fps(),
            acc.y_psnr(),
            enc.bitrate_kbps(),
        );
        return bench_json_outputs(p, codec, seq, frames, &options);
    }
    let t = measure_figure1_row(codec, seq, frames, &options).map_err(|e| e.to_string())?;
    let rd = measure_rd_point(codec, seq, frames, &options).map_err(|e| e.to_string())?;
    println!(
        "{codec} {} {} {} frames ({}): encode {:.2} fps, decode {:.2} fps, \
         {:.2} dB (ssim {:.4}), {:.0} kbit/s",
        seq.id(),
        seq.resolution().label(),
        frames,
        options.simd.label(),
        t.encode_fps,
        t.decode_fps,
        rd.psnr_y,
        rd.ssim_y,
        rd.bitrate_kbps,
    );
    bench_json_outputs(p, codec, seq, frames, &options)
}

/// The `bench --json` side outputs: the kernel microbenchmark to
/// `BENCH_kernels.json` and the benched codec's encode/decode fps at
/// every supported tier to `BENCH_figure1.json`.
fn bench_json_outputs(
    p: &Parsed,
    codec: CodecId,
    seq: Sequence,
    frames: u32,
    options: &CodingOptions,
) -> CmdResult {
    if !p.json() {
        return Ok(());
    }
    let krows = kernelbench::run_all();
    write_bench_file(
        "BENCH_kernels.json",
        &kernelbench::kernels_json(&krows, &cpu_model()),
    )?;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"figure1\",\n");
    out.push_str(&format!(
        "  \"cpu\": {},\n",
        hdvb_trace::json::escape(&cpu_model())
    ));
    out.push_str(&format!(
        "  \"auto_tier\": \"{}\",\n",
        SimdLevel::detect().tier_name()
    ));
    out.push_str(&format!("  \"frames\": {frames},\n"));
    out.push_str(&format!("  \"sequence\": \"{}\",\n", seq.id().name()));
    out.push_str("  \"rows\": [\n");
    let tiers = SimdLevel::supported_tiers();
    for (i, &tier) in tiers.iter().enumerate() {
        let t = measure_figure1_row(codec, seq, frames, &options.with_simd(tier))
            .map_err(|e| e.to_string())?;
        for (dir, fps) in [("encode", t.encode_fps), ("decode", t.decode_fps)] {
            let last = i + 1 == tiers.len() && dir == "decode";
            out.push_str(&format!(
                "    {{\"resolution\": \"{}\", \"direction\": \"{dir}\", \"tier\": \"{}\", \
                 \"codec\": \"{}\", \"fps\": {fps:.3}}}{}\n",
                seq.resolution().label(),
                tier.tier_name(),
                codec.name(),
                if last { "" } else { "," },
            ));
        }
    }
    out.push_str("  ]\n}\n");
    write_bench_file("BENCH_figure1.json", &out)
}

/// Writes a `BENCH_*.json` trajectory file into the current directory.
fn write_bench_file(path: &str, content: &str) -> CmdResult {
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Runs the kernel microbenchmark at every supported tier; `--json`
/// also writes `BENCH_kernels.json`.
pub fn kernels(p: &Parsed) -> CmdResult {
    let tiers: Vec<&str> = SimdLevel::supported_tiers()
        .iter()
        .map(|t| t.tier_name())
        .collect();
    eprintln!("measuring kernels at tiers: {} ...", tiers.join(", "));
    let rows = kernelbench::run_all();
    print!("{}", kernelbench::kernels_table(&rows));
    println!();
    println!("{}", machine_attribution());
    if p.json() {
        write_bench_file(
            "BENCH_kernels.json",
            &kernelbench::kernels_json(&rows, &cpu_model()),
        )?;
    }
    Ok(())
}

/// Renders Figure 1 rows as the `BENCH_figure1.json` document (one
/// object per codec × row, so the file is trivially diffable between
/// runs).
fn figure1_json(rows: &[Figure1Row], frames: u32) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"figure1\",\n");
    out.push_str(&format!(
        "  \"cpu\": {},\n",
        hdvb_trace::json::escape(&cpu_model())
    ));
    out.push_str(&format!(
        "  \"auto_tier\": \"{}\",\n",
        SimdLevel::detect().tier_name()
    ));
    out.push_str(&format!("  \"frames\": {frames},\n"));
    out.push_str("  \"rows\": [\n");
    let total = rows.len() * CodecId::ALL.len();
    let mut i = 0;
    for r in rows {
        for (ci, codec) in CodecId::ALL.iter().enumerate() {
            i += 1;
            let comma = if i == total { "" } else { "," };
            // Failed/timed-out cells carry NaN; JSON has no NaN, so
            // they serialise as null.
            let fps = if r.fps[ci].is_finite() {
                format!("{:.3}", r.fps[ci])
            } else {
                "null".to_string()
            };
            out.push_str(&format!(
                "    {{\"resolution\": \"{}\", \"direction\": \"{}\", \"tier\": \"{}\", \
                 \"codec\": \"{}\", \"fps\": {fps}}}{comma}\n",
                r.resolution.label(),
                if r.decode { "decode" } else { "encode" },
                r.tier.tier_name(),
                codec.name(),
            ));
        }
    }
    out.push_str("  ]\n}\n");
    out
}

fn benchmark_resolutions(scale: u32) -> Vec<Resolution> {
    Resolution::ALL
        .iter()
        .map(|r| if scale == 1 { *r } else { r.scaled_down(scale) })
        .collect()
}

/// Builds the fault-tolerance policy shared by `table5` and `figure1`
/// from the CLI flags plus the `HDVB_FAULTS` injection env var, with
/// the journal path and whether to resume from it (`--resume` requires
/// `--journal`).
fn ft_setup(p: &Parsed) -> Result<(SweepPolicy, Option<&std::path::Path>, bool), String> {
    let faults = FaultPlan::from_env().map_err(|e| format!("bad HDVB_FAULTS: {e}"))?;
    let policy = SweepPolicy {
        max_retries: p.max_retries()?,
        cell_timeout: p.cell_timeout()?,
        seed: p.seed()?,
        faults,
        ..SweepPolicy::default()
    };
    let journal = p.journal().map(std::path::Path::new);
    let resume = p.resume();
    if resume && journal.is_none() {
        return Err("--resume requires --journal <path>".to_string());
    }
    Ok((policy, journal, resume))
}

/// Prints the fault-tolerance outcome of a sweep: the per-cell failure
/// table (stdout, it is part of the result) when anything went wrong,
/// and the execution summary (stderr).
fn report_ft(report: &FtSweepReport) {
    if !report.all_ok() || report.restored() > 0 || report.journal_bad_lines > 0 {
        println!();
        print!("{}", report.failure_summary());
    }
    eprintln!("{}", report.execution.summary());
}

pub fn table5(p: &Parsed) -> CmdResult {
    let _trace = TraceSession::start(p);
    let options = options_from(p)?;
    let frames = p.frames()?;
    let scale = p.scale()?;
    let runner = ParallelRunner::new(p.threads()?);
    let resolutions = benchmark_resolutions(scale);
    let (policy, journal, resume) = ft_setup(p)?;
    eprintln!(
        "measuring {} rate-distortion cells on {} thread(s) ...",
        resolutions.len() * SequenceId::ALL.len() * CodecId::ALL.len(),
        runner.threads()
    );
    let (rows, report) = runner
        .table5_rows(&resolutions, frames, &options, &policy, journal, resume)
        .map_err(|e| e.to_string())?;
    println!(
        "# Table V — rate-distortion comparison ({frames} frames, qscale {}, scale 1/{scale})",
        options.mpeg_qscale
    );
    println!();
    print!("{}", table5_markdown(&rows));
    report_ft(&report);
    Ok(())
}

pub fn figure1(p: &Parsed) -> CmdResult {
    let _trace = TraceSession::start(p);
    let options = options_from(p)?;
    let frames = p.frames()?;
    let scale = p.scale()?;
    let part = Figure1Part::from_name(p.part()?).expect("part already validated");
    let runner = ParallelRunner::new(p.threads()?);
    let resolutions = benchmark_resolutions(scale);
    eprintln!(
        "measuring figure 1 ({:?}) on {} thread(s) ...",
        part,
        runner.threads()
    );
    if runner.threads() > 1 {
        eprintln!(
            "note: fps columns are wall-clock; concurrent cells contend, \
             use --threads 1 for reference timings"
        );
    }
    let (policy, journal, resume) = ft_setup(p)?;
    let (rows, report) = runner
        .figure1_rows(
            &resolutions,
            frames,
            &options,
            part,
            &policy,
            journal,
            resume,
        )
        .map_err(|e| e.to_string())?;
    println!("# Figure 1 — HD-VideoBench performance ({frames} frames, scale 1/{scale})");
    println!();
    print!("{}", figure1_markdown(&rows));
    println!("{}", machine_attribution());
    report_ft(&report);
    if p.json() {
        write_bench_file("BENCH_figure1.json", &figure1_json(&rows, frames))?;
    }
    Ok(())
}

/// `hdvb profile`: traced encode + decode of one configuration with the
/// profiling subsystem forced on, printing the per-stage attribution
/// summary (the paper's codec-phase breakdown). `--trace <out.json>`
/// additionally writes the chrome://tracing file.
pub fn profile(p: &Parsed) -> CmdResult {
    let codec = p.codec()?;
    let seq = Sequence::new(p.sequence()?, p.resolution()?);
    let options = options_from(p)?;
    let frames = p.frames()?;
    eprintln!(
        "profiling {codec} {} {} {frames} frames ({}) ...",
        seq.id(),
        seq.resolution().label(),
        options.simd.label()
    );
    hdvb_trace::reset();
    hdvb_trace::set_enabled(true);
    let t = measure_figure1_row(codec, seq, frames, &options);
    hdvb_trace::set_enabled(false);
    let report = hdvb_trace::collect();
    let t = t.map_err(|e| e.to_string())?;
    println!(
        "# hdvb profile — {codec} {} {} ({frames} frames, {})",
        seq.id(),
        seq.resolution().label(),
        options.simd.label()
    );
    println!();
    print!("{}", report.summary_table());
    println!();
    println!(
        "encode {:.2} fps, decode {:.2} fps",
        t.encode_fps, t.decode_fps
    );
    if let Some(path) = p.trace() {
        report
            .write_chrome_trace(path)
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        println!("wrote chrome trace to {path} (open in ui.perfetto.dev)");
    }
    Ok(())
}

pub fn fuzz(p: &Parsed) -> CmdResult {
    if let Some(dir) = p.write_golden() {
        let dir = std::path::Path::new(dir);
        let vectors = hdvb_fuzz::golden_vectors();
        let count = vectors.len();
        for g in vectors {
            let stem = g.file_name();
            let stem = stem.trim_end_matches(".hvb");
            hdvb_fuzz::save_entry(dir, stem, &g.data)
                .map_err(|e| format!("cannot write golden vector {stem}: {e}"))?;
        }
        println!("wrote {count} golden vectors to {}", dir.display());
        return Ok(());
    }
    let threads = match p.threads()? {
        0 => ThreadPool::default_threads(),
        n => n,
    };
    let config = hdvb_fuzz::FuzzConfig {
        seconds: p.seconds()?,
        seed: p.seed()?,
        corpus_dir: p.corpus().map(std::path::PathBuf::from),
        threads,
        max_execs: None,
        roundtrips: p.roundtrips()?,
    };
    println!(
        "fuzzing: {}s budget, seed {}, differential over {:?} x serial/pool({threads})",
        config.seconds,
        config.seed,
        SimdLevel::supported_tiers()
    );
    // The oracle catches decoder panics with catch_unwind; silence the
    // default hook so an expected-caught panic does not spray backtraces
    // over the progress output. Restored before reporting.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = hdvb_fuzz::run_fuzz(&config);
    std::panic::set_hook(hook);
    let report = result.map_err(|e| format!("fuzz run failed: {e}"))?;
    println!(
        "ran {} encoder round trips, replayed {} entries, executed {} mutants in {:.1}s",
        report.roundtrips,
        report.replayed,
        report.executions,
        report.elapsed.as_secs_f64()
    );
    println!(
        "corpus grew to {} entries covering {} unique outcome signatures",
        report.corpus_entries, report.unique_signatures
    );
    if report.failures.is_empty() {
        println!("no panics, no cross-tier divergences");
        return Ok(());
    }
    for f in &report.failures {
        println!(
            "FAILURE {} ({} bytes): {}{}",
            f.name,
            f.data.len(),
            f.reason,
            f.saved_to
                .as_ref()
                .map(|p| format!(" [saved to {}]", p.display()))
                .unwrap_or_default()
        );
    }
    Err(format!(
        "{} failure(s) found — reproducers above",
        report.failures.len()
    ))
}

/// Formats ns as a human latency figure.
fn fmt_latency(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}

/// `serve`: run one streaming session through the service layer. With
/// no `--input`, encodes a synthetic sequence (bit-identical to
/// `encode --threads 1`); with `--input <in.hvb>`, transcodes the
/// stream to `--codec` (`--resilient` drops corrupt source packets).
pub fn serve(p: &Parsed) -> CmdResult {
    use hdvb_core::{CodecSession, SessionInput};
    use hdvb_serve::{Server, ServerConfig};

    if let Some(bind) = p.bind() {
        return serve_tcp(p, bind);
    }
    let _trace = TraceSession::start(p);
    let options = options_from(p)?;
    let out_path = p.output().ok_or("missing --output for serve")?;
    let server = Server::new(ServerConfig {
        threads: p.threads()?,
        queue_capacity: p.queue_cap()?,
        policy: p.queue_policy()?,
        ..ServerConfig::default()
    });

    let (header, result, submitted) = if let Some(in_path) = p.input() {
        // Transcode: decode the container's codec, re-encode to the
        // target codec.
        let target = p.codec()?;
        let file = File::open(in_path).map_err(|e| format!("cannot open {in_path}: {e}"))?;
        let (header, packets) = read_stream(BufReader::new(file)).map_err(|e| e.to_string())?;
        let mut session =
            CodecSession::transcoder(header.codec, target, header.format.resolution, &options)
                .map_err(|e| e.to_string())?;
        if p.resilient() {
            session = session.with_resilience();
        }
        let handle = server.open(session, true);
        let submitted = packets.len() as u64;
        for packet in packets {
            if handle.submit(SessionInput::Packet(packet.data)).is_err() {
                break;
            }
        }
        handle.finish();
        let result = handle.wait();
        let header = StreamHeader {
            codec: target,
            format: header.format,
        };
        (header, result, submitted)
    } else {
        // Encode a synthetic sequence, one frame at a time.
        let codec = p.codec()?;
        let seq = Sequence::new(p.sequence()?, p.resolution()?);
        let frames = p.frames()?;
        let session =
            CodecSession::encoder(codec, seq.resolution(), &options).map_err(|e| e.to_string())?;
        let handle = server.open(session, true);
        for i in 0..frames {
            if handle.submit(SessionInput::Frame(seq.frame(i))).is_err() {
                break;
            }
        }
        handle.finish();
        let result = handle.wait();
        let header = StreamHeader {
            codec,
            format: seq.format(),
        };
        (header, result, u64::from(frames))
    };
    server.drain();

    if let Some(e) = &result.error {
        return Err(format!(
            "session failed after {} inputs: {e}",
            result.completed
        ));
    }
    if result.corrupt_dropped > 0 {
        eprintln!(
            "warning: dropped {} corrupt packets (--resilient)",
            result.corrupt_dropped
        );
    }
    let file = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    write_stream(BufWriter::new(file), &header, &result.packets).map_err(|e| e.to_string())?;
    println!(
        "{}: served {} of {submitted} inputs, {} packets out, p50 {} p99 {} -> {out_path}",
        header.codec,
        result.completed,
        result.packets.len(),
        fmt_latency(result.metrics.latency.percentile(0.50)),
        fmt_latency(result.metrics.latency.percentile(0.99)),
    );
    Ok(())
}

/// `serve --bind`: the TCP front end. Listens for wire-protocol
/// sessions for `--seconds`, then prints the fleet summary and shuts
/// down. `--slo-p99` arms admission control; `--rate` arms
/// per-connection token-bucket shaping.
fn serve_tcp(p: &Parsed, bind: &str) -> CmdResult {
    use hdvb_net::{NetConfig, NetServer, SloPolicy};
    use hdvb_serve::{PoolsReport, ServerConfig};
    use std::io::Write as _;

    let slo = p.slo_p99()?.map(|p99| {
        Ok::<_, String>(SloPolicy {
            p99,
            min_samples: p.slo_min_samples()?,
            batch_headroom: p.batch_headroom()?,
        })
    });
    let slo = match slo {
        Some(r) => Some(r?),
        None => None,
    };
    let pools_before = PoolsReport::snapshot();
    let server = NetServer::bind(
        bind,
        NetConfig {
            server: ServerConfig {
                threads: p.threads()?,
                queue_capacity: p.queue_cap()?,
                policy: p.queue_policy()?,
                ..ServerConfig::default()
            },
            slo,
            rate_limit: p.rate()?,
            simd: p.simd()?,
            heartbeat: p.heartbeat_ms(30_000)?,
            faults: hdvb_net::NetFaultPlan::from_env()
                .map_err(|e| format!("bad HDVB_NET_FAULTS: {e}"))?,
            ..NetConfig::default()
        },
    )
    .map_err(|e| format!("cannot bind {bind}: {e}"))?;
    println!("hdvb-net: listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    std::thread::sleep(std::time::Duration::from_secs(p.seconds()?));
    let stats = server.stats();
    server.shutdown();
    let pools = PoolsReport::snapshot().delta_since(&pools_before);
    println!(
        "hdvb-net: {} connections, {} disconnects, {} wire errors",
        stats.connections, stats.disconnects, stats.wire_errors,
    );
    for pr in hdvb_core::Priority::ALL {
        let i = pr.index();
        println!(
            "  {:<5} admitted {} rejected {} completed {} p50 {} p99 {}",
            pr.name(),
            stats.admitted[i],
            stats.rejected[i],
            stats.completed[i],
            fmt_latency(stats.latency[i].percentile(0.50)),
            fmt_latency(stats.latency[i].percentile(0.99)),
        );
    }
    println!(
        "  pools: frame hit {:.0}% ({}/{} takes), buffer hit {:.0}% ({}/{} takes)",
        pools.frame.hit_rate() * 100.0,
        pools.frame.hits,
        pools.frame.takes,
        pools.buffer.hit_rate() * 100.0,
        pools.buffer.hits,
        pools.buffer.takes,
    );
    Ok(())
}

/// `connect`: a TCP client for a `serve --bind` server. Without
/// `--input`, encodes a synthetic sequence remotely; with
/// `--input <in.hvb>`, transcodes the stream to `--codec`. The output
/// container is byte-identical to the same session served in-process.
///
/// `--retries` is the reconnect budget. Above zero, sessions open
/// resumable, disconnects reconnect with capped seeded backoff, and
/// recovery is byte-identical to an uninterrupted run — including under
/// an `HDVB_NET_FAULTS` plan. At zero the same client runs a plain
/// session: no resume, and the first failure ends it with its cause.
pub fn connect(p: &Parsed) -> CmdResult {
    use hdvb_core::{SessionInput, SessionSpec};
    use hdvb_net::{NetClient, RetryPolicy};

    let addr = p.addr()?;
    let priority = p.priority()?;
    let out_path = p.output();
    let policy = RetryPolicy {
        max_reconnects: p.retries()?,
        seed: p.seed()?,
        ..RetryPolicy::default()
    };
    let mut client =
        NetClient::new(addr, policy).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    let (header, result, retry, submitted) = if let Some(in_path) = p.input() {
        let target = p.codec()?;
        let file = File::open(in_path).map_err(|e| format!("cannot open {in_path}: {e}"))?;
        let (header, packets) = read_stream(BufReader::new(file)).map_err(|e| e.to_string())?;
        let mut spec = SessionSpec::transcode(header.codec, target, header.format.resolution)
            .with_qscale(p.qscale()?)
            .with_b_frames(p.b_frames()?);
        if p.resilient() {
            spec = spec.with_resilience();
        }
        client
            .open(spec, priority)
            .map_err(|e| format!("open refused: {e}"))?;
        let submitted = packets.len() as u64;
        for packet in packets {
            client
                .send_packet(packet)
                .map_err(|e| format!("send failed: {e}"))?;
        }
        let (result, retry) = client
            .finish()
            .map_err(|e| format!("session failed: {e}"))?;
        let header = StreamHeader {
            codec: target,
            format: header.format,
        };
        (header, result, retry, submitted)
    } else {
        let codec = p.codec()?;
        let seq = Sequence::new(p.sequence()?, p.resolution()?);
        let frames = p.frames()?;
        let spec = SessionSpec::encode(codec, seq.resolution())
            .with_qscale(p.qscale()?)
            .with_b_frames(p.b_frames()?);
        client
            .open(spec, priority)
            .map_err(|e| format!("open refused: {e}"))?;
        for i in 0..frames {
            client
                .send(SessionInput::Frame(seq.frame(i)))
                .map_err(|e| format!("send failed: {e}"))?;
        }
        let (result, retry) = client
            .finish()
            .map_err(|e| format!("session failed: {e}"))?;
        let header = StreamHeader {
            codec,
            format: seq.format(),
        };
        (header, result, retry, u64::from(frames))
    };

    if let Some(out_path) = out_path {
        let file = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
        write_stream(BufWriter::new(file), &header, &result.packets).map_err(|e| e.to_string())?;
    }
    let recovered = if retry.reconnects > 0 {
        format!(
            ", recovered from {} disconnects ({} inputs replayed)",
            retry.reconnects, retry.replayed_inputs,
        )
    } else {
        String::new()
    };
    println!(
        "{}: {} served {} of {submitted} inputs, {} packets back, p50 {} p99 {}{recovered}{}",
        header.codec,
        priority.name(),
        result.stats.completed,
        result.packets.len(),
        fmt_latency(result.stats.p50_ns),
        fmt_latency(result.stats.p99_ns),
        out_path.map(|o| format!(" -> {o}")).unwrap_or_default(),
    );
    Ok(())
}

/// `serve-load`: sweeps TCP client fleets against loopback servers with
/// SLO admission on, printing the latency-vs-load saturation table and
/// writing `BENCH_loadcurve.json`.
pub fn serve_load(p: &Parsed) -> CmdResult {
    use hdvb_net::{loadcurve_json, loadcurve_markdown, run_load_curve, LoadCurveSpec, SloPolicy};

    let defaults = LoadCurveSpec::default();
    let slo = SloPolicy {
        p99: p.slo_p99()?.unwrap_or(defaults.slo.p99),
        min_samples: p.slo_min_samples()?,
        batch_headroom: p.batch_headroom()?,
    };
    let spec = LoadCurveSpec {
        codec: p.codec_opt()?.unwrap_or(CodecId::Mpeg2),
        mode: p.serve_mode()?,
        session_counts: p.sessions_list()?,
        fps: p.fps()?,
        duration: p.duration()?,
        resolution: p
            .resolution_opt()?
            .unwrap_or_else(|| Resolution::new(288, 160)),
        qscale: p.qscale()?,
        b_frames: p.b_frames()?,
        queue_capacity: p.queue_cap()?,
        threads: p.threads()?,
        slo,
        rate_limit: p.rate()?,
        seed: p.seed()?,
    };
    eprintln!(
        "serve-load: {} {} sweeping sessions {:?} @ {} fps for {:.1}s/cell, SLO p99 {:.0}ms",
        spec.codec,
        spec.mode.name(),
        spec.session_counts,
        spec.fps,
        spec.duration.as_secs_f64(),
        spec.slo.p99.as_secs_f64() * 1e3,
    );
    let report = run_load_curve(&spec)?;
    println!();
    print!("{}", loadcurve_markdown(&report));
    write_bench_file("BENCH_loadcurve.json", &loadcurve_json(&report))?;
    Ok(())
}

/// `pools`: a pool-efficiency diagnostic. Serves the same small encode
/// workload twice against the global frame/bitstream pools and reports
/// each pass's take/hit/return counters — the cold pass misses while
/// the pools fill, the warm pass should run near 100% hits. A warm hit
/// rate that drifts down is a buffer leaking out of the recycle loop.
pub fn pools(p: &Parsed) -> CmdResult {
    use hdvb_core::{CodecSession, SessionInput};
    use hdvb_serve::{json_pools, PoolsReport, Server, ServerConfig};

    let codec = p.codec_opt()?.unwrap_or(CodecId::Mpeg2);
    let resolution = p
        .resolution_opt()?
        .unwrap_or_else(|| Resolution::new(288, 160));
    let options = options_from(p)?;
    let seq = Sequence::new(SequenceId::BlueSky, resolution);
    let frames = 24u32;

    let mut passes = Vec::new();
    for _pass in 0..2 {
        let before = PoolsReport::snapshot();
        let server = Server::new(ServerConfig {
            threads: p.threads()?,
            ..ServerConfig::default()
        });
        let session =
            CodecSession::encoder(codec, resolution, &options).map_err(|e| e.to_string())?;
        let handle = server.open(session, false);
        for i in 0..frames {
            let mut frame =
                hdvb_frame::FramePool::global().take(resolution.width(), resolution.height());
            frame.copy_from(&seq.frame(i));
            if handle.submit(SessionInput::Frame(frame)).is_err() {
                break;
            }
        }
        handle.finish();
        let result = handle.wait();
        server.drain();
        if let Some(e) = &result.error {
            return Err(format!("pool-check session failed: {e}"));
        }
        passes.push(PoolsReport::snapshot().delta_since(&before));
    }

    println!(
        "pool efficiency — {codec} encode, {} frames of {}x{} per pass",
        frames,
        resolution.width(),
        resolution.height(),
    );
    println!("| pass | frame takes | frame hits | frame hit% | buffer takes | buffer hits | buffer hit% |");
    println!("|------|------------:|-----------:|-----------:|-------------:|------------:|------------:|");
    for (i, d) in passes.iter().enumerate() {
        println!(
            "| {} | {} | {} | {:.0} | {} | {} | {:.0} |",
            if i == 0 { "cold" } else { "warm" },
            d.frame.takes,
            d.frame.hits,
            d.frame.hit_rate() * 100.0,
            d.buffer.takes,
            d.buffer.hits,
            d.buffer.hit_rate() * 100.0,
        );
    }
    if p.json() {
        println!(
            "{{\"schema\":\"hdvb-pools/v1\",\"cold\":{},\"warm\":{}}}",
            json_pools(&passes[0]),
            json_pools(&passes[1]),
        );
    }
    Ok(())
}

/// `serve-bench`: open-loop load generation against the service layer,
/// reporting fleet-wide latency SLOs and writing `BENCH_serve.json`.
pub fn serve_bench(p: &Parsed) -> CmdResult {
    use hdvb_serve::{run_serve_bench, serve_json, serve_markdown, LoadSpec};

    let codecs: Vec<CodecId> = match p.codec_opt()? {
        Some(c) => vec![c],
        None => CodecId::ALL.to_vec(),
    };
    // Load tests default to a small frame so the offered rate, not the
    // per-frame cost, is the variable under study; pass --resolution to
    // stress full-size frames.
    let resolution = p
        .resolution_opt()?
        .unwrap_or_else(|| Resolution::new(288, 160));
    let mut runs = Vec::new();
    for codec in codecs {
        let spec = LoadSpec {
            codec,
            mode: p.serve_mode()?,
            sessions: p.sessions()?,
            fps: p.fps()?,
            duration: p.duration()?,
            resolution,
            options: options_from(p)?,
            queue_capacity: p.queue_cap()?,
            policy: p.queue_policy()?,
            seed: p.seed()?,
            threads: p.threads()?,
        };
        eprintln!(
            "serve-bench: {codec} {} x{} sessions @ {} fps for {:.1}s ({}x{}, {} policy, queue {})",
            spec.mode.name(),
            spec.sessions,
            spec.fps,
            spec.duration.as_secs_f64(),
            resolution.width(),
            resolution.height(),
            spec.policy.name(),
            spec.queue_capacity,
        );
        let report = run_serve_bench(&spec)?;
        eprintln!(
            "  completed {}/{} inputs in {:.2}s, dropped {}, {} session errors, clean shutdown",
            report.completed,
            report.offered,
            report.wall.as_secs_f64(),
            report.discarded,
            report.errors,
        );
        runs.push(report);
    }
    println!();
    print!("{}", serve_markdown(&runs));
    write_bench_file("BENCH_serve.json", &serve_json(&runs))?;
    Ok(())
}

/// Synthesizes a mezzanine from raw frames: encode near-lossless
/// (qscale 2), then decode **once** — the decoded frames are what the
/// ladder fans out, and the decode is the "decode once" half of the
/// transcode workload.
fn mezzanine(
    codec: CodecId,
    raw: &[Frame],
    options: &CodingOptions,
) -> Result<(Vec<Frame>, std::time::Duration), String> {
    let res = Resolution::new(raw[0].width() as u32, raw[0].height() as u32);
    let mezz_opts = options.with_qscale(2);
    let mut enc = create_encoder(codec, res, &mezz_opts).map_err(|e| e.to_string())?;
    let mut packets: Vec<Packet> = Vec::new();
    for f in raw {
        enc.encode_frame_into(f, &mut packets)
            .map_err(|e| e.to_string())?;
    }
    enc.finish_into(&mut packets).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let decoded = decode_sequence(codec, &packets, options.simd).map_err(|e| e.to_string())?;
    Ok((decoded.frames, t0.elapsed()))
}

/// `ladder`: the ABR transcode workload — decode a mezzanine once,
/// then scale + encode one GOP-aligned stream per rung. Writes
/// `BENCH_ladder.json` (schema `hdvb-ladder/v1`).
pub fn ladder(p: &Parsed) -> CmdResult {
    use hdvb_core::{run_ladder, LadderSpec};

    let _trace = TraceSession::start(p);
    let codec = p.codec_opt()?.unwrap_or(CodecId::H264);
    let options = options_from(p)?;
    let frames = p.frames()?;
    let seed = p.seed()?;
    let threads = resolve_threads(p)?;

    // Source mezzanine: an encoded `.hvb` stream (-i), or a synthetic
    // one built from a generator (`--sequence screen` selects the
    // seeded screen-content family).
    let (source_name, fps, source, decode_time) = if let Some(input) = p.input() {
        let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
        let (header, packets) = read_stream(BufReader::new(file)).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let decoded =
            decode_sequence(header.codec, &packets, options.simd).map_err(|e| e.to_string())?;
        let mut frames_vec = decoded.frames;
        frames_vec.truncate(frames as usize);
        (
            input.to_string(),
            header.format.frame_rate.as_f64(),
            frames_vec,
            t0.elapsed(),
        )
    } else {
        let resolution = p.resolution()?;
        let (name, raw): (String, Vec<Frame>) = match p.sequence_name() {
            Some("screen") => {
                let screen = hdvb_seq::ScreenContent::new(resolution, seed);
                (
                    "screen".into(),
                    (0..frames).map(|i| screen.frame(i)).collect(),
                )
            }
            _ => {
                let id = match p.sequence_name() {
                    None => SequenceId::BlueSky,
                    Some(_) => p.sequence()?,
                };
                let seq = Sequence::new(id, resolution);
                (
                    id.name().into(),
                    (0..frames).map(|i| seq.frame(i)).collect(),
                )
            }
        };
        let (decoded, decode_time) = mezzanine(codec, &raw, &options)?;
        (name, 25.0, decoded, decode_time)
    };
    if source.is_empty() {
        return Err("source stream has no frames".into());
    }
    let src_res = Resolution::new(source[0].width() as u32, source[0].height() as u32);

    let gop = u32::from(options.b_frames) + 1;
    let spec = LadderSpec {
        rungs: match p.rungs()? {
            Some(r) => r,
            None => LadderSpec::standard(codec, src_res, options).rungs,
        },
        switch_interval: p.switch_interval()?.unwrap_or(4 * gop),
        codec,
        options,
    };
    eprintln!(
        "ladder: {codec}, source {source_name} {src_res}, {} frames, {} rungs, switch every {} frames, {threads} threads",
        source.len(),
        spec.rungs.len(),
        spec.switch_interval,
    );

    let runner = ParallelRunner::new(threads);
    let result = run_ladder(&source, &spec, runner.pool()).map_err(|e| e.to_string())?;

    println!(
        "ABR ladder — {codec}, {} source frames, {} segments, decode-once {:.1} ms, fan-out wall {:.1} ms",
        result.frames,
        result.segments.len(),
        decode_time.as_secs_f64() * 1e3,
        result.wall.as_secs_f64() * 1e3,
    );
    println!("| rung | packets | kbit/s | PSNR-Y (dB) | encode ms | scale ms |");
    println!("|------|--------:|-------:|------------:|----------:|---------:|");
    for rung in &result.rungs {
        println!(
            "| {} | {} | {:.0} | {:.2} | {:.1} | {:.1} |",
            rung.resolution,
            rung.packets.len(),
            rung.bitrate_kbps(fps, result.frames),
            rung.psnr_y,
            rung.encode_time.as_secs_f64() * 1e3,
            rung.scale_time.as_secs_f64() * 1e3,
        );
    }

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"hdvb-ladder/v1\",\n");
    out.push_str(&format!("  \"codec\": \"{}\",\n", codec.name()));
    out.push_str(&format!("  \"source\": \"{source_name}\",\n"));
    out.push_str(&format!("  \"source_resolution\": \"{src_res}\",\n"));
    out.push_str(&format!("  \"frames\": {},\n", result.frames));
    out.push_str(&format!("  \"fps\": {fps},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"switch_interval\": {},\n",
        spec.switch_interval
    ));
    out.push_str(&format!("  \"segments\": {},\n", result.segments.len()));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"simd\": \"{}\",\n", options.simd.tier_name()));
    out.push_str(&format!("  \"qscale\": {},\n", options.mpeg_qscale));
    out.push_str(&format!("  \"b_frames\": {},\n", options.b_frames));
    out.push_str(&format!(
        "  \"decode_ms\": {:.3},\n  \"wall_ms\": {:.3},\n",
        decode_time.as_secs_f64() * 1e3,
        result.wall.as_secs_f64() * 1e3
    ));
    out.push_str("  \"rungs\": [\n");
    for (i, rung) in result.rungs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"resolution\": \"{}\", \"packets\": {}, \"bits\": {}, \"kbps\": {:.3}, \"psnr_y\": {:.4}, \"encode_ms\": {:.3}, \"scale_ms\": {:.3}, \"segment_starts\": {:?}}}{}\n",
            rung.resolution,
            rung.packets.len(),
            rung.bits,
            rung.bitrate_kbps(fps, result.frames),
            rung.psnr_y,
            rung.encode_time.as_secs_f64() * 1e3,
            rung.scale_time.as_secs_f64() * 1e3,
            rung.segment_starts,
            if i + 1 == result.rungs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    write_bench_file("BENCH_ladder.json", &out)
}

/// `screen`: the screen-content workload family — encode, decode and
/// measure the seeded desktop clip per codec. Writes
/// `BENCH_screen.json` (schema `hdvb-screen/v1`).
pub fn screen(p: &Parsed) -> CmdResult {
    use hdvb_seq::ScreenContent;

    let _trace = TraceSession::start(p);
    let resolution = p.resolution()?;
    let frames = p.frames()?;
    let seed = p.seed()?;
    let options = options_from(p)?;
    let codecs: Vec<CodecId> = match p.codec_opt()? {
        Some(c) => vec![c],
        None => CodecId::ALL.to_vec(),
    };

    let screen = ScreenContent::new(resolution, seed);
    let source: Vec<Frame> = (0..frames).map(|i| screen.frame(i)).collect();
    let fps = screen.format().frame_rate.as_f64();
    eprintln!(
        "screen: {} codec(s), {resolution}, {frames} frames, seed {seed}",
        codecs.len()
    );

    struct Row {
        codec: CodecId,
        bits: u64,
        encode_fps: f64,
        decode_fps: f64,
        psnr_y: f64,
    }
    let mut rows = Vec::new();
    for &codec in &codecs {
        let mut enc = create_encoder(codec, resolution, &options).map_err(|e| e.to_string())?;
        let mut packets: Vec<Packet> = Vec::new();
        let t0 = Instant::now();
        for f in &source {
            enc.encode_frame_into(f, &mut packets)
                .map_err(|e| e.to_string())?;
        }
        enc.finish_into(&mut packets).map_err(|e| e.to_string())?;
        let encode_time = t0.elapsed();
        let decoded = decode_sequence(codec, &packets, options.simd).map_err(|e| e.to_string())?;
        if decoded.frames.len() != source.len() {
            return Err(format!(
                "{codec}: decoded {} of {} frames",
                decoded.frames.len(),
                source.len()
            ));
        }
        let mut acc = SequencePsnr::new();
        for (s, d) in source.iter().zip(&decoded.frames) {
            acc.add(s, d);
        }
        rows.push(Row {
            codec,
            bits: packets.iter().map(Packet::bits).sum(),
            encode_fps: f64::from(frames) / encode_time.as_secs_f64().max(1e-9),
            decode_fps: f64::from(frames) / decoded.elapsed.as_secs_f64().max(1e-9),
            psnr_y: acc.y_psnr(),
        });
    }

    println!("screen content — {resolution}, {frames} frames, seed {seed}");
    println!("| codec | kbit/s | PSNR-Y (dB) | encode fps | decode fps |");
    println!("|-------|-------:|------------:|-----------:|-----------:|");
    for r in &rows {
        println!(
            "| {} | {:.0} | {:.2} | {:.1} | {:.1} |",
            r.codec.name(),
            r.bits as f64 * fps / f64::from(frames) / 1000.0,
            r.psnr_y,
            r.encode_fps,
            r.decode_fps,
        );
    }

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"hdvb-screen/v1\",\n");
    out.push_str(&format!("  \"resolution\": \"{resolution}\",\n"));
    out.push_str(&format!("  \"frames\": {frames},\n"));
    out.push_str(&format!("  \"fps\": {fps},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"simd\": \"{}\",\n", options.simd.tier_name()));
    out.push_str(&format!("  \"qscale\": {},\n", options.mpeg_qscale));
    out.push_str(&format!("  \"b_frames\": {},\n", options.b_frames));
    out.push_str("  \"codecs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"codec\": \"{}\", \"bits\": {}, \"kbps\": {:.3}, \"psnr_y\": {:.4}, \"encode_fps\": {:.3}, \"decode_fps\": {:.3}}}{}\n",
            r.codec.name(),
            r.bits,
            r.bits as f64 * fps / f64::from(frames) / 1000.0,
            r.psnr_y,
            r.encode_fps,
            r.decode_fps,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    write_bench_file("BENCH_screen.json", &out)
}

/// `chaos`: a seeded fault campaign against a live loopback server.
/// Runs one fault-free reference session, then `--trials` faulted runs
/// through the auto-reconnecting client, verifies each is byte-identical
/// to the reference, and writes recovery metrics to `BENCH_chaos.json`.
/// Exits nonzero if any trial's output diverges.
pub fn chaos(p: &Parsed) -> CmdResult {
    use hdvb_net::{run_campaign, ChaosConfig, RetryPolicy};

    let plan = p
        .faults_spec()?
        .ok_or("chaos needs --faults <plan>, e.g. --faults \"drop@4,truncate@12:13,seed=7\"")?;
    let sequence = match p.sequence_name() {
        None => SequenceId::BlueSky,
        Some(name) => {
            SequenceId::from_name(name).ok_or_else(|| format!("unknown sequence {name:?}"))?
        }
    };
    let cfg = ChaosConfig {
        codec: p.codec_opt()?.unwrap_or(CodecId::Mpeg2),
        sequence,
        resolution: p
            .resolution_opt()?
            .unwrap_or_else(|| Resolution::new(176, 144)),
        frames: p.frames()?,
        priority: p.priority()?,
        plan: plan.to_string(),
        policy: RetryPolicy {
            max_reconnects: p.retries()?,
            seed: p.seed()?,
            ..RetryPolicy::default()
        },
        heartbeat: p.heartbeat_ms(200)?,
        trials: p.trials()?,
    };
    eprintln!(
        "chaos: {} {} {}x{}, {} frames, plan {:?}, {} trial(s), heartbeat {}ms",
        cfg.codec.name(),
        cfg.sequence.name(),
        cfg.resolution.width(),
        cfg.resolution.height(),
        cfg.frames,
        cfg.plan,
        cfg.trials,
        cfg.heartbeat.as_millis(),
    );

    let report = run_campaign(&cfg).map_err(|e| format!("chaos campaign failed: {e}"))?;
    for (i, t) in report.trials.iter().enumerate() {
        println!(
            "  trial {i}: {} — {} reconnects, {} dials, {} inputs replayed, {}/{} faults fired{}",
            if t.identical {
                "byte-identical"
            } else {
                "DIVERGED"
            },
            t.retry.reconnects,
            t.retry.attempts,
            t.retry.replayed_inputs,
            t.faults_fired,
            t.faults_total,
            match &t.error {
                Some(e) => format!(" — error: {e}"),
                None => String::new(),
            },
        );
    }
    let s = &report.server;
    println!(
        "  server: {} connections, {} disconnects, {} resumes, {} outputs replayed, {} parked, {} reaped dead",
        s.connections, s.disconnects, s.resumes, s.replayed, s.parked, s.timeouts,
    );
    write_bench_file("BENCH_chaos.json", &report.json())?;
    if report.all_identical() {
        println!(
            "chaos: all {} trial(s) byte-identical to the fault-free reference",
            report.trials.len()
        );
        Ok(())
    } else {
        Err("chaos: at least one faulted trial diverged from the fault-free reference".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_resolutions_scaling() {
        let full = benchmark_resolutions(1);
        assert_eq!(
            full,
            vec![Resolution::DVD_576, Resolution::HD_720, Resolution::HD_1088]
        );
        let quarter = benchmark_resolutions(4);
        assert_eq!(quarter[0], Resolution::DVD_576.scaled_down(4));
        assert!(quarter[2].width() < 500);
    }
}
