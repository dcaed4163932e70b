//! `batch_encode` and `batch_decode`: the paper's Figure 1 and Table V
//! as closed loops on one thread. Only calls into the codecs are timed,
//! as in `hdvb_core::runner`.

use crate::inputs::{self, ClipSpec};
use crate::layers;
use crate::report::{self, Config, PoolMark, Report, CODECS, SEQUENCES};
use crate::spans::{self, SpanLog};
use crate::stats::{self, Summary};
use hdvb_core::{create_decoder, create_encoder, fnv1a64, CodecId, CodingOptions, Packet};
use hdvb_frame::{psnr_from_mse, BufferPool, Frame, FramePool, PlanePsnr};
use hdvb_seq::SequenceId;
use std::time::{Duration, Instant};

/// Every output must be at least this close to its source.
pub const MIN_PSNR_DB: f64 = 30.0;

/// The paper's bitrate unit: kbit/s at 25 frames a second.
pub fn kbps(bits: u64, frames: usize) -> f64 {
    bits as f64 * 25.0 / frames.max(1) as f64 / 1000.0
}

/// PSNR-Y of `decoded` against `source` over the whole clip.
pub fn psnr_y(source: &[Frame], decoded: &[Frame]) -> f64 {
    let mse: f64 = source
        .iter()
        .zip(decoded)
        .map(|(s, d)| PlanePsnr::measure(s.y(), d.y()).mse)
        .sum();
    psnr_from_mse(mse / source.len().max(1) as f64)
}

pub fn frame_digest(frame: &Frame) -> u64 {
    let planes = [frame.y(), frame.cb(), frame.cr()].map(|p| fnv1a64(p.data()).to_le_bytes());
    fnv1a64(planes.as_flattened())
}

fn packets_digest(packets: &[Packet]) -> u64 {
    packets.iter().fold(0, |h, p| {
        fnv1a64(&[h.to_le_bytes(), fnv1a64(&p.data).to_le_bytes()].concat())
    })
}

fn recycle_packets(packets: Vec<Packet>) {
    for p in packets {
        BufferPool::global().put(p.data);
    }
}

/// The four sequences' clips, cut at seeded start frames.
struct Clips {
    frames: Vec<Vec<Frame>>,
    gen_ms: f64,
}

fn generate_clips(cfg: &Config) -> Clips {
    let specs: Vec<ClipSpec> = SequenceId::ALL
        .iter()
        .enumerate()
        .map(|(slot, &id)| ClipSpec {
            id,
            resolution: cfg.scale.batch_res,
            start: inputs::clip_start(cfg.seed, slot as u64, cfg.scale.batch_frames),
            len: cfg.scale.batch_frames,
        })
        .collect();
    let (frames, gen_ms) = inputs::generate(&specs, cfg.setup_threads());
    Clips { frames, gen_ms }
}

/// One timed run of one codec over one clip.
struct CellRun {
    time: Duration,
    /// Per frame: handed to the codec → its output handed back, ms.
    latency_ms: Vec<f64>,
}

/// Encodes `frames`, timing each codec call. Frame `i` is "in" when the
/// call that takes it starts and "out" when the call that returns the
/// packet with `display_index == i` ends, so B-frame lookahead shows.
fn encode_cell(
    codec: CodecId,
    frames: &[Frame],
    options: &CodingOptions,
    log: &mut SpanLog,
    request: u64,
    out: &mut Vec<Packet>,
) -> CellRun {
    let res = hdvb_frame::Resolution::new(frames[0].width() as u32, frames[0].height() as u32);
    let mut enc = create_encoder(codec, res, options).expect("the paper's options are valid");
    let mut handed_in = Vec::with_capacity(frames.len());
    let mut latency_ms = vec![f64::INFINITY; frames.len()];
    let mut time = Duration::ZERO;
    log.begin("encode_cell", request);
    for step in 0..=frames.len() {
        let before = out.len();
        let start = Instant::now();
        let (result, took) = match frames.get(step) {
            Some(frame) => {
                handed_in.push(start);
                log.time("encode_frame_into", request + step as u64, || {
                    enc.encode_frame_into(frame, out)
                })
            }
            None => log.time("encode_finish_into", request + step as u64, || {
                enc.finish_into(out)
            }),
        };
        result.expect("encoding a generated frame cannot fail");
        time += took;
        for p in &out[before..] {
            if let Some(t_in) = handed_in.get(p.display_index as usize) {
                latency_ms[p.display_index as usize] = (start + took - *t_in).as_secs_f64() * 1e3;
            }
        }
    }
    log.end();
    CellRun { time, latency_ms }
}

/// `frames` coded at the paper's options, untimed: set-up's encoder.
pub fn encode_clip(codec: CodecId, frames: &[Frame]) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut log = SpanLog::new(false, Instant::now(), "setup");
    encode_cell(
        codec,
        frames,
        &CodingOptions::default(),
        &mut log,
        0,
        &mut out,
    );
    out
}

/// Decodes `packets`, timing each codec call; the frames land in `out`.
/// Packet `j` is "in" when its call starts; the frame it codes is "out"
/// when the call that returns display position `display_index` ends.
fn decode_cell(
    codec: CodecId,
    packets: &[Packet],
    log: &mut SpanLog,
    request: u64,
    out: &mut Vec<Frame>,
) -> CellRun {
    let mut dec = create_decoder(codec, CodingOptions::default().simd);
    let mut handed_in = vec![None; packets.len()];
    let mut latency_ms = vec![f64::INFINITY; packets.len()];
    let mut time = Duration::ZERO;
    log.begin("decode_cell", request);
    for step in 0..=packets.len() {
        let before = out.len();
        let start = Instant::now();
        let took = match packets.get(step) {
            Some(p) => {
                if let Some(slot) = handed_in.get_mut(p.display_index as usize) {
                    *slot = Some(start);
                }
                let (result, took) = log.time("decode_packet_into", request + step as u64, || {
                    dec.decode_packet_into(&p.data, out)
                });
                result.expect("decoding an intact stream cannot fail");
                took
            }
            None => {
                log.time("decode_finish_into", request + step as u64, || {
                    dec.finish_into(out)
                })
                .1
            }
        };
        time += took;
        let out_at = start + took;
        for (t_in, latency) in handed_in
            .iter()
            .zip(&mut latency_ms)
            .take(out.len())
            .skip(before)
        {
            if let Some(t_in) = t_in {
                *latency = (out_at - *t_in).as_secs_f64() * 1e3;
            }
        }
    }
    log.end();
    CellRun { time, latency_ms }
}

/// What the passes over one (codec, sequence) cell produced.
#[derive(Default)]
struct Cell {
    /// Seconds per pass, every pass.
    times: Vec<f64>,
    traced: Vec<bool>,
    /// Per pass, per frame.
    latency_ms: Vec<Vec<f64>>,
    /// Codec-stage nanoseconds summed over the traced passes.
    stage_ns: [u64; 6],
    traced_frames: u64,
    traced_time: f64,
    digest: Option<u64>,
    digest_mismatches: u64,
}

impl Cell {
    /// Seconds per pass with tracing off: the quiet-side quartile over
    /// the passes.
    fn untraced_time(&self) -> f64 {
        let t: Vec<f64> = self
            .times
            .iter()
            .zip(&self.traced)
            .filter(|(_, traced)| !**traced)
            .map(|(t, _)| *t)
            .collect();
        stats::quiet_low(&t)
    }

    fn record(&mut self, run: &CellRun, traced: bool, digest: u64) {
        self.times.push(run.time.as_secs_f64());
        self.traced.push(traced);
        self.latency_ms.push(run.latency_ms.clone());
        match self.digest {
            None => self.digest = Some(digest),
            Some(first) if first != digest => self.digest_mismatches += 1,
            Some(_) => {}
        }
    }
}

/// Runs passes over all cells, pass-major, until `seconds` are up.
/// In a traced run every second pass has `hdvb_trace` on, and that
/// pass's codec-stage totals are taken per cell.
fn run_passes(
    cfg: &Config,
    cells: &mut [Cell],
    mut run_cell: impl FnMut(usize, &mut SpanLog, u64) -> (CellRun, u64),
    log: &mut SpanLog,
) -> usize {
    let budget = if cfg.trace {
        cfg.seconds * 0.75
    } else {
        cfg.seconds
    };
    let min_passes = if cfg.trace { 2 } else { cfg.scale.min_passes };
    let frames = u64::from(cfg.scale.batch_frames);
    let started = Instant::now();
    let mut passes = 0;
    let max_passes = cfg.scale.max_passes.max(min_passes);
    while passes < min_passes || (passes < max_passes && started.elapsed().as_secs_f64() < budget) {
        let traced = cfg.trace && passes % 2 == 1;
        hdvb_trace::set_enabled(traced);
        log.set_on(traced);
        for (i, cell) in cells.iter_mut().enumerate() {
            let before = hdvb_trace::codec_stage_totals_local();
            let request = ((passes * 64 + i) as u64) << 16;
            let (run, digest) = run_cell(i, log, request);
            if traced {
                let after = hdvb_trace::codec_stage_totals_local();
                for (sum, (a, b)) in cell.stage_ns.iter_mut().zip(after.iter().zip(before)) {
                    *sum += a - b;
                }
                cell.traced_frames += frames;
                cell.traced_time += run.time.as_secs_f64();
            }
            cell.record(&run, traced, digest);
        }
        passes += 1;
    }
    hdvb_trace::set_enabled(false);
    passes
}

/// Rate, distortion and frame count of the workload's twelve streams,
/// from one untimed decode of each.
#[derive(Default)]
struct Verified {
    bits: Vec<u64>,
    psnr: Vec<f64>,
    /// Frames missing from (or surplus in) the decodes.
    short: u64,
}

impl Verified {
    fn add(&mut self, codec: CodecId, packets: &[Packet], source: &[Frame], log: &mut SpanLog) {
        let mut decoded = Vec::new();
        decode_cell(codec, packets, log, 0, &mut decoded);
        self.bits.push(packets.iter().map(Packet::bits).sum());
        self.short += source.len().abs_diff(decoded.len()) as u64;
        self.psnr.push(psnr_y(source, &decoded));
        for f in decoded {
            FramePool::global().put(f);
        }
    }
}

/// Fills in the counts, checks and metrics both batch workloads share.
fn report_cells(
    cfg: &Config,
    report: &mut Report,
    dir: &str,
    cells: &[Cell],
    passes: usize,
    verified: &Verified,
    host: f64,
) {
    let frames = cfg.scale.batch_frames as usize;
    let Verified { bits, psnr, short } = verified;
    report.attempted = (passes * cells.len() * frames) as u64;
    let unverified: u64 = cells
        .iter()
        .map(|c| {
            let missing = c.latency_ms.iter().flatten().filter(|l| !l.is_finite());
            c.digest_mismatches * frames as u64 + missing.count() as u64
        })
        .sum();
    report.failed = (unverified + short * passes as u64).min(report.attempted);
    report.check(
        "every stream decodes to as many frames as were encoded",
        *short == 0,
    );
    let cell_fps: Vec<f64> = cells
        .iter()
        .map(|c| frames as f64 / c.untraced_time())
        .collect();
    // Spread: the same geomean taken pass by pass.
    let per_pass: Vec<f64> = (0..passes)
        .filter(|&p| !cells[0].traced[p])
        .map(|p| {
            stats::geomean(
                &cells
                    .iter()
                    .map(|c| frames as f64 / c.times[p])
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let cell_kbps: Vec<f64> = bits.iter().map(|&b| kbps(b, frames)).collect();
    // Latency: per cell the quiet-side quartile over passes of the pass's percentile
    // (a pass has few frames: its p95 is its slowest frame, the one
    // that waited longest in the lookahead), then the geomean over cells.
    // The spread is the geomean taken pass by pass.
    let latency = |p: f64| {
        let of_pass = |c: &Cell, pass: usize| stats::percentile(&c.latency_ms[pass], p);
        let per_cell: Vec<f64> = cells
            .iter()
            .map(|c| {
                stats::quiet_low(&(0..passes).map(|pass| of_pass(c, pass)).collect::<Vec<_>>())
            })
            .collect();
        let per_pass: Vec<f64> = (0..passes)
            .map(|pass| stats::geomean(&cells.iter().map(|c| of_pass(c, pass)).collect::<Vec<_>>()))
            .collect();
        Summary::with_spread(stats::geomean(&per_cell), &per_pass)
    };

    if cfg.trace {
        let traced_pass: Vec<f64> = (0..passes)
            .filter(|&p| cells[0].traced[p])
            .map(|p| cells.iter().map(|c| c.times[p]).sum())
            .collect();
        let untraced_pass: Vec<f64> = (0..passes)
            .filter(|&p| !cells[0].traced[p])
            .map(|p| cells.iter().map(|c| c.times[p]).sum())
            .collect();
        let (on, off) = (stats::median(&traced_pass), stats::median(&untraced_pass));
        report.set(
            "trace.overhead_pct",
            Summary::with_spread(
                (on - off) / off * 100.0,
                &traced_pass
                    .iter()
                    .map(|t| (t - off) / off * 100.0)
                    .collect::<Vec<_>>(),
            ),
        );
        let (mut stage_total, mut call_total) = (0.0, 0.0);
        for (ci, codec) in CODECS.iter().enumerate() {
            let of_codec = &cells[ci * 4..ci * 4 + 4];
            report.set_exact(
                format!("codec.{codec}.{dir}_fps"),
                stats::geomean(&cell_fps[ci * 4..ci * 4 + 4]),
            );
            report.set_exact(
                format!("codec.{codec}.kbps"),
                stats::geomean(&cell_kbps[ci * 4..ci * 4 + 4]),
            );
            report.set_exact(
                format!("codec.{codec}.psnr_db"),
                stats::mean(&psnr[ci * 4..ci * 4 + 4]),
            );
            for (si, seq) in SEQUENCES.iter().enumerate() {
                let c = &of_codec[si];
                let untraced: Vec<f64> = c
                    .times
                    .iter()
                    .zip(&c.traced)
                    .filter(|(_, t)| !**t)
                    .map(|(t, _)| frames as f64 / t)
                    .collect();
                report.set(
                    format!("codec.{codec}.{dir}_fps.{seq}"),
                    Summary::of(&untraced),
                );
            }
            let traced_frames: u64 = of_codec.iter().map(|c| c.traced_frames).sum();
            let call_ms =
                of_codec.iter().map(|c| c.traced_time).sum::<f64>() * 1e3 / traced_frames as f64;
            let mut stages_ms = 0.0;
            for (slot, name) in report::stage_slots(codec, dir).into_iter().enumerate() {
                let ns: u64 = of_codec.iter().map(|c| c.stage_ns[slot]).sum();
                let ms = ns as f64 / 1e6 / traced_frames as f64;
                stages_ms += ms;
                if let Some(name) = name {
                    report.set_exact(name, ms);
                }
            }
            report.note(format!(
                "{codec} {dir}: codec stages {stages_ms:.3} ms/frame of {call_ms:.3} ms/frame measured around the calls ({:.1} %)",
                stages_ms / call_ms * 100.0
            ));
            stage_total += stages_ms;
            call_total += call_ms;
        }
        report.set_exact(format!("trace.coverage_{dir}"), stage_total / call_total);
        report.set_exact("host.oncpu_share", host);
    } else {
        report.set(
            "fps",
            Summary::with_spread(stats::geomean(&cell_fps), &per_pass),
        );
        report.set("latency_p50_ms", latency(0.50));
        report.set("latency_p95_ms", latency(0.95));
        // Rate and distortion repeat exactly: no spread to show.
        report.set_exact("bitrate_kbps", stats::geomean(&cell_kbps));
        report.set_exact("psnr_db", stats::mean(psnr));
    }
    report.count("passes", passes as u64);
    report.count("cells", cells.len() as u64);
    report.count("frames_per_cell", frames as u64);
    report.check(
        format!("every pass of every cell produced the same bytes ({dir})"),
        cells.iter().all(|c| c.digest_mismatches == 0),
    );
    report.check(
        format!("every stream decodes to PSNR-Y >= {MIN_PSNR_DB} dB"),
        psnr.iter().all(|&p| p >= MIN_PSNR_DB),
    );
}

fn cell_order() -> Vec<(usize, usize)> {
    (0..CODECS.len())
        .flat_map(|c| (0..SEQUENCES.len()).map(move |s| (c, s)))
        .collect()
}

pub fn run_encode(cfg: &Config) -> Report {
    let mut report = Report::default();
    let options = CodingOptions::default();
    let epoch = Instant::now();
    let mut log = SpanLog::new(false, epoch, "batch_encode");
    let (clips, setup) = cfg.repeat_setup(|| generate_clips(cfg), drop);
    let order = cell_order();

    // One untimed warm-up cell per codec: pools fill, pages fault in.
    for codec in CodecId::ALL {
        let mut out = Vec::new();
        encode_cell(codec, &clips.frames[3], &options, &mut log, 0, &mut out);
        recycle_packets(out);
    }

    let pools = PoolMark::now();
    let sched = report::sched_ns(false);
    let mut cells: Vec<Cell> = order.iter().map(|_| Cell::default()).collect();
    let mut first_pass: Vec<Option<Vec<Packet>>> = order.iter().map(|_| None).collect();
    let passes = run_passes(
        cfg,
        &mut cells,
        |i, log, request| {
            let (c, s) = order[i];
            let mut out = Vec::new();
            let run = encode_cell(
                CodecId::ALL[c],
                &clips.frames[s],
                &options,
                log,
                request,
                &mut out,
            );
            let digest = packets_digest(&out);
            if first_pass[i].is_none() {
                first_pass[i] = Some(out);
            } else {
                recycle_packets(out);
            }
            (run, digest)
        },
        &mut log,
    );
    let host = report::oncpu_share(sched, report::sched_ns(false));
    if cfg.trace {
        pools.report_since(&mut report);
    }

    // Verify what the first pass produced, and take rate and distortion
    // from it: decode(encode(x)) against x.
    let mut verified = Verified::default();
    for (i, &(c, s)) in order.iter().enumerate() {
        let packets = first_pass[i]
            .take()
            .expect("the first pass kept its packets");
        verified.add(CodecId::ALL[c], &packets, &clips.frames[s], &mut log);
        recycle_packets(packets);
    }
    report_cells(cfg, &mut report, "enc", &cells, passes, &verified, host);

    if cfg.trace {
        report.set_exact("seq.frame_gen_ms", clips.gen_ms);
        layers::dsp_kernels(&cfg.scale, &mut report);
        layers::bits(&cfg.scale, &mut report);
        // Pedestrian area, frames 0 -> 1 of the clip.
        layers::epzs(&clips.frames[1][1], &clips.frames[1][0], &mut report);
        spans::write(&cfg.out, &cfg.workload, cfg.seed, &[log]);
    } else {
        report.set("setup_s", setup);
    }
    report
}

/// The twelve streams `batch_encode`'s settings produce, and their
/// sources.
struct Streams {
    clips: Clips,
    packets: Vec<Vec<Packet>>,
}

fn encode_streams(cfg: &Config, order: &[(usize, usize)]) -> Streams {
    let clips = generate_clips(cfg);
    let packets = inputs::parallel_map(order.len(), cfg.setup_threads(), |i| {
        let (c, s) = order[i];
        encode_clip(CodecId::ALL[c], &clips.frames[s])
    });
    Streams { clips, packets }
}

pub fn run_decode(cfg: &Config) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut log = SpanLog::new(false, epoch, "batch_decode");
    let order = cell_order();
    let (streams, setup) = cfg.repeat_setup(|| encode_streams(cfg, &order), drop);

    // One untimed pass; its frames give the distortion and the count.
    let mut verified = Verified::default();
    for (i, &(c, s)) in order.iter().enumerate() {
        verified.add(
            CodecId::ALL[c],
            &streams.packets[i],
            &streams.clips.frames[s],
            &mut log,
        );
    }

    let pools = PoolMark::now();
    let sched = report::sched_ns(false);
    let mut cells: Vec<Cell> = order.iter().map(|_| Cell::default()).collect();
    let mut decoded = Vec::new();
    let passes = run_passes(
        cfg,
        &mut cells,
        |i, log, request| {
            let run = decode_cell(
                CodecId::ALL[order[i].0],
                &streams.packets[i],
                log,
                request,
                &mut decoded,
            );
            // Untimed: the digest every pass must reproduce.
            let mut digest = decoded.len() as u64;
            for f in decoded.drain(..) {
                digest = fnv1a64(&[digest.to_le_bytes(), frame_digest(&f).to_le_bytes()].concat());
                FramePool::global().put(f);
            }
            (run, digest)
        },
        &mut log,
    );
    let host = report::oncpu_share(sched, report::sched_ns(false));
    if cfg.trace {
        pools.report_since(&mut report);
    }

    report_cells(cfg, &mut report, "dec", &cells, passes, &verified, host);

    if cfg.trace {
        report.set_exact("seq.frame_gen_ms", streams.clips.gen_ms);
        layers::dsp_kernels(&cfg.scale, &mut report);
        layers::bits(&cfg.scale, &mut report);
        spans::write(&cfg.out, &cfg.workload, cfg.seed, &[log]);
    } else {
        report.set("setup_s", setup);
    }
    report
}
