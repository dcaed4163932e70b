//! Metric names, the run configuration, the provenance envelope and the
//! output of one run: a table for people, a result file for `--compare`,
//! and the one-line JSON object the driver reads.

use crate::stats::Summary;
use hdvb_frame::Resolution;
use hdvb_trace::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

pub const CODECS: [&str; 3] = ["mpeg2", "mpeg4", "h264"];
pub const SEQUENCES: [&str; 4] = ["blue_sky", "pedestrian_area", "riverbed", "rush_hour"];
pub const WORKLOADS: [&str; 4] = ["batch_encode", "batch_decode", "net_live", "net_decode"];

/// Sizes of one run. `full` is what every reported number is measured
/// at; `smoke` only proves that every metric is still produced.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub batch_res: Resolution,
    /// Frames per batch cell: I BBP BBP.
    pub batch_frames: u32,
    pub min_passes: usize,
    /// Smoke only: stop after this many passes whatever `--seconds` says.
    pub max_passes: usize,
    pub live_res: Resolution,
    pub live_clip: u32,
    pub live_fps: f64,
    pub live_windows: usize,
    pub decode_res: Resolution,
    pub decode_clip: u32,
    pub decode_windows: usize,
    /// Frames in each one-in-flight replay.
    pub replay_frames: usize,
    /// Length of one batch of an isolated kernel loop, ms (5 batches).
    pub micro_ms: f64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            batch_res: Resolution::HD_720,
            batch_frames: 7,
            min_passes: 3,
            max_passes: usize::MAX,
            live_res: Resolution::new(512, 288),
            live_clip: 25,
            live_fps: 15.0,
            live_windows: 5,
            decode_res: Resolution::HD_720,
            decode_clip: 25,
            decode_windows: 6,
            replay_frames: 100,
            micro_ms: 20.0,
            setups: 3,
        }
    }

    pub fn smoke() -> Scale {
        let tiny = Resolution::new(64, 48);
        Scale {
            batch_res: tiny,
            batch_frames: 4,
            min_passes: 1,
            max_passes: 1,
            live_res: tiny,
            live_clip: 8,
            live_fps: 15.0,
            live_windows: 1,
            decode_res: tiny,
            decode_clip: 7,
            decode_windows: 1,
            replay_frames: 10,
            micro_ms: 1.0,
            setups: 1,
        }
    }
}

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub scale: Scale,
    pub out: PathBuf,
}

impl Config {
    /// Threads set-up may use.
    pub fn setup_threads(&self) -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    /// Sets up `scale.setups` times (once in a traced run, which does
    /// not report `setup_s`), tearing each set-up but the last down
    /// before the next so that peak memory is one set-up's worth.
    /// Returns the last set-up and the wall times of all.
    pub fn repeat_setup<T>(
        &self,
        mut setup: impl FnMut() -> T,
        mut teardown: impl FnMut(T),
    ) -> (T, Summary) {
        let repeats = if self.trace {
            1
        } else {
            self.scale.setups.max(1)
        };
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..repeats {
            if let Some(previous) = last.take() {
                teardown(previous);
            }
            let t = std::time::Instant::now();
            last = Some(setup());
            times.push(t.elapsed().as_secs_f64());
        }
        (last.expect("at least one set-up"), Summary::of(&times))
    }
}

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// What a user of the system sees. Every workload reports every one.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("fps", "frames/s", "higher"),
        def("latency_p50_ms", "ms", "lower"),
        def("latency_p95_ms", "ms", "lower"),
        def("bitrate_kbps", "kbit/s", "lower"),
        def("psnr_db", "dB", "higher"),
        def("peak_rss_mb", "MB", "lower"),
    ]
}

pub const DSP_KERNELS: [&str; 14] = [
    "sad_16x16",
    "satd_16x16",
    "ssd_16x16",
    "fdct8",
    "quant8",
    "fcore4",
    "idct8",
    "dequant8",
    "icore4",
    "hpel_16x16",
    "sixtap_h_16x16",
    "sixtap_hv_16x16",
    "deblock_edge",
    "copy_64x64",
];

/// Single layers, measured from outside. A traced run prints every
/// name; a layer the workload does not exercise reads 0.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut d = vec![
        def("seq.frame_gen_ms", "ms", "lower"),
        def("frame.pool_hit_rate", "ratio", "higher"),
        def("frame.bufpool_hit_rate", "ratio", "higher"),
    ];
    d.extend(
        DSP_KERNELS
            .iter()
            .map(|k| def(format!("dsp.{k}_ns"), "ns", "lower")),
    );
    d.extend([
        def("me.epzs_search_ns", "ns", "lower"),
        def("me.epzs_evals_per_block", "count", "lower"),
        def("bits.write_mbit_s", "Mbit/s", "higher"),
        def("bits.read_mbit_s", "Mbit/s", "higher"),
        def("bits.vlc_decode_ns", "ns", "lower"),
    ]);
    for c in CODECS {
        d.push(def(format!("codec.{c}.enc_fps"), "frames/s", "higher"));
        d.push(def(format!("codec.{c}.dec_fps"), "frames/s", "higher"));
        d.push(def(format!("codec.{c}.kbps"), "kbit/s", "lower"));
        d.push(def(format!("codec.{c}.psnr_db"), "dB", "higher"));
        for s in SEQUENCES {
            d.push(def(format!("codec.{c}.enc_fps.{s}"), "frames/s", "higher"));
            d.push(def(format!("codec.{c}.dec_fps.{s}"), "frames/s", "higher"));
        }
        for stage in stage_names(c, "enc") {
            d.push(def(stage, "ms", "lower"));
        }
        for stage in stage_names(c, "dec") {
            d.push(def(stage, "ms", "lower"));
        }
    }
    d.extend([
        def("core.session_push_us", "us", "lower"),
        def("par.task_overhead_ns", "ns", "lower"),
        def("serve.overhead_us", "us", "lower"),
        def("serve.queue_op_ns", "ns", "lower"),
        def("net.rtt_overhead_us", "us", "lower"),
        def("net.open_ms", "ms", "lower"),
        def("net.wire_encode_frame_us", "us", "lower"),
        def("net.wire_decode_frame_us", "us", "lower"),
        def("net.wire_encode_packet_us", "us", "lower"),
        def("net.wire_decode_packet_us", "us", "lower"),
        def("net.checksum_mb_s", "MB/s", "higher"),
        def("net.sock_write_us", "us", "lower"),
        def("net.server_p50_ms", "ms", "lower"),
        def("net.server_p99_ms", "ms", "lower"),
        def("net.bytes_in_per_frame", "bytes", "lower"),
        def("net.bytes_out_per_frame", "bytes", "lower"),
        def("net.disconnects", "count", "lower"),
        def("net.wire_errors", "count", "lower"),
        def("net.rejected", "count", "lower"),
        def("trace.overhead_pct", "%", "lower"),
        def("trace.coverage_enc", "ratio", "higher"),
        def("trace.coverage_dec", "ratio", "higher"),
        def("trace.hist_record_ns", "ns", "lower"),
        def("gen.late_p99_ms", "ms", "lower"),
        def("gen.late_max_ms", "ms", "lower"),
        def("host.oncpu_share", "ratio", "higher"),
    ]);
    d
}

/// The codec-stage metric names of codec `c` in direction `dir`, in
/// `hdvb_trace::CODEC_STAGES` order with the stages that direction does
/// not have left out (`None`).
pub fn stage_slots(c: &str, dir: &str) -> [Option<String>; 6] {
    let name = |stage: &str| Some(format!("codec.{c}.{dir}.{stage}_ms"));
    let enc = dir == "enc";
    [
        if enc { name("me") } else { None },
        name("mc"),
        if enc { name("tq") } else { None },
        name("entropy"),
        name("recon"),
        if c == "h264" { name("deblock") } else { None },
    ]
}

fn stage_names(c: &str, dir: &str) -> Vec<String> {
    stage_slots(c, dir).into_iter().flatten().collect()
}

/// Who built what, where: a result without this is not comparable.
pub struct Provenance {
    fields: Vec<(&'static str, String)>,
}

impl Provenance {
    pub fn capture() -> Provenance {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Provenance {
            fields: vec![
                ("git_sha", env("HDVB_BENCH_GIT_SHA")),
                ("git_dirty", env("HDVB_BENCH_GIT_DIRTY")),
                ("rustc", env("HDVB_BENCH_RUSTC")),
                ("profile", env("HDVB_BENCH_PROFILE")),
                ("cpu", hdvb_core::cpu_model()),
                (
                    "nproc",
                    std::thread::available_parallelism()
                        .map_or(1, usize::from)
                        .to_string(),
                ),
                (
                    "simd_tier",
                    hdvb_dsp::SimdLevel::preferred()
                        .effective()
                        .tier_name()
                        .into(),
                ),
                ("utc", utc_timestamp(secs)),
            ],
        }
    }

    pub fn get(&self, key: &str) -> &str {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map_or("unknown", |(_, v)| v)
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json::escape(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// `secs` since the Unix epoch as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc_timestamp(secs: u64) -> String {
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm), days since 1970-01-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// What one run found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
    /// Pass, window and sample counts, for the envelope.
    counts: Vec<(&'static str, u64)>,
    metrics: BTreeMap<String, Summary>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, summary: Summary) {
        self.metrics.insert(name.into(), summary);
    }

    /// A metric with no distribution behind it: a count, a ratio of
    /// totals, a value that repeats exactly.
    pub fn set_exact(&mut self, name: impl Into<String>, value: f64) {
        self.set(name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.metrics.get(name).copied()
    }

    /// A correctness check; a failed one fails the run.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// A line for the reader that is neither a metric nor a check.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn count(&mut self, what: &'static str, n: u64) {
        self.counts.push((what, n));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// The `end_to_end` bounds of `BENCHMARK.json`, when it can be read from
/// the working directory.
pub fn read_bounds() -> BTreeMap<String, (f64, String)> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return out;
    };
    let Ok(doc) = json::parse(&text) else {
        return out;
    };
    for m in doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        if let (Some(name), Some(bound), Some(better)) = (
            m.get("name").and_then(Value::as_str),
            m.get("bound").and_then(Value::as_f64),
            m.get("better").and_then(Value::as_str),
        ) {
            out.insert(name.to_string(), (bound, better.to_string()));
        }
    }
    out
}

fn num(v: f64) -> String {
    // JSON has no NaN or infinity; a missing result must still print.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Prints the run, writes its result file and returns whether it was
/// correct. The last line printed is the object the driver reads.
pub fn finish(cfg: &Config, report: &Report) -> bool {
    let prov = Provenance::capture();
    let defs = if cfg.trace {
        per_layer_defs()
    } else {
        end_to_end_defs()
    };
    let bounds = read_bounds();
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "# {} seed={} seconds={} trace={}{} | {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.smoke {
            " SMOKE (sizes are not the benchmark's)"
        } else {
            ""
        },
        counts.join(" ")
    );
    println!(
        "# git={}{} rustc=\"{}\" profile=\"{}\" cpu=\"{}\" nproc={} tier={} utc={}",
        prov.get("git_sha"),
        if prov.get("git_dirty") == "true" {
            "+dirty"
        } else {
            ""
        },
        prov.get("rustc"),
        prov.get("profile"),
        prov.get("cpu"),
        prov.get("nproc"),
        prov.get("simd_tier"),
        prov.get("utc"),
    );
    let mut missing = Vec::new();
    let mut metrics_json = Vec::new();
    let mut contract_json = Vec::new();
    for d in &defs {
        let s = match report.get(&d.name) {
            Some(s) => s,
            // A traced run prints every layer; one this workload does
            // not exercise did no work.
            None if cfg.trace => Summary {
                value: 0.0,
                q1: 0.0,
                q3: 0.0,
                n: 0,
            },
            None => {
                missing.push(d.name.clone());
                continue;
            }
        };
        let verdict = match bounds.get(&d.name) {
            Some((bound, _)) if d.name != "setup_s" && s.relative_iqr() > *bound => "  unresolved",
            _ => "",
        };
        if s.n == 0 {
            println!(
                "{:<44} {:>14} {:<9} (layer idle in this workload)",
                d.name, 0, d.unit
            );
        } else {
            println!(
                "{:<44} {:>14.4} {:<9} ({} is better)  q1 {:.4}  q3 {:.4}  n {}{verdict}",
                d.name, s.value, d.unit, d.better, s.q1, s.q3, s.n
            );
        }
        metrics_json.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"q1\":{},\"q3\":{},\"n\":{}}}",
            d.name,
            num(s.value),
            d.unit,
            num(s.q1),
            num(s.q3),
            s.n
        ));
        contract_json.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            d.name,
            num(s.value),
            d.unit
        ));
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for (what, ok) in &report.checks {
        println!("check {:<60} {}", what, if *ok { "ok" } else { "FAILED" });
    }
    for name in &missing {
        println!("check metric {name} was measured                      FAILED");
    }
    let correct = report.correct() && missing.is_empty();

    let mut run = String::new();
    let _ = write!(
        run,
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"counts\":{{{}}},\"metrics\":{{{}}}}}",
        cfg.workload,
        cfg.seed,
        num(cfg.seconds),
        u8::from(cfg.trace),
        cfg.smoke,
        correct,
        report.attempted,
        report.failed,
        report
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(","),
        metrics_json.join(",")
    );
    let path = cfg
        .out
        .join(result_file_name(&cfg.workload, cfg.seed, cfg.trace));
    let text = format!(
        "{{\"schema\":\"hdvb-benchmark/v1\",\"provenance\":{},\"runs\":[\n{run}\n]}}\n",
        prov.json()
    );
    match std::fs::create_dir_all(&cfg.out).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("# result file: {}", path.display()),
        Err(e) => println!("# result file not written ({}): {e}", path.display()),
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        report.attempted.max(1),
        report.failed,
        contract_json.join(",")
    );
    correct
}

pub fn result_file_name(workload: &str, seed: u64, trace: bool) -> String {
    format!("{workload}.seed{seed}.trace{}.json", u8::from(trace))
}

/// The global pools' counters at the start of a timed region.
pub struct PoolMark(hdvb_frame::PoolStats, hdvb_frame::PoolStats);

impl PoolMark {
    pub fn now() -> PoolMark {
        PoolMark(
            hdvb_frame::FramePool::global().stats(),
            hdvb_frame::BufferPool::global().stats(),
        )
    }

    /// Sets `frame.*_hit_rate` from the traffic since the mark.
    pub fn report_since(&self, report: &mut Report) {
        let frames = hdvb_frame::FramePool::global().stats().delta_since(&self.0);
        let buffers = hdvb_frame::BufferPool::global()
            .stats()
            .delta_since(&self.1);
        report.set_exact("frame.pool_hit_rate", frames.hit_rate());
        report.set_exact("frame.bufpool_hit_rate", buffers.hit_rate());
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// On-CPU and run-queue-wait nanoseconds of the calling thread
/// (`/proc/thread-self/schedstat`) or, with `all_threads`, of every
/// thread of the process.
pub fn sched_ns(all_threads: bool) -> (u64, u64) {
    let parse = |text: String| {
        let mut it = text
            .split_whitespace()
            .map(|v| v.parse::<u64>().unwrap_or(0));
        (it.next().unwrap_or(0), it.next().unwrap_or(0))
    };
    if !all_threads {
        return std::fs::read_to_string("/proc/thread-self/schedstat").map_or((0, 0), parse);
    }
    let mut total = (0, 0);
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
                let (on, wait) = parse(text);
                total = (total.0 + on, total.1 + wait);
            }
        }
    }
    total
}

/// Share of the time the measured threads wanted a CPU that they had
/// one: 1.0 on an idle host, lower when a co-tenant takes the cores.
pub fn oncpu_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let on = after.0.saturating_sub(before.0) as f64;
    let wait = after.1.saturating_sub(before.1) as f64;
    if on + wait == 0.0 {
        f64::NAN
    } else {
        on / (on + wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_fit_the_benchmark_contract() {
        let e = end_to_end_defs();
        let p = per_layer_defs();
        assert_eq!(e.len(), 7);
        assert_eq!(p.len(), 110);
        assert!(p.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for d in e.iter().chain(&p) {
            assert!(seen.insert(d.name.clone()), "{} used twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["lower", "higher"].contains(&d.better));
        }
        assert!(e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the root of the repo");
        let spec = json::parse(&text).unwrap();
        for (key, defs) in [
            ("end_to_end", end_to_end_defs()),
            ("per_layer", per_layer_defs()),
        ] {
            let listed: Vec<(String, String, String)> = spec
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.clone(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn stage_slots_follow_the_codec_stage_order() {
        assert_eq!(hdvb_trace::CODEC_STAGES.len(), 6);
        let enc = stage_slots("h264", "enc");
        assert!(enc.iter().all(Option::is_some));
        assert_eq!(enc[0].as_deref(), Some("codec.h264.enc.me_ms"));
        assert_eq!(enc[5].as_deref(), Some("codec.h264.enc.deblock_ms"));
        let dec = stage_slots("mpeg2", "dec");
        assert_eq!(dec.iter().flatten().count(), 3);
        assert!(dec[0].is_none() && dec[2].is_none() && dec[5].is_none());
    }

    #[test]
    fn utc_timestamps() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_timestamp(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_timestamp(1_790_407_845), "2026-09-26T07:30:45Z");
    }

    #[test]
    fn oncpu_share_of_a_starved_thread() {
        assert_eq!(oncpu_share((10, 10), (40, 20)), 0.75);
        assert!(oncpu_share((0, 0), (0, 0)).is_nan());
    }
}
