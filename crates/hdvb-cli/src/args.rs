//! Tiny hand-rolled option parser (no external dependencies, like the
//! rest of the workspace).

use hdvb_core::CodecId;
use hdvb_dsp::SimdLevel;
use hdvb_frame::Resolution;
use hdvb_seq::SequenceId;
use std::collections::HashMap;

/// Parsed `--key value` options.
pub struct Parsed {
    values: HashMap<String, String>,
}

impl Parsed {
    /// Options that take no value (presence means `true`).
    const FLAGS: [&'static str; 3] = ["json", "resume", "resilient"];

    /// Every option an accessor below reads. `parse` rejects anything
    /// else, so a misspelt option is an error rather than a silently
    /// applied default; `get` asserts membership, so an accessor cannot
    /// be added without its option.
    const OPTIONS: [&'static str; 43] = [
        "addr",
        "b-frames",
        "batch-headroom",
        "bind",
        "cell-timeout",
        "codec",
        "corpus",
        "duration",
        "faults",
        "fps",
        "frames",
        "heartbeat-ms",
        "input",
        "journal",
        "json",
        "max-retries",
        "mode",
        "output",
        "part",
        "priority",
        "qscale",
        "queue-cap",
        "queue-policy",
        "rate",
        "resilient",
        "resolution",
        "resume",
        "retries",
        "roundtrips",
        "rungs",
        "scale",
        "seconds",
        "seed",
        "sequence",
        "sessions",
        "simd",
        "slo-min-samples",
        "slo-p99",
        "switch",
        "threads",
        "trace",
        "trials",
        "write-golden",
    ];

    pub fn parse(args: &[String]) -> Result<Parsed, String> {
        let mut values = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let key = match arg.as_str() {
                "-i" => "input".to_string(),
                "-o" => "output".to_string(),
                s if s.starts_with("--") => s[2..].to_string(),
                other => return Err(format!("unexpected argument {other:?}")),
            };
            if !Self::OPTIONS.contains(&key.as_str()) {
                return Err(format!("unknown option --{key}"));
            }
            if Self::FLAGS.contains(&key.as_str()) {
                values.insert(key, "true".to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("option --{key} needs a value"))?;
            values.insert(key, value.clone());
        }
        Ok(Parsed { values })
    }

    fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(Self::OPTIONS.contains(&key), "--{key} is not in OPTIONS");
        self.values.get(key).map(String::as_str)
    }

    pub fn codec(&self) -> Result<CodecId, String> {
        let name = self.get("codec").ok_or("missing --codec")?;
        CodecId::from_name(name).ok_or_else(|| format!("unknown codec {name:?}"))
    }

    pub fn sequence(&self) -> Result<SequenceId, String> {
        let name = self.get("sequence").ok_or("missing --sequence")?;
        SequenceId::from_name(name).ok_or_else(|| format!("unknown sequence {name:?}"))
    }

    /// The raw `--sequence` value, for commands that accept generators
    /// beyond the four catalog clips (e.g. `ladder`'s `screen` source).
    pub fn sequence_name(&self) -> Option<&str> {
        self.get("sequence")
    }

    pub fn resolution(&self) -> Result<Resolution, String> {
        parse_resolution(self.get("resolution").unwrap_or("576p25"))
    }

    /// `--resolution` when explicitly given (commands with a
    /// command-specific default, like `serve-bench`).
    pub fn resolution_opt(&self) -> Result<Option<Resolution>, String> {
        self.get("resolution").map(parse_resolution).transpose()
    }

    pub fn frames(&self) -> Result<u32, String> {
        match self.get("frames") {
            None => Ok(100),
            Some(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("bad --frames {v:?}")),
        }
    }

    pub fn qscale(&self) -> Result<u16, String> {
        match self.get("qscale") {
            None => Ok(5),
            Some(v) => v
                .parse::<u16>()
                .ok()
                .filter(|&q| (1..=62).contains(&q))
                .ok_or_else(|| format!("bad --qscale {v:?} (1..=62)")),
        }
    }

    pub fn simd(&self) -> Result<SimdLevel, String> {
        match self.get("simd") {
            // Default honours the HDVB_SIMD env override, then runtime
            // CPU detection.
            None => Ok(SimdLevel::preferred()),
            Some(v) => SimdLevel::parse(v)
                .ok_or_else(|| format!("bad --simd {v:?} (scalar|sse2|avx2|auto)")),
        }
    }

    /// Whether `--json` was passed (machine-readable `BENCH_*.json`
    /// output for `bench`, `kernels` and `figure1`).
    pub fn json(&self) -> bool {
        self.get("json") == Some("true")
    }

    pub fn b_frames(&self) -> Result<u8, String> {
        match self.get("b-frames") {
            None => Ok(2),
            Some(v) => v
                .parse::<u8>()
                .ok()
                .filter(|&b| b <= 4)
                .ok_or_else(|| format!("bad --b-frames {v:?} (0..=4)")),
        }
    }

    pub fn scale(&self) -> Result<u32, String> {
        match self.get("scale") {
            None => Ok(1),
            Some(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&s| s >= 1)
                .ok_or_else(|| format!("bad --scale {v:?}")),
        }
    }

    /// Worker threads for the parallel runner; `0` (or `auto`, the
    /// default) means the machine's available parallelism.
    pub fn threads(&self) -> Result<usize, String> {
        match self.get("threads") {
            None | Some("auto") => Ok(0),
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&n| (1..=512).contains(&n))
                .ok_or_else(|| format!("bad --threads {v:?} (1..=512 or auto)")),
        }
    }

    pub fn input(&self) -> Option<&str> {
        self.get("input")
    }

    /// `--seconds <n>`: wall-clock budget for the `fuzz` mutation loop.
    pub fn seconds(&self) -> Result<u64, String> {
        match self.get("seconds") {
            None => Ok(60),
            Some(v) => v
                .parse::<u64>()
                .ok()
                .filter(|&s| (1..=86_400).contains(&s))
                .ok_or_else(|| format!("bad --seconds {v:?} (1..=86400)")),
        }
    }

    /// `--seed <n>`: deterministic PRNG seed for the `fuzz` command.
    pub fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(1),
            Some(v) => v.parse::<u64>().map_err(|_| format!("bad --seed {v:?}")),
        }
    }

    /// `--rungs WxH,WxH,...`: explicit ladder rung resolutions, highest
    /// first by convention. `None` means derive the standard ladder
    /// from the source geometry.
    pub fn rungs(&self) -> Result<Option<Vec<Resolution>>, String> {
        match self.get("rungs") {
            None => Ok(None),
            Some(v) => {
                let rungs: Vec<Resolution> = v
                    .split(',')
                    .map(|t| parse_resolution(t.trim()))
                    .collect::<Result<_, _>>()?;
                if rungs.is_empty() || rungs.len() > 8 {
                    return Err(format!("bad --rungs {v:?} (1..=8 resolutions)"));
                }
                Ok(Some(rungs))
            }
        }
    }

    /// `--switch N`: ladder segment length in frames (the switching
    /// granularity; must be a multiple of the GOP length). `None`
    /// means the command's GOP-derived default.
    pub fn switch_interval(&self) -> Result<Option<u32>, String> {
        match self.get("switch") {
            None => Ok(None),
            Some(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&n| (1..=100_000).contains(&n))
                .map(Some)
                .ok_or_else(|| format!("bad --switch {v:?}")),
        }
    }

    /// `--corpus <dir>`: fuzz corpus directory (replayed, failures
    /// persisted).
    pub fn corpus(&self) -> Option<&str> {
        self.get("corpus")
    }

    /// `--write-golden <dir>`: regenerate the checked-in golden vectors
    /// into a directory and exit.
    pub fn write_golden(&self) -> Option<&str> {
        self.get("write-golden")
    }

    /// `--trace <out.json>`: enable the profiling subsystem for the run
    /// and write a chrome://tracing / Perfetto-loadable trace there.
    pub fn trace(&self) -> Option<&str> {
        self.get("trace")
    }

    pub fn output(&self) -> Option<&str> {
        self.get("output")
    }

    /// `--cell-timeout <secs>`: per-cell wall-clock budget for the
    /// fault-tolerant sweeps. `auto` (the default) derives the budget
    /// from resolution and frame count; `0` or `off` disables it.
    pub fn cell_timeout(&self) -> Result<hdvb_core::CellTimeout, String> {
        match self.get("cell-timeout") {
            None | Some("auto") => Ok(hdvb_core::CellTimeout::Auto),
            Some("0") | Some("off") => Ok(hdvb_core::CellTimeout::Off),
            Some(v) => v
                .parse::<u64>()
                .ok()
                .filter(|&s| s >= 1)
                .map(|s| hdvb_core::CellTimeout::Fixed(std::time::Duration::from_secs(s)))
                .ok_or_else(|| format!("bad --cell-timeout {v:?} (seconds, off or auto)")),
        }
    }

    /// `--max-retries <n>`: extra attempts for a failed or panicked
    /// sweep cell (timeouts are never retried within a run).
    pub fn max_retries(&self) -> Result<u32, String> {
        match self.get("max-retries") {
            None => Ok(2),
            Some(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&n| n <= 10)
                .ok_or_else(|| format!("bad --max-retries {v:?} (0..=10)")),
        }
    }

    /// `--journal <path>`: append-only sweep journal for
    /// checkpoint/resume of `table5` and `figure1` runs.
    pub fn journal(&self) -> Option<&str> {
        self.get("journal")
    }

    /// `--resume`: load the `--journal` file before running and skip
    /// every cell it already records as completed.
    pub fn resume(&self) -> bool {
        self.get("resume") == Some("true")
    }

    /// `--roundtrips <n>`: encoder round-trip cases for the `fuzz`
    /// command's encoder-side oracle (`0` disables it).
    pub fn roundtrips(&self) -> Result<u64, String> {
        match self.get("roundtrips") {
            None => Ok(16),
            Some(v) => v
                .parse::<u64>()
                .ok()
                .filter(|&n| n <= 1_000_000)
                .ok_or_else(|| format!("bad --roundtrips {v:?} (0..=1000000)")),
        }
    }

    /// `--resilient`: decode/serve keep going past corrupt packets,
    /// dropping them with a warning instead of aborting.
    pub fn resilient(&self) -> bool {
        self.get("resilient") == Some("true")
    }

    /// `--codec` when explicitly given (`serve-bench` runs all three
    /// codecs when it is absent).
    pub fn codec_opt(&self) -> Result<Option<CodecId>, String> {
        match self.get("codec") {
            None => Ok(None),
            Some(name) => CodecId::from_name(name)
                .map(Some)
                .ok_or_else(|| format!("unknown codec {name:?}")),
        }
    }

    /// `--sessions <n>`: concurrent serve-bench sessions.
    pub fn sessions(&self) -> Result<u32, String> {
        match self.get("sessions") {
            None => Ok(8),
            Some(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&n| (1..=4096).contains(&n))
                .ok_or_else(|| format!("bad --sessions {v:?} (1..=4096)")),
        }
    }

    /// `--fps <n>`: offered per-session input rate for `serve-bench`.
    pub fn fps(&self) -> Result<u32, String> {
        match self.get("fps") {
            None => Ok(30),
            Some(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&n| (1..=100_000).contains(&n))
                .ok_or_else(|| format!("bad --fps {v:?} (1..=100000)")),
        }
    }

    /// `--duration <secs>`: serve-bench schedule length (fractional
    /// seconds allowed).
    pub fn duration(&self) -> Result<std::time::Duration, String> {
        match self.get("duration") {
            None => Ok(std::time::Duration::from_secs(5)),
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|&s| s > 0.0 && s <= 86_400.0)
                .map(std::time::Duration::from_secs_f64)
                .ok_or_else(|| format!("bad --duration {v:?} (seconds, 0 < s <= 86400)")),
        }
    }

    /// `--queue-cap <n>`: per-session input queue capacity.
    pub fn queue_cap(&self) -> Result<usize, String> {
        match self.get("queue-cap") {
            None => Ok(8),
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&n| (1..=65_536).contains(&n))
                .ok_or_else(|| format!("bad --queue-cap {v:?} (1..=65536)")),
        }
    }

    /// `--queue-policy <block|drop-oldest>`: session backpressure
    /// policy.
    pub fn queue_policy(&self) -> Result<hdvb_serve::OverflowPolicy, String> {
        match self.get("queue-policy") {
            None => Ok(hdvb_serve::OverflowPolicy::Block),
            Some(v) => hdvb_serve::OverflowPolicy::parse(v)
                .ok_or_else(|| format!("bad --queue-policy {v:?} (block|drop-oldest)")),
        }
    }

    /// `--mode <encode|decode|transcode>`: serve-bench workload
    /// direction.
    pub fn serve_mode(&self) -> Result<hdvb_serve::ServeMode, String> {
        match self.get("mode") {
            None => Ok(hdvb_serve::ServeMode::Encode),
            Some(v) => hdvb_serve::ServeMode::parse(v)
                .ok_or_else(|| format!("bad --mode {v:?} (encode|decode|transcode)")),
        }
    }

    /// `--bind <addr>`: `serve` listens for TCP sessions here instead
    /// of running one local session.
    pub fn bind(&self) -> Option<&str> {
        self.get("bind")
    }

    /// `--addr <host:port>`: the server a `connect` client dials.
    pub fn addr(&self) -> Result<&str, String> {
        self.get("addr").ok_or_else(|| "missing --addr".to_string())
    }

    /// `--priority <live|batch>`: scheduling class for `connect`.
    pub fn priority(&self) -> Result<hdvb_core::Priority, String> {
        match self.get("priority") {
            None => Ok(hdvb_core::Priority::Batch),
            Some(v) => hdvb_core::Priority::from_name(v)
                .ok_or_else(|| format!("bad --priority {v:?} (live|batch)")),
        }
    }

    /// `--slo-p99 <ms>`: enables SLO admission control on a TCP serve.
    pub fn slo_p99(&self) -> Result<Option<std::time::Duration>, String> {
        match self.get("slo-p99") {
            None => Ok(None),
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|&ms| ms > 0.0 && ms <= 600_000.0)
                .map(|ms| Some(std::time::Duration::from_secs_f64(ms / 1e3)))
                .ok_or_else(|| format!("bad --slo-p99 {v:?} (milliseconds)")),
        }
    }

    /// `--slo-min-samples <n>`: rolling-window warm-up grace.
    pub fn slo_min_samples(&self) -> Result<u64, String> {
        match self.get("slo-min-samples") {
            None => Ok(50),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("bad --slo-min-samples {v:?}")),
        }
    }

    /// `--batch-headroom <f>`: batch admission threshold as a fraction
    /// of the SLO, in `(0, 1]`.
    pub fn batch_headroom(&self) -> Result<f64, String> {
        match self.get("batch-headroom") {
            None => Ok(0.7),
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|&f| f > 0.0 && f <= 1.0)
                .ok_or_else(|| format!("bad --batch-headroom {v:?} (0 < f <= 1)")),
        }
    }

    /// `--rate <n>`: per-connection token-bucket shaping, inputs/s.
    pub fn rate(&self) -> Result<Option<u32>, String> {
        match self.get("rate") {
            None => Ok(None),
            Some(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&n| (1..=1_000_000).contains(&n))
                .map(Some)
                .ok_or_else(|| format!("bad --rate {v:?} (1..=1000000)")),
        }
    }

    /// `--heartbeat-ms <ms>`: PING/PONG interval for TCP serves and
    /// chaos campaigns. `0` disables heartbeats and liveness reaping.
    pub fn heartbeat_ms(&self, default_ms: u64) -> Result<std::time::Duration, String> {
        match self.get("heartbeat-ms") {
            None => Ok(std::time::Duration::from_millis(default_ms)),
            Some(v) => v
                .parse::<u64>()
                .ok()
                .filter(|&ms| ms <= 600_000)
                .map(std::time::Duration::from_millis)
                .ok_or_else(|| format!("bad --heartbeat-ms {v:?} (0..=600000)")),
        }
    }

    /// `--faults <plan>`: a seeded wire fault plan in the
    /// `HDVB_NET_FAULTS` grammar
    /// (`drop@i,truncate@i:b,stall@i:ms,garble@i:bit,seed=n`).
    /// Validated here so a typo fails before any socket opens.
    pub fn faults_spec(&self) -> Result<Option<&str>, String> {
        match self.get("faults") {
            None => Ok(None),
            Some(v) => hdvb_net::NetFaultPlan::parse(v)
                .map(|_| Some(v))
                .map_err(|e| format!("bad --faults {v:?}: {e}")),
        }
    }

    /// `--retries <n>`: reconnect budget for the chaos client.
    pub fn retries(&self) -> Result<u32, String> {
        match self.get("retries") {
            None => Ok(16),
            Some(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&n| n <= 10_000)
                .ok_or_else(|| format!("bad --retries {v:?} (0..=10000)")),
        }
    }

    /// `--trials <n>`: how many faulted runs a chaos campaign executes.
    pub fn trials(&self) -> Result<u32, String> {
        match self.get("trials") {
            None => Ok(1),
            Some(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&n| (1..=64).contains(&n))
                .ok_or_else(|| format!("bad --trials {v:?} (1..=64)")),
        }
    }

    /// `--sessions <a,b,c>`: the serve-load sweep axis (comma-separated
    /// session counts).
    pub fn sessions_list(&self) -> Result<Vec<u32>, String> {
        match self.get("sessions") {
            None => Ok(vec![1, 2, 4, 8]),
            Some(v) => v
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse::<u32>()
                        .ok()
                        .filter(|&n| (1..=4096).contains(&n))
                        .ok_or_else(|| {
                            format!("bad --sessions {v:?} (comma-separated, each 1..=4096)")
                        })
                })
                .collect(),
        }
    }

    pub fn part(&self) -> Result<&str, String> {
        let p = self.get("part").unwrap_or("all");
        if ["a", "b", "c", "d", "all"].contains(&p) {
            Ok(p)
        } else {
            Err(format!("bad --part {p:?} (a|b|c|d|all)"))
        }
    }
}

/// Parses `"576p25"`, `"720p25"`, `"1088p25"` or `"<W>x<H>"`.
pub fn parse_resolution(s: &str) -> Result<Resolution, String> {
    match s {
        "576p25" | "dvd" => Ok(Resolution::DVD_576),
        "720p25" | "hd720" => Ok(Resolution::HD_720),
        "1088p25" | "1080p25" | "hd1088" => Ok(Resolution::HD_1088),
        custom => {
            let (w, h) = custom
                .split_once('x')
                .ok_or_else(|| format!("bad resolution {custom:?}"))?;
            let w: u32 = w.parse().map_err(|_| format!("bad width in {custom:?}"))?;
            let h: u32 = h.parse().map_err(|_| format!("bad height in {custom:?}"))?;
            if w < 16
                || h < 16
                || !w.is_multiple_of(2)
                || !h.is_multiple_of(2)
                || w > 16384
                || h > 16384
            {
                return Err(format!("unsupported resolution {custom:?}"));
            }
            Ok(Resolution::new(w, h))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Parsed {
        Parsed::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_named_resolutions() {
        assert_eq!(parse_resolution("576p25").unwrap(), Resolution::DVD_576);
        assert_eq!(parse_resolution("720p25").unwrap(), Resolution::HD_720);
        assert_eq!(parse_resolution("1088p25").unwrap(), Resolution::HD_1088);
        assert_eq!(
            parse_resolution("320x240").unwrap(),
            Resolution::new(320, 240)
        );
        assert!(parse_resolution("bogus").is_err());
        assert!(parse_resolution("15x20").is_err());
    }

    #[test]
    fn defaults() {
        let p = parsed(&[]);
        assert_eq!(p.frames().unwrap(), 100);
        assert_eq!(p.qscale().unwrap(), 5);
        assert_eq!(p.b_frames().unwrap(), 2);
        assert_eq!(p.scale().unwrap(), 1);
        assert_eq!(p.threads().unwrap(), 0);
    }

    #[test]
    fn threads_option() {
        assert_eq!(parsed(&["--threads", "4"]).threads().unwrap(), 4);
        assert_eq!(parsed(&["--threads", "auto"]).threads().unwrap(), 0);
        assert!(parsed(&["--threads", "0"]).threads().is_err());
        assert!(parsed(&["--threads", "lots"]).threads().is_err());
    }

    #[test]
    fn option_values() {
        let p = parsed(&[
            "--codec", "h264", "--frames", "12", "--simd", "scalar", "-o", "out.hvb",
        ]);
        assert_eq!(p.codec().unwrap(), CodecId::H264);
        assert_eq!(p.frames().unwrap(), 12);
        assert_eq!(p.simd().unwrap(), SimdLevel::Scalar);
        assert_eq!(p.output(), Some("out.hvb"));
        assert!(!p.json());
    }

    #[test]
    fn simd_tier_names() {
        assert_eq!(parsed(&["--simd", "sse2"]).simd().unwrap(), SimdLevel::Sse2);
        assert_eq!(parsed(&["--simd", "avx2"]).simd().unwrap(), SimdLevel::Avx2);
        assert_eq!(
            parsed(&["--simd", "auto"]).simd().unwrap(),
            SimdLevel::detect()
        );
        // "simd" stays accepted as the paper-legend spelling for the
        // detected accelerated tier.
        assert_eq!(
            parsed(&["--simd", "simd"]).simd().unwrap(),
            SimdLevel::detect()
        );
        assert!(parsed(&["--simd", "avx512"]).simd().is_err());
    }

    #[test]
    fn json_is_a_bare_flag() {
        let p = parsed(&["--json", "--frames", "3"]);
        assert!(p.json());
        assert_eq!(p.frames().unwrap(), 3);
    }

    #[test]
    fn fault_tolerance_options() {
        let p = parsed(&[]);
        assert_eq!(p.cell_timeout().unwrap(), hdvb_core::CellTimeout::Auto);
        assert_eq!(p.max_retries().unwrap(), 2);
        assert_eq!(p.journal(), None);
        assert!(!p.resume());
        assert_eq!(p.roundtrips().unwrap(), 16);

        let p = parsed(&[
            "--cell-timeout",
            "90",
            "--max-retries",
            "0",
            "--journal",
            "sweep.journal",
            "--resume",
            "--roundtrips",
            "5",
        ]);
        assert_eq!(
            p.cell_timeout().unwrap(),
            hdvb_core::CellTimeout::Fixed(std::time::Duration::from_secs(90))
        );
        assert_eq!(p.max_retries().unwrap(), 0);
        assert_eq!(p.journal(), Some("sweep.journal"));
        assert!(p.resume());
        assert_eq!(p.roundtrips().unwrap(), 5);

        assert_eq!(
            parsed(&["--cell-timeout", "off"]).cell_timeout().unwrap(),
            hdvb_core::CellTimeout::Off
        );
        assert!(parsed(&["--cell-timeout", "soon"]).cell_timeout().is_err());
        assert!(parsed(&["--max-retries", "99"]).max_retries().is_err());
    }

    #[test]
    fn serve_options() {
        let p = parsed(&[]);
        assert_eq!(p.sessions().unwrap(), 8);
        assert_eq!(p.fps().unwrap(), 30);
        assert_eq!(p.duration().unwrap(), std::time::Duration::from_secs(5));
        assert_eq!(p.queue_cap().unwrap(), 8);
        assert_eq!(p.queue_policy().unwrap(), hdvb_serve::OverflowPolicy::Block);
        assert_eq!(p.serve_mode().unwrap(), hdvb_serve::ServeMode::Encode);
        assert_eq!(p.codec_opt().unwrap(), None);
        assert_eq!(p.resolution_opt().unwrap(), None);
        assert!(!p.resilient());

        let p = parsed(&[
            "--sessions",
            "64",
            "--fps",
            "25",
            "--duration",
            "0.5",
            "--queue-cap",
            "4",
            "--queue-policy",
            "drop-oldest",
            "--mode",
            "transcode",
            "--codec",
            "h264",
            "--resilient",
        ]);
        assert_eq!(p.sessions().unwrap(), 64);
        assert_eq!(p.fps().unwrap(), 25);
        assert_eq!(p.duration().unwrap(), std::time::Duration::from_millis(500));
        assert_eq!(p.queue_cap().unwrap(), 4);
        assert_eq!(
            p.queue_policy().unwrap(),
            hdvb_serve::OverflowPolicy::DropOldest
        );
        assert_eq!(p.serve_mode().unwrap(), hdvb_serve::ServeMode::Transcode);
        assert_eq!(p.codec_opt().unwrap(), Some(CodecId::H264));
        assert!(p.resilient());

        assert!(parsed(&["--sessions", "0"]).sessions().is_err());
        assert!(parsed(&["--duration", "-1"]).duration().is_err());
        assert!(parsed(&["--queue-policy", "tail-drop"])
            .queue_policy()
            .is_err());
        assert!(parsed(&["--mode", "replay"]).serve_mode().is_err());
    }

    #[test]
    fn bad_values_are_reported() {
        let p = parsed(&["--codec", "vp9"]);
        assert!(p.codec().is_err());
        let p = parsed(&["--qscale", "0"]);
        assert!(p.qscale().is_err());
        assert!(Parsed::parse(&["--frames".to_string()]).is_err());
        assert!(Parsed::parse(&["stray".to_string()]).is_err());
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        let args = ["--frames", "2", "--frmes", "2"].map(str::to_string);
        let err = Parsed::parse(&args).err().expect("misspelt --frames");
        assert!(err.contains("--frmes"), "{err}");
    }
}
