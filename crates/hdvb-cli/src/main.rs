//! `hdvb` — the HD-VideoBench command-line front end.
//!
//! Plays the role MPlayer/MEncoder play in the original benchmark
//! (paper Table IV): a single driver that selects a codec, runs encode
//! or decode with video output disabled, and reports benchmark numbers.

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
hdvb — HD-VideoBench: a benchmark for HD digital video applications

USAGE:
    hdvb <COMMAND> [OPTIONS]

COMMANDS:
    list-codecs                     the benchmark applications (paper Table II)
    list-sequences                  the input sequences (paper Table III)
    generate                        render a synthetic sequence to .y4m
    encode                          encode a sequence (or .y4m) to an .hvb stream
    decode                          decode an .hvb stream (optionally to .y4m)
    psnr                            PSNR between a .y4m file and its reference
    bench                           encode+decode throughput for one configuration
    kernels                         per-kernel ns/call at every supported SIMD tier
    table5                          reproduce Table V (rate-distortion comparison)
    figure1                         reproduce Figure 1 (decode/encode fps, scalar+SIMD)
    profile                         traced encode+decode with per-stage attribution
    fuzz                            structure-aware differential fuzzing of the decoders
    serve                           run one streaming encode/transcode session
                                    (--bind <addr> serves sessions over TCP instead)
    connect                         TCP client for a serve --bind server
    serve-bench                     open-loop serving load test with latency SLO report
    serve-load                      TCP latency-vs-load sweep with SLO admission
                                    (writes BENCH_loadcurve.json)
    pools                           frame/bitstream pool efficiency diagnostic
    ladder                          ABR transcode ladder: decode once, encode per rung
                                    (writes BENCH_ladder.json)
    screen                          screen-content workload per codec
                                    (writes BENCH_screen.json)
    chaos                           seeded fault campaign: inject disconnects,
                                    truncations, stalls and bit flips, verify
                                    byte-identical recovery, write BENCH_chaos.json

COMMON OPTIONS:
    --codec <mpeg2|mpeg4|h264>      codec under test
    --sequence <name>               blue_sky | pedestrian_area | riverbed | rush_hour
    --resolution <r>                576p25 | 720p25 | 1088p25 | <W>x<H>   [default: 576p25]
    --frames <n>                    frames to process                     [default: 100]
    --qscale <q>                    MPEG quantiser scale (H.264 QP via Eq. 1) [default: 5]
    --simd <scalar|sse2|avx2|auto>  kernel tier (auto = detect best)      [default: auto]
    --json                          also write BENCH_kernels.json / BENCH_figure1.json
                                    (bench, kernels and figure1 commands)
    --b-frames <n>                  B pictures between anchors            [default: 2]
    -i, --input <file>              input file (.y4m for encode, .hvb for decode)
    -o, --output <file>             output file
    --scale <d>                     divide benchmark resolutions by d (quick runs)
    --part <a|b|c|d|all>            figure1: subfigure(s) to measure      [default: all]
    --threads <n|auto>              worker threads                        [default: auto]
                                    table5/figure1 fan independent grid cells over
                                    the pool (table5 numbers identical to
                                    --threads 1; figure1 fps are wall-clock, so
                                    use --threads 1 for reference timings);
                                    bench/encode use GOP-parallel encoding
    --trace <out.json>              write a chrome://tracing trace (Perfetto-loadable)
                                    and print the per-stage summary on exit
                                    (encode, decode, bench, table5, figure1, profile)
    --cell-timeout <secs|off|auto>  table5/figure1: per-cell wall-clock budget;
                                    overruns report as timed-out instead of
                                    stalling the sweep (auto derives the budget
                                    from resolution and frames)  [default: auto]
    --max-retries <n>               table5/figure1: extra attempts for a failed
                                    or panicked cell                      [default: 2]
    --journal <path>                table5/figure1: append every finished cell to
                                    this checkpoint journal as the sweep runs
    --resume                        table5/figure1: load --journal first and skip
                                    cells it already records as completed
    --seconds <n>                   fuzz: mutation budget in seconds      [default: 60]
    --seed <n>                      fuzz: PRNG seed (also salts sweep retry
                                    backoff jitter)                       [default: 1]
    --roundtrips <n>                fuzz: encoder round-trip oracle cases [default: 16]
    --corpus <dir>                  fuzz: replay this corpus first and persist any
                                    minimised failure reproducers into it
    --write-golden <dir>            fuzz: regenerate the golden corruption vectors
                                    into <dir> and exit
    --resilient                     decode/serve: drop corrupt packets with a warning
                                    instead of aborting the stream
    --sessions <n>                  serve-bench: concurrent sessions      [default: 8]
    --fps <n>                       serve-bench: offered per-session rate [default: 30]
    --duration <secs>               serve-bench: schedule length          [default: 5]
    --mode <m>                      serve-bench: encode|decode|transcode  [default: encode]
    --queue-cap <n>                 serve/serve-bench: per-session input queue
                                    capacity                              [default: 8]
    --queue-policy <p>              serve/serve-bench: block | drop-oldest (what a
                                    full session queue does)              [default: block]
                                    (serve-bench --seed also seeds arrival jitter;
                                    same seed, same admission order; serve-bench
                                    --resolution defaults to 288x160)
    --bind <addr>                   serve: listen for TCP wire-protocol sessions on
                                    this address (e.g. 127.0.0.1:4800) for --seconds,
                                    then print fleet stats and exit
    --addr <host:port>              connect: the serve --bind server to dial
    --priority <live|batch>         connect: scheduling class        [default: batch]
    --slo-p99 <ms>                  serve --bind / serve-load: reject OPENs when the
                                    fleet rolling p99 exceeds this SLO
    --slo-min-samples <n>           admission warm-up grace           [default: 50]
    --batch-headroom <f>            batch admission threshold as a fraction of the
                                    SLO; batch sheds first            [default: 0.7]
    --rate <n>                      serve --bind / serve-load: per-connection token
                                    bucket, inputs/second (burst = one second)
                                    (serve-load --sessions takes a comma list,
                                    e.g. 1,2,4,8 — the sweep axis)
    --faults <plan>                 chaos: the fault plan (HDVB_NET_FAULTS grammar),
                                    e.g. \"drop@4,truncate@12:13,garble@16,seed=7\"
    --trials <n>                    chaos: faulted runs to execute      [default: 1]
    --retries <n>                   connect/chaos: reconnect budget     [default: 16]
                                    (connect opens resumable sessions and recovers
                                    from disconnects byte-identically; --seed salts
                                    the backoff jitter)
    --heartbeat-ms <ms>             serve --bind / chaos: PING interval; silent peers
                                    are reaped at twice this; 0 disables
                                    (serve default 30000, chaos default 200)
    --rungs <WxH,...>               ladder: explicit rung resolutions (default:
                                    full, 2/3, 1/2 and 1/4 of the source)
    --switch <n>                    ladder: segment length in frames — the rung
                                    switching granularity; must be a multiple of
                                    the GOP length                    [default: 4 GOPs]
                                    (ladder --sequence also accepts \"screen\";
                                    ladder/screen --seed seeds the screen content)

ENVIRONMENT:
    HDVB_SIMD                       force a kernel tier (scalar|sse2|avx2|auto)
    HDVB_FAULTS                     deterministic fault injection for sweeps, e.g.
                                    \"panic@2x1,stall@4:2000x1,seed=7\" (see DESIGN.md)
    HDVB_NET_DEBUG                  serve --bind / serve-load: log every admission
                                    decision (fleet p99 vs class threshold) to stderr
    HDVB_NET_FAULTS                 deterministic wire fault injection for TCP
                                    clients and serve --bind, e.g.
                                    \"drop@4,truncate@9:11,garble@13,stall@17:40,seed=7\"
                                    (indices count outgoing data messages; see DESIGN.md)

EXAMPLES:
    hdvb encode --codec h264 --sequence blue_sky --resolution 720p25 -o out.hvb
    hdvb decode -i out.hvb --simd scalar -o out.y4m
    hdvb psnr -i out.y4m --sequence blue_sky
    hdvb table5 --frames 24 --scale 2 --threads 4
    hdvb table5 --frames 24 --journal sweep.journal     # checkpoint as it runs
    hdvb table5 --frames 24 --journal sweep.journal --resume   # heal a killed run
    hdvb figure1 --frames 24 --scale 2 --threads 4 --json
    hdvb kernels --json
    hdvb fuzz --seconds 60 --seed 1 --corpus tests/corpus
    hdvb profile --codec h264 --sequence rush_hour --frames 8 --trace trace.json
    hdvb serve --codec h264 --sequence rush_hour --frames 24 -o out.hvb
    hdvb serve -i out.hvb --codec mpeg2 --resilient -o transcoded.hvb
    hdvb serve-bench --sessions 64 --fps 30 --duration 5
    hdvb serve-bench --codec h264 --queue-policy drop-oldest --seed 7
    hdvb serve --bind 127.0.0.1:4800 --seconds 30 --slo-p99 250 &
    hdvb connect --addr 127.0.0.1:4800 --codec mpeg2 --sequence blue_sky \\
         --frames 24 --priority live -o out.hvb
    hdvb serve-load --sessions 1,2,4,8 --fps 30 --duration 2 --slo-p99 50
    hdvb pools --codec h264
    hdvb ladder --codec h264 --sequence screen --resolution 288x160 --frames 24
    hdvb ladder -i out.hvb --rungs 720x576,360x288 --switch 12
    hdvb screen --resolution 288x160 --frames 24 --seed 7
    hdvb chaos --faults \"drop@4,truncate@12:13,garble@16,drop@20,seed=7\" \\
         --frames 24 --trials 2 --heartbeat-ms 200
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" || command == "help" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let parsed = match args::Parsed::parse(&argv[1..]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "list-codecs" => commands::list_codecs(),
        "list-sequences" => commands::list_sequences(),
        "generate" => commands::generate(&parsed),
        "encode" => commands::encode(&parsed),
        "decode" => commands::decode(&parsed),
        "psnr" => commands::psnr(&parsed),
        "bench" => commands::bench(&parsed),
        "kernels" => commands::kernels(&parsed),
        "table5" => commands::table5(&parsed),
        "figure1" => commands::figure1(&parsed),
        "profile" => commands::profile(&parsed),
        "fuzz" => commands::fuzz(&parsed),
        "serve" => commands::serve(&parsed),
        "connect" => commands::connect(&parsed),
        "serve-bench" => commands::serve_bench(&parsed),
        "serve-load" => commands::serve_load(&parsed),
        "pools" => commands::pools(&parsed),
        "ladder" => commands::ladder(&parsed),
        "screen" => commands::screen(&parsed),
        "chaos" => commands::chaos(&parsed),
        other => {
            eprintln!("error: unknown command {other:?}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
