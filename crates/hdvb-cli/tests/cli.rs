//! End-to-end tests of the `hdvb` binary: the Table IV-style driver
//! commands must work from the command line.

use std::path::PathBuf;
use std::process::Command;

fn hdvb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hdvb"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hdvb-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_lists_commands() {
    let out = hdvb().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["encode", "decode", "table5", "figure1", "list-codecs"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = hdvb().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

/// A misspelt option must not run the command with the default in its
/// place (here: 100 frames measured and reported for a request of 2).
#[test]
fn unknown_option_fails_and_is_named() {
    let out = hdvb()
        .args([
            "bench",
            "--codec",
            "mpeg2",
            "--sequence",
            "blue_sky",
            "--resolution",
            "64x48",
            "--frmes",
            "2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "nothing is measured");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option --frmes"), "{err}");
}

#[test]
fn list_commands_run() {
    for cmd in ["list-codecs", "list-sequences"] {
        let out = hdvb().arg(cmd).output().unwrap();
        assert!(out.status.success(), "{cmd}");
        assert!(!out.stdout.is_empty());
    }
}

#[test]
fn encode_decode_generate_pipeline() {
    let stream = tmp("stream.hvb");
    let video = tmp("decoded.y4m");
    let raw = tmp("raw.y4m");

    // Encode a tiny synthetic clip.
    let out = hdvb()
        .args([
            "encode",
            "--codec",
            "mpeg2",
            "--sequence",
            "rush_hour",
            "--resolution",
            "96x80",
            "--frames",
            "5",
            "-o",
        ])
        .arg(&stream)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "encode failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stream.exists());

    // Decode it back to y4m, scalar decoder.
    let out = hdvb()
        .args(["decode", "--simd", "scalar", "-i"])
        .arg(&stream)
        .arg("-o")
        .arg(&video)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "decode failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let decoded = std::fs::read(&video).unwrap();
    assert!(decoded.starts_with(b"YUV4MPEG2"));

    // Generate the raw original too.
    let out = hdvb()
        .args([
            "generate",
            "--sequence",
            "rush_hour",
            "--resolution",
            "96x80",
            "--frames",
            "5",
            "-o",
        ])
        .arg(&raw)
        .output()
        .unwrap();
    assert!(out.status.success());
    // Same frame count (both y4m files have 5 FRAME markers).
    let raw_bytes = std::fs::read(&raw).unwrap();
    let count = |b: &[u8]| b.windows(5).filter(|w| w == b"FRAME").count();
    assert_eq!(count(&decoded), 5);
    assert_eq!(count(&raw_bytes), 5);

    // Re-encode the decoded y4m through a different codec.
    let stream2 = tmp("stream2.hvb");
    let out = hdvb()
        .args(["encode", "--codec", "h264", "-i"])
        .arg(&video)
        .arg("-o")
        .arg(&stream2)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "transcode failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    for f in [stream, video, raw, stream2] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn bench_command_reports_fps() {
    let out = hdvb()
        .args([
            "bench",
            "--codec",
            "mpeg4",
            "--sequence",
            "blue_sky",
            "--resolution",
            "96x80",
            "--frames",
            "4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("encode"), "{text}");
    assert!(text.contains("fps"), "{text}");
}

#[test]
fn table5_small_run_produces_markdown() {
    let out = hdvb()
        .args(["table5", "--frames", "2", "--scale", "16"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table V"));
    assert!(text.contains("blue_sky"));
    assert!(text.contains("compression gain"));
}

#[test]
fn decode_rejects_garbage() {
    let bad = tmp("garbage.hvb");
    std::fs::write(&bad, b"this is not a stream").unwrap();
    let out = hdvb().args(["decode", "-i"]).arg(&bad).output().unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_file(bad);
}

/// Writes a tiny stream with packet #1's payload replaced by garbage.
fn corrupt_stream(path: &std::path::Path) {
    use hdvb_core::{encode_sequence, write_stream, CodecId, CodingOptions, StreamHeader};
    use hdvb_frame::Resolution;
    use hdvb_seq::{Sequence, SequenceId};
    let seq = Sequence::new(SequenceId::RushHour, Resolution::new(64, 48));
    let mut encoded = encode_sequence(CodecId::Mpeg2, seq, 4, &CodingOptions::default()).unwrap();
    encoded.packets[1].data = vec![0xFF; 40];
    let header = StreamHeader {
        codec: CodecId::Mpeg2,
        format: seq.format(),
    };
    let file = std::fs::File::create(path).unwrap();
    write_stream(std::io::BufWriter::new(file), &header, &encoded.packets).unwrap();
}

#[test]
fn resilient_decode_warns_and_continues_where_strict_aborts() {
    let stream = tmp("corrupt.hvb");
    corrupt_stream(&stream);

    let strict = hdvb().args(["decode", "-i"]).arg(&stream).output().unwrap();
    assert!(!strict.status.success(), "strict decode must abort");

    let resilient = hdvb()
        .args(["decode", "--resilient", "-i"])
        .arg(&stream)
        .output()
        .unwrap();
    assert!(
        resilient.status.success(),
        "{}",
        String::from_utf8_lossy(&resilient.stderr)
    );
    let err = String::from_utf8_lossy(&resilient.stderr);
    assert!(err.contains("dropped corrupt packet"), "{err}");
    let _ = std::fs::remove_file(stream);
}

#[test]
fn serve_single_session_is_bit_identical_to_encode() {
    let batch = tmp("batch.hvb");
    let served = tmp("served.hvb");
    let common = [
        "--codec",
        "h264",
        "--sequence",
        "rush_hour",
        "--resolution",
        "96x80",
        "--frames",
        "6",
    ];
    let out = hdvb()
        .args(["encode"])
        .args(common)
        .args(["--threads", "1", "-o"])
        .arg(&batch)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = hdvb()
        .args(["serve"])
        .args(common)
        .args(["-o"])
        .arg(&served)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&batch).unwrap(),
        std::fs::read(&served).unwrap(),
        "served stream differs from batch encode"
    );

    // And the served stream transcodes through a serve session.
    let transcoded = tmp("transcoded.hvb");
    let out = hdvb()
        .args(["serve", "--codec", "mpeg2", "-i"])
        .arg(&served)
        .args(["-o"])
        .arg(&transcoded)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = hdvb()
        .args(["decode", "-i"])
        .arg(&transcoded)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in [batch, served, transcoded] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn serve_bench_reports_slos_and_writes_json() {
    // BENCH_serve.json lands in the working directory, so run in a
    // scratch dir.
    let dir = tmp("serve-bench-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let out = hdvb()
        .current_dir(&dir)
        .args([
            "serve-bench",
            "--codec",
            "mpeg2",
            "--sessions",
            "2",
            "--fps",
            "60",
            "--duration",
            "0.2",
            "--resolution",
            "64x48",
            "--seed",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    for col in ["p50", "p95", "p99", "q-depth", "mpeg2"] {
        assert!(table.contains(col), "missing {col} in:\n{table}");
    }
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("clean shutdown"), "{err}");
    let json = std::fs::read_to_string(dir.join("BENCH_serve.json")).unwrap();
    assert!(json.contains("\"schema\":\"hdvb-serve-bench/v1\""));
    assert!(json.contains("\"p99\":"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn ladder_writes_report_and_json() {
    // BENCH_ladder.json lands in the working directory, so run in a
    // scratch dir.
    let dir = tmp("ladder-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let out = hdvb()
        .current_dir(&dir)
        .args([
            "ladder",
            "--codec",
            "mpeg2",
            "--sequence",
            "screen",
            "--resolution",
            "96x64",
            "--frames",
            "12",
            "--switch",
            "6",
            "--seed",
            "7",
            "--threads",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    for col in ["rung", "kbit/s", "PSNR-Y", "96x64", "48x32"] {
        assert!(table.contains(col), "missing {col} in:\n{table}");
    }
    let json = std::fs::read_to_string(dir.join("BENCH_ladder.json")).unwrap();
    for field in [
        "\"schema\": \"hdvb-ladder/v1\"",
        "\"switch_interval\": 6",
        "\"segment_starts\": [0, 6]",
        "\"psnr_y\":",
    ] {
        assert!(json.contains(field), "missing {field} in:\n{json}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn ladder_rejects_bad_switch_interval() {
    // 5 is not a multiple of the default GOP length (b_frames 2 -> 3).
    let dir = tmp("ladder-bad-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let out = hdvb()
        .current_dir(&dir)
        .args([
            "ladder",
            "--codec",
            "mpeg2",
            "--resolution",
            "96x64",
            "--frames",
            "6",
            "--switch",
            "5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("multiple of the GOP"), "{err}");
    assert!(
        !dir.join("BENCH_ladder.json").exists(),
        "failed run must not leave a BENCH file"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn ladder_accepts_explicit_rungs() {
    let dir = tmp("ladder-rungs-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let out = hdvb()
        .current_dir(&dir)
        .args([
            "ladder",
            "--codec",
            "mpeg2",
            "--resolution",
            "96x64",
            "--frames",
            "6",
            "--switch",
            "6",
            "--rungs",
            "96x64,48x32",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("BENCH_ladder.json")).unwrap();
    assert!(json.contains("\"resolution\": \"96x64\""), "{json}");
    assert!(json.contains("\"resolution\": \"48x32\""), "{json}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn screen_writes_report_and_json_for_all_codecs() {
    let dir = tmp("screen-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let out = hdvb()
        .current_dir(&dir)
        .args([
            "screen",
            "--resolution",
            "96x64",
            "--frames",
            "6",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    for col in ["codec", "kbit/s", "PSNR-Y", "mpeg2", "mpeg4", "h264"] {
        assert!(table.contains(col), "missing {col} in:\n{table}");
    }
    let json = std::fs::read_to_string(dir.join("BENCH_screen.json")).unwrap();
    for field in [
        "\"schema\": \"hdvb-screen/v1\"",
        "\"seed\": 7",
        "\"codec\": \"mpeg2\"",
        "\"codec\": \"h264\"",
        "\"decode_fps\":",
    ] {
        assert!(json.contains(field), "missing {field} in:\n{json}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
