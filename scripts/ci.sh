#!/usr/bin/env sh
# CI gate for the HD-VideoBench workspace: formatting, lints, release
# build and the full test suite. Run from the repository root.
set -eu
# A failure must not be masked by a downstream pipe stage (POSIX sh
# guard: dash < 0.5.12 has no pipefail).
(set -o pipefail) 2>/dev/null && set -o pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release (workspace, including the hdvb binary)"
cargo build --release --workspace

echo "==> cargo test (HDVB_SIMD=scalar)"
HDVB_SIMD=scalar cargo test -q --workspace

echo "==> cargo test (HDVB_SIMD=auto)"
HDVB_SIMD=auto cargo test -q --workspace

echo "==> traced smoke encode + chrome-trace check"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
./target/release/hdvb encode --codec h264 --sequence rush_hour \
    --resolution 96x80 --frames 4 --trace "$tmpdir/trace.json" \
    -o "$tmpdir/out.hvb" 2> "$tmpdir/summary.txt"
python3 scripts/check_trace.py "$tmpdir/trace.json"
grep -q "stage coverage of encode_frame" "$tmpdir/summary.txt" || {
    echo "traced encode printed no stage-coverage summary" >&2
    cat "$tmpdir/summary.txt" >&2
    exit 1
}

echo "==> disabled-path overhead guard (probe must stay one atomic load)"
cargo test -q -p hdvb-trace disabled_probe_is_cheap

echo "==> allocation-regression gate (steady-state sessions: 0 heap allocs/frame)"
# Every codec x {encode, decode, transcode} through the pooled session
# API: after the warm-up window, a single step that allocates fails the
# build (see DESIGN.md section 14). --nocapture prints the per-stage
# table.
cargo test --release -q -p hdvb-bench --test alloc_gate -- --nocapture

echo "==> deterministic fuzz smoke (replays tests/corpus, then 20s of mutation)"
./target/release/hdvb fuzz --seconds 20 --seed 7 --corpus tests/corpus

echo "==> chaos smoke (seeded panic + stall injection, then clean resume)"
# Cell 2 panics on all three attempts (exhausts the default 2 retries),
# cell 4 stalls past its 2 s budget. The sweep must finish anyway,
# report both cells, and a clean --resume must heal the table.
HDVB_FAULTS="panic@2x3,stall@4:4000x1,seed=7" ./target/release/hdvb figure1 \
    --frames 2 --scale 8 --threads 2 --simd scalar --part a --cell-timeout 2 \
    --journal "$tmpdir/sweep.journal" > "$tmpdir/chaos.txt" 2>&1
grep -q "1 failed, 1 timed out" "$tmpdir/chaos.txt" || {
    echo "chaos sweep did not report the injected failures" >&2
    cat "$tmpdir/chaos.txt" >&2
    exit 1
}
./target/release/hdvb figure1 \
    --frames 2 --scale 8 --threads 2 --simd scalar --part a --cell-timeout 2 \
    --journal "$tmpdir/sweep.journal" --resume > "$tmpdir/resume.txt" 2>&1
grep -q "0 failed, 0 timed out" "$tmpdir/resume.txt" || {
    echo "resume did not heal the chaos sweep" >&2
    cat "$tmpdir/resume.txt" >&2
    exit 1
}
if grep -q "n/a" "$tmpdir/resume.txt"; then
    echo "resumed figure1 table still has unmeasured cells" >&2
    cat "$tmpdir/resume.txt" >&2
    exit 1
fi
# SIMD-tier case: every accelerated tier this CPU has is its own set of
# cells with its own journal records. The fps are wall-clock, so a
# resumed run that restored one tier's cells from another's records
# prints a different table; it must print the journaling run's, byte
# for byte.
./target/release/hdvb figure1 --part b --frames 2 --scale 8 --threads 1 \
    --journal "$tmpdir/tiers.journal" > "$tmpdir/tiers.txt" 2> /dev/null
./target/release/hdvb figure1 --part b --frames 2 --scale 8 --threads 1 \
    --journal "$tmpdir/tiers.journal" --resume > "$tmpdir/tiers_resumed.txt" 2> /dev/null
# The resumed run appends its "cells: ... restored" accounting after the
# attribution line; the Figure 1 table is everything up to that line.
sed '/^Measured on:/q' "$tmpdir/tiers.txt" > "$tmpdir/tiers_table.txt"
sed '/^Measured on:/q' "$tmpdir/tiers_resumed.txt" | cmp - "$tmpdir/tiers_table.txt" || {
    echo "resumed figure1 --part b differs from the run that wrote the journal" >&2
    diff "$tmpdir/tiers.txt" "$tmpdir/tiers_resumed.txt" >&2 || true
    exit 1
}
grep -q " 0 completed, .* restored, 0 failed, 0 timed out" "$tmpdir/tiers_resumed.txt" || {
    echo "resumed figure1 --part b re-ran cells instead of restoring them" >&2
    cat "$tmpdir/tiers_resumed.txt" >&2
    exit 1
}

echo "==> unknown options are rejected (a typo must not run with the default)"
if ./target/release/hdvb table5 --frames 2 --scale 16 --no-such-option 1 \
    > /dev/null 2> "$tmpdir/unknown.txt"; then
    echo "hdvb accepted --no-such-option" >&2
    exit 1
fi
grep -q "unknown option --no-such-option" "$tmpdir/unknown.txt" || {
    echo "hdvb did not name the unknown option" >&2
    cat "$tmpdir/unknown.txt" >&2
    exit 1
}

echo "==> serve smoke (8 sessions x 30 fps x 5 s, block policy: lossless, finite p99)"
(cd "$tmpdir" && "$OLDPWD/target/release/hdvb" serve-bench --codec mpeg2 \
    --sessions 8 --fps 30 --duration 5 --resolution 96x80 --seed 7 \
    > serve.txt 2> serve.log)
grep -q "clean shutdown" "$tmpdir/serve.log" || {
    echo "serve-bench did not report a clean shutdown" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
}
python3 - "$tmpdir/BENCH_serve.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "hdvb-serve-bench/v1", doc.get("schema")
(run,) = doc["runs"]
assert run["policy"] == "block"
# Block policy is lossless: every offered frame admitted and completed.
assert run["offered"] == run["admitted"] == run["completed"], run
assert run["discarded"] == 0 and run["rejected"] == 0 and run["errors"] == 0, run
p99 = run["latency_ns"]["p99"]
assert 0 < p99 < 2**40, p99
assert run["queue_depth"]["max"] >= 1
print(f"serve smoke ok: {run['completed']} frames, p99 {p99/1e6:.2f} ms")
EOF

echo "==> loopback TCP smoke (serve --bind + connect transcode, byte-identical to in-process serve)"
# Build a small MPEG-2 source, transcode it to H.264 twice — once
# through the in-process serve path, once over a real TCP connection —
# and require the output containers to be byte-identical: the wire
# moves bytes, never changes them.
./target/release/hdvb encode --codec mpeg2 --sequence blue_sky \
    --resolution 96x80 --frames 8 -o "$tmpdir/src.hvb" > /dev/null
./target/release/hdvb serve -i "$tmpdir/src.hvb" --codec h264 --threads 1 \
    -o "$tmpdir/local.hvb" > /dev/null
./target/release/hdvb serve --bind 127.0.0.1:0 --seconds 20 \
    > "$tmpdir/net.log" 2>&1 &
net_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$tmpdir/net.log" 2>/dev/null && break
    sleep 0.1
done
net_addr=$(sed -n 's/.*listening on //p' "$tmpdir/net.log" | head -1)
[ -n "$net_addr" ] || { echo "serve --bind never came up" >&2; cat "$tmpdir/net.log" >&2; exit 1; }
./target/release/hdvb connect --addr "$net_addr" -i "$tmpdir/src.hvb" \
    --codec h264 --priority live -o "$tmpdir/remote.hvb" > "$tmpdir/connect.txt"
wait "$net_pid"
cmp "$tmpdir/local.hvb" "$tmpdir/remote.hvb" || {
    echo "TCP transcode diverged from in-process serve" >&2
    exit 1
}
grep -Eq "live +admitted 1" "$tmpdir/net.log" || {
    echo "server stats did not count the live session" >&2
    cat "$tmpdir/net.log" >&2
    exit 1
}
echo "loopback smoke ok: remote.hvb == local.hvb"

echo "==> repo benchmark (its own unit tests, then the toy-size smoke of all four workloads)"
# The smoke asserts every BENCHMARK.json metric name prints once and
# finite, and runs each workload's correctness checks against the
# current wire. CARGO_TARGET_DIR stays at run.sh's default
# (.bench_build, git-ignored) so repeated CI runs reuse the build.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}" \
    cargo test --offline -q --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke
# run.sh builds --offline but not --locked: a new crate, or a new edge
# between existing crates, makes cargo rewrite benchmark/Cargo.lock. Fail
# here instead of surprising the measurement pipeline (DESIGN.md §3).
git diff --exit-code -- benchmark BENCHMARK.json || {
    echo "building the benchmark modified benchmark/ or BENCHMARK.json (crate graph moved?)" >&2
    exit 1
}

echo "==> serve-load smoke (TCP saturation sweep, loadcurve schema check)"
(cd "$tmpdir" && "$OLDPWD/target/release/hdvb" serve-load --codec mpeg2 \
    --sessions 1,2 --fps 20 --duration 1 --resolution 96x80 \
    --slo-p99 250 --seed 7 > loadcurve.txt 2> loadcurve.log)
python3 - "$tmpdir/BENCH_loadcurve.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "hdvb-loadcurve/v1", doc.get("schema")
assert [c["sessions"] for c in doc["cells"]] == [1, 2], doc["cells"]
for cell in doc["cells"]:
    for cls in ("live", "batch"):
        c = cell[cls]
        assert c["admitted"] + c["rejected"] >= 0
        assert 0.0 <= c["rejection_rate"] <= 1.0, c
    assert cell["goodput_fps"] > 0, cell
    assert cell["client_errors"] == 0, cell
assert "frame" in doc["pools"] and "buffer" in doc["pools"]
print(f"serve-load smoke ok: {len(doc['cells'])} cells, schema {doc['schema']}")
EOF

echo "==> network chaos smoke (seeded wire faults, byte-identical recovery)"
# Two severed connections, a stall, a mid-message truncation (which
# also severs) and a payload bit flip, all at fixed message indices.
# Gates are counts and byte-identity only — never wall-clock.
(cd "$tmpdir" && "$OLDPWD/target/release/hdvb" chaos \
    --faults "drop@4,stall@6:20,truncate@12:13,garble@16,drop@20,seed=7" \
    --codec mpeg2 --sequence blue_sky --resolution 96x80 --frames 12 \
    --trials 2 --heartbeat-ms 150 --seed 7 > netchaos.txt 2> netchaos.log)
python3 - "$tmpdir/BENCH_chaos.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "hdvb-chaos/v1", doc.get("schema")
assert doc["identical"] is True, doc
assert doc["reference"]["completed"] == doc["frames"] == 12, doc["reference"]
assert len(doc["runs"]) == 2, doc["runs"]
for run in doc["runs"]:
    assert run["identical"] is True, run
    assert run["digest"] == doc["reference"]["digest"], run
    assert run["faults_fired"] == run["faults_total"] == 5, run
    # Three severing rules (two drops + the truncation), spaced wider
    # than a recovery's handshake traffic: three distinct outages.
    assert run["reconnects"] >= 3, run
    assert run["error"] is None, run
srv = doc["server"]
assert srv["resumes"] >= 6, srv
assert srv["disconnects"] >= 6, srv
print(f"network chaos smoke ok: {len(doc['runs'])} trials byte-identical, "
      f"{srv['resumes']} resumes, schema {doc['schema']}")
EOF

echo "==> ladder + screen smoke (ABR rung conformance, schema checks)"
(cd "$tmpdir" && "$OLDPWD/target/release/hdvb" ladder --codec mpeg2 \
    --sequence screen --resolution 96x64 --frames 12 --switch 6 --seed 7 \
    --threads 1 > ladder.txt 2> ladder.log)
python3 - "$tmpdir/BENCH_ladder.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "hdvb-ladder/v1", doc.get("schema")
assert doc["frames"] == 12 and doc["switch_interval"] == 6, doc
assert doc["segments"] == 2, doc["segments"]
assert len(doc["rungs"]) >= 2, doc["rungs"]
for rung in doc["rungs"]:
    assert rung["packets"] == 12, rung
    assert rung["bits"] > 0 and rung["kbps"] > 0, rung
    assert rung["psnr_y"] > 20, rung
    assert rung["segment_starts"][0] == 0, rung
print(f"ladder smoke ok: {len(doc['rungs'])} rungs, schema {doc['schema']}")
EOF
(cd "$tmpdir" && "$OLDPWD/target/release/hdvb" screen --resolution 96x64 \
    --frames 8 --seed 7 > screen.txt 2> screen.log)
python3 - "$tmpdir/BENCH_screen.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "hdvb-screen/v1", doc.get("schema")
assert doc["frames"] == 8 and doc["seed"] == 7, doc
assert len(doc["codecs"]) == 3, doc["codecs"]
for c in doc["codecs"]:
    assert c["bits"] > 0 and c["psnr_y"] > 20, c
    assert c["encode_fps"] > 0 and c["decode_fps"] > 0, c
print(f"screen smoke ok: {len(doc['codecs'])} codecs, schema {doc['schema']}")
EOF

echo "CI green."
